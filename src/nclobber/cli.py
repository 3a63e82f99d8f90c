"""Command-line front end: solve boards, simplify and compare values,
and run the 1xn censuses, with text, csv, and json output.

A request makes one argparse pass: `main` parses the arguments after
the subcommand name with that subcommand's parser alone.

Exit codes: 0 on success (also when the reader of stdout stops early),
2 on usage errors (bad flags or arguments), 3 on domain errors
(unparseable board or value, no opening move, an --out file or stdout
that cannot be written, a request that runs out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .enumeration import REGIMES, enumerate_values, render_reports
from .preferences import compare, prudent_compare, prudent_simplify, pruning_fold
from .solver import MODES, Raw, Simple, evaluate_text, render_result
from .values import DEFAULT_PROFILE, NormalizationProfile, normalize, parse_value, quote


def _profile_arg(text: str) -> NormalizationProfile:
    try:
        return NormalizationProfile[text.upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown profile {text!r}; expected one of L0, L1, L2"
        )


def _grid_arg(text: str) -> tuple[int, int]:
    rows, sep, cols = text.lower().partition("x")
    if not sep or not rows.isdigit() or not cols.isdigit():
        raise argparse.ArgumentTypeError(
            f"grid must look like ROWSxCOLS, e.g. 2x3, got {text!r}"
        )
    return int(rows), int(cols)


def _modes_arg(text: str) -> tuple[str, ...]:
    if text == "all":
        return REGIMES
    picked = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in picked:
        if name not in REGIMES:
            raise argparse.ArgumentTypeError(
                f"unknown census regime {name!r}; expected from {', '.join(REGIMES)}"
            )
    if not picked:
        raise argparse.ArgumentTypeError("at least one census regime is required")
    if len(set(picked)) != len(picked):
        raise argparse.ArgumentTypeError(f"census regimes repeat in {quote(text)}")
    return picked


def _emit(text: str, out: Optional[str]) -> None:
    """Write text and a newline to out, or to stdout if out is None.

    A failed open, write or close is a domain error, except that a
    reader closing stdout early is not an error at all.
    """
    try:
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not out:
            # Point stdout at devnull so the flush at interpreter exit
            # does not fail again on what is still buffered.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return
        target = quote(out) if out else "stdout"
        raise ValueError(f"cannot write {target}: {exc.strerror}") from None


def _cmd_solve(args: argparse.Namespace) -> str:
    shape = args.grid or "line"
    result = evaluate_text(
        args.board, args.start, args.mode, args.profile, args.players, shape
    )
    rendered = render_result(result, args.render, args.players)
    if args.format == "text":
        return rendered
    payload = {
        "board": args.board,
        "shape": "line" if shape == "line" else f"{shape[0]}x{shape[1]}",
        "start": args.start,
        "mode": args.mode,
        # Only the syntactic and selfish results are rewritten with it.
        "profile": args.profile.name if args.mode in ("syntactic", "selfish") else None,
        "value": rendered,
    }
    return json.dumps(payload)


def _cmd_simplify(args: argparse.Namespace) -> str:
    if args.mode == "prudent" and args.players != 3:
        raise ValueError("prudent simplification is defined for exactly three players")
    value = parse_value(args.value, players=args.players)
    p = args.perspective
    if args.mode == "prudent":
        # Collapsed as given: a rewrite may drop a pass (prudent_simplify).
        result = Simple(prudent_simplify(value, p))
    else:
        value = normalize(value, args.profile, args.players)
        if args.mode != "raw" and value.children is not None:
            fold = pruning_fold(args.mode, args.profile, args.players)
            value = fold.step(value.children, p, {})
        result = Raw(value)
    rendered = render_result(result, args.render, args.players)
    if args.format == "text":
        return rendered
    payload = {
        "input": args.value,
        "mode": args.mode,
        "profile": None if args.mode == "prudent" else args.profile.name,
        "perspective": args.perspective,
        "value": rendered,
    }
    return json.dumps(payload)


def _cmd_compare(args: argparse.Namespace) -> str:
    if args.relation == "prudent" and args.players != 3:
        raise ValueError("the prudent relation is defined for exactly three players")
    left = parse_value(args.left, players=args.players)
    right = parse_value(args.right, players=args.players)
    p = args.perspective
    if args.relation == "prudent":
        outcome = prudent_compare(left, right, p)
    else:
        base = "indifferent" if args.relation == "indifferent" else "selfish"
        outcome = compare(left, right, p, base, args.players)
    if args.format == "text":
        return outcome.value
    payload = {
        "left": args.left,
        "right": args.right,
        "perspective": p,
        "relation": args.relation,
        "result": outcome.value,
    }
    return json.dumps(payload)


def _cmd_enumerate(args: argparse.Namespace) -> str:
    report = enumerate_values(
        args.n,
        args.modes,
        args.profile,
        workers=args.jobs,
        collect_inventory=args.inventory,
        players=args.players,
    )
    if args.format != "text":
        return render_reports([report], args.format)
    fields = [f"n={report.board_length}", f"games={report.games_analysed}"]
    fields += [f"{m}={count}" for m, count in report.unique_values.items()]
    lines = [" ".join(fields)]
    if args.inventory:
        for m, values in report.value_inventory.items():
            lines.append(f"{m}: " + " ".join(values))
    return "\n".join(lines)


def _cmd_table(args: argparse.Namespace) -> str:
    # Longest first, so that a census too large to run is refused at once.
    reports = [
        enumerate_values(
            n, args.modes, args.profile, args.jobs, collect_inventory=False,
            players=args.players,
        )
        for n in range(args.max_n, 1, -1)
    ]
    return render_reports(reports[::-1], args.format)


def _add_common(
    parser: argparse.ArgumentParser, *, formats: Sequence[str], profile: bool = True
) -> None:
    parser.add_argument("--players", type=int, default=3, help="number of players")
    if profile:
        parser.add_argument(
            "--profile",
            type=_profile_arg,
            default=DEFAULT_PROFILE,
            help=f"normalization profile L0/L1/L2 (default: {DEFAULT_PROFILE.name})",
        )
    parser.add_argument(
        "--format", choices=tuple(formats), default=formats[0], help="output format"
    )
    parser.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and, by name, its subcommands' parsers,
    built once per process.

    The parser's parse_args classifies every argument, then hands them
    all to the subcommand's parser, which parses them again.  A request
    makes one argparse pass instead: `main` hands argv[1:] straight to
    the parser of the subcommand that argv[0] names.
    """
    parser = argparse.ArgumentParser(
        prog="nclobber",
        description="Game values for N-player Clobber under normal play.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="evaluate a board position")
    solve.add_argument("board", help="board digits, e.g. 12223 (0 = empty cell)")
    solve.add_argument("--start", type=int, default=1, help="starting player")
    solve.add_argument("--mode", choices=MODES, default="raw")
    solve.add_argument(
        "--render", choices=("brackets", "bar"), default=None,
        help="value style (default: bar for prudent, brackets otherwise)",
    )
    solve.add_argument(
        "--grid", type=_grid_arg, default=None, metavar="ROWSxCOLS",
        help="read the digits as a grid instead of a line",
    )
    _add_common(solve, formats=("text", "json"))
    solve.set_defaults(handler=_cmd_solve)

    simplify = sub.add_parser("simplify", help="rewrite a value text")
    simplify.add_argument("value", help="value text, e.g. [[1,3]] or 2_1")
    simplify.add_argument(
        "--mode", choices=("raw", "selfish", "indifferent", "prudent"), default="raw",
        help="raw normalizes only; other modes also prune/merge options",
    )
    simplify.add_argument(
        "--perspective", type=int, default=None,
        help="whose view the options are pruned from (required unless raw)",
    )
    simplify.add_argument("--render", choices=("brackets", "bar"), default=None)
    _add_common(simplify, formats=("text", "json"))
    simplify.set_defaults(handler=_cmd_simplify)

    cmp_parser = sub.add_parser("compare", help="compare two values for a player")
    cmp_parser.add_argument("left")
    cmp_parser.add_argument("right")
    cmp_parser.add_argument(
        "-p", "--perspective", type=int, required=True, help="comparing player"
    )
    cmp_parser.add_argument(
        "--relation", choices=("base", "prudent", "indifferent"), default="base"
    )
    _add_common(cmp_parser, formats=("text", "json"), profile=False)
    cmp_parser.set_defaults(handler=_cmd_compare)

    enum_parser = sub.add_parser("enumerate", help="census of one board length")
    enum_parser.add_argument("n", type=int, help="board length")
    enum_parser.add_argument("--modes", type=_modes_arg, default=None)
    enum_parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    enum_parser.add_argument(
        "--inventory", action="store_true", help="also list the distinct values"
    )
    _add_common(enum_parser, formats=("text", "csv", "json"))
    enum_parser.set_defaults(handler=_cmd_enumerate)

    table = sub.add_parser("table", help="censuses for lengths 2..MAX_N")
    table.add_argument("max_n", type=int, help="largest board length")
    table.add_argument("--modes", type=_modes_arg, default=None)
    table.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_common(table, formats=("csv", "json"))
    table.set_defaults(handler=_cmd_table)

    return parser, sub.choices


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    players = args.players
    if not 1 <= players <= 9:
        parser.error(f"--players must be 1..9, got {players}")
    if args.command == "solve" and not 1 <= args.start <= players:
        parser.error(f"--start must be 1..{players}, got {args.start}")
    if args.command == "simplify" and args.mode != "raw" and args.perspective is None:
        parser.error(f"--mode {args.mode} needs --perspective")
    if args.command in ("simplify", "compare"):
        perspective = args.perspective
        if perspective is not None and not 1 <= perspective <= players:
            parser.error(f"--perspective must be 1..{players}, got {perspective}")
    if args.command in ("enumerate", "table"):
        if args.jobs < 1:
            parser.error(f"--jobs must be at least 1, got {args.jobs}")
        length = args.n if args.command == "enumerate" else args.max_n
        if not 2 <= length <= 13:
            parser.error(f"board length must be 2..13, got {length}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no command, an unknown one, or a flag first
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    _validate(parser, args)
    try:
        _emit(args.handler(args), args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
