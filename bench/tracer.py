"""Per-layer tracing from outside the program.

The tracer rebinds the public functions of each nclobber module to
timing wrappers, under every name a module binds them to (solver imports
movers_mask by name, so wrapping game_core.movers_mask alone would miss
the solver's calls).  Each wrapper counts calls and adds self time: the
span minus the spans of traced calls made inside it, so recursion is not
counted twice.  Spans are folded into per-function totals in memory as
they close and reported once, when the pass ends.

A function that returns a generator (generate_boards) is charged for the
time spent producing each item, not just for creating the generator.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, function) pairs timed in a traced pass.
TRACED = {
    "game_core": ("movers_mask", "legal_moves", "apply_move", "parse_board"),
    "solver": ("evaluate",),
    "values": ("choice", "normalize", "parse_value", "render_value"),
    "preferences": (
        "prune",
        "chain_coordinate",
        "merge_incomparable_simples",
        "compare",
        "prudent_compare",
        "prudent_simplify",
    ),
    "enumeration": ("generate_boards", "enumerate_values"),
    "cli": ("main",),
}

# Functions that return a generator; the work happens as it is consumed.
LAZY = {"enumeration.generate_boards"}

# Module-global caches whose sizes a traced pass reports.
PREFERENCE_CACHES = {
    "leq_cache": "_LEQ_CACHE",
    "pless_cache": "_PLESS_CACHE",
    "ext_cache": "_EXT_CACHE",
    "quot_cache": "_QUOT_CACHE",
    "psimp_cache": "_PSIMP_CACHE",
}

# Reported for a cache or counter this version of the program lacks.
MISSING = -1


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            if (module, fn) != ("enumeration", "enumerate_values"):
                names.append(f"{module}.{fn}.calls")
            names.append(f"{module}.{fn}.self_s")
    names += ["solver.positions"]
    names += [
        "values.interned",
        "values.interned_text_bytes",
        "values.choice.new_ratio",
        "values.normalize.cache_entries",
    ]
    names += [f"preferences.{name}" for name in PREFERENCE_CACHES]
    return names


def _size(module, attr: str) -> int:
    table = getattr(module, attr, None)
    if table is None:
        print(f"trace: {module.__name__}.{attr} not found", file=sys.stderr)
        return MISSING
    return len(table)


class Tracer:
    def __init__(self) -> None:
        self._stack = [[0.0]]  # child time of each open span; root at 0
        self._totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self._positions = 0
        self._caches: list[weakref.ref] = []
        self._choices_before = 0
        self._count_positions = False

    def _wrap(self, name: str, fn):
        stack = self._stack
        total = self._totals.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def resume(gen):
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span = clock() - start
                    stack.pop()
                    total[1] += span - frame[0]
                    stack[-1][0] += span
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            total[0] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                total[1] += span - frame[0]
                stack[-1][0] += span
            return result

        if name not in LAZY:
            return traced

        @functools.wraps(fn)
        def traced_lazy(*args, **kwargs):
            return resume(traced(*args, **kwargs))

        return traced_lazy

    def install(self) -> None:
        """Rebind every traced function in every loaded nclobber module."""
        import nclobber
        from nclobber import solver, values

        self._choices_before = _size(values, "_CHOICES")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nclobber"]
        for short, functions in TRACED.items():
            home = getattr(nclobber, short)
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    print(f"trace: {short}.{fn_name} not found", file=sys.stderr)
                    continue
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, bound in list(vars(module).items()):
                        if bound is original:
                            setattr(module, attr, wrapper)

        tracer = self
        base = getattr(solver, "EvalCache", None)
        if base is None:
            print("trace: solver.EvalCache not found", file=sys.stderr)
            return

        class CountedEvalCache(base):
            """An EvalCache that adds its memo size to the run when freed."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._caches.append(weakref.ref(self))

            def __del__(self):
                tracer._positions += len(self.entries)

        CountedEvalCache.__name__ = base.__name__
        for module in modules:
            for attr, bound in list(vars(module).items()):
                if bound is base:
                    setattr(module, attr, CountedEvalCache)
        self._count_positions = True

    def report(self) -> dict[str, float]:
        """Per-layer metrics for everything traced since install()."""
        from nclobber import preferences, values

        out: dict[str, float] = dict.fromkeys(metric_names(), MISSING)
        for name, (calls, self_s) in self._totals.items():
            if name != "enumeration.enumerate_values":
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        if self._count_positions:
            live = sum(len(c.entries) for c in (r() for r in self._caches) if c is not None)
            out["solver.positions"] = self._positions + live

        leaves = getattr(values, "_LEAVES", None)
        choices = getattr(values, "_CHOICES", None)
        if leaves is None or choices is None:
            print("trace: values intern tables not found", file=sys.stderr)
        else:
            interned = list(leaves.values()) + list(choices.values())
            out["values.interned"] = len(interned)
            out["values.interned_text_bytes"] = sum(len(v.text) for v in interned)
            calls = self._totals.get("values.choice", [0])[0]
            new = len(choices) - self._choices_before
            out["values.choice.new_ratio"] = new / calls if calls else 0.0
        out["values.normalize.cache_entries"] = _size(values, "_NORMAL_CACHE")
        for name, attr in PREFERENCE_CACHES.items():
            out[f"preferences.{name}"] = _size(preferences, attr)
        return out
