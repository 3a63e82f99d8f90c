"""The acceptance gate: ten checks, one summary line each.

Every test computes its result, appends one "Cnn PASS/FAIL — detail"
line to the run summary (printed by conftest), then asserts.  Three
checks are knowingly red against the reference data; their assertion
messages carry the diagnosis and point at the shipped reports:

* C02 — the 1x9 prudent worked example: the reference prints 3_2, but
  3_2 sits strictly below the reachable 3_1 in the reference's own
  ordering chain, so prudent play keeps 3_1 (and only then does the
  prudent census column match at every length).
* C03 — the games-analysed column at n=13 only: the reference row was
  produced without the movability filter (reports/games_analysed_n13.md).
* C06 — the syntactic census column matches no rewrite profile; the
  calibration experiment ships reports/syntactic_discrepancy.md.
"""

import random
import re
import time
from pathlib import Path

import pytest

from helpers import (
    INVENTORY_8_PRUDENT,
    INVENTORY_8_SELFISH,
    PRUDENT_1232132321,
    PRUDENT_132323123_REFERENCE,
    SELFISH_1232132321,
    SELFISH_132323123,
    VALUE_123213,
    VALUE_12223,
    VALUE_1232132321,
    VALUE_213,
    base_ordering_violations,
    canonicalize,
    closed_form_disagreements,
    evaluate_all_starts,
    indifferent_collapse_disagreements,
    isolation_violations,
    successor_incomparability_violations,
)
from calibrate_profile import calibrate_normalization
from nclobber.enumeration import count_boards, enumerate_values, generate_boards
from nclobber.game_core import Position, parse_board
from nclobber.preferences import chain_coordinate, simple_compare, Comparison
from nclobber.solver import EvalCache, evaluate, evaluate_text
from nclobber.values import (
    DEFAULT_PROFILE,
    NormalizationProfile,
    SimpleValue,
    leaf,
    normalize,
    parse_value,
)
from published_counts import PUBLISHED_COUNTS

L2 = NormalizationProfile.L2
REPORTS_DIR = Path(__file__).resolve().parent.parent / "reports"


@pytest.fixture(scope="module")
def census():
    """One full census per board length 2..10, all four regimes."""
    start = time.perf_counter()
    reports = {n: enumerate_values(n) for n in range(2, 11)}
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def calibration():
    start = time.perf_counter()
    result = calibrate_normalization(range(2, 10))
    return result, time.perf_counter() - start


def _mod_l2(text: str) -> str:
    return normalize(parse_value(text), L2).text


# ---------------------------------------------------------------------------


def test_c01_raw_values_of_the_worked_examples(criterion_log):
    expected = {
        "213": VALUE_213,
        "12223": VALUE_12223,
        "123213": VALUE_123213,
        "1232132321": VALUE_1232132321,
    }
    start = time.perf_counter()
    got = {b: evaluate_text(b, mode="raw").value for b in expected}
    elapsed = time.perf_counter() - start
    bad = [
        b for b, text in expected.items() if got[b] is not parse_value(text)
    ]
    ok = not bad and len(got["1232132321"].text) == 675 and elapsed < 1.0
    criterion_log(
        f"C01 {'PASS' if ok else 'FAIL'} — raw values of the four worked "
        f"examples match the reference strings byte-for-byte (675 chars at "
        f"1x10) in {elapsed:.2f}s (budget 1s)"
    )
    assert not bad, f"raw values differ from the reference on {bad}"
    assert len(got["1232132321"].text) == 675
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_c02_simplified_values_of_the_worked_examples(criterion_log):
    start = time.perf_counter()
    sel10 = evaluate_text("1232132321", mode="selfish").value
    pru10 = evaluate_text("1232132321", mode="prudent").value
    sel9 = evaluate_text("132323123", mode="selfish").value
    pru9 = evaluate_text("132323123", mode="prudent").value
    elapsed = time.perf_counter() - start
    checks = {
        "1x10 selfish": normalize(sel10, L2)
        is normalize(parse_value(SELFISH_1232132321), L2),
        "1x10 prudent": pru10 == PRUDENT_1232132321,
        "1x9 selfish": normalize(sel9, L2)
        is normalize(parse_value(SELFISH_132323123), L2),
        "1x9 prudent": pru9 == PRUDENT_132323123_REFERENCE,
    }
    failed = [name for name, good in checks.items() if not good]
    if not failed and elapsed < 1.0:
        criterion_log("C02 PASS — simplified worked examples all match")
    else:
        criterion_log(
            f"C02 FAIL — 1x10 selfish/prudent and 1x9 selfish match the "
            f"reference; 1x9 prudent computes {pru9} where the reference "
            f"prints 3_2, which its own ordering chain places strictly below "
            f"the reachable 3_1 (elapsed {elapsed:.2f}s, budget 1s)"
        )
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    assert not failed, (
        f"simplified worked examples differ on {failed}: the 1x9 board's "
        f"three selfish options collapse to 3_1, 2_2 and 3_2 for the next "
        f"mover; for player 1 the chain ranks 3_1 (desc tier 1) above 2_2 "
        f"and 3_2 (asc tier 1), so prudent play keeps 3_1.  The reference's "
        f"printed 3_2 contradicts its own strict order 3_2 < 3_1, and the "
        f"prudent census column (C05) reproduces the reference at every "
        f"length only with the chain-consistent choice.  Computed: {pru9}."
    )


def test_c03_games_analysed_column(criterion_log):
    start = time.perf_counter()
    got = {n: count_boards(n) for n in range(2, 14)}
    elapsed = time.perf_counter() - start
    mismatches = {
        n: (got[n], PUBLISHED_COUNTS["games"][n])
        for n in got
        if got[n] != PUBLISHED_COUNTS["games"][n]
    }
    if not mismatches and elapsed < 60:
        criterion_log(
            f"C03 PASS — games-analysed column exact for n=2..13 in "
            f"{elapsed:.2f}s (budget 60s)"
        )
    else:
        criterion_log(
            f"C03 FAIL — games-analysed exact for n=2..12; at n=13 computed "
            f"{got[13]} vs reference {PUBLISHED_COUNTS['games'][13]}, which "
            f"equals the count without the movability filter "
            f"(reports/games_analysed_n13.md); {elapsed:.2f}s (budget 60s)"
        )
    assert elapsed < 60, f"took {elapsed:.2f}s, budget 60s"
    assert not mismatches, (
        f"games-analysed mismatches {mismatches}: the n=13 reference row "
        f"was produced without the movability filter — with it off this "
        f"code computes {count_boards(13)} + 21519 immovable boards = "
        f"10949499 exactly; lengths 2..12 match with the filter on.  The "
        f"counting DP is validated board-for-board against the explicit "
        f"generator through n=8.  See reports/games_analysed_n13.md."
    )


def test_c04_unsimplified_census(census, criterion_log):
    reports, elapsed = census
    mismatches = {
        n: (reports[n].unique_values["unsimplified"], PUBLISHED_COUNTS["unsimplified"][n])
        for n in reports
        if reports[n].unique_values["unsimplified"] != PUBLISHED_COUNTS["unsimplified"][n]
    }
    ok = not mismatches and elapsed < 600
    criterion_log(
        f"C04 {'PASS' if ok else 'FAIL'} — unsimplified census matches the "
        f"reference for n=2..10 (36407 at n=10); sweep {elapsed:.1f}s "
        f"(budget 600s)"
    )
    assert elapsed < 600, f"sweep took {elapsed:.1f}s, budget 600s"
    assert not mismatches, f"unsimplified census mismatches: {mismatches}"


def test_c05_prudent_census_and_chain_totality(census, criterion_log):
    reports, elapsed = census
    mismatches = {
        n: (reports[n].unique_values["prudent"], PUBLISHED_COUNTS["prudent"][n])
        for n in reports
        if reports[n].unique_values["prudent"] != PUBLISHED_COUNTS["prudent"][n]
    }
    atoms = {
        text
        for n in reports
        for text in reports[n].value_inventory["prudent"]
    }
    non_simple = sorted(
        t for t in atoms if not re.fullmatch(r"[123](_\d+)?", t)
    )
    # chain totality: on the simples that actually occur, incomparability
    # happens exactly within one chain coordinate, never across
    simples = [
        SimpleValue(int(t[0]), int(t[2:]) if "_" in t else 0)
        for t in atoms
        if re.fullmatch(r"[123](_\d+)?", t)
    ]
    totality_breaks = []
    for p in (1, 2, 3):
        for a in simples:
            for b in simples:
                if a == b:
                    continue
                cmp = simple_compare(a, b, p)
                same_coord = chain_coordinate(a, p) == chain_coordinate(b, p)
                if (cmp is Comparison.INCOMPARABLE) != same_coord:
                    totality_breaks.append((p, a, b, cmp))
    ok = not mismatches and not non_simple and not totality_breaks and elapsed < 600
    criterion_log(
        f"C05 {'PASS' if ok else 'FAIL'} — prudent census matches the "
        f"reference for n=2..10, every value a simple atom, chain total on "
        f"all occurring simples (zero exceptions); sweep {elapsed:.1f}s "
        f"(budget 600s)"
    )
    assert elapsed < 600
    assert not mismatches, f"prudent census mismatches: {mismatches}"
    assert not non_simple, f"non-simple prudent values: {non_simple}"
    assert not totality_breaks, f"chain totality breaks: {totality_breaks}"


def test_c06_normalization_calibration(calibration, criterion_log):
    result, elapsed = calibration
    chosen = result.chosen_profile
    syn = result.counts["syntactic"]
    misses = {
        n: (syn[chosen.name][n], syn["published"][n])
        for n in result.n_range
        if syn[chosen.name][n] != syn["published"][n]
    }
    shipped = REPORTS_DIR / "syntactic_discrepancy.md"
    selfish_ok = result.matches["selfish"] is chosen is DEFAULT_PROFILE
    if result.matches["syntactic"] is not None and selfish_ok:
        criterion_log(
            f"C06 PASS — both columns match {chosen.name} on n=2..9 "
            f"({elapsed:.1f}s)"
        )
    else:
        criterion_log(
            f"C06 FAIL — selfish column matches {chosen.name} exactly on "
            f"n=2..9 (profile pinned as the default); syntactic column "
            f"matches no profile ({chosen.name} misses {misses}); "
            f"discrepancy report shipped at reports/syntactic_discrepancy.md "
            f"({elapsed:.1f}s)"
        )
    # the green half: the selfish column pins the default profile, and
    # the mandated discrepancy report exists and is substantial
    assert selfish_ok, (
        f"selfish column match {result.matches['selfish']} does not pin the "
        f"default profile {DEFAULT_PROFILE}"
    )
    assert result.report, "calibration did not produce a discrepancy report"
    assert shipped.is_file() and shipped.stat().st_size > 2000, (
        "the discrepancy report is not shipped at reports/syntactic_discrepancy.md"
    )
    assert result.matches["syntactic"] is not None, (
        f"no rewrite profile reproduces the syntactic census: {chosen.name} "
        f"counts {[syn[chosen.name][n] for n in result.n_range]} vs reference "
        f"{[syn['published'][n] for n in result.n_range]} (first divergence "
        f"at n=7).  The shipped report shows that a conservative splice "
        f"variant lands exact through n=8 and within 5 at n=9, and that no "
        f"rewrite depending only on an option's set of children can match "
        f"n=8 and n=9 simultaneously (the same redex must fire at one "
        f"length and not the other).  See reports/syntactic_discrepancy.md."
    )


def test_shipped_discrepancy_report_is_reproduced_exactly(calibration):
    result, _ = calibration
    shipped = REPORTS_DIR / "syntactic_discrepancy.md"
    assert result.report.encode("utf-8") == shipped.read_bytes()


SHORTFALL = "see ROADMAP item 7 (the selfish and syntactic columns past n = 9)"


def test_selfish_and_syntactic_shortfall_diagnosis(census):
    """Ours never exceeds the published syntactic and selfish counts.
    Selfish matches through n=9 and falls short from n=10 on; syntactic
    falls short from n=7 on (C06).  ROADMAP item 7 holds the variants
    tried so far; the shipped fold and profile stay as they are."""
    reports, _ = census
    for n, report in reports.items():
        for regime in ("syntactic", "selfish"):
            ours, published = report.unique_values[regime], PUBLISHED_COUNTS[regime][n]
            assert ours <= published, (n, regime, ours, published, SHORTFALL)
        if n <= 9:
            assert report.unique_values["selfish"] == PUBLISHED_COUNTS["selfish"][n], (n, SHORTFALL)
    at_10 = {m: reports[10].unique_values[m] for m in ("syntactic", "selfish")}
    published_10 = {m: PUBLISHED_COUNTS[m][10] for m in at_10}
    assert (at_10, published_10) == (
        {"syntactic": 36087, "selfish": 135},
        {"syntactic": 36326, "selfish": 154},
    ), SHORTFALL


@pytest.mark.slow
def test_the_shortfall_diagnosis_at_n11():
    # About 9 s at a 164 MB peak alone in a process.
    report = enumerate_values(11, collect_inventory=False)
    ours = {m: report.unique_values[m] for m in ("syntactic", "selfish")}
    published = {m: PUBLISHED_COUNTS[m][11] for m in ours}
    assert all(ours[m] <= published[m] for m in ours), (ours, published, SHORTFALL)
    assert (ours, published) == (
        {"syntactic": 127_703, "selfish": 1_735},
        {"syntactic": 128_179, "selfish": 2_163},
    ), SHORTFALL


def test_c07_length8_inventories(census, criterion_log):
    reports, _ = census
    inventory = reports[8].value_inventory
    selfish = {_mod_l2(t) for t in inventory["selfish"]}
    expected_selfish = {_mod_l2(t) for t in INVENTORY_8_SELFISH}
    prudent = set(inventory["prudent"])
    dropped = selfish - {_mod_l2(t) for t in prudent}
    expected_drop = {_mod_l2("[2_1,2_2]")}
    ok = (
        selfish == expected_selfish
        and prudent == INVENTORY_8_PRUDENT
        and dropped == expected_drop
    )
    criterion_log(
        f"C07 {'PASS' if ok else 'FAIL'} — n=8 selfish inventory is exactly "
        f"{{1,2,3,1_1,2_1,3_1,1_2,2_2,[2_1,2_2]}} (modulo dropping singleton "
        f"wrappers around simples); prudent keeps the eight atoms and drops "
        f"exactly [2_1,2_2]"
    )
    assert selfish == expected_selfish, (
        f"selfish n=8 inventory (mod L2) {sorted(selfish)} != "
        f"{sorted(expected_selfish)}"
    )
    assert prudent == INVENTORY_8_PRUDENT, sorted(prudent)
    assert dropped == expected_drop, sorted(dropped)


def test_c08_ordering_suites(criterion_log):
    start = time.perf_counter()
    violations = (
        base_ordering_violations(8)
        + successor_incomparability_violations(8)
        + closed_form_disagreements(8)
        + indifferent_collapse_disagreements(8)
    )
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60
    criterion_log(
        f"C08 {'PASS' if ok else 'FAIL'} — ordering suites (base-pair "
        f"incomparability with parity, successor incomparability, closed "
        f"form vs recursion, indifferent collapse) all hold for exponents "
        f"<= 8 in {elapsed:.1f}s (budget 60s)"
    )
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    assert not violations, violations[:10]


def test_c09_regression_goldens(criterion_log):
    pru = evaluate_text("12013", start=1, mode="prudent").value
    pru2 = evaluate_text("112013", start=1, mode="prudent").value
    starts = {k: v.value for k, v in evaluate_all_starts("12").items()}
    ok = (
        pru == SimpleValue(1, 1)
        and pru2 == SimpleValue(1, 0)
        and starts == {1: leaf(1), 2: leaf(2), 3: leaf(1)}
    )
    criterion_log(
        f"C09 {'PASS' if ok else 'FAIL'} — prudent('12013')=1_1, "
        f"prudent('112013')=1, all-starts('12') = {{1:1, 2:2, 3:1}}"
    )
    assert pru == SimpleValue(1, 1), pru
    assert pru2 == SimpleValue(1, 0), pru2
    assert starts == {1: leaf(1), 2: leaf(2), 3: leaf(1)}


def test_c10_structural_invariants(census, criterion_log):
    reports, _ = census
    problems = []

    # rewriting is idempotent, canonical, and outcome-preserving on every
    # distinct raw value of lengths 4..6
    values = [
        parse_value(t)
        for n in (4, 5, 6)
        for t in reports[n].value_inventory["unsimplified"]
    ]
    for v in values:
        for profile in NormalizationProfile:
            w = normalize(v, profile)
            if normalize(w, profile) is not w:
                problems.append(f"{profile.name} not idempotent on {v.text}")
            if canonicalize(w) is not w:
                problems.append(f"{profile.name} output not canonical on {v.text}")
            if w.outcomes != v.outcomes:
                problems.append(f"{profile.name} changed outcomes of {v.text}")

    # mirror invariance of every filtered board through n=8
    for n in range(2, 9):
        cache = EvalCache()
        for board in generate_boards(n):
            graph, occ = parse_board(board)
            _, rocc = parse_board(board[::-1])
            a = evaluate(Position(graph, occ, 1), "raw", cache=cache)
            b = evaluate(Position(graph, rocc, 1), "raw", cache=cache)
            if a.value is not b.value:
                problems.append(f"mirror changed the value of {board}")

    # stuck players stay stuck on 500 random boards
    rng = random.Random(20260814)
    for _ in range(500):
        board = "".join(
            rng.choice("0123") for _ in range(rng.randint(4, 10))
        )
        problems.extend(isolation_violations(board))

    # censuses do not depend on the worker count
    if enumerate_values(6, workers=1) != enumerate_values(6, workers=3):
        problems.append("worker count changed the n=6 census")

    criterion_log(
        f"C10 {'PASS' if not problems else 'FAIL'} — rewrite idempotence and "
        f"outcome preservation (all profiles, n<=6 values), mirror "
        f"invariance (n<=8), isolation on 500 random boards, worker-count "
        f"independence"
    )
    assert not problems, problems[:10]
