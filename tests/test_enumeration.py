"""Board generation, closed-form counting, censuses, and calibration."""

import concurrent.futures
import itertools
import json
import os
import re
import types
from pathlib import Path

import pytest

from calibrate_profile import calibrate_normalization, conservative_splice
from helpers import _count_palindromes, board_passes
from nclobber.enumeration import (
    REGIMES,
    _count_linear,
    count_boards,
    enumerate_values,
    generate_boards,
    raw_values,
    render_reports,
    run_keys,
)
from nclobber.game_core import Position, line_runs, parse_board
from nclobber.solver import EvalCache, evaluate, evaluate_text, render_result
from nclobber.values import NormalizationProfile, parse_value
from published_counts import PUBLISHED_COUNTS


def _brute(n, alphabet="0123", **kwargs):
    """Every string of length n over the alphabet that board_passes keeps."""
    strings = ("".join(cells) for cells in itertools.product(alphabet, repeat=n))
    return {s for s in strings if board_passes(s, **kwargs)}


# ---------------------------------------------------------------------------
# board generation and the closed-form count


def test_generate_boards_golden_n2():
    assert list(generate_boards(2)) == ["21", "31", "32"]
    assert sorted(_brute(2, movable=False)) == ["11", "21", "22", "31", "32", "33"]


def test_generated_boards_are_sorted_and_pass_their_own_filter():
    for n in (3, 4, 5, 6):
        for players in (2, 3, 4):
            boards = list(generate_boards(n, players))
            assert boards == sorted(boards)
            assert len(set(boards)) == len(boards)
            assert all(board_passes(b, players) for b in boards)


def test_board_passes_agrees_with_exhaustive_generation():
    for n in (2, 3, 4, 5):
        assert set(generate_boards(n)) == _brute(n)
    assert set(generate_boards(4, players=4)) == _brute(4, "01234", players=4)


def test_filters_have_the_advertised_meanings():
    assert not board_passes("0210")  # blank end cells
    assert not board_passes("120")  # blank end cell
    assert not board_passes("2001")  # two adjacent blanks
    assert board_passes("2101")
    assert not board_passes("12")  # mirror: "12" < "21"
    assert board_passes("21")
    assert not board_passes("11")  # no move available
    assert board_passes("11", movable=False)
    assert not board_passes("241")  # token above the player count
    assert board_passes("241", players=4)


def test_mirror_filter_keeps_one_board_per_reflection_pair():
    for n in (2, 3, 4, 5):
        strings = ("".join(cells) for cells in itertools.product("0123", repeat=n))
        full = {s for s in strings if board_passes(s) or board_passes(s[::-1])}
        kept = set(generate_boards(n))
        assert kept == {b for b in full if b >= b[::-1]}
        assert {min(b, b[::-1]) for b in full} == {
            min(b, b[::-1]) for b in kept
        }


def test_count_boards_matches_the_generator():
    for n in range(2, 9):
        assert count_boards(n) == sum(1 for _ in generate_boards(n))
        assert count_boards(n, players=2) == sum(1 for _ in generate_boards(n, 2))
    for n in range(2, 9):
        assert count_boards(n, movable=False) == len(_brute(n, movable=False))


def test_palindromes_follow_the_half_board_counts():
    # count_boards halves L(n) + P(n); its P(n) must match the brute force.
    for n in range(1, 14):
        for players in range(1, 6):
            for movable in (True, False):
                unhalved = 2 * count_boards(n, players, movable)
                palindromes = unhalved - _count_linear(n, players, movable)
                assert palindromes == _count_palindromes(n, players, movable), (
                    n, players, movable,
                )


@pytest.mark.parametrize(
    "n, players", [(0, 3), (5, 0), (5, 10)], ids=["length-0", "players-0", "players-10"]
)
def test_count_boards_refuses_bad_sizes(n, players):
    with pytest.raises(ValueError):
        count_boards(n, players)


def test_count_boards_matches_the_reference_through_n12():
    for n in range(2, 13):
        assert count_boards(n) == PUBLISHED_COUNTS["games"][n], n


def test_games_analysed_n13_diagnosis():
    """The reference's n=13 row was produced without the movability
    filter; with uniform semantics the count lands 21519 lower.  See
    reports/games_analysed_n13.md."""
    assert count_boards(13) == 10927980
    assert count_boards(13, movable=False) == 10949499
    assert PUBLISHED_COUNTS["games"][13] == 10949499


def test_games_analysed_report_table_matches_the_code():
    report = Path(__file__).resolve().parents[1] / "reports" / "games_analysed_n13.md"
    row = re.compile(r"^\| (\d+) \| ([\d,*]+) \| ([\d,*]+) \|$", re.M)
    rows = [
        [int(cell.strip("*").replace(",", "")) for cell in cells]
        for cells in row.findall(report.read_text())
    ]
    assert [n for n, _, _ in rows] == list(range(2, 14))
    for n, reference, computed in rows:
        assert (reference, computed) == (PUBLISHED_COUNTS["games"][n], count_boards(n)), n


# ---------------------------------------------------------------------------
# run keys: the census's fast path, checked against the boards it replaces


@pytest.mark.parametrize("players, max_n", [(3, 10), (2, 12), (4, 7)])
def test_run_keys_are_the_live_runs_of_the_generated_boards(players, max_n):
    for n in range(1, max_n + 1):
        keys = run_keys(n, players)
        assert len(set(keys)) == len(keys), n
        assert keys == sorted(keys), n
        want = {
            line_runs(parse_board(b, players=players)[1])
            for b in generate_boards(n, players)
        }
        assert set(keys) == want, n


@pytest.mark.parametrize("n, players", [(7, 9), (9, 5), (11, 4), (14, 3), (21, 2)])
def test_run_keys_refuse_more_colourings_than_the_papers_largest_row(n, players):
    # players ** n > 3 ** 13: refused before the runs are listed.
    with pytest.raises(ValueError, match="too large"):
        run_keys(n, players)


def test_run_keys_admit_the_largest_census_for_nine_players():
    assert len(run_keys(6, 9)) == 284_076


def test_raw_values_of_keys_equal_per_board_evaluation():
    # Interned values compare by identity: equal sets hold the same objects.
    cache = EvalCache()
    for n in range(1, 10):
        want = {evaluate_text(b, cache=cache).value for b in generate_boards(n)}
        assert raw_values(run_keys(n)) == want, n


# ---------------------------------------------------------------------------
# censuses


def test_census_n2_by_hand():
    report = enumerate_values(2)
    assert report.board_length == 2
    assert report.games_analysed == 3
    assert report.unique_values == {
        "unsimplified": 2, "syntactic": 2, "selfish": 2, "prudent": 2,
    }
    assert report.value_inventory["unsimplified"] == ("1", "2")
    assert report.value_inventory["prudent"] == ("1", "2")


def test_census_small_lengths_match_the_reference():
    for n in (3, 4, 5, 6):
        report = enumerate_values(n)
        assert report.games_analysed == PUBLISHED_COUNTS["games"][n]
        for mode in ("unsimplified", "selfish", "prudent"):
            assert report.unique_values[mode] == PUBLISHED_COUNTS[mode][n], (
                n,
                mode,
            )


@pytest.mark.slow
def test_the_n12_count_census():
    # About 74 s at a 611 MB peak alone in a process.  The selfish fold
    # here fills the largest relation memo of any test.  Games,
    # unsimplified and prudent are the published counts; the syntactic
    # and selfish columns are pinned as computed, since both follow the
    # stated rules past the published ones (434,274 and 30,378; see
    # reports/syntactic_discrepancy.md).
    report = enumerate_values(12, collect_inventory=False)
    assert report.games_analysed == PUBLISHED_COUNTS["games"][12] == 2_878_512
    assert report.unique_values == {
        "unsimplified": 434_571,
        "syntactic": 433_427,
        "selfish": 24_363,
        "prudent": 13,
    }
    for mode in ("unsimplified", "prudent"):
        assert report.unique_values[mode] == PUBLISHED_COUNTS[mode][12], mode
    for mode in ("syntactic", "selfish"):  # short, never over (ROADMAP item 7)
        assert report.unique_values[mode] <= PUBLISHED_COUNTS[mode][12], mode


def test_prudent_census_n4_contains_1_bar_but_not_2_bar():
    inventory = enumerate_values(4, ("prudent",)).value_inventory["prudent"]
    assert "1_1" in inventory
    assert "2_1" not in inventory


def test_worker_count_does_not_change_the_report(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    alone = enumerate_values(6, workers=1)
    split = enumerate_values(6, workers=3)
    assert alone == split


@pytest.fixture
def serial_pool(monkeypatch):
    """Two CPUs, and a process pool that maps in this process and records
    each pool's size and how many payloads it was given."""
    record = types.SimpleNamespace(sizes=[], mapped=[])

    class SerialPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record.mapped.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # enumerate_values imports the pool only when it runs more than one worker.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return record


def test_census_starts_at_most_one_process_per_cpu(serial_pool):
    report = enumerate_values(4, workers=64)
    assert serial_pool.sizes == [2] and serial_pool.mapped == [2]
    assert report == enumerate_values(4, workers=1)


@pytest.mark.parametrize("players", [3, 2])
def test_count_only_censuses_count_what_the_inventory_lists(players, serial_pool):
    # One process counts results without rendering them; two merge
    # rendered strings.  Both must count what the inventory lists.
    modes = REGIMES if players == 3 else REGIMES[:3]
    for n in range(2, 10):
        listed = enumerate_values(n, modes, workers=1, collect_inventory=True, players=players)
        assert listed.unique_values == {m: len(v) for m, v in listed.value_inventory.items()}
        for workers in (1, 2):
            counted = enumerate_values(
                n, modes, workers=workers, collect_inventory=False, players=players
            )
            assert counted == listed._replace(value_inventory=None), (n, workers)
    assert set(serial_pool.sizes) == {2}


def test_censuses_leave_the_callers_lists_alone(serial_pool):
    keys = run_keys(7)
    before = list(keys)
    raw_values(keys)
    assert keys == before
    for workers in (1, 2):
        for inventory in (True, False):
            modes = ["prudent", "unsimplified"]
            enumerate_values(6, modes, workers=workers, collect_inventory=inventory)
            assert modes == ["prudent", "unsimplified"]
    assert serial_pool.sizes == [2, 2]


@pytest.mark.parametrize("players, n", [(2, 7), (4, 5)])
def test_other_player_counts_list_inventories_that_parse_back(players, n):
    # Bar atoms are a three-player notation, so these inventories print
    # brackets; each entry reads back as a value of its own game.
    report = enumerate_values(n, players=players, collect_inventory=True)
    for mode, texts in report.value_inventory.items():
        parsed = [parse_value(t, players=players) for t in texts]
        assert [v.text for v in parsed] == list(texts), mode
        assert len(set(parsed)) == report.unique_values[mode], mode


def test_the_default_regimes_are_those_the_player_count_defines():
    assert tuple(enumerate_values(5).unique_values) == REGIMES
    for players in (1, 2, 4):
        report = enumerate_values(4, players=players)
        assert tuple(report.unique_values) == REGIMES[:3], players
    assert enumerate_values(5, players=2).unique_values == {
        "unsimplified": 4, "syntactic": 4, "selfish": 2
    }
    with pytest.raises(ValueError, match="three players"):
        enumerate_values(5, REGIMES, players=2)


def test_census_needs_at_least_one_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            enumerate_values(4, workers=workers)


def _per_board_inventories(n, profile):
    """Each regime's distinct renderings of every board's own evaluation."""
    mode_of = {"unsimplified": "raw"}
    boards = list(generate_boards(n))
    graph = parse_board(boards[0])[0]
    cache = EvalCache()
    out = {regime: set() for regime in REGIMES}
    for board in boards:
        position = Position(graph, parse_board(board)[1], 1)
        for regime in REGIMES:
            result = evaluate(position, mode_of.get(regime, regime), profile, cache)
            out[regime].add(render_result(result, "bar"))
    return {regime: tuple(sorted(texts)) for regime, texts in out.items()}


@pytest.mark.parametrize(
    "profile, max_n",
    [(NormalizationProfile.L1, 8), (NormalizationProfile.L2, 6)],
    ids=["L1", "L2"],
)
def test_census_inventories_equal_per_board_evaluation(profile, max_n, monkeypatch):
    # Three CPUs, so workers=3 cuts three uneven stride slices of the keys.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for n in range(2, max_n + 1):
        want = _per_board_inventories(n, profile)
        for workers in (1, 2, 3):
            report = enumerate_values(n, REGIMES, profile, workers=workers)
            assert report.value_inventory == want, (n, workers)


def test_games_analysed_counts_the_generated_boards():
    for players in (3, 2):
        for n in range(1, 9):
            report = enumerate_values(n, ("unsimplified",), players=players)
            assert report.games_analysed == sum(1 for _ in generate_boards(n, players))


def test_census_argument_validation():
    with pytest.raises(ValueError):
        enumerate_values(4, ("bogus",))
    with pytest.raises(ValueError):
        enumerate_values(4, ("selfish", "selfish"))
    with pytest.raises(ValueError):
        enumerate_values(4, ("prudent",), players=4)


def test_inventory_strings_parse_back_to_distinct_values():
    report = enumerate_values(5)
    for mode in ("unsimplified", "syntactic", "selfish"):
        texts = report.value_inventory[mode]
        parsed = {parse_value(t) for t in texts}
        assert len(parsed) == len(texts)


# ---------------------------------------------------------------------------
# serialization


def test_render_reports_csv_golden():
    reports = [enumerate_values(n, ("unsimplified", "prudent")) for n in (2, 3)]
    got = render_reports(reports, "csv")
    assert got == (
        "n,games,unsimplified,prudent\n2,3,2,2\n3,15,3,3"
    )


def test_render_reports_json_round_trip():
    reports = [enumerate_values(4)]
    payload = json.loads(render_reports(reports, "json"))
    assert payload[0]["board_length"] == 4
    assert payload[0]["games_analysed"] == 60
    assert payload[0]["unique_values"]["prudent"] == 4
    for text in payload[0]["inventory"]["selfish"]:
        parse_value(text)  # every inventory entry is readable


def test_render_reports_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_reports([enumerate_values(2)], "xml")


# ---------------------------------------------------------------------------
# the conservative splice diagnostic


def test_conservative_splice_drops_redundant_wrapped_options():
    assert conservative_splice(parse_value("[1,2,[[[1,2]]]]")) is parse_value(
        "[1,2]"
    )


def test_conservative_splice_splices_supersets():
    assert conservative_splice(parse_value("[1,[[[1,2]]]]")) is parse_value(
        "[1,2]"
    )


def test_conservative_splice_keeps_incomparable_hosts():
    v = parse_value("[3,[[[1,2]]]]")
    assert conservative_splice(v) is v


def test_conservative_splice_fixes_the_1x10_value():
    from helpers import VALUE_1232132321

    v = parse_value(VALUE_1232132321)
    assert conservative_splice(v) is v


# ---------------------------------------------------------------------------
# calibration


def test_calibration_smoke_over_short_lengths():
    result = calibrate_normalization(range(2, 7))
    assert result.n_range == (2, 3, 4, 5, 6)
    assert result.matches["selfish"] is NormalizationProfile.L1
    assert result.matches["syntactic"] is NormalizationProfile.L1
    assert result.chosen_profile is NormalizationProfile.L1
    assert result.report == ""
    assert result.counts["selfish"]["published"][6] == 7
    assert result.counts["syntactic"]["conservative"][6] == 77


def test_calibration_selfish_counts_equal_selfish_censuses():
    result = calibrate_normalization(range(2, 8))
    for profile in (NormalizationProfile.L1, NormalizationProfile.L2):
        for n in range(2, 8):
            census = enumerate_values(n, ("selfish",), profile)
            assert result.counts["selfish"][profile.name][n] == (
                census.unique_values["selfish"]
            ), (profile.name, n)


def test_calibration_rejects_bad_ranges():
    with pytest.raises(ValueError):
        calibrate_normalization(range(0, 3))
    with pytest.raises(ValueError):
        calibrate_normalization([])
