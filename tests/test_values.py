"""Value construction, canonical text, rewrite rules, and parsing."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import canonicalize, reference_parse_value, value_trees
from nclobber import values
from nclobber.enumeration import raw_values, run_keys
from nclobber.values import (
    DEFAULT_PROFILE,
    NormalizationProfile,
    SimpleValue,
    ValueSyntaxError,
    choice,
    expand_simple,
    leaf,
    match_simple,
    normalize,
    parse_value,
    render_value,
)

L0, L1, L2 = (
    NormalizationProfile.L0,
    NormalizationProfile.L1,
    NormalizationProfile.L2,
)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_leaves_are_interned_and_render_as_digits():
    assert leaf(1) is leaf(1)
    assert leaf(2).text == "2"
    assert leaf(3).winner == 3 and leaf(3).children is None
    with pytest.raises(ValueError):
        leaf(0)


def test_leaf_winners_are_player_ids_1_to_9():
    # Every value carries one outcome class per player id 1..9.
    assert leaf(9).ranks[9] == 2 and leaf(9).ranks[1] == 0
    for winner in (0, 10, -1, "1"):
        with pytest.raises(ValueError):
            leaf(winner)


# Runs in a fresh interpreter, where leaf 1 is not yet interned: leaf(True)
# once interned a leaf printed True, which every later 1 then printed as.
LEAF_BOOL_PROBE = """
from nclobber.values import leaf, parse_value
for winner in (True, False):
    try:
        leaf(winner)
    except ValueError:
        print("refused", end=" ")
print(parse_value("[1,2]").text)
"""


def test_a_bool_is_no_leaf_winner():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LEAF_BOOL_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused refused [1,2]\n"


def test_choice_orders_children_lexicographically_and_dedups():
    v = choice([leaf(3), leaf(1), leaf(3)])
    assert v.text == "[1,3]"
    assert choice([leaf(1), leaf(3)]) is v


def test_singleton_over_leaf_collapses_at_construction():
    assert choice([leaf(2)]) is leaf(2)


def test_singleton_over_choice_is_kept():
    inner = choice([leaf(1), leaf(2)])
    wrapped = choice([inner])
    assert wrapped.text == "[[1,2]]"
    assert wrapped.children == (inner,)


def test_pickling_returns_the_interned_value_at_any_depth():
    deep = leaf(1)
    for _ in range(200):  # deeper than the parser's bound on bracket nesting
        deep = choice([deep, leaf(2)])
    pair = choice([leaf(1), leaf(3)])
    for v in (leaf(3), pair, choice([pair]), deep):
        assert pickle.loads(pickle.dumps(v)) is v


def test_empty_choice_is_rejected():
    with pytest.raises(ValueError):
        choice([])


def test_outcomes_union_children():
    v = parse_value("[[1,2],[3]]")
    assert v.outcomes == frozenset({1, 2, 3})
    assert leaf(2).outcomes == frozenset({2})


@given(value_trees())
def test_canonicalize_is_identity_on_built_values(v):
    assert canonicalize(v) is v


# ---------------------------------------------------------------------------
# the order key and text built on first read


@given(value_trees(), value_trees())
def test_the_order_key_sorts_as_the_text_does(x, y):
    assert (x.order < y.order) == (x.text < y.text)
    assert (x.order == y.order) == (x is y)


def test_interned_children_are_in_text_order():
    raw_values(key for n in range(1, 9) for key in run_keys(n))
    for v in list(values._CHOICES.values()):
        texts = [c.text for c in v.children]
        assert texts == sorted(set(texts)), v.text


def _deep(depth: int, bottom: int = 2) -> tuple:
    """A value nested `depth` deep, built with choice, with its two texts."""
    v, text, bar = leaf(bottom), str(bottom), str(bottom)
    for k in range(depth):
        label = (k + 2) % 3 + 1  # 3 first, so bottom 1 or 2 is never absorbed
        v = choice([leaf(label), v])
        text = "[" + ",".join(sorted((str(label), text))) + "]"
        m = match_simple(v)
        # Two leaves make a simple; above that the leaf option prints first.
        bar = f"[{label},{bar}]" if m is None else str(m)
    return v, text, bar


def test_values_deeper_than_the_recursion_limit_render_in_both_styles():
    v, text, bar = _deep(3000)
    assert len(text) == 12001 and bar.endswith("1_1" + "]" * 2999)
    assert v.text == render_value(v) == text
    assert render_value(v, "bar") == bar


def test_choice_orders_deep_options_that_first_differ_at_the_bottom():
    # Their keys compare recursively, down to the leaves that differ.
    (a, a_text, _), (b, b_text, _) = _deep(3000, 1), _deep(3000, 2)
    v = choice([b, a])
    assert v.children == (a, b)
    assert v.text == f"[{a_text},{b_text}]"


# Runs in a fresh interpreter: a census with and without its bar
# inventory, then the interned choices whose bracket text was built.
CENSUS_TEXT_PROBE = """
from nclobber import values
from nclobber.enumeration import enumerate_values
enumerate_values(8, collect_inventory=False)
enumerate_values(8)
print(len(values._CHOICES), sum(v._text is not None for v in values._CHOICES.values()))
"""


def test_a_census_builds_no_bracket_text():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS_TEXT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    interned, built = map(int, proc.stdout.split())
    assert interned > 1000 and built == 0


# ---------------------------------------------------------------------------
# text round trips


@given(value_trees())
def test_bracket_text_parses_back_to_the_same_object(v):
    assert parse_value(v.text) is v


@given(value_trees())
def test_bar_rendering_parses_back_to_the_same_object(v):
    assert parse_value(render_value(v, "bar")) is v


def test_bar_rendering_uses_atoms_for_simple_subtrees():
    assert render_value(parse_value("[[1,3],[1,2]]"), "bar") == "1_2"
    assert render_value(parse_value("[1,[2,3]]"), "bar") == "[1,1_1]"


def test_parse_accepts_spaces_and_bar_atoms():
    assert parse_value("[ 1 , 2 ]") is parse_value("[1,2]")
    assert parse_value("2_1") is parse_value("[1,3]")
    assert parse_value("3_0") is leaf(3)


def test_parse_canonicalizes_order_and_duplicates():
    assert parse_value("[3,1,3]") is parse_value("[1,3]")


def test_parse_rejects_malformed_text():
    for bad in (
        "", "[", "[1", "1]", "[]", "[1,]", "4", "1_", "2_-1", "[1 2]",
        "\u0661", "1_\u0661", "\u00b2",  # non-ASCII digits pass str.isdigit
    ):
        with pytest.raises(ValueSyntaxError):
            parse_value(bad)


def test_parse_respects_player_count():
    assert parse_value("[4,5]", players=5).text == "[4,5]"
    with pytest.raises(ValueSyntaxError):
        parse_value("4")  # players defaults to 3
    with pytest.raises(ValueSyntaxError):
        parse_value("2_1", players=4)  # bar atoms are a 3-player notation


def _parsed(parse, text, players):
    """The value parse reads from text, or its error message."""
    try:
        return parse(text, players)
    except ValueSyntaxError as exc:
        return str(exc)


PARSE_CASES = {
    "depth 128": "[" * 128 + "1" + "]" * 128,
    "depth 129": "[" * 129 + "1" + "]" * 129,
    "depth 3000": "[" * 3000 + "1" + "]" * 3000,
    "exponent 16": "1_16",
    "exponent 17": "1_17",
    "leading zeros": "1_00017",
    "no exponent": "2_",
    "trailing input": "3 _3",
    "spaces": "[1_2 , 3 ]  ",
    "empty": "",
    "all space": " \t\xa0 ",
}


@pytest.mark.parametrize("text", PARSE_CASES.values(), ids=PARSE_CASES)
def test_the_flat_parser_matches_the_recursive_one_at_the_edges(text):
    for players in range(1, 10):
        assert _parsed(parse_value, text, players) == _parsed(
            reference_parse_value, text, players
        )


def test_the_depth_bound_accepts_128_brackets_and_refuses_129():
    assert parse_value(PARSE_CASES["depth 128"]) is leaf(1)
    with pytest.raises(ValueSyntaxError, match="nest deeper than 128 at offset 128"):
        parse_value(PARSE_CASES["depth 129"])


# ASCII and non-ASCII whitespace, a non-ASCII digit and a stray letter
# beside the grammar's own characters.
PARSE_ALPHABET = "[],_0123456789 \t\xa0\u0661x"


@settings(max_examples=400)
@given(
    st.one_of(
        st.text(PARSE_ALPHABET, max_size=24),
        st.text("[],123_ ", max_size=40),
        st.builds(
            lambda v, i, ch: v.text[:i] + ch + v.text[i:],
            value_trees(max_players=9),
            st.integers(0, 200),
            st.sampled_from(PARSE_ALPHABET),
        ),
    ),
    st.integers(1, 9),
)
def test_the_flat_parser_matches_the_recursive_one(text, players):
    assert _parsed(parse_value, text, players) == _parsed(reference_parse_value, text, players)


def test_render_rejects_unknown_style():
    with pytest.raises(ValueError):
        render_value(leaf(1), "latex")


# ---------------------------------------------------------------------------
# simple values


def test_simple_value_text():
    assert str(SimpleValue(3, 0)) == "3"
    assert str(SimpleValue(3, 1)) == "3_1"


def test_expand_simple_recurrence():
    assert expand_simple(SimpleValue(1, 0)) is leaf(1)
    assert expand_simple(SimpleValue(1, 1)) is parse_value("[2,3]")
    assert expand_simple(SimpleValue(2, 1)) is parse_value("[1,3]")
    assert expand_simple(SimpleValue(1, 2)) is parse_value("[[1,3],[1,2]]")


def test_match_simple_inverts_expand_up_to_exponent_8():
    for base in (1, 2, 3):
        for exp in range(9):
            s = SimpleValue(base, exp)
            assert match_simple(expand_simple(s)) == s


def test_match_simple_rejects_non_simple_trees():
    assert match_simple(parse_value("[1,2,3]")) is None
    assert match_simple(parse_value("[[1,2]]")) is None
    assert match_simple(parse_value("[1,[1,2]]")) is None


# ---------------------------------------------------------------------------
# rewrite rules


def test_rule2_collapses_exactly_three_singleton_wrappers():
    assert normalize(parse_value("[[[[1,2]]]]"), L1) is parse_value("[1,2]")
    assert normalize(parse_value("[[[1,2]]]"), L1) is parse_value("[[[1,2]]]")


def test_rule2_applies_inside_nested_positions():
    v = parse_value("[3,[[[[1,2]]]]]")
    assert normalize(v, L1) is parse_value("[3,[1,2]]")


def test_rule3_splices_doubly_wrapped_lists_into_the_host():
    assert normalize(parse_value("[1,[[[2,3]]]]"), L1) is parse_value("[1,2,3]")
    assert normalize(parse_value("[1,[[2,3]]]"), L1) is parse_value("[1,[[2,3]]]")


def test_rule1_drops_singletons_around_simples():
    assert normalize(parse_value("[[1,3]]"), L2) is parse_value("[1,3]")
    assert normalize(parse_value("[[1,2,3]]"), L2) is parse_value("[[1,2,3]]")


def test_profiles_gate_the_rules():
    wrapped_simple = parse_value("[[1,3]]")
    assert normalize(wrapped_simple, L0) is wrapped_simple
    assert normalize(wrapped_simple, L1) is wrapped_simple
    assert normalize(wrapped_simple, L2) is parse_value("[1,3]")

    splicable = parse_value("[1,[[[2,3]]]]")
    assert normalize(splicable, L0) is splicable
    assert normalize(splicable, L1) is parse_value("[1,2,3]")


def test_normalize_runs_to_a_fixed_point():
    # After splicing, the host may expose a new triple wrapper.
    v = parse_value("[[[[1,[[[2,3]]]]]]]")
    got = normalize(v, L1)
    assert got is parse_value("[1,2,3]")


def test_normalize_refuses_what_is_no_profile():
    # int(profile) once read 7 and "1" as L1 and -1 as L0, and cached
    # the rewrites under those levels.
    v = parse_value("[1,[[[2,3]]]]")
    for bad in (7, "1", -1, 3, None):
        with pytest.raises(ValueError, match="unknown normalization profile"):
            normalize(v, bad)


def test_l0_returns_the_value_and_caches_nothing():
    # L0 only canonicalizes, which interning has done; it once stored one
    # entry per choice node, 5 for this value.
    v = parse_value("[[[[1,[2,3]]]]]")
    before = len(values._NORMAL_CACHE)
    assert normalize(v, L0) is v
    assert len(values._NORMAL_CACHE) == before


def test_l2_needs_three_players():
    with pytest.raises(ValueError):
        normalize(parse_value("[4,5]", players=5), L2, players=5)


@pytest.mark.parametrize("profile", [L0, L1, L2])
@given(v=value_trees())
def test_normalize_is_idempotent_and_preserves_outcomes(profile, v):
    once = normalize(v, profile)
    assert normalize(once, profile) is once
    assert once.outcomes == v.outcomes


def test_default_profile_keeps_syntactic_rules_only():
    assert DEFAULT_PROFILE is L1
