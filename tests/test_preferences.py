"""Preference relations: selfish, prudent, indifferent, and the chain."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import (
    _class_rank,
    all_simples,
    base_ordering_violations,
    closed_form_disagreements,
    indifferent_class,
    indifferent_collapse_disagreements,
    quotient,
    reference_compare,
    reference_ext_leq,
    reference_leq,
    reference_normalize,
    reference_pless,
    reference_prudent_compare,
    reference_prudent_simplify,
    reference_prune,
    reference_prune_fold,
    reference_selfish_leq,
    strict_clause_decides,
    successor_incomparability_violations,
    value_trees,
)
from nclobber import preferences
from nclobber.enumeration import raw_values, run_keys
from nclobber.preferences import (
    INDIFFERENT,
    PRUDENT,
    TREE,
    ChainCoordinate,
    ChainError,
    Comparison,
    chain_coordinate,
    compare,
    leq,
    merge_incomparable_simples,
    prudent_compare,
    prudent_simplify,
    prune,
    pruning_fold,
    simple_compare,
    walk,
)
from nclobber.values import (
    NormalizationProfile,
    SimpleValue,
    choice,
    expand_simple,
    leaf,
    normalize,
    parse_value,
)

S = SimpleValue


# ---------------------------------------------------------------------------
# outcome classes and the base relation


def test_outcome_class_goldens():
    loss, mixed, win = 0, 1, 2
    assert leaf(1).ranks[1] == win
    assert leaf(2).ranks[1] == loss
    assert parse_value("[1,2]").ranks[1] == mixed
    assert parse_value("[2,3]").ranks[1] == loss


@pytest.mark.parametrize(
    "call, top",
    [
        (lambda p: chain_coordinate(S(1, 2), p), 3),
        (lambda p: simple_compare(S(1, 0), S(2, 0), p), 3),
        (lambda p: merge_incomparable_simples([S(1, 0), S(2, 0)], p), 3),
        (lambda p: leq(leaf(1), leaf(2), p), 3),
        (lambda p: leq(leaf(1), leaf(2), p, "indifferent"), 3),
        (lambda p: compare(leaf(1), leaf(2), p), 3),
        (lambda p: compare(leaf(1), leaf(2), p, "indifferent"), 3),
        (lambda p: preferences.prudent_less(leaf(1), leaf(2), p), 3),
        (lambda p: prudent_compare(leaf(1), leaf(2), p), 3),
        (lambda p: prune({leaf(1), leaf(2)}, p), 3),
        (lambda p: prune({leaf(1), leaf(2)}, p, "indifferent"), 3),
        (lambda p: leq(leaf(1), leaf(2), p, players=9), 9),
        (lambda p: compare(leaf(1), leaf(2), p, "indifferent", players=9), 9),
        (lambda p: prune({leaf(1), leaf(2)}, p, players=9), 9),
    ],
    ids=[
        "chain_coordinate",
        "simple_compare",
        "merge_incomparable_simples",
        "leq",
        "leq-indifferent",
        "compare",
        "compare-indifferent",
        "prudent_less",
        "prudent_compare",
        "prune",
        "prune-indifferent",
        "leq-nine-players",
        "compare-nine-players",
        "prune-nine-players",
    ],
)
def test_entry_points_refuse_a_perspective_outside_the_players(call, top):
    # ranks has an entry per player id 1..9; before the check, p = 0 read
    # every value as a loss and p = 10 raised IndexError.  A p above the
    # player count is no player of the game, and the prudent order and
    # its closed form on simples are defined for three players.  True
    # equals 1 but is no player id; compare(x, y, True) once answered as
    # player 1.
    call(top)
    for p in (0, top + 1, -1, 1.0, True):
        with pytest.raises(ValueError):
            call(p)


@pytest.mark.parametrize(
    "bad", [S(5, 0), S(0, 1), S(1, -1), S(True, 0), S(1, True), S(1, 1.0)], ids=str
)
def test_the_chain_entry_points_refuse_a_simple_of_no_three_player_game(bad):
    # simple_compare((5,0), (1,0), 1) once answered LESS, and
    # check_simple((True, 0)) printed as True.
    for call in (
        lambda: chain_coordinate(bad, 1),
        lambda: simple_compare(bad, S(1, 0), 1),
        lambda: simple_compare(S(1, 0), bad, 1),
        lambda: merge_incomparable_simples([bad], 1),
        lambda: merge_incomparable_simples([S(1, 0), bad], 1),
    ):
        with pytest.raises(ValueError):
            call()


def test_relations_answer_for_the_player_count_they_are_given():
    # With the default three players, rewriting [[[[1,4]]]] strips three
    # wrappers and reads it as [1,4]: EQUAL.  Under four-player rules it
    # keeps its wrappers, and p = 1 ranks it below.
    x = parse_value("[[[[1,4]]]]", players=4)
    y = parse_value("[1,4]", players=4)
    assert compare(x, y, 1, players=4) is Comparison.LESS
    assert leq(x, y, 1, players=4) and not leq(y, x, 1, players=4)


@pytest.mark.parametrize(
    "call",
    [
        lambda x, y: leq(x, y, 1),
        lambda x, y: leq(x, y, 1, "indifferent"),
        lambda x, y: compare(x, y, 1),
        lambda x, y: compare(x, y, 1, "indifferent"),
        lambda x, y: compare(y, x, 1, players=2),
        lambda x, y: prune({x, y}, 1),
        lambda x, y: prune({y, x}, 1, "indifferent"),
        lambda x, y: prune({y, leaf(4)}, 1),
    ],
    ids=[
        "leq",
        "leq-indifferent",
        "compare",
        "compare-indifferent",
        "compare-two-players",
        "prune",
        "prune-indifferent",
        "prune-a-losing-leaf",
    ],
)
def test_relations_refuse_a_winner_above_the_player_count(call):
    # prune({[1,2], 4}, 1) once kept [1,2] alone: the leaf 4 sits below
    # the top class for player 1 and dropped uncompared.
    x = parse_value("[[[[1,4]]]]", players=4)
    y = parse_value("[1,2]")
    with pytest.raises(ValueError, match="winner 4 exceeds player count"):
        call(x, y)


@pytest.mark.parametrize(
    "call",
    [
        lambda x, y: prudent_compare(x, y, 1),
        lambda x, y: prudent_compare(y, x, 2),
        lambda x, y: preferences.prudent_less(x, y, 1),
        lambda x, y: preferences.prudent_less(x, y, 4),
        lambda x, y: prudent_simplify(x, 1),
    ],
    ids=["compare", "compare-swapped", "less", "less-four", "simplify"],
)
def test_prudent_entry_points_refuse_values_of_other_games(call):
    # prudent_compare once answered GREATER on this pair, and
    # prudent_less(x, y, 4) False, where prudent_simplify refused x.
    x = parse_value("[1,[4,2]]", players=4)
    y = parse_value("[[4,3],2]", players=4)
    with pytest.raises(ValueError):
        call(x, y)


def test_base_relation_on_leaves():
    assert compare(leaf(1), leaf(1), 1) is Comparison.EQUAL
    assert compare(leaf(2), leaf(1), 1) is Comparison.LESS
    assert compare(leaf(1), leaf(3), 1) is Comparison.GREATER
    assert compare(leaf(2), leaf(3), 1) is Comparison.INCOMPARABLE


def test_leq_rejects_unknown_base():
    with pytest.raises(ValueError):
        leq(leaf(1), leaf(2), 1, base="cautious")


@given(value_trees())
def test_base_relation_is_reflexive(v):
    for p in (1, 2, 3):
        assert leq(v, v, p)
        assert compare(v, v, p) is Comparison.EQUAL


FLIPPED = {
    Comparison.LESS: Comparison.GREATER,
    Comparison.GREATER: Comparison.LESS,
    Comparison.EQUAL: Comparison.EQUAL,
    Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
}


@given(value_trees(), value_trees(), st.integers(1, 3))
def test_compare_is_antisymmetric_in_its_arguments(x, y, p):
    assert compare(x, y, p) is FLIPPED[compare(y, x, p)]
    assert compare(x, y, p, "indifferent") is FLIPPED[compare(y, x, p, "indifferent")]


def test_comparison_is_invariant_under_full_rewriting():
    from nclobber.values import NormalizationProfile, normalize

    for text in ("[1,[[[2,3]]]]", "[[1,3]]", "[2,[[1,2],[1,3]]]", "[[[[1,2]]]]"):
        v = parse_value(text)
        rewritten = normalize(v, NormalizationProfile.L2)
        for p in (1, 2, 3):
            assert compare(v, rewritten, p) is Comparison.EQUAL


# ---------------------------------------------------------------------------
# the prudent chain on simple values


def test_chain_coordinate_goldens():
    assert chain_coordinate(S(1, 0), 1) == ChainCoordinate("top", 0)
    assert chain_coordinate(S(1, 1), 1) == ChainCoordinate("asc", 0)
    assert chain_coordinate(S(2, 0), 1) == ChainCoordinate("asc", 0)
    assert chain_coordinate(S(3, 0), 1) == ChainCoordinate("asc", 0)
    assert chain_coordinate(S(1, 2), 1) == ChainCoordinate("desc", 1)
    assert chain_coordinate(S(2, 1), 1) == ChainCoordinate("desc", 1)
    assert chain_coordinate(S(3, 1), 1) == ChainCoordinate("desc", 1)
    assert chain_coordinate(S(2, 2), 1) == ChainCoordinate("asc", 1)
    assert chain_coordinate(S(1, 3), 1) == ChainCoordinate("asc", 1)


def test_chain_sort_key_orders_asc_below_desc_below_top():
    asc0 = ChainCoordinate("asc", 0).sort_key
    asc5 = ChainCoordinate("asc", 5).sort_key
    desc5 = ChainCoordinate("desc", 5).sort_key
    desc1 = ChainCoordinate("desc", 1).sort_key
    top = ChainCoordinate("top", 0).sort_key
    assert asc0 < asc5 < desc5 < desc1 < top


def test_simple_compare_goldens():
    assert simple_compare(S(2, 0), S(3, 0), 1) is Comparison.INCOMPARABLE
    assert simple_compare(S(2, 0), S(1, 0), 1) is Comparison.LESS
    assert simple_compare(S(3, 2), S(3, 1), 1) is Comparison.LESS
    assert simple_compare(S(2, 2), S(3, 1), 1) is Comparison.LESS
    assert simple_compare(S(1, 1), S(2, 1), 1) is Comparison.LESS
    assert simple_compare(S(3, 7), S(3, 7), 2) is Comparison.EQUAL


def test_merge_goldens():
    assert merge_incomparable_simples({S(2, 0), S(3, 0)}, 1) == S(1, 1)
    assert merge_incomparable_simples({S(1, 0), S(3, 0)}, 2) == S(2, 1)
    assert merge_incomparable_simples({S(1, 1), S(3, 1)}, 2) == S(2, 2)
    assert merge_incomparable_simples({S(2, 1), S(3, 1), S(1, 2)}, 1) == S(1, 2)
    assert merge_incomparable_simples({S(3, 7)}, 1) == S(3, 7)


def test_merge_rejects_bad_sets():
    with pytest.raises(ValueError):
        merge_incomparable_simples(set(), 1)
    with pytest.raises(ChainError):
        merge_incomparable_simples({S(2, 1), S(2, 2)}, 1)  # desc(1) vs asc(1)


# ---------------------------------------------------------------------------
# ordering suites (exercised in full by the acceptance gate; spot depth here)


def test_base_ordering_suite_small():
    assert base_ordering_violations(4) == []


def test_successor_incomparability_suite_small():
    assert successor_incomparability_violations(4) == []


def test_closed_form_matches_recursion_small():
    assert closed_form_disagreements(4) == []


def test_indifferent_collapse_matches_chain_small():
    assert indifferent_collapse_disagreements(4) == []


# ---------------------------------------------------------------------------
# indifferent equality classes


def test_indifferent_class_goldens():
    assert indifferent_class(leaf(1), 1, 4) == (True, 0)
    assert indifferent_class(leaf(2), 1, 4) == (False, 0)
    assert indifferent_class(leaf(3), 1, 4) == (False, 0)
    assert indifferent_class(expand_simple(S(2, 1)), 1, 4) == (False, 1)
    # the mover's own simple of exponent j+1 collapses into tier j
    assert indifferent_class(expand_simple(S(1, 2)), 1, 4) == (False, 1)
    assert indifferent_class(expand_simple(S(1, 1)), 1, 4) == (False, 0)


def test_indifferent_class_none_when_out_of_tiers():
    assert indifferent_class(expand_simple(S(2, 6)), 1, 2) is None


# ---------------------------------------------------------------------------
# pruning


def test_prune_selfish_keeps_undominated_options():
    win, lose2, lose3 = leaf(1), leaf(2), leaf(3)
    assert prune({win, lose2}, 1) == {win}
    assert prune({lose2, lose3}, 1) == {lose2, lose3}  # losses incomparable
    assert prune({win}, 1) == {win}


def test_prune_indifferent_merges_indistinguishable_losses():
    kept = prune({leaf(2), leaf(3)}, 1, "indifferent")
    assert len(kept) == 1


@pytest.mark.parametrize(
    "options, kept",
    [(["[1,3]", "[1,2]"], "[1,2]"), (["[2,[1,3]]", "[3,[1,2]]", "2"], "[2,[1,3]]")],
    ids=["one-quotient", "one-quotient-beside-a-loss"],
)
def test_prune_indifferent_keeps_the_least_of_options_it_cannot_tell_apart(options, kept):
    # Both options collapse to one loss-blind value, so prune keeps the
    # least in text order, whatever order it is given them in.
    values = [parse_value(text) for text in options]
    for order in (1, -1):
        assert prune(values[::order], 1, "indifferent") == {parse_value(kept)}


def test_prune_keeps_the_original_presentation():
    fancy = parse_value("[1,[[[2,3]]]]")
    plain = parse_value("[1,2,3]")
    kept = prune({fancy, plain}, 2)
    # the two options are equal, so neither strictly beats the other
    assert kept == {fancy, plain}


def test_prune_rejects_empty_and_unknown_modes():
    with pytest.raises(ValueError):
        prune(set(), 1)
    for mode in ("bold", "prudent"):  # prudent play collapses, see prudent_simplify
        with pytest.raises(ValueError):
            prune({leaf(1)}, 1, mode)


@given(st.sets(value_trees(), min_size=1, max_size=5), st.integers(1, 3))
def test_prune_survivors_are_a_nonempty_subset(options, p):
    for mode in ("selfish", "indifferent"):
        kept = prune(options, p, mode)
        assert kept and kept <= options


# Leaves put guaranteed wins and losses beside the mostly mixed trees.
OPTION_SETS = st.sets(
    st.one_of(value_trees(max_leaves=12), st.integers(1, 3).map(leaf)),
    min_size=1,
    max_size=6,
)


@given(OPTION_SETS, st.integers(1, 3), st.sampled_from(("selfish", "indifferent")))
def test_prune_equals_the_pairwise_reference(options, p, mode):
    # prune drops options below the top class uncompared; the reference
    # compares every pair.
    assert prune(options, p, mode) == reference_prune(options, p, mode)


# ---------------------------------------------------------------------------
# the folds against their reference versions, on every census root


FOLD_ROOTS = sorted(
    raw_values(key for n in range(1, 9) for key in run_keys(n)), key=lambda v: v.text
)
PROFILES = tuple(NormalizationProfile)


def _walk_tree(v, mover, fold, players, memo):
    """fold's result over the value tree v, mover to move, as fold_raw
    walks it."""
    return walk(v, mover, fold, TREE, memo, players)


@pytest.mark.parametrize("profile", PROFILES, ids=[p.name for p in PROFILES])
def test_syntactic_fold_equals_the_reference_on_every_root(profile):
    bad = [v for v in FOLD_ROOTS if normalize(v, profile) is not reference_normalize(v, profile)]
    assert not bad, [v.text for v in bad[:5]]


@pytest.mark.parametrize("mode", ("selfish", "indifferent"))
@pytest.mark.parametrize("profile", PROFILES, ids=[p.name for p in PROFILES])
def test_prune_fold_equals_the_reference_on_every_root(mode, profile):
    bad = []
    fold = pruning_fold(mode, profile, 3)
    for mover in (1, 2, 3):
        memo, reference_memo = {}, {}
        for v in FOLD_ROOTS:
            got = _walk_tree(v, mover, fold, 3, memo)
            want = reference_prune_fold(v, mover, mode, profile, 3, reference_memo)
            if got is not want:
                bad.append((mover, v.text))
    assert not bad, bad[:5]


def test_prudent_fold_equals_the_reference_on_every_root():
    bad = []
    for mover in (1, 2, 3):
        memo, reference_memo = {}, {}
        for v in FOLD_ROOTS:
            got = prudent_simplify(v, mover, memo)
            if got != reference_prudent_simplify(v, mover, reference_memo):
                bad.append((mover, v.text))
    assert not bad, bad[:5]


@st.composite
def _indifferent_folds(draw):
    # A value, mover and profile for 2 to 4 players; L2 is for 3 only.
    players = draw(st.integers(2, 4))
    profiles = [p for p in PROFILES if players == 3 or p is not NormalizationProfile.L2]
    return (
        draw(value_trees(players)),
        draw(st.integers(1, players)),
        draw(st.sampled_from(profiles)),
        players,
    )


@given(_indifferent_folds())
def test_the_indifferent_fold_is_a_leaf_the_mover_wins_when_they_can(args):
    # The leaf lemma of the solver docstring, which fold_raw relies on.
    v, mover, profile, players = args
    fold, memo = pruning_fold("indifferent", profile, players), {}
    got = _walk_tree(v, mover, fold, players, memo)
    assert got.children is None
    if v.children is not None:
        after = mover % players + 1
        winners = {_walk_tree(c, after, fold, players, memo).winner for c in v.children}
        assert got.winner == (mover if mover in winners else min(winners))
    # So the INDIFFERENT fold, which keeps only winners, reaches the same.
    assert _walk_tree(v, mover, INDIFFERENT, players, {}) == got.winner


# ---------------------------------------------------------------------------
# the relation kernels against their reference versions


def _subterms(roots):
    seen, stack = set(), list(roots)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(v.children or ())
    return sorted(seen, key=lambda v: v.text)


RELATION_POOL = _subterms(
    preferences._prepare(v) for v in raw_values(key for n in range(1, 7) for key in run_keys(n))
)
RELATION_TRIPLES = [(x, y, p) for x in RELATION_POOL for y in RELATION_POOL for p in (1, 2, 3)]


def _library_relations(triples):
    # Every public relation, each call afresh, and every kernel through
    # one table per relation that all the triples share.
    selfish, pless, ext, quotients = {}, {}, {}, {}

    def q(v, p):
        return preferences._quotient(v, p, quotients)

    return [
        (
            leq(x, y, p),
            leq(x, y, p, "indifferent"),
            compare(x, y, p),
            compare(x, y, p, "indifferent"),
            prudent_compare(x, y, p),
            preferences._leq(x, y, p, selfish),
            preferences._pless(x, y, p, pless),
            preferences._ext_leq(q(x, p), q(y, p), ext),
        )
        for x, y, p in triples
    ]


def _reference_relations(triples):
    return [
        (
            reference_leq(x, y, p),
            reference_leq(x, y, p, "indifferent"),
            reference_compare(x, y, p),
            reference_compare(x, y, p, "indifferent"),
            reference_prudent_compare(x, y, p),
            reference_selfish_leq(x, y, p),
            reference_pless(x, y, p),
            reference_ext_leq(quotient(x, p), quotient(y, p)),
        )
        for x, y, p in triples
    ]


def test_relations_equal_their_reference_on_every_pool_pair():
    assert len(RELATION_POOL) == 57
    want = _reference_relations(RELATION_TRIPLES)
    # From empty tables, forwards and then backwards: a memo entry written
    # before its answer was complete would show in one order or the other.
    for order in (1, -1):
        got = _library_relations(RELATION_TRIPLES[::order])[::order]
        bad = [t for t, g, w in zip(RELATION_TRIPLES, got, want) if g != w]
        assert not bad, [(x.text, y.text, p) for x, y, p in bad[:5]]


@given(value_trees(), value_trees(), st.integers(1, 3))
def test_relations_equal_their_reference_on_random_pairs(x, y, p):
    assert _library_relations([(x, y, p)]) == _reference_relations([(x, y, p)])


def test_no_known_pair_needs_the_prudent_option_against_option_clause():
    # The evidence for ROADMAP item 8: dropping that clause from the
    # relation changes no pool pair and no pair of simples up to exponent
    # 8.  The library keeps the clause until a proof says it may go.
    simples = [preferences._prepare(expand_simple(s)) for s in all_simples(8)]
    pairs = [(x, y) for pool in (RELATION_POOL, simples) for x in pool for y in pool]
    pless = {}
    bad = [
        (x.text, y.text, p)
        for x, y in pairs
        for p in (1, 2, 3)
        if reference_pless(x, y, p, option_against_option=False)
        != preferences._pless(x, y, p, pless)
    ]
    assert len(pairs) == 57**2 + 27**2
    assert not bad, bad[:5]


def test_the_prudent_relation_walks_no_selfish_order(monkeypatch):
    # The strict selfish clause is the test x = [y] (module docstring),
    # so the prudent entry points never reach the selfish kernel.
    def refuse(*args):
        raise AssertionError("the prudent relation walked the selfish order")

    def answers():
        return [
            (prudent_compare(x, y, p), preferences.prudent_less(x, y, p))
            for x, y, p in RELATION_TRIPLES
        ]

    want = answers()  # equal to the reference, by the pool test above
    monkeypatch.setattr(preferences, "_leq", refuse)
    assert answers() == want


def test_a_wrapper_is_strictly_below_its_option_on_every_census_subterm():
    # The strict selfish clause holds for ([y], y): [y] <= y by option
    # against whole, and y <= [y] fails by antisymmetry.  Checked on every
    # choice a raw census value up to n = 8 holds.
    roots = raw_values(key for n in range(1, 9) for key in run_keys(n))
    subterms = [v for v in _subterms(roots) if v.children is not None]
    assert len(subterms) == 3021
    selfish, pless = {}, {}
    bad = []
    for y in subterms:
        x = choice([y])
        assert x.children == (y,)
        for p in (1, 2, 3):
            if not preferences._pless(x, y, p, pless) or preferences._leq(y, x, p, selfish):
                bad.append((y.text, p))
    assert not bad, bad[:5]


@pytest.mark.parametrize("x, y", [("[[1,2,3]]", "[1,2,3]"), ("[[1,[1,2]]]", "[1,[1,2]]")])
def test_only_the_strict_clause_puts_these_wrappers_below_their_option(x, y):
    # No option clause holds for these pairs, so a pre-test that drops or
    # narrows the strict selfish clause must still keep them.
    x, y = parse_value(x), parse_value(y)
    for p in (1, 2, 3):
        assert prudent_compare(x, y, p) is Comparison.LESS
        assert strict_clause_decides(preferences._prepare(x), preferences._prepare(y), p)


N7_POOL = sorted({preferences._prepare(v) for v in raw_values(run_keys(7))}, key=lambda v: v.text)


def test_prudent_compare_equals_the_reference_on_a_sample_of_n7_pairs():
    assert len(N7_POOL) == 371
    rng = random.Random(7)
    members = set(N7_POOL)
    # Uniform pairs, and pairs of a value with one of its options, which
    # hold the wrappers that only the strict clause orders.
    related = [(x, c) for x in N7_POOL for c in x.children or () if c in members]
    pairs = [(rng.choice(N7_POOL), rng.choice(N7_POOL)) for _ in range(600)]
    pairs += [rng.choice(related)[:: rng.choice((1, -1))] for _ in range(400)]
    triples = [(x, y, p) for x, y in pairs for p in (1, 2, 3)]
    assert any(strict_clause_decides(x, y, p) for x, y, p in triples)
    bad = [
        (x, y, p)
        for x, y, p in triples
        if prudent_compare(x, y, p) is not reference_prudent_compare(x, y, p)
    ]
    assert not bad, [(x.text, y.text, p) for x, y, p in bad[:5]]


# A random pair, or a value y beside a choice that holds y among its
# options; with no other option that choice is the wrapper [y].
RELATED_PAIRS = st.one_of(
    st.tuples(value_trees(), value_trees()),
    st.builds(
        lambda y, more: (choice([y, *more]), y),
        value_trees(),
        st.lists(value_trees(max_leaves=8), max_size=2),
    ),
)


@given(RELATED_PAIRS, st.integers(1, 3))
def test_the_selfish_order_is_antisymmetric(pair, p):
    x, y = pair
    if x is not y:
        assert not (reference_selfish_leq(x, y, p) and reference_selfish_leq(y, x, p))


@given(RELATED_PAIRS, st.integers(1, 3))
def test_the_strict_clause_decides_alone_only_for_a_wrapper(pair, p):
    # The option lemma behind _pless's last clause, checked against the
    # reference recursion, which runs the full strict clause first.
    for x, y in (pair, pair[::-1]):
        if strict_clause_decides(x, y, p):
            assert x.children == (y,)
        assert preferences._pless(x, y, p, {}) is reference_pless(x, y, p)


def test_a_class_gap_settles_the_reference_prudent_order():
    # The lemma behind _pless's class-gap exit, checked on the recursion
    # that does not take the exit.
    gaps = {True: 0, False: 0}
    bad = []
    for x, y, p in RELATION_TRIPLES:
        cx, cy = _class_rank(x, p), _class_rank(y, p)
        if cx != cy:
            gaps[cx < cy] += 1
            if reference_pless(x, y, p) is not (cx < cy):
                bad.append((x.text, y.text, p))
    assert gaps[True] and gaps[False]
    assert not bad, bad[:5]


def test_ranks_are_the_outcome_class_of_every_player():
    values = [*RELATION_POOL, *(leaf(w) for w in range(1, 10)), parse_value("[4,[5,9]]", 9)]
    bad = [
        (v.text, p) for v in values for p in range(1, 10) if v.ranks[p] != _class_rank(v, p)
    ]
    assert not bad, bad[:5]


def _transitivity_violations(values, leq_of):
    """(premises, violations) of x <= y <= z implies x <= z, over every
    triple of values with x, y and z pairwise distinct."""
    above = {x: [y for y in values if y is not x and leq_of(x, y)] for x in values}
    premises, bad = 0, []
    for x in values:
        for y in above[x]:
            for z in above[y]:
                if z is not x:
                    premises += 1
                    if not leq_of(x, z):
                        bad.append((x.text, y.text, z.text))
    return premises, bad


@pytest.mark.parametrize("p", (1, 2, 3))
def test_the_selfish_order_is_transitive_on_the_pool(p):
    premises, bad = _transitivity_violations(
        RELATION_POOL, lambda x, y: reference_selfish_leq(x, y, p)
    )
    assert premises and not bad, bad[:5]


@pytest.mark.parametrize("p", (1, 2, 3))
def test_the_indifferent_order_is_transitive_on_the_pool(p):
    quotients = list(dict.fromkeys(quotient(v, p) for v in RELATION_POOL))
    premises, bad = _transitivity_violations(quotients, reference_ext_leq)
    assert premises and not bad, bad[:5]


def _nested(z, more_y, more_x):
    y = choice([z, *more_y])
    return choice([y, *more_x]), y, z


# z, a choice y holding z among its options and a choice x holding y,
# where x <= y <= z holds most often, or three random values.
RELATED_TRIPLES = st.one_of(
    st.builds(
        _nested,
        value_trees(max_leaves=12),
        st.lists(value_trees(max_leaves=8), max_size=2),
        st.lists(value_trees(max_leaves=8), max_size=2),
    ),
    st.tuples(value_trees(), value_trees(), value_trees()),
)


@given(RELATED_TRIPLES, st.integers(1, 3), st.permutations(range(3)))
def test_the_orders_are_transitive_on_related_triples(triple, p, order):
    x, y, z = (triple[i] for i in order)
    if reference_selfish_leq(x, y, p) and reference_selfish_leq(y, z, p):
        assert reference_selfish_leq(x, z, p)
    qx, qy, qz = quotient(x, p), quotient(y, p), quotient(z, p)
    if reference_ext_leq(qx, qy) and reference_ext_leq(qy, qz):
        assert reference_ext_leq(qx, qz)


def test_the_prudent_order_is_not_asymmetric():
    # A diagnosis, not a wish: each of these is prudently below the other
    # for player 2, so prudent_compare must keep its two-way guard and
    # call them incomparable (scripts/transitivity_probe.py finds them).
    x = parse_value("[1,[[1,[1,3]]]]")
    y = parse_value("[3,[1,3],[[1,[1,3]]]]")
    assert preferences._prepare(x) is x and preferences._prepare(y) is y
    assert reference_pless(x, y, 2) and reference_pless(y, x, 2)
    assert preferences.prudent_less(x, y, 2) and preferences.prudent_less(y, x, 2)
    assert prudent_compare(x, y, 2) is Comparison.INCOMPARABLE


# Runs in a fresh interpreter: allocate argv[1] throwaway objects, which
# moves every later value to other addresses, then simplify as the CLI
# does and fold a fixed input set, all through one memo, and print the
# sizes of the four relation tables in it.
MEMO_SIZE_PROBE = """
import random, sys
padding = [object() for _ in range(int(sys.argv[1]))]
from nclobber import preferences
from nclobber.enumeration import raw_values, run_keys
from nclobber.values import DEFAULT_PROFILE, NormalizationProfile, normalize, parse_value

def text(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("123")
    width = rng.choice((1, 2, 2, 3))
    return "[" + ",".join(text(rng, depth - 1) for _ in range(width)) + "]"

rng, memo = random.Random(0), {}
for i in range(600):
    mode = ("selfish", "indifferent")[i % 2]
    p = rng.randint(1, 3)
    v = normalize(parse_value(text(rng, rng.randint(3, 7))), DEFAULT_PROFILE)
    if v.children is not None:
        preferences.pruning_fold(mode, DEFAULT_PROFILE, 3).step(v.children, p, memo)
for mode in ("selfish", "indifferent"):
    fold = preferences.pruning_fold(mode, NormalizationProfile.L1, 3)
    for v in raw_values(run_keys(7)):
        preferences.walk(v, 1, fold, preferences.TREE, memo, 3)
relations = (preferences._leq, preferences._pless, preferences._ext_leq, preferences._quotient)
print(*(len(memo.get(relation, ())) for relation in relations))
"""


def test_relation_memo_sizes_do_not_depend_on_memory_layout():
    # prune compares options in the order given and stops at the first
    # that dominates, so the memos fill the same way only if that order
    # is fixed: a set of values iterates by address.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    sizes = set()
    for padding in (0, 1, 100, 1001):
        proc = subprocess.run(
            [sys.executable, "-c", MEMO_SIZE_PROBE, str(padding)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        sizes.add(proc.stdout)
    assert len(sizes) == 1, sizes


# ---------------------------------------------------------------------------
# prudent collapse of full trees


def test_prudent_simplify_goldens():
    assert prudent_simplify(leaf(2), 1) == S(2, 0)
    assert prudent_simplify(parse_value("[2,3]"), 1) == S(1, 1)
    assert prudent_simplify(parse_value("[[[1,2]]]"), 1) == S(3, 1)
    assert prudent_simplify(parse_value("[[[[2,3],[[1,3]]]]]"), 1) == S(3, 2)
    # mover keeps the chain-best option: 3_1 here, not 3_2 or 2_2
    tree = parse_value(
        "[[[1,2],[[2,3],[[1,3]]]],[[1,2],[[2,3]]],[[[2,3],[[1,3]]]]]"
    )
    assert prudent_simplify(tree, 1) == S(3, 1)


def test_a_tree_fold_stops_at_the_movers_own_win():
    # The cutoff: the mover's leaf comes first, so the choice beside it
    # is never folded and never memoized.
    v = parse_value("[1,[[1,3],[2,3]]]")
    (inner,) = (c for c in v.children if c.children is not None)
    memo = {}
    assert str(prudent_simplify(v, 1, memo)) == "1"
    assert v in memo[PRUDENT, 1]
    assert all(state is not inner for table in memo.values() for state in table)


def test_prudent_simplify_rotates_the_mover_through_levels():
    # a forced move hands the same subtree to the next player
    v = parse_value("[[2,3]]")
    assert prudent_simplify(v, 1) == S(2, 0)  # player 2 takes their win
    assert prudent_simplify(v, 3) == S(1, 1)  # player 1 merges two losses


@given(value_trees(3), st.integers(1, 3))
def test_prudent_simplify_is_invariant_under_the_wrapper_rewrites(v, mover):
    # Rules 2 and 3 (profile L1) keep the collapse (prudent_simplify).
    assert prudent_simplify(normalize(v, NormalizationProfile.L1), mover) == prudent_simplify(
        v, mover
    )


def test_prudent_simplify_validates_input():
    # prudent_simplify([2,3], True) once answered True_1.
    for mover in (0, 4, True, 1.0):
        with pytest.raises(ValueError):
            prudent_simplify(parse_value("[2,3]"), mover)
    with pytest.raises(ValueError):
        prudent_simplify(parse_value("[4,5]", players=5), 1)


def test_prudent_compare_is_invariant_under_full_rewriting():
    from nclobber.values import NormalizationProfile, normalize

    for text in ("[[[[2,3]]],1]", "[[1,3],[1,2]]", "[3,[[2,3]]]"):
        v = parse_value(text)
        rewritten = normalize(v, NormalizationProfile.L2)
        for p in (1, 2, 3):
            assert prudent_compare(v, rewritten, p) is Comparison.EQUAL
