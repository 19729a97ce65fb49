"""Doubling construction, overlap graphs, cycle counts, distances, and the
press/reversal correspondence."""

import random

import pytest

from pressgame.bwgraph import BWGraph, press
from pressgame.errors import (
    EdgeNotOrientedError,
    HurdleRiskError,
    IndexOutOfRangeError,
    NotAPermutationError,
    PermutationParseError,
)
from pressgame.permrev import (
    SignedPermutation,
    apply_reversal,
    build_dr,
    build_overlap,
    cycle_count,
    desire_edge_span,
    parse_signed_permutation,
    reversal_distance_hurdle_free,
    reversal_on_desire_edge,
)

from gen import random_signed_permutation
from oracles import (
    all_signed_permutations,
    dr_to_permutation,
    interval_overlap,
    interval_spans,
    reversal_distances,
    union_find_components,
)

FIG1 = "+4 -1 -6 +3 +2 +5"
FIG1_SEQ = (0, 7, 8, 2, 1, 12, 11, 5, 6, 3, 4, 9, 10, 13)
FIG1_COLORS = "BBWWWBB"
FIG1_EDGES = [
    (0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (1, 6),
    (2, 3), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
]


def perm(text):
    return parse_signed_permutation(text)


def overlap_of(p):
    return build_overlap(build_dr(p))


def test_parse_examples():
    assert perm("+1 +2 +3").elems == (1, 2, 3)
    assert perm(FIG1).elems == (4, -1, -6, 3, 2, 5)
    with pytest.raises(NotAPermutationError):
        perm("+1 +1")
    with pytest.raises(PermutationParseError):
        perm("4 -1")  # sign is mandatory
    with pytest.raises(PermutationParseError):
        perm("+a")
    with pytest.raises(NotAPermutationError):
        perm("+1 +3")
    # 1.0 == True == 1, so a magnitude check alone lets floats and bools
    # through to build_overlap
    for elems in [(1.0,), (2.0, -1.0), (True,), (True, -2)]:
        with pytest.raises(NotAPermutationError):
            SignedPermutation(elems)


def test_str_round_trip():
    p = perm(FIG1)
    assert str(p) == FIG1
    assert perm(str(p)) == p


def test_apply_reversal_segment_flip():
    p = perm("+8 -1 -3 +6 -5 +4 +7 -9 +2")
    assert apply_reversal(p, 2, 6) == perm("+8 -1 -7 -4 +5 -6 +3 -9 +2")


def test_apply_reversal_small_cases():
    assert apply_reversal(perm("-1"), 0, 0) == perm("+1")
    assert apply_reversal(perm("+1 +2"), 0, 1) == perm("-2 -1")
    with pytest.raises(IndexOutOfRangeError):
        apply_reversal(perm("+1 +2"), 1, 2)


def test_apply_reversal_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = SignedPermutation(random_signed_permutation(rng, 6))
        i = rng.randrange(6)
        j = rng.randrange(i, 6)
        assert apply_reversal(apply_reversal(p, i, j), i, j) == p


def test_build_dr_examples():
    assert build_dr(perm("+1")) == (0, 1, 2, 3)
    assert build_dr(perm("-1")) == (0, 2, 1, 3)
    assert build_dr(perm(FIG1)) == FIG1_SEQ


def test_dr_round_trip_recovers_permutation():
    for p in all_signed_permutations(3):
        sp = SignedPermutation(p)
        assert dr_to_permutation(build_dr(sp)) == sp


def test_desire_edge_span_examples():
    assert desire_edge_span(build_dr(perm("+1")), 0) == (1, 2)
    dr = build_dr(perm(FIG1))
    assert desire_edge_span(dr, 0) == (1, 5)
    assert desire_edge_span(dr, 3) == (2, 9)
    with pytest.raises(IndexOutOfRangeError):
        desire_edge_span(dr, 7)


def test_desire_edge_span_matches_interval_oracle_everywhere():
    # every k of every n <= 4 input, and the first k past each end, where
    # seq.index alone would raise ValueError
    for n in range(1, 5):
        for elems in all_signed_permutations(n):
            seq = build_dr(SignedPermutation(elems))
            spans = interval_spans(seq)
            assert [desire_edge_span(seq, k) for k in range(n + 1)] == [
                (s.lo, s.hi) for s in spans
            ]
            for k in (-1, n + 1):
                with pytest.raises(IndexOutOfRangeError):
                    desire_edge_span(seq, k)


def test_overlap_identity_is_isolated_white():
    g = overlap_of(perm("+1 +2"))
    assert g.n == 3
    assert g.color_string() == "WWW"
    assert g.edges() == []


def test_overlap_of_negated_singleton():
    g = overlap_of(perm("-1"))
    assert g.color_string() == "BB"
    assert g.edges() == [(0, 1)]


def _assert_matches_interval_oracle(p):
    seq = build_dr(p)
    g, want = build_overlap(seq), interval_overlap(seq)
    assert g == want
    assert hash(g) == hash(want)


@pytest.mark.slow
def test_overlap_matches_interval_oracle_exhaustive_small():
    checked = 0
    for n in range(1, 7):
        for elems in all_signed_permutations(n):
            _assert_matches_interval_oracle(SignedPermutation(elems))
            checked += 1
    assert checked == 4282 + 46080


def test_overlap_matches_interval_oracle_sampled_n31():
    rng = random.Random(31)
    for _ in range(200):
        _assert_matches_interval_oracle(SignedPermutation(random_signed_permutation(rng, 31)))


def test_overlap_figure_reproduction():
    g = overlap_of(perm(FIG1))
    assert g.n == 7
    assert g.color_string() == FIG1_COLORS
    assert g.edges() == FIG1_EDGES


def test_cycle_count_identity():
    for n in range(0, 6):
        p = SignedPermutation(tuple(range(1, n + 1)))
        assert cycle_count(build_dr(p)) == n + 1


def test_cycle_count_examples():
    assert cycle_count(build_dr(perm("-1"))) == 1
    assert cycle_count(build_dr(perm(FIG1))) == 1


def test_cycle_count_matches_component_count():
    # independent route: cycles of a 2-regular multigraph are its components
    for elems in (e for n in range(1, 6) for e in all_signed_permutations(n)):
        seq = build_dr(SignedPermutation(elems))
        labels = len(seq)
        edges = [(seq[i], seq[i + 1]) for i in range(0, labels, 2)]
        edges += [(2 * i, 2 * i + 1) for i in range(labels // 2)]
        assert cycle_count(seq) == len(union_find_components(labels, edges))


def test_single_reversal_changes_cycles_by_at_most_one():
    for elems in all_signed_permutations(3):
        p = SignedPermutation(elems)
        c = cycle_count(build_dr(p))
        for i in range(3):
            for j in range(i, 3):
                c2 = cycle_count(build_dr(apply_reversal(p, i, j)))
                assert abs(c2 - c) <= 1


def test_distance_examples():
    assert reversal_distance_hurdle_free(perm("+1 +2 +3 +4 +5 +6")) == 0
    assert reversal_distance_hurdle_free(perm(FIG1)) == 6
    with pytest.raises(HurdleRiskError):
        reversal_distance_hurdle_free(perm("+2 +1"))


def test_plus2_plus1_overlap_is_all_white_triangle():
    g = overlap_of(perm("+2 +1"))
    assert g.color_string() == "WWW"
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_distance_matches_bfs_oracle_when_hurdle_free():
    oracle = reversal_distances(3)
    checked = 0
    for elems in all_signed_permutations(3):
        p = SignedPermutation(elems)
        try:
            d = reversal_distance_hurdle_free(p)
        except HurdleRiskError:
            continue
        assert d == oracle[elems]
        checked += 1
    assert checked > 0


def test_reversal_on_desire_edge_examples():
    assert reversal_on_desire_edge(perm("-1"), 0) == perm("+1")
    assert reversal_on_desire_edge(perm("-1 +2"), 0) == perm("+1 +2")
    with pytest.raises(EdgeNotOrientedError):
        reversal_on_desire_edge(perm("+2 +1"), 0)
    with pytest.raises(IndexOutOfRangeError):
        reversal_on_desire_edge(perm("-1"), 5)


def test_oriented_edges_are_exactly_the_actable_ones():
    for elems in all_signed_permutations(3):
        p = SignedPermutation(elems)
        g = overlap_of(p)
        for k in range(g.n):
            if g.is_black(k):
                lo, hi = desire_edge_span(build_dr(reversal_on_desire_edge(p, k)), k)
                assert hi - lo - 1 == 0
            else:
                with pytest.raises(EdgeNotOrientedError):
                    reversal_on_desire_edge(p, k)


def _assert_commutes(p):
    g = overlap_of(p)
    for k in g.black_vertices():
        via_reversal = overlap_of(reversal_on_desire_edge(p, k))
        via_press = press(g, k)
        assert via_reversal == via_press
        assert not via_press.is_black(k)
        assert via_press.adj[k] == 0


def test_press_reversal_commutation_exhaustive_small():
    for n in range(1, 5):
        for elems in all_signed_permutations(n):
            _assert_commutes(SignedPermutation(elems))


def test_press_reversal_commutation_sampled_larger():
    rng = random.Random(2026)
    for n in (6, 7, 8):
        for _ in range(60):
            _assert_commutes(SignedPermutation(random_signed_permutation(rng, n)))


def test_overlap_is_bwgraph_value():
    assert isinstance(overlap_of(perm("+1")), BWGraph)
