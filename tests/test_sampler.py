"""Proposal counting, MH stepping, chain runs, and uniformity diagnostics."""

from fractions import Fraction
from itertools import product

import pytest

from pressgame.bwgraph import linear_graph
from pressgame.errors import PathTooShortError, UnsolvableError
from pressgame.paths import enumerate_successful, is_successful_path
from pressgame.sampler import (
    _below,
    mh_step,
    proposal_probability,
    propose,
    run_chain,
    tv_distance,
)

from gen import all_colorings
from oracles import brute_force_proposal, exact_transition_matrix, union_find_components

import random


def walk(colors, path, seed, steps):
    """The path after each of steps mh_step calls from path, and the number
    of accepted moves, as run_chain keeps them."""
    g = linear_graph(colors)
    bits = random.Random(seed).getrandbits
    visits, accepted = [], 0
    for _ in range(steps):
        cand = mh_step(g, path, bits)
        if cand is not None:
            path, accepted = cand, accepted + 1
        visits.append(path)
    return visits, accepted


def test_proposal_probability_examples():
    # on the all-black path both solutions are one move apart
    assert proposal_probability((0, 2, 1), (2, 0, 1), 3) > 0
    assert proposal_probability((0, 2, 1), (0, 2, 1), 3) > 0
    # proposable even though (0, 1) is not successful on W,B,W
    assert proposal_probability((1, 0), (0, 1), 3) > 0


def test_proposal_probability_matches_draw_enumeration():
    cases = [
        ((0, 2, 1), (2, 0, 1), 3),
        ((0, 2, 1), (0, 2, 1), 3),
        ((1, 0), (0, 1), 3),
        ((1, 0), (1, 2), 3),
        ((0, 1, 3, 2), (3, 0, 1, 2), 4),
        ((0, 1, 3, 2), (2, 1, 3, 0), 4),
        ((0, 1, 2), (0, 1, 2), 4),
        ((5, 5, 5), (5, 5, 0), 6),
    ]
    for src, dst, n in cases:
        assert proposal_probability(src, dst, n) == brute_force_proposal(src, dst, n)


def test_proposal_probability_is_a_distribution():
    # summed over every candidate tuple, the draw measure is exactly 1
    src = (0, 2, 1)
    n = 3
    total = sum(
        proposal_probability(src, dst, n) for dst in product(range(n), repeat=3)
    )
    assert total == Fraction(1)


def test_proposal_is_symmetric_between_equal_length_paths():
    # matching deletion-pair results is a symmetric count, so the Hastings
    # ratio of this move is always 1; the matrix test below relies on it
    pairs = [
        ((0, 2, 1), (2, 0, 1), 3),
        ((1, 0), (0, 1), 3),
        ((0, 1, 3, 2), (0, 3, 1, 2), 4),
    ]
    for a, b, n in pairs:
        assert proposal_probability(a, b, n) == proposal_probability(b, a, n)


def test_short_paths_cannot_propose():
    with pytest.raises(PathTooShortError):
        proposal_probability((0,), (1,), 2)
    with pytest.raises(PathTooShortError):
        propose((0,), 1, random.Random(0).getrandbits)
    with pytest.raises(ValueError):
        propose((0, 0), 0, random.Random(0).getrandbits)  # no vertices to draw


def test_below_reads_the_same_stream_as_randrange():
    # widths 1..70 and every power-of-two boundary up to 2^40, where the
    # rejection loop's word size k = n.bit_length() changes
    sizes = list(range(1, 71)) + [
        m for k in range(7, 41) for m in (2**k - 1, 2**k, 2**k + 1)
    ]
    for seed in range(5):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in sizes:
            got = [_below(mine.getrandbits, n) for _ in range(1_000)]
            assert got == [ref.randrange(n) for _ in range(1_000)]


def test_propose_draws_are_realizable():
    path, bits = (0, 2, 1), random.Random(11).getrandbits
    for _ in range(50):
        cand = propose(path, 3, bits)
        assert len(cand) == 3
        q_fwd = proposal_probability(path, cand, 3)
        assert q_fwd > 0  # the drawn candidate is by construction reachable
        assert q_fwd == proposal_probability(cand, path, 3)


def test_mh_step_counts_and_keeps_validity():
    visits, accepted = walk("WBW", (1, 0), seed=5, steps=200)
    g = linear_graph("WBW")
    assert all(is_successful_path(g, p) for p in visits)
    assert 0 < accepted <= 200


def test_mh_step_reaches_the_other_solution():
    visits, _ = walk("BBB", (0, 2, 1), seed=1, steps=500)
    assert set(visits) == {(0, 2, 1), (2, 0, 1)}


def test_degenerate_chain_stays_put():
    assert mh_step(linear_graph("B"), (0,), random.Random(0).getrandbits) is None
    assert walk("B", (0,), seed=0, steps=1) == ([(0,)], 0)


def test_run_chain_support_and_tv():
    g = linear_graph("WBW")
    r = run_chain(g, steps=10_000, seed=0)
    assert set(r.histogram) == {(1, 0), (1, 2)}
    assert sum(r.histogram.values()) == 10_000 - 1_000  # default burn-in 10%
    assert r.tv_distance < 0.05
    assert 0 <= r.acceptance_rate <= 1


def test_run_chain_single_path_graph():
    r = run_chain(linear_graph("B"), steps=100, seed=3)
    assert r.histogram == {(0,): 90}
    assert r.tv_distance == 0.0
    assert r.acceptance_rate == 0.0


def test_run_chain_is_reproducible():
    g = linear_graph("BWBB")
    a = run_chain(g, steps=2_000, seed=42)
    b = run_chain(g, steps=2_000, seed=42)
    assert a == b
    c = run_chain(g, steps=2_000, seed=43)
    assert c.histogram != a.histogram


def test_run_chain_frequencies_concentrate():
    g = linear_graph("BBB")
    for seed in (0, 1, 2):
        r = run_chain(g, steps=100_000, seed=seed)
        total = sum(r.histogram.values())
        for p in ((0, 2, 1), (2, 0, 1)):
            assert abs(r.histogram[p] / total - 0.5) < 0.02


def test_run_chain_rejects_unsolvable():
    with pytest.raises(UnsolvableError):
        run_chain(linear_graph("WW"), steps=10, seed=0)

    with pytest.raises(ValueError):
        run_chain(linear_graph("B"), steps=10, burn_in=10, seed=0)


def test_tv_distance_examples():
    ps = enumerate_successful(linear_graph("WBW"))
    assert tv_distance({(1, 0): 7, (1, 2): 7}, ps) == 0.0
    assert tv_distance({(1, 0): 9}, ps) == 0.5
    four = enumerate_successful(linear_graph("BWBB"))
    assert tv_distance({four.paths[0]: 3}, four) == 0.75


def test_transition_matrix_is_stochastic_and_in_detailed_balance():
    for n in range(1, 5):
        for colors in all_colorings(n):
            g = linear_graph(colors)
            try:
                ps = enumerate_successful(g)
            except UnsolvableError:
                continue
            t = exact_transition_matrix(ps)
            count = len(ps.paths)
            for i in range(count):
                assert sum(t[i]) == Fraction(1)
                for j in range(count):
                    assert t[i][j] >= 0
                    # uniform detailed balance, exact
                    assert t[i][j] == t[j][i]


def test_transition_matrix_degenerate_cases():
    bb = enumerate_successful(linear_graph("BB"))
    assert exact_transition_matrix(bb) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_chain_is_irreducible_on_linear_graphs():
    # positive-probability moves connect the whole path set whenever the
    # remove-2/add-2 move applies at all (common length >= 2); BB is the
    # one solvable linear instance up to n=6 with several length-1 paths
    stuck = []
    for n in range(1, 7):
        for colors in all_colorings(n):
            g = linear_graph(colors)
            try:
                ps = enumerate_successful(g)
            except UnsolvableError:
                continue
            count = len(ps.paths)
            if ps.common_length < 2:
                if count > 1:
                    stuck.append(colors)
                continue
            edges = [
                (i, j)
                for i in range(count)
                for j in range(i + 1, count)
                if proposal_probability(ps.paths[i], ps.paths[j], g.n) > 0
            ]
            assert len(union_find_components(count, edges)) == 1, colors
    assert stuck == ["BB"]


# run_chain(linear_graph(colors), steps, seed=seed) as recorded from the
# sampler that applied the exact Fraction Hastings ratio (the last case from
# its randrange-drawing successor).  The proposal is symmetric, so that
# ratio is always 1, and the draws read the same bits, so every case must
# reproduce the same RNG stream, histogram and accept count.
GOLDEN_CHAINS = [
    ("BBB", 1, 2_000, 145, {(0, 2, 1): 981, (2, 0, 1): 819}),
    ("BWBB", 0, 3_000, 62, {
        (0, 1, 3, 2): 326, (0, 3, 1, 2): 542, (2, 1, 3, 0): 1220, (3, 0, 1, 2): 612,
    }),
    ("BWBB", 105, 3_000, 72, {
        (0, 1, 3, 2): 888, (0, 3, 1, 2): 754, (2, 1, 3, 0): 411, (3, 0, 1, 2): 647,
    }),
    ("BBBB", 7, 3_000, 67, {
        (0, 2, 1, 3): 1058, (1, 3, 2, 0): 805, (2, 0, 1, 3): 688, (3, 1, 2, 0): 149,
    }),
    ("WBWBW", 3, 3_000, 116, {
        (1, 0, 3, 2): 207, (1, 0, 3, 4): 535, (1, 3, 0, 2): 263, (1, 3, 0, 4): 148,
        (1, 3, 4, 0): 181, (1, 3, 4, 2): 120, (3, 1, 0, 2): 247, (3, 1, 0, 4): 165,
        (3, 1, 4, 0): 324, (3, 1, 4, 2): 287, (3, 4, 1, 0): 117, (3, 4, 1, 2): 106,
    }),
    # n = 9 and L = 8: four-bit vertex and slot draws, unlike the cases above
    ("BWBWWWWWW", 9, 6_000, 10, {
        (0, 2, 3, 4, 5, 6, 7, 1): 426, (2, 0, 3, 4, 5, 6, 7, 1): 500,
        (2, 3, 4, 0, 5, 6, 7, 1): 808, (2, 3, 4, 5, 6, 0, 7, 1): 181,
        (2, 3, 4, 5, 6, 7, 0, 1): 3248, (2, 3, 4, 5, 6, 7, 8, 1): 237,
    }),
]


@pytest.mark.parametrize("colors, seed, steps, accepted, histogram", GOLDEN_CHAINS)
def test_run_chain_matches_recorded_trajectories(
    colors, seed, steps, accepted, histogram
):
    r = run_chain(linear_graph(colors), steps=steps, seed=seed)
    assert r.histogram == histogram
    assert r.acceptance_rate == accepted / steps
