"""Proposal counting, MH stepping, chain runs, and uniformity diagnostics."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from pressgame import sampler
from pressgame.bwgraph import BWGraph, is_solvable, linear_graph
from pressgame.errors import EmptyPathSetError, PathTooShortError, UnsolvableError
from pressgame.meta import build_metagraph
from pressgame.paths import PathSet, enumerate_successful, greedy_solve, is_successful_path
from pressgame.sampler import (
    mh_step,
    proposal_probability,
    run_chain,
    tv_distance,
)

from gen import all_graphs_upto, color_strings, linear_family
from oracles import (
    _below,
    brute_force_proposal,
    chain_visits,
    exact_transition_matrix,
    propose,
    union_find_components,
)

import random


def walk(colors, path, seed, steps):
    """The path after each of steps moves from path on linear_graph(colors),
    and the number of accepted moves."""
    visits, moves = chain_visits(linear_graph(colors), path, seed, steps)
    return visits, len(moves)


def test_proposal_probability_examples():
    # on the all-black path both solutions are one move apart
    assert proposal_probability((0, 2, 1), (2, 0, 1), 3) > 0
    assert proposal_probability((0, 2, 1), (0, 2, 1), 3) > 0
    # proposable even though (0, 1) is not successful on W,B,W
    assert proposal_probability((1, 0), (0, 1), 3) > 0
    # one draw keeps the length, so paths of another length are unreachable
    assert proposal_probability((1, 0), (1, 0, 2), 3) == 0


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
        ((0, 1), (1, 2), 2),  # dst drops label 2, which no draw below 2 gives
        ((0, 1, 2), (0, 3, 1), 3),
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
    with pytest.raises(ValueError, match="^cannot draw vertices of an empty graph$"):
        proposal_probability((0, 0), (0, 0), 0)


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


def scripted(words):
    """A getrandbits that hands out words, popped from the list in order;
    each must be below 2**k for the k it is read with."""
    def bits(k):
        word = words.pop(0)
        assert word < 1 << k
        return word
    return bits


def test_mh_step_rejects_from_the_draws_as_the_fold_would(monkeypatch):
    # every draw (i, j, slot1, a, slot2, b) on every successful path of each
    # solvable linear graph with n <= 4, as words below their bounds so _below
    # never redraws: mh_step gives what propose and the fold give on the same
    # words, and reaches the fold exactly for candidates without a repeat
    folded = []

    def fold(g, cand):
        folded.append(cand)
        return is_successful_path(g, cand)

    monkeypatch.setattr(sampler, "is_successful_path", fold)
    cases = reached = accepted = 0
    for g in linear_family(4):
        if not is_solvable(g):
            continue
        n = g.n
        for path in enumerate_successful(g).paths:
            L = len(path)
            if L < 2:
                continue
            bounds = (L, L - 1, L - 1, n, L, n)  # j is read as a word below L - 1
            for words in product(*map(range, bounds)):
                cand = propose(path, n, scripted(list(words)))
                ok = is_successful_path(g, cand)
                script, folded[:] = list(words), []
                got = mh_step(g, path, scripted(script))
                assert got == (cand if ok else None), (g, path, words)
                assert script == []
                assert folded == ([cand] if len(set(cand)) == L else []), (g, path, words)
                cases += 1
                reached += len(folded)
                accepted += ok
    assert (cases, reached, accepted) == (71312, 12688, 2728)


def test_mh_step_keeps_the_empty_graph_guard():
    # getrandbits(0) is always 0, so without the guard the label draw below 0
    # would redraw forever; the finite script makes that an IndexError here instead
    with pytest.raises(ValueError, match="^cannot draw vertices of an empty graph$"):
        mh_step(BWGraph(0, 0, ()), (0, 0), scripted([0] * 6))


def test_mh_step_draws_read_the_words_propose_reads(monkeypatch):
    # with every candidate accepted, mh_step gives propose's candidate unless
    # it repeats a vertex, and leaves its stream where propose leaves its own:
    # labels up to 6 bits wide and slots up to 4, so words at or past a bound
    # come up often and each draw must redraw exactly when _below does
    monkeypatch.setattr(sampler, "is_successful_path", lambda g, cand: True)
    steps = kept = 0
    words = []  # the width of every word mh_step reads

    def bits(k):
        words.append(k)
        return mine.getrandbits(k)

    for n in range(1, 41):
        g = BWGraph.from_parts("W" * n, [])
        for L in range(2, min(n, 10) + 1):
            paths, mine, ref = random.Random(n * L), random.Random(L), random.Random(L)
            for _ in range(40):
                path = tuple(paths.sample(range(n), L))
                cand = propose(path, n, ref.getrandbits)
                got = mh_step(g, path, bits)
                assert got == (cand if len(set(cand)) == L else None), (n, path)
                assert mine.getstate() == ref.getstate(), (n, path)
                steps += 1
                kept += got is not None
    assert (steps, kept, len(words) - 6 * steps) == (12600, 7810, 46013)  # redraws

    # the smallest rejected word, the bound itself, first on each draw in turn
    path, g = (0, 1, 2), BWGraph.from_parts("WWWWW", [])
    bounds, below = (3, 2, 2, 5, 3, 5), [2, 0, 1, 4, 0, 3]
    for d, bound in enumerate(bounds):
        script = below[:d] + [bound] + below[d:]
        cand = propose(path, 5, scripted(list(script)))
        assert mh_step(g, path, scripted(script)) == cand == (3, 1, 4), d
        assert script == []


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


def test_run_chain_matches_the_per_step_oracle():
    # run lengths against one visit per step, and mh_step's repeated-vertex
    # rejection against folding every candidate; burn_in at the first accept
    # puts that move at t == burn_in, and steps one past an accept ends the
    # chain on an accepted move
    steps = 300
    runs = accepts_at_burn_in = accepts_last = 0
    for g in linear_family(6):
        if not is_solvable(g):
            continue
        for seed in range(3):
            visits, moves = chain_visits(g, greedy_solve(g), seed, steps)
            cases = [(steps, b) for b in (0, 1, steps // 10, steps - 1, *moves[:1])]
            if moves:
                cases += [(moves[-1] + 1, 0), (moves[-1] + 1, moves[-1])]
            for length, burn_in in cases:
                r = run_chain(g, length, burn_in=burn_in, seed=seed)
                want = Counter(visits[burn_in:length])
                assert list(r.histogram.items()) == list(want.items()), (g, seed)
                taken = [t for t in moves if t < length]
                assert r.acceptance_rate == len(taken) / length
                accepts_at_burn_in += burn_in in taken
                accepts_last += length - 1 in taken
                runs += 1
    assert (runs, accepts_at_burn_in, accepts_last) == (2430, 691, 672)


def test_run_chain_calls_mh_step_once_per_step(monkeypatch):
    # run_chain looks mh_step up once per step, so a rebinding of it, as a
    # tracer makes, sees every step although visits are counted per run
    calls = []

    def counted(*args):
        calls.append(args)
        return mh_step(*args)

    g = linear_graph("BWBB")
    monkeypatch.setattr(sampler, "mh_step", counted)
    traced = run_chain(g, steps=500, seed=3)
    monkeypatch.undo()
    assert len(calls) == 500
    assert traced == run_chain(g, steps=500, seed=3)


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
    with pytest.raises(EmptyPathSetError):
        tv_distance({(1, 0): 1}, PathSet(graph=ps.graph, paths=(), common_length=0))
    with pytest.raises(ValueError, match="^histogram is empty$"):
        tv_distance({}, ps)


def test_transition_matrix_is_stochastic_and_in_detailed_balance():
    for n in range(1, 5):
        for colors in color_strings(n):
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
        for colors in color_strings(n):
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


def test_moves_are_the_threshold_2_metagraph_edges():
    # P -> Q != P has positive probability exactly when P and Q share an
    # (L-2)-subsequence, the key build_metagraph(ps, 2) groups paths by
    linear = (linear_graph(c) for n in range(1, 7) for c in color_strings(n))
    graphs = [*all_graphs_upto(4), *linear]
    instances = pairs = joined = 0
    for g in graphs:
        if not is_solvable(g) or (ps := enumerate_successful(g)).common_length < 2:
            continue
        count = len(ps.paths)
        moves = tuple(
            (i, j)
            for i in range(count)
            for j in range(i + 1, count)
            if proposal_probability(ps.paths[i], ps.paths[j], g.n) > 0
        )
        assert moves == build_metagraph(ps, 2), g
        instances += 1
        pairs += count * (count - 1) // 2
        joined += len(moves)
    assert (instances, pairs, joined) == (1060, 35827, 24214)


def test_chain_stays_in_its_threshold_2_component():
    # the n = 6 witness: its two paths 4 2 1 0 5 3 and 5 3 1 0 4 2 share no
    # 4-subsequence, so no move joins them and the visits never reach uniform
    g = BWGraph.from_parts("WWWWBB", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
    ps = enumerate_successful(g)
    assert build_metagraph(ps, 2) == () and len(ps.paths) == 2
    for seed in range(5):
        r = run_chain(g, steps=20_000, seed=seed)
        assert len(r.histogram) == 1 and r.tv_distance == 0.5


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
