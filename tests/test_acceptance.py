"""Acceptance suite: the eight headline checks, one test each.

Every test prints a single verdict line with the measured numbers (visible
with -s or -rA; pytest -v shows the per-test outcome either way).  Heavy
sweeps carry the slow marker but run by default; deselect with -m "not
slow" during development.
"""

import random
import time

import pytest

from pressgame.bwgraph import BWGraph, is_all_white_empty, is_solvable, linear_graph, press
from pressgame.cli import main as cli_main
from pressgame.errors import EdgeNotOrientedError, HurdleRiskError
from pressgame.paths import enumerate_successful, find_safe_press, is_successful_path
from pressgame.permrev import (
    SignedPermutation,
    build_dr,
    build_overlap,
    parse_signed_permutation,
    reversal_distance_hurdle_free,
    reversal_on_desire_edge,
)
from pressgame.sampler import run_chain

from gen import all_graphs_upto, random_graph, random_signed_permutation
from oracles import all_signed_permutations, exact_transition_matrix, reversal_distances
from test_permrev import FIG1, FIG1_COLORS, FIG1_EDGES


def verdict(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.mark.slow
def test_criterion_1_linear_family_connected_at_threshold_2(capsys):
    start = time.monotonic()
    code = cli_main(["verify-linear", "--n-max", "8", "--threshold", "2"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    ok = code == 0 and first.startswith("PASS: 503 solvable instances")
    verdict(
        "1 (all linear metagraphs connected at k=2, n <= 8)",
        ok and elapsed <= 600,
        f"exit {code}, {first!r}, {elapsed:.0f}s of the 600s budget",
    )


@pytest.mark.slow
def test_criterion_2_successful_paths_share_one_length():
    checked = 0
    violations = 0
    for g in all_graphs_upto(5):
        if not is_solvable(g):
            continue
        ps = enumerate_successful(g)
        checked += 1
        if {len(p) for p in ps.paths} != {ps.common_length}:
            violations += 1
        for p in ps.paths:
            assert is_successful_path(g, p)
    verdict(
        "2 (equal path length on every solvable graph, n <= 5)",
        violations == 0 and checked == 31_742,
        f"{checked} instances, {violations} violations",
    )


@pytest.mark.slow
def test_criterion_3_safe_press_always_exists():
    rng = random.Random(2026)
    graphs = list(all_graphs_upto(5)) + [random_graph(rng, 6) for _ in range(10_000)]
    checked = 0
    for g in graphs:
        if not is_solvable(g) or is_all_white_empty(g):
            continue
        v = find_safe_press(g)
        assert g.is_black(v)
        assert is_solvable(press(g, v))  # no non-trivial unoriented component
        checked += 1
    verdict(
        "3 (a safe press exists on every solvable unsolved graph)",
        checked == 41_440,
        f"{checked} instances, zero failures",
    )


def test_criterion_4_press_commutes_with_reversal_exactly():
    perms = [
        SignedPermutation(e) for n in range(1, 5) for e in all_signed_permutations(n)
    ]
    assert len(perms) == 2 + 8 + 48 + 384
    rng = random.Random(2026)
    perms += [SignedPermutation(random_signed_permutation(rng, 6)) for _ in range(500)]
    oriented = 0
    for p in perms:
        overlap = build_overlap(build_dr(p))
        for k in range(p.n + 1):
            try:
                q = reversal_on_desire_edge(p, k)
            except EdgeNotOrientedError:
                assert not overlap.is_black(k)
                continue
            assert overlap.is_black(k)
            assert press(overlap, k) == build_overlap(build_dr(q))
            oriented += 1
    verdict(
        "4 (pressing a desire edge equals the matching reversal)",
        oriented > 0,
        f"{len(perms)} permutations, {oriented} oriented edges, exact equality",
    )


def test_criterion_5_hurdle_free_distance_matches_bfs():
    checked = 0
    gated = 0
    for n in range(1, 5):
        oracle = reversal_distances(n)  # one BFS per n
        for elems in all_signed_permutations(n):
            p = SignedPermutation(elems)
            try:
                d = reversal_distance_hurdle_free(p)
            except HurdleRiskError:
                gated += 1
                continue
            assert d == oracle[elems]
            checked += 1
    verdict(
        "5 (n+1-c equals BFS distance when hurdle-free, n <= 4)",
        checked > 0,
        f"{checked} hurdle-free permutations exact, {gated} gated out",
    )


@pytest.mark.slow
def test_criterion_6_general_graphs_connected_at_threshold_4(capsys):
    start = time.monotonic()
    code = cli_main(["verify-general", "--n-max", "5", "--threshold", "4"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    ok = code == 0 and first.startswith("PASS: 31742 solvable instances")
    verdict(
        "6 (all metagraphs connected at k=4, n <= 5)",
        ok and elapsed <= 1800,
        f"exit {code}, {first!r}, {elapsed:.0f}s of the 1800s budget",
    )


@pytest.mark.slow
def test_criterion_7_sampler_uniformity():
    g = linear_graph("BWBB")
    ps = enumerate_successful(g)
    assert 2 <= len(ps.paths) <= 500
    worst_tv = 0.0
    for seed in (0, 1, 2):
        r = run_chain(g, steps=10**6, burn_in=10**5, seed=seed)
        worst_tv = max(worst_tv, r.tv_distance)
        assert r.tv_distance < 0.05

    balanced = 0
    for h in all_graphs_upto(4):
        if not is_solvable(h):
            continue
        t = exact_transition_matrix(enumerate_successful(h))
        for i in range(len(t)):
            assert sum(t[i]) == 1
            for j in range(len(t)):
                assert t[i][j] == t[j][i]  # uniform detailed balance, exact
        balanced += 1
    verdict(
        "7 (chain converges to uniform; exact detailed balance, n <= 4)",
        worst_tv < 0.05 and balanced > 0,
        f"worst tv {worst_tv:.4f} over seeds 0,1,2; {balanced} matrices balanced",
    )


def test_criterion_8_overlap_graph_of_the_drawn_example():
    overlap = build_overlap(build_dr(parse_signed_permutation(FIG1)))
    expected = BWGraph.from_parts(FIG1_COLORS, FIG1_EDGES)
    ok = (
        overlap == expected
        and overlap.n == 7
        and overlap.color_string() == "BBWWWBB"
        and len(overlap.edges()) == 13
    )
    verdict(
        "8 (overlap graph of +4 -1 -6 +3 +2 +5 reproduced)",
        ok,
        "7 vertices, colors BBWWWBB, 13 edges",
    )
