"""Path validity/success, exhaustive enumeration, and safe-press selection."""

import gc
import itertools
import random

import pytest

from pressgame.bwgraph import (
    BWGraph,
    _press_rows,
    apply_path,
    is_all_white_empty,
    is_solvable,
    linear_graph,
)
from pressgame.errors import (
    AlreadySolvedError,
    CapExceededError,
    GameError,
    IndexOutOfRangeError,
    InvalidPathError,
    UnsolvableError,
)
from pressgame.paths import (
    DEFAULT_CAP,
    enumerate_successful,
    find_safe_press,
    format_paths,
    greedy_solve,
    is_successful_path,
)
from pressgame.permrev import SignedPermutation, build_dr, build_overlap

from gen import all_colorings, all_graphs_upto, random_graph, random_signed_permutation
from oracles import (
    dfs_enumerate,
    is_valid_path,
    iterated_safe_press,
    linear_family,
    naive_graph,
    naive_is_done,
    naive_press,
    naive_solvable,
    naive_successful_paths,
)


def as_naive(g):
    return naive_graph(g.color_string(), g.edges())


def test_is_valid_path_examples():
    g = linear_graph("WBW")
    assert is_valid_path(g, [1, 0])
    assert not is_valid_path(g, [0])
    assert is_valid_path(g, [])
    assert not is_valid_path(g, [9])


def test_is_successful_path_examples():
    g = linear_graph("WBW")
    assert is_successful_path(g, [1, 0])
    assert not is_successful_path(g, [1])
    assert is_successful_path(BWGraph.from_parts("WW"), [])


def _naive_fold(g, seq):
    """(first position that is out of range or white, or None; state reached)"""
    state = as_naive(g)
    for k, v in enumerate(seq):
        if not 0 <= v < g.n or state[0][v] != "B":
            return k, state
        state = naive_press(state, v)
    return None, state


def _assert_fold_matches_naive(g, seq):
    bad, state = _naive_fold(g, seq)
    assert is_valid_path(g, seq) == (bad is None)
    assert is_successful_path(g, seq) == (bad is None and naive_is_done(state))
    if bad is None:
        h = apply_path(g, seq)
        assert BWGraph(h.n, h.colors, h.adj) == h
        assert as_naive(h) == state
        return
    expected = InvalidPathError if 0 <= seq[bad] < g.n else IndexOutOfRangeError
    with pytest.raises(GameError) as exc:
        apply_path(g, seq)
    assert type(exc.value) is expected
    if expected is InvalidPathError:
        assert (exc.value.position, exc.value.vertex) == (bad, seq[bad])


def test_path_fold_matches_naive_presses_exhaustive_small():
    # every graph with n <= 3, every sequence of length <= 4 over -1..n
    for g in all_graphs_upto(3):
        for length in range(5):
            for seq in itertools.product(range(-1, g.n + 1), repeat=length):
                _assert_fold_matches_naive(g, seq)


def test_path_fold_matches_naive_presses_sampled():
    # random walks over black vertices, half of them with one position
    # overwritten, so that successes and failures at every depth occur
    rng = random.Random(8)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8))
        state, seq = as_naive(g), []
        for _ in range(rng.randint(0, g.n)):
            blacks = [v for v, c in state[0].items() if c == "B"]
            if not blacks:
                break
            seq.append(rng.choice(blacks))
            state = naive_press(state, seq[-1])
        if seq and rng.random() < 0.5:
            seq[rng.randrange(len(seq))] = rng.randint(-1, g.n)
        _assert_fold_matches_naive(g, seq)


def test_enumerate_successful_examples():
    ps = enumerate_successful(linear_graph("WBW"))
    assert ps.paths == ((1, 0), (1, 2))
    assert ps.common_length == 2

    ps = enumerate_successful(linear_graph("BBB"))
    assert ps.paths == ((0, 2, 1), (2, 0, 1))
    assert ps.common_length == 3

    ps = enumerate_successful(linear_graph("B"))
    assert ps.paths == ((0,),)
    assert ps.common_length == 1


def test_enumerate_successful_empty_graph_has_empty_path():
    ps = enumerate_successful(BWGraph.from_parts("WW"))
    assert ps.paths == ((),)
    assert ps.common_length == 0


def test_enumerate_unsolvable_raises():
    with pytest.raises(UnsolvableError):
        enumerate_successful(BWGraph.from_parts("WW", [(0, 1)]))


def test_enumerate_cap_is_an_error_not_truncation():
    g = BWGraph.from_parts("BBB")  # three isolated blacks: 3! = 6 paths
    with pytest.raises(CapExceededError) as exc:
        enumerate_successful(g, cap=5)
    assert exc.value.count_so_far == 6
    assert len(enumerate_successful(g, cap=6).paths) == 6


def test_enumeration_matches_naive_search():
    for g in all_graphs_upto(4):
        if not is_solvable(g):
            assert not naive_solvable(as_naive(g))
            continue
        expected = sorted(naive_successful_paths(as_naive(g)))
        ps = enumerate_successful(g)
        assert list(ps.paths) == expected
        for p in ps.paths:
            assert is_successful_path(g, p)


def test_successful_paths_never_repeat_a_vertex():
    # a pressed vertex is left white and isolated, so it is never pressed
    # again; sampler.mh_step rejects repeated-vertex candidates unfolded
    instances = paths = 0
    for g in all_graphs_upto(5):
        if is_solvable(g):
            ps = enumerate_successful(g)
            assert all(len(set(p)) == len(p) for p in ps.paths), g
            instances += 1
            paths += len(ps.paths)
    assert (instances, paths) == (31_742, 282_730)


@pytest.mark.slow
def test_enumeration_matches_dfs_oracle(monkeypatch):
    # the count-then-walk enumeration against the DFS it replaced, on every
    # solvable labeled graph with n <= 5 and solvable linear graph with n <= 8
    solvable = 0
    for g in itertools.chain(all_graphs_upto(5), linear_family(8)):
        if is_solvable(g):
            ps, ref = enumerate_successful(g), dfs_enumerate(g, DEFAULT_CAP)
            assert (ps.paths, ps.common_length) == (ref.paths, ref.common_length)
            solvable += 1
    assert solvable == 31_742 + 503
    # the cap is decided from the count, but reports what the DFS reported:
    # cap + 1 at every cap below the path count P, and no error at cap = P
    for g in all_graphs_upto(4):
        if not is_solvable(g):
            continue
        p = len(enumerate_successful(g).paths)
        for cap in range(1, p):
            with pytest.raises(CapExceededError) as new:
                enumerate_successful(g, cap=cap)
            with pytest.raises(CapExceededError) as old:
                dfs_enumerate(g, cap)
            assert new.value.count_so_far == old.value.count_so_far == cap + 1
        assert enumerate_successful(g, cap=p).paths == dfs_enumerate(g, p).paths
    # many states, few allowed paths: 20 isolated black vertices have 20!
    # paths over 2^20 states; the count must stop inside a small subtree
    # (38 presses) rather than count every state first
    g = BWGraph.from_parts("B" * 20)
    with pytest.raises(CapExceededError) as old:
        dfs_enumerate(g, 10)
    presses = 0

    def counted_press_rows(*args):
        nonlocal presses
        presses += 1
        if presses > 1_000:
            raise AssertionError("the count ran on past the cap")
        return _press_rows(*args)

    monkeypatch.setattr("pressgame.paths._press_rows", counted_press_rows)
    with pytest.raises(CapExceededError) as new:
        enumerate_successful(g, cap=10)
    assert new.value.count_so_far == old.value.count_so_far == 11


def test_enumeration_checks_its_paths_after_the_walk(monkeypatch):
    # the count keeps no lengths: the walked paths are checked for one common
    # length, and a solvable graph whose count is zero is a fault too
    g = linear_graph("BB")
    uneven = ((0, ()), (1, ((0, ()),)))  # walks to the paths (0,) and (1, 0)
    monkeypatch.setattr("pressgame.paths._count", lambda *args: (2, uneven))
    with pytest.raises(AssertionError, match="^equal-length law violated$"):
        enumerate_successful(g)
    monkeypatch.setattr("pressgame.paths._count", lambda *args: (0, ()))
    with pytest.raises(AssertionError, match="^a solvable graph must have a successful path$"):
        enumerate_successful(g)


def test_enumeration_leaves_no_reference_cycles():
    # the walk is a module-level function with no closure cell, so reference
    # counting frees each call's state and nothing is left to the cyclic collector
    g = linear_graph("BWBB")
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(1000):
            enumerate_successful(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumeration_comes_out_in_strict_lexicographic_order():
    # the walk's order is returned as is, with no sort; on linear graphs
    # past the naive search's reach it must still be strictly ascending
    solvable = 0
    for g in linear_family(7):
        if is_solvable(g):
            paths = enumerate_successful(g).paths
            assert all(a < b for a, b in zip(paths, paths[1:]))
            solvable += 1
    assert solvable == 248


def test_solvability_predicate_matches_reachability():
    for g in all_graphs_upto(4):
        assert is_solvable(g) == naive_solvable(as_naive(g))


def test_equal_length_on_all_small_graphs():
    for g in all_graphs_upto(4):
        if is_solvable(g):
            ps = enumerate_successful(g)
            assert {len(p) for p in ps.paths} == {ps.common_length}


def test_find_safe_press_examples():
    assert find_safe_press(linear_graph("B")) == 0
    # vertex 1 is unsafe on BBB: pressing it leaves the all-white edge 0-2
    assert find_safe_press(linear_graph("BBB")) == 0
    with pytest.raises(UnsolvableError):
        find_safe_press(BWGraph.from_parts("WW", [(0, 1)]))
    with pytest.raises(AlreadySolvedError):
        find_safe_press(BWGraph.from_parts("WW"))


def test_safe_press_always_exists_small():
    for g in all_graphs_upto(5):
        if not is_solvable(g) or is_all_white_empty(g):
            continue
        v = find_safe_press(g)
        assert g.is_black(v)


def test_greedy_solve_examples():
    assert greedy_solve(linear_graph("BBB")) == (0, 2, 1)
    assert greedy_solve(BWGraph.from_parts("WW")) == ()
    assert greedy_solve(linear_graph("WBW")) == (1, 0)


def test_greedy_solve_matches_iterated_find_safe_press():
    graphs = [g for g in all_graphs_upto(4) if is_solvable(g)]
    rng = random.Random(31)
    sampled = 0
    while sampled < 50:
        dr = build_dr(SignedPermutation(random_signed_permutation(rng, 31)))
        g = build_overlap(dr)
        if is_solvable(g):
            graphs.append(g)
            sampled += 1
    for g in graphs:
        assert greedy_solve(g) == iterated_safe_press(g)


def test_greedy_solve_is_always_successful():
    for g in all_graphs_upto(5):
        if is_solvable(g):
            path = greedy_solve(g)
            assert is_successful_path(g, path)
            assert is_all_white_empty(apply_path(g, path))


def test_every_black_vertex_appears_in_some_path_on_linear_graphs():
    for n in range(1, 7):
        for colors in all_colorings(n):
            g = linear_graph(colors)
            if not is_solvable(g):
                continue
            ps = enumerate_successful(g)
            for v in g.black_vertices():
                assert any(v in p for p in ps.paths)


def test_format_paths_layout():
    ps = enumerate_successful(linear_graph("WBW"))
    assert format_paths(ps) == "1 0\n1 2\n"
