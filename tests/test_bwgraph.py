"""Press semantics, components, solvability, and the graph text format."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from pressgame import bwgraph
from pressgame.bwgraph import (
    BWGraph,
    apply_path,
    classify_components,
    format_graph,
    graph_to_dot,
    is_all_white_empty,
    is_solvable,
    linear_graph,
    parse_graph,
    press,
)
from pressgame.errors import (
    DuplicateEdgeError,
    GameError,
    GraphParseError,
    IndexOutOfRangeError,
    InvalidPathError,
    PressOnWhiteError,
    SelfLoopError,
)
from pressgame.meta import verify_general_family, verify_linear_family
from pressgame.paths import greedy_solve
from pressgame.permrev import SignedPermutation, build_dr, build_overlap

from gen import all_graphs, all_graphs_upto, random_signed_permutation
from oracles import (
    as_naive,
    cellwise_transpose_masks,
    guarded_press,
    naive_press,
    rowwise_graph_check,
    union_find_components,
    union_find_solvable,
)


SRC = Path(bwgraph.__file__).parents[1]


def test_press_isolated_black_vertex():
    g = linear_graph("B")
    out = press(g, 0)
    assert out.color_string() == "W"
    assert out.edges() == []


def test_press_center_of_path():
    # hand-applied definition clauses: flip 0 and 2, connect them, isolate 1
    g = linear_graph("WBW")
    out = press(g, 1)
    assert out.color_string() == "BWB"
    assert out.edges() == [(0, 2)]
    assert out.adj[1] == 0


def test_press_center_of_triangle():
    g = BWGraph.from_parts("WBW", [(0, 1), (1, 2), (0, 2)])
    out = press(g, 1)
    assert out.color_string() == "BWB"
    assert out.edges() == []


def test_press_errors():
    g = linear_graph("WBW")
    with pytest.raises(PressOnWhiteError):
        press(g, 0)
    with pytest.raises(IndexOutOfRangeError):
        press(g, 3)


def test_press_matches_the_guarded_press_it_replaced():
    # every labeled graph with n <= 4, every colouring, every v in -1..n: the
    # same graph or the same error class; a white press is now the one-vertex
    # path's InvalidPathError at position 0, still a PressOnWhiteError
    checked = 0
    for g in itertools.chain(all_graphs(0), all_graphs_upto(4)):
        for v in range(-1, g.n + 1):
            checked += 1
            try:
                want = guarded_press(g, v)
            except GameError as exc:
                with pytest.raises(type(exc)) as got:
                    press(g, v)
                if type(exc) is IndexOutOfRangeError:
                    assert type(got.value) is IndexOutOfRangeError
                    # the oracle still reads 0..-1 on the empty graph
                    msg = str(exc) if g.n else f"vertex {v} outside a graph with no vertices"
                    assert str(got.value) == msg
                else:
                    assert type(exc) is PressOnWhiteError
                    assert type(got.value) is InvalidPathError
                    assert (got.value.position, got.value.vertex) == (0, v)
                continue
            assert press(g, v) == want
    assert checked == 2 + 6 + 32 + 320 + 6_144


def test_press_is_value_semantic():
    g = linear_graph("WBW")
    press(g, 1)
    assert g == linear_graph("WBW")


def test_apply_path_examples():
    g = linear_graph("WBW")
    assert apply_path(g, []) == g
    out = apply_path(linear_graph("BB"), [0])
    assert is_all_white_empty(out)
    assert is_all_white_empty(apply_path(g, [1, 0]))


def test_apply_path_reports_first_bad_position():
    g = linear_graph("WBW")
    with pytest.raises(InvalidPathError) as exc:
        apply_path(g, [1, 1, 0])
    assert exc.value.position == 1
    assert exc.value.vertex == 1


def test_classify_components_examples():
    assert tuple(classify_components(BWGraph.from_parts("WWW"))) == ()
    assert tuple(classify_components(linear_graph("WBW"))) == (0b111,)
    two = BWGraph.from_parts("BBWW", [(0, 1), (2, 3)])
    assert tuple(classify_components(two)) == (0b0011, 0b1100)
    # isolated vertices 1 and 3 start no walk; a component's mask keeps its gaps
    gapped = BWGraph.from_parts("WWBWW", [(0, 4), (2, 4)])
    assert tuple(classify_components(gapped)) == (0b10101,)


def test_is_solvable_examples():
    assert is_solvable(BWGraph.from_parts("WWW"))
    assert not is_solvable(BWGraph.from_parts("WW", [(0, 1)]))
    assert is_solvable(linear_graph("BBB"))


def test_is_all_white_empty_examples():
    assert is_all_white_empty(BWGraph(0, 0, ()))
    assert is_all_white_empty(BWGraph.from_parts("W"))
    assert not is_all_white_empty(BWGraph.from_parts("B"))


def test_linear_graph_shapes():
    assert linear_graph("B").edges() == []
    g = linear_graph("WBW")
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.color_string() == "WBW"
    assert linear_graph("").n == 0


def test_color_string_reads_each_vertex():
    # every colour mask with 0 <= n <= 8; n = 0 gives ""
    for n in range(9):
        for colors in range(1 << n):
            g = BWGraph(n, colors, (0,) * n)
            assert g.color_string() == "".join("B" if g.is_black(v) else "W" for v in range(n))


def test_press_agrees_with_naive_definition_everywhere():
    # every graph with up to 4 vertices, every black vertex
    for g in all_graphs_upto(4):
        for v in g.black_vertices():
            got = press(g, v)
            colors, edges = naive_press(as_naive(g), v)
            assert got.color_string() == "".join(colors[i] for i in range(g.n))
            assert {frozenset(e) for e in got.edges()} == set(edges)


def test_press_preserves_shape_invariants():
    for g in all_graphs(4):
        for v in g.black_vertices():
            out = press(g, v)
            assert out.n == g.n
            assert BWGraph(out.n, out.colors, out.adj) == out  # passes the checked constructor
            for u in range(out.n):
                assert not out.adj[u] >> u & 1
                for w in range(out.n):
                    assert out.adj[u] >> w & 1 == out.adj[w] >> u & 1
            # v is separated and white from now on
            assert not out.is_black(v)
            assert out.adj[v] == 0


def test_constructor_rejects_broken_adjacency():
    for n, colors, adj, row in [
        (2, 0b11, (0b10, 0), 0),  # edge 0 -> 1 without 1 -> 0
        (1, 0b1, (0b1,), 0),  # self-loop at 0
        (2, 0b01, (0b100, 0), 0),  # neighbour 2 outside 0..1
        (2, 0, (0, 0b1), 1),  # edge 1 -> 0 without 0 -> 1: the lower row passes
        (3, 0, (0, 0b100, 0), 1),  # edge 1 -> 2 without 2 -> 1
        (3, 0, (0, 0, 0b1000), 2),  # neighbour 3 outside 0..2
    ]:
        message = f"^adjacency row {row} is not symmetric and irreflexive$"
        with pytest.raises(ValueError, match=message):
            BWGraph(n, colors, adj)
    for n, colors, adj in [
        (2, 0, (0,)),  # one row for two vertices
        (2, 0b100, (0, 0)),  # colour bit 2 outside 0..1
        (-1, 0, ()),
        (3, 0b010, [2, 5, 2]),  # linear_graph("WBW")'s rows as a list, which no graph may hash
    ]:
        with pytest.raises(ValueError, match="^inconsistent graph fields$"):
            BWGraph(n, colors, adj)


def _constructor_verdict(n, colors, adj):
    try:
        BWGraph(n, colors, adj)
    except ValueError as e:
        return str(e)
    return None


def _row_check_cases():
    """Every n <= 3 row tuple over n + 1 bits or -1, then 20,000 seeded graphs with
    n <= 70 (matrix widths 8 to 128), most carrying up to three injected faults."""
    for n in range(4):
        yield from ((n, 0, adj) for adj in itertools.product(range(-1, 2 << n), repeat=n))
    rng = random.Random(70)
    for _ in range(20_000):
        n = rng.randint(1, 70)
        adj = [0] * n
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            v, kind = rng.randrange(n), rng.randrange(4)
            if kind == 0:  # one side of an edge added or dropped (or a loop toggled)
                adj[v] ^= 1 << rng.randrange(n)
            elif kind == 1:
                adj[v] |= 1 << v
            elif kind == 2:
                adj[v] |= 1 << rng.randrange(n, 2 * n + 70)
            else:
                adj[v] = ~adj[v]
        yield n, rng.getrandbits(n), tuple(adj)


def test_constructor_matches_rowwise_oracle():
    # the transposed-matrix check must accept and reject exactly what the
    # row-by-row walk it replaced does, naming the same row
    seen = {"accepted": 0, "rejected": 0}
    for n, colors, adj in _row_check_cases():
        got = _constructor_verdict(n, colors, adj)
        assert got == rowwise_graph_check(n, colors, adj), (n, adj)
        seen["accepted" if got is None else "rejected"] += 1
    assert min(seen.values()) > 2_000


def test_row_check_oracle_catches_a_transpose_cut_short(monkeypatch):
    # a transpose that skips its last (single-cell) swap must break the
    # equality the check above asserts
    masks = bwgraph._transpose_masks
    monkeypatch.setattr(bwgraph, "_transpose_masks", lambda w: (masks(w)[0][:-1], masks(w)[1]))
    assert any(
        _constructor_verdict(*case) != rowwise_graph_check(*case) for case in _row_check_cases()
    )


def test_transpose_masks_match_cellwise_oracle():
    # the masks are tiled by doubling; the oracle sets one cell at a time; both
    # are compared in hex, since a failure's repr of an int past 4,300 decimal
    # digits (w = 128 masks have 16,384 bits) would raise instead of showing it
    def shown(masks):
        swaps, diagonal = masks
        return [(shift, hex(mask)) for shift, mask in swaps], hex(diagonal)

    for k in range(8):
        assert shown(bwgraph._transpose_masks(1 << k)) == shown(cellwise_transpose_masks(1 << k))


def test_transpose_masks_past_width_1024_are_not_kept():
    # the masks for w <= 1024 (about 1.8 MB for all) stay for the process; the
    # check of a 1,100-vertex graph (w = 2048) builds its 11 masks, 6 MB in all,
    # one swap at a time, and none is left after it (w = 16384 once kept 416 MB)
    # compared as bools, which a failure can show, unlike a 4,194,304-bit mask
    kept, wide = (bwgraph._transpose_masks(w) is bwgraph._transpose_masks(w) for w in (32, 2048))
    assert kept and not wide
    tracemalloc.start()
    try:
        BWGraph(1_100, 0, (0,) * 1_100)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000 and 1_000_000 < peak < 4_000_000, (held, peak)


def test_constructor_checks_an_8001_vertex_overlap_graph_in_a_fresh_process():
    # the matrix is packed with one to_bytes per row, so the check stays
    # linear in the matrix size; a fresh process also builds the transpose
    # masks for w = 8192, and a one-sided edge must still be named
    script = textwrap.dedent("""
        import sys
        from pressgame.bwgraph import BWGraph
        from pressgame.permrev import SignedPermutation, build_dr, build_overlap
        g = build_overlap(build_dr(SignedPermutation(tuple(map(int, sys.stdin.read().split())))))
        assert BWGraph(g.n, g.colors, g.adj) == g
        adj = list(g.adj)
        adj[4321] |= 1 << next(u for u in range(4322, g.n) if not adj[4321] >> u & 1)
        try:
            BWGraph(g.n, g.colors, tuple(adj))
        except ValueError as e:
            print(g.n, e)
    """)
    perm = random_signed_permutation(random.Random(8000), 8000)
    done = subprocess.run(
        [sys.executable, "-c", script], input=" ".join(map(str, perm)), capture_output=True,
        text=True, timeout=20, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "8001 adjacency row 4321 is not symmetric and irreflexive\n"


def test_from_parts_equals_checked_constructor():
    # from_parts skips the constructor's row check; it must build the same
    # value the checked constructor accepts, edge order and repeats aside
    for g in all_graphs_upto(4):
        edges = g.edges()
        for parts in (edges, [(v, u) for u, v in reversed(edges)] + edges):
            h = BWGraph.from_parts(g.color_string(), parts)
            assert h == g == BWGraph(h.n, h.colors, h.adj)


def test_from_parts_errors():
    with pytest.raises(IndexOutOfRangeError, match=r"^edge \(0,2\) outside 0\.\.1$"):
        BWGraph.from_parts("BB", [(0, 2)])
    with pytest.raises(IndexOutOfRangeError, match=r"^edge \(-1,0\) outside 0\.\.1$"):
        BWGraph.from_parts("BB", [(-1, 0)])
    with pytest.raises(IndexOutOfRangeError,
                       match=r"^edge \(0,1\) outside a graph with no vertices$"):
        BWGraph.from_parts("", [(0, 1)])
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        BWGraph.from_parts("BW", [(1, 1)])
    with pytest.raises(ValueError, match="^bad color 'X' at index 1$"):
        BWGraph.from_parts("BX")


def test_only_caller_rows_and_overlap_rows_take_the_checked_constructor(monkeypatch):
    # sweep colourings and parsed text have rows valid by construction and
    # skip __post_init__; build_overlap's rows take the check
    calls, check = [], BWGraph.__post_init__
    monkeypatch.setattr(BWGraph, "__post_init__", lambda g: calls.append(g.n) or check(g))
    verify_general_family(4)
    verify_linear_family(7)
    assert parse_graph("3\nBWB\n0 1\n1 2\n") == linear_graph("BWB")
    assert parse_graph("0\n") == BWGraph.from_parts("")
    assert calls == []
    build_overlap(build_dr(SignedPermutation((4, -1, -6, 3, 2, 5))))
    assert calls == [7]


def test_pressed_vertex_stays_isolated_white():
    # monotonicity: once pressed, a vertex never reappears in play
    for g in all_graphs(3):
        for v in g.black_vertices():
            stack = [press(g, v)]
            seen = set()
            while stack:
                h = stack.pop()
                if h in seen:
                    continue
                seen.add(h)
                assert not h.is_black(v)
                assert h.adj[v] == 0
                stack.extend(press(h, u) for u in h.black_vertices())


def test_linear_self_reducibility():
    # pressing a linear graph leaves linear pieces plus the isolated vertex
    for n in range(1, 7):
        for colors in itertools.product("BW", repeat=n):
            g = linear_graph("".join(colors))
            for v in g.black_vertices():
                out = press(g, v)
                assert out.adj[v] == 0
                rest = [u for u in range(n) if u != v]
                degs = sorted(out.adj[u].bit_count() for u in rest)
                # a disjoint union of paths: degrees at most 2, and edge
                # count equals vertex count minus component count
                assert all(d <= 2 for d in degs)
                comps = union_find_components(out.n, out.edges())
                for comp in comps:
                    size = len(comp)
                    inner = sum(
                        1 for u, w in out.edges() if u in comp and w in comp
                    )
                    assert inner == size - 1  # tree + max-degree-2 = path


def test_classify_components_matches_union_find():
    count = 0
    for g in all_graphs_upto(5):
        want = tuple(
            sum(1 << v for v in comp)
            for comp in union_find_components(g.n, g.edges())
            if len(comp) > 1
        )
        assert tuple(classify_components(g)) == want
        assert is_solvable(g) == union_find_solvable(g)
        count += 1
    assert count == 33_866


def test_is_solvable_matches_union_find_rule_on_greedy_press_states():
    # the reversal_sort bench family: seed 3, 128 hurdle-free n = 31 inputs,
    # which are its first 128 draws (a bounded loop, so a broken build_dr
    # fails here rather than drawing forever); at each state of the greedy
    # solve, every black press is checked and the lowest solvable one must be
    # the greedy step
    rng = random.Random(3)
    states = 0
    solved = 0
    for _ in range(128):
        order = list(range(1, 32))
        rng.shuffle(order)
        p = SignedPermutation(tuple(m if rng.random() < 0.5 else -m for m in order))
        h = build_overlap(build_dr(p))
        ok = is_solvable(h)
        assert ok == union_find_solvable(h)
        if not ok:
            continue
        solved += 1
        for step in greedy_solve(h):
            safe = []
            for v in h.black_vertices():
                nxt = press(h, v)
                states += 1
                ok = is_solvable(nxt)
                assert ok == union_find_solvable(nxt)
                if ok:
                    safe.append(v)
            assert safe[0] == step
            h = press(h, step)
        assert is_all_white_empty(h)
    assert solved == 128
    assert states == 32_752


def test_graph_text_round_trip():
    for g in all_graphs(3):
        assert parse_graph(format_graph(g)) == g
    g0 = BWGraph(0, 0, ())
    assert parse_graph(format_graph(g0)) == g0


def test_parse_graph_accepts_lowercase():
    g = parse_graph("3\nwbw\n0 1\n1 2\n")
    assert g == linear_graph("WBW")


def test_parse_graph_errors():
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError):
        parse_graph("x\n")
    with pytest.raises(GraphParseError):
        parse_graph("2\nBWB\n")
    with pytest.raises(SelfLoopError) as exc:
        parse_graph("3\nWBW\n0 0\n")
    assert exc.value.line == 3
    for text, line, msg in [
        ("3\nWBW\n0 1\n1 0\n", 4, "line 4: duplicate edge 1 0"),
        ("3\nWBW\n1 2\n0 1\n0 1\n", 5, "line 5: duplicate edge 0 1"),
    ]:
        with pytest.raises(DuplicateEdgeError) as exc:
            parse_graph(text)
        assert exc.value.line == line and str(exc.value) == msg
    with pytest.raises(GraphParseError):
        parse_graph("2\nBB\n0 5\n")
    for text, line, msg in [
        ("-1", 1, "vertex count must be non-negative"),
        ("0\nB", 2, "unexpected content 'B' in empty graph"),
        ("3", 2, "missing color line"),
        ("3\nBXW", 2, "bad color 'X' at index 1"),
        ("3\nBWB\n0 1 2", 3, "expected `u v`, got '0 1 2'"),
        ("3\nBWB\n0 x", 3, "non-integer endpoint in '0 x'"),
    ]:
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line and str(exc.value) == f"line {line}: {msg}"


def test_graph_to_dot_mentions_all_vertices_and_edges():
    dot = graph_to_dot(linear_graph("WB"))
    assert '0 [fillcolor="white"]' in dot
    assert '1 [fillcolor="black"' in dot
    assert "0 -- 1;" in dot
