"""LCS gate, metagraph connectivity, and the family sweeps."""

import math

import pytest

from pressgame import meta, paths
from pressgame.bwgraph import BWGraph, _unchecked, is_solvable, linear_graph
from pressgame.errors import EmptyPathSetError
from pressgame.meta import (
    build_metagraph,
    connectivity,
    metagraph_to_dot,
    verify_general_family,
    verify_instance,
    verify_linear_family,
)
from pressgame.paths import DEFAULT_CAP, PathSet, enumerate_successful

from gen import all_graphs_upto, color_strings, labeled_edge_lists, linear_edge_lists, linear_family
from oracles import (
    bucket_gate,
    canonical_form,
    instance_sweep,
    lcs_distinct,
    orbit_edge_sets,
    pairwise_lcs_gate,
    recursive_lcs,
    union_find_components,
)


def lcs(a, b):
    return lcs_distinct(a, {v: i for i, v in enumerate(b)})


def test_lcs_length_examples():
    assert lcs((0, 2, 1), (0, 2, 1)) == 3
    assert lcs((), (0, 2, 1)) == 0
    assert lcs((0, 2, 1), (2, 0, 1)) == 2  # witnesses 01 and 21


def test_lcs_length_matches_recursive_definition():
    # pressing paths never repeat a vertex, the case lcs_distinct relies on
    seqs = [
        (),
        (0,),
        (1, 0),
        (0, 2, 1),
        (2, 0, 1),
        (0, 1, 2, 3),
        (3, 1, 0, 2),
        (4, 1, 3, 0),
        (2, 4, 0, 3, 1),
    ]
    for a in seqs:
        for b in seqs:
            assert lcs(a, b) == recursive_lcs(a, b)
            assert lcs(a, b) == lcs(b, a)


def test_build_metagraph_examples():
    wbw = enumerate_successful(linear_graph("WBW"))
    assert len(wbw.paths) == 2
    assert build_metagraph(wbw, 2) == ((0, 1),)  # lcs 1 >= 2 - 2

    bbb = enumerate_successful(linear_graph("BBB"))
    assert build_metagraph(bbb, 2) == ((0, 1),)  # lcs 2 >= 3 - 2


def test_gate_at_common_length_is_complete():
    for g in all_graphs_upto(4):
        if not is_solvable(g):
            continue
        ps = enumerate_successful(g)
        p = len(ps.paths)
        assert len(build_metagraph(ps, ps.common_length)) == p * (p - 1) // 2


def test_build_metagraph_is_bounded_by_the_edge_cap(monkeypatch):
    # linear:BWBWBWBW at threshold 2: 441 paths x C(8, 6) = 12,348 keys, whose
    # groups give 43,143 candidate pairs and 13,320 distinct edges
    ps = enumerate_successful(linear_graph("BWBWBWBW"))
    edges = build_metagraph(ps, 2)
    monkeypatch.setattr(meta, "_EDGE_CAP", 43_143)
    assert build_metagraph(ps, 2) == edges and len(edges) == 13_320
    monkeypatch.setattr(meta, "_EDGE_CAP", 43_142)
    with pytest.raises(ValueError, match="^threshold 2 gives more than 43142 candidate "
                                         "metagraph edges$"):
        build_metagraph(ps, 2)
    monkeypatch.setattr(meta, "_EDGE_CAP", 12_347)
    with pytest.raises(ValueError, match="^threshold 2 needs more than 12347 subsequence keys$"):
        build_metagraph(ps, 2)


def test_empty_path_set_rejected():
    g = linear_graph("WBW")
    empty = PathSet(graph=g, paths=(), common_length=0)
    with pytest.raises(EmptyPathSetError):
        build_metagraph(empty, 2)
    with pytest.raises(EmptyPathSetError):
        connectivity(empty, 2)


def test_negative_threshold_rejected():
    ps = enumerate_successful(linear_graph("WBW"))
    with pytest.raises(ValueError, match="non-negative"):
        build_metagraph(ps, -1)
    with pytest.raises(ValueError, match="non-negative"):
        connectivity(ps, -1)
    # before any path is enumerated: this graph is over the path cap
    with pytest.raises(ValueError, match="threshold must be non-negative"):
        verify_instance(linear_graph("BWBWBWBWBWBWBW"), -1)


def test_connectivity_examples():
    single = enumerate_successful(linear_graph("B"))
    assert connectivity(single, 0) == connectivity(single, 3) == (0, ((0,),))
    assert connectivity(enumerate_successful(linear_graph("WBW")), 2) == (1, ((0, 1),))
    # two disjoint paths: lcs 0 < 3 - 2, no edge until the gate is 3
    g = BWGraph.from_parts("WWWWWW")
    far = PathSet(graph=g, paths=((0, 1, 2), (3, 4, 5)), common_length=3)
    assert build_metagraph(far, 2) == ()
    assert connectivity(far, 2) == (3, ((0,), (1,)))
    assert connectivity(far, 3) == (3, ((0, 1),))


def test_min_connect_threshold_examples():
    for colors, kmin in (("B", 0), ("BBB", 1), ("WBW", 1)):
        assert connectivity(enumerate_successful(linear_graph(colors)), 0)[0] == kmin


# The general threshold 4 is tight at n = 6: this graph has only the paths
# 4 2 1 0 5 3 and 5 3 1 0 4 2, whose LCS is 2, so they first connect at 6 - 2.
N6_WITNESS = BWGraph.from_parts("WWWWBB", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5)])


def test_n6_witness_needs_threshold_4():
    ps = enumerate_successful(N6_WITNESS)
    assert ps.paths == ((4, 2, 1, 0, 5, 3), (5, 3, 1, 0, 4, 2))
    assert connectivity(ps, 3) == (4, ((0,), (1,)))
    assert connectivity(ps, 4) == (4, ((0, 1),))
    assert connectivity(ps, 3) == pairwise_lcs_gate(ps, 3)


def test_gate_edges_match_pairwise_lcs():
    for g in all_graphs_upto(4):
        if not is_solvable(g):
            continue
        ps = enumerate_successful(g)
        for k in (0, 1, 2, ps.common_length):
            expected = tuple(
                (i, j)
                for i in range(len(ps.paths))
                for j in range(i + 1, len(ps.paths))
                if recursive_lcs(ps.paths[i], ps.paths[j]) >= ps.common_length - k
            )
            assert build_metagraph(ps, k) == expected


def test_min_threshold_is_the_first_connected_gate():
    for g in all_graphs_upto(4):
        if not is_solvable(g):
            continue
        ps = enumerate_successful(g)
        gates = [connectivity(ps, k) for k in range(ps.common_length + 1)]
        kmin = gates[0][0]
        assert kmin <= ps.common_length
        assert all(kmin_at_k == kmin for kmin_at_k, _ in gates)
        # monotone in k, and kmin is the first connected gate
        connected = [len(components) == 1 for _, components in gates]
        assert connected == [k >= kmin for k in range(ps.common_length + 1)]
        for k, (_, components) in enumerate(gates):
            edges = build_metagraph(ps, k)
            assert list(components) == union_find_components(len(ps.paths), edges)


def test_connectivity_matches_pairwise_lcs_gate():
    for g in all_graphs_upto(4):
        if not is_solvable(g):
            continue
        ps = enumerate_successful(g)
        for k in range(ps.common_length + 1):
            assert connectivity(ps, k) == pairwise_lcs_gate(ps, k)
    checked = 0
    for g in linear_family(7):  # the linear sweep family at its threshold
        if not is_solvable(g):
            continue
        ps = enumerate_successful(g)
        assert connectivity(ps, 2) == pairwise_lcs_gate(ps, 2)
        checked += 1
    assert checked == 248


def _gate_cases():
    """(path set, k) over every solvable labeled graph with n <= 5 at
    k = 0..4, then every solvable linear graph with n <= 8 at k = 0..3."""
    for family, ks in ((all_graphs_upto(5), range(5)), (linear_family(8), range(4))):
        for g in family:
            if is_solvable(g):
                ps = enumerate_successful(g)
                yield from ((ps, k) for k in ks)


@pytest.mark.slow
def test_connectivity_matches_bucket_gate():
    checked = 0
    for ps, k in _gate_cases():
        assert connectivity(ps, k) == bucket_gate(ps, k)
        checked += 1
    assert checked == 31742 * 5 + 503 * 4


def test_bucket_gate_check_catches_a_pass_cut_short(monkeypatch):
    # keying each pass by its first kept-position set only must break the
    # equality the check above asserts
    kept_positions = meta._kept_positions
    monkeypatch.setattr(meta, "_kept_positions", lambda length, d: kept_positions(length, d)[:1])
    assert any(connectivity(ps, k) != bucket_gate(ps, k) for ps, k in _gate_cases())


def test_kept_positions_put_close_drops_first():
    assert meta._kept_positions(3, 1) == ((0, 1), (0, 2), (1, 2))
    # dropped {2, 3}, {1, 2}, {0, 1} (spread 1), then {1, 3}, {0, 2}, then {0, 3}
    assert meta._kept_positions(4, 2) == ((0, 1), (0, 3), (2, 3), (0, 2), (1, 3), (1, 2))
    assert meta._kept_positions(2, 2) == ((),)


def test_verify_instance_examples():
    # a row is connected at threshold k exactly when k >= min_threshold
    assert verify_instance(linear_graph("BBB"), 4).stats.min_threshold <= 4
    triangle = BWGraph.from_parts("BBB", [(0, 1), (1, 2), (0, 2)])
    row, ps, components = verify_instance(triangle, 4)
    assert row.min_threshold <= 4 and row.path_count == 3 == len(ps.paths)
    assert components == ((0, 1, 2),)
    assert verify_instance(linear_graph("B"), 0).stats.min_threshold == 0


def test_verify_linear_family_small():
    r = verify_linear_family(1)
    assert (r.verdict, r.instances_checked) == ("PASS", 2)

    r = verify_linear_family(3)
    assert (r.verdict, r.instances_checked) == ("PASS", 12)
    assert not r.failures
    # stronger form of the linear result: threshold 2 is never needed twice over
    assert all(row.min_threshold <= 2 for row in r.stats)


def test_verify_linear_family_is_deterministic():
    assert verify_linear_family(3) == verify_linear_family(3)


@pytest.mark.slow
def test_the_n_bounds_keep_every_sweep_instance_under_the_cap():
    # the sweeps catch no CapExceededError: their n bounds are their cap.
    # A pressed vertex is left white and isolated, so a path presses each
    # vertex at most once, and a graph on n <= 6 vertices has at most 6! paths
    assert math.factorial(6) <= DEFAULT_CAP
    # every solvable linear colouring up to n = 11, counted past the cap
    most, worst = 0, None
    for g in linear_family(11):
        if is_solvable(g):
            count = paths._count(g.colors, g.adj, 2 * DEFAULT_CAP, {})[0]
            if count > most:
                most, worst = count, g.color_string()
    assert (most, worst) == (259_200, "B" * 11) and most <= DEFAULT_CAP
    # the n = 12 colouring verify_linear_family's n bound names
    g = linear_graph("BBBBBBBBBBWB")
    assert paths._count(g.colors, g.adj, 2 * DEFAULT_CAP, {})[0] == 1_760_000


def test_sweep_order_matches_the_color_string_families():
    # instances come by n, then edge list, then colour mask ascending,
    # exactly the order of the test families
    def solvable(graphs):
        return [g for g in graphs if is_solvable(g)]

    general = [row.graph for row in verify_general_family(4).stats]
    assert general == solvable(all_graphs_upto(4))
    linear = [row.graph for row in verify_linear_family(7).stats]
    assert len(linear) == 248
    assert linear == solvable(linear_family(7))


def test_verify_general_family_small():
    r = verify_general_family(3)
    assert r.verdict == "PASS"
    assert not r.failures
    assert all(row.min_threshold <= 4 for row in r.stats)


def test_sweep_failures_are_the_rows_above_the_threshold():
    # a sweep keeps no connected flag: its failures are exactly the rows
    # whose min_threshold exceeds the sweep's threshold, each the record
    # verify_instance returns for that row's graph
    r = verify_linear_family(5, threshold=1)
    above = [row for row in r.stats if row.min_threshold > 1]
    assert [f.stats for f in r.failures] == above and len(above) == 19
    assert r.failures == tuple(verify_instance(row.graph, 1) for row in above)
    assert all(len(f.components) > 1 for f in r.failures)


def test_class_sweep_matches_the_instance_sweep():
    # each coloured isomorphism class is verified once, and every member's
    # row and failure witness must equal its own verification
    cases = [(verify_general_family, "all labeled graphs", labeled_edge_lists, 4, k)
             for k in range(5)]
    cases += [(verify_linear_family, "linear graphs", linear_edge_lists, 8, k)
              for k in range(4)]
    failures = 0
    for sweep, label, edge_lists, n_max, k in cases:
        report = sweep(n_max, k)
        assert report == instance_sweep(label, edge_lists, n_max, k)
        failures += len(report.failures)
    assert failures  # failure witnesses were compared


def _instances(topologies, n):
    """(class key, canonical form) of every coloured graph topologies(n) holds."""
    for edges, classes in topologies(n):
        for colors, key in zip(color_strings(n), classes, strict=True):
            yield key, canonical_form(BWGraph.from_parts(colors, edges))


def test_class_keys_are_the_isomorphism_classes():
    for topologies, n_max in ((meta._edge_sets, 4), (meta._path, 8)):
        for n in range(1, n_max + 1):
            pairs = set(_instances(topologies, n))
            keys = {key for key, _ in pairs}
            forms = {form for _, form in pairs}
            assert len(pairs) == len(keys) == len(forms)


def test_class_key_counts_are_the_coloured_graph_counts():
    # coloured graphs on n vertices (OEIS A000666) and graphs (A000088)
    for n, classes, graphs in ((1, 2, 1), (2, 6, 2), (3, 20, 4), (4, 90, 11), (5, 544, 34),
                               (6, 5_096, 156)):
        keys = {key for _, keys in meta._edge_sets(n) for key in keys}
        assert (len(keys), len({rep for rep, _ in keys})) == (classes, graphs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_edge_sets_match_the_bitwise_orbit_oracle(n):
    # the orbit images and colour maps summed from compress tables must give the
    # edge lists, class keys and order of the loop that tests each bit
    assert list(meta._edge_sets(n)) == list(orbit_edge_sets(n))


def test_sweeps_call_verify_instance_once_per_class(monkeypatch):
    # _sweep looks verify_instance up at each call, so a rebinding of it, as
    # the bench probe and tracer make, sees every verification; meta builds
    # every graph through _unchecked, so a rebinding of that sees every graph
    calls, graphs = [], []

    def counted(*args):
        calls.append(args)
        return verify_instance(*args)

    def built(*args):
        graphs.append(args)
        return _unchecked(*args)

    # a failing sweep verifies each failing row once more after the classes,
    # so that its witness is in its own labels: linear n <= 5 at threshold 1
    # has 41 classes and 19 failing rows, labeled n <= 4 118 and 141; a
    # graph is built only to be verified, not for each of the members'
    # rows (1,098, 254, 62 and 1,098)
    cases = (((verify_general_family, 4), 118), ((verify_linear_family, 7), 149),
             ((verify_linear_family, 5, 1), 41 + 19),
             ((verify_general_family, 4, 1), 118 + 141))
    monkeypatch.setattr(meta, "verify_instance", counted)
    monkeypatch.setattr(meta, "_unchecked", built)
    traced = []
    for (sweep, *args), expected in cases:
        calls.clear()
        graphs.clear()
        traced.append(sweep(*args))
        assert (len(calls), len(graphs)) == (expected, expected)
    monkeypatch.undo()
    assert traced == [sweep(*args) for (sweep, *args), _ in cases]


def test_metagraph_to_dot_layout():
    ps = enumerate_successful(linear_graph("WBW"))
    assert metagraph_to_dot(ps, build_metagraph(ps, 2)) == (
        "graph M {\n"
        '  p0 [label="1 0"];\n'
        '  p1 [label="1 2"];\n'
        "  p0 -- p1;\n"
        "}\n"
    )
