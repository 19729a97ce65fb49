"""LCS gate, metagraph connectivity, and the family sweeps."""

import pytest

from pressgame.bwgraph import BWGraph, is_solvable, linear_graph
from pressgame.errors import EmptyPathSetError
from pressgame.meta import (
    build_metagraph,
    connectivity,
    metagraph_to_dot,
    verify_general_family,
    verify_instance,
    verify_linear_family,
)
from pressgame.paths import PathSet, enumerate_successful

from gen import all_graphs_upto
from oracles import (
    labeled_family,
    lcs_distinct,
    linear_family,
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


def test_connectivity_examples():
    single = enumerate_successful(linear_graph("B"))
    assert connectivity(single, 0) == (0, ((0,),))
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


def test_verify_instance_examples():
    assert verify_instance(linear_graph("BBB"), 4)[0].connected
    triangle = BWGraph.from_parts("BBB", [(0, 1), (1, 2), (0, 2)])
    row, ps, components = verify_instance(triangle, 4)
    assert row.connected and row.path_count == 3 == len(ps.paths)
    assert components == ((0, 1, 2),)
    assert verify_instance(linear_graph("B"), 0)[0].connected


def test_verify_linear_family_small():
    r = verify_linear_family(1)
    assert (r.verdict, r.instances_checked) == ("PASS", 2)

    r = verify_linear_family(3)
    assert (r.verdict, r.instances_checked) == ("PASS", 12)
    assert not r.failures and not r.incomplete
    # stronger form of the linear result: threshold 2 is never needed twice over
    assert all(row.min_threshold <= 2 for row in r.stats)


def test_verify_linear_family_is_deterministic():
    assert verify_linear_family(3) == verify_linear_family(3)


def test_cap_marks_sweep_incomplete_not_failed():
    r = verify_linear_family(2, cap=1)
    assert r.verdict == "INCOMPLETE"
    assert [g.color_string() for g, _ in r.incomplete] == ["BB"]
    assert r.incomplete[0][1] == 2
    assert r.instances_checked == 4 and not r.failures


def test_sweep_order_matches_the_color_string_families():
    # instances come by n, then edge list, then colour mask ascending,
    # exactly the order of the families built from colour strings
    def solvable(graphs):
        return [g for g in graphs if is_solvable(g)]

    general = [row.graph for row in verify_general_family(4).stats]
    assert general == solvable(labeled_family(4))
    linear = [row.graph for row in verify_linear_family(7).stats]
    assert len(linear) == 248
    assert linear == solvable(linear_family(7))
    capped = verify_linear_family(3, cap=1).incomplete
    assert [g for g, _ in capped] == [
        g for g in solvable(linear_family(3)) if len(enumerate_successful(g).paths) > 1
    ]


def test_verify_general_family_small():
    r = verify_general_family(3)
    assert r.verdict == "PASS"
    assert not r.failures
    assert all(row.connected for row in r.stats)


def test_metagraph_to_dot_layout():
    ps = enumerate_successful(linear_graph("WBW"))
    assert metagraph_to_dot(ps, build_metagraph(ps, 2)) == (
        "graph M {\n"
        '  p0 [label="1 0"];\n'
        '  p1 [label="1 2"];\n'
        "  p0 -- p1;\n"
        "}\n"
    )
