"""Graph and permutation families, and small helpers, shared by the test modules."""

from __future__ import annotations

import itertools
import random

from pressgame.bwgraph import BWGraph
from pressgame.permrev import build_dr, build_overlap


def edge_pairs(n):
    return list(itertools.combinations(range(n), 2))


def color_strings(n: int):
    # mask bit i set = vertex i black; ascending mask order fixes the
    # instance order of sweep reports
    for mask in range(1 << n):
        yield "".join("B" if mask >> i & 1 else "W" for i in range(n))


def labeled_edge_lists(n: int):
    # ascending edge mask over edge_pairs(n)
    pairs = edge_pairs(n)
    for edge_mask in range(1 << len(pairs)):
        yield [pairs[b] for b in range(len(pairs)) if edge_mask >> b & 1]


def linear_edge_lists(n: int):
    yield [(i, i + 1) for i in range(n - 1)]


def all_graphs(n, edge_lists=labeled_edge_lists):
    """Every black-and-white graph on n vertices whose edge list is in
    edge_lists(n), in sweep order: edge lists as given, then colour masks
    ascending.  The rows go through the checked constructor, a route apart
    from from_parts and parse_graph, which tests compare against these graphs."""
    for edges in edge_lists(n):
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        adj = tuple(adj)
        for color_mask in range(1 << n):
            yield BWGraph(n, color_mask, adj)


def all_graphs_upto(n_max, edge_lists=labeled_edge_lists):
    for n in range(1, n_max + 1):
        yield from all_graphs(n, edge_lists)


def linear_family(n_max: int):
    return all_graphs_upto(n_max, linear_edge_lists)


def random_graph(rng: random.Random, n: int) -> BWGraph:
    pairs = edge_pairs(n)
    edges = [p for p in pairs if rng.random() < 0.5]
    colors = "".join(rng.choice("BW") for _ in range(n))
    return BWGraph.from_parts(colors, edges)


def random_signed_permutation(rng: random.Random, n: int):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return tuple(m if rng.random() < 0.5 else -m for m in order)


def overlap_of(p):
    return build_overlap(build_dr(p))
