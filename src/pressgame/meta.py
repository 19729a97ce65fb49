"""Metagraphs over successful pressing paths and connectivity sweeps.

The metagraph of a path set has one vertex per successful path and an edge
between two paths when their longest common subsequence is at most k below
the common length; build_metagraph returns its edges as sorted index pairs
into the path set's paths.  Sweeps check connectivity of that graph across
whole graph families: all linear graphs up to n_max at threshold 2, and all
labeled graphs up to n_max at threshold 4.  Instances come by n, then
edge list (labeled graphs: ascending edge mask over combinations(range(n),
2)), then colour mask ascending, bit v set meaning vertex v is black.
Within each n a sweep verifies one instance per coloured isomorphism class.
Each member's row is its n, colour mask and adjacency rows plus its class's
path count and min_threshold, so no other member builds a graph or any
object but that tuple.  That is exact: a relabelling maps the successful
paths one to one and keeps every LCS, so path count, min_threshold and
solvability are class invariants.  Class keys come from the S_n orbits of
edge masks, or from the path's reversal.  The failing rows are verified
once more after the sweep, for witnesses in their own labels.

Edges are decided without comparing pairs.  Two paths of common length L
have an LCS of at least L - k exactly when they share a subsequence of
length L - k, so grouping path indices by each of their (L-k)-subsequences
puts every edge inside some group.  build_metagraph groups P paths by all
P * C(L, k) keys at once; connectivity keys them by one kept-position set
at a time and stops as soon as they connect, so its last pass rarely builds
all P * C(L, d).  All-pairs LCS would take P^2 / 2 LCS runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .bwgraph import BWGraph, _unchecked
from .errors import EmptyPathSetError, UnsolvableError
from .paths import DEFAULT_CAP, PathSet, PressingPath, enumerate_successful, format_path

_EDGE_CAP = 10 * DEFAULT_CAP  # most keys, and most candidate pairs, build_metagraph makes


def _check_gate(ps: PathSet, k: int) -> None:
    if not ps.paths:
        raise EmptyPathSetError("metagraph needs at least one path")
    if k < 0:
        raise ValueError("threshold must be non-negative")


def build_metagraph(ps: PathSet, k: int) -> tuple[tuple[int, int], ...]:
    """Sorted index pairs (i, j), i < j, of the paths of ps with
    lcs >= common_length - k (`at most k less`, inclusive).  ValueError, before
    any is built, when the P * C(L, k) keys or their groups' pairs pass _EDGE_CAP."""
    _check_gate(ps, k)
    # a path never repeats a vertex, so each group lists ascending indices once
    groups: dict[PressingPath, list[int]] = {}
    size = max(ps.common_length - k, 0)
    if len(ps.paths) * comb(ps.common_length, size) > _EDGE_CAP:
        raise ValueError(f"threshold {k} needs more than {_EDGE_CAP} subsequence keys")
    for i, p in enumerate(ps.paths):
        for key in combinations(p, size):
            groups.setdefault(key, []).append(i)
    buckets = [g for g in groups.values() if len(g) > 1]
    del groups  # free the P * C(L, k) keys and one-path groups before the pairs grow
    if sum(comb(len(g), 2) for g in buckets) > _EDGE_CAP:
        raise ValueError(f"threshold {k} gives more than {_EDGE_CAP} candidate metagraph edges")
    return tuple(sorted({pair for g in buckets for pair in combinations(g, 2)}))


@cache
def _kept_positions(length: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The ascending (length - d)-sets of positions, those whose d >= 1 dropped
    positions lie closest together first, ties in combinations order."""
    def spread(kept: tuple[int, ...]) -> int:
        dropped = [i for i in range(length) if i not in kept]
        return dropped[-1] - dropped[0]
    return tuple(sorted(combinations(range(length), length - d), key=spread))


def connectivity(ps: PathSet, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(min connecting threshold, metagraph components at threshold k).

    The edges at threshold d include those at d - 1, so passes d = 1, 2, ...
    (distinct paths share no full-length key) merge into one union-find.
    Pass d links each path to the pass's first path with the same key, one
    kept-position set at a time, and stops once one component is left: by
    d = common_length at the latest, where every path shares the key ().
    A single path is one component already, so no pass runs: (0, ((0,),)).
    """
    _check_gate(ps, k)
    size = len(ps.paths)
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    left = size
    at_k = (tuple(range(size)),)
    d = 0
    while left > 1:
        if d == k:
            groups: dict[int, list[int]] = {}
            for x in range(size):
                groups.setdefault(find(x), []).append(x)
            at_k = tuple(tuple(g) for g in sorted(groups.values()))
        d += 1
        first: dict = {}
        for kept in _kept_positions(ps.common_length, d):
            keys = map(itemgetter(*kept), ps.paths) if kept else [()] * size
            for i, j in enumerate(map(first.setdefault, keys, range(size))):
                if i != j and (ri := find(i)) != (rj := find(j)):
                    parent[ri] = rj
                    left -= 1
            if left == 1:
                break
    return d, at_k


class InstanceStats(NamedTuple):
    """Per-instance sweep record: one solved graph's fields and its metagraph
    facts; the graph property builds the graph each time it is read.  The
    metagraph is connected at threshold k exactly when k >= min_threshold."""

    n: int
    colors: int
    adj: tuple[int, ...]
    path_count: int
    min_threshold: int

    @property
    def graph(self) -> BWGraph:
        return _unchecked(self.n, self.colors, self.adj)


class Verified(NamedTuple):
    """One verify_instance result: stats row, path set and gate components."""

    stats: InstanceStats
    path_set: PathSet
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SweepReport:
    family: str
    threshold: int
    stats: tuple[InstanceStats, ...]
    failures: tuple[Verified, ...]

    @property
    def instances_checked(self) -> int:
        return len(self.stats)

    @property
    def verdict(self) -> str:
        return "FAIL" if self.failures else "PASS"


def verify_instance(g: BWGraph, k: int) -> Verified:
    """Enumerate one solvable graph and gate its metagraph at threshold k.

    Returns the stats row, the path set, and the metagraph components
    (a disconnection witness when there is more than one).  A negative k
    is rejected before any path is enumerated.
    """
    if k < 0:
        raise ValueError("threshold must be non-negative")
    ps = enumerate_successful(g)
    min_k, components = connectivity(ps, k)
    return Verified(InstanceStats(g.n, g.colors, g.adj, len(ps.paths), min_k), ps, components)


def _sweep(label: str, topologies, n_max: int, threshold: int) -> SweepReport:
    """Gate every solvable graph on 1..n_max vertices whose edge list is in
    topologies(n): by n, then edge list in order, then colour mask ascending
    (bit v set means vertex v is black).  verify_instance rejects k < 0.
    topologies(n) yields (edges, classes), classes[c] the key of colour mask
    c, shared only by isomorphic coloured graphs.  Colourings share their
    edge set's from_parts rows.  Each class is verified once per n (exact,
    see the module docstring) on a graph built as from_parts builds it, and
    seen keeps that stats row for its members' path_count and
    min_threshold.  Each failing row is verified once more after the sweep,
    for a witness in its own labels.  No cap is caught: the callers' n
    bounds keep every instance under the default cap, and a
    CapExceededError would end the sweep, loudly."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    stats: list[InstanceStats] = []
    for n in range(1, n_max + 1):
        seen: dict = {}  # class key -> its first member's stats row, or () (unsolvable)
        for edges, classes in topologies(n):
            adj = BWGraph.from_parts("W" * n, edges).adj
            for colors, key in enumerate(classes):
                hit = seen.get(key)
                if hit is None:
                    try:
                        hit = verify_instance(_unchecked(n, colors, adj), threshold).stats
                    except UnsolvableError:
                        hit = ()
                    seen[key] = hit
                if hit:
                    stats.append(InstanceStats(n, colors, adj, hit.path_count, hit.min_threshold))
    return SweepReport(
        family=f"{label}, n <= {n_max}",
        threshold=threshold,
        stats=tuple(stats),
        failures=tuple(verify_instance(row.graph, threshold)
                       for row in stats if row.min_threshold > threshold),
    )


def _edge_sets(n: int):
    """Every edge set on vertices 0..n-1, in ascending edge-mask order, with
    the class keys of its colour masks.  An S_n orbit of edge masks has its
    least mask R as representative; an image U = p(R) keeps the colour map of
    p's inverse, which pulls a colouring of U back onto R, and the key of
    (U, c) is R with the least image of that pullback under R's automorphisms."""
    pairs = list(combinations(range(n), 2))
    bit = {pair: b for b, pair in enumerate(pairs)}
    perms = list(permutations(range(n)))
    edge_maps = [[bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs] for p in perms]
    color_maps = [[sum(1 << u for u in range(n) if c >> p[u] & 1) for c in range(1 << n)]
                  for p in perms]
    orbit: dict[int, tuple[int, list[int]]] = {}  # mask -> (R, colour map onto R)
    canon: dict[int, list[int]] = {}  # R -> least automorphic image of each colour mask
    for rep in range(1 << len(pairs)):
        if rep in orbit:
            continue
        autos = []
        for edge_map, color_map in zip(edge_maps, color_maps):
            image = sum(1 << edge_map[b] for b in range(len(pairs)) if rep >> b & 1)
            if image == rep:
                autos.append(color_map)
            orbit.setdefault(image, (rep, color_map))
        canon[rep] = [min(a[c] for a in autos) for c in range(1 << n)]
    for mask in range(1 << len(pairs)):
        rep, color_map = orbit[mask]
        edges = [pair for b, pair in enumerate(pairs) if mask >> b & 1]
        yield edges, [(rep, canon[rep][color_map[c]]) for c in range(1 << n)]


def _path(n: int):
    """The path 0-1-...-(n-1), with the class key min(c, c reversed) of each
    colour mask c: the reversal is the path's one nontrivial automorphism."""
    flips = [int(f"{c:0{n}b}"[::-1], 2) for c in range(1 << n)]
    yield [(i, i + 1) for i in range(n - 1)], [min(c, r) for c, r in enumerate(flips)]


def verify_linear_family(n_max: int, threshold: int = 2) -> SweepReport:
    """Connectivity of every solvable linear graph's metagraph up to n_max.
    n_max above 11 is rejected before any graph is built: n = 12 has linear
    graphs of up to 1,760,000 successful paths, which would pass the
    enumeration cap, after the minutes that n <= 11 takes."""
    if n_max > 11:
        raise ValueError("n_max must be at most 11: n = 12 has linear graphs "
                         "of up to 1,760,000 successful paths")
    return _sweep("linear graphs", _path, n_max, threshold)


def verify_general_family(n_max: int, threshold: int = 4) -> SweepReport:
    """Connectivity over all labeled graphs (every topology and coloring).
    n_max above 6 is rejected before any graph is built: n = 7 alone has
    2^21 edge sets x 128 colourings, about 2.7e8 members, which no cap bounds.
    Up to n = 6 a path presses each vertex at most once, so no graph has
    more than 6! = 720 paths, far under the enumeration cap."""
    if n_max > 6:
        raise ValueError("n_max must be at most 6: n = 7 has 2^21 edge sets x 128 colourings")
    return _sweep("all labeled graphs", _edge_sets, n_max, threshold)


def metagraph_to_dot(ps: PathSet, edges: tuple[tuple[int, int], ...]) -> str:
    """DOT graph M over the paths of ps, labeled by their path strings, with
    the index pairs edges (as build_metagraph returns them)."""
    lines = ["graph M {"]
    for idx, p in enumerate(ps.paths):
        lines.append(f'  p{idx} [label="{format_path(p)}"];')
    lines.extend(f"  p{i} -- p{j};" for i, j in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
