"""Metagraphs over successful pressing paths and connectivity sweeps.

The metagraph of a path set has one vertex per successful path and an edge
between two paths when their longest common subsequence is at most k below
the common length; build_metagraph returns its edges as sorted index pairs
into the path set's paths.  Sweeps check connectivity of that graph across
whole graph families: all linear graphs up to n_max at threshold 2, and all
labeled graphs up to n_max at threshold 4.  Instances come by n, then
edge list (labeled graphs: ascending edge mask over combinations(range(n),
2)), then colour mask ascending, bit v set meaning vertex v is black.
Within each n a sweep verifies one instance per coloured isomorphism class,
and keeps per edge set its all-white graph and, per colour mask, the class
tail (path_count, min_threshold), or () when unsolvable: no other member
builds a graph or a row.  That is exact: a relabelling maps the successful
paths one to one and keeps every LCS, so path count, min_threshold and
solvability are class invariants.  Class keys come from the path's reversal
or the S_n orbits of edge masks, each image a sum of itertools.compress over
a permutation's image bits.  Failing members are verified again after the
sweep, for witnesses in their own labels, when those hold at most _EDGE_CAP paths.

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
from itertools import combinations, compress, permutations, product
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .bwgraph import BWGraph, _unchecked
from .errors import EmptyPathSetError, UnsolvableError
from .paths import DEFAULT_CAP, PathSet, PressingPath, enumerate_successful, format_path

_EDGE_CAP = 10 * DEFAULT_CAP  # most build_metagraph keys or pairs, most witness paths of a sweep


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
    """members: per edge set in sweep order, its all-white graph g and tails."""

    family: str
    threshold: int
    members: tuple[tuple[BWGraph, tuple[tuple[int, ...], ...]], ...]
    failures: tuple[Verified, ...]

    @property
    def stats(self) -> tuple[InstanceStats, ...]:
        return tuple(InstanceStats(g.n, colors, g.adj, *tail) for g, tails in self.members
                     for colors, tail in enumerate(tails) if tail)

    @property
    def instances_checked(self) -> int:
        return sum(len(tails) - tails.count(()) for _, tails in self.members)

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
    c, shared only by isomorphic coloured graphs.  Each class is verified
    once per n (exact, see the module docstring) on a graph with the rows of
    the edge set's from_parts graph, and seen keeps its tail.  Each failing
    member is verified once more after the sweep, for a witness in its own
    labels, unless the failing tails' path counts sum past _EDGE_CAP: then
    ValueError, before any witness is built.  No CapExceededError is caught:
    the callers' n bounds keep every instance under the default cap."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    members = []
    for n in range(1, n_max + 1):
        seen: dict = {}  # class key -> (path_count, min_threshold), or () (unsolvable)
        for edges, classes in topologies(n):
            g = BWGraph.from_parts("W" * n, edges)
            for colors, key in enumerate(classes):
                if key not in seen:
                    try:
                        row = verify_instance(_unchecked(n, colors, g.adj), threshold).stats
                        seen[key] = row.path_count, row.min_threshold
                    except UnsolvableError:
                        seen[key] = ()
            members.append((g, tuple(map(seen.__getitem__, classes))))
    paths = sum(tail[0] for _, tails in members for tail in tails if tail and tail[1] > threshold)
    if paths > _EDGE_CAP:
        raise ValueError(f"the failures hold {paths} witness paths, more than {_EDGE_CAP}")
    return SweepReport(
        family=f"{label}, n <= {n_max}",
        threshold=threshold,
        members=tuple(members),
        failures=tuple(verify_instance(_unchecked(g.n, colors, g.adj), threshold)
                       for g, tails in members for colors, tail in enumerate(tails)
                       if tail and tail[1] > threshold) if paths else (),
    )


def _edge_sets(n: int):
    """Every edge set on vertices 0..n-1, in ascending edge-mask order, with
    the class keys of its colour masks.  A mask in no S_n orbit mapped so far
    is the least mask R of its own, whose orbit is mapped then: an image U = p(R)
    keeps the colour map of p's inverse, pulling a colouring of U back onto R,
    and the key of (U, c) is R with the least image of that pullback under R's automorphisms."""
    pairs = list(combinations(range(n), 2))
    bit = {pair: 1 << b for b, pair in enumerate(pairs)}
    perms = list(permutations(range(n)))
    edge_bits = [[bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs] for p in perms]
    pulls = [[1 << u for u in sorted(range(n), key=p.__getitem__)] for p in perms]  # p(u) -> u
    colourings = [[c >> v & 1 for v in range(n)] for c in range(1 << n)]
    color_maps = [[sum(compress(pull, c)) for c in colourings] for pull in pulls]
    orbit: dict[int, tuple[int, list[int]]] = {}  # mask not yet yielded -> (R, colour map onto R)
    canon: dict[int, list[tuple[int, int]]] = {}  # R -> class key of each colour mask of R
    for mask, low_first in enumerate(t[::-1] for t in product((0, 1), repeat=len(pairs))):
        if mask not in orbit:
            autos = []
            for bits, color_map in zip(edge_bits, color_maps):
                image = sum(compress(bits, low_first))
                if image == mask:
                    autos.append(color_map)
                orbit.setdefault(image, (mask, color_map))
            canon[mask] = [(mask, v) for v in map(min, zip(*autos))]
        rep, color_map = orbit.pop(mask)
        yield list(compress(pairs, low_first)), list(map(canon[rep].__getitem__, color_map))


def _path(n: int):
    """The path 0-1-...-(n-1), with the class key min(c, c reversed) of each
    colour mask c: the reversal is the path's one nontrivial automorphism."""
    flips = [int(f"{c:0{n}b}"[::-1], 2) for c in range(1 << n)]
    yield [(i, i + 1) for i in range(n - 1)], [min(c, r) for c, r in enumerate(flips)]


def verify_linear_family(n_max: int, threshold: int = 2) -> SweepReport:
    """Connectivity of every solvable linear graph's metagraph up to n_max.
    n_max above 11 is rejected before any graph is built: n = 12 has linear
    graphs of up to 1,760,000 successful paths, which would pass the
    enumeration cap, after the minutes that n <= 11 takes.  Failures whose
    witnesses hold more than _EDGE_CAP paths are refused (see _sweep)."""
    if n_max > 11:
        raise ValueError("n_max must be at most 11: n = 12 has linear graphs "
                         "of up to 1,760,000 successful paths")
    return _sweep("linear graphs", _path, n_max, threshold)


def verify_general_family(n_max: int, threshold: int = 4) -> SweepReport:
    """Connectivity over all labeled graphs (every topology and coloring).
    n_max above 6 is rejected before any graph is built: n = 7 alone has
    2^21 edge sets x 128 colourings, about 2.7e8 members, which no cap bounds.
    Up to n = 6 a path presses each vertex at most once, so no graph has
    more than 6! = 720 paths, far under the enumeration cap.  At threshold 1 or 0
    the n = 6 failures hold over _EDGE_CAP witness paths, so _sweep refuses them."""
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
