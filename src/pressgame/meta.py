"""Metagraphs over successful pressing paths and connectivity sweeps.

The metagraph of a path set has one vertex per successful path and an edge
between two paths when their longest common subsequence is at most k below
the common length.  Sweeps check connectivity of that graph across whole
graph families: all linear graphs up to n_max at threshold 2, and all
labeled graphs up to n_max at threshold 4.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .bwgraph import BWGraph, is_solvable, linear_graph
from .errors import CapExceededError, EmptyPathSetError
from .paths import DEFAULT_CAP, PathSet, PressingPath, enumerate_successful


def _lcs_distinct(a: PressingPath, pos_b: dict[int, int]) -> int:
    """LCS against the path whose vertex->position map is pos_b.

    Pressing paths never repeat a vertex (a pressed vertex is isolated
    white forever), so LCS reduces to the longest increasing run of b's
    positions taken in a's order.
    """
    tails: list[int] = []
    for v in a:
        p = pos_b.get(v)
        if p is None:
            continue
        i = bisect_left(tails, p)
        if i == len(tails):
            tails.append(p)
        else:
            tails[i] = p
    return len(tails)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count -= 1

    def components(self) -> tuple[tuple[int, ...], ...]:
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return tuple(tuple(g) for g in sorted(groups.values()))


@dataclass(frozen=True)
class Metagraph:
    """Path set plus the pairs (i, j) passing the LCS gate at threshold."""

    vertices: PathSet
    threshold: int
    edges: tuple[tuple[int, int], ...]


def _lcs_buckets(ps: PathSet) -> list[list[tuple[int, int]]]:
    """Unordered path pairs bucketed by LCS value (index = value 0..L)."""
    paths = ps.paths
    pos = [{v: i for i, v in enumerate(p)} for p in paths]
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(ps.common_length + 1)]
    for i, j in combinations(range(len(paths)), 2):
        buckets[_lcs_distinct(paths[i], pos[j])].append((i, j))
    return buckets


def build_metagraph(ps: PathSet, k: int) -> Metagraph:
    """Edge iff lcs >= common_length - k (`at most k less`, inclusive)."""
    if not ps.paths:
        raise EmptyPathSetError("metagraph needs at least one path")
    if k < 0:
        raise ValueError("threshold must be non-negative")
    cutoff = max(ps.common_length - k, 0)
    edges = [
        pair
        for bucket in _lcs_buckets(ps)[cutoff:]
        for pair in bucket
    ]
    return Metagraph(vertices=ps, threshold=k, edges=tuple(sorted(edges)))


def is_connected(m: Metagraph) -> bool:
    """Union-find connectivity; zero or one vertex counts as connected."""
    n = len(m.vertices.paths)
    if n <= 1:
        return True
    uf = _UnionFind(n)
    for i, j in m.edges:
        uf.union(i, j)
    return uf.count == 1


def min_connect_threshold(ps: PathSet) -> int:
    """Smallest k whose metagraph is connected (never above common_length)."""
    if not ps.paths:
        raise EmptyPathSetError("metagraph needs at least one path")
    return _gate_stats(ps, 0)[0]


def _gate_stats(
    ps: PathSet, k: int
) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """One pass over the LCS buckets, shared by the sweeps.

    Returns (min connecting threshold, edge count at gate k, metagraph
    components at gate k).  Buckets are merged in descending LCS order, so
    the first point of full connectivity is the bottleneck threshold.
    """
    paths = ps.paths
    L = ps.common_length
    buckets = _lcs_buckets(ps)
    cutoff = max(L - k, 0)
    uf = _UnionFind(len(paths))
    min_k = 0 if len(paths) == 1 else -1
    edge_count = 0
    components: tuple[tuple[int, ...], ...] = ()
    for v in range(L, -1, -1):
        for i, j in buckets[v]:
            uf.union(i, j)
        edge_count += len(buckets[v]) if v >= cutoff else 0
        if min_k < 0 and uf.count == 1:
            min_k = L - v
        if v == cutoff:
            components = uf.components()
    if min_k < 0:  # every pair lands in some bucket, so this cannot happen
        raise AssertionError("metagraph still disconnected at threshold L")
    return min_k, edge_count, components


@dataclass(frozen=True)
class InstanceStats:
    """Per-instance sweep record: one solved graph and its metagraph facts."""

    graph: BWGraph
    path_count: int
    edge_count: int
    connected: bool
    min_threshold: int


@dataclass(frozen=True)
class SweepFailure:
    """Disconnected-metagraph witness: the path set and its components."""

    graph: BWGraph
    path_set: PathSet
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SweepReport:
    family: str
    threshold: int
    instances_checked: int
    stats: tuple[InstanceStats, ...]
    failures: tuple[SweepFailure, ...]
    incomplete: tuple[tuple[BWGraph, int], ...]

    @property
    def verdict(self) -> str:
        if self.failures:
            return "FAIL"
        if self.incomplete:
            return "INCOMPLETE"
        return "PASS"


def verify_instance(
    g: BWGraph, k: int, cap: int = DEFAULT_CAP
) -> tuple[InstanceStats, PathSet, tuple[tuple[int, ...], ...]]:
    """Enumerate one solvable graph and gate its metagraph at threshold k.

    Returns the stats row, the path set, and the metagraph components
    (a disconnection witness when there is more than one).
    """
    ps = enumerate_successful(g, cap)
    min_k, edge_count, components = _gate_stats(ps, k)
    stats = InstanceStats(
        graph=g,
        path_count=len(ps.paths),
        edge_count=edge_count,
        connected=len(components) == 1,
        min_threshold=min_k,
    )
    return stats, ps, components


def verify_general(g: BWGraph, k: int = 4, cap: int = DEFAULT_CAP) -> InstanceStats:
    """Single-instance connectivity verdict plus min connecting threshold."""
    return verify_instance(g, k, cap)[0]


def _sweep(
    family: str, graphs, threshold: int, cap: int
) -> SweepReport:
    stats: list[InstanceStats] = []
    failures: list[SweepFailure] = []
    incomplete: list[tuple[BWGraph, int]] = []
    for g in graphs:
        if not is_solvable(g):
            continue
        try:
            row, ps, components = verify_instance(g, threshold, cap)
        except CapExceededError as exc:
            incomplete.append((g, exc.count_so_far))
            continue
        stats.append(row)
        if not row.connected:
            failures.append(
                SweepFailure(graph=g, path_set=ps, components=components)
            )
    return SweepReport(
        family=family,
        threshold=threshold,
        instances_checked=len(stats),
        stats=tuple(stats),
        failures=tuple(failures),
        incomplete=tuple(incomplete),
    )


def _all_colorings(n: int):
    # mask bit i set = vertex i black; ascending mask order fixes the
    # instance order of sweep reports
    for mask in range(1 << n):
        yield "".join("B" if mask >> i & 1 else "W" for i in range(n))


def _linear_family(n_max: int):
    for n in range(1, n_max + 1):
        for colors in _all_colorings(n):
            yield linear_graph(colors)


def _labeled_family(n_max: int):
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        for edge_mask in range(1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if edge_mask >> b & 1]
            for colors in _all_colorings(n):
                yield BWGraph.from_parts(colors, edges)


def verify_linear_family(
    n_max: int, threshold: int = 2, cap: int = DEFAULT_CAP
) -> SweepReport:
    """Connectivity of every solvable linear graph's metagraph up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    family = f"linear graphs, n <= {n_max}"
    return _sweep(family, _linear_family(n_max), threshold, cap)


def verify_general_family(
    n_max: int, threshold: int = 4, cap: int = DEFAULT_CAP
) -> SweepReport:
    """Connectivity over all labeled graphs (every topology and coloring)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    family = f"all labeled graphs, n <= {n_max}"
    return _sweep(family, _labeled_family(n_max), threshold, cap)


def metagraph_to_dot(m: Metagraph, name: str = "M") -> str:
    """DOT rendering; vertices are labeled by their path strings."""
    lines = [f"graph {name} {{"]
    for idx, p in enumerate(m.vertices.paths):
        label = " ".join(str(v) for v in p)
        lines.append(f'  p{idx} [label="{label}"];')
    lines.extend(f"  p{i} -- p{j};" for i, j in m.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
