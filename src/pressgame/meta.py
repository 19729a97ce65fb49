"""Metagraphs over successful pressing paths and connectivity sweeps.

The metagraph of a path set has one vertex per successful path and an edge
between two paths when their longest common subsequence is at most k below
the common length.  Sweeps check connectivity of that graph across whole
graph families: all linear graphs up to n_max at threshold 2, and all
labeled graphs up to n_max at threshold 4.

Edges are decided without comparing pairs.  Two paths of common length L
have an LCS of at least L - k exactly when they share a subsequence of
length L - k, so grouping path indices by each of their (L-k)-subsequences
puts every edge inside some group.  That takes about P * C(L, k) dict
operations for P paths, where all-pairs LCS takes P^2 / 2 LCS runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bwgraph import BWGraph, is_solvable, linear_graph
from .errors import CapExceededError, EmptyPathSetError
from .paths import DEFAULT_CAP, PathSet, PressingPath, enumerate_successful, format_path


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


def _buckets(ps: PathSet, k: int) -> list[list[int]]:
    """Path indices grouped by a shared (L-k)-subsequence, groups of two or more.

    A path never repeats a vertex, so its (L-k)-subsequences are distinct
    and each group lists ascending indices without repeats.
    """
    groups: dict[PressingPath, list[int]] = {}
    size = max(ps.common_length - k, 0)
    for i, p in enumerate(ps.paths):
        for key in combinations(p, size):
            groups.setdefault(key, []).append(i)
    return [g for g in groups.values() if len(g) > 1]


def _check_gate(ps: PathSet, k: int) -> None:
    if not ps.paths:
        raise EmptyPathSetError("metagraph needs at least one path")
    if k < 0:
        raise ValueError("threshold must be non-negative")


def build_metagraph(ps: PathSet, k: int) -> Metagraph:
    """Edge iff lcs >= common_length - k (`at most k less`, inclusive)."""
    _check_gate(ps, k)
    edges = {pair for g in _buckets(ps, k) for pair in combinations(g, 2)}
    return Metagraph(vertices=ps, threshold=k, edges=tuple(sorted(edges)))


def connectivity(
    ps: PathSet, k: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(min connecting threshold, metagraph components at threshold k).

    The edges at threshold d include those at d - 1, so the buckets for
    d = 0, 1, ... merge into one union-find until it is connected.  That
    happens by d = common_length at the latest, where every path shares
    the empty subsequence.
    """
    _check_gate(ps, k)
    uf = _UnionFind(len(ps.paths))
    at_k = None
    d = 0
    while True:
        for first, *rest in _buckets(ps, d):
            for i in rest:
                uf.union(first, i)
            if uf.count == 1:
                break
        if d == k:
            at_k = uf.components()
        if uf.count == 1:
            break
        d += 1
    if at_k is None:  # connected below k, so one component at k
        at_k = (tuple(range(len(ps.paths))),)
    return d, at_k


@dataclass(frozen=True)
class InstanceStats:
    """Per-instance sweep record: one solved graph and its metagraph facts."""

    graph: BWGraph
    path_count: int
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
    min_k, components = connectivity(ps, k)
    stats = InstanceStats(
        graph=g,
        path_count=len(ps.paths),
        connected=len(components) == 1,
        min_threshold=min_k,
    )
    return stats, ps, components


def _sweep(
    family: str, graphs, threshold: int, cap: int
) -> SweepReport:
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
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
        lines.append(f'  p{idx} [label="{format_path(p)}"];')
    lines.extend(f"  p{i} -- p{j};" for i, j in m.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
