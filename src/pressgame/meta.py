"""Metagraphs over successful pressing paths and connectivity sweeps.

The metagraph of a path set has one vertex per successful path and an edge
between two paths when their longest common subsequence is at most k below
the common length; build_metagraph returns its edges as sorted index pairs
into the path set's paths.  Sweeps check connectivity of that graph across
whole graph families: all linear graphs up to n_max at threshold 2, and all
labeled graphs up to n_max at threshold 4.  Instances come by n, then
edge list (labeled graphs: ascending edge mask over combinations(range(n),
2)), then colour mask ascending, bit v set meaning vertex v is black.

Edges are decided without comparing pairs.  Two paths of common length L
have an LCS of at least L - k exactly when they share a subsequence of
length L - k, so grouping path indices by each of their (L-k)-subsequences
puts every edge inside some group.  That takes about P * C(L, k) dict
operations for P paths, where all-pairs LCS takes P^2 / 2 LCS runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bwgraph import BWGraph, is_solvable
from .errors import CapExceededError, EmptyPathSetError
from .paths import DEFAULT_CAP, PathSet, PressingPath, enumerate_successful, format_path


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


def build_metagraph(ps: PathSet, k: int) -> tuple[tuple[int, int], ...]:
    """Sorted index pairs (i, j), i < j, of the paths of ps with
    lcs >= common_length - k (`at most k less`, inclusive)."""
    _check_gate(ps, k)
    return tuple(sorted({pair for g in _buckets(ps, k) for pair in combinations(g, 2)}))


def connectivity(ps: PathSet, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(min connecting threshold, metagraph components at threshold k).

    The edges at threshold d include those at d - 1, so the buckets for
    d = 0, 1, ... merge into one union-find until it is connected.  That
    happens by d = common_length at the latest, where every path shares
    the empty subsequence.
    """
    _check_gate(ps, k)
    parent = list(range(len(ps.paths)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(parent)
    at_k = None
    d = 0
    while True:
        for first, *rest in _buckets(ps, d):
            root = find(first)
            for i in rest:
                if (r := find(i)) != root:
                    parent[r] = root
                    count -= 1
            if count == 1:
                break
        if d == k:
            groups: dict[int, list[int]] = {}
            for x in range(len(parent)):
                groups.setdefault(find(x), []).append(x)
            at_k = tuple(tuple(g) for g in sorted(groups.values()))
        if count == 1:
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
    (a disconnection witness when there is more than one).  A negative k
    is rejected before any path is enumerated.
    """
    if k < 0:
        raise ValueError("threshold must be non-negative")
    ps = enumerate_successful(g, cap)
    min_k, components = connectivity(ps, k)
    stats = InstanceStats(
        graph=g,
        path_count=len(ps.paths),
        connected=len(components) == 1,
        min_threshold=min_k,
    )
    return stats, ps, components


def _sweep(label: str, topologies, n_max: int, threshold: int, cap: int) -> SweepReport:
    """Gate every solvable graph on 1..n_max vertices whose edge list is in
    topologies(n): by n, then edge list in order, then colour mask ascending
    (bit v set means vertex v is black).  verify_instance rejects k < 0."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    stats: list[InstanceStats] = []
    failures: list[SweepFailure] = []
    incomplete: list[tuple[BWGraph, int]] = []
    for n in range(1, n_max + 1):
        for edges in topologies(n):
            adj = BWGraph.from_parts("W" * n, edges).adj
            for colors in range(1 << n):
                g = BWGraph(n, colors, adj)
                if not is_solvable(g):
                    continue
                try:
                    row, ps, components = verify_instance(g, threshold, cap)
                except CapExceededError as exc:
                    incomplete.append((g, exc.count_so_far))
                    continue
                stats.append(row)
                if not row.connected:
                    failures.append(SweepFailure(g, ps, components))
    return SweepReport(
        family=f"{label}, n <= {n_max}",
        threshold=threshold,
        instances_checked=len(stats),
        stats=tuple(stats),
        failures=tuple(failures),
        incomplete=tuple(incomplete),
    )


def _edge_sets(n: int):
    """Every edge set on vertices 0..n-1, in ascending edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [p for b, p in enumerate(pairs) if mask >> b & 1]


def verify_linear_family(
    n_max: int, threshold: int = 2, cap: int = DEFAULT_CAP
) -> SweepReport:
    """Connectivity of every solvable linear graph's metagraph up to n_max."""
    path = [(i, i + 1) for i in range(n_max - 1)]
    return _sweep("linear graphs", lambda n: [path[: n - 1]], n_max, threshold, cap)


def verify_general_family(
    n_max: int, threshold: int = 4, cap: int = DEFAULT_CAP
) -> SweepReport:
    """Connectivity over all labeled graphs (every topology and coloring)."""
    return _sweep("all labeled graphs", _edge_sets, n_max, threshold, cap)


def metagraph_to_dot(ps: PathSet, edges: tuple[tuple[int, int], ...]) -> str:
    """DOT graph M over the paths of ps, labeled by their path strings, with
    the index pairs edges (as build_metagraph returns them)."""
    lines = ["graph M {"]
    for idx, p in enumerate(ps.paths):
        lines.append(f'  p{idx} [label="{format_path(p)}"];')
    lines.extend(f"  p{i} -- p{j};" for i, j in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
