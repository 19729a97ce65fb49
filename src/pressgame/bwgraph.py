"""Black-and-white graphs and the press move.

Vertices are 0-indexed.  Colors and adjacency rows are stored as bitmasks,
so a graph is a small hashable value and pressing returns a new graph
instead of mutating (enumeration and backtracking rely on cheap snapshots).
Desk scale only: n is expected to stay at or below 32.  The press rule lives
in one place, the in-place row kernel _press_rows, run by press on a copy of
one graph's rows and by fold_path along a whole path on one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    GraphParseError,
    IndexOutOfRangeError,
    InvalidPathError,
    PressOnWhiteError,
    SelfLoopError,
)

BLACK = "B"
WHITE = "W"

LINEAR_PREFIX = "linear:"


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit indices of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BWGraph:
    """Vertex colors plus symmetric irreflexive adjacency.

    colors: bit v set means vertex v is black.
    adj[v]: neighbor bitmask of v.  The constructor raises ValueError on
    any row that is asymmetric, self-looped or reaches past vertex n-1.
    """

    n: int
    colors: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if n < 0 or len(adj) != n or self.colors >> n:
            raise ValueError("inconsistent graph fields")
        for v, row in enumerate(adj):
            if row >> n or row >> v & 1 or any(not adj[u] >> v & 1 for u in _bits(row)):
                raise ValueError(f"adjacency row {v} is not symmetric and irreflexive")

    @classmethod
    def from_parts(
        cls, colors: Sequence[str] | str, edges: Iterable[tuple[int, int]] = ()
    ) -> BWGraph:
        """Build a validated graph from per-vertex colors and an edge list."""
        color_mask = _parse_colors(colors)
        n = len(colors)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return _unchecked(n, color_mask, tuple(adj))  # symmetric by construction

    def is_black(self, v: int) -> bool:
        return bool(self.colors >> v & 1)

    def color_string(self) -> str:
        return "".join(BLACK if self.is_black(v) else WHITE for v in range(self.n))

    def black_vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.colors))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(bin(m).count("1") for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def _unchecked(n: int, colors: int, adj: tuple[int, ...]) -> BWGraph:
    """A BWGraph built without __post_init__, for results that keep the
    invariant by construction (press runs in every inner loop)."""
    g = object.__new__(BWGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "colors", colors)
    object.__setattr__(g, "adj", adj)
    return g


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    trivial: bool
    oriented: bool


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[Component, ...]

    def has_nontrivial_unoriented(self) -> bool:
        return any(not c.trivial and not c.oriented for c in self.components)


def _press_rows(adj: list[int], colors: int, v: int) -> int:
    """Press black vertex v in place on the rows adj; return the new colors."""
    nbrs = rest = adj[v]
    keep = ~(1 << v)
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        adj[u] = (adj[u] ^ nbrs ^ low) & keep
        rest ^= low
    adj[v] = 0
    return (colors ^ nbrs) & keep


def press(g: BWGraph, v: int) -> BWGraph:
    """Press black vertex v of a copy of g: flip neighbor colors, toggle every
    neighbor pair's connectivity, and leave v as a separated white vertex."""
    if not 0 <= v < g.n:
        raise IndexOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    if not g.is_black(v):
        raise PressOnWhiteError(f"vertex {v} is white")
    adj = list(g.adj)
    colors = _press_rows(adj, g.colors, v)
    return _unchecked(g.n, colors, tuple(adj))


def fold_path(g: BWGraph, path: Sequence[int]) -> tuple[int | None, int, list[int]]:
    """Press path left to right on one copy of g's rows: (bad, colors, adj), bad
    being the first out-of-range or white position (the fold stops there) or None."""
    n, colors, adj = g.n, g.colors, list(g.adj)
    for k, v in enumerate(path):
        if not 0 <= v < n or not colors >> v & 1:
            return k, colors, adj
        colors = _press_rows(adj, colors, v)
    return None, colors, adj


def apply_path(g: BWGraph, path: Sequence[int]) -> BWGraph:
    """Left fold of press over path; identifies the first invalid position."""
    bad, colors, adj = fold_path(g, path)
    if bad is None:
        return _unchecked(g.n, colors, tuple(adj))
    if not 0 <= path[bad] < g.n:
        raise IndexOutOfRangeError(f"vertex {path[bad]} outside 0..{g.n - 1}")
    raise InvalidPathError(bad, path[bad])


def classify_components(g: BWGraph) -> ComponentReport:
    """Connected components with trivial (size 1) and oriented (has a black
    vertex) flags."""
    seen = 0
    out = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        members = tuple(_bits(comp))
        out.append(
            Component(
                vertices=members,
                trivial=len(members) == 1,
                oriented=bool(comp & g.colors),
            )
        )
    return ComponentReport(tuple(out))


def is_solvable(g: BWGraph) -> bool:
    """True iff g has no non-trivial unoriented component, which is exactly
    when the all-white empty graph is reachable."""
    return not classify_components(g).has_nontrivial_unoriented()


def is_all_white_empty(g: BWGraph) -> bool:
    return g.colors == 0 and not any(g.adj)


def linear_graph(colors: Sequence[str] | str) -> BWGraph:
    """Path graph 0-1-...-(n-1) with the given colors."""
    n = len(colors)
    return BWGraph.from_parts(colors, ((i, i + 1) for i in range(n - 1)))


def _parse_colors(colors: Sequence[str] | str) -> int:
    mask = 0
    for i, c in enumerate(colors):
        cu = c.upper()
        if cu == BLACK:
            mask |= 1 << i
        elif cu != WHITE:
            raise ValueError(f"bad color {c!r} at index {i}")
    return mask


def parse_graph(text: str) -> BWGraph:
    """Parse the graph text format.

    Line 1: vertex count n.  Line 2: color string of length n over {B,W},
    case-insensitive.  Remaining lines: one `u v` edge per line, 0-indexed,
    u != v, duplicates (in either orientation) rejected.  The color line may
    be omitted only when n = 0.
    """
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    body = [(no, ln) for no, ln in rows if ln]
    if not body:
        raise GraphParseError(1, "missing vertex count")
    no, first = body[0]
    try:
        n = int(first)
    except ValueError:
        raise GraphParseError(no, f"bad vertex count {first!r}") from None
    if n < 0:
        raise GraphParseError(no, "vertex count must be non-negative")
    if n == 0:
        for no, ln in body[1:]:
            raise GraphParseError(no, f"unexpected content {ln!r} in empty graph")
        return BWGraph(0, 0, ())
    if len(body) < 2:
        raise GraphParseError(len(lines) + 1, "missing color line")
    no, color_line = body[1]
    if len(color_line) != n:
        raise GraphParseError(no, f"expected {n} colors, got {len(color_line)}")
    try:
        colors = _parse_colors(color_line)
    except ValueError as exc:
        raise GraphParseError(no, str(exc)) from None
    adj = [0] * n
    seen: set[frozenset[int]] = set()
    for no, ln in body[2:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(no, f"expected `u v`, got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(no, f"non-integer endpoint in {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(no, f"endpoint outside 0..{n - 1} in {ln!r}")
        if u == v:
            raise SelfLoopError(no, f"self-loop at vertex {u}")
        key = frozenset((u, v))
        if key in seen:
            raise DuplicateEdgeError(no, f"duplicate edge {u} {v}")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return BWGraph(n, colors, tuple(adj))


def parse_linear_shorthand(text: str) -> BWGraph | None:
    """The path graph named by `linear:BWBW...`, or None for other text.

    The prefix is case-insensitive and surrounding whitespace is ignored.
    """
    stripped = text.strip()
    if not stripped.lower().startswith(LINEAR_PREFIX):
        return None
    return linear_graph(stripped[len(LINEAR_PREFIX):])


def parse_graph_source(text: str) -> BWGraph:
    """Parse either the graph text format or the `linear:BWBW...` shorthand."""
    g = parse_linear_shorthand(text)
    return parse_graph(text) if g is None else g


def format_graph(g: BWGraph) -> str:
    """Serialize to the graph text format (round-trips through parse_graph)."""
    lines = [str(g.n), g.color_string()]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_to_dot(g: BWGraph, name: str = "G") -> str:
    """DOT rendering with filled black/white vertices."""
    lines = [f"graph {name} {{", "  node [style=filled, shape=circle];"]
    for v in range(g.n):
        if g.is_black(v):
            lines.append(f'  {v} [fillcolor="black", fontcolor="white"];')
        else:
            lines.append(f'  {v} [fillcolor="white"];')
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
