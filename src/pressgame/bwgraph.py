"""Black-and-white graphs and the press move.

Vertices are 0-indexed.  Colors and adjacency rows are stored as bitmasks,
so a graph is a small hashable value and press returns a new graph
instead of mutating.  The constructor checks symmetry by transposing the
rows' w x w bit matrix (w = 2^k >= max(n, 8)) in log2(w) big-int steps, not edge
by edge, the rows packed into one int by one to_bytes each.  The press rule
lives in one place, the in-place row kernel _press_rows, run by fold_path
along a path on one copy of the rows (for apply_path and its one-vertex case
press) and by the enumeration count in paths on raw rows, no graph per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateEdgeError,
    GraphParseError,
    IndexOutOfRangeError,
    InvalidPathError,
    SelfLoopError,
)

BLACK = "B"
WHITE = "W"
_COLOR_OF_BIT = str.maketrans("01", WHITE + BLACK)


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit indices of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BWGraph:
    """Vertex colors plus symmetric irreflexive adjacency.

    colors: bit v set means vertex v is black.  adj[v]: neighbor bitmask of v.
    The constructor raises ValueError on the lowest row that is asymmetric, self-looped
    or reaches past vertex n-1, found by comparing the rows' bit matrix with its transpose.
    """

    n: int
    colors: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if n < 0 or len(adj) != n or self.colors >> n:
            raise ValueError("inconsistent graph fields")
        w = max(8, 1 << (n - 1).bit_length())  # to_bytes writes whole bytes
        swaps, diag = _transpose_masks(w)
        out = next((v for v, row in enumerate(adj) if row >> n), n)  # first row past n-1
        full = (1 << w) - 1  # row v goes to bits v*w.., cut to its w bits
        rows = [(row & full).to_bytes(w >> 3, "little") for row in adj]
        m = int.from_bytes(b"".join(rows), "little")
        t = m
        for shift, mask in swaps:  # t becomes the transpose of m
            x = (t >> shift ^ t) & mask
            t ^= x ^ x << shift
        bad = (m & ~t | m & diag) & ((1 << out * w) - 1)  # one-sided or loop bits, rows < out
        if bad or out < n:
            v = ((bad & -bad).bit_length() - 1) // w if bad else out
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
                raise IndexOutOfRangeError(f"edge ({u},{v}) outside {_span(n)}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return _unchecked(n, color_mask, tuple(adj))  # symmetric by construction

    def is_black(self, v: int) -> bool:
        return bool(self.colors >> v & 1)

    def color_string(self) -> str:
        # the mask's bits from vertex 0 up, a 1 above vertex n-1 keeping the leading 0s
        return bin(self.colors | 1 << self.n)[:2:-1].translate(_COLOR_OF_BIT)

    def black_vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.colors))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]


def _tile(pattern: int, width: int, total: int) -> int:
    """Repeat pattern, width bits wide, by doubling until it fills total bits."""
    while width < total:
        pattern, width = pattern | pattern << width, 2 * width
    return pattern


def _transpose_masks(w: int) -> tuple[Iterable[tuple[int, int]], int]:
    """The delta swaps (shift, mask) that transpose a w x w bit matrix, w = 2^k, and its
    diagonal; kept up to w = 1024 (1.8 MB for all such w), past that (6 MB at 2048, x4
    per doubling) each swap is built as the transpose reaches it and then dropped."""
    return _kept_masks(w) if w <= 1024 else (_swaps(w), _tile(1, w + 1, w * w))


def _swaps(w: int) -> Iterator[tuple[int, int]]:
    """Swap s moves each cell (r, c) with bit s in c, not r, to (r+s, c-s)."""
    for s in (w >> k for k in range(1, w.bit_length())):  # cell (r, c) is bit r*w+c
        row = _tile(((1 << s) - 1) << s, 2 * s, w)  # the columns with bit s
        yield s * (w - 1), _tile(_tile(row, w, s * w), 2 * s * w, w * w)


_kept_masks = cache(lambda w: (tuple(_swaps(w)), _tile(1, w + 1, w * w)))


def _unchecked(n: int, colors: int, adj: tuple[int, ...]) -> BWGraph:
    """A BWGraph built without __post_init__, for rows that keep the invariant by
    construction: from_parts, parse_graph, apply_path (so press) and meta's sweeps."""
    g = object.__new__(BWGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "colors", colors)
    object.__setattr__(g, "adj", adj)
    return g


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


def fold_path(g: BWGraph, path: Sequence[int]) -> tuple[int | None, int, list[int]]:
    """Press path left to right on one copy of g's rows: (bad, colors, adj), bad
    being the first out-of-range or white position (the fold stops there) or None."""
    n, colors, adj = g.n, g.colors, list(g.adj)
    for k, v in enumerate(path):
        if not 0 <= v < n or not colors >> v & 1:
            return k, colors, adj
        colors = _press_rows(adj, colors, v)
    return None, colors, adj


def _span(n: int) -> str:
    """The vertex range of an n-vertex graph, as out-of-range messages name it."""
    return f"0..{n - 1}" if n else "a graph with no vertices"


def apply_path(g: BWGraph, path: Sequence[int]) -> BWGraph:
    """Press path left to right on a copy of g; raises at the first bad position."""
    bad, colors, adj = fold_path(g, path)
    if bad is None:
        return _unchecked(g.n, colors, tuple(adj))
    if not 0 <= path[bad] < g.n:
        raise IndexOutOfRangeError(f"vertex {path[bad]} outside {_span(g.n)}")
    raise InvalidPathError(bad, path[bad])


def press(g: BWGraph, v: int) -> BWGraph:
    """Press black vertex v of a copy of g: flip neighbor colors, toggle every
    neighbor pair's connectivity, and leave v as a separated white vertex.  The
    one-vertex apply_path, so a white v raises InvalidPathError at position 0."""
    return apply_path(g, (v,))


def classify_components(g: BWGraph) -> Iterator[int]:
    """Yield the vertex bitmask of each connected component that has an edge,
    in order of lowest vertex; isolated vertices never start a walk."""
    adj = g.adj
    left = 0
    for v, row in enumerate(adj):
        if row:
            left |= 1 << v
    while left:
        comp = todo = left & -left
        while todo:
            low = todo & -todo
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            todo = (todo ^ low) | new
        left &= ~comp
        yield comp


def is_solvable(g: BWGraph) -> bool:
    """True iff every component with an edge has a black vertex, which is
    exactly when the all-white empty graph is reachable; stops at the first
    component with none."""
    return all(c & g.colors for c in classify_components(g))


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
        return _unchecked(0, 0, ())
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
        if adj[u] >> v & 1:
            raise DuplicateEdgeError(no, f"duplicate edge {u} {v}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _unchecked(n, colors, tuple(adj))  # every row passed the checks above


def format_graph(g: BWGraph) -> str:
    """Serialize to the graph text format (round-trips through parse_graph)."""
    lines = [str(g.n), g.color_string()]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_to_dot(g: BWGraph) -> str:
    """DOT graph G with filled black/white vertices."""
    lines = ["graph G {", "  node [style=filled, shape=circle];"]
    for v in range(g.n):
        if g.is_black(v):
            lines.append(f'  {v} [fillcolor="black", fontcolor="white"];')
        else:
            lines.append(f'  {v} [fillcolor="white"];')
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
