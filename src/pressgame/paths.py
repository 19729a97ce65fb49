"""Pressing paths: success checks, exhaustive enumeration, safe presses.

Paths are plain tuples of vertex ids.  Enumeration runs in two passes over
raw press states (colors, adjacency rows).  A memoised count records, for
each reachable state, its path count, their common length and its live
moves: the black vertices, ascending, whose press leaves a state with a
path.  The count stops as soon as one state has more than the cap's
paths, so it never visits the whole state space of an over-cap graph.  A
walk over the live moves then lists the paths in the same lexicographic
order a depth-first search would, so two runs are byte-identical; the walk
presses nothing and enters no dead end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bwgraph import (
    BWGraph,
    _bits,
    _press_rows,
    fold_path,
    is_all_white_empty,
    is_solvable,
    press,
)
from .errors import AlreadySolvedError, CapExceededError, UnsolvableError

PressingPath = tuple[int, ...]
# (v, live moves of the state that pressing v leaves), v ascending
Moves = tuple[tuple[int, "Moves"], ...]

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class PathSet:
    """All successful pressing paths of a graph, plus their common length."""

    graph: BWGraph
    paths: tuple[PressingPath, ...]
    common_length: int


def is_successful_path(g: BWGraph, path: Sequence[int]) -> bool:
    """Valid and ending in the all-white empty graph."""
    bad, colors, adj = fold_path(g, path)
    return bad is None and not colors and not any(adj)


def enumerate_successful(g: BWGraph, cap: int = DEFAULT_CAP) -> PathSet:
    """Every successful pressing path, in lexicographic order.

    The cap is decided by the count before any path is built.  The count
    stops as soon as one state has more than cap paths (every state it
    visits is reached by a valid prefix, so the root has at least as many),
    so its work grows with the cap, not with the state space.  Raises
    UnsolvableError when no successful path can exist and CapExceededError
    (never a silent truncation) with count_so_far cap + 1 when there are
    more than cap paths.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not is_solvable(g):
        raise UnsolvableError("graph has a non-trivial unoriented component")
    count, length, moves = _count(g.colors, g.adj, cap, {})
    if not count:
        raise AssertionError("a solvable graph must have a successful path")
    found: list[PressingPath] = []
    prefix: list[int] = []

    def walk(moves: Moves) -> None:
        if not moves:
            found.append(tuple(prefix))
        for v, child_moves in moves:
            prefix.append(v)
            walk(child_moves)
            prefix.pop()

    walk(moves)
    return PathSet(graph=g, paths=tuple(found), common_length=length)


def _count(
    colors: int, adj: tuple[int, ...], cap: int, memo: dict
) -> tuple[int, int, Moves]:
    """(path count, common path length, live moves) of the press state
    (colors, adj), memoised in memo by state; CapExceededError(cap + 1) as
    soon as the count passes cap.  The live moves are (v, live moves after
    pressing v) for each black v, ascending, whose press leaves a state with
    a path.  A state's paths do not depend on the presses that reached it,
    and by the equal-length law they share one length, so one entry per
    state is exact."""
    key = (colors, adj)
    entry = memo.get(key)
    if entry is not None:
        return entry
    if not colors:
        entry = memo[key] = (0 if any(adj) else 1, 0, ())
        return entry
    total = length = 0
    live = []
    for v in _bits(colors):
        rows = list(adj)
        child = _press_rows(rows, colors, v)
        k, child_length, child_moves = _count(child, tuple(rows), cap, memo)
        if k:
            if live and child_length + 1 != length:
                raise AssertionError("equal-length law violated")
            total += k
            if total > cap:
                raise CapExceededError(cap + 1)
            length = child_length + 1
            live.append((v, child_moves))
    entry = memo[key] = (total, length, tuple(live))
    return entry


def find_safe_press(g: BWGraph) -> int:
    """Lowest-index black vertex whose press creates no non-trivial
    unoriented component."""
    if not is_solvable(g):
        raise UnsolvableError("graph has a non-trivial unoriented component")
    if is_all_white_empty(g):
        raise AlreadySolvedError("graph is already the all-white empty graph")
    return _safe_press(g)[0]


def _safe_press(g: BWGraph) -> tuple[int, BWGraph]:
    """(v, press(g, v)) for the lowest safe press v of a solvable, unsolved g."""
    for v in g.black_vertices():
        if is_solvable(h := press(g, v)):
            return v, h
    raise AssertionError("no safe press found on a solvable graph")


def greedy_solve(g: BWGraph) -> PressingPath:
    """Successful path by taking the lowest safe press until g is solved (a
    safe press keeps g solvable, so the checks of find_safe_press run once)."""
    if not is_solvable(g):
        raise UnsolvableError("graph has a non-trivial unoriented component")
    out: list[int] = []
    while not is_all_white_empty(g):
        v, g = _safe_press(g)
        out.append(v)
    return tuple(out)


def format_path(p: PressingPath) -> str:
    """The path text format: space-separated vertex indices."""
    return " ".join(str(v) for v in p)


def format_paths(ps: PathSet) -> str:
    """One path per line, in the path text format."""
    return "\n".join(format_path(p) for p in ps.paths) + "\n"
