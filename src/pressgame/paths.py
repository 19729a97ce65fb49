"""Pressing paths: validity, success, exhaustive enumeration, safe presses.

Paths are plain tuples of vertex ids.  Enumeration is a depth-first search
branching on every black vertex in ascending index order, so the collected
path set comes out in lexicographic order and two runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bwgraph import BWGraph, fold_path, is_all_white_empty, is_solvable, press
from .errors import AlreadySolvedError, CapExceededError, UnsolvableError

PressingPath = tuple[int, ...]

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class PathSet:
    """All successful pressing paths of a graph, plus their common length."""

    graph: BWGraph
    paths: tuple[PressingPath, ...]
    common_length: int

    def __len__(self) -> int:
        return len(self.paths)


def is_valid_path(g: BWGraph, path: Sequence[int]) -> bool:
    """Each vertex must be black at its press time."""
    return fold_path(g, path)[0] is None


def is_successful_path(g: BWGraph, path: Sequence[int]) -> bool:
    """Valid and ending in the all-white empty graph."""
    bad, colors, adj = fold_path(g, path)
    return bad is None and not colors and not any(adj)


def enumerate_successful(g: BWGraph, cap: int = DEFAULT_CAP) -> PathSet:
    """Collect every successful pressing path by exhaustive DFS.

    Raises UnsolvableError when no successful path can exist and
    CapExceededError (never a silent truncation) when more than cap paths
    are found.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not is_solvable(g):
        raise UnsolvableError("graph has a non-trivial unoriented component")
    found: list[PressingPath] = []
    prefix: list[int] = []

    def dfs(h: BWGraph) -> None:
        blacks = h.black_vertices()
        if not blacks:
            if is_all_white_empty(h):
                found.append(tuple(prefix))
                if len(found) > cap:
                    raise CapExceededError(len(found))
                if len(prefix) != len(found[0]):
                    raise AssertionError("equal-length law violated")
            return
        for v in blacks:
            prefix.append(v)
            dfs(press(h, v))
            prefix.pop()

    dfs(g)
    if not found:
        raise AssertionError("a solvable graph must have a successful path")
    return PathSet(graph=g, paths=tuple(sorted(found)), common_length=len(found[0]))


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
