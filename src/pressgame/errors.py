"""Domain errors shared across the package."""


class GameError(Exception):
    """Base class for all pressing-game and rearrangement errors."""


class IndexOutOfRangeError(GameError):
    """A vertex, position, or desire-edge index is outside its valid range."""


class PressOnWhiteError(GameError):
    """Attempted to press a white vertex."""


class InvalidPathError(PressOnWhiteError):
    """A pressing path hits a non-black vertex; carries the first bad position."""

    def __init__(self, position: int, vertex: int):
        self.position = position
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is not black at path position {position}")


class GraphParseError(GameError):
    """Malformed graph text; carries the offending line number (1-based)."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SelfLoopError(GraphParseError):
    pass


class DuplicateEdgeError(GraphParseError):
    pass


class PermutationParseError(GameError):
    """Malformed signed-permutation token."""


class NotAPermutationError(GameError):
    """Magnitudes are not exactly 1..n."""


class HurdleRiskError(GameError):
    """Overlap graph has a non-trivial unoriented component; distance not computed."""


class EdgeNotOrientedError(GameError):
    """No reversal acts on this desire edge (it is unoriented)."""


class UnsolvableError(GameError):
    """Graph has a non-trivial unoriented component; no successful path exists."""


class AlreadySolvedError(GameError):
    """Graph is already the all-white empty graph."""


class CapExceededError(GameError):
    """Enumeration found more paths than the cap allows.  The count stops at
    the first state over the cap, so count_so_far is always cap + 1."""

    def __init__(self, count_so_far: int):
        self.count_so_far = count_so_far
        super().__init__(f"more than {count_so_far - 1} successful paths")


class EmptyPathSetError(GameError):
    """Operation requires a nonempty path set."""


class PathTooShortError(GameError):
    """Remove-2/add-2 proposal needs a path of length at least 2."""
