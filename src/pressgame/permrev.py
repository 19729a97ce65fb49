"""Signed permutations, reversals, and their bridge to black-and-white graphs.

A signed permutation is doubled into a framed unsigned sequence whose
reality edges (adjacent position pairs) record the current order and whose
desire edges (label pairs 2i, 2i+1) record the target order.  Everything
here works on plain integers: the doubled sequence is a tuple of labels,
spans are (lo, hi) position pairs, and the overlap graph is built
straight into BWGraph bitmasks.  Pressing a black vertex of the overlap
graph matches the reversal acting on that desire edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bwgraph import BWGraph, is_solvable
from .errors import (
    EdgeNotOrientedError,
    HurdleRiskError,
    IndexOutOfRangeError,
    NotAPermutationError,
    PermutationParseError,
)

_TOKEN = re.compile(r"[+-]\d+")


@dataclass(frozen=True)
class SignedPermutation:
    """Sequence of signed integers whose magnitudes are exactly 1..n."""

    elems: tuple[int, ...]

    def __post_init__(self):
        ints = all(type(x) is int for x in self.elems)  # 1.0 and True == 1 pass sorted()
        if not ints or sorted(map(abs, self.elems)) != list(range(1, self.n + 1)):
            raise NotAPermutationError(
                f"magnitudes of {self.elems} are not a permutation of 1..{self.n}"
            )

    @property
    def n(self) -> int:
        return len(self.elems)

    def __str__(self) -> str:
        return " ".join(f"{x:+d}" for x in self.elems)

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.elems))


def parse_signed_permutation(text: str) -> SignedPermutation:
    """Parse whitespace-separated signed integers; the sign is mandatory."""
    elems = []
    for token in text.split():
        if not _TOKEN.fullmatch(token):
            raise PermutationParseError(f"bad token {token!r} (want e.g. +4 or -1)")
        elems.append(int(token))
    return SignedPermutation(tuple(elems))


def apply_reversal(p: SignedPermutation, i: int, j: int) -> SignedPermutation:
    """Reverse elements i..j (inclusive, 0-indexed) and flip their signs."""
    if not 0 <= i <= j < p.n:
        raise IndexOutOfRangeError(f"reversal ({i},{j}) outside 0 <= i <= j < {p.n}")
    mid = tuple(-x for x in reversed(p.elems[i : j + 1]))
    return SignedPermutation(p.elems[:i] + mid + p.elems[j + 1 :])


def build_dr(p: SignedPermutation) -> tuple[int, ...]:
    """Framed unsigned doubling of a signed permutation: each element is
    doubled (+i -> 2i-1,2i; -i -> 2i,2i-1) and the 2n+2 labels are framed by
    0 and 2n+1.  Positions are 1-indexed in the public operations.  Reality
    edges join positions (2i-1, 2i); desire edges join labels (2i, 2i+1)."""
    seq = [0]
    for x in p.elems:
        seq.extend((2 * x - 1, 2 * x) if x > 0 else (-2 * x, -2 * x - 1))
    seq.append(2 * p.n + 1)
    return tuple(seq)


def _positions(seq: tuple[int, ...]) -> list[int]:
    """The 0-based index of each label in seq, indexed by label."""
    index = [0] * len(seq)
    for idx, label in enumerate(seq):
        index[label] = idx
    return index


def desire_edge_span(seq: tuple[int, ...], k: int) -> tuple[int, int]:
    """1-based positions (lo, hi) of labels 2k and 2k+1, with lo < hi; the
    span covers the hi - lo - 1 positions strictly between them."""
    if not 0 <= k < len(seq) // 2:
        raise IndexOutOfRangeError(f"desire edge {k} outside 0..{len(seq) // 2 - 1}")
    a, b = seq.index(2 * k), seq.index(2 * k + 1)
    return (a + 1, b + 1) if a < b else (b + 1, a + 1)


def build_overlap(seq: tuple[int, ...]) -> BWGraph:
    """Overlap graph: one vertex per desire edge, black iff its span covers
    an odd number of positions, edges between strictly crossing spans.

    A span strictly crosses span k exactly when one of its two labels lies
    strictly inside span k, so row k is the XOR of the desire-edge bits of
    the labels inside it (an edge with both labels inside cancels out): the
    XOR of the prefix XORs at its two ends, less bit k of the lower end.
    """
    index = _positions(seq)
    prefix = [0]
    for label in seq:
        prefix.append(prefix[-1] ^ (1 << (label >> 1)))
    colors = 0
    adj = []
    for k in range(len(index) >> 1):
        a, b = index[2 * k], index[2 * k + 1]  # 0-based ends of desire edge k, either order
        colors |= ((b - a - 1) % 2) << k  # same parity as |b - a| - 1
        adj.append(prefix[a] ^ prefix[b] ^ 1 << k)
    return BWGraph(len(adj), colors, tuple(adj))


def cycle_count(seq: tuple[int, ...]) -> int:
    """Cycles of the 2-regular multigraph holding all reality and desire
    edges.  A reality edge then a desire edge lead each label to the next
    one a traversal meets, and each cycle splits into two orbits of that
    map, one per direction of travel."""
    index = _positions(seq)
    seen = [False] * len(seq)
    orbits = 0
    for start in range(len(seq)):
        orbits += not seen[start]
        label = start
        while not seen[label]:
            seen[label] = True
            label = seq[index[label] ^ 1] ^ 1  # reality partner, then its desire partner
    return orbits // 2


def reversal_distance_hurdle_free(p: SignedPermutation) -> int:
    """n+1-c for permutations whose overlap graph has no non-trivial
    unoriented component (hurdle detection is out of scope)."""
    seq = build_dr(p)
    if not is_solvable(build_overlap(seq)):
        raise HurdleRiskError(
            f"{p} has a non-trivial unoriented component; hurdle-free formula not applicable"
        )
    return p.n + 1 - cycle_count(seq)


def reversal_on_desire_edge(p: SignedPermutation, k: int) -> SignedPermutation:
    """The reversal delimited by the two reality edges next to desire edge k.

    The segment is snapped to reality-edge boundaries so whole signed
    elements are reversed, then the move is verified by its effect: desire
    edge k must end up spanning zero vertices.  For an oriented (black)
    edge exactly this one candidate passes; otherwise no acting reversal
    exists.
    """
    lo, hi = desire_edge_span(build_dr(p), k)
    r_lo, r_hi = (lo + 1) // 2, (hi + 1) // 2  # reality-edge indices, 1-based
    if r_lo == r_hi:
        raise EdgeNotOrientedError(
            f"desire edge {k} already forms a small cycle with a reality edge"
        )
    candidate = apply_reversal(p, r_lo - 1, r_hi - 2)
    lo, hi = desire_edge_span(build_dr(candidate), k)
    if hi - lo - 1 != 0:
        raise EdgeNotOrientedError(f"desire edge {k} of {p} is unoriented")
    return candidate
