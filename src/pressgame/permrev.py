"""Signed permutations, reversals, and their bridge to black-and-white graphs.

A signed permutation is doubled into a framed unsigned sequence whose
reality edges (adjacent position pairs) record the current order and whose
desire edges (label pairs 2i, 2i+1) record the target order.  Everything
here works on plain integers: one label-to-index table per doubled
sequence, spans as (lo, hi) position pairs, and the overlap graph built
straight into BWGraph bitmasks.  Pressing a black vertex of the overlap
graph matches the reversal acting on that desire edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

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
        ints = all(isinstance(x, int) for x in self.elems)  # 1.0 == 1 passes sorted()
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


@dataclass(frozen=True)
class DesireRealityGraph:
    """Framed unsigned doubling of a signed permutation.

    seq holds the 2n+2 labels; seq[0] = 0 and seq[-1] = 2n+1.  Positions
    are 1-indexed in the public operations.  Reality edges join positions
    (2i-1, 2i); desire edges join labels (2i, 2i+1).  index[label] is the
    0-based index of label in seq.
    """

    seq: tuple[int, ...]

    @property
    def n(self) -> int:
        return (len(self.seq) - 2) // 2

    @cached_property
    def index(self) -> list[int]:
        index = [0] * len(self.seq)
        for idx, label in enumerate(self.seq):
            index[label] = idx
        return index


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


def build_dr(p: SignedPermutation) -> DesireRealityGraph:
    """Double each element (+i -> 2i-1,2i; -i -> 2i,2i-1) and frame with
    0 and 2n+1."""
    seq = [0]
    for x in p.elems:
        seq.extend((2 * x - 1, 2 * x) if x > 0 else (-2 * x, -2 * x - 1))
    seq.append(2 * p.n + 1)
    return DesireRealityGraph(tuple(seq))


def desire_edge_span(dr: DesireRealityGraph, k: int) -> tuple[int, int]:
    """1-based positions (lo, hi) of labels 2k and 2k+1, with lo < hi; the
    span covers the hi - lo - 1 positions strictly between them."""
    if not 0 <= k <= dr.n:
        raise IndexOutOfRangeError(f"desire edge {k} outside 0..{dr.n}")
    a, b = dr.index[2 * k], dr.index[2 * k + 1]
    return (a + 1, b + 1) if a < b else (b + 1, a + 1)


def build_overlap(dr: DesireRealityGraph) -> BWGraph:
    """Overlap graph: one vertex per desire edge, black iff its span covers
    an odd number of positions, edges between strictly crossing spans.

    A span strictly crosses span k exactly when one of its two labels lies
    strictly inside span k, so row k is the XOR of the desire-edge bits of
    the labels inside it (an edge with both labels inside cancels out): a
    difference of two prefix XORs over seq.
    """
    index = dr.index
    prefix = [0]
    for label in dr.seq:
        prefix.append(prefix[-1] ^ (1 << (label >> 1)))
    colors = 0
    adj = []
    for k in range(len(index) >> 1):
        a, b = index[2 * k], index[2 * k + 1]  # 0-based ends of desire edge k
        if a > b:
            a, b = b, a
        colors |= ((b - a - 1) % 2) << k
        adj.append(prefix[b] ^ prefix[a + 1])
    return BWGraph(len(adj), colors, tuple(adj))


def cycle_count(dr: DesireRealityGraph) -> int:
    """Cycles of the 2-regular multigraph holding all reality and desire
    edges; the traversal alternates between the two edge kinds."""
    seq, index = dr.seq, dr.index
    visited = [False] * len(seq)
    cycles = 0
    for start in range(len(seq)):
        if visited[start]:
            continue
        cycles += 1
        label = start
        while True:
            visited[label] = True
            partner = seq[index[label] ^ 1]  # reality edge within the position pair
            visited[partner] = True
            label = partner ^ 1  # desire edge within the label pair
            if label == start:
                break
    return cycles


def reversal_distance_hurdle_free(p: SignedPermutation) -> int:
    """n+1-c for permutations whose overlap graph has no non-trivial
    unoriented component (hurdle detection is out of scope)."""
    dr = build_dr(p)
    if not is_solvable(build_overlap(dr)):
        raise HurdleRiskError(
            f"{p} has a non-trivial unoriented component; hurdle-free formula not applicable"
        )
    return p.n + 1 - cycle_count(dr)


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
