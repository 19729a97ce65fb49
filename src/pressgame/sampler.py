"""Metropolis-Hastings sampling of successful pressing paths.

One move: delete an unordered pair of positions from the current path,
then insert two (slot, label) choices drawn uniformly, and accept the
result only if it is again a successful pressing path.  No Hastings
correction is needed: q(P->Q) counts the deletion results P and Q share,
over a denominator fixed by the path length and vertex count, so q is
symmetric and the stationary distribution is uniform over the path set.
proposal_probability gives q exactly, for the detailed-balance tests.

Length-0 and length-1 paths admit no remove-2/add-2 move; those chains
are single-state by construction and run_chain reports them as such.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .bwgraph import BWGraph
from .errors import CapExceededError, EmptyPathSetError, PathTooShortError
from .paths import (
    PathSet,
    PressingPath,
    enumerate_successful,
    greedy_solve,
    is_successful_path,
)


@dataclass(frozen=True)
class ChainReport:
    graph: BWGraph
    histogram: dict[PressingPath, int]
    acceptance_rate: float
    tv_distance: float | None  # None above paths.DEFAULT_CAP paths
    seed: int
    steps: int
    burn_in: int


def _deletion_counts(path: PressingPath) -> Counter:
    """Multiset of results of deleting each unordered position pair."""
    c: Counter = Counter()
    for i in range(len(path)):
        head = path[:i]
        tail = path[i + 1:]
        for j in range(len(tail)):
            c[head + tail[:j] + tail[j + 1:]] += 1
    return c


def proposal_probability(src: PressingPath, dst: PressingPath, n: int) -> Fraction:
    """Exact probability that one remove-2/add-2 draw turns src into dst.

    A draw is (deletion pair, first (slot, label), second (slot, label)),
    all uniform.  Each way of writing dst as src minus a position pair
    plus a final position pair is realized by exactly 2 insertion orders,
    so the count reduces to matching deletion results of both paths.
    """
    L = len(src)
    if L < 2:
        raise PathTooShortError(f"need at least 2 presses, path has {L}")
    if len(dst) != L:
        return Fraction(0)
    cs = _deletion_counts(src)
    cd = _deletion_counts(dst)
    matches = sum(m * cd[r] for r, m in cs.items() if r in cd)
    denom = (L * (L - 1) // 2) * (L - 1) * n * L * n
    return Fraction(2 * matches, denom)


def _below(getrandbits, n: int) -> int:
    """Uniform draw from range(n), n >= 1, by the loop of CPython's randrange(n)
    (3.10 to 3.13): n.bit_length() bits from getrandbits, redrawn while >= n.
    The same words are read, so a seed gives the same chain trajectory."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def propose(path: PressingPath, n: int, bits) -> PressingPath:
    """Draw a candidate by one remove-2/add-2 move on path over n vertices,
    reading random words from bits (a getrandbits)."""
    L = len(path)
    if L < 2:
        raise PathTooShortError(f"need at least 2 presses, path has {L}")
    if n < 1:
        raise ValueError("cannot draw vertices of an empty graph")
    i = _below(bits, L)
    j = _below(bits, L - 1)
    if j >= i:
        j += 1
    lo, hi = (i, j) if i < j else (j, i)
    r = path[:lo] + path[lo + 1:hi] + path[hi + 1:]
    slot = _below(bits, L - 1)
    r = r[:slot] + (_below(bits, n),) + r[slot:]
    slot = _below(bits, L)
    return r[:slot] + (_below(bits, n),) + r[slot:]


def mh_step(g: BWGraph, path: PressingPath, bits) -> PressingPath | None:
    """One Metropolis-Hastings step from path: the accepted candidate, or
    None when the chain stays put.

    The proposal is symmetric, so the Hastings ratio is 1: accept exactly
    when the candidate is a successful path.
    """
    if len(path) < 2:
        return None
    cand = propose(path, g.n, bits)
    return cand if is_successful_path(g, cand) else None


def run_chain(
    g: BWGraph,
    steps: int,
    burn_in: int | None = None,
    seed: int = 0,
) -> ChainReport:
    """Run the chain from a greedy solution, recording post-burn-in visits.

    tv_distance compares the visit histogram against the uniform
    distribution over the exhaustively enumerated path set; it is None
    when the graph has more than paths.DEFAULT_CAP successful paths.
    """
    if burn_in is None:
        burn_in = steps // 10
    if not 0 <= burn_in < steps:
        raise ValueError(f"need 0 <= burn_in < steps, got {burn_in} / {steps}")
    path = greedy_solve(g)
    bits = random.Random(seed).getrandbits
    accepted = 0
    hist: Counter = Counter()
    for t in range(steps):
        cand = mh_step(g, path, bits)
        if cand is not None:
            path = cand
            accepted += 1
        if t >= burn_in:
            hist[path] += 1
    try:
        tv = tv_distance(hist, enumerate_successful(g))
    except CapExceededError:
        tv = None
    return ChainReport(
        graph=g,
        histogram=dict(hist),
        acceptance_rate=accepted / steps,
        tv_distance=tv,
        seed=seed,
        steps=steps,
        burn_in=burn_in,
    )


def tv_distance(hist: dict[PressingPath, int] | Counter, ps: PathSet) -> float:
    """Total variation between the empirical distribution and uniform."""
    if not ps.paths:
        raise EmptyPathSetError("uniform target needs at least one path")
    total = sum(hist.values())
    if total <= 0:
        raise ValueError("histogram is empty")
    u = 1.0 / len(ps.paths)
    return 0.5 * sum(abs(hist.get(p, 0) / total - u) for p in ps.paths)
