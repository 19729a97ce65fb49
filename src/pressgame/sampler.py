"""Metropolis-Hastings sampling of successful pressing paths.

One move: delete an unordered pair of positions from the current path,
then insert two (slot, label) choices drawn uniformly, and accept the
result only if it is again a successful pressing path.  No Hastings
correction is needed: q(P->Q) counts the deletion results P and Q share,
over a denominator fixed by the path length and vertex count, so q is
symmetric and the stationary distribution is uniform over the path set.
proposal_probability gives q exactly, for exact_transition_matrix and the
detailed-balance tests.

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
    DEFAULT_CAP,
    PathSet,
    PressingPath,
    enumerate_successful,
    greedy_solve,
    is_successful_path,
)


@dataclass
class ChainState:
    graph: BWGraph
    current: PressingPath
    rng: random.Random
    seed: int
    step_count: int = 0
    accept_count: int = 0


@dataclass(frozen=True)
class ChainReport:
    graph: BWGraph
    histogram: dict[PressingPath, int]
    acceptance_rate: float
    tv_distance: float | None  # None when enumeration exceeded the cap
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
    (3.10 and 3.11): n.bit_length() bits from getrandbits, redrawn while >= n.
    The same words are read, so a seed gives the same chain trajectory."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def propose(s: ChainState) -> PressingPath:
    """Draw a candidate path by one remove-2/add-2 move."""
    path = s.current
    L = len(path)
    if L < 2:
        raise PathTooShortError(f"need at least 2 presses, path has {L}")
    n = s.graph.n
    if n < 1:
        raise ValueError("cannot draw vertices of an empty graph")
    bits = s.rng.getrandbits
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


def mh_step(s: ChainState) -> ChainState:
    """One Metropolis-Hastings step, in place; stays put on rejection.

    The proposal is symmetric, so the Hastings ratio is 1: accept exactly
    when the candidate is a successful path.
    """
    s.step_count += 1
    if len(s.current) < 2:
        return s
    cand = propose(s)
    if not is_successful_path(s.graph, cand):
        return s
    s.current = cand
    s.accept_count += 1
    return s


def run_chain(
    g: BWGraph,
    steps: int,
    burn_in: int | None = None,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> ChainReport:
    """Run the chain from a greedy solution, recording post-burn-in visits.

    tv_distance compares the visit histogram against the uniform
    distribution over the exhaustively enumerated path set; it is None
    when enumeration blows past cap.
    """
    if burn_in is None:
        burn_in = steps // 10
    if not 0 <= burn_in < steps:
        raise ValueError(f"need 0 <= burn_in < steps, got {burn_in} / {steps}")
    s = ChainState(graph=g, current=greedy_solve(g), rng=random.Random(seed), seed=seed)
    hist: Counter = Counter()
    for t in range(steps):
        mh_step(s)
        if t >= burn_in:
            hist[s.current] += 1
    try:
        tv = tv_distance(hist, enumerate_successful(g, cap))
    except CapExceededError:
        tv = None
    return ChainReport(
        graph=g,
        histogram=dict(hist),
        acceptance_rate=s.accept_count / steps,
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


def exact_transition_matrix(ps: PathSet) -> list[list[Fraction]]:
    """MH transition matrix over ps.paths in exact rational arithmetic.

    Row i: off-diagonal entries are q(i->j), since mh_step accepts every
    proposal that lands on a successful path; the diagonal absorbs the
    rest.  The matrix is symmetric exactly when q is, which is what makes
    the uniform distribution stationary.  Path sets with common length
    below 2 yield the identity matrix.
    """
    if not ps.paths:
        raise EmptyPathSetError("transition matrix needs at least one path")
    paths = ps.paths
    count = len(paths)
    one = Fraction(1)
    if ps.common_length < 2:
        return [[one if i == j else Fraction(0) for j in range(count)] for i in range(count)]
    n = ps.graph.n
    t = [[Fraction(0)] * count for _ in range(count)]
    for i in range(count):
        for j in range(count):
            if j != i:
                t[i][j] = proposal_probability(paths[i], paths[j], n)
        t[i][i] = one - sum(t[i])
    return t
