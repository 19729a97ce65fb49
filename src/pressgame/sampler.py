"""Metropolis-Hastings sampling of successful pressing paths.

One move: delete an unordered pair of positions from the current path,
then insert two (slot, label) choices drawn uniformly, and accept the
result only if it is again a successful pressing path.  q(P->Q) counts the
(L-2)-subsequences P and Q share, the keys meta.build_metagraph(ps, 2)
groups paths by, over a denominator fixed by the length L and vertex count.
So q is symmetric and needs no Hastings correction, and a move P -> Q != P
exists exactly when P and Q are joined in the threshold-2 metagraph: the
visits converge to uniform over the path set only when that metagraph is
connected, and otherwise never leave the start path's component.
proposal_probability gives q exactly, for the detailed-balance tests.

Shortcuts that keep every trajectory (propose and chain_visits in
tests/oracles.py are the move and the chain without them): mh_step draws
inline, by the loop of CPython's randrange(m) (3.10 to 3.13: m.bit_length()
bits, redrawn while >= m), reading the words propose reads through _below;
it rejects a candidate that repeats a vertex from its six draws, before the
splice builds it, as a pressed vertex is left white and isolated; run_chain
adds each run on one path to the histogram when the run ends.

Length-0 and length-1 paths admit no remove-2/add-2 move; those chains
are single-state by construction and run_chain reports them as such.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


def proposal_probability(src: PressingPath, dst: PressingPath, n: int) -> Fraction:
    """Exact probability that one remove-2/add-2 draw turns src into dst.

    A draw is (deletion pair, first (slot, label), second (slot, label)),
    all uniform.  Each way of writing dst as src minus a position pair
    plus a final position pair is realized by exactly 2 insertion orders,
    so the count reduces to matching (L-2)-subsequences of both paths,
    where the two labels dst drops are ones a draw can produce: in range(n).
    """
    L = len(src)
    if L < 2:
        raise PathTooShortError(f"need at least 2 presses, path has {L}")
    if n < 1:
        raise ValueError("cannot draw vertices of an empty graph")
    if len(dst) != L:
        return Fraction(0)
    drops = [(p, q) for p, q in combinations(range(L), 2) if 0 <= dst[p] < n and 0 <= dst[q] < n]
    cd = Counter(dst[:p] + dst[p + 1:q] + dst[q + 1:] for p, q in drops)
    matches = sum(m * cd[r] for r, m in Counter(combinations(src, L - 2)).items())
    denom = (L * (L - 1) // 2) * (L - 1) * n * L * n
    return Fraction(2 * matches, denom)


def mh_step(g: BWGraph, path: PressingPath, bits) -> PressingPath | None:
    """One Metropolis-Hastings step from path: the accepted candidate, or
    None when the chain stays put.

    Reads six draws from bits (a getrandbits) in the order a seed's trajectory
    depends on: positions i != j to delete, then the first and the second
    (slot, label).  The Hastings ratio is 1: accept exactly when the candidate
    is a successful path.  A label equal to the other or to a kept press
    repeats a vertex: rejected before the splice.
    """
    L, n = len(path), g.n
    if L < 2:
        return None
    if n < 1:
        raise ValueError("cannot draw vertices of an empty graph")
    kL, kM, kn = L.bit_length(), (L - 1).bit_length(), n.bit_length()
    i = bits(kL)
    while i >= L:
        i = bits(kL)
    j = bits(kM)
    while j >= L - 1:
        j = bits(kM)
    if j >= i:
        j += 1
    slot1 = bits(kM)
    while slot1 >= L - 1:
        slot1 = bits(kM)
    a = bits(kn)
    while a >= n:
        a = bits(kn)
    slot2 = bits(kL)
    while slot2 >= L:
        slot2 = bits(kL)
    b = bits(kn)
    while b >= n:
        b = bits(kn)
    gone = (path[i], path[j])
    if a == b or (a in path and a not in gone) or (b in path and b not in gone):
        return None
    lo, hi = (i, j) if i < j else (j, i)
    r = path[:lo] + path[lo + 1:hi] + path[hi + 1:]
    r = r[:slot1] + (a,) + r[slot1:]
    cand = r[:slot2] + (b,) + r[slot2:]
    return cand if is_successful_path(g, cand) else None


def run_chain(
    g: BWGraph,
    steps: int,
    burn_in: int | None = None,
    seed: int = 0,
) -> ChainReport:
    """Run the chain from a greedy solution, recording post-burn-in visits.

    Each run on one path, from step t0 to the move accepted at t1, adds
    t1 - max(t0, burn_in) visits, as one visit per step would; mh_step
    skips the fold only for candidates the fold would reject.
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
    since = burn_in  # first counted step on the current path
    for t in range(steps):
        cand = mh_step(g, path, bits)
        if cand is not None:
            if t > since:
                hist[path] += t - since
            path, since = cand, max(t, burn_in)
            accepted += 1
    hist[path] += steps - since
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
