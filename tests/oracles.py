"""Independent brute-force oracles used only by the test suite.

Everything here recomputes results with naive data structures (dicts of
sets, recursion, BFS) so that the package's bitmask/DP implementations are
checked against a second, unrelated route.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from pressgame.bwgraph import (
    BWGraph,
    _press_rows,
    _unchecked,
    fold_path,
    is_all_white_empty,
    is_solvable,
    press,
)
from pressgame.errors import (
    CapExceededError,
    EmptyPathSetError,
    IndexOutOfRangeError,
    PathTooShortError,
    PressOnWhiteError,
    UnsolvableError,
)
from pressgame.meta import SweepReport, verify_instance
from pressgame.paths import PathSet, PressingPath, find_safe_press, is_successful_path
from pressgame.permrev import SignedPermutation
from pressgame.sampler import proposal_probability

from gen import all_graphs_upto


# ---------------------------------------------------------------------------
# Naive pressing game on (colors dict, edge set) pairs.

def naive_graph(color_string, edges):
    colors = {v: c for v, c in enumerate(color_string)}
    edge_set = frozenset(frozenset(e) for e in edges)
    return colors, edge_set


def as_naive(g):
    return naive_graph(g.color_string(), g.edges())


def naive_press(state, v):
    """Press v by the three definition clauses, on a dict/set encoding."""
    colors, edges = state
    assert colors[v] == "B"
    nbrs = sorted(u for e in edges if v in e for u in e if u != v)
    new_colors = dict(colors)
    for u in nbrs:
        new_colors[u] = "W" if colors[u] == "B" else "B"
    new_colors[v] = "W"
    new_edges = set(edges)
    for a, b in itertools.combinations(nbrs, 2):
        pair = frozenset((a, b))
        if pair in new_edges:
            new_edges.discard(pair)
        else:
            new_edges.add(pair)
    new_edges = {e for e in new_edges if v not in e}
    return new_colors, frozenset(new_edges)


def naive_is_done(state):
    colors, edges = state
    return not edges and all(c == "W" for c in colors.values())


def naive_successful_paths(state):
    """All successful pressing paths by plain recursion (ascending branch)."""
    out = []

    def rec(st, prefix):
        if naive_is_done(st):
            out.append(tuple(prefix))
            return
        colors, _ = st
        for v in sorted(colors):
            if colors[v] == "B":
                rec(naive_press(st, v), prefix + [v])

    rec(state, [])
    return out


def naive_solvable(state):
    """Reachability of the all-white empty graph by exhaustive search."""

    def rec(st):
        if naive_is_done(st):
            return True
        colors, _ = st
        return any(rec(naive_press(st, v)) for v in sorted(colors) if colors[v] == "B")

    return rec(state)


# ---------------------------------------------------------------------------
# Enumeration by a depth-first search over BWGraph values (the package counts
# press states first and walks only the live moves).

def dfs_enumerate(g: BWGraph, cap: int) -> PathSet:
    """Every successful path in DFS order, branching on every black vertex in
    ascending order; CapExceededError as soon as the (cap + 1)-th is found."""
    if not is_solvable(g):
        raise UnsolvableError("graph has a non-trivial unoriented component")
    found = []
    prefix = []

    def dfs(h):
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
    return PathSet(graph=g, paths=tuple(found), common_length=len(found[0]))


# ---------------------------------------------------------------------------
# The sweep one instance at a time (the package verifies each coloured
# isomorphism class once per n), brute-force canonical forms, and the class
# keys with every bit tested in Python.

def instance_sweep(label, edge_lists, n_max, threshold):
    """The sweep report by verify_instance on every instance with 1..n_max
    vertices whose edge list is in edge_lists(n), in sweep order."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    stats, failures = [], []
    for g in all_graphs_upto(n_max, edge_lists):
        try:
            v = verify_instance(g, threshold)
        except UnsolvableError:
            continue
        stats.append(v.stats)
        if v.stats.min_threshold > threshold:
            failures.append(v)
    return SweepReport(
        family=f"{label}, n <= {n_max}",
        threshold=threshold,
        stats=tuple(stats),
        failures=tuple(failures),
    )


def canonical_form(g: BWGraph):
    """The least (colour mask, adjacency rows) over every relabelling of g.

    The colour mask compares first, and its least value puts the b black
    vertices on labels 0..b-1, so only the b! (n - b)! relabellings that do
    so can reach the minimum; the others are not tried.
    """
    blacks = [v for v in range(g.n) if g.is_black(v)]
    whites = [v for v in range(g.n) if not g.is_black(v)]
    nbrs = [list(_set_bits(row)) for row in g.adj]
    best = None
    for head, tail in itertools.product(
        itertools.permutations(blacks), itertools.permutations(whites)
    ):
        order = head + tail  # order[new label] = old label
        label = {old: new for new, old in enumerate(order)}
        rows = tuple(sum(1 << label[u] for u in nbrs[old]) for old in order)
        if best is None or rows < best:
            best = rows
    return (1 << len(blacks)) - 1, best


def orbit_edge_sets(n: int):
    """meta._edge_sets with every image bit tested in Python: each edge set on
    0..n-1 in ascending edge-mask order, with the class key (R, least
    automorphic image of the colouring pulled back onto R) of each colour mask,
    R the least mask of the edge set's S_n orbit."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = {pair: b for b, pair in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    edge_maps = [[bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs] for p in perms]
    color_maps = [[sum(1 << u for u in range(n) if c >> p[u] & 1) for c in range(1 << n)]
                  for p in perms]
    orbit: dict[int, tuple[int, list[int]]] = {}  # mask -> (R, colour map onto R)
    canon: dict[int, list[int]] = {}  # R -> least automorphic image of each colour mask
    for rep in range(1 << len(pairs)):
        if rep in orbit:
            continue
        autos = []
        for edge_map, color_map in zip(edge_maps, color_maps):
            image = sum(1 << edge_map[b] for b in range(len(pairs)) if rep >> b & 1)
            if image == rep:
                autos.append(color_map)
            orbit.setdefault(image, (rep, color_map))
        canon[rep] = [min(a[c] for a in autos) for c in range(1 << n)]
    for mask in range(1 << len(pairs)):
        rep, color_map = orbit[mask]
        edges = [pair for b, pair in enumerate(pairs) if mask >> b & 1]
        yield edges, [(rep, canon[rep][color_map[c]]) for c in range(1 << n)]


# ---------------------------------------------------------------------------
# The BWGraph constructor's check, row by row over every edge.

def cellwise_transpose_masks(w):
    """The transpose swaps and diagonal of a w x w bit matrix (cell (r, c) is
    bit r*w+c), one cell at a time: swap s takes the cells with bit s in c,
    not in r, and the diagonal the cells with r == c."""
    swaps = [(s * (w - 1), sum(1 << i for i in range(w * w) if i % w & s and not i // w & s))
             for s in (w >> k for k in range(1, w.bit_length()))]
    return tuple(swaps), sum(1 << v * (w + 1) for v in range(w))


def rowwise_graph_check(n, colors, adj):
    """The ValueError message the constructor's check gives on these fields, or
    None if it accepts them: the first row (lowest v) that reaches past n-1,
    loops at v, or holds a neighbour u whose row lacks v is named."""
    if n < 0 or len(adj) != n or colors >> n:
        return "inconsistent graph fields"
    for v, row in enumerate(adj):
        if row >> n or row >> v & 1 or any(not adj[u] >> v & 1 for u in _set_bits(row)):
            return f"adjacency row {v} is not symmetric and irreflexive"
    return None


def _set_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# press with its own range and colour guards (the package's press is the
# one-vertex apply_path).

def guarded_press(g: BWGraph, v: int) -> BWGraph:
    """Press black vertex v of a copy of g, checking range and colour first."""
    if not 0 <= v < g.n:
        raise IndexOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    if not g.is_black(v):
        raise PressOnWhiteError(f"vertex {v} is white")
    adj = list(g.adj)
    colors = _press_rows(adj, g.colors, v)
    return _unchecked(g.n, colors, tuple(adj))


# ---------------------------------------------------------------------------
# Greedy solve by the public safe-press query, re-checked at every step.

def iterated_safe_press(g):
    """The greedy path by calling find_safe_press and pressing until done."""
    out = []
    while not is_all_white_empty(g):
        v = find_safe_press(g)
        out.append(v)
        g = press(g, v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Reference union-find component recomputation.

def union_find_components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def union_find_solvable(g):
    """The known solvability rule: every component of two or more vertices
    has a black vertex."""
    return all(
        any(g.is_black(v) for v in comp)
        for comp in union_find_components(g.n, g.edges())
        if len(comp) > 1
    )


# ---------------------------------------------------------------------------
# Recursive-memo LCS.

def recursive_lcs(a, b):
    memo = {}

    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if (i, j) not in memo:
            if a[i] == b[j]:
                memo[i, j] = 1 + rec(i + 1, j + 1)
            else:
                memo[i, j] = max(rec(i + 1, j), rec(i, j + 1))
        return memo[i, j]

    return rec(0, 0)


# ---------------------------------------------------------------------------
# All-pairs LCS metagraph gate (the package gates by shared subsequences).

def lcs_distinct(a, pos_b):
    """LCS against the path whose vertex->position map is pos_b.

    Pressing paths never repeat a vertex (a pressed vertex is isolated
    white forever), so LCS reduces to the longest increasing run of b's
    positions taken in a's order.
    """
    tails = []
    for v in a:
        p = pos_b.get(v)
        if p is None:
            continue
        i = bisect_left(tails, p)
        if i == len(tails):
            tails.append(p)
        else:
            tails[i] = p
    return len(tails)


def pairwise_lcs_gate(ps, k):
    """(min connecting threshold, metagraph components at threshold k).

    Every pair is bucketed by its LCS, and the buckets are merged in
    descending LCS order, so the first point of full connectivity is the
    bottleneck threshold.
    """
    paths = ps.paths
    L = ps.common_length
    pos = [{v: i for i, v in enumerate(p)} for p in paths]
    buckets = [[] for _ in range(L + 1)]
    for i, j in itertools.combinations(range(len(paths)), 2):
        buckets[lcs_distinct(paths[i], pos[j])].append((i, j))
    cutoff = max(L - k, 0)
    edges = []
    min_k = None
    components = None
    for v in range(L, -1, -1):
        edges += buckets[v]
        comps = union_find_components(len(paths), edges)
        if min_k is None and len(comps) == 1:
            min_k = L - v
        if v == cutoff:
            components = tuple(comps)
    return min_k, components


# ---------------------------------------------------------------------------
# Metagraph gate by whole bucket passes (the package keys one kept-position
# set at a time and stops each pass once the paths connect).

def whole_pass_buckets(ps: PathSet, k: int) -> list[list[int]]:
    """Path indices grouped by a shared (L-k)-subsequence, groups of two or more.

    A path never repeats a vertex, so its (L-k)-subsequences are distinct
    and each group lists ascending indices without repeats.
    """
    groups: dict[PressingPath, list[int]] = {}
    size = max(ps.common_length - k, 0)
    for i, p in enumerate(ps.paths):
        for key in itertools.combinations(p, size):
            groups.setdefault(key, []).append(i)
    return [g for g in groups.values() if len(g) > 1]


def bucket_gate(ps, k):
    """(min connecting threshold, metagraph components at threshold k).

    The subsequence buckets for d = 0, 1, ... merge into one union-find
    until it is connected, each pass bucketing every (L-d)-subsequence key
    of every path before it merges any.
    """
    parent = list(range(len(ps.paths)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(parent)
    at_k = None
    d = 0
    while True:
        for first, *rest in whole_pass_buckets(ps, d):
            root = find(first)
            for i in rest:
                if (r := find(i)) != root:
                    parent[r] = root
                    count -= 1
            if count == 1:
                break
        if d == k:
            groups = {}
            for x in range(len(parent)):
                groups.setdefault(find(x), []).append(x)
            at_k = tuple(tuple(g) for g in sorted(groups.values()))
        if count == 1:
            break
        d += 1
    if at_k is None:  # connected below k, so one component at k
        at_k = (tuple(range(len(ps.paths))),)
    return d, at_k


# ---------------------------------------------------------------------------
# BFS over the reversal graph of all signed permutations of length n.

def all_reversals(perm):
    n = len(perm)
    for i in range(n):
        for j in range(i, n):
            mid = tuple(-x for x in reversed(perm[i : j + 1]))
            yield perm[:i] + mid + perm[j + 1 :]


def reversal_distances(n):
    """Distance-to-identity map for every signed permutation of length n."""
    identity = tuple(range(1, n + 1))
    dist = {identity: 0}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        d = dist[p] + 1
        for q in all_reversals(p):
            if q not in dist:
                dist[q] = d
                queue.append(q)
    return dist


def all_signed_permutations(n):
    for order in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * m for s, m in zip(signs, order))


# ---------------------------------------------------------------------------
# Overlap graph from pairwise crossings of desire-edge intervals.

@dataclass(frozen=True)
class Interval:
    """Positions spanned by a desire edge, 1-indexed, lo < hi."""

    lo: int
    hi: int

    def covered(self):
        return self.hi - self.lo - 1

    def strictly_crosses(self, other):
        a, b = (self, other) if self.lo < other.lo else (other, self)
        return a.lo < b.lo < a.hi < b.hi


def interval_spans(seq):
    """The interval of each desire edge k (labels 2k, 2k+1) of a doubled
    sequence, read from a label -> 1-based position dict."""
    pos = {label: idx + 1 for idx, label in enumerate(seq)}
    spans = []
    for k in range(len(seq) // 2):
        a, b = pos[2 * k], pos[2 * k + 1]
        spans.append(Interval(min(a, b), max(a, b)))
    return spans


def interval_overlap(seq):
    """Overlap graph of a doubled sequence: desire edge k is black iff its
    interval covers an odd number of positions, and two desire edges are
    adjacent iff their intervals strictly cross."""
    spans = interval_spans(seq)
    colors = ["B" if s.covered() % 2 else "W" for s in spans]
    edges = [
        (j, k)
        for j in range(len(spans))
        for k in range(j + 1, len(spans))
        if spans[j].strictly_crosses(spans[k])
    ]
    return BWGraph.from_parts(colors, edges)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of every remove-2/add-2 draw.

def brute_force_proposal(src, dst, n):
    """Probability that one draw maps src to dst, counting all draws."""
    L = len(src)
    hits = 0
    total = 0
    for i in range(L):
        for j in range(i + 1, L):
            r0 = src[:i] + src[i + 1 : j] + src[j + 1 :]
            for s1 in range(L - 1):
                for lab1 in range(n):
                    r1 = r0[:s1] + (lab1,) + r0[s1:]
                    for s2 in range(L):
                        for lab2 in range(n):
                            total += 1
                            if r1[:s2] + (lab2,) + r1[s2:] == dst:
                                hits += 1
    return Fraction(hits, total)


# ---------------------------------------------------------------------------
# The chain's exact transition matrix, from the exact proposal probability.

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


# ---------------------------------------------------------------------------
# The chain one visit per step, drawing, building and folding every
# candidate: the draw, the move and the loop that mh_step's inline draws, its
# rejection of a repeated vertex from the six draws, before the splice, and
# run_chain's run lengths replace.

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
    reading random words from bits (a getrandbits): the positions i != j to
    delete, then the first (slot, label) and the second (slot, label); the
    candidate is path without positions i and j, then a inserted at slot1,
    then b at slot2."""
    L = len(path)
    if L < 2:
        raise PathTooShortError(f"need at least 2 presses, path has {L}")
    if n < 1:
        raise ValueError("cannot draw vertices of an empty graph")
    i = _below(bits, L)
    j = _below(bits, L - 1)
    if j >= i:
        j += 1
    slot1 = _below(bits, L - 1)
    a = _below(bits, n)
    slot2 = _below(bits, L)
    b = _below(bits, n)
    kept = [v for k, v in enumerate(path) if k != i and k != j]
    kept.insert(slot1, a)
    kept.insert(slot2, b)
    return tuple(kept)


def chain_visits(g: BWGraph, path, seed: int, steps: int):
    """(the path after each of steps moves from path, the steps at which a
    candidate was accepted), reading random.Random(seed) as run_chain does."""
    bits = random.Random(seed).getrandbits
    visits, moves = [], []
    for t in range(steps):
        if len(path) >= 2:
            cand = propose(path, g.n, bits)
            if is_successful_path(g, cand):
                path = cand
                moves.append(t)
        visits.append(path)
    return visits, moves


# ---------------------------------------------------------------------------
# The --report writer that one record per line replaced: the whole document
# indented through json's pure-Python encoder; and the sweep payload with a
# dict per record, which cli encodes without building.

def indented_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def sweep_payload(r: SweepReport) -> dict:
    """The sweep payload read off the report alone, every record a dict, for
    the writer to encode like any other record."""

    def graph(g: BWGraph) -> dict:
        return {"n": g.n, "colors": g.color_string(), "edges": g.edges()}

    return {
        "family": r.family,
        "threshold": r.threshold,
        "verdict": "FAIL" if r.failures else "PASS",
        "instances_checked": len(r.stats),
        "failures": [
            {
                "graph": graph(f.path_set.graph),
                "paths": [" ".join(map(str, p)) for p in f.path_set.paths],
                "components": [list(c) for c in f.components],
            }
            for f in r.failures
        ],
        "incomplete": [],
        "stats": [
            {
                "graph": graph(s.graph),
                "path_count": s.path_count,
                "connected": s.min_threshold <= r.threshold,
                "min_threshold": s.min_threshold,
            }
            for s in r.stats
        ],
    }


# ---------------------------------------------------------------------------
# Helpers only the tests call: the validity half of is_successful_path and
# the inverse of build_dr.

def is_valid_path(g: BWGraph, path) -> bool:
    """Each vertex must be black at its press time."""
    return fold_path(g, path)[0] is None


def dr_to_permutation(seq: tuple[int, ...]) -> SignedPermutation:
    """Read the signed permutation back off the doubled sequence."""
    elems = []
    for t in range(len(seq) // 2 - 1):
        a, b = seq[2 * t + 1], seq[2 * t + 2]
        m = (max(a, b) + 1) // 2
        elems.append(m if a < b else -m)
    return SignedPermutation(tuple(elems))
