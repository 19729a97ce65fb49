"""The four benchmark workloads: inputs, one timed pass, correctness oracle.

A pass is one closed-loop call from the harness into pressgame, timed from
the call to its verdict; the correctness check runs after the clock stops.
Each pass returns the items it attempted and failed, per-item latencies,
and a comparable output.  Times are read from the Speedometer's clock, and
the item probes give it the chance to take a speed checkpoint between items.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).resolve().parent / "reference"

CHAIN_GRAPH = "BWBB"
CHAIN_STEPS = 1_000_000  # criterion 7; at 200k steps some seeds exceed TV 0.05
CHAIN_BLOCK = 1_000  # MH steps per chain item
PERM_N = 31  # 32-vertex overlap graphs, the bwgraph size limit
PERMS_PER_PASS = 128  # the per-pass item tail is then p92


@dataclass
class PassResult:
    start: float  # Speedometer.clock() at the call
    end: float  # ... and at the verdict
    attempted: int
    failed: int
    items: array = field(default_factory=lambda: array("d"))  # start, duration, ...
    output: object = None

    def item_times(self):
        """(start, duration) of each item."""
        return zip(self.items[::2], self.items[1::2])


def graph_key(colors: str, edges) -> str:
    """Instance identity used by the reference tables."""
    return colors + "|" + ",".join(f"{u}-{v}" for u, v in edges)


def load_reference(name: str) -> dict[str, tuple[int, int]]:
    """graph key -> (path_count, min_threshold), from make_reference.py."""
    with gzip.open(REFERENCE / f"{name}.tsv.gz", "rt") as fh:
        rows = (line.split("\t") for line in fh if not line.startswith("#"))
        return {f"{c}|{e}": (int(p), int(m)) for c, e, p, m in rows}


class _GcTime:
    """Total time the cyclic garbage collector ran while installed.

    Item latencies exclude it: a collection is set off by the allocations
    of many items but lands in whichever one allocates last, and on
    sweep_general about 8 full collections per pass would otherwise decide
    the p99.97 item tail.  Collector time stays in the pass time.
    """

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
        else:
            self.total += perf_counter() - self._start

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class _Probe:
    """Timing-only probe on one function: every `every`-th call it lets the
    meter take a speed checkpoint, then records the time since the previous
    such call (every=1: each call's own duration), less collector time.
    Restores the binding on exit.  Costs about 1 us per call."""

    def __init__(self, module, attr: str, meter, every: int = 1):
        self.module, self.attr, self.meter, self.every = module, attr, meter, every
        self.items = array("d")
        self.gc_time = _GcTime()

    def __enter__(self):
        fn = self.original = getattr(self.module, self.attr)
        items, meter, clock, gct = self.items, self.meter, self.meter.clock, self.gc_time
        if self.every == 1:
            def timed(*args, **kwargs):
                meter.check()
                t0, g0 = clock(), gct.total
                ret = fn(*args, **kwargs)
                items.extend((t0, clock() - t0 - (gct.total - g0)))
                return ret
        else:
            every, state = self.every, [0, None, 0.0]

            def timed(*args, **kwargs):
                if state[0] % every == 0:
                    if state[1] is not None:
                        items.extend((state[1], clock() - state[1] - (gct.total - state[2])))
                    meter.check()
                    state[1], state[2] = clock(), gct.total
                state[0] += 1
                return fn(*args, **kwargs)
        self.gc_time.__enter__()
        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)
        self.gc_time.__exit__()


def _run_cli(pg, argv: list[str], meter) -> tuple[int, float, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = meter.clock()
        code = pg.cli.main(argv)
        end = meter.clock()
    return code, start, end


def _compact(obj: dict):
    """json object_hook keeping only what the sweep oracle reads, so that
    parsing the report stays well below the sweep's own memory peak."""
    if "colors" in obj and "edges" in obj:
        return graph_key(obj["colors"], obj["edges"])
    if "path_count" in obj:
        return (obj.get("graph"), obj.get("path_count"), obj.get("min_threshold"))
    return obj


class Sweep:
    """One `verify-*` CLI call per pass; items are sweep instances."""

    min_passes = 2

    def __init__(self, name: str, argv: list[str], expected: int):
        self.name, self.argv, self.expected = name, argv, expected

    def setup(self, pg, seed: int):
        return None  # exhaustive family: the seed is unused

    def reference(self):
        return load_reference(self.name)

    def run_pass(self, pg, inputs, ref, tmp: str, meter, probe: bool) -> PassResult:
        report = os.path.join(tmp, "report.json")
        with contextlib.ExitStack() as stack:
            items = stack.enter_context(_Probe(pg.meta, "verify_instance", meter)).items \
                if probe else array("d")
            code, start, end = _run_cli(pg, self.argv + ["--report", report], meter)
        with open(report) as fh:
            payload = json.load(fh, object_hook=_compact)["payload"]
        os.remove(report)
        rows = {key: (pc, mt) for key, pc, mt in payload["stats"]}
        if (
            code != 0
            or payload.get("verdict") != "PASS"
            or payload.get("instances_checked") != self.expected
            or len(ref) != self.expected
        ):
            failed = self.expected
        else:
            failed = sum(rows.get(k) != v for k, v in ref.items()) + len(rows.keys() - ref.keys())
        del payload["stats"]
        digest = hashlib.sha256(repr(sorted(rows.items())).encode()).hexdigest()
        return PassResult(
            start, end, self.expected, min(failed, self.expected), items,
            output=(code, payload, digest),
        )


def _oracle_paths(colors: str) -> set[tuple[int, ...]]:
    """Successful paths of a linear graph by brute force on edge sets,
    independent of pressgame (small graphs only)."""
    n = len(colors)
    start = (frozenset(i for i, c in enumerate(colors) if c == "B"),
             frozenset(frozenset((i, i + 1)) for i in range(n - 1)))
    out = set()

    def walk(black, edges, prefix):
        if not black:
            if not edges:
                out.add(tuple(prefix))
            return
        for v in sorted(black):
            nbrs = {u for e in edges if v in e for u in e if u != v}
            rest = {e for e in edges if v not in e}
            for a in nbrs:
                for b in nbrs:
                    if a < b:
                        rest ^= {frozenset((a, b))}
            walk((black ^ nbrs) - {v}, frozenset(rest), prefix + [v])

    walk(*start, [])
    return out


class Chain:
    """One `sample` CLI call per pass; items are blocks of MH steps, the
    correctness unit is the chain run."""

    name = "chain"
    min_passes = 1  # one pass is about 40 s

    def setup(self, pg, seed: int):
        return ["sample", f"linear:{CHAIN_GRAPH}", "--steps", str(CHAIN_STEPS),
                "--seed", str(seed)]

    def reference(self):
        return _oracle_paths(CHAIN_GRAPH)

    def run_pass(self, pg, argv, ref, tmp: str, meter, probe: bool) -> PassResult:
        report = os.path.join(tmp, "chain.json")
        with contextlib.ExitStack() as stack:
            items = stack.enter_context(
                _Probe(pg.sampler, "mh_step", meter, CHAIN_BLOCK)
            ).items if probe else array("d")
            code, start, end = _run_cli(pg, argv + ["--report", report], meter)
        with open(report) as fh:
            payload = json.load(fh)["payload"]
        os.remove(report)
        hist = {tuple(int(v) for v in k.split()): c for k, c in payload["histogram"].items()}
        total = sum(hist.values())
        tv = 0.5 * sum(abs(hist.get(p, 0) / total - 1 / len(ref)) for p in ref)
        ok = (
            code == 0
            and set(hist) <= ref
            and total == CHAIN_STEPS - payload["burn_in"]
            and tv < 0.05
            and abs(payload["tv_distance"] - tv) < 1e-9
        )
        return PassResult(start, end, 1, 0 if ok else 1, items, output=(code, payload))


class ReversalSort:
    """Seeded random hurdle-free signed permutations; each is sorted by
    greedy safe presses, with every press checked against its reversal."""

    name = "reversal_sort"
    min_passes = 2

    def setup(self, pg, seed: int):
        rng = random.Random(seed)
        perms = []
        while len(perms) < PERMS_PER_PASS:
            order = list(range(1, PERM_N + 1))
            rng.shuffle(order)
            p = pg.permrev.SignedPermutation(
                tuple(m if rng.random() < 0.5 else -m for m in order)
            )
            # the greedy solve and the n+1-c formula need a hurdle-free input
            if pg.bwgraph.is_solvable(pg.permrev.build_overlap(pg.permrev.build_dr(p))):
                perms.append(p)
        return perms

    def reference(self):
        return None

    def run_pass(self, pg, perms, ref, tmp: str, meter, probe: bool) -> PassResult:
        items, outputs, failed = array("d"), [], 0
        with _GcTime() as gc_time:
            start = meter.clock()
            for p in perms:
                if probe:
                    meter.check()
                t0, g0 = meter.clock(), gc_time.total
                path = self._sort(pg, p)
                items.extend((t0, meter.clock() - t0 - (gc_time.total - g0)))
                outputs.append(path)
                failed += path is None
            end = meter.clock()
        return PassResult(start, end, len(perms), failed, items, outputs)

    @staticmethod
    def _sort(pg, p):
        """The greedy press path that sorts p, or None if any check fails."""
        permrev, paths, bwgraph = pg.permrev, pg.paths, pg.bwgraph
        try:
            g = permrev.build_overlap(permrev.build_dr(p))
            path = paths.greedy_solve(g)
            ok, q = True, p
            for v in path:
                q = permrev.reversal_on_desire_edge(q, v)
                g = bwgraph.press(g, v)
                if permrev.build_overlap(permrev.build_dr(q)) != g:
                    ok = False
            distance = permrev.reversal_distance_hurdle_free(p)
        except pg.errors.GameError:
            return None
        return path if ok and q.is_identity() and len(path) == distance else None


WORKLOADS = {
    "sweep_linear": Sweep("sweep_linear", ["verify-linear", "--n-max", "7"], 248),
    "sweep_general": Sweep(
        "sweep_general", ["verify-general", "--n-max", "5", "--threshold", "4"], 31_742
    ),
    "chain": Chain(),
    "reversal_sort": ReversalSort(),
}
