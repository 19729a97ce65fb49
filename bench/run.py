"""pressgame benchmark: one workload per process, result as a JSON last line.

    python3 bench/run.py --workload sweep_linear --seed 1 --seconds 15 --trace 0

Run from the repository root (any checkout holding src/pressgame).  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it first times untraced passes, then traced passes, and prints
the per-layer metrics and the tracing overhead.  Every pass's output is
checked; failures are counted in the result's `failed` field.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import tracing
from speed import Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("errors", "bwgraph", "paths", "meta", "permrev", "sampler", "cli")
SETUP_REPEATS = 15  # set-up is timed this many times; setup_s is the median


def import_pressgame() -> SimpleNamespace:
    """Import pressgame afresh (dropping any earlier import) from SRC."""
    for name in [m for m in sys.modules if m == "pressgame" or m.startswith("pressgame.")]:
        del sys.modules[name]
    pg = SimpleNamespace(
        **{m: importlib.import_module(f"pressgame.{m}") for m in MODULES}
    )
    if not Path(pg.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"pressgame imported from {pg.cli.__file__}, not {SRC}")
    return pg


def measure(run_pass, meter, seconds: float, min_passes: int) -> list:
    """At least min_passes whole passes, then more while the next one is
    expected (from the last one's duration) to end within `seconds`.  A
    speed checkpoint is taken after every pass."""
    results = []
    start = meter.clock()
    while (
        len(results) < min_passes
        or meter.clock() - start + results[-1].end - results[-1].start <= seconds
    ):
        results.append(run_pass())
        meter.checkpoint()
    return results


def item_latencies(passes, meter) -> list[float]:
    """Each item's lower-median scaled latency over the run's passes.

    Items repeat in the same order in every pass.  The lower median of an
    item's repetitions drops the host's transient stalls (on sweep_general
    they outnumber the 10 samples beyond the tail) and, unlike the minimum,
    also the passes whose speed factor came out too low.
    """
    runs = [[d * meter.factor(t) for t, d in r.item_times()] for r in passes]
    return [statistics.median_low(ds) for ds in zip(*runs)]


def environment() -> dict:
    """Recorded with every result, not gated."""
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "pressgame").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pressgame" / "__init__.py").is_file():
        print(f"error: no pressgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    meter = Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = meter.clock()
        pg = import_pressgame()
        inputs = wl.setup(pg, args.seed)
        setup_times.append((t0, meter.clock() - t0))
    meter.checkpoint()
    ref = wl.reference()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        first_output = []

        def run_pass(probe=True):
            r = wl.run_pass(pg, inputs, ref, tmp, meter, probe)
            if not first_output:
                first_output.append(r.output)
            elif r.output == first_output[0]:
                r.output = None  # keep one copy of the output only
            return r

        if args.trace:
            plain = measure(run_pass, meter, args.seconds / 3, 1)
            tracer = tracing.Tracer()
            records = []

            def traced_pass():
                tracer.begin()
                r = run_pass(probe=False)
                records.append(tracer.end())
                # tracing must not change what the program computes
                if r.output is not None:
                    r.failed = r.attempted
                return r

            with tracer.installed(pg):
                traced = measure(traced_pass, meter, args.seconds * 2 / 3, 1)
            passes = plain + traced
        else:
            passes = measure(run_pass, meter, args.seconds, wl.min_passes)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    env = environment()
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed} of {attempted} items failed; env {json.dumps(env)}")
    print("# raw pass s: " + " ".join(f"{r.end - r.start:.4f}" for r in passes)
          + "; speed: " + " ".join(f"{meter.factor(r.start):.3f}" for r in passes)
          + f"; raw setup s: {statistics.median(d for _, d in setup_times):.5f}")

    def wall(r):
        return meter.scaled(r.start, r.end)

    if args.trace:
        base = statistics.median(wall(r) for r in plain)
        per_pass = []
        for rec, r in zip(records, traced):
            speed = wall(r) / (r.end - r.start)
            per_pass.append({
                name: v * speed if tracing.UNITS[name] in ("s", "ms") else v
                for name, v in tracing.layer_metrics(rec, r.end - r.start).items()
            })
        metrics = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            # counts are exact per pass; times are the median over passes
            metrics[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
        metrics["trace_overhead_frac"] = metrics["traced_wall_s"] / base - 1
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "passes": [{"wall_s": r.end - r.start, **_spans_out(rec)}
                                  for rec, r in zip(records, traced)]}, fh)
        for name, value in metrics.items():
            print(f"#   {name:48s} {value:14.6g} {tracing.UNITS[name]}")
        out = {name: metric(value, tracing.UNITS[name]) for name, value in metrics.items()}
    else:
        items = item_latencies(passes, meter)
        tail_s, pct, count = tracing.tail(items)
        print(f"# items: {count}, each the lower median of {len(passes)} passes; "
              f"tail is p{pct:.3f}")
        out = {
            "wall_s": metric(statistics.median(wall(r) for r in passes), "s"),
            "setup_s": metric(
                statistics.median(d * meter.factor(t) for t, d in setup_times), "s"
            ),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "item_p50_ms": metric(statistics.median(items) * 1000, "ms"),
            "item_tail_ms": metric(tail_s * 1000, "ms"),
        }
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def _spans_out(rec: dict) -> dict:
    """Trace file form: spans as [name, start, end, parent], times relative
    to the first span; hot calls as [parent span, path, calls, total, self]."""
    t0 = rec["spans"][0][1] if rec["spans"] else 0.0
    return {
        "spans": [[n, s - t0, e - t0, p] for n, s, e, p in rec["spans"]],
        "aggregates": [[idx, path, *v] for (idx, path), v in rec["agg"].items()],
    }


if __name__ == "__main__":
    sys.exit(main())
