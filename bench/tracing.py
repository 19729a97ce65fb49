"""Outside-in span tracing of pressgame, installed and removed by the bench.

The tracer rebinds public functions in the namespaces of the modules that
call them, so each call that crosses a layer boundary (plus a few named
intra-layer entry points) becomes a span.  Nothing under src/ knows about
it.  Self time of a span is its duration minus the time of its child
spans; the tracer's own bookkeeping is excluded from both, so it lands in
the harness share of the wall time.

Functions called more than about 1e5 times per run are "hot": their calls
are not stored one by one but aggregated per (nearest stored ancestor span,
path of hot names below it), which keeps the trace small.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("bwgraph", "paths", "meta", "sampler", "permrev", "cli")

# name -> (defining module, attribute, calling-module namespaces, hot)
# The name's prefix is the layer.  A namespace that does not bind the
# attribute is skipped, so a refactor that drops a call site reports zero
# calls instead of breaking the benchmark.
TARGETS = {
    "bwgraph.press": ("bwgraph", "press", ("bwgraph", "paths"), True),
    "bwgraph.is_solvable": ("bwgraph", "is_solvable", ("paths", "meta"), True),
    "bwgraph.classify_components": (
        "bwgraph", "classify_components", ("paths", "permrev"), True),
    "bwgraph.from_parts": ("bwgraph", "BWGraph.from_parts", (), True),
    "bwgraph.linear_graph": ("bwgraph", "linear_graph", ("meta", "cli"), False),
    "paths.enumerate_successful": (
        "paths", "enumerate_successful", ("meta", "sampler", "cli"), False),
    "paths.is_successful_path": ("paths", "is_successful_path", ("sampler",), True),
    "paths.greedy_solve": ("paths", "greedy_solve", ("paths", "sampler"), False),
    "paths.find_safe_press": ("paths", "find_safe_press", ("paths",), False),
    "meta.verify_instance": ("meta", "verify_instance", ("meta",), False),
    "meta.verify_linear_family": ("meta", "verify_linear_family", ("cli",), False),
    "meta.verify_general_family": ("meta", "verify_general_family", ("cli",), False),
    "sampler.run_chain": ("sampler", "run_chain", ("cli",), False),
    "sampler.mh_step": ("sampler", "mh_step", ("sampler",), True),
    "sampler.proposal_probability": (
        "sampler", "proposal_probability", ("sampler",), True),
    "permrev.build_dr": ("permrev", "build_dr", ("permrev",), False),
    "permrev.build_overlap": ("permrev", "build_overlap", ("permrev",), False),
    "permrev.reversal_on_desire_edge": (
        "permrev", "reversal_on_desire_edge", ("permrev",), False),
    "permrev.reversal_distance_hurdle_free": (
        "permrev", "reversal_distance_hurdle_free", ("permrev",), False),
    "cli.main": ("cli", "main", ("cli",), False),
    "cli.write_report": ("cli", "write_report", ("cli",), False),
}


def _count_paths(extra, parent, args, ret):
    p = len(ret.paths)
    extra["paths.enumerate_successful.paths_out"] += p
    if parent == "meta.verify_instance":
        extra["meta.pairs"] += p * (p - 1) // 2


def _count_true(extra, parent, args, ret):
    extra["paths.is_successful_path.true"] += bool(ret)


def _count_accepts(extra, parent, args, ret):
    extra["sampler.accepted"] += round(ret.acceptance_rate * ret.steps)
    extra["sampler.steps"] += ret.steps


def _count_report_bytes(extra, parent, args, ret):
    extra["cli.report_bytes"] += os.path.getsize(args[1])


HOOKS = {
    "paths.enumerate_successful": _count_paths,
    "paths.is_successful_path": _count_true,
    "sampler.run_chain": _count_accepts,
    "cli.write_report": _count_report_bytes,
}


class Tracer:
    """In-memory span recorder; one pass at a time, see begin()/end()."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [child_time, name, span_idx, hot_path]
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.by_parent: Counter = Counter()  # (parent name, name) -> calls
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.agg: dict[tuple[int, str], list[float]] = {}  # -> [calls, total_s, self_s]
        self.extra: Counter = Counter()

    def begin(self) -> None:
        """Clear the per-pass state (in place: wrappers hold references)."""
        self.stack.clear()
        self.stats.clear()
        self.by_parent.clear()
        self.spans.clear()
        self.agg.clear()
        self.extra.clear()

    def end(self) -> dict:
        """Detach this pass's records from the tracer and return them."""
        out = {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "by_parent": Counter(self.by_parent),
            "spans": list(self.spans),
            "agg": {k: list(v) for k, v in self.agg.items()},
            "extra": Counter(self.extra),
        }
        self.begin()
        return out

    def wrap(self, name: str, fn, hot: bool):
        stack, stats, by_parent = self.stack, self.stats, self.by_parent
        spans, agg, extra = self.spans, self.agg, self.extra
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            t_in = perf_counter()
            parent = stack[-1] if stack else None
            parent_name = parent[1] if parent else None
            parent_idx = parent[2] if parent else -1
            if hot:
                idx = parent_idx
                path = f"{parent[3]}/{name}" if parent and parent[3] else name
            else:
                idx = len(spans)
                spans.append(None)
                path = ""
            frame = [0.0, name, idx, path]
            stack.append(frame)
            t0 = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_t = dur - frame[0]
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += self_t
                by_parent[parent_name, name] += 1
                if hot:
                    a = agg.get((idx, path))
                    if a is None:
                        a = agg[idx, path] = [0, 0.0, 0.0]
                    a[0] += 1
                    a[1] += dur
                    a[2] += self_t
                else:
                    spans[idx] = (name, t0, t1, parent_idx)
            if hook is not None:
                hook(extra, parent_name, args, ret)
            if parent is not None:
                parent[0] += perf_counter() - t_in
            return ret

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, pg):
        """Rebind every TARGETS entry found in pg; restore all on exit."""
        saved = []
        try:
            for name, (home, attr, namespaces, hot) in TARGETS.items():
                if "." in attr:  # classmethod on a class of the home module
                    cls_name, meth = attr.split(".")
                    cls = getattr(getattr(pg, home), cls_name)
                    raw = cls.__dict__[meth]
                    saved.append((cls, meth, raw))
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, hot)))
                    continue
                original = getattr(getattr(pg, home), attr)
                wrapper = self.wrap(name, original, hot)
                for ns_name in namespaces:
                    ns = getattr(pg, ns_name)
                    if ns.__dict__.get(attr) is original:
                        saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least 10 samples beyond it; the maximum when there are 10 or fewer."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


# Per-layer metrics of a traced pass, in report order, with their units.
UNITS = {
    **{f"{n}.{k}": u for n in (
        "bwgraph.press", "bwgraph.is_solvable", "paths.enumerate_successful",
        "paths.is_successful_path", "meta.verify_instance", "sampler.mh_step",
        "sampler.proposal_probability", "permrev.build_overlap",
    ) for k, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{n}.self_s": "s" for n in (
        "bwgraph.from_parts", "paths.greedy_solve", "permrev.build_dr",
        "permrev.reversal_on_desire_edge", "permrev.reversal_distance_hurdle_free",
        "cli.main", "cli.write_report",
    )},
    "paths.find_safe_press.calls": "count",
    "paths.enumerate_successful.paths_out": "count",
    "paths.enumerate_successful.paths_per_press": "ratio",
    "paths.is_successful_path.true_frac": "fraction",
    "meta.pairs": "count",
    "meta.verify_instance.tail_ms": "ms",
    "sampler.accept_frac": "fraction",
    "cli.report_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "harness.self_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "fraction",
}


def layer_metrics(rec: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose timed body took wall_s
    (all of UNITS but trace_overhead_frac, which needs an untraced pass)."""
    stats, extra, by_parent = rec["stats"], rec["extra"], rec["by_parent"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, unit in UNITS.items():
        fn, _, kind = name.rpartition(".")
        if fn in TARGETS and kind in ("calls", "self_s"):
            m[name] = stats.get(fn, (0, 0.0, 0.0))[0 if kind == "calls" else 2]
    m["paths.enumerate_successful.paths_out"] = extra["paths.enumerate_successful.paths_out"]
    m["paths.enumerate_successful.paths_per_press"] = ratio(
        extra["paths.enumerate_successful.paths_out"],
        by_parent["paths.enumerate_successful", "bwgraph.press"],
    )
    m["paths.is_successful_path.true_frac"] = ratio(
        extra["paths.is_successful_path.true"],
        m["paths.is_successful_path.calls"],
    )
    m["meta.pairs"] = extra["meta.pairs"]
    instance_s = [e - s for n, s, e, _ in rec["spans"] if n == "meta.verify_instance"]
    m["meta.verify_instance.tail_ms"] = tail(instance_s)[0] * 1000
    m["sampler.accept_frac"] = ratio(extra["sampler.accepted"], extra["sampler.steps"])
    m["cli.report_bytes"] = extra["cli.report_bytes"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, s) in stats.items():
        layer_self[name.split(".")[0]] += s
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    m["harness.self_s"] = wall_s - sum(layer_self.values())
    m["traced_wall_s"] = wall_s
    return {name: m[name] for name in UNITS if name in m}
