"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench

They run the real workloads (about three minutes in all), so they are kept
out of the package's own test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402


class FakeClock:
    """perf_counter stand-in that only moves when work() is called."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, amount):
        self.now += amount


def test_self_time_arithmetic_on_a_nested_call(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    t = tracing.Tracer()
    inner = t.wrap("bwgraph.press", lambda: clock.work(5), hot=True)
    middle = t.wrap("paths.find_safe_press", lambda: (clock.work(1), inner()), hot=False)

    def outer_body():
        clock.work(3)
        inner()
        clock.work(2)
        middle()

    outer = t.wrap("meta.verify_instance", outer_body, hot=False)
    t.begin()
    outer()
    rec = t.end()
    assert rec["stats"] == {
        "bwgraph.press": [2, 10.0, 10.0],
        "paths.find_safe_press": [1, 6.0, 1.0],
        "meta.verify_instance": [1, 16.0, 5.0],
    }
    # hot calls are aggregated under their nearest stored span
    assert rec["agg"] == {(0, "bwgraph.press"): [1, 5.0, 5.0],
                          (1, "bwgraph.press"): [1, 5.0, 5.0]}
    assert [s[0] for s in rec["spans"]] == ["meta.verify_instance", "paths.find_safe_press"]
    assert [s[3] for s in rec["spans"]] == [-1, 0]
    m = tracing.layer_metrics(rec, wall_s=20.0)
    assert (m["bwgraph.self_s"], m["paths.self_s"], m["meta.self_s"]) == (10.0, 1.0, 5.0)
    assert m["harness.self_s"] == 4.0
    assert t.end()["stats"] == {}  # end() detaches the pass


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tracing.tail(list(range(100))) == (89, 90.0, 100)
    assert tracing.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _bindings(pg):
    out = {}
    for name, (home, attr, namespaces, _) in tracing.TARGETS.items():
        if "." in attr:
            cls, meth = attr.split(".")
            out[name] = getattr(getattr(pg, home), cls).__dict__[meth]
        for ns in namespaces:
            out[name, ns] = getattr(getattr(pg, ns), attr, None)
    return out


def test_wrappers_are_installed_and_then_restored():
    pg = run.import_pressgame()
    before = _bindings(pg)
    t = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed(pg):
            assert pg.paths.press is not before["bwgraph.press", "paths"]
            assert pg.paths.press.__wrapped__ is before["bwgraph.press", "paths"]
            stats, _, _ = pg.meta.verify_instance(pg.bwgraph.linear_graph("WBW"), 2)
            assert stats.path_count == 2
            raise RuntimeError("leave the block early")
    after = _bindings(pg)
    assert all(after[k] is v for k, v in before.items())
    calls = {name: s[0] for name, s in t.end()["stats"].items()}
    assert calls["meta.verify_instance"] == calls["paths.enumerate_successful"] == 1


def test_chain_oracle_agrees_with_enumeration():
    pg = run.import_pressgame()
    for colors in ("BWBB", "BBBBB", "WBWBW", "BWBWBW"):
        ps = pg.paths.enumerate_successful(pg.bwgraph.linear_graph(colors))
        assert workloads._oracle_paths(colors) == set(ps.paths)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_give_identical_outputs(name, tmp_path):
    pg = run.import_pressgame()
    wl = workloads.WORKLOADS[name]
    inputs, ref, meter = wl.setup(pg, 7), wl.reference(), Speedometer()
    plain = wl.run_pass(pg, inputs, ref, str(tmp_path), meter, probe=True)
    t = tracing.Tracer()
    with t.installed(pg):
        t.begin()
        traced = wl.run_pass(pg, inputs, ref, str(tmp_path), meter, probe=False)
        rec = t.end()
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted > 0
    assert plain.items
    assert plain.output == traced.output
    wall = traced.end - traced.start
    m = tracing.layer_metrics(rec, wall)
    # layer self times never exceed the pass; the harness gets the rest
    assert 0 < m["harness.self_s"] < wall


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_result_line_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    base = ["--workload", "reversal_sort", "--seed", "3", "--seconds", "0.5"]
    for trace_flag, key in (("0", "end_to_end"), ("1", "per_layer")):
        res = _result(base + ["--trace", trace_flag])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
