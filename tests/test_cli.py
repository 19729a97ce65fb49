"""End-to-end command behavior: output, exit codes, reports, files."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pressgame
from pressgame.bwgraph import format_graph, linear_graph
from pressgame.cli import load_graph, main
from pressgame.errors import CapExceededError, GraphParseError, SelfLoopError
from pressgame.permrev import SignedPermutation, build_dr, build_overlap, parse_signed_permutation
from pressgame.sampler import run_chain

from gen import all_graphs_upto, random_signed_permutation
from oracles import interval_overlap


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_payload(capsys, tmp_path, argv):
    r = tmp_path / "report.json"
    code = run(capsys, *argv, "--report", str(r))[0]
    return code, json.loads(r.read_text())["payload"]


def payload_digest(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_press_example(capsys):
    code, out, _ = run(capsys, "press", "linear:WBW", "1")
    assert code == 0
    assert out == "3\nBWB\n0 2\n"


def test_press_two_vertices_solves(capsys):
    code, out, _ = run(capsys, "press", "linear:WBW", "1", "0")
    assert code == 0
    assert out == "3\nWWW\n"


def test_distance_example(capsys):
    code, out, _ = run(capsys, "distance", "+4 -1 -6 +3 +2 +5")
    assert (code, out) == (0, "6\n")


def test_distance_identity(capsys):
    code, out, _ = run(capsys, "distance", "+1 +2 +3 +4 +5 +6")
    assert (code, out) == (0, "0\n")


def test_distance_hurdle_gate_is_input_error(capsys):
    code, _, err = run(capsys, "distance", "+2 +1")
    assert code == 2 and "non-trivial unoriented" in err


def test_overlap_output_and_dot(capsys, tmp_path):
    dot = tmp_path / "overlap.dot"
    code, out, _ = run(capsys, "overlap", "+4 -1 -6 +3 +2 +5", "--dot", str(dot))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "7" and lines[1] == "BBWWWBB"
    assert len(lines) == 2 + 13
    assert dot.read_text().startswith("graph G {")


def test_overlap_of_a_700_element_permutation_in_a_fresh_process():
    # 701 vertices: the constructor's check transposes a 1024 x 1024 bit
    # matrix, whose masks a fresh process must build in well under the limit
    p = SignedPermutation(random_signed_permutation(random.Random(700), 700))
    src = Path(pressgame.__file__).parents[1]
    script = "import sys; from pressgame.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, "overlap", str(p)],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == format_graph(interval_overlap(build_dr(p)))


def test_enumerate_example(capsys):
    code, out, _ = run(capsys, "enumerate", "linear:WBW")
    assert code == 0
    assert out == "2 paths of common length 2\n1 0\n1 2\n"


def test_enumerate_unsolvable_is_input_error(capsys):
    code, _, err = run(capsys, "enumerate", "linear:WW")
    assert code == 2 and "unoriented" in err


def test_enumerate_cap_exceeded_is_input_error(capsys):
    code, _, err = run(capsys, "enumerate", "linear:BBB", "--cap", "1")
    assert code == 2 and "successful paths" in err


def test_enumerate_parse_error_is_input_error(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("3\nBXW\n")
    assert run(capsys, "enumerate", str(f)) == (
        2, "", "error: line 2: bad color 'X' at index 1\n"
    )


def test_verify_linear_example(capsys):
    code, out, _ = run(capsys, "verify-linear", "--n-max", "3")
    assert code == 0
    assert out == (
        "PASS: 12 solvable instances at threshold 2 (linear graphs, n <= 3)\n"
    )
    code, out, _ = run(capsys, "verify-linear", "--n-max", "5", "--threshold", "1")
    assert code == 1
    assert out.splitlines()[:3] == [
        "FAIL: 58 solvable instances at threshold 1 (linear graphs, n <= 5)",
        "counterexample: colors WBBW, edges [(0, 1), (1, 2), (2, 3)]",
        "  metagraph components: [[0], [1]]",
    ]
    assert out.count("counterexample: ") == 19


@pytest.mark.slow
def test_verify_linear_n9_passes(capsys):
    code, out, _ = run(capsys, "verify-linear", "--n-max", "9")
    assert code == 0
    assert out.startswith("PASS: 1014 solvable instances at threshold 2")


def test_metagraph_exit_tracks_connectivity(capsys, tmp_path):
    code, out, _ = run(capsys, "metagraph", "linear:BWBB", "--threshold", "2")
    assert code == 0 and "connected" in out

    dot = tmp_path / "meta.dot"
    code, out, _ = run(
        capsys, "metagraph", "linear:BWBB", "--threshold", "0", "--dot", str(dot)
    )
    assert code == 1 and "DISCONNECTED" in out
    assert dot.read_text().startswith("graph M {")


N6_WITNESS = "6\nWWWWBB\n0 1\n1 2\n1 3\n2 4\n3 5\n4 5\n"


def test_metagraph_n6_witness_needs_threshold_4(capsys, tmp_path):
    src = tmp_path / "witness.txt"
    src.write_text(N6_WITNESS)
    code, out, _ = run(capsys, "metagraph", str(src), "--threshold", "3")
    assert (code, out) == (
        1, "2 paths, 0 edges at threshold 3: DISCONNECTED (min connecting threshold 4)\n"
    )
    code, out, _ = run(capsys, "metagraph", str(src), "--threshold", "4")
    assert (code, out) == (
        0, "2 paths, 1 edges at threshold 4: connected (min connecting threshold 4)\n"
    )


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "press", "linear:WBW")[0] == 2  # no vertices
    assert run(capsys, "sample", "linear:WBW")[0] == 2  # missing --steps
    assert run(capsys)[0] == 2
    for argv in (
        ("metagraph", "linear:BWBB", "--threshold", "-1"),
        ("verify-linear", "--n-max", "2", "--threshold", "-1"),
        ("verify-general", "--n-max", "1", "--threshold", "-1"),
    ):
        assert run(capsys, *argv) == (
            2, "", "error: threshold must be non-negative\n"
        )
    for argv, message in (
        (("enumerate", "linear:BWB", "--cap", "0"), "cap must be at least 1"),
        (("verify-general", "--n-max", "2", "--cap", "-1"), "cap must be at least 1"),
        (("verify-linear", "--n-max", "0"), "n_max must be at least 1"),
        (("verify-general", "--n-max", "0"), "n_max must be at least 1"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    # verify-linear has no --cap option: it sweeps at the default cap
    code, out, err = run(capsys, "verify-linear", "--n-max", "2", "--cap", "1")
    assert (code, out) == (2, "") and "unrecognized arguments: --cap 1" in err


def test_help_and_version_exit_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "--version")[0] == 0


def test_load_graph_examples(tmp_path):
    g = load_graph("linear:B")
    assert g.n == 1 and g.color_string() == "B"
    assert load_graph("LINEAR:WBW") == linear_graph("WBW")
    assert load_graph(" linear:wbw") == linear_graph("WBW")

    f = tmp_path / "g.txt"
    f.write_text("3\nWBW\n")
    g = load_graph(str(f))
    assert g.color_string() == "WBW" and g.edges() == []

    f.write_text("2\nBW\n0 0\n")
    with pytest.raises(SelfLoopError):
        load_graph(str(f))
    f.write_text("2\nBW\n0 1\n1 0\n")
    with pytest.raises(GraphParseError):
        load_graph(str(f))


def test_load_graph_round_trips_serialization(tmp_path):
    f = tmp_path / "g.txt"
    for g in all_graphs_upto(4):
        f.write_text(format_graph(g))
        assert load_graph(str(f)) == g


def test_press_does_not_mutate_input_file(capsys, tmp_path):
    f = tmp_path / "g.txt"
    text = format_graph(linear_graph("WBW"))
    f.write_text(text)
    code, out, _ = run(capsys, "press", str(f), "1")
    assert code == 0 and out == "3\nBWB\n0 2\n"
    assert f.read_text() == text


def test_report_is_stable_modulo_wall_time(capsys, tmp_path):
    r = tmp_path / "a.json"
    perm = "+4 -1 -6 +3 +2 +5"
    overlap = build_overlap(build_dr(parse_signed_permutation(perm)))
    cases = [
        (
            ("enumerate", "linear:WBW"),
            {"common_length": 2, "count": 2, "paths": ["1 0", "1 2"]},
        ),
        (("press", "linear:WBW", "1"), {"n": 3, "colors": "BWB", "edges": [[0, 2]]}),
        (("distance", perm), {"permutation": perm, "distance": 6}),
        (
            ("overlap", perm),
            {
                "permutation": perm,
                "overlap": {
                    "n": 7,
                    "colors": "BBWWWBB",
                    "edges": [list(e) for e in overlap.edges()],
                },
            },
        ),
    ]
    for argv, payload in cases:
        docs = []
        for _ in range(2):
            code, _, _ = run(capsys, *argv, "--report", str(r))
            assert code == 0
            docs.append(json.loads(r.read_text()))
        a, b = docs
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b
        assert a["payload"] == payload
        assert a["command"][0] == argv[0]
        assert a["version"] == "0.1.0"


def test_sweep_report_verdict_field(capsys, tmp_path):
    r = tmp_path / "sweep.json"
    code, _, _ = run(capsys, "verify-linear", "--n-max", "3", "--report", str(r))
    assert code == 0
    doc = json.loads(r.read_text())
    assert doc["payload"]["verdict"] == "PASS"
    assert doc["payload"]["failures"] == []
    assert doc["payload"]["instances_checked"] == 12
    assert len(doc["payload"]["stats"]) == 12
    assert all(row["min_threshold"] <= 2 for row in doc["payload"]["stats"])


@pytest.mark.parametrize(
    "argv, code, instances, digest",
    [
        (("verify-linear", "--n-max", "6"), 0, 121, "95a8049056a5040b"),
        (("verify-general", "--n-max", "3"), 0, 63, "4dfdf4a422af751b"),
        (("verify-linear", "--n-max", "5", "--threshold", "1"), 1, 58, "8bace185336a9762"),
    ],
)
def test_sweep_payload_is_pinned(capsys, tmp_path, argv, code, instances, digest):
    # rows, their order and every field, failures included; the PASS
    # digests were taken from sweeps over the colour-string families that
    # tests/oracles.py keeps
    got, payload = report_payload(capsys, tmp_path, argv)
    assert got == code
    assert payload["instances_checked"] == len(payload["stats"]) == instances
    assert payload_digest(payload) == digest


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (("metagraph", "linear:BWBB", "--threshold", "2"), 0, "9339740bf68d1317"),
        (("metagraph", "linear:BWBWBW", "--threshold", "1"), 1, "872f8f15deedd12b"),
        (("metagraph", "witness", "--threshold", "3"), 1, "b3e4169f58b83626"),
        (("metagraph", "witness", "--threshold", "4"), 0, "96608bea343cfaca"),
        (("sample", "linear:BWBB", "--steps", "20000", "--seed", "105"), 0,
         "8df0908f2c26143c"),
    ],
)
def test_graph_payload_is_pinned(capsys, tmp_path, monkeypatch, argv, code, digest):
    # every field of the payload and its order, edge tuples and histogram
    # included; "witness" is the n = 6 graph whose metagraph needs threshold 4
    monkeypatch.chdir(tmp_path)
    (tmp_path / "witness").write_text(N6_WITNESS)
    got, payload = report_payload(capsys, tmp_path, argv)
    assert got == code
    assert payload_digest(payload) == digest


def test_verify_general_cap_marks_incomplete(capsys, tmp_path):
    r = tmp_path / "sweep.json"
    code, out, _ = run(
        capsys, "verify-general", "--n-max", "2", "--cap", "1",
        "--report", str(r),
    )
    assert code == 2
    assert out.startswith("INCOMPLETE")
    doc = json.loads(r.read_text())
    assert doc["payload"]["verdict"] == "INCOMPLETE"
    incomplete = doc["payload"]["incomplete"]
    assert incomplete
    assert all(row["paths_found"] == 2 for row in incomplete)  # cap + 1


def test_real_graph_over_the_default_cap(capsys, tmp_path):
    # (BW)x7 has 23,444,883 successful paths: the count rejects it before any
    # path is built, for enumerate and for the tv distance after a chain.
    # 22 isolated black vertices have 22! paths over 2^22 press states: the
    # count stops once a small subtree passes the cap, not after every state
    f = tmp_path / "isolated.txt"
    f.write_text("22\n" + "B" * 22 + "\n")
    for source in ("linear:BWBWBWBWBWBWBW", str(f)):
        code, out, err = run(capsys, "enumerate", source)
        assert (code, out, err) == (2, "", "error: more than 1000000 successful paths\n")
    chain = run_chain(linear_graph("BWBWBWBWBWBWBW"), steps=2_000, seed=7)
    assert chain.tv_distance is None


def test_negative_threshold_is_rejected_before_enumeration(capsys):
    # the threshold is checked first, so an over-cap graph gets the same
    # message as a small one and no path is counted
    code, out, err = run(
        capsys, "metagraph", "linear:BWBWBWBWBWBWBW", "--threshold", "-1"
    )
    assert (code, out, err) == (2, "", "error: threshold must be non-negative\n")


def test_sample_report_and_reproducibility(capsys, tmp_path):
    r = tmp_path / "chain.json"
    args = ("sample", "linear:BWBB", "--steps", "2000", "--seed", "7",
            "--report", str(r))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(r.read_text())
    assert doc["payload"]["seed"] == 7
    assert 0 <= doc["payload"]["acceptance_rate"] <= 1
    assert doc["payload"]["burn_in"] == 200  # default: 10% of steps
    assert sum(doc["payload"]["histogram"].values()) == 1800

    code, out2, _ = run(capsys, *args)
    assert out2 == out1


def test_sample_prints_no_tv_above_the_cap(capsys, tmp_path, monkeypatch):
    # run_chain enumerates with the default cap after the chain; a graph with
    # more paths than that keeps its histogram and gets no tv distance
    def over_cap(g):
        raise CapExceededError(1_000_001)

    monkeypatch.setattr("pressgame.sampler.enumerate_successful", over_cap)
    chain = run_chain(linear_graph("BWBB"), steps=2_000, seed=7)
    assert chain.tv_distance is None and sum(chain.histogram.values()) == 1_800
    r = tmp_path / "chain.json"
    code, out, err = run(capsys, "sample", "linear:BWBB", "--steps", "2000",
                         "--seed", "7", "--report", str(r))
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith(", tv distance n/a (cap exceeded)")
    assert json.loads(r.read_text())["payload"]["tv_distance"] is None
