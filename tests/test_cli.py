"""End-to-end command behavior: output, exit codes, reports, files."""

import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

import pytest

import pressgame
from pressgame.bwgraph import BWGraph, format_graph, linear_graph
from pressgame.cli import _encode, _sweep_payload, _write_json, load_graph, main, write_report
from pressgame.errors import CapExceededError, GraphParseError, SelfLoopError
from pressgame.meta import SweepReport, verify_general_family, verify_linear_family
from pressgame.paths import DEFAULT_CAP
from pressgame.permrev import SignedPermutation, build_dr, build_overlap, parse_signed_permutation
from pressgame.sampler import run_chain

from gen import all_graphs_upto, random_signed_permutation
from oracles import indented_report, interval_overlap, sweep_payload


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


def test_press_errors_name_the_vertex(capsys):
    # press runs through apply_path: one message per bad vertex, exit 2, no stdout
    for argv, err in [
        (("linear:WBW", "0"), "vertex 0 is not black at path position 0"),
        (("linear:WBW", "1", "1"), "vertex 1 is not black at path position 1"),
        (("linear:WBW", "3"), "vertex 3 outside 0..2"),
        (("linear:", "0"), "vertex 0 outside a graph with no vertices"),
    ]:
        assert run(capsys, "press", *argv) == (2, "", f"error: {err}\n"), argv


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


def _main_in_a_fresh_process(*argv):
    """(exit code, stdout lines, stderr, peak kB) of main(argv) in a fresh process.
    The peak is the child's VmHWM: Linux carries ru_maxrss over exec, so that
    would read at least the forking test process's own resident size."""
    src = Path(pressgame.__file__).parents[1]
    script = ("import sys; from pressgame.cli import main; code = main(sys.argv[1:]); "
              "print(code, *next(line.split()[1:2] for line in open('/proc/self/status') "
              "if line.startswith('VmHWM:')))")
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    *out, last = done.stdout.splitlines()
    code, peak_kib = map(int, last.split())
    return code, out, done.stderr, peak_kib


@pytest.mark.slow
@pytest.mark.parametrize("report", [False, True], ids=["stdout", "report"])
def test_labelled_n_6_sweep_stays_small_in_a_fresh_process(tmp_path, report):
    # the sweep keeps a graph per edge set and a class tail per colouring, not
    # a row per member: 2,069,969 member rows would take about 200 MB
    argv = ["verify-general", "--n-max", "6", *(["--report", str(tmp_path / "r.json")] * report)]
    code, out, err, peak_kib = _main_in_a_fresh_process(*argv)
    assert out[0] == "PASS: 2069969 solvable instances at threshold 4 (all labeled graphs, n <= 6)"
    assert code == 0 and peak_kib < 120 * 1024, (peak_kib, err)
    if report:  # line by line: the report is hundreds of MB
        with open(tmp_path / "r.json") as fh:
            assert '    "instances_checked": 2069969,\n' in fh


@pytest.mark.slow
def test_labelled_n_6_threshold_1_sweep_is_refused_in_a_fresh_process(tmp_path):
    # its 1,503,963 failures would hold 41,369,136 witness paths, over 3.6 GB,
    # so the sweep stops after its classes, before any witness is verified
    report = tmp_path / "r.json"
    code, out, err, peak_kib = _main_in_a_fresh_process(
        "verify-general", "--n-max", "6", "--threshold", "1", "--report", str(report))
    assert (code, out) == (2, [])
    assert err == "error: the failures hold 41369136 witness paths, more than 10000000\n"
    assert peak_kib < 120 * 1024 and not report.exists(), peak_kib


def test_verify_refuses_failures_past_the_witness_path_bound(capsys, tmp_path, monkeypatch):
    # the 141 failures of labelled n <= 4 at threshold 1 hold 576 witness paths
    monkeypatch.setattr("pressgame.meta._EDGE_CAP", 575)
    report = tmp_path / "r.json"
    code, out, err = run(capsys, "verify-general", "--n-max", "4", "--threshold", "1",
                         "--report", str(report))
    assert (code, out, err) == (2, "", "error: the failures hold 576 witness paths, more than 575\n")
    assert not report.exists()


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


def test_metagraph_over_the_edge_cap_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch):
    # 11,529 paths at threshold 3 give 25,386,499 candidate pairs, over the
    # 10,000,000 build_metagraph allows, so it stops before building any.  The
    # witness plus the path B W^8 has 10,010 paths: at threshold 4 its
    # 10,010 * C(15, 4) keys pass the bound, at 3 its candidate pairs do.
    # Either refusal comes before the connectivity gate, which takes seconds here.
    # The 442,827 paths of (BW)x6 share the one key () at threshold 12, so
    # their 98,047,654,551 candidate pairs, which no memory holds, are refused
    def gate(ps, k):
        raise AssertionError("the connectivity gate ran before the bounds refused")

    monkeypatch.setattr("pressgame.meta.connectivity", gate)
    monkeypatch.setattr("pressgame.cli.connectivity", gate)
    long_tail = tmp_path / "witness_and_path.txt"
    long_tail.write_text(
        "15\nWWWWBBBWWWWWWWW\n0 1\n1 2\n1 3\n2 4\n3 5\n4 5\n"
        + "".join(f"{v} {v + 1}\n" for v in range(6, 14))
    )
    dot, report = tmp_path / "m.dot", tmp_path / "m.json"
    pairs = "error: threshold 3 gives more than 10000000 candidate metagraph edges\n"
    for source, k, err in (
        ("linear:BWBWBWBWBW", "3", pairs),
        (str(long_tail), "3", pairs),
        (str(long_tail), "4", "error: threshold 4 needs more than 10000000 subsequence keys\n"),
        ("linear:BWBWBWBWBWBW", "12",
         "error: threshold 12 gives more than 10000000 candidate metagraph edges\n"),
    ):
        argv = ("metagraph", source, "--threshold", k, "--dot", str(dot), "--report", str(report))
        assert run(capsys, *argv) == (2, "", err), (source, k)
        assert not dot.exists() and not report.exists()


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
        (("verify-linear", "--n-max", "0"), "n_max must be at least 1"),
        (("verify-general", "--n-max", "0"), "n_max must be at least 1"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    # the sweeps have no --cap option: their n bounds keep them under the default cap
    for command in ("verify-linear", "verify-general"):
        code, out, err = run(capsys, command, "--n-max", "2", "--cap", "1")
        assert (code, out) == (2, "") and "unrecognized arguments: --cap 1" in err, command


def test_help_and_version_exit_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for family in ("linear", "labeled"):
        assert f"metagraph connectivity over all {family} graphs" in out
    for command in ("verify-linear", "verify-general"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "--threshold" in out, command
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


def written_report(capsys, tmp_path, monkeypatch, argv):
    """(exit code, the dict main handed write_report, the report file's
    text); a sweep's payload in that dict is rebuilt by the oracle
    sweep_payload, with dict rows.  "witness" in argv names the n = 6 graph
    N6_WITNESS."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "witness").write_text(N6_WITNESS)
    handed, sweeps = [], []

    def capture(report, path):
        handed.append(report)
        write_report(report, path)

    def capture_sweep(r):
        sweeps.append(r)
        return _sweep_payload(r)

    monkeypatch.setattr("pressgame.cli.write_report", capture)
    monkeypatch.setattr("pressgame.cli._sweep_payload", capture_sweep)
    code = run(capsys, *argv, "--report", "r.json")[0]
    (report,) = handed
    if sweeps:
        report = {**report, "payload": sweep_payload(*sweeps)}
    return code, report, (tmp_path / "r.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("press", "linear:WBW", "1"),
        ("overlap", "+4 -1 -6 +3 +2 +5"),
        ("distance", "+4 -1 -6 +3 +2 +5"),
        ("enumerate", "linear:BWBB"),
        ("metagraph", "linear:BWBB", "--threshold", "2"),
        ("metagraph", "witness", "--threshold", "3"),
        ("verify-linear", "--n-max", "5", "--threshold", "1"),
        ("verify-general", "--n-max", "4", "--threshold", "1"),
        ("sample", "linear:BWBB", "--steps", "2000", "--seed", "7"),
    ],
    ids=["press", "overlap", "distance", "enumerate", "metagraph", "metagraph-witness",
         "verify-linear-fail", "verify-general-fail", "sample"],
)
def test_report_parses_as_the_indented_writer(capsys, tmp_path, monkeypatch, argv):
    # the one-record-per-line layout changes the bytes, not the document
    _, report, text = written_report(capsys, tmp_path, monkeypatch, argv)
    assert json.loads(text) == json.loads(indented_report(report))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-linear", "--n-max", "5", "--threshold", "1"),
        ("verify-general", "--n-max", "4", "--threshold", "1"),
    ],
    ids=["stats-failures", "general-fail"],
)
def test_report_writes_one_record_per_line(capsys, tmp_path, monkeypatch, argv):
    # each record of a sweep's lists is one line that parses on its own, and
    # writing the parsed document again gives the same bytes
    _, _, text = written_report(capsys, tmp_path, monkeypatch, argv)
    doc = json.loads(text)
    lines = text.splitlines()
    for key in ("failures", "incomplete", "stats"):
        records = doc["payload"][key]
        if not records:
            assert f'    "{key}": [],' in lines
            continue
        i = lines.index(f'    "{key}": [')
        rows = lines[i + 1 : i + 1 + len(records)]
        assert [json.loads(row.removesuffix(",")) for row in rows] == records, key
        assert lines[i + 1 + len(records)] in ("    ]", "    ],"), key
    again = tmp_path / "again.json"
    write_report(doc, str(again))
    assert again.read_bytes() == (tmp_path / "r.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-general", "--n-max", "5"),
        ("verify-linear", "--n-max", "8"),
        ("verify-linear", "--n-max", "5", "--threshold", "1"),
        ("verify-general", "--n-max", "2", "--threshold", "0"),
        ("verify-general", "--n-max", "4", "--threshold", "1"),
    ],
    ids=["general-5", "linear-8", "linear-fail", "general-capped", "general-capped-shared"],
)
def test_sweep_rows_are_the_bytes_of_the_dict_rows(capsys, tmp_path, monkeypatch, argv):
    # every record of a sweep's lists encoded from the sweep's rows, with no
    # dict, against the oracle's dict records through the writer's encoder:
    # passes, and failures with "connected": false rows; the "capped" inputs
    # cap the threshold below some instances' minimum (2 and 141 failures),
    # so verify-general's failures share their edge sets with stats rows
    _, report, text = written_report(capsys, tmp_path, monkeypatch, argv)
    assert report["payload"]["stats"]
    write_report(report, "dicts.json")
    dicts = (tmp_path / "dicts.json").read_text()
    # shows the first differing line, not a diff of two files of up to 5 MB
    first = next(((a, b) for a, b in zip_longest(text.splitlines(), dicts.splitlines())
                  if a != b), None)
    assert first is None
    assert text == dicts


def test_hand_built_rows_with_equal_distinct_adj_are_the_dict_bytes(tmp_path):
    # the encoder encodes each member's edge list and keeps colour strings by
    # (n, mask); members built by hand that interleave two edge sets, with
    # equal graphs that are distinct objects and () tails for unsolvable
    # colourings, must still be written as the rows' dicts
    path, path_copy = (BWGraph.from_parts("WWW", [(0, 1), (1, 2)]) for _ in range(2))
    star, star_copy = (BWGraph.from_parts("WWW", [(1, 0), (0, 2)]) for _ in range(2))
    assert path == path_copy and path is not path_copy and star is not star_copy
    assert path.adj is not path_copy.adj
    members = ((path, ((), (2, 0), (), (4, 2), (), (), (), ())),
               (star, ((), (1, 1), (), (), (), (1, 0), (), ())),
               (path_copy, ((), (2, 0), (1, 0), (), (), (), (), ())),
               (star_copy, ((), (), (), (), (2, 3), (), (), ())))
    r = SweepReport(family="hand-built", threshold=1, members=members, failures=())
    assert r.instances_checked == len(r.stats) == 7
    write_report(_sweep_payload(r), str(tmp_path / "r.json"))
    lines = (tmp_path / "r.json").read_text().splitlines()
    start = lines.index('  "stats": [') + 1
    assert [line.strip().removesuffix(",") for line in lines[start:start + len(r.stats) + 1]] == [
        *map(_encode, sweep_payload(r)["stats"]), "]"]


@pytest.mark.parametrize("sweep, n_max, edge_sets", [
    (verify_general_family, 4, 75), (verify_linear_family, 7, 7)], ids=["general-4", "linear-7"])
def test_stats_rows_list_each_edge_set_once(monkeypatch, sweep, n_max, edge_sets):
    # a sweep keeps one graph per edge set, so the stats rows list the edges
    # of each edge set once, not once per row
    r = sweep(n_max)
    assert len({row.adj for row in r.stats}) == edge_sets < len(r.stats)
    edges, calls = BWGraph.edges, []
    monkeypatch.setattr(BWGraph, "edges", lambda g: calls.append(g.adj) or edges(g))
    assert sum(1 for _ in _sweep_payload(r)["stats"]) == len(r.stats)
    assert len(calls) == edge_sets


def test_sweep_rows_are_read_as_they_are_written(tmp_path):
    # the payload holds no record's text: each member and each failure is
    # read only when its first record is written, so a report never holds
    # every encoded record at once (a failing labelled n <= 6 sweep at
    # threshold 1 has 1,503,963 failures); the one pass before writing is
    # instances_checked, written ahead of the rows, which keeps no member
    class Counted(tuple):
        read = 0

        def __iter__(self):
            for item in super().__iter__():
                self.read += 1
                yield item

    r = verify_linear_family(5, 1)
    members, fails = Counted(r.members), Counted(r.failures)
    payload = _sweep_payload(dataclasses.replace(r, members=members, failures=fails))
    assert (members.read, fails.read) == (len(r.members), 0)
    members.read = 0
    written = []  # (members read, failures read, text) per write

    class Sink:
        def write(self, text):
            written.append((members.read, fails.read, text))

    _write_json(Sink(), payload, "")
    records = [read for read, _, text in written if '"path_count"' in text]
    assert records == [i for i, (_, tails) in enumerate(r.members, 1) for tail in tails if tail]
    assert len(records) == len(r.stats) and set(records) == {1, 2, 3, 4, 5}
    failures = [read for _, read, text in written if '"components"' in text]
    assert failures == list(range(1, len(r.failures) + 1)) and len(failures) == 19
    write_report(_sweep_payload(r), str(tmp_path / "r.json"))
    assert "".join(text for *_, text in written) + "\n" == (tmp_path / "r.json").read_text()


def test_wall_time_excludes_the_report(capsys, tmp_path, monkeypatch):
    # the clock stops when the handler returns, before the payload is built
    def slow_payload(r):
        time.sleep(0.3)
        return _sweep_payload(r)

    monkeypatch.setattr("pressgame.cli._sweep_payload", slow_payload)
    r = tmp_path / "r.json"
    assert run(capsys, "verify-linear", "--n-max", "3", "--report", str(r))[0] == 0
    assert json.loads(r.read_text())["wall_time"] < 0.3


def test_unwritable_report_is_input_error(capsys, tmp_path):
    # the command's own output comes first; exit 1 would read as a counterexample
    _, plain, _ = run(capsys, "enumerate", "linear:WBW")
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        code, out, err = run(capsys, "enumerate", "linear:WBW", "--report", str(target))
        assert (code, out) == (2, plain), target
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [("overlap", "+4 -1 -6 +3 +2 +5"), ("metagraph", "linear:BWBB", "--threshold", "2")],
)
def test_unwritable_dot_is_input_error(capsys, tmp_path, argv):
    # the command's output comes first, and no --report follows a failed --dot
    _, plain, _ = run(capsys, *argv)
    r = tmp_path / "r.json"
    dot = tmp_path / "missing" / "m.dot"
    code, out, err = run(capsys, *argv, "--dot", str(dot), "--report", str(r))
    assert (code, out) == (2, plain)
    assert err == f"error: [Errno 2] No such file or directory: {str(dot)!r}\n"
    assert not r.exists()


@pytest.mark.parametrize(
    "argv, code, instances, digest",
    [
        (("verify-linear", "--n-max", "6"), 0, 121, "95a8049056a5040b"),
        (("verify-general", "--n-max", "3"), 0, 63, "4dfdf4a422af751b"),
        (("verify-linear", "--n-max", "5", "--threshold", "1"), 1, 58, "8bace185336a9762"),
        (("verify-general", "--n-max", "4", "--threshold", "1"), 1, 972, "277c060da8de449a"),
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


def test_sweep_past_the_cap_is_an_input_error(capsys, tmp_path, monkeypatch):
    # the n bounds keep every sweep instance under the cap, so a sweep catches
    # no CapExceededError: were one raised, the sweep would stop with exit 2,
    # one error line and no report, never a truncated verdict
    def over_cap(g):
        raise CapExceededError(DEFAULT_CAP + 1)

    monkeypatch.setattr("pressgame.meta.enumerate_successful", over_cap)
    r = tmp_path / "r.json"
    for command in ("verify-general", "verify-linear"):
        assert run(capsys, command, "--n-max", "2", "--report", str(r)) == (
            2, "", "error: more than 1000000 successful paths\n"
        ), command
        assert not r.exists(), command


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


def test_paths_too_long_to_recurse_are_input_errors(capsys):
    # the count and the walk recurse once per press; past Python's recursion
    # limit every command that enumerates exits 2 with one error line
    one_long_path = "linear:B" + "W" * 1_100  # one path of 1,101 presses
    for argv in (
        ("enumerate", one_long_path),
        ("metagraph", one_long_path, "--threshold", "2"),
        ("sample", "linear:" + "BW" * 600, "--steps", "10"),
    ):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, "error: successful paths too long to enumerate\n"), argv[0]


def test_payloads_are_built_only_under_report(capsys, tmp_path, monkeypatch):
    # each handler hands main a payload builder; without --report none runs
    argvs = [
        ("press", "linear:WBW", "1"),
        ("enumerate", "linear:WBW"),
        ("verify-linear", "--n-max", "3"),
        ("sample", "linear:BWBB", "--steps", "500", "--seed", "3"),
    ]
    outs = [run(capsys, *argv) for argv in argvs]

    def unused(*args):
        raise AssertionError("payload built without --report")

    for name in ("_graph_payload", "_pathset_payload", "_sweep_payload", "_chain_payload"):
        monkeypatch.setattr(f"pressgame.cli.{name}", unused)
    for argv, out in zip(argvs, outs):
        assert out[0] == 0 and run(capsys, *argv) == out, argv[0]
    with pytest.raises(AssertionError, match="payload built"):  # the patch took effect
        main([*argvs[0], "--report", str(tmp_path / "r.json")])


def test_verify_general_past_n6_exits_2_before_any_graph(capsys, monkeypatch):
    # n = 7 alone has 2^21 edge sets x 128 colourings, which no cap bounds
    def unreachable(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr("pressgame.meta._sweep", unreachable)
    monkeypatch.setattr("pressgame.meta._edge_sets", unreachable)
    message = "n_max must be at most 6: n = 7 has 2^21 edge sets x 128 colourings"
    for n_max in ("7", "8", "1000"):
        start = time.perf_counter()
        assert run(capsys, "verify-general", "--n-max", n_max) == (2, "", f"error: {message}\n")
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_general_family(7)
    with pytest.raises(AssertionError, match="sweep started"):  # the patch took effect
        verify_general_family(6)


def test_verify_linear_past_n11_exits_2_before_any_graph(capsys, monkeypatch):
    # n = 12 has linear graphs of up to 1,760,000 successful paths, past the
    # enumeration cap
    def unreachable(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr("pressgame.meta._sweep", unreachable)
    monkeypatch.setattr("pressgame.meta._path", unreachable)
    message = ("n_max must be at most 11: n = 12 has linear graphs "
               "of up to 1,760,000 successful paths")
    for n_max in ("12", "13", "1000"):
        start = time.perf_counter()
        assert run(capsys, "verify-linear", "--n-max", n_max) == (2, "", f"error: {message}\n")
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_linear_family(12)
    with pytest.raises(AssertionError, match="sweep started"):  # the patch took effect
        verify_linear_family(11)


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
