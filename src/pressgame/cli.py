"""Command-line front end.

Eight subcommands, one per capability: press, overlap, distance,
enumerate, metagraph, verify-linear, verify-general, sample.  Exit codes:
0 success or property verified, 1 property violated or counterexample
found, 2 input or usage error, a --report or --dot file that cannot be
written (after the output; a failed --dot writes no --report), or a graph
past the enumeration cap (no sweep reaches it within its n bound).

Reports are built only under --report, as JSON with sorted keys so that
reruns of a deterministic command diff cleanly; wall_time, the command's own
time without building or writing the report, is the one field excluded
from that stability guarantee.  Each dict outside a list is written one
key per line, indented two spaces per level; a list of records (dicts),
such as a sweep's stats rows and failures, is written one compact record
per line, and every other value compactly on its key's line, so one
changed instance is one changed line.  A record list may be an iterator of
records already encoded, each written as it comes: a sweep's failures go
through _encode one at a time, and only its stats rows are encoded by hand,
with one colour string per (n, mask) and one graph tail per run of rows with
equal adj, encoded again only when adj differs in value from the last row's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator
from functools import partial
from typing import Callable

from . import __version__
from .bwgraph import (
    BWGraph,
    apply_path,
    format_graph,
    graph_to_dot,
    linear_graph,
    parse_graph,
)
from .errors import GameError
from .meta import (
    SweepReport,
    build_metagraph,
    connectivity,
    metagraph_to_dot,
    verify_general_family,
    verify_linear_family,
)
from .paths import DEFAULT_CAP, PathSet, enumerate_successful, format_path, format_paths
from .permrev import (
    build_dr,
    build_overlap,
    parse_signed_permutation,
    reversal_distance_hurdle_free,
)
from .sampler import ChainReport, run_chain

Outcome = tuple[int, Callable[[], dict], str]  # exit code, --report payload builder, input


def load_graph(source: str) -> BWGraph:
    """Graph from a file path or the linear:BWBW... shorthand (prefix
    case-insensitive, surrounding whitespace ignored)."""
    head, colon, colors = source.strip().partition(":")
    if colon and head.lower() == "linear":
        return linear_graph(colors)
    with open(source) as fh:
        return parse_graph(fh.read())


_encode = json.JSONEncoder(sort_keys=True).encode  # no indent: the C encoder


def _write_json(fh, value, pad: str) -> None:
    """value as JSON in the module docstring's layout, an iterator as records
    already encoded; pad is the indentation of the line holding its opening bracket."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for key in sorted(value):
            fh.write(f"{sep}{inner}{_encode(key)}: ")
            _write_json(fh, value[key], inner)
            sep = ",\n"
        fh.write(f"\n{pad}}}")
    elif isinstance(value, Iterator) or isinstance(value, list) and all(
            isinstance(x, dict) for x in value):
        sep = "[\n"
        for record in value if isinstance(value, Iterator) else map(_encode, value):
            fh.write(f"{sep}{inner}{record}")  # each written as it comes, none held after
            sep = ",\n"
        fh.write("[]" if sep == "[\n" else f"\n{pad}]")
    else:
        fh.write(_encode(value))


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        _write_json(fh, report, "")
        fh.write("\n")


def _graph_payload(g: BWGraph) -> dict:
    return {"n": g.n, "colors": g.color_string(), "edges": g.edges()}


def _pathset_payload(ps: PathSet) -> dict:
    return {
        "common_length": ps.common_length,
        "count": len(ps.paths),
        "paths": [format_path(p) for p in ps.paths],
    }


def _sweep_payload(r: SweepReport) -> dict:
    def stats_records():
        # a stats row is encoded into the bytes _encode gives its dict, with no dict built;
        # a run of rows with equal adj shares one graph tail, and (n, mask) one colour string
        threshold, color_str, last = r.threshold, {}, None
        for row in r.stats:
            n, colors, adj, count, min_k = row
            if adj != last:
                last = adj
                mid = f'", "edges": {_encode(row.graph.edges())}, "n": {n}}}, "min_threshold": '
            text = color_str.get(key := colors | 1 << n)
            if text is None:
                text = color_str[key] = row.graph.color_string()
            yield (f'{{"connected": {"true" if min_k <= threshold else "false"}, '
                   f'"graph": {{"colors": "{text}{mid}{min_k}, "path_count": {count}}}')

    return {
        "family": r.family,
        "threshold": r.threshold,
        "verdict": r.verdict,
        "instances_checked": r.instances_checked,
        "failures": (
            _encode({"components": f.components, "graph": _graph_payload(f.path_set.graph),
                     "paths": [format_path(p) for p in f.path_set.paths]}) for f in r.failures),
        "incomplete": [],  # no sweep is capped; kept so reports parse as before
        "stats": stats_records(),
    }


def _chain_payload(r: ChainReport) -> dict:
    return {
        "graph": _graph_payload(r.graph),
        "seed": r.seed,
        "steps": r.steps,
        "burn_in": r.burn_in,
        "acceptance_rate": r.acceptance_rate,
        "tv_distance": r.tv_distance,
        "histogram": {format_path(p): c for p, c in sorted(r.histogram.items())},
    }


def _print_sweep(r: SweepReport) -> None:
    print(
        f"{r.verdict}: {r.instances_checked} solvable instances "
        f"at threshold {r.threshold} ({r.family})"
    )
    for f in r.failures:
        g = f.path_set.graph
        print(f"counterexample: colors {g.color_string()}, edges {g.edges()}")
        print(f"  metagraph components: {[list(c) for c in f.components]}")


def cmd_press(args) -> Outcome:
    g = load_graph(args.graph)
    h = apply_path(g, args.vertices)
    sys.stdout.write(format_graph(h))
    return 0, partial(_graph_payload, h), args.graph


def cmd_overlap(args) -> Outcome:
    p = parse_signed_permutation(args.perm)
    g = build_overlap(build_dr(p))
    sys.stdout.write(format_graph(g))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph_to_dot(g))
    return 0, lambda: {"permutation": str(p), "overlap": _graph_payload(g)}, args.perm


def cmd_distance(args) -> Outcome:
    p = parse_signed_permutation(args.perm)
    d = reversal_distance_hurdle_free(p)
    print(d)
    return 0, lambda: {"permutation": str(p), "distance": d}, args.perm


def cmd_enumerate(args) -> Outcome:
    g = load_graph(args.graph)
    ps = enumerate_successful(g, args.cap)
    print(f"{len(ps.paths)} paths of common length {ps.common_length}")
    sys.stdout.write(format_paths(ps))
    return 0, partial(_pathset_payload, ps), args.graph


def cmd_metagraph(args) -> Outcome:
    g = load_graph(args.graph)
    if args.threshold < 0:  # before any path is counted
        raise ValueError("threshold must be non-negative")
    ps = enumerate_successful(g)
    edges = build_metagraph(ps, args.threshold)  # its bounds refuse before the gate runs
    min_k = connectivity(ps, args.threshold)[0]
    connected = min_k <= args.threshold
    print(
        f"{len(ps.paths)} paths, {len(edges)} edges at threshold "
        f"{args.threshold}: {'connected' if connected else 'DISCONNECTED'} "
        f"(min connecting threshold {min_k})"
    )
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(metagraph_to_dot(ps, edges))
    return (0 if connected else 1), lambda: {
        "graph": _graph_payload(g),
        "threshold": args.threshold,
        "connected": connected,
        "min_connect_threshold": min_k,
        "edge_count": len(edges),
        "edges": edges,
        **_pathset_payload(ps),
    }, args.graph


def cmd_verify(args) -> Outcome:
    # an omitted --threshold leaves the sweep its own default
    r = args.sweep(args.n_max, *(() if args.threshold is None else (args.threshold,)))
    _print_sweep(r)
    return (1 if r.failures else 0), partial(_sweep_payload, r), r.family


def cmd_sample(args) -> Outcome:
    g = load_graph(args.graph)
    r = run_chain(g, steps=args.steps, burn_in=args.burn_in, seed=args.seed)
    tv = "n/a (cap exceeded)" if r.tv_distance is None else f"{r.tv_distance:.4f}"
    print(
        f"{r.steps} steps (burn-in {r.burn_in}, seed {r.seed}): "
        f"acceptance rate {r.acceptance_rate:.4f}, tv distance {tv}"
    )
    for p, count in sorted(r.histogram.items()):
        print(f"  {format_path(p)}: {count}")
    return 0, partial(_chain_payload, r), args.graph


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressgame",
        description="Pressing games, reversal distances, metagraph sweeps, "
        "and uniform path sampling.  Graphs are file paths or linear:BWBW "
        "shorthand; permutations look like \"+4 -1 -6 +3 +2 +5\".",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", metavar="FILE")
    add_parser = partial(sub.add_parser, parents=[common])

    p = add_parser("press", help="press vertices in order, print the result")
    p.add_argument("graph")
    p.add_argument("vertices", nargs="+", type=int)
    p.set_defaults(handler=cmd_press)

    p = add_parser("overlap", help="overlap graph of a signed permutation")
    p.add_argument("perm")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(handler=cmd_overlap)

    p = add_parser("distance", help="hurdle-free reversal distance")
    p.add_argument("perm")
    p.set_defaults(handler=cmd_distance)

    p = add_parser("enumerate", help="every successful pressing path")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(handler=cmd_enumerate)

    p = add_parser(
        "metagraph",
        help="LCS-gated graph over the successful paths (exit 1 if disconnected)",
    )
    p.add_argument("graph")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(handler=cmd_metagraph)

    # looked up per call, nothing read off them: the tracer's wrappers have no defaults
    for name, sweep, family in (("verify-linear", verify_linear_family, "linear"),
                                ("verify-general", verify_general_family, "labeled")):
        p = add_parser(name, help=f"metagraph connectivity over all {family} graphs")
        p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--threshold", type=int)
        p.set_defaults(handler=cmd_verify, sweep=sweep)

    p = add_parser("sample", help="MH chain over the successful paths")
    p.add_argument("graph")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_sample)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    try:
        code, payload, source = args.handler(args)
        wall_time = time.perf_counter() - start
        if args.report:
            write_report({
                "command": list(argv),
                "input": source,
                "payload": payload(),
                "version": __version__,
                "wall_time": wall_time,
            }, args.report)
    except (GameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
