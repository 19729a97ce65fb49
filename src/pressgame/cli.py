"""Command-line front end.

Eight subcommands, one per capability: press, overlap, distance,
enumerate, metagraph, verify-linear, verify-general, sample.  Exit codes:
0 success or property verified, 1 property violated or counterexample
found, 2 input or usage error (including sweeps left incomplete by the
enumeration cap, which verify nothing either way).

Reports are JSON with sorted keys so that reruns of a deterministic
command diff cleanly; wall_time is the one field excluded from that
stability guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

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
    metagraph_to_dot,
    verify_general_family,
    verify_instance,
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

_VERDICT_EXIT = {"PASS": 0, "FAIL": 1, "INCOMPLETE": 2}


def load_graph(source: str) -> BWGraph:
    """Graph from a file path or the linear:BWBW... shorthand (prefix
    case-insensitive, surrounding whitespace ignored)."""
    head, colon, colors = source.strip().partition(":")
    if colon and head.lower() == "linear":
        return linear_graph(colors)
    with open(source) as fh:
        return parse_graph(fh.read())


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _graph_payload(g: BWGraph) -> dict:
    return {
        "n": g.n,
        "colors": g.color_string(),
        "edges": g.edges(),
    }


def _pathset_payload(ps: PathSet) -> dict:
    return {
        "common_length": ps.common_length,
        "count": len(ps.paths),
        "paths": [format_path(p) for p in ps.paths],
    }


def _sweep_payload(r: SweepReport) -> dict:
    return {
        "family": r.family,
        "threshold": r.threshold,
        "verdict": r.verdict,
        "instances_checked": r.instances_checked,
        "failures": [
            {
                "graph": _graph_payload(f.graph),
                "paths": [format_path(p) for p in f.path_set.paths],
                "components": f.components,
            }
            for f in r.failures
        ],
        "incomplete": [
            {"graph": _graph_payload(g), "paths_found": count}
            for g, count in r.incomplete
        ],
        "stats": [
            {
                "graph": _graph_payload(s.graph),
                "path_count": s.path_count,
                "connected": s.connected,
                "min_threshold": s.min_threshold,
            }
            for s in r.stats
        ],
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
        print(
            f"counterexample: colors {f.graph.color_string()}, "
            f"edges {f.graph.edges()}"
        )
        print(f"  metagraph components: {[list(c) for c in f.components]}")
    for g, count in r.incomplete:
        print(
            f"capped: colors {g.color_string()}, edges {g.edges()} "
            f"({count} paths found before the cap)"
        )


def cmd_press(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    h = apply_path(g, args.vertices)
    sys.stdout.write(format_graph(h))
    return 0, _graph_payload(h), args.graph


def cmd_overlap(args) -> tuple[int, dict, str]:
    p = parse_signed_permutation(args.perm)
    g = build_overlap(build_dr(p))
    sys.stdout.write(format_graph(g))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph_to_dot(g))
    return 0, {"permutation": str(p), "overlap": _graph_payload(g)}, args.perm


def cmd_distance(args) -> tuple[int, dict, str]:
    p = parse_signed_permutation(args.perm)
    d = reversal_distance_hurdle_free(p)
    print(d)
    return 0, {"permutation": str(p), "distance": d}, args.perm


def cmd_enumerate(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    ps = enumerate_successful(g, args.cap)
    print(f"{len(ps.paths)} paths of common length {ps.common_length}")
    sys.stdout.write(format_paths(ps))
    return 0, _pathset_payload(ps), args.graph


def cmd_metagraph(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    row, ps, _ = verify_instance(g, args.threshold)
    edges = build_metagraph(ps, args.threshold)
    print(
        f"{row.path_count} paths, {len(edges)} edges at threshold "
        f"{args.threshold}: {'connected' if row.connected else 'DISCONNECTED'} "
        f"(min connecting threshold {row.min_threshold})"
    )
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(metagraph_to_dot(ps, edges))
    payload = {
        "graph": _graph_payload(g),
        "threshold": args.threshold,
        "connected": row.connected,
        "min_connect_threshold": row.min_threshold,
        "edge_count": len(edges),
        "edges": edges,
        **_pathset_payload(ps),
    }
    return (0 if row.connected else 1), payload, args.graph


def cmd_verify(args) -> tuple[int, dict, str]:
    r = args.sweep(args.n_max, args.threshold, args.cap)
    _print_sweep(r)
    return _VERDICT_EXIT[r.verdict], _sweep_payload(r), r.family


def cmd_sample(args) -> tuple[int, dict, str]:
    g = load_graph(args.graph)
    r = run_chain(g, steps=args.steps, burn_in=args.burn_in, seed=args.seed)
    tv = "n/a (cap exceeded)" if r.tv_distance is None else f"{r.tv_distance:.4f}"
    print(
        f"{r.steps} steps (burn-in {r.burn_in}, seed {r.seed}): "
        f"acceptance rate {r.acceptance_rate:.4f}, tv distance {tv}"
    )
    for p, count in sorted(r.histogram.items()):
        print(f"  {format_path(p)}: {count}")
    return 0, _chain_payload(r), args.graph


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

    p = add_parser(
        "verify-linear", help="metagraph connectivity over all linear graphs"
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--threshold", type=int, default=2)
    p.set_defaults(handler=cmd_verify, sweep=verify_linear_family, cap=DEFAULT_CAP)

    p = add_parser(
        "verify-general", help="metagraph connectivity over all labeled graphs"
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--threshold", type=int, default=4)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(handler=cmd_verify, sweep=verify_general_family)

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
    except (GameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        report = {
            "command": list(argv),
            "input": source,
            "payload": payload,
            "version": __version__,
            "wall_time": time.perf_counter() - start,
        }
        write_report(report, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
