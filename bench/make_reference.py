"""Regenerate the sweep reference tables in bench/reference/.

The tables hold, for every solvable instance of the two sweep workloads,
the path count and minimum connecting threshold computed by the code this
is run against.  They were generated once from the initial pressgame code
and are the sweep oracle from then on, so rerun this only to extend the
benchmark, never to make a failing sweep pass.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pressgame.meta import verify_general_family, verify_linear_family  # noqa: E402

from workloads import REFERENCE, graph_key  # noqa: E402


def write_table(name: str, report) -> None:
    lines = [f"# {report.family}, threshold {report.threshold}: "
             "colors, edges, path_count, min_threshold\n"]
    for s in report.stats:
        key = graph_key(s.graph.color_string(), s.graph.edges())
        colors, edges = key.split("|")
        lines.append(f"{colors}\t{edges}\t{s.path_count}\t{s.min_threshold}\n")
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / f"{name}.tsv.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write("".join(lines).encode())
    print(f"{name}: {len(report.stats)} instances, verdict {report.verdict}")


if __name__ == "__main__":
    write_table("sweep_linear", verify_linear_family(7, 2))
    write_table("sweep_general", verify_general_family(5, 4))
