"""Checks on the package source itself."""

import ast
import importlib
import io
import re
import shlex
import tokenize
from pathlib import Path
from types import SimpleNamespace

from pressgame.bwgraph import format_graph, linear_graph, parse_graph
from pressgame.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pressgame"


def test_no_assert_statements_in_package():
    # python -O strips assert, so invariants that guard results must raise
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_imports_no_private_name_from_the_package():
    # cli builds on the modules' public names; dunders such as __version__ are public
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pressgame"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def _load_tracer():
    """The namespace of bench/tracing.py, run from its source (no bytecode
    cache is written next to it)."""
    path = ROOT / "bench" / "tracing.py"
    ns = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), ns)
    return ns


def test_bench_tracer_installs_on_the_package():
    # `bench/run.py --trace 1` looks each TARGETS entry up on its home module
    # with no fallback, so removing or renaming a traced function breaks it
    tracing = _load_tracer()
    names = {m for home, _, spaces, _ in tracing["TARGETS"].values() for m in (home, *spaces)}
    pg = SimpleNamespace(**{m: importlib.import_module(f"pressgame.{m}") for m in names})

    def bindings():
        return {m: dict(vars(mod)) for m, mod in vars(pg).items()}

    before = bindings()
    with tracing["Tracer"]().installed(pg):
        assert bindings() != before
    assert bindings() == before


def test_readme_python_blocks_run_and_match_their_comments():
    # every ```python block of README.md runs, in order, in one namespace;
    # an expression whose line ends in a comment that is a Python literal
    # must evaluate to that literal
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    ns: dict = {}
    checked = 0
    for block in blocks:
        comments = {
            tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        for stmt in ast.parse(block).body:
            try:
                want = ast.literal_eval(comments.get(stmt.end_lineno, ""))
            except (ValueError, SyntaxError):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
                continue
            assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            assert got == want, ast.unparse(stmt)
            checked += 1
    assert checked == 9


def test_readme_command_line_block_prints_what_it_shows(capsys):
    # each `$ pressgame ...` line of the block under "Command line" runs
    # through cli.main and must print exactly the lines below it
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", (ROOT / "README.md").read_text(),
                      re.S | re.M).group(1)
    examples = block.split("\n\n")
    for example in examples:
        command, _, want = example.partition("\n")
        assert command.startswith("$ pressgame "), command
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out == want.rstrip("\n") + "\n", command
    assert len(examples) == 6


def _readme_graph_text() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"^## Graph text format\n.*?^```\n(.*?)^```", readme, re.S | re.M).group(1)


def test_readme_graph_text_block_round_trips():
    # the block under "Graph text format" is the linear graph BWB, and
    # format_graph writes it back byte for byte
    block = _readme_graph_text()
    g = parse_graph(block)
    assert g == linear_graph("BWB")
    assert format_graph(g) == block


def test_readme_graph_text_file_enumerates(capsys, tmp_path):
    # the block under "Graph text format", written to a file, is a graph file
    # that `pressgame enumerate` reads and prints the four paths of
    path = tmp_path / "graph.txt"
    path.write_text(_readme_graph_text())
    assert main(["enumerate", str(path)]) == 0
    assert capsys.readouterr().out == "4 paths of common length 2\n0 1\n0 2\n2 0\n2 1\n"
