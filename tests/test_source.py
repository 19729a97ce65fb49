"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

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
