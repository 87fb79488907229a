"""Every exported name resolves, and so does every name the benchmark traces."""

import ast
import importlib
from pathlib import Path

import pytest

import binodiv
import binodiv.cli  # noqa: F401  (the tracer spans its names too)

REPO = Path(__file__).resolve().parents[1]
MODULES = ("arith", "kummer", "conditions", "permgroup", "density", "scan", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"binodiv.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(binodiv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"binodiv.{node.module}")
        for alias in node.names:
            assert getattr(binodiv, alias.name) is getattr(module, alias.name)


class _StubTracer:
    """Tracer interface of perfbench/tracer.py that wraps and installs nothing."""

    def install(self, module, attr, fn):
        pass

    def wrap(self, fn, name, on_exit=None):
        return fn

    def counter(self, fn, name):
        return fn

    def wrap_generator(self, fn, name):
        return fn


def test_benchmark_tracing_finds_every_name(monkeypatch):
    # install_tracing reads each traced name off its module, so a deleted
    # or renamed one raises AttributeError here
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    workloads.install_tracing(_StubTracer(), binodiv, [], [])


def test_cli_imports_nothing_private_from_conditions():
    # a point check goes through witness_for, the one place that decides it
    tree = ast.parse(Path(binodiv.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("conditions", "binodiv.conditions")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
