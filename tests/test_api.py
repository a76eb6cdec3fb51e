"""The names that the public package and the benchmark rely on.

`perfbench/run.py --trace 1` wraps the solver-module attributes listed in
`perfbench/tracing.LAYERS`, and the benchmark scripts import from
`supertw` directly. Deleting or renaming any of those names would break
the benchmark without failing any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import supertw
from supertw import solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_layers_are_solver_attributes():
    layers = _load("tracing").LAYERS
    assert layers
    missing = [attr for attr in layers if not callable(getattr(solver, attr, None))]
    assert missing == []


def test_public_names_resolve():
    assert len(set(supertw.__all__)) == len(supertw.__all__)
    missing = [name for name in supertw.__all__ if not hasattr(supertw, name)]
    assert missing == []


def test_benchmark_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "supertw"):
                imported += [(node.module, a.name) for a in node.names]
    assert ("supertw", "solver") in imported
    missing = [(mod, name) for mod, name in imported
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
