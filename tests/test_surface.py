"""The public surface: the package's export list, and every name the
benchmark in perfbench/ looks up.

The benchmark's tracer finds the functions it wraps by name, and the test
suite never installs the tracer, so a deleted name would otherwise break
only the traced benchmark runs.
"""

import ast
import importlib
import pathlib
import re
import runpy

import fockop
from fockop import polynomials

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _init_imports():
    tree = ast.parse((ROOT / "src" / "fockop" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _perfbench_spans():
    # layers.py imports only the standard library at module level
    spans = runpy.run_path(str(PERFBENCH / "layers.py"))["SPANS"]
    return [pair for targets in spans.values() for pair in targets]


def test_public_surface():
    assert len(set(fockop.__all__)) == len(fockop.__all__)
    # __version__ is the one exported name that is assigned, not imported
    assert set(fockop.__all__) - {"__version__"} == _init_imports()
    assert [name for name in fockop.__all__ if not hasattr(fockop, name)] == []

    spans = _perfbench_spans()
    assert spans
    for modname, attr in spans:
        obj = importlib.import_module("fockop." + modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
    assert "__mul__" in vars(polynomials.MultiPolynomial)
    names = set(re.findall(r"\bF\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert "exact_matrix_as_double" in names
    assert sorted(name for name in names if not hasattr(fockop, name)) == []
