"""The public surface: the package's export list, every name the
benchmark in perfbench/ looks up, and how the result types compare.

The benchmark's tracer finds the functions it wraps by name, and the test
suite never installs the tracer, so a deleted name would otherwise break
only the traced benchmark runs.
"""

import ast
import importlib
import pathlib
import re
import runpy
import types

import numpy as np

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


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from fockop import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(fockop.__all__)
    private = [name for name in bound - {"__version__"} if name.startswith("_")]
    assert private == []
    modules = [name for name in bound if isinstance(namespace[name], types.ModuleType)]
    assert modules == []


def test_results_holding_arrays_compare_by_identity():
    # generated field-wise equality would ask numpy for the truth value of
    # an array comparison, which raises ValueError
    compact = fockop.AffineSymbol([[0.5, 0.1], [0.0, 0.25]], [0.0, 0.0])
    # ||A|| = 1 with B along the unit direction: unbounded, with a witness
    unbounded = fockop.AffineSymbol([[1.0, 0.0], [0.0, 0.5]], [1.0, 0.0])
    builds = [
        lambda: fockop.build_truncation(compact, 3),
        lambda: fockop.enumerate_spectrum(compact, 3),
        lambda: fockop.construct_eigenfunction(compact, (), (1, 1)),
        lambda: fockop.classify(compact),
        lambda: fockop.kernel_orbit(compact, np.ones(2), 2),
        lambda: fockop.block_schur_of_symbol(compact),
        lambda: fockop.check_bounded(unbounded),
    ]
    for build in builds:
        x, y = build(), build()
        assert not (x == y) and x != y, type(x).__name__
        assert x == x and not (x != x), type(x).__name__
        assert hash(x) != hash(y) and len({x, y}) == 2, type(x).__name__
