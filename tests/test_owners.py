"""Derived facts with one owner each in src/fockop.

The graded multi-indices, and the dimension cap that bounds them, come
from build_basis alone; every found angle relation becomes a "no" verdict
through dynamics._relation_found alone.  A second enumerator or a hand-built
verdict would compute the same fact again and could drift from the owner
(skip the cap, or leave a relation uncanonicalized) without any output
changing on the corpus, so the owners are checked on the source.

The truncation's two oracles, exact mode and the adjoint route, are checked
on the source too: they must reach none of the creation recursion that they
certify.  The eigenfunction residual must reach none of the polynomial
arithmetic that constructs the eigenfunctions it checks, and the other
modules read truncation.py only through its public names.  What one
symbol's verdicts compute is remembered on the symbol (symbol.per_symbol)
alone, never in a process-wide functools cache.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fockop"


def _calls(name):
    """(file, enclosing function or None, call node) for every call of name."""
    found = []

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                f = child.func
                called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if called == name:
                    found.append((path.name, where, child))
            visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return found


def _independent_arg(call):
    if call.args:
        return call.args[0]
    return next(k.value for k in call.keywords if k.arg == "independent")


def test_build_basis_alone_enumerates_and_caps_multi_indices():
    for name in ("graded_indices", "dimension_cap"):
        calls = [(f, where) for f, where, _ in _calls(name)]
        assert calls == [("truncation.py", "build_basis")], name


def test_found_relations_have_one_constructor():
    calls = _calls("IndependenceVerdict")
    owners = set()
    for f, where, call in calls:
        arg = _independent_arg(call)
        # only a literal "yes" or "unknown" may be built elsewhere
        if not (isinstance(arg, ast.Constant) and arg.value in ("yes", "unknown")):
            owners.add((f, where))
    assert owners == {("dynamics.py", "_relation_found")}


def test_no_function_keeps_a_process_wide_cache():
    caches = {"lru_cache", "cache"}
    used = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                used += [(path.name, a.name) for a in node.names if a.name in caches]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in caches
                and getattr(node.value, "id", None) == "functools"
            ):
                used.append((path.name, node.attr))
    assert used == []


# the creation recursion and the tables it alone reads
_CREATION = {
    "_creation_shells",
    "_creation_maps",
    "_creation_parents",
    "_creation_plan",
    "_CreationPlan",
}
_ORACLES = ("_exact_columns", "_matrix_from_exact", "build_adjoint_truncation")


def _reached(tree, roots, stop):
    """{root: the names of stop reached from it}: following every name and
    attribute that a function defined in tree reads, functions and methods
    alike, matched by name, so the walk reaches at least what the root can
    call within the module.  A class is reached by its name, not entered."""
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    out = {}
    for root in roots:
        seen, todo, hit = {root}, [root], set()
        while todo:
            for node in defs[todo.pop()]:
                for child in ast.walk(node):
                    if isinstance(child, ast.Name):
                        name = child.id
                    elif isinstance(child, ast.Attribute):
                        name = child.attr
                    else:
                        continue
                    if name in stop:
                        hit.add(name)
                    elif name in defs and name not in seen:
                        seen.add(name)
                        todo.append(name)
        out[root] = hit
    return out


def test_truncation_oracles_reach_none_of_the_creation_recursion():
    tree = ast.parse((SRC / "truncation.py").read_text())
    assert _reached(tree, _ORACLES, _CREATION) == {root: set() for root in _ORACLES}
    # the walk does find the recursion where it is used
    assert _reached(tree, ["build_truncation"], _CREATION)["build_truncation"]


# what constructs an eigenfunction F, which the residual must not share
_CONSTRUCTION = {"MultiPolynomial", "kernel_series_polynomial", "construct_eigenfunction"}


def test_eigenfunction_residual_reaches_none_of_the_construction():
    tree = ast.Module(
        body=[
            node
            for name in ("truncation.py", "polynomials.py", "exact.py", "symbol.py")
            for node in ast.parse((SRC / name).read_text()).body
        ],
        type_ignores=[],
    )
    root = "eigenfunction_residual"
    assert _reached(tree, [root], _CONSTRUCTION) == {root: set()}
    # the walk does reach the residual's own two routes, and finds the
    # construction where it is used
    assert {"_creation_shells", "_exact_columns"} <= _reached(
        tree, [root], _CREATION | {"_exact_columns"}
    )[root]
    assert _reached(tree, ["kernel_series_polynomial"], _CONSTRUCTION)[
        "kernel_series_polynomial"
    ] == {"MultiPolynomial"}


def _truncation_names_read():
    """(file, name) for every name that another module of src/fockop
    imports from truncation.py or reads as an attribute of it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "truncation.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "truncation",
                "fockop.truncation",
            ):
                found += [(path.name, a.name) for a in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                aliases |= {
                    a.asname or a.name
                    for a in node.names
                    if a.name.rpartition(".")[2] == "truncation"
                }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if name in aliases | {"truncation"}:
                    found.append((path.name, node.attr))
    return found


def test_other_modules_read_truncation_through_public_names_only():
    found = _truncation_names_read()
    assert [(f, name) for f, name in found if name.startswith("_")] == []
    # the scan does see each way in: an import from it, and an attribute
    # of it bound under its own name or an alias
    assert {
        ("spectrum.py", "eigenfunction_residual"),
        ("cli.py", "build_truncation"),
        ("analysis.py", "build_truncation"),
    } <= set(found)
