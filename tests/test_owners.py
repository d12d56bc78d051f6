"""Derived facts with one owner each in src/fockop.

The graded multi-indices, and the dimension cap that bounds them, come
from build_basis alone; every found angle relation becomes a "no" verdict
through dynamics._relation_found alone.  A second enumerator or a hand-built
verdict would compute the same fact again and could drift from the owner
(skip the cap, or leave a relation uncanonicalized) without any output
changing on the corpus, so the owners are checked on the source.

The truncation's two oracles, exact mode and the adjoint route, are checked
on the source too: they must reach none of the creation recursion that they
certify.
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
