"""Start-up cost guard: the command line loads scipy and mpmath only on
the paths that call them (the Schur form, PSLQ).

Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEAVY = ["scipy", "scipy.linalg", "scipy.optimize", "mpmath", "numpy.polynomial"]


def loaded_after(code):
    """Names in sys.modules after running code in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_cli_loads_no_heavy_module():
    loaded = loaded_after("import fockop.cli")
    assert "fockop.cli" in loaded
    assert [m for m in HEAVY if m in loaded] == []


def test_analyze_loads_no_scipy():
    doc = ROOT / "tests" / "golden" / "compact_2d.sym.json"
    loaded = loaded_after(
        "import contextlib, io\n"
        "from fockop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['analyze', {str(doc)!r}]) == 0\n"
    )
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_spectrum_verify_loads_no_scipy():
    # unitary_2d's A = [[0, 1], [-1, 0]] is not upper triangular
    golden = ROOT / "tests" / "golden"
    docs = [str(golden / f"{name}.sym.json") for name in ("compact_2d", "unitary_2d")]
    loaded = loaded_after(
        "import contextlib, io\n"
        "from fockop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for doc in {docs!r}:\n"
        "        assert main(['spectrum', doc, '--verify']) == 0\n"
    )
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
