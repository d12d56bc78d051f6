"""End-to-end command line behavior: documents, exit codes, determinism."""

import cmath
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockop.cli import (
    canonical_json,
    main,
    parse_symbol_document,
    symbol_document,
)
from fockop.errors import ParseError


def doc_for(a_rows, b, angles=None):
    doc = {
        "n": len(b),
        "A": [[{"re": z.real, "im": z.imag} for z in map(complex, row)] for row in a_rows],
        "B": [{"re": z.real, "im": z.imag} for z in map(complex, b)],
    }
    if angles is not None:
        doc["anglesExact"] = angles
    return doc


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


COMPACT_1D = doc_for([[0.5]], [1.0])
ROTATION_I = doc_for([[1j]], [0.0])
COMPACT_2D = doc_for([[0.5, 0.0], [0.0, 1 / 3]], [0.0, 0.0])
UNBOUNDED_2D = doc_for([[1.0, 0.0], [0.0, 0.5]], [1.0, 0.0])


def run(args, capsys):
    code = main(args)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# parsing and serialization


def test_symbol_document_round_trip():
    sym, tags = parse_symbol_document(COMPACT_1D)
    assert sym.n == 1 and sym.A[0, 0] == 0.5 and sym.B[0] == 1.0
    again = canonical_json(symbol_document(sym, tags))
    sym2, tags2 = parse_symbol_document(json.loads(again))
    assert canonical_json(symbol_document(sym2, tags2)) == again


def test_angles_exact_round_trip():
    doc = doc_for([[1j]], [0.0], angles=[{"num": 1, "den": 2}])
    sym, tags = parse_symbol_document(doc)
    assert tags == [pytest.approx(0.5)]
    out = symbol_document(sym, tags)
    assert out["anglesExact"] == [{"num": 1, "den": 2}]


def test_bare_reals_accepted():
    sym, _ = parse_symbol_document({"n": 1, "A": [[0.5]], "B": [2]})
    assert sym.A[0, 0] == 0.5 and sym.B[0] == 2.0


@pytest.mark.parametrize(
    "doc",
    [
        [],  # not an object
        {"n": 2, "A": [[1.0]], "B": [0.0]},  # shape disagrees with n
        {"n": 1, "A": [[{"re": 0.5}]], "B": [0.0]},  # missing im
        {"n": 1, "A": [["x"]], "B": [0.0]},
        {"n": 1, "A": [[float("nan")]], "B": [0.0]},
        {"n": 1, "A": [[1j.imag]], "B": [0.0], "anglesExact": [{"num": 1}]},
        {"n": 1, "A": [[0.5]], "B": [0.0], "anglesExact": [{"num": 1, "den": 2}]},
    ],
)
def test_parse_rejects_malformed(doc):
    with pytest.raises(ParseError):
        parse_symbol_document(doc)


def test_canonical_json_shape():
    s = canonical_json({"a": 1.0, "b": [True, None, 0.1]})
    assert s == '{"a":1,"b":[true,null,0.10000000000000001]}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


# ---------------------------------------------------------------------------
# analyze


def test_analyze_compact_json(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    code, out, _ = run(["analyze", path], capsys)
    assert code == 0
    doc = json.loads(out)
    r = doc["report"]
    assert r["bounded"] is True and r["compact"] is True
    assert r["norm"] == pytest.approx(np.exp(1 / 3))
    assert r["essentialNorm"] == 0.0
    assert r["witness"] is None
    assert r["z0"][0]["re"] == pytest.approx(2 / 3)
    assert r["schattenAllP"] is True and r["supercyclic"] is False
    assert r["cyclic"]["verdict"] == "yes"
    assert doc["parameters"]["degree"] == 20  # n = 1 default
    t = doc["truncation"]
    assert t["truncatedNorm"] <= t["closedFormNorm"] + 1e-10
    assert t["gap"] >= -1e-10


def test_analyze_unbounded_exit_2_with_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", UNBOUNDED_2D)
    code, out, _ = run(["analyze", path, "--degree", "4"], capsys)
    assert code == 2
    r = json.loads(out)["report"]
    assert r["bounded"] is False
    assert r["norm"] is None and r["compact"] is False
    w = np.array([c["re"] + 1j * c["im"] for c in r["witness"]])
    assert abs(w[0]) == pytest.approx(1.0)  # the unit singular direction


def test_analyze_tolerance_reaches_z0(tmp_path, capsys):
    # bounded at --tolerance 1e-6 (B's 1e-8 along the unit direction), so
    # the norms must be solved at 1e-6 too, not at the default 1e-10
    path = write_doc(tmp_path, "s.json", doc_for([[1.0, 0.0], [0.0, 0.5]], [1e-8, 1.0]))
    code, out, err = run(["analyze", "--tolerance", "1e-6", path], capsys)
    assert code == 0, err
    r = json.loads(out)["report"]
    assert r["bounded"] is True
    assert r["norm"] == pytest.approx(np.exp(1 / 3), rel=1e-14)
    assert r["essentialNorm"] == r["norm"]


def test_analyze_text_mode(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    code, out, _ = run(["analyze", path, "--text"], capsys)
    assert code == 0
    assert "bounded            True" in out
    assert "norm" in out and "truncated norm" in out


def test_analyze_deterministic_bytes(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    _, first, _ = run(["analyze", path], capsys)
    _, second, _ = run(["analyze", path], capsys)
    assert first == second


def test_analyze_reads_stdin(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    _, from_file, _ = run(["analyze", path], capsys)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(COMPACT_1D)))
    _, from_stdin, _ = run(["analyze", "-"], capsys)
    assert from_stdin == from_file


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_products(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", COMPACT_2D)
    code, out, _ = run(["spectrum", path, "--max-degree", "2"], capsys)
    assert code == 0
    sp = json.loads(out)["spectrum"]
    values = sorted(p["value"]["re"] for p in sp["products"])
    assert values == pytest.approx([1 / 9, 1 / 6, 1 / 4, 1 / 3, 1 / 2, 1.0])
    assert sp["closureContainsZero"] is True
    gammas = [tuple(p["gamma"]) for p in sp["products"]]
    assert (0, 0) in gammas and (1, 1) in gammas


def test_spectrum_verify(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", COMPACT_2D)
    code, out, _ = run(["spectrum", path, "--max-degree", "3", "--verify"], capsys)
    assert code == 0
    v = json.loads(out)["verification"]
    assert v["degree"] == 3
    assert v["multisetDistance"] < 1e-7


def test_spectrum_verify_flag_before_path(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", COMPACT_2D)
    code, after, _ = run(["spectrum", path, "--verify"], capsys)
    assert code == 0
    code, before, _ = run(["spectrum", "--verify", path], capsys)
    assert code == 0
    assert before == after


def test_spectrum_unbounded_still_reports(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", UNBOUNDED_2D)
    code, out, _ = run(["spectrum", path, "--max-degree", "2"], capsys)
    assert code == 2
    assert json.loads(out)["spectrum"]["products"]


def test_spectrum_identity_is_singleton(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", doc_for([[1.0]], [0.0]))
    _, out, _ = run(["spectrum", path, "--max-degree", "5"], capsys)
    sp = json.loads(out)["spectrum"]
    assert len(sp["products"]) == 1
    assert sp["products"][0]["value"]["re"] == 1.0
    assert sp["closureContainsZero"] is False


# ---------------------------------------------------------------------------
# truncate


def test_truncate_dump_csv(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    dump = tmp_path / "M.csv"
    code, out, _ = run(
        ["truncate", path, "--degree", "1", "--dump", str(dump)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["truncation"]["dim"] == 2
    with open(dump, newline="") as fh:
        rows = list(csv.DictReader(fh))
    M = np.zeros((2, 2), dtype=complex)
    for r in rows:
        M[int(r["row"]), int(r["col"])] = float(r["re"]) + 1j * float(r["im"])
    expect = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 0.5]])
    assert np.max(np.abs(M - expect)) < 1e-15


def test_truncate_identity(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", doc_for([[1.0]], [0.0]))
    _, out, _ = run(["truncate", path, "--degree", "2"], capsys)
    t = json.loads(out)["truncation"]
    assert t["dim"] == 3
    assert t["norm"] == pytest.approx(1.0)
    assert t["topSingularValues"] == pytest.approx([1.0, 1.0, 1.0])


def _seeded_compact_doc(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A *= 0.8 / np.linalg.norm(A, 2)
    B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return doc_for(A.tolist(), B.tolist()), A, B


def test_truncate_above_the_lanczos_crossover_reports_one_svd(tmp_path, capsys):
    from fockop.truncation import _LANCZOS_MIN_DIM

    doc, _, _ = _seeded_compact_doc(31, 2)
    path = write_doc(tmp_path, "s.json", doc)
    code, out, _ = run(["truncate", path, "--degree", "24"], capsys)
    assert code == 0
    t = json.loads(out)["truncation"]
    assert t["dim"] == 325 >= _LANCZOS_MIN_DIM
    assert t["norm"] == t["topSingularValues"][0]


def test_analyze_above_the_lanczos_crossover_matches_the_dense_norm(tmp_path, capsys):
    from fockop import AffineSymbol
    from fockop.truncation import _LANCZOS_MIN_DIM, build_truncation

    doc, A, B = _seeded_compact_doc(32, 6)
    path = write_doc(tmp_path, "s.json", doc)
    code, out, _ = run(["analyze", path], capsys)
    assert code == 0
    t = json.loads(out)["truncation"]
    assert t["dim"] == 210 >= _LANCZOS_MIN_DIM  # degree 4 at n = 6
    M = build_truncation(AffineSymbol(A, B), 4).matrix
    dense = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(t["truncatedNorm"] - dense) <= 1e-13 * dense
    assert t["truncatedNorm"] <= t["closedFormNorm"] * (1 + 1e-12)


def test_truncate_dump_binary(tmp_path, capsys):
    from fockop.truncation import load_binary

    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    dump = tmp_path / "M.bin"
    code, _, _ = run(
        ["truncate", path, "--degree", "3", "--dump", str(dump), "--format", "bin"],
        capsys,
    )
    assert code == 0
    dim, M = load_binary(str(dump))
    assert dim == 4 and M.shape == (4, 4)
    assert M[1, 1] == pytest.approx(0.5)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_truncate_dump_unwritable_exit_1(tmp_path, capsys, target, fmt):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    dump = tmp_path if target == "directory" else tmp_path / "missing" / "M.out"
    args = ["truncate", path, "--degree", "1", "--dump", str(dump), "--format", fmt]
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"fockop: cannot write {dump}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# cyclic


def test_cyclic_root_of_unity(tmp_path, capsys):
    doc = doc_for([[1j]], [0.0], angles=[{"num": 1, "den": 2}])
    path = write_doc(tmp_path, "r.json", doc)
    code, out, _ = run(["cyclic", path], capsys)
    assert code == 0
    c = json.loads(out)["cyclic"]
    assert c["verdict"] == "no"
    assert c["relation"] == [-1, 2]


def test_spectrum_and_cyclic_agree_on_a_large_order_root_of_unity(tmp_path, capsys):
    # a = exp(2 pi i 12345/100003): the relation search says "unknown" and
    # the continued-fraction walk finds a^100004 = a
    a = np.exp(2j * np.pi * 12345 / 100003)
    path = write_doc(tmp_path, "w.json", doc_for([[a]], [0.0]))
    _, out, _ = run(["cyclic", path], capsys)
    c = json.loads(out)["cyclic"]
    assert c["verdict"] == "no" and c["rationale"].startswith("a^100004 = a")
    assert c["relation"] == [-24690, 100003]
    assert c["independence"]["independent"] == "no"
    assert c["independence"]["relation"] == [-24690, 100003]
    _, out, _ = run(["spectrum", path, "--max-degree", "2"], capsys)
    assert json.loads(out)["spectrum"]["unimodularAnglesIndependent"] == "no"


def test_cyclic_yes_and_supercyclic_false(tmp_path, capsys):
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    _, out, _ = run(["cyclic", path], capsys)
    doc = json.loads(out)
    assert doc["cyclic"]["verdict"] == "yes"
    assert doc["supercyclic"] is False


def test_cyclic_open_problem(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", COMPACT_2D)
    _, out, _ = run(["cyclic", path], capsys)
    assert json.loads(out)["cyclic"]["verdict"] == "unknown"


def test_cyclic_unbounded_error_document(tmp_path, capsys):
    path = write_doc(tmp_path, "u.json", UNBOUNDED_2D)
    code, out, _ = run(["cyclic", path], capsys)
    assert code == 2
    assert "error" in json.loads(out)


# ---------------------------------------------------------------------------
# failure paths


def test_missing_file_exit_1(capsys):
    code, _, err = run(["analyze", "/nonexistent/path.json"], capsys)
    assert code == 1
    assert "fockop:" in err


def test_invalid_json_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    code, _, err = run(["analyze", str(p)], capsys)
    assert code == 1
    assert "invalid JSON" in err


def test_bad_shape_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, "b.json", {"n": 2, "A": [[1.0]], "B": [0.0]})
    code, _, err = run(["spectrum", path], capsys)
    assert code == 1


def test_angle_tag_mismatch_exit_1(tmp_path, capsys):
    doc = doc_for([[0.5]], [0.0], angles=[{"num": 1, "den": 2}])
    path = write_doc(tmp_path, "m.json", doc)
    code, _, err = run(["cyclic", path], capsys)
    assert code == 1
    assert "anglesExact" in err


HUGE_TAGS = {
    "numerator": doc_for([[1j]], [0.0], angles=[{"num": 10**400, "den": 1}]),
    # pi / 10^400 matches the angle 0 to 1e-9
    "denominator": doc_for([[1.0]], [0.0], angles=[{"num": 1, "den": 10**400}]),
}


@pytest.mark.parametrize("command", ["analyze", "spectrum", "cyclic", "truncate"])
@pytest.mark.parametrize("which", sorted(HUGE_TAGS))
def test_tag_beyond_2_53_exit_1(tmp_path, capsys, which, command):
    path = write_doc(tmp_path, "t.json", HUGE_TAGS[which])
    code, out, err = run([command, path], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: anglesExact: ") and err.count("\n") == 1
    assert "2**53" in err and len(err) < 100  # the 400-digit integer is not echoed


_TAG_INT = st.one_of(st.integers(-12, 12), st.integers(-(10**400), 10**400))


@st.composite
def _tagged_documents(draw):
    """n in {1, 2}, a unimodular diagonal A and tags null or {num, den}; an
    angle is drawn, or taken from its tag so that the tag matches it."""
    n = draw(st.sampled_from([1, 2]))
    tag = st.fixed_dictionaries({"num": _TAG_INT, "den": _TAG_INT})
    tags = draw(st.lists(st.none() | tag, min_size=n, max_size=n))
    diag = []
    for t in tags:
        if t is not None and t["den"] and draw(st.booleans()):
            theta = float(Fraction(t["num"], t["den"]) % 2) * np.pi
        else:
            theta = draw(st.floats(0.0, 2 * np.pi))
        diag.append(cmath.exp(1j * theta))
    b = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=n, max_size=n))
    return doc_for(np.diag(diag), b, angles=tags)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tagged") / "s.json"


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_tagged_documents())
def test_tagged_documents_get_an_answer_or_one_error_line(doc_path, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("analyze", "spectrum", "cyclic", "truncate"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(doc_path)])
        assert code in (0, 1, 2), command
        if code == 1:
            text = err.getvalue()
            assert text.startswith("fockop: ") and text.count("\n") == 1, command


_FINITE = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-12]) | st.floats(-0.5, 0.5)
_NUMBER = st.one_of(
    _FINITE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2))
_GOOD_ENTRY = _FINITE | st.fixed_dictionaries({"re": _FINITE, "im": _FINITE})
# valid entries of every magnitude a double holds, from the least subnormal up
_MAGNITUDE = st.sampled_from(
    [sign * m for m in (0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0, 1e10, 1e150, 1e300, 1e308, 1.7e308)
     for sign in (1.0, -1.0)]
)
_WIDE_ENTRY = _GOOD_ENTRY | _MAGNITUDE | st.fixed_dictionaries({"re": _MAGNITUDE, "im": _MAGNITUDE})
_ANY_ENTRY = st.one_of(
    _GOOD_ENTRY,
    _NUMBER,
    st.fixed_dictionaries({"re": _NUMBER, "im": _NUMBER}),
    st.dictionaries(st.sampled_from(["re", "im", "x"]), _NUMBER | _JUNK, max_size=3),
    _JUNK,
)
_SMALL_TAG = st.fixed_dictionaries({"num": st.integers(-4, 4), "den": st.integers(1, 4)})
_GOOD_TAG = st.none() | _SMALL_TAG
_ANY_TAG = st.one_of(
    _GOOD_TAG,
    st.fixed_dictionaries({"num": _TAG_INT, "den": _TAG_INT}),
    st.dictionaries(st.sampled_from(["num", "den"]), _NUMBER | _JUNK, max_size=2),
    _JUNK,
)
# an angle in turns of pi: a tag {num, den} or a plain float
_TURN = _SMALL_TAG | st.floats(0.0, 2.0)


@st.composite
def _arbitrary_documents(draw):
    """Any JSON value.  Most are symbol documents with at most one flaw:
    junk entries or tags, shapes of their own, a key missing or junk, or
    none.  Half the flawless ones have a diagonal A on the unit circle,
    whose angles may carry their tags, in an order that need not be the
    sorted eigenvalues' (a misplaced tag exits 1); the other half draw
    entries of any magnitude up to 1.7e308."""
    flaw = draw(st.sampled_from(["none"] * 8 + ["entries", "shapes", "keys", "document"]))
    if flaw == "document":
        return draw(_JUNK | _NUMBER)
    k = draw(st.integers(1, 3))
    entry = {"entries": _ANY_ENTRY, "none": _WIDE_ENTRY}.get(flaw, _GOOD_ENTRY)
    tags = st.lists(_ANY_TAG if flaw == "entries" else _GOOD_TAG, min_size=k, max_size=k)
    if flaw == "shapes":
        cols = draw(st.lists(st.integers(0, 3), max_size=3))
        doc = {
            "n": draw(st.integers(-1, 4)),
            "A": [draw(st.lists(entry, min_size=c, max_size=c)) for c in cols],
            "B": draw(st.lists(entry, max_size=3)),
        }
    elif flaw == "none" and draw(st.booleans()):
        turns = draw(st.lists(_TURN, min_size=k, max_size=k))
        angles = [float(Fraction(t["num"], t["den"])) if isinstance(t, dict) else t for t in turns]
        diag = [cmath.exp(1j * np.pi * t) for t in angles]
        b = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=k, max_size=k))
        doc = doc_for(np.diag(diag), b)
        tags = st.permutations([t if isinstance(t, dict) else None for t in turns]) | tags
    else:
        doc = {
            "n": k,
            "A": draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)),
            "B": draw(st.lists(entry, min_size=k, max_size=k)),
        }
    if draw(st.booleans()):
        doc["anglesExact"] = draw(tags)
    if flaw == "keys":
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            doc[key] = draw(_JUNK | _NUMBER)
        else:
            del doc[key]
    return doc


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(_arbitrary_documents())
def test_any_document_exits_0_1_or_2_with_no_traceback(doc_path, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["analyze"], ["spectrum", "--verify"], ["truncate"], ["cyclic"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(doc_path), *command[1:]])
        assert code in (0, 1, 2), command
        if code == 1:
            text = err.getvalue()
            assert text.startswith("fockop: ") and text.count("\n") == 1, command


def test_truncate_degree_160_answers(tmp_path, capsys):
    # the creation recursion never forms ||z^160||^2 = 160! 2^160, which
    # does not fit a double; the norm is monotone in the degree and below
    # ||C_phi|| = exp(1/3) for phi(z) = z/2 + 1
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    norms = []
    for degree in ("40", "160"):
        code, out, err = run(["truncate", path, "--degree", degree], capsys)
        assert code == 0 and err == ""
        norms.append(json.loads(out)["truncation"]["norm"])
    assert norms[0] * (1 - 1e-12) <= norms[1] <= np.exp(1.0 / 3.0)


def test_dimension_cap_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FOCKOP_DIM_CAP", "10")
    path = write_doc(tmp_path, "s.json", COMPACT_1D)
    code, _, err = run(["truncate", path, "--degree", "50"], capsys)
    assert code == 1
    assert "fockop:" in err


@pytest.mark.parametrize(
    "args", [["spectrum", "--max-degree", "100000"], ["analyze", "--degree", "100000"]]
)
def test_huge_degree_exits_1_at_once(tmp_path, args):
    # C(100003, 3) ~ 1.7e14 products: the cap must refuse the count before
    # any index is generated
    path = write_doc(tmp_path, "s.json", doc_for(np.diag([0.5, 0.4, 0.3]), [0, 0, 0]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fockop.cli", args[0], path, *args[1:]],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("fockop: ") and proc.stderr.count("\n") == 1
    assert "166676666850001 exceeds cap 50000" in proc.stderr


@pytest.mark.parametrize("cap", ["abc", "0", "-5", "2.5", ""])
def test_bad_dimension_cap_exit_1(capsys, monkeypatch, cap):
    monkeypatch.setenv("FOCKOP_DIM_CAP", cap)
    path = str(Path(__file__).parent / "golden" / "compact_2d.sym.json")
    code, out, err = run(["truncate", path, "--degree", "3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: ") and err.count("\n") == 1
    assert "FOCKOP_DIM_CAP" in err and "Traceback" not in err


def test_truncation_past_physical_memory_exits_1(tmp_path, capsys, monkeypatch):
    # n = 4 at degree 30 passes the dimension cap (dim 46376), but its dense
    # matrix would take 34 GB; physical memory is patched to 8 GiB and the
    # dense recursion to refuse, so nothing that size is allocated
    def refuse(*args):
        raise AssertionError("allocated past physical memory")

    monkeypatch.setattr("fockop.truncation._creation_shells", refuse)
    monkeypatch.setattr("fockop.truncation._physical_memory", lambda: 8 * 2**30)
    doc = doc_for(np.diag([0.5, 0.4, 0.3, 0.2]), [0.5, 0.0, 0.0, 0.0])
    path = write_doc(tmp_path, "s.json", doc)
    code, out, err = run(["truncate", path, "--degree", "30"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: ") and err.count("\n") == 1
    assert "34411734016 bytes" in err and "8589934592 bytes of physical memory" in err


@pytest.mark.parametrize("args", [["analyze", "-"], ["analyze", "-", "--degree", "0"]])
def test_overflow_reports_one_line_and_no_warning(args):
    # ||B||^2 overflows in the inner products and in numpy.linalg.norm;
    # capsys does not see numpy's warnings, so run a process
    proc = subprocess.run(
        [sys.executable, "-m", "fockop.cli", *args],
        input='{"n":1,"A":[[0.5]],"B":[1e200]}',
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("fockop: ") and proc.stderr.count("\n") == 1
    assert "double range" in proc.stderr


@pytest.mark.parametrize(
    "args, code, lines",
    [
        (["spectrum", "-", "--max-degree", "2"], 2, 0),
        (["analyze", "-", "--degree", "2"], 1, 1),
    ],
)
def test_product_differences_overflow_without_warning(args, code, lines):
    # the products 1e308 and -1e308 differ by more than the double range
    proc = subprocess.run(
        [sys.executable, "-m", "fockop.cli", *args],
        input='{"n":2,"A":[[1e154,0],[0,-1e154]],"B":[0,0]}',
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert proc.returncode == code
    assert proc.stderr.count("\n") == lines
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("args", [["spectrum", "-"], ["spectrum", "-", "--verify"]])
def test_an_eigenvalue_modulus_past_the_double_range_exits_1_without_warning(args):
    # eigvals returns finite parts of modulus about 1.8e308, whose hypot
    # overflows; capsys does not see numpy's warnings, so run a process
    proc = subprocess.run(
        [sys.executable, "-m", "fockop.cli", *args],
        input='{"n":2,"A":[[{"re":1,"im":-1e308},{"re":1e308,"im":1e300}],'
        '[{"re":1e154,"im":1.7e308},{"re":-1e308,"im":-1}]],"B":[0,0]}',
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "fockop: an eigenvalue of A exceeds the double range\n"


def test_norm_beyond_double_range_exit_1(capsys, monkeypatch):
    # ||C_phi|| = exp(1200) for phi(z) = z/2 + 60
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n":1,"A":[[0.5]],"B":[60]}'))
    code, out, err = run(["analyze", "-"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: ") and err.count("\n") == 1
    assert "double range" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 1, "A": [[0.5]], "B": [1e200]},
        {"n": 2, "A": [[0.5, 0], [0, 0.5]], "B": [1e200, 1e200]},
    ],
    ids=["n1", "n2"],
)
def test_norm_overflow_names_the_term(tmp_path, capsys, doc):
    # |z0|^2 and |A z0|^2 are both inf, and their difference was once
    # reported as exp(nan)
    code, out, err = run(["analyze", write_doc(tmp_path, "s.json", doc)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "exceeds the double range" in err
    assert "|z0|^2 overflows" in err and "nan" not in err


# the eigenvalue products and the truncation entries overflow to inf; for
# the last entry the SVD of A returns ||A|| = nan
_HUGE = {"1e308": ([[1e308]], [0]), "1e200": ([[1e200]], [0]),
         "nan-norm": ([[{"re": 1.7e308, "im": 1.7e308}]], [1])}
_HUGE_CALLS = [
    ["analyze"], ["analyze", "--text"], ["truncate"], ["spectrum"], ["spectrum", "--verify"]
]


@pytest.mark.parametrize(
    "args, entry",
    [(args, e) for args in _HUGE_CALLS for e in ("1e308", "1e200")]
    + [(["analyze"], "nan-norm"), (["cyclic"], "nan-norm")],
    ids=lambda v: v if isinstance(v, str) else "-".join(v).replace("--", ""),
)
def test_results_beyond_double_range_exit_1(tmp_path, capsys, entry, args):
    A, B = _HUGE[entry]
    path = write_doc(tmp_path, "s.json", {"n": 1, "A": A, "B": B})
    code, out, err = run([args[0], path] + args[1:], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: ") and err.count("\n") == 1
    assert "double range" in err and "Traceback" not in err


# the first A has norm inf but finite eigenvalues, so spectrum's whole
# document is built before check_bounded fails; the second has the
# eigenvalue 2e308, and so has the top singular value of its degree-1
# section, which eigvals and the SVD return as inf
_NORM_PAST_RANGE = '{"n":2,"A":[[1e308,1e308],[-1e308,-1e308]],"B":[0,0]}'
_EIGENVALUE_PAST_RANGE = '{"n":2,"A":[[1e308,1e308],[1e308,1e308]],"B":[0,0]}'


@pytest.mark.parametrize(
    "doc, args",
    [
        (_NORM_PAST_RANGE, ["spectrum", "-", "--max-degree", "0"]),
        (_EIGENVALUE_PAST_RANGE, ["spectrum", "-", "--max-degree", "0"]),
        (_EIGENVALUE_PAST_RANGE, ["truncate", "-", "--degree", "1"]),
    ],
    ids=["spectrum-norm", "spectrum-eigenvalue", "truncate-singular-value"],
)
def test_a_failed_command_writes_no_stdout(capsys, monkeypatch, doc, args):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: ") and err.count("\n") == 1
    assert "double range" in err


@pytest.mark.parametrize(
    "doc, args",
    [
        (COMPACT_1D, ["analyze", "{path}", "--degree", "-1"]),
        (COMPACT_1D, ["truncate", "{path}", "--degree", "-1"]),
        (COMPACT_1D, ["spectrum", "{path}", "--max-degree", "-3"]),
        (COMPACT_1D, ["analyze", "{path}", "--tolerance", "nan"]),
        (COMPACT_1D, ["analyze", "{path}", "--tolerance", "inf"]),
        (COMPACT_1D, ["analyze", "{path}", "--tolerance", "0"]),
        (COMPACT_1D, ["analyze", "{path}", "--tolerance=-1e-10"]),
        ({"n": 1, "A": [[True]], "B": [0.0]}, ["analyze", "{path}"]),
        ({"n": 1, "A": [[0.5]], "B": [False]}, ["analyze", "{path}"]),
        ({"n": 1, "A": [[{"re": True, "im": 0}]], "B": [0.0]}, ["analyze", "{path}"]),
        ({"n": 1, "A": [[{"re": "0.5", "im": 0}]], "B": [0.0]}, ["analyze", "{path}"]),
        ({"n": 1, "A": [[0.5]], "B": [10**400]}, ["analyze", "{path}"]),
        ({"n": True, "A": [[0.5]], "B": [0.0]}, ["analyze", "{path}"]),
        ({"n": 1.5, "A": [[0.5]], "B": [0.0]}, ["analyze", "{path}"]),
        (doc_for([[1j]], [0.0], [{"num": True, "den": 2}]), ["cyclic", "{path}"]),
        (ROTATION_I, ["cyclic", "{path}", "--max-coeff", "0"]),
        (ROTATION_I, ["cyclic", "{path}", "--max-coeff=-5"]),
    ],
    ids=[
        "analyze-degree-negative",
        "truncate-degree-negative",
        "spectrum-max-degree-negative",
        "tolerance-nan",
        "tolerance-inf",
        "tolerance-zero",
        "tolerance-negative",
        "entry-true",
        "entry-false",
        "entry-re-true",
        "entry-re-string",
        "entry-int-beyond-double",
        "n-true",
        "n-float",
        "angle-num-true",
        "max-coeff-zero",
        "max-coeff-negative",
    ],
)
def test_bad_option_or_entry_exit_1(tmp_path, capsys, doc, args):
    path = write_doc(tmp_path, "s.json", doc)
    code, out, err = run([a.format(path=path) for a in args], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("fockop: ") and err.count("\n") == 1
    assert "Traceback" not in err
