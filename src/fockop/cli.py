"""Command line front end: analyze | spectrum | truncate | cyclic.

Symbol documents are JSON objects

    {"n": 2,
     "A": [[{"re": 1.0, "im": 0.0}, ...], ...],
     "B": [{"re": 0.0, "im": 0.0}, ...],
     "anglesExact": [null, {"num": 1, "den": 2}, ...]}   (optional)

read from a file path or from stdin when the path is "-".  anglesExact
aligns with the eigenvalues of A in the package's sorted order and tags
arguments that are exact rational multiples of pi.

All output is deterministic: fixed key order, floats printed with 17
significant digits, so identical inputs produce byte-identical bytes.
A command writes stdout once, after it has finished.  Exit codes: 0
success, 2 bounded-ness failure (the report is still emitted, with the
witness), 1 any FockopError (I/O, parse, or a result past a limit), with
nothing on stdout and one "fockop:" line on stderr.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from . import analysis, dynamics, spectrum as spectrum_mod, truncation
from .errors import FockopError, NotBoundedError, ParseError
from .symbol import DEFAULT_TOL_UNIT, AffineSymbol, _eigenvalues_of

_DEFAULT_DEGREE = {1: 20, 2: 10, 3: 6}


def default_degree(n):
    return _DEFAULT_DEGREE.get(n, 4)


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in output document")
    return format(x, ".17g")


def canonical_json(obj):
    """Serialize with fixed key order and 17-significant-digit floats."""
    parts = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts):
    if isinstance(obj, float):
        parts.append(_format_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    elif obj is None or isinstance(obj, (bool, int, str)):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cnum(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _cvec(v):
    return [_cnum(z) for z in np.asarray(v).reshape(-1)]


# ---------------------------------------------------------------------------
# symbol documents


def parse_symbol_document(obj):
    """Validate a symbol document; returns (AffineSymbol, exact_angles).

    exact_angles is None or a list aligned with the sorted eigenvalues,
    entries None or Fraction.

    Raises
    ------
    ParseError
    """
    if not isinstance(obj, dict):
        raise ParseError("symbol document must be a JSON object")
    try:
        n = _json_int(obj["n"])
        A = np.array(
            [[_parse_cnum(e) for e in row] for row in obj["A"]], dtype=complex
        )
        B = np.array([_parse_cnum(e) for e in obj["B"]], dtype=complex)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed symbol document: {exc}") from None
    if A.shape != (n, n) or B.shape != (n,):
        raise ParseError(
            f"document claims n={n} but A has shape {A.shape} and B {B.shape}"
        )
    try:
        sym = AffineSymbol(A, B)
    except FockopError as exc:
        raise ParseError(str(exc)) from None

    tags = obj.get("anglesExact")
    exact_angles = None
    if tags is not None:
        if not isinstance(tags, list) or len(tags) != n:
            raise ParseError("anglesExact must be a list of length n")
        try:
            exact_angles = [
                None if t is None else Fraction(_json_int(t["num"]), _json_int(t["den"]))
                for t in tags
            ]
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise ParseError("anglesExact entries must be null or {num, den}") from None
        ev = _eigenvalues_of(sym)
        try:
            dynamics.AngleSet.build(np.angle(ev), exact_angles)
        except ValueError as exc:
            raise ParseError(f"anglesExact: {exc}") from None
    return sym, exact_angles


def _json_int(x):
    """x itself if it is a JSON integer; int() would also take true and 1.9."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _parse_cnum(e):
    # JSON true and false arrive as bools, which float() would take as 1 and 0
    parts = (e.get("re"), e.get("im")) if isinstance(e, dict) else (e, 0.0)
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        try:
            return complex(float(parts[0]), float(parts[1]))
        except OverflowError:  # an integer beyond the double range
            pass
    raise ParseError(f"bad complex entry {e!r}")


def symbol_document(sym, exact_angles=None):
    """Canonical document for a symbol; parse o serialize is idempotent."""
    doc = {"n": sym.n, "A": [_cvec(row) for row in sym.A], "B": _cvec(sym.B)}
    if exact_angles is not None:
        doc["anglesExact"] = [
            None if t is None else {"num": t.numerator, "den": t.denominator}
            for t in exact_angles
        ]
    return doc


def _load_document(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return parse_symbol_document(obj)


# ---------------------------------------------------------------------------
# documents for each command


def _document(sym, tags, **sections):
    """A command's document: the tool and the symbol, then its sections."""
    return {
        "tool": {"name": "fockop", "version": __version__},
        "symbol": symbol_document(sym, tags),
        **sections,
    }


def _verdict_doc(v):
    if v is None:
        return None
    return {
        "verdict": v.verdict,
        "rationale": v.rationale,
        "relation": list(v.relation) if v.relation is not None else None,
    }


def _spectrum_doc(spec, with_degree):
    """The spectrum section of a document.  analyze's carries maxDegree
    after the eigenvalues; spectrum's has it in its parameters."""
    doc = {"eigenvalues": _cvec(spec.eigenvalues)}
    if with_degree:
        doc["maxDegree"] = spec.max_degree
    doc["products"] = [{"gamma": list(g), "value": _cnum(v)} for g, v in spec.products]
    doc["closureContainsZero"] = spec.closure_contains_zero
    doc["unimodularAnglesIndependent"] = spec.unimodular_angles_independent
    return doc


def analyze_document(sym, exact_angles, degree, tol):
    report = analysis.classify(sym, tol_unit=tol, exact_angles=exact_angles)
    spec = spectrum_mod.enumerate_spectrum(
        sym, degree, tol_unit=tol, exact_angles=exact_angles
    )
    op = truncation.build_truncation(sym, degree)
    tnorm = op.norm()
    closed = report.norm
    doc = _document(
        sym, exact_angles,
        parameters={"degree": degree, "tolerance": tol},
        report={
            "bounded": report.bounded.bounded,
            "normA": report.bounded.norm_a,
            "witness": _cvec(report.bounded.witness)
            if report.bounded.witness is not None
            else None,
            "compact": report.compact,
            "norm": report.norm,
            "essentialNorm": report.essential_norm,
            "z0": _cvec(report.z0) if report.z0 is not None else None,
            "normal": report.normal,
            "hyponormal": report.hyponormal,
            "essentiallyNormal": report.essentially_normal,
            "schattenAllP": report.schatten_all_p,
            "supercyclic": report.supercyclic,
            "cyclic": _verdict_doc(report.cyclic_detail),
        },
        spectrum=_spectrum_doc(spec, with_degree=True),
        truncation={
            "degree": degree,
            "dim": op.dim,
            "truncatedNorm": tnorm,
            "closedFormNorm": closed,
            "gap": closed - tnorm if closed is not None else None,
        },
    )
    return doc, report


def analyze_text(doc):
    r = doc["report"]
    t = doc["truncation"]
    lines = [
        f"fockop analyze (degree {t['degree']}, dim {t['dim']})",
        f"  bounded            {r['bounded']}   (||A|| = {_format_float(r['normA'])})",
        f"  compact            {r['compact']}",
    ]
    if r["norm"] is not None:
        lines.append(f"  norm               {_format_float(r['norm'])}")
        lines.append(f"  essential norm     {_format_float(r['essentialNorm'])}")
    if r["witness"] is not None:
        w = ", ".join(
            f"{_format_float(c['re'])}{c['im']:+.17g}i" for c in r["witness"]
        )
        lines.append(f"  witness            [{w}]")
    for key, label in [
        ("normal", "normal"),
        ("hyponormal", "hyponormal"),
        ("essentiallyNormal", "essentially normal"),
        ("schattenAllP", "in every S_p"),
        ("supercyclic", "supercyclic"),
    ]:
        lines.append(f"  {label:<18} {r[key]}")
    if r["cyclic"] is not None:
        lines.append(f"  cyclic             {r['cyclic']['verdict']}")
    lines.append(f"  truncated norm     {_format_float(t['truncatedNorm'])}")
    if t["closedFormNorm"] is not None:
        lines.append(f"  closed-form norm   {_format_float(t['closedFormNorm'])}")
    return "\n".join(lines)


def spectrum_document(sym, exact_angles, max_degree, verify):
    spec = spectrum_mod.enumerate_spectrum(sym, max_degree, exact_angles=exact_angles)
    doc = _document(
        sym, exact_angles,
        parameters={"maxDegree": max_degree},
        spectrum=_spectrum_doc(spec, with_degree=False),
        verification=None,
    )
    if verify:
        dist = spectrum_mod.shell_spectrum_distance(sym, max_degree)
        doc["verification"] = {"degree": max_degree, "multisetDistance": dist}
    return doc


def truncate_document(sym, degree, dump, fmt):
    op = truncation.build_truncation(sym, degree)
    if dump is not None:
        write = truncation.dump_csv if fmt == "csv" else truncation.dump_binary
        try:
            write(op, dump)
        except OSError as exc:
            raise ParseError(f"cannot write {dump}: {exc}") from None
    sv = op.singular_values()
    return _document(
        sym, None,
        parameters={
            "degree": degree,
            "dump": dump,
            "format": fmt if dump is not None else None,
        },
        truncation={
            "dim": op.dim,
            "norm": float(sv[0]),
            "topSingularValues": [float(s) for s in sv[:5]],
        },
    )


def cyclic_document(sym, exact_angles, max_coeff):
    verdict = dynamics.check_cyclic(sym, max_coeff=max_coeff, exact_angles=exact_angles)
    ind = verdict.independence
    return _document(
        sym, exact_angles,
        parameters={"maxCoeff": max_coeff},
        cyclic={
            **_verdict_doc(verdict),
            "independence": None
            if ind is None
            else {
                "independent": ind.independent,
                "relation": list(ind.relation) if ind.relation else None,
                "residual": ind.residual,
            },
        },
        # check_cyclic passed the boundedness guard, so never supercyclic
        supercyclic=False,
    )


# ---------------------------------------------------------------------------
# entry points: each command takes the parsed options and the loaded symbol
# and returns (stdout text, exit code); main writes the text once it is done


def _cmd_analyze(args, sym, tags):
    doc, report = analyze_document(sym, tags, args.degree, args.tolerance)
    text = analyze_text(doc) if args.text else canonical_json(doc)
    return text, 0 if report.bounded.bounded else 2


def _cmd_spectrum(args, sym, tags):
    doc = spectrum_document(sym, tags, args.max_degree, args.verify)
    # the enumeration is formal data about A, so it is emitted either way
    return canonical_json(doc), 0 if analysis.check_bounded(sym).bounded else 2


def _cmd_truncate(args, sym, tags):
    return canonical_json(truncate_document(sym, args.degree, args.dump, args.format)), 0


def _cmd_cyclic(args, sym, tags):
    try:
        return canonical_json(cyclic_document(sym, tags, args.max_coeff)), 0
    except NotBoundedError as exc:
        # unbounded symbols have no cyclicity notion; report and exit 2
        return canonical_json(_document(sym, tags, error=str(exc))), 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockop",
        description="Analysis of composition operators with affine symbols "
        "on the Fock space (alpha = 1/2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full classification report")
    pa.add_argument("input", help="symbol document path, or - for stdin")
    pa.add_argument("--degree", type=int, default=None, help="truncation degree")
    pa.add_argument("--tolerance", type=float, default=DEFAULT_TOL_UNIT)
    pa.add_argument(
        "--text", action="store_true", help="human-readable output instead of JSON"
    )
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("spectrum", help="spectrum enumeration")
    ps.add_argument("input")
    ps.add_argument("--max-degree", type=int, default=None)
    ps.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the truncated spectrum at --max-degree",
    )
    ps.set_defaults(func=_cmd_spectrum)

    pt = sub.add_parser("truncate", help="emit the truncated matrix")
    pt.add_argument("input")
    pt.add_argument("--degree", type=int, default=None)
    pt.add_argument("--dump", default=None, help="write the matrix to this path")
    pt.add_argument("--format", choices=["csv", "bin"], default="csv")
    pt.set_defaults(func=_cmd_truncate)

    pc = sub.add_parser("cyclic", help="cyclicity verdict")
    pc.add_argument("input")
    pc.add_argument("--max-coeff", type=int, default=dynamics.DEFAULT_MAX_COEFF)
    pc.set_defaults(func=_cmd_cyclic)
    return parser


def _check_options(args):
    """Reject the option values that the int and float types let through."""
    for name in ("degree", "max_degree"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ParseError(f"--{name.replace('_', '-')} must be >= 0, got {value}")
    max_coeff = getattr(args, "max_coeff", None)
    if max_coeff is not None and max_coeff < 1:
        raise ParseError(f"--max-coeff must be >= 1, got {max_coeff}")
    tol = getattr(args, "tolerance", 1.0)
    if not 0.0 < tol < math.inf:
        raise ParseError(f"--tolerance must be positive and finite, got {tol!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        sym, tags = _load_document(args.input)
        for name in ("degree", "max_degree"):
            if getattr(args, name, 0) is None:
                setattr(args, name, default_degree(sym.n))
        text, code = args.func(args, sym, tags)
    except FockopError as exc:
        print(f"fockop: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
