"""The three workloads: seeded inputs, one job per unit of work, a check per job.

A job's run() makes only program calls (or starts one CLI process) and is
what the benchmark times; its check() compares the outputs with the
benchmark's own computations in oracles.py and runs with the clock paused.
run() raising, or check() raising OperationFailed (a CLI process that
printed no report), is a failed operation; any other exception from check()
is a wrong answer.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np

import oracles as O
import symbols as S


class Job:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class OperationFailed(Exception):
    """The program gave no answer: an exception, or a CLI process that
    printed no report."""


def _sym(F, case):
    return F.AffineSymbol(case.A, case.B)


def _tags(case):
    return None if case.tags is None else list(case.tags)


def check_cyclic_verdict(case, verdict, relation=None):
    """"no" for non-invertible A and for tagged rational angles, "yes" for
    n = 1 with 0 < |a| < 1; a relation, when given, must hold on the
    benchmark's own eigenvalue angles."""
    _, _, invertible = O.verdicts(case.A, case.B)
    a = abs(case.A[0, 0]) if case.n == 1 else None
    if not invertible or case.tags is not None:
        O.require(verdict == "no", f"{case.kind}: cyclic verdict {verdict!r}, expected 'no'")
    elif case.n == 1 and 0.0 < a < 1.0 - O.TOL_UNIT:
        O.require(verdict == "yes", f"{case.kind}: cyclic verdict {verdict!r}, expected 'yes'")
    else:
        O.require(verdict in ("yes", "no", "unknown"), f"bad cyclic verdict {verdict!r}")
    if relation is not None and case.tags is None and invertible:
        lam = np.linalg.eigvals(case.A)
        unim = lam[np.abs(lam) >= 1.0 - O.TOL_UNIT]
        th = np.sort(np.angle(unim) % (2 * np.pi))
        if len(relation) == th.size + 1:
            total = relation[0] * np.pi + float(np.dot(relation[1:], th))
            O.require(abs(total) < 1e-8, f"relation {relation} leaves {total:.3e}")


# ---------------------------------------------------------------------------
# truncation-oracle

# (kind, n, N, symbol class, Schatten p).  The kinds cover norm (SVD),
# spectrum (eig), commutator, forward against adjoint route, exact-mode
# builds, Hilbert-Schmidt truncations and Schatten quadrature, with B != 0
# and B = 0 builds.  The speed of the reference machine drifts by 10 to 25%
# between runs, and jobs whose time is Python dict work (B != 0 builds)
# or eig drift about twice as much as jobs whose time is one dense SVD.  So
# each percentile falls inside a group of SVD-bound B = 0 norm jobs of one
# size, never on the step between two groups: sorted by cost a round is 18
# fast jobs (< 0.1 s), 11 norms at (2,34) that hold the median, 6 jobs of
# 0.2 to 0.35 s, 10 norms at (2,40) that hold the tail percentile, and 3
# slow ones (1 to 6 s).  The list is in cost order; a round runs it in
# ORACLE_ROUND's order.
ORACLE_GROUPS = [
    # fast
    ("norm", 1, 120, "compact", None),
    ("norm", 1, 120, "compact", None),
    ("norm", 1, 120, "boundary", None),
    ("spectrum", 1, 120, "compact", None),
    ("spectrum", 1, 120, "boundary", None),
    ("norm", 2, 12, "compact", None),
    ("spectrum", 2, 12, "compact", None),
    ("adjoint", 1, 60, "compact", None),
    ("adjoint", 2, 10, "compact", None),
    ("exact", 1, 40, "dyadic", None),
    ("exact", 2, 8, "dyadic", None),
    ("commutator", 2, 24, "normal", None),
    ("commutator", 2, 24, "compact_b0", None),
    ("commutator", 3, 10, "normal", None),
    ("commutator", 3, 10, "unitary", None),
    ("hs", 1, None, "hs_safe", None),
    ("schatten", 1, None, "compact", 0.5),
    ("schatten", 1, None, "compact", 3.0),
    # median group
    *[("norm", 2, 34, "compact_b0", None)] * 11,
    # between
    ("norm", 2, 24, "compact", None),
    ("spectrum", 2, 24, "compact", None),
    ("norm", 3, 10, "compact", None),
    ("spectrum", 3, 10, "compact", None),
    ("adjoint", 3, 6, "compact", None),
    ("hs", 2, None, "hs_safe", None),
    # tail group
    *[("norm", 2, 40, "compact_b0", None)] * 10,
    # slow
    ("spectrum", 2, 40, "compact_b0", None),
    ("norm", 4, 10, "compact_b0", None),
    ("schatten", 2, None, "compact", 1.0),
]
# Every 7th job in turn, so the members of each group are spread over the
# whole round and a percentile averages the machine's speed over the run
# rather than over the two seconds in which one group would otherwise run.
ORACLE_ROUND = [ORACLE_GROUPS[i] for s in range(7) for i in range(s, len(ORACLE_GROUPS), 7)]


def _oracle_job(F, case, kind, N, p):
    sym = _sym(F, case)
    A, B, n = case.A, case.B, case.n
    if kind == "norm":
        def run():
            return F.build_truncation(sym, N).norm(), F.operator_norm(sym)

        def check(out):
            O.check_norm(A, B, out[1])
            O.check_truncated_norm(out[0], out[1])
    elif kind == "spectrum":
        def run():
            ev = F.build_truncation(sym, N).spectrum()
            return ev, [v for _, v in F.eigenvalue_products(F.eigenvalues(sym.A), N)]

        def check(out):
            want = O.products(A, N)
            O.check_multiset(out[0], want, O.SPECTRUM_ABS, "truncated spectrum")
            O.check_multiset(out[1], want, 1e-12, "eigenvalue products")
    elif kind == "commutator":
        def run():
            return F.truncated_commutator_norm(sym, N)

        def check(out):
            O.check_commutator(out, A)
    elif kind == "adjoint":
        def run():
            return F.build_truncation(sym, N).matrix, F.build_adjoint_truncation(sym, N).matrix

        def check(out):
            O.check_graded(out[0], n, N)
            O.check_low_degree(out[0], A, B)
            O.check_same_matrix(out[1], out[0].conj().T, "adjoint route")
    elif kind == "exact":
        def run():
            op = F.build_truncation(sym, N, exact=True)
            return F.build_truncation(sym, N).matrix, op.matrix, F.exact_matrix_as_double(op)

        def check(out):
            O.check_graded(out[0], n, N)
            O.check_low_degree(out[0], A, B)
            O.check_same_matrix(out[1], out[0], "exact-mode matrix")
            O.check_same_matrix(out[2], out[0], "exact columns")
    elif kind == "hs":
        def run():
            return F.hilbert_schmidt_norm_sq(sym), F.operator_norm(sym)

        def check(out):
            hs, norm = out
            O.check_norm(A, B, norm)
            O.require(hs >= norm**2 * (1 - 1e-12), f"HS^2 {hs!r} < norm^2 {norm**2!r}")
            full = O.hilbert_schmidt_sq(A, B)
            O.require(hs <= full * (1 + 1e-12), f"HS partial sum {hs!r} > full sum {full!r}")
    elif kind == "schatten":
        def run():
            r = F.schatten_integrals(sym, p)
            return r.int_cphi, r.int_cphi_star

        def check(out):
            O.check_schatten(out[0], out[1], A, B, p)
    else:
        raise ValueError(kind)
    size = f"n{n}" + (f"N{N}" if N is not None else f"p{p}")
    return Job(f"{kind}-{case.kind}-{size}", run, check)


class TruncationOracle:
    """ORACLE_ROUND's jobs on symbols drawn from one seed."""

    def __init__(self, F, seed):
        rng = np.random.default_rng(seed)
        self.jobs = [
            _oracle_job(F, S.make(cls, rng, n), kind, N, p)
            for kind, n, N, cls, p in ORACLE_ROUND
        ]
        # an n = 1 instance of each job; the first dense SVD and eig of
        # about dimension 100 in a process cost 0.5 to 0.9 s, paid here
        warm = np.random.default_rng(seed + 1)
        self.warm = [
            _oracle_job(F, S.make(cls, warm, 1), kind, N and min(N, 120), p)
            for kind, _, N, cls, p in ORACLE_ROUND
        ]


# ---------------------------------------------------------------------------
# closed-form-sweep

# enumeration degree per n: 256, 231, 286 and 330 products
SWEEP_DEGREE = {1: 255, 2: 20, 3: 10, 4: 7}
# (class, n) pairs of one block; every block of the round repeats this mix
SWEEP_MIX = [
    ("compact", 1), ("compact", 2), ("compact", 3), ("compact", 4),
    ("compact", 2), ("compact", 3), ("compact_b0", 2),
    ("boundary", 1), ("boundary", 2), ("boundary", 3), ("boundary", 4),
    ("unbounded", 1), ("unbounded", 2), ("unbounded", 3),
    ("normal", 1), ("normal", 2), ("normal", 3), ("normal", 4),
    ("unitary", 1), ("unitary", 2), ("unitary", 3),
    ("rotation_tagged", 1), ("rotation_tagged", 2), ("rotation_tagged", 3),
    ("rotation_untagged", 1), ("rotation_untagged", 2), ("rotation_untagged", 3),
    ("nilpotent", 2), ("nilpotent", 3), ("nilpotent", 4),
    ("zero", 1), ("zero", 2), ("zero", 3),
]
SWEEP_BLOCKS = 10


def _expect(exc_type, fn, *args, **kw):
    """fn's value, or the exception instance when it raises exc_type."""
    try:
        return fn(*args, **kw)
    except exc_type as exc:
        return exc


def _sweep_job(F, case, rng):
    sym = _sym(F, case)
    tags = _tags(case)
    A, B, n = case.A, case.B, case.n
    N = SWEEP_DEGREE[n]
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = np.linalg.eigvals(A)
    s = int(np.sum(np.abs(lam) >= 1.0 - O.TOL_UNIT))
    beta = tuple(int(x) for x in rng.integers(0, 3, size=s))
    gamma = tuple(int(x) for x in rng.integers(0, 3, size=n - s))

    def run():
        out = {"report": F.classify(sym, exact_angles=tags)}
        out["ess"] = _expect(F.NotBoundedError, F.essential_norm, sym)
        out["hs"] = _expect(F.NotCompactError, F.hilbert_schmidt_norm_sq_closed_form, sym)
        out["b0"] = _expect(F.NotCompactError, F.berezin_transform, sym, np.zeros(n))
        out["bz"] = _expect(F.NotCompactError, F.berezin_transform, sym, z)
        out["enum"] = F.enumerate_spectrum(sym, N, exact_angles=tags)
        spec = _expect(
            (F.NotBoundedError, F.NotDiagonalizableError), F.construct_eigenfunction, sym, beta, gamma
        )
        out["eig"] = spec
        if not isinstance(spec, Exception):
            out["resid"] = F.verify_eigenfunction(spec, sym)
        out["cyc"] = _expect(F.NotBoundedError, F.check_cyclic, sym, exact_angles=tags)
        return out

    def check(out):
        bounded, compact, _ = O.verdicts(A, B)
        rep = out["report"]
        O.require(rep.bounded.bounded == bounded, f"{case.kind}: bounded={rep.bounded.bounded}")
        O.require(rep.compact == compact, f"{case.kind}: compact={rep.compact}")
        O.check_enumeration([v for _, v in out["enum"].products], A, N)
        if not bounded:
            O.require(rep.norm is None, "unbounded symbol reported a norm")
            for key in ("ess", "eig", "cyc"):
                O.require(isinstance(out[key], F.NotBoundedError), f"unbounded symbol: {key} answered")
            check_witness(A, B, rep.bounded.witness)
            return
        O.check_norm(A, B, rep.norm)
        O.check_essential_norm(A, B, rep.essential_norm)
        O.check_essential_norm(A, B, out["ess"])
        normal = np.linalg.norm(B) < O.TOL_UNIT and np.linalg.norm(A @ A.conj().T - A.conj().T @ A) < O.TOL_UNIT
        O.require(rep.normal == normal, f"{case.kind}: normal={rep.normal}")
        if compact:
            O.close(out["hs"], O.hilbert_schmidt_sq(A, B), 1e-10, "HS closed form")
            O.require(out["hs"] >= rep.norm**2 * (1 - 1e-12), "HS^2 below norm^2")
            O.require(abs(out["b0"] - 1.0) <= 1e-15, f"Berezin transform at 0 is {out['b0']!r}")
            O.close(out["bz"], O.berezin(A, B, z), 1e-10, "Berezin transform")
        else:
            for key in ("hs", "b0", "bz"):
                O.require(isinstance(out[key], F.NotCompactError), f"non-compact symbol: {key} answered")
        spec = out["eig"]
        if isinstance(spec, Exception):
            O.require(case.kind == "nilpotent", f"{case.kind}: eigenfunction refused: {spec}")
        else:
            scale = max(1.0, spec.polynomial.max_abs_coefficient())
            O.require(out["resid"] <= O.EIGENFUNCTION_ABS * scale, f"eigenfunction residual {out['resid']:.3e}")
            prods = O.products(A, sum(beta) + sum(gamma))
            O.require(np.min(np.abs(prods - spec.eigenvalue)) <= 1e-10, "eigenvalue is not a product")
        cyc = out["cyc"]
        O.require(rep.cyclic == cyc.verdict, "classify and check_cyclic disagree")
        check_cyclic_verdict(case, cyc.verdict, cyc.relation)

    return Job(f"sweep-{case.kind}-n{n}", run, check)


def check_witness(A, B, w):
    """A unit zeta with |A zeta| = 1 and <A zeta, B> != 0."""
    O.require(w is not None, "unbounded symbol without a witness")
    w = np.asarray(w, complex)
    O.close(np.linalg.norm(w), 1.0, 1e-12, "witness length")
    O.close(np.linalg.norm(A @ w), 1.0, 1e-9, "|A witness|")
    O.require(abs(np.vdot(B, A @ w)) > 1e-6, "witness is orthogonal to B")


class ClosedFormSweep:
    """SWEEP_BLOCKS blocks of SWEEP_MIX symbols drawn from one seed."""

    def __init__(self, F, seed):
        rng = np.random.default_rng(seed)
        self.jobs = [
            _sweep_job(F, S.make(cls, rng, n), rng)
            for _ in range(SWEEP_BLOCKS)
            for cls, n in SWEEP_MIX
        ]
        warm = np.random.default_rng(seed + 1)
        self.warm = [_sweep_job(F, S.make(cls, warm, n), warm) for cls, n in SWEEP_MIX]


# ---------------------------------------------------------------------------
# cli-oneshot


def _parse_json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        raise OperationFailed("no JSON report on stdout") from None


def _parse_text(stdout):
    rows = {}
    for line in stdout.splitlines()[1:]:
        parts = re.split(r"\s{2,}", line.strip())
        if len(parts) >= 2:
            rows[parts[0]] = parts[1]
    if "bounded" not in rows:
        raise OperationFailed("no text report on stdout")
    return rows


def _check_analyze(case, code, doc):
    bounded, compact, _ = O.verdicts(case.A, case.B)
    r, t = doc["report"], doc["truncation"]
    O.require(code == (0 if bounded else 2), f"analyze exit code {code}, bounded={bounded}")
    O.require(r["bounded"] == bounded and r["compact"] == compact, "analyze verdicts")
    n, N = case.n, t["degree"]
    O.require(t["dim"] == math.comb(N + n, n), "truncation dimension")
    prods = [complex(p["value"]["re"], p["value"]["im"]) for p in doc["spectrum"]["products"]]
    O.check_enumeration(prods, case.A, doc["spectrum"]["maxDegree"])
    if not bounded:
        O.require(r["norm"] is None, "unbounded symbol reported a norm")
        check_witness(case.A, case.B, [complex(c["re"], c["im"]) for c in r["witness"]])
        return
    O.check_norm(case.A, case.B, r["norm"])
    O.check_essential_norm(case.A, case.B, r["essentialNorm"])
    O.require(t["closedFormNorm"] == r["norm"], "closed-form norm differs from the report")
    O.check_truncated_norm(t["truncatedNorm"], r["norm"])
    O.require(r["schattenAllP"] == compact and r["supercyclic"] is False, "Schatten/supercyclic")
    check_cyclic_verdict(case, r["cyclic"]["verdict"], r["cyclic"]["relation"])


def _check_analyze_text(case, code, rows):
    bounded, compact, _ = O.verdicts(case.A, case.B)
    O.require(code == (0 if bounded else 2), f"analyze exit code {code}, bounded={bounded}")
    O.require(rows["bounded"] == str(bounded) and rows["compact"] == str(compact), "text verdicts")
    if bounded:
        O.check_norm(case.A, case.B, float(rows["norm"]))
        O.check_essential_norm(case.A, case.B, float(rows["essential norm"]))
        O.check_truncated_norm(float(rows["truncated norm"]), float(rows["closed-form norm"]))
        check_cyclic_verdict(case, rows["cyclic"])


def _check_spectrum(case, code, doc):
    bounded = O.verdicts(case.A, case.B)[0]
    O.require(code == (0 if bounded else 2), f"spectrum exit code {code}")
    prods = [complex(p["value"]["re"], p["value"]["im"]) for p in doc["spectrum"]["products"]]
    O.check_enumeration(prods, case.A, doc["parameters"]["maxDegree"])
    v = doc["verification"]
    O.require(v is not None and v["multisetDistance"] <= O.SPECTRUM_ABS, f"verification {v}")


def _check_matrix(case, N, norm, M):
    O.check_graded(M, case.n, N)
    O.check_low_degree(M, case.A, case.B)
    O.close(norm, float(np.linalg.norm(M, 2)), 1e-12, "norm of the dumped matrix")
    if O.verdicts(case.A, case.B)[0]:
        O.check_truncated_norm(norm, O.operator_norm(case.A, case.B))
    O.check_multiset(np.linalg.eigvals(M), O.products(case.A, N), O.SPECTRUM_ABS, "dumped spectrum")


def _check_cyclic_doc(case, code, doc):
    O.require(code == 0, f"cyclic exit code {code}")
    c = doc["cyclic"]
    check_cyclic_verdict(case, c["verdict"], c["relation"])
    O.require(doc["supercyclic"] is False, "bounded C_phi reported supercyclic")


class CliOneshot:
    """Each job is one `python -m fockop.cli` process; traced runs call
    fockop.cli.main(argv) in-process instead."""

    def __init__(self, root, outdir, seed, traced):
        self.root, self.outdir, self.traced = root, outdir, traced
        self.max_rss_kb = 0
        self.docs = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        rng = np.random.default_rng(seed)
        mk = lambda cls, n: S.make(cls, rng, n)  # noqa: E731
        # phi(z) = z/2 + 1, the same in every run: the degree-160 call on it
        # fails every time today, whatever the seed
        self.trunc_case = S.Case("compact", np.array([[0.5 + 0j]]), np.array([1.0 + 0j]))
        self.lower_norm = None
        self.reference = None
        jobs = [
            self._analyze(mk("compact", 2)),
            self._analyze(mk("compact", 1), text=True),
            self._analyze(mk("boundary", 2)),
            self._analyze(mk("boundary", 3), text=True),
            self._analyze(mk("unbounded", 2)),
            self._analyze(mk("normal", 3)),
            self._analyze(mk("unitary", 2)),
            self._analyze(mk("nilpotent", 3)),
            self._analyze(mk("zero", 2), text=True),
            self._analyze(mk("rotation_tagged", 2)),
            self._analyze(mk("rotation_untagged", 1)),
            self._spectrum(mk("compact", 3)),
            self._spectrum(mk("normal", 2)),
            self._truncate_dump(mk("compact", 2), "csv"),
            self._truncate_dump(mk("unitary", 2), "bin"),
            self._cyclic(mk("rotation_tagged", 1)),
            self._cyclic(mk("compact", 1)),
            self._cyclic(mk("nilpotent", 2)),
            self._truncate_degree(40),
            self._truncate_degree(160),
        ]
        first = jobs[0]
        check_first = first.check

        def check_repeat(out):
            check_first(out)
            O.require(out[1] == self.reference, "repeated analyze call printed different bytes")

        first.check = check_repeat
        self.jobs = jobs
        # the warm-up call writes the .pyc files and records the bytes that
        # every later call of the first job must repeat
        self.warm = [Job("warm-up", first.run, self._remember)]

    # -- plumbing

    def _doc(self, case):
        self.docs += 1
        path = os.path.join(self.outdir, f"sym{self.docs}.json")
        with open(path, "w") as fh:
            fh.write(S.document(case))
        return path

    def call(self, argv):
        """(exit code, stdout text) of one CLI call."""
        if self.traced:
            return self._call_in_process(argv)
        out = os.path.join(self.outdir, "stdout")
        err = os.path.join(self.outdir, "stderr")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            p = subprocess.Popen(
                [sys.executable, "-m", "fockop.cli", *argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
            )
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out, encoding="utf-8") as fh:
            return p.returncode, fh.read()

    def _call_in_process(self, argv):
        from fockop import cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the operation failed; the run goes on
            raise OperationFailed(f"{type(exc).__name__}: {exc}") from None
        return code, buf.getvalue()

    def _remember(self, out):
        self.reference = out[1]

    # -- jobs

    def _analyze(self, case, text=False):
        argv = ["analyze", self._doc(case)] + (["--text"] if text else [])

        def check(out):
            code, stdout = out
            if text:
                _check_analyze_text(case, code, _parse_text(stdout))
            else:
                _check_analyze(case, code, _parse_json(stdout))

        return Job(f"analyze{'-text' if text else ''}-{case.kind}-n{case.n}",
                   lambda: self.call(argv), check)

    def _spectrum(self, case):
        argv = ["spectrum", self._doc(case), "--verify"]
        return Job(f"spectrum-{case.kind}-n{case.n}", lambda: self.call(argv),
                   lambda out: _check_spectrum(case, out[0], _parse_json(out[1])))

    def _truncate_dump(self, case, fmt):
        dump = os.path.join(self.outdir, f"dump.{fmt}")
        argv = ["truncate", self._doc(case), "--dump", dump, "--format", fmt]

        def check(out):
            code, doc = out[0], _parse_json(out[1])
            M = O.read_csv(dump) if fmt == "csv" else O.read_bin(dump)
            O.require(code == 0, f"truncate exit code {code}")
            t = doc["truncation"]
            O.require(t["topSingularValues"][0] == t["norm"], "top singular value is not the norm")
            _check_matrix(case, doc["parameters"]["degree"], t["norm"], M)

        return Job(f"truncate-{fmt}-{case.kind}-n{case.n}", lambda: self.call(argv), check)

    def _cyclic(self, case):
        argv = ["cyclic", self._doc(case)]
        return Job(f"cyclic-{case.kind}-n{case.n}", lambda: self.call(argv),
                   lambda out: _check_cyclic_doc(case, out[0], _parse_json(out[1])))

    def _truncate_degree(self, N):
        """n = 1 truncations of one symbol: degree 40, then degree 160,
        whose norm must lie between the degree-40 norm and the closed form."""
        case = self.trunc_case
        argv = ["truncate", self._doc(case), "--degree", str(N)]

        def check(out):
            code, doc = out[0], _parse_json(out[1])
            O.require(code == 0, f"truncate exit code {code}")
            norm = doc["truncation"]["norm"]
            O.check_truncated_norm(norm, O.operator_norm(case.A, case.B))
            if N == 40:
                self.lower_norm = norm
            else:
                O.require(self.lower_norm is not None, "no degree-40 norm to compare with")
                O.require(norm >= self.lower_norm * (1 - 1e-12), "norm fell as the degree grew")

        return Job(f"truncate-n1-N{N}", lambda: self.call(argv), check)

