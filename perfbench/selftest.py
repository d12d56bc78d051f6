"""Each of the benchmark's checks rejects a deliberately wrong answer.

    python3 -m pytest perfbench/selftest.py -q

Every test first shows that the check accepts fockop's own answer, then
that it rejects the same answer with one defect put in.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import fockop as F  # noqa: E402
import oracles as O  # noqa: E402
import symbols as S  # noqa: E402
import workloads as W  # noqa: E402


def _case(kind, n, seed=5):
    return S.make(kind, np.random.default_rng(seed), n)


@pytest.mark.parametrize("kind,n", [("compact", 2), ("boundary", 3)])
def test_norm_raised_by_1e_6_is_rejected(kind, n):
    case = _case(kind, n)
    norm = F.operator_norm(F.AffineSymbol(case.A, case.B))
    O.check_norm(case.A, case.B, norm)
    with pytest.raises(O.CheckError):
        O.check_norm(case.A, case.B, norm * (1 + 1e-6))


def test_dropped_eigenvalue_product_is_rejected():
    case = _case("compact", 2)
    N = 8
    ev = F.truncated_spectrum(F.AffineSymbol(case.A, case.B), N)
    want = O.products(case.A, N)
    O.check_multiset(ev, want, O.SPECTRUM_ABS, "spectrum")
    with pytest.raises(O.CheckError):
        O.check_multiset(np.delete(ev, 3), want, O.SPECTRUM_ABS, "spectrum")


def test_dropped_enumerated_product_is_rejected():
    case = _case("compact", 2)
    N = 6
    kept = [v for _, v in F.enumerate_spectrum(F.AffineSymbol(case.A, case.B), N).products]
    O.check_enumeration(kept, case.A, N)
    with pytest.raises(O.CheckError):
        O.check_enumeration(kept[:5] + kept[6:], case.A, N)


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_schatten_off_by_1e_6_relative_is_rejected(p):
    case = _case("compact", 1)
    r = F.schatten_integrals(F.AffineSymbol(case.A, case.B), p)
    O.check_schatten(r.int_cphi, r.int_cphi_star, case.A, case.B, p)
    with pytest.raises(O.CheckError):
        O.check_schatten(r.int_cphi * (1 + 1e-6), r.int_cphi_star, case.A, case.B, p)
    with pytest.raises(O.CheckError):
        O.check_schatten(r.int_cphi, r.int_cphi_star * (1 - 1e-6), case.A, case.B, p)


def test_exit_0_for_an_unbounded_symbol_is_rejected(tmp_path):
    wl = W.CliOneshot(os.path.dirname(HERE), str(tmp_path), seed=3, traced=True)
    case = _case("unbounded", 2)
    code, stdout = wl.call(["analyze", wl._doc(case)])
    doc = W._parse_json(stdout)
    assert code == 2
    W._check_analyze(case, code, doc)
    with pytest.raises(O.CheckError):
        W._check_analyze(case, 0, doc)


def test_transposed_adjoint_matrix_is_rejected():
    job = W._oracle_job(F, _case("compact", 2), "adjoint", 6, None)
    forward, adjoint = job.run()
    job.check((forward, adjoint))
    with pytest.raises(O.CheckError):
        job.check((forward, adjoint.T))


def test_swapped_matrix_convention_is_rejected():
    case = _case("compact", 2)
    M = F.build_truncation(F.AffineSymbol(case.A, case.B), 4).matrix
    O.check_low_degree(M, case.A, case.B)
    with pytest.raises(O.CheckError):
        O.check_low_degree(M.T, case.A, case.B)


def test_cli_crash_is_a_failed_operation(tmp_path):
    """The degree-160 call fails today (OverflowError in build_basis); the
    benchmark counts it as failed, not as a wrong answer."""
    wl = W.CliOneshot(os.path.dirname(HERE), str(tmp_path), seed=3, traced=True)
    job = wl.jobs[-1]
    assert job.name == "truncate-n1-N160"
    try:
        out = job.run()
    except W.OperationFailed:
        return
    wl.jobs[-2].check(wl.jobs[-2].run())
    job.check(out)
