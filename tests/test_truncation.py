"""Finite truncations on the graded monomial basis and their certificates."""

import numpy as np
import pytest

from fockop import (
    AdjointNotGradedError,
    AffineSymbol,
    GaussianRational,
    MultiPolynomial,
    SizeOverflowError,
    build_basis,
    build_truncation,
    dump_binary,
    dump_csv,
    exact_matrix_as_double,
    kernel_series_polynomial,
    load_binary,
    operator_norm,
    truncated_commutator_norm,
    truncated_norm,
    truncated_singular_values,
    truncated_spectrum,
)
from fockop.truncation import compose_polynomial, dimension_cap
from conftest import make_corpus

RNG_SEED = 515


def gaussian_integral_2d(f, order=48):
    """(2 pi)^-1 integral of f(z) exp(-|z|^2/2) over C, via Gauss-Hermite."""
    x, w = np.polynomial.hermite.hermgauss(order)
    # e^{-t^2} nodes; z = sqrt(2) (x + i y) gives weight e^{-|z|^2/2}/(2 pi)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    Z = np.sqrt(2.0) * (X + 1j * Y)
    return np.sum(W * f(Z)) / np.pi


def test_basis_norms_against_quadrature():
    basis = build_basis(1, 4)
    for k, gamma in enumerate(basis.indices):
        val = gaussian_integral_2d(lambda z, g=gamma[0]: np.abs(z) ** (2 * g))
        assert val == pytest.approx(basis.norm_sq[k], rel=1e-12)


def test_basis_norms_known_values():
    basis = build_basis(1, 2)
    assert list(basis.norm_sq) == [1.0, 2.0, 8.0]
    basis2 = build_basis(2, 2)
    assert tuple(basis2.indices[:3]) == ((0, 0), (0, 1), (1, 0))
    # ||z1 z2||^2 = 4, ||z1^2||^2 = 8
    assert basis2.norm_sq[basis2.position((1, 1))] == pytest.approx(4.0)
    assert basis2.norm_sq[basis2.position((2, 0))] == pytest.approx(8.0)


def test_frozen_2x2_matrix():
    s = make_corpus()["compact_1d"]
    op = build_truncation(s, 1)
    expect = np.array([[1.0, 1.0 / np.sqrt(2.0)], [0.0, 0.5]])
    assert np.max(np.abs(op.matrix - expect)) < 1e-15


def test_identity_symbol_gives_identity_matrix():
    s = AffineSymbol(np.eye(1), np.zeros(1))
    op = build_truncation(s, 5)
    assert np.array_equal(op.matrix, np.eye(6, dtype=complex))


def test_matrix_is_degree_block_triangular():
    # C_phi cannot raise degree, so entries with |beta| > |alpha| vanish
    s = make_corpus()["shear_compact_2d"]
    op = build_truncation(s, 5)
    degs = op.basis.degrees()
    for i in range(op.dim):
        for j in range(op.dim):
            if degs[i] > degs[j]:
                assert op.matrix[i, j] == 0.0


def test_b_zero_matrix_is_shell_diagonal():
    s = make_corpus()["compact_2d"]
    op = build_truncation(s, 5)
    degs = op.basis.degrees()
    off = op.matrix[np.not_equal.outer(degs, degs)]
    assert np.all(off == 0.0)


def test_restriction_identity_exact():
    # coords(p o phi) == M @ coords(p), exactly, in rational arithmetic
    rng = np.random.default_rng(RNG_SEED)
    s = make_corpus()["shear_compact_2d"]
    N = 4
    op = build_truncation(s, N, exact=True)
    basis = op.basis
    M = exact_matrix_as_double(op)
    for _ in range(5):
        coeffs = rng.integers(-5, 6, size=basis.dim).astype(float)
        p = MultiPolynomial(
            2,
            {g: GaussianRational(int(c)) for g, c in zip(basis.indices, coeffs) if c},
            exact=True,
        )
        q = compose_polynomial(p, s)
        x = np.array(
            [
                complex(p.coefficient(g)) * np.sqrt(ns)
                for g, ns in zip(basis.indices, basis.norm_sq)
            ]
        )
        y = np.array(
            [
                complex(q.coefficient(g)) * np.sqrt(ns)
                for g, ns in zip(basis.indices, basis.norm_sq)
            ]
        )
        assert np.max(np.abs(M @ x - y)) < 1e-12


def test_exact_and_double_builds_agree():
    for name in ["compact_1d", "compact_2d", "mixed_2d", "rotation_compact_2d"]:
        s = make_corpus()[name]
        N = 8 if s.n == 1 else 5
        double = build_truncation(s, N).matrix
        exact = exact_matrix_as_double(build_truncation(s, N, exact=True))
        assert np.max(np.abs(double - exact)) < 1e-12, name


def test_truncated_norms_monotone_and_certified(bounded_corpus):
    for name, s in bounded_corpus.items():
        closed = operator_norm(s)
        Ns = [2, 4, 6] if s.n >= 3 else [2, 4, 6, 8]
        vals = [truncated_norm(s, N) for N in Ns]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:])), name
        assert vals[-1] <= closed + 1e-10, name


def test_unbounded_truncated_norms_grow():
    s = make_corpus()["unbounded_2d"]
    t10 = truncated_norm(s, 10)
    t30 = truncated_norm(s, 30)
    # frozen values, checked against an oracle that shares no code with
    # fockop: the section is block diagonal in g2 with blocks
    # 2^-g2 T_(N-g2), T_m the 1-D translation section, and the two agree to
    # 3e-16.  Growth is exp(sqrt(2N)/2) up to polynomial factors, so the
    # 30/10 ratio sits near 5.2 and 10x is first reached at N=41.
    assert t10 == pytest.approx(6.077106, rel=1e-5)
    assert t30 == pytest.approx(31.592688, rel=1e-5)
    assert t30 > 5.0 * t10


def test_truncated_spectrum_diag():
    s = make_corpus()["compact_2d"]
    got = truncated_spectrum(s, 2)
    expect = sorted(
        [1, 0.5, 1 / 3, 0.25, 1 / 6, 1 / 9], key=lambda t: -t
    )
    assert np.allclose(got, expect)


def test_truncated_singular_values_sorted():
    s = make_corpus()["compact_1d"]
    sv = truncated_singular_values(s, 6)
    assert np.all(np.diff(sv) <= 0)
    assert sv[0] == pytest.approx(truncated_norm(s, 6))


def test_commutator_norm_requires_graded_adjoint():
    s = make_corpus()["compact_1d"]
    with pytest.raises(AdjointNotGradedError):
        truncated_commutator_norm(s, 4)


def test_commutator_norm_normal_vs_nonnormal():
    c = make_corpus()
    assert truncated_commutator_norm(c["unitary_2d"], 6) < 1e-12
    assert truncated_commutator_norm(c["nilpotent_2d"], 6) > 0.1


def test_kernel_series_polynomial_evaluates_kernel():
    rng = np.random.default_rng(RNG_SEED + 2)
    w = np.array([0.4 - 0.3j, 0.2j])
    p = kernel_series_polynomial(w, 14)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= 0.8 / np.linalg.norm(z)
        exact = np.exp(np.sum(z * np.conj(w)) / 2.0)
        assert p.evaluate(z) == pytest.approx(exact, rel=1e-12)


def test_kernel_series_exact_coefficients():
    p = kernel_series_polynomial(np.array([1.0 + 0j]), 3, exact=True)
    # conj(w)^k / (2^k k!)
    assert p.coefficient((2,)) == GaussianRational(1, 0) / 8
    assert p.coefficient((3,)) == GaussianRational(1, 0) / 48


def test_dump_binary_round_trip(tmp_path):
    s = make_corpus()["rotation_compact_2d"]
    op = build_truncation(s, 4)
    path = tmp_path / "m.bin"
    dump_binary(op, path)
    dim, M = load_binary(path)
    assert dim == op.dim
    assert np.array_equal(M, op.matrix)


def test_dump_csv_round_trip(tmp_path):
    s = make_corpus()["compact_1d"]
    op = build_truncation(s, 3)
    path = tmp_path / "m.csv"
    dump_csv(op, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    M = np.zeros((op.dim, op.dim), dtype=complex)
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        M[int(i), int(j)] = float(re) + 1j * float(im)
    assert np.max(np.abs(M - op.matrix)) == 0.0


def test_dimension_cap_precedence(monkeypatch):
    monkeypatch.delenv("FOCKOP_DIM_CAP", raising=False)
    assert dimension_cap() == 50000
    monkeypatch.setenv("FOCKOP_DIM_CAP", "123")
    assert dimension_cap() == 123


def test_size_overflow(monkeypatch):
    s = make_corpus()["compact_2d"]
    monkeypatch.setenv("FOCKOP_DIM_CAP", "10")
    with pytest.raises(SizeOverflowError):
        build_truncation(s, 10)


def test_basis_position_and_contains():
    basis = build_basis(3, 4)
    for k, g in enumerate(basis.indices):
        assert basis.position(g) == k
        assert g in basis
    assert (5, 0, 0) not in basis
