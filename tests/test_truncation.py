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
    build_adjoint_truncation,
    kernel_series_polynomial,
    load_binary,
    operator_norm,
    orbit_density_experiment,
    truncated_commutator_norm,
    truncated_norm,
    truncated_spectrum,
)
from fockop.spectrum import multiset_distance
from fockop.truncation import compose_polynomial, dimension_cap
from conftest import make_corpus, random_compact_symbol, random_normal_matrix

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
    # the exact columns were converted once, into op.matrix
    assert np.array_equal(M, op.matrix) and not np.shares_memory(M, op.matrix)
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
    sv = build_truncation(s, 6).singular_values()
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


def _random_symbols(rng):
    """(symbol, N) for n = 1..4, each with B != 0 and with B = 0."""
    for n, N in [(1, 12), (2, 6), (3, 4), (4, 3)]:
        s = random_compact_symbol(rng, n)
        yield s, N
        yield AffineSymbol(s.A, np.zeros(n)), N


# entries whose binary exponents lie far apart, with -0.0 and purely
# imaginary values, so exact mode's common power of two is large
_MIXED_EXPONENTS = [
    ([[2.0**-60 + 3j * 2.0**40]], [5e-324], 8),
    ([[0.5j]], [-0.0 + 0.25j], 8),
    ([[2.0**-60, -0.0], [5e-324j, 3 * 2.0**40]], [1j, 2.0**-60], 5),
    ([[0.25j, 3j * 2.0**40], [-0.0, 0.1j]], [-0.0, 5e-324j], 5),
    (
        [[2.0**-60, 0.5j, -0.0], [3j * 2.0**40, 5e-324, 0.1], [-0.0, 1j, 2.0**-60 * 1j]],
        [5e-324, -0.0, 3j * 2.0**40],
        4,
    ),
    ([[0.5j, -0.25j, 0], [0, 1j, 0.1j], [0.3j, 0, -0.0]], [1j, 0, -2j], 4),
]


def test_exact_columns_equal_composed_monomials():
    for A, B, N in _MIXED_EXPONENTS:
        s = AffineSymbol(np.array(A, dtype=complex), np.array(B, dtype=complex))
        op = build_truncation(s, N, exact=True)
        basis = op.basis
        assert len(op.exact_columns) == basis.dim
        for alpha, col in zip(basis.indices, op.exact_columns):
            mono = MultiPolynomial(s.n, {alpha: 1}, exact=True)
            q = compose_polynomial(mono, s)
            want = {basis.position(g): c for g, c in q.terms.items()}
            assert col == want, (s.n, alpha)
            assert all(type(c) is GaussianRational for c in col.values())


def test_adjoint_route_cuts_the_kernel_exactly():
    # at (3, 6) with |B| = 2 the kernel cut at N - |alpha| drops the most
    # terms; compare with the uncut product truncated afterwards
    rng = np.random.default_rng(RNG_SEED + 6)
    s = random_compact_symbol(rng, 3)
    s = AffineSymbol(s.A, s.B * (2.0 / np.linalg.norm(s.B)))
    N = 6
    op = build_adjoint_truncation(s, N)
    basis = op.basis
    sqrt_ns = np.sqrt(basis.norm_sq)
    kernel = kernel_series_polynomial(s.B, N)
    tau = AffineSymbol(s.A.conj().T, np.zeros(3))
    want = np.zeros_like(op.matrix)
    for j, alpha in enumerate(basis.indices):
        q = (kernel * compose_polynomial(MultiPolynomial(3, {alpha: 1.0}), tau)).truncate(N)
        for g, c in q.terms.items():
            i = basis.position(g)
            want[i, j] = c * (sqrt_ns[i] / sqrt_ns[j])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(op.matrix - want)) <= 1e-12 * scale
    forward = build_truncation(s, N).matrix
    assert np.max(np.abs(op.matrix - forward.conj().T)) <= 1e-12 * scale


def test_creation_build_matches_exact_and_adjoint_routes():
    rng = np.random.default_rng(RNG_SEED + 3)
    for s, N in _random_symbols(rng):
        M = build_truncation(s, N).matrix
        exact = build_truncation(s, N, exact=True).matrix
        adjoint = build_adjoint_truncation(s, N).matrix
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(M - exact)) <= 1e-12 * scale, (s.n, N)
        assert np.max(np.abs(M - adjoint.conj().T)) <= 1e-12 * scale, (s.n, N)


def test_shell_solves_match_full_matrix():
    rng = np.random.default_rng(RNG_SEED + 4)
    for s, N in _random_symbols(rng):
        op = build_truncation(s, N)
        full_sv = np.linalg.svd(op.matrix, compute_uv=False)
        assert np.max(np.abs(op.singular_values() - full_sv)) <= 1e-12 * full_sv[0]
        assert op.norm() == op.singular_values()[0]
        full_ev = np.linalg.eigvals(op.matrix)
        assert multiset_distance(op.spectrum(), full_ev) <= 1e-12


def test_shell_commutator_matches_full_matrix():
    rng = np.random.default_rng(RNG_SEED + 5)
    for n, N in [(1, 10), (2, 6), (3, 4)]:
        for A in (random_normal_matrix(rng, n, 0.9), random_compact_symbol(rng, n).A):
            s = AffineSymbol(A, np.zeros(n))
            M = build_truncation(s, N).matrix
            H = M.conj().T
            full = np.linalg.norm(H @ M - M @ H)
            assert truncated_commutator_norm(s, N) == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_degree_300_builds_within_the_closed_form_norm():
    # the creation recursion never forms gamma! 2^|gamma|, which stops
    # fitting a double at degree 151
    s = make_corpus()["compact_1d"]
    op = build_truncation(s, 300)
    assert op.dim == 301
    assert truncated_norm(s, 40) * (1 - 1e-12) <= op.norm() <= operator_norm(s)


def test_norm_routes_stop_at_degree_150():
    s = make_corpus()["compact_1d"]
    assert build_truncation(s, 150, exact=False).dim == 151
    with pytest.raises(SizeOverflowError, match="150"):
        build_truncation(s, 151, exact=True)
    with pytest.raises(SizeOverflowError, match="150"):
        build_adjoint_truncation(s, 151)
    with pytest.raises(SizeOverflowError, match="150"):
        orbit_density_experiment(s, MultiPolynomial(1, {(0,): 1.0}), 151, 2)
    with pytest.raises(SizeOverflowError, match="150"):
        build_basis(1, 151).norm_sq
