"""Finite truncations on the graded monomial basis and their certificates."""

import bisect
import gc
import math
import operator
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockop import (
    AdjointNotGradedError,
    AffineSymbol,
    GaussianRational,
    MultiPolynomial,
    ShapeMismatchError,
    SizeOverflowError,
    build_basis,
    build_truncation,
    dump_binary,
    dump_csv,
    exact_matrix_as_double,
    build_adjoint_truncation,
    block_schur_of_symbol,
    construct_eigenfunction,
    kernel_series_polynomial,
    load_binary,
    operator_norm,
    orbit_density_experiment,
    truncated_commutator_norm,
    truncated_norm,
    truncated_spectrum,
    verify_eigenfunction,
)
from fockop.polynomials import graded_dim
from fockop.spectrum import multiset_distance
from fockop.symbol import adjoint_symbol, sort_eigenvalues
from fockop import truncation
from fockop.truncation import (
    _PRUNE_SLACK,
    _block_diagonal,
    _creation_maps,
    _creation_parents,
    _creation_shells,
    _frobenius_bounds,
    _shell_columns,
    dimension_cap,
)
from conftest import (
    make_corpus,
    random_bounded_noncompact_symbol,
    random_compact_symbol,
    random_contraction,
    random_normal_matrix,
    random_unitary,
)

RNG_SEED = 515


# Reference composition through MultiPolynomial arithmetic, the engine
# that builds eigenfunctions: the oracle of the tests below that compose
# a polynomial with a symbol.


def _affine_forms(symbol, exact):
    """The coordinate polynomials l_i(z) = (Az + B)_i."""
    n = symbol.n
    forms = []
    for i in range(n):
        terms = {}
        for j in range(n):
            a = symbol.A[i, j]
            if a != 0:
                g = tuple(1 if t == j else 0 for t in range(n))
                terms[g] = GaussianRational.from_complex(a) if exact else complex(a)
        b = symbol.B[i]
        if b != 0:
            terms[(0,) * n] = GaussianRational.from_complex(b) if exact else complex(b)
        forms.append(MultiPolynomial(n, terms, exact=exact))
    return forms


def compose_polynomial(p, symbol):
    """p(phi(z)) for an affine symbol, in the mode of p.

    Powers of the affine forms are cached across terms, so the cost is one
    sparse multiply per distinct exponent rather than per term.  Exact
    polynomials compose with the symbol's entries converted losslessly.
    """
    if p.n != symbol.n:
        raise ShapeMismatchError("polynomial and symbol dimensions differ")
    forms = _affine_forms(symbol, p.exact)
    one = GaussianRational(1) if p.exact else 1.0
    # powers[i] holds l_i^0, l_i^1, ... grown on demand
    powers = [[MultiPolynomial.constant(p.n, one, exact=p.exact)] for _ in range(p.n)]

    def power(i, k):
        cache = powers[i]
        while len(cache) <= k:
            cache.append(cache[-1] * forms[i])
        return cache[k]

    out = MultiPolynomial.zero(p.n, exact=p.exact)
    for g, c in sorted(p.terms.items()):
        term = MultiPolynomial.constant(p.n, c, exact=p.exact)
        for i, gi in enumerate(g):
            if gi:
                term = term * power(i, gi)
        out = out + term
    return out


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


def test_dump_binary_round_trip(tmp_path):
    s = make_corpus()["rotation_compact_2d"]
    op = build_truncation(s, 4)
    path = tmp_path / "m.bin"
    dump_binary(op, path)
    dim, M = load_binary(path)
    assert dim == op.dim
    assert np.array_equal(M, op.matrix)


def test_load_binary_refuses_cut_off_files(tmp_path):
    s = make_corpus()["compact_1d"]
    path = tmp_path / "m.bin"
    dump_binary(build_truncation(s, 2), path)
    data = path.read_bytes()
    # within the magic, within the 4-byte dim, and within the payload
    for cut, match in [(5, "bad magic"), (11, "truncated header"), (20, "truncated payload")]:
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=match):
            load_binary(path)


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


def test_kernel_series_obeys_the_dimension_cap(monkeypatch):
    # C(20 + 2, 2) = 231 terms, as many as build_basis(2, 20) has indices
    monkeypatch.setenv("FOCKOP_DIM_CAP", "10")
    with pytest.raises(SizeOverflowError, match="231 exceeds cap 10"):
        kernel_series_polynomial(np.array([0.4 - 0.3j, 0.2j]), 20)


def test_kernel_series_fails_closed():
    # 151! 2^151 leaves the double range, and so does 1e200^2
    with pytest.raises(SizeOverflowError, match="the kernel series"):
        kernel_series_polynomial([0.5], 151)
    with pytest.raises(SizeOverflowError, match="degree-3 kernel series coefficient"):
        kernel_series_polynomial([1e200], 3)


def test_kernel_series_keeps_every_coefficient_that_fits_a_double():
    # 200^150 leaves the double range, but the degree-150 coefficient
    # 200^150 / (2^150 150!) = 100^150 / 150! is about 1.75e37
    p = kernel_series_polynomial([200.0], 150)
    assert len(p.terms) == 151
    for (k,), c in p.terms.items():
        want = float(Fraction(100**k, math.factorial(k)))
        assert abs(c - want) <= 1e-13 * want, k


def test_adjoint_route_refuses_an_overflowing_kernel_series():
    # the adjoint's kernel is K_B: its degree-2 term B^2 / 8 overflows
    # before any product is formed, so no numpy warning is emitted
    s = AffineSymbol(np.array([[0.5]]), np.array([1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SizeOverflowError, match="kernel series coefficient"):
            build_adjoint_truncation(s, 3)


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


def test_eigenfunction_residual_matches_composed_polynomial():
    # verify_eigenfunction against F o psi - lambda F in MultiPolynomial
    # arithmetic, on eigenfunctions of degree up to 2n
    rng = np.random.default_rng(RNG_SEED + 7)
    classes = {
        "compact": random_compact_symbol,
        "boundary": random_bounded_noncompact_symbol,
        "normal": lambda rng, n: AffineSymbol(random_normal_matrix(rng, n), np.zeros(n)),
        "unitary": lambda rng, n: AffineSymbol(random_unitary(rng, n), np.zeros(n)),
        "b0": lambda rng, n: AffineSymbol(random_contraction(rng, n), np.zeros(n)),
    }
    for kind, make in classes.items():
        for n in range(1, 5):
            for _ in range(2):
                sym = make(rng, n)
                s = block_schur_of_symbol(sym).s
                beta = tuple(int(x) for x in rng.integers(0, 3, size=s))
                gamma = tuple(int(x) for x in rng.integers(0, 3, size=n - s))
                spec = construct_eigenfunction(sym, beta, gamma)
                F = spec.polynomial
                want = (
                    compose_polynomial(F, spec.normalized_symbol)
                    - F.scale(spec.eigenvalue)
                ).max_abs_coefficient()
                got = verify_eigenfunction(spec, sym)
                scale = max(1.0, F.max_abs_coefficient())
                assert abs(got - want) <= 1e-13 * scale, (kind, n, beta, gamma)


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


# The dense creation recursion as it stood before B = 0 truncations were
# built as shell blocks, with its B = 0 row window, its creation maps from
# a dict lookup per entry and its weights: the reference for the bits of
# the creation recursion, in both of its row windows.


def _reference_creation_maps(basis):
    rows = graded_dim(basis.n, basis.max_degree - 1)
    low = basis.indices[:rows]
    pos = {g: i for i, g in enumerate(basis.indices)}
    return np.array(
        [[pos[g[:k] + (g[k] + 1,) + g[k + 1 :]] for g in low] for k in range(basis.n)],
        dtype=np.intp,
    ).reshape(basis.n, rows)


def _reference_creation_weights(basis):
    rows = graded_dim(basis.n, basis.max_degree - 1)
    G = np.array(basis.indices[:rows], dtype=float).reshape(rows, basis.n)
    return np.sqrt(2.0 * (G.T + 1.0))


def _reference_creation_matrix(symbol, basis, w):
    n, A, B = basis.n, symbol.A, symbol.B
    dst = _reference_creation_maps(basis)
    M = np.zeros((basis.dim, basis.dim), dtype=complex)
    M[0, 0] = 1.0
    b_zero = not np.any(B)
    for d in range(1, basis.max_degree + 1):
        parent, shell = basis.shell(d - 1), basis.shell(d)
        rows = slice(parent.start if b_zero else 0, parent.stop)
        top = shell.start if b_zero else 0
        for j in range(n):
            cols = slice(parent.start, parent.start + math.comb(d + n - 2 - j, n - 1 - j))
            P = M[rows, cols]
            kids = dst[j, cols]
            X = M[top : shell.stop, kids[0] : kids[-1] + 1]
            if B[j] != 0:
                X[rows.start - top : rows.stop - top] += B[j] * P
            for k in range(n):
                if A[j, k] != 0:
                    X[dst[k, rows] - top] += (A[j, k] * w[k, rows])[:, None] * P
            X.real /= w[j, cols]
            X.imag /= w[j, cols]
    return M


def test_creation_maps_match_the_dict_lookup():
    # at (40, 2) the keys (N + 1)^(n + 1) = 3^41 leave int64
    for n, N in [(1, 0), (1, 150), (2, 40), (3, 16), (4, 10), (40, 2)]:
        basis = build_basis(n, N)
        want = _reference_creation_maps(basis)
        assert np.array_equal(_creation_maps(basis), want), (n, N)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (
        x.shape == y.shape
        and np.array_equal(x, y)
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))
        and np.array_equal(np.signbit(x.imag), np.signbit(y.imag))
    )


def test_block_route_has_the_dense_recursions_bits():
    rng = np.random.default_rng(RNG_SEED + 8)
    for n, Ns in [(1, (0, 1, 40, 150)), (2, (0, 7, 24)), (3, (0, 8)), (4, (0, 6))]:
        for N in Ns:
            A = random_contraction(rng, n, top=0.9)
            if n > 1:
                # skipped terms, one of them a negative zero
                A[0, -1], A[-1, 0] = 0.0, -0.0
            s = AffineSymbol(A, np.zeros(n))
            op = build_truncation(s, N)
            basis = op.basis
            M = _reference_creation_matrix(s, basis, _reference_creation_weights(basis))
            shells = [M[basis.shell(d), basis.shell(d)] for d in range(N + 1)]
            sv = [np.linalg.svd(b, compute_uv=False) for b in shells]
            assert _same_bits(op.singular_values(), np.sort(np.concatenate(sv))[::-1])
            ev = sort_eigenvalues(np.concatenate([np.linalg.eigvals(b) for b in shells]))
            assert _same_bits(op.spectrum(), ev)
            comm = math.hypot(
                *(np.linalg.norm(b.conj().T @ b - b @ b.conj().T) for b in shells)
            )
            assert _same_bits(truncated_commutator_norm(s, N), comm)
            col = np.zeros(N + 1)
            np.add.at(col, basis.degrees(), np.sum(np.abs(M) ** 2, axis=0))
            assert _same_bits(op.column_norms_sq_by_degree(), col)
            assert _same_bits(op.matrix, M), (n, N)
            ones = np.ones((n, basis.shell(N).start))
            C = _block_diagonal(basis, _creation_shells(s, basis, ones)[0])
            assert _same_bits(C, _reference_creation_matrix(s, basis, ones)), (n, N)


def test_dense_route_has_the_reference_recursions_bits():
    rng = np.random.default_rng(RNG_SEED + 12)
    for n, Ns in [(1, (0, 1, 40, 150)), (2, (0, 7, 24)), (3, (0, 8)), (4, (0, 6))]:
        for N in Ns:
            A = random_contraction(rng, n, top=0.9)
            B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if n > 1:
                # skipped terms, one of them a negative zero, and a B_j = 0
                A[0, -1], A[-1, 0], B[-1] = 0.0, -0.0, 0.0
            s = AffineSymbol(A, B)
            basis = build_basis(n, N)
            ones = np.ones((n, basis.shell(N).start))
            for w in (_reference_creation_weights(basis), ones):
                blocks, M = _creation_shells(s, basis, w)
                assert _same_bits(M, _reference_creation_matrix(s, basis, w)), (n, N)
                for d, block in enumerate(blocks):
                    assert np.shares_memory(block, M)
                    assert _same_bits(block, M[: basis.shell(d).stop, basis.shell(d)])
            M = _reference_creation_matrix(s, basis, _reference_creation_weights(basis))
            assert _same_bits(build_truncation(s, N).matrix, M), (n, N)


def test_creation_parents_match_the_dict_lookup():
    # at (40, 2) the creation maps' keys (N + 1)^(n + 1) = 3^41 leave int64
    for n, N in [(1, 0), (1, 150), (2, 40), (3, 16), (4, 10), (40, 2)]:
        basis = build_basis(n, N)
        slot, parent = _creation_parents(basis)
        want = [(0, 0)]
        for alpha in basis.indices[1:]:
            j = next(i for i, a in enumerate(alpha) if a > 0)
            want.append((j, basis.position(alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :])))
        assert list(zip(slot.tolist(), parent.tolist())) == want, (n, N)


def test_creation_recursion_has_the_reference_bits_in_more_variables():
    rng = np.random.default_rng(RNG_SEED + 14)
    for n, N in [(5, 0), (5, 4), (6, 4), (8, 3)]:
        A = random_contraction(rng, n, top=0.9)
        # a zero column: no L_j has a z_1 term; and a negative zero
        A[:, 1] = 0.0
        A[0, -1] = -0.0
        B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B[::2] = 0.0
        basis = build_basis(n, N)
        ones = np.ones((n, basis.shell(N).start))
        for b in (np.zeros(n), B):
            s = AffineSymbol(A, b)
            for w in (_reference_creation_weights(basis), ones):
                blocks, M = _creation_shells(s, basis, w)
                if M is None:
                    M = _block_diagonal(basis, blocks)
                assert _same_bits(M, _reference_creation_matrix(s, basis, w)), (n, N)


def test_eigenfunction_residual_reads_the_shell_blocks_with_the_dense_bits():
    # with B = 0 the check reads F's columns from the shell blocks; the
    # reference takes them from the whole block-diagonal matrix
    rng = np.random.default_rng(RNG_SEED + 15)
    for n in (2, 3, 4):
        for _ in range(3):
            sym = AffineSymbol(random_contraction(rng, n), np.zeros(n))
            gamma = tuple(int(x) for x in rng.integers(0, 3, size=n))
            spec = construct_eigenfunction(sym, (), gamma)
            psi = spec.normalized_symbol
            assert not np.any(psi.B)
            terms = spec.polynomial.terms
            d = max(sum(g) for g in terms)
            basis = build_basis(n, d)
            pos = [basis.position(g) for g in terms]
            blocks, _ = _creation_shells(psi, basis, np.ones((n, basis.shell(d).start)))
            C = _block_diagonal(basis, blocks)
            # F is homogeneous here; a shuffled half of all positions
            # reads across the shells.  Each column is zero outside its
            # shell, and each entry of cols is read once.
            for cols in (np.array(pos), rng.permutation(basis.dim)[: basis.dim // 2]):
                seen = []
                for rows, i, got in _shell_columns(basis, blocks, cols):
                    assert _same_bits(got, C[rows, cols[i]]) and got.flags.f_contiguous
                    outside = np.ones(basis.dim, dtype=bool)
                    outside[rows] = False
                    assert not np.any(C[outside][:, cols[i]])
                    seen += i.tolist()
                assert sorted(seen) == list(range(len(cols)))
            f = np.array(list(terms.values()), dtype=complex)
            resid = (C[:, pos] * f).sum(axis=1)
            resid[pos] -= spec.eigenvalue * f
            want = float(np.max(np.abs(resid)))
            assert _same_bits(verify_eigenfunction(spec), want), (n, gamma)


def _dyadic(A):
    """A rounded to multiples of 2^-8, so that exact mode stays cheap."""
    return (np.round(A.real * 256) + 1j * np.round(A.imag * 256)) / 256


def test_oracle_routes_take_the_pruned_norm_with_the_all_block_bits():
    rng = np.random.default_rng(RNG_SEED + 13)
    # a dyadic unitary: (1 + i)/2 and (1 - i)/2 have modulus 2^-1/2
    h = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    unitary = {
        1: np.array([[1j]]),
        2: h,
        3: np.block([[h, np.zeros((2, 1))], [np.zeros((1, 2)), -1j * np.eye(1)]]),
    }
    for n, N in [(1, 20), (2, 8), (3, 5)]:
        for A in (_dyadic(random_contraction(rng, n, top=0.9)), unitary[n]):
            s = AffineSymbol(A, np.zeros(n))
            for op in (build_truncation(s, N, exact=True), build_adjoint_truncation(s, N)):
                assert _same_bits(op.norm(), op.singular_values()[0]), (n, N)


def test_b_zero_norm_never_forms_the_dense_matrix():
    # dim 5151: the dense matrix would take 424 MB, the shell blocks 5.6 MB
    rng = np.random.default_rng(RNG_SEED + 9)
    A = random_contraction(rng, 2, top=0.9)
    s = AffineSymbol(A, np.zeros(2))
    tracemalloc.start()
    try:
        norm = truncated_norm(s, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # C_{Az} has the singular values sigma^gamma, sigma those of A, and the
    # section at N holds every |gamma| <= N exactly
    s1, s2 = np.linalg.svd(A, compute_uv=False)
    want = sorted(
        (s1**g1 * s2**g2 for g1 in range(101) for g2 in range(101 - g1)), reverse=True
    )
    got = build_truncation(s, 100).singular_values()
    assert got[0] == norm
    assert np.max(np.abs(got[:10] - want[:10])) <= 1e-12


def _b_zero_symbols(rng, n):
    """Compact, unitary, boundary (||A|| = 1, not unitary for n > 1) and
    ||A|| > 1."""
    A = random_contraction(rng, n)
    top = A / np.linalg.svd(A, compute_uv=False)[0]
    return {
        "compact": A,
        "unitary": random_unitary(rng, n),
        "boundary": top,
        "expanding": 1.3 * top,
    }


def test_pruned_norm_has_the_all_block_bits():
    rng = np.random.default_rng(RNG_SEED + 10)
    for n, N in [(1, 40), (2, 20), (3, 10), (4, 6)]:
        for kind, A in _b_zero_symbols(rng, n).items():
            op = build_truncation(AffineSymbol(A, np.zeros(n)), N)
            tops = [np.linalg.svd(b, compute_uv=False)[0] for b in op.shell_blocks()]
            assert _same_bits(op.norm(), max(tops)), (n, kind)
            if kind == "expanding":
                assert int(np.argmax(tops)) == N, n


def test_pruned_norm_solves_only_the_blocks_that_can_hold_it(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(RNG_SEED + 11)
    for n, N in [(1, 40), (2, 20), (3, 10), (4, 6)]:
        # ||A||_F < 1 puts every shell block past block 0 below Frobenius
        # norm 1: Gamma_d(A) is a compression of the d-fold tensor power
        A = random_contraction(rng, n)
        A *= 0.9 / np.linalg.norm(A)
        op = build_truncation(AffineSymbol(A, np.zeros(n)), N)
        calls.clear()
        assert op.norm() == 1.0
        assert calls == [(1, 1)], n
        # a unitary A has unitary blocks: every one ties with block 0
        op = build_truncation(AffineSymbol(random_unitary(rng, n), np.zeros(n)), N)
        calls.clear()
        assert op.norm() == pytest.approx(1.0, abs=1e-12)
        assert len(calls) == N + 1, n


def _b_nonzero_symbols(rng, n):
    """Symbols with B != 0: compact, boundary (||A|| = 1 and bounded, where
    the top singular values of the truncations cluster), unitary A and
    ||A|| = 1 with a generic B (both unbounded), and nilpotent A."""
    A = random_contraction(rng, n)
    B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    boundary = random_bounded_noncompact_symbol(rng, n)
    while not np.any(boundary.B):  # a unitary A admits only B = 0
        boundary = random_bounded_noncompact_symbol(rng, n)
    return {
        "compact": AffineSymbol(A, B),
        "boundary": boundary,
        "unitary": AffineSymbol(random_unitary(rng, n), B),
        "unbounded": AffineSymbol(A / np.linalg.svd(A, compute_uv=False)[0], B),
        "nilpotent": AffineSymbol(np.triu(A, 1), B),
    }


def test_lanczos_norm_agrees_with_the_dense_svd():
    rng = np.random.default_rng(RNG_SEED + 31)
    # dims 85 to 1001, from the crossover up
    for n, N in [
        (1, 84), (2, 12), (3, 7), (1, 120), (4, 5), (2, 15),
        (1, 160), (1, 300), (2, 17), (2, 24), (2, 30), (3, 9), (3, 12), (4, 6), (4, 7), (4, 10),
    ]:
        symbols = _b_nonzero_symbols(rng, n)
        if N == 10:  # dim 1001: two classes keep the dense SVDs few
            symbols = {k: symbols[k] for k in ("compact", "boundary")}
        for kind, s in symbols.items():
            op = build_truncation(s, N)
            assert op.dim >= truncation._LANCZOS_MIN_DIM
            dense = np.linalg.svd(op.matrix, compute_uv=False)[0]
            norm = op.norm()
            assert abs(norm - dense) <= 1e-13 * dense, (n, N, kind)
            lanczos = truncation._lanczos_norm(op.matrix, truncation._lanczos_steps(op.dim))
            if lanczos is not None:
                assert norm == lanczos
            else:
                # the boundary symbols' clusters (and, at n = 1, their B of
                # rounding size) and the rank-one M of A = 0 fall back
                assert kind == "boundary" or (kind, n) == ("nilpotent", 1), (n, N, kind)
                assert _same_bits(norm, op.singular_values()[0])
    # below the crossover the norm keeps the dense SVD's bits
    for n, N in [(1, 83), (2, 11), (3, 6), (4, 4)]:
        for kind, s in _b_nonzero_symbols(rng, n).items():
            op = build_truncation(s, N)
            assert op.dim < truncation._LANCZOS_MIN_DIM
            assert _same_bits(op.norm(), op.singular_values()[0]), (n, N, kind)


def test_lanczos_norm_takes_no_dense_svd(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(RNG_SEED + 32)
    for n, N in [(2, 24), (3, 10)]:  # dims 325 and 286
        s = random_compact_symbol(rng, n)
        op = build_truncation(s, N)
        shapes.clear()
        norm = op.norm()
        assert shapes and (op.dim, op.dim) not in shapes
        assert norm <= operator_norm(s) * (1 + 1e-12)


class _CountedProducts(np.ndarray):
    """A matrix that counts the products taken with it, from either side."""

    products = 0

    def __matmul__(self, other):
        _CountedProducts.products += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        _CountedProducts.products += 1
        return other @ np.asarray(self)


def test_lanczos_norm_gives_up_once_its_residual_stalls(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 34)
    s = random_bounded_noncompact_symbol(rng, 2)
    op = build_truncation(s, 24)
    assert op.dim == 325 and np.any(s.B)
    M = op.matrix.view(_CountedProducts)
    # each step takes two products, after the first one with v_1
    _CountedProducts.products = 0
    assert truncation._lanczos_norm(M, truncation._lanczos_steps(op.dim)) is None
    assert _CountedProducts.products <= 2 * 12 + 1
    # without the stall exit the clustered top singular values run the
    # recursion out of dim // 8 = 40 steps
    monkeypatch.setattr(truncation, "_stalled", lambda residual, steps: False)
    _CountedProducts.products = 0
    assert truncation._lanczos_norm(M, op.dim // 8) is None
    assert _CountedProducts.products == 2 * 40 + 1
    monkeypatch.undo()
    assert _same_bits(op.norm(), op.singular_values()[0])


def test_lanczos_norm_falls_back_to_the_dense_bits(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 33)
    s = random_compact_symbol(rng, 2)
    op = build_truncation(s, 24)
    dense = op.singular_values()[0]
    # one step does not converge
    monkeypatch.setattr(truncation, "_DIM_PER_LANCZOS_STEP", op.dim)
    assert truncation._lanczos_norm(op.matrix, 1) is None
    assert _same_bits(op.norm(), dense)
    monkeypatch.undo()
    cases = [
        # A = 0: M is rank one, and the recursion breaks down at step 2
        (AffineSymbol(np.zeros((2, 2)), [0.5, 1j]), 20),
        (AffineSymbol(np.zeros((3, 3)), [1.0, -0.5, 0.25j]), 9),
        # entries near 1e170, whose squares leave the double range
        (AffineSymbol([[10.0]], [1.0]), 170),
    ]
    for s, N in cases:
        op = build_truncation(s, N)
        assert op.dim >= truncation._LANCZOS_MIN_DIM
        assert truncation._lanczos_norm(op.matrix, op.dim // truncation._DIM_PER_LANCZOS_STEP) is None
        assert _same_bits(op.norm(), op.singular_values()[0])


def test_builds_refuse_what_physical_memory_cannot_hold(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated past physical memory")

    for name in ("_creation_shells", "_exact_columns", "_block_diagonal"):
        monkeypatch.setattr(f"fockop.truncation.{name}", refuse)
    monkeypatch.setattr("fockop.truncation._physical_memory", lambda: 10**9)
    # n = 4, N = 30: dim 46376, under the dimension cap
    A = np.diag([0.5, 0.4, 0.3, 0.2]).astype(complex)
    dense = (
        "dim-46376 truncation's dense matrix would take 34411734016 bytes, "
        "more than the 1000000000 bytes"
    )
    blocks = "dim-46376 truncation's shell blocks would take 2421198208 bytes"
    with pytest.raises(SizeOverflowError, match=dense):
        build_truncation(AffineSymbol(A, np.full(4, 0.5 + 0j)), 30)
    with pytest.raises(SizeOverflowError, match=dense):
        build_truncation(AffineSymbol(A, np.full(4, 0.5 + 0j)), 30, exact=True)
    with pytest.raises(SizeOverflowError, match=dense):
        build_adjoint_truncation(AffineSymbol(A, np.full(4, 0.5 + 0j)), 30)
    with pytest.raises(SizeOverflowError, match=blocks):
        build_truncation(AffineSymbol(A, np.zeros(4)), 30)


def test_block_form_matrix_refuses_past_physical_memory(monkeypatch):
    # n = 2, N = 10: the blocks take 16 * 506 = 8096 bytes, the dense
    # matrix 16 * 66^2 = 69696
    s = make_corpus()["compact_2d"]
    monkeypatch.setattr("fockop.truncation._physical_memory", lambda: 10_000)
    op = build_truncation(s, 10)
    assert op.norm() == 1.0
    with pytest.raises(SizeOverflowError, match="dense matrix would take 69696 bytes"):
        op.matrix


def test_eigenfunction_check_refuses_past_physical_memory(monkeypatch):
    # degree 2 in 2 variables with B = 0: the shell blocks of the dim-6
    # coefficient matrix take 16 * (1 + 4 + 9) = 224 bytes
    spec = construct_eigenfunction(make_corpus()["compact_2d"], beta=(), gamma=(1, 1))
    assert verify_eigenfunction(spec) < 1e-15

    def refuse(*args):
        raise AssertionError("allocated past physical memory")

    for name in ("_creation_shells", "_shell_columns"):
        monkeypatch.setattr(f"fockop.spectrum.{name}", refuse)
    monkeypatch.setattr("fockop.truncation._physical_memory", lambda: 200)
    with pytest.raises(SizeOverflowError, match="shell blocks would take 224 bytes"):
        verify_eigenfunction(spec)


def test_eigenfunction_check_with_b_zero_counts_its_shell_blocks(monkeypatch):
    # 500 bytes hold the 224 bytes of shell blocks, though not the 576 of
    # the dense matrix, which a B = 0 check never builds
    spec = construct_eigenfunction(make_corpus()["compact_2d"], beta=(), gamma=(1, 1))
    resid = verify_eigenfunction(spec)
    monkeypatch.setattr("fockop.truncation._physical_memory", lambda: 500)
    assert _same_bits(verify_eigenfunction(spec), resid)


@pytest.mark.parametrize(
    "A, B, N",
    [
        ([[1e103]], [0.0], 3),
        ([[1e103]], [1.0], 3),
        (np.diag([1e60, 0.5]), [0.0, 0.0], 6),
    ],
)
def test_builds_refuse_entries_past_the_double_range(A, B, N):
    # only shell N overflows, so a finiteness check that missed one block,
    # or read blocks built separately from the one that is kept, would
    # let the build through
    s = AffineSymbol(np.array(A, dtype=complex), np.array(B, dtype=complex))
    top = abs(A[0][0]) ** (N - 1)
    assert build_truncation(s, N - 1).norm() == pytest.approx(top, rel=1e-12)
    with pytest.raises(SizeOverflowError, match=f"degree-{N} truncation entry exceeds"):
        build_truncation(s, N)


def test_build_basis_shares_one_read_only_basis(monkeypatch):
    basis = build_basis(2, 10)
    assert build_basis(2, 10) is basis
    for table in (basis.exponents, basis.norm_sq):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    # the cap is read again on a call that finds its basis kept
    build_truncation(make_corpus()["compact_2d"], 20)
    monkeypatch.setenv("FOCKOP_DIM_CAP", "10")
    with pytest.raises(SizeOverflowError, match="231 exceeds cap 10"):
        build_basis(2, 20)


def test_build_basis_keeps_a_bounded_number_of_bases():
    kept = truncation._BASES_KEPT
    assert not truncation._bases  # conftest empties it before every test
    for N in range(3 * kept):
        build_basis(1, N)
        assert len(truncation._bases) <= kept
    # the least recently used go first
    last = build_basis(1, 3 * kept - 1)
    assert build_basis(1, 3 * kept - 1) is last
    assert (1, 0) not in truncation._bases


def test_b_zero_blocks_are_views_into_one_buffer():
    rng = np.random.default_rng(RNG_SEED + 16)
    for n, N in [(1, 30), (2, 12), (3, 6), (4, 4)]:
        op = build_truncation(AffineSymbol(random_contraction(rng, n), np.zeros(n)), N)
        sizes = [math.comb(d + n - 1, d) for d in range(N + 1)]
        buffer = op._buffer
        # the bytes the memory check counts
        assert buffer.nbytes == 16 * sum(m * m for m in sizes)
        assert all(b.base is buffer for b in op.blocks)
        assert [b.shape for b in op.blocks] == [(m, m) for m in sizes]


# The per-block Frobenius norm that the B = 0 norm took before the bounds
# were read from the blocks' one buffer: the reference for those bounds.


def _frobenius(block):
    parts = block.view(float)
    return math.sqrt((parts * parts).sum(axis=0).sum())


def test_frobenius_bounds_from_the_buffer_match_the_per_block_norms(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 17)
    for n, N in [(1, 60), (2, 30), (3, 12), (4, 8)]:
        for kind, A in _b_zero_symbols(rng, n).items():
            op = build_truncation(AffineSymbol(A, np.zeros(n)), N)
            blocks = op.shell_blocks()
            got = _frobenius_bounds(op.basis, op._buffer)
            want = np.array([_frobenius(b) for b in blocks])
            assert np.max(np.abs(got - want) / want) <= 1e-14, (n, kind)
            # a bound certifies its block: a rank-one block's bound may
            # round below its top singular value, by less than the slack
            tops = np.array([np.linalg.svd(b, compute_uv=False)[0] for b in blocks])
            assert np.all(got * (1.0 + _PRUNE_SLACK) >= tops), (n, kind)
    # each row is summed whole, however the rows are cut into chunks, one
    # shorter than a row included
    for chunk in (1, 100):
        monkeypatch.setattr(truncation, "_ROW_CHUNK", chunk)
        truncation._bases.clear()
        assert _same_bits(_frobenius_bounds(build_basis(n, N), op._buffer), got), chunk


# Exact mode and the adjoint route as they stood before exact mode kept its
# coefficients as scaled Gaussian integers and the adjoint route built its
# shells as arrays: exact columns as GaussianRational maps, the matrix
# evaluated from them one entry at a time, and the adjoint's dict
# convolutions.  The reference for the bits of exact mode and for the
# adjoint route's values.


def _reference_exact_columns(symbol, basis):
    n, A, B = symbol.n, symbol.A, symbol.B
    s = max(
        float(x).as_integer_ratio()[1].bit_length() - 1
        for z in (*A.ravel(), *B)
        for x in (z.real, z.imag)
    )

    def scaled(z):
        return tuple(
            num << (s - den.bit_length() + 1)
            for num, den in (float(x).as_integer_ratio() for x in (z.real, z.imag))
        )

    forms = []
    for j in range(n):
        row = [(k, *scaled(A[j, k])) for k in range(n)] + [(None, *scaled(B[j]))]
        forms.append([t for t in row if t[1] or t[2]])
    pos = {g: i for i, g in enumerate(basis.indices)}
    zero = (0,) * n
    prev_shell = {zero: {zero: (1, 0)}}
    cols = [{0: GaussianRational(1)}]
    for d in range(1, basis.max_degree + 1):
        den = 1 << (s * d)
        shell = {}
        for alpha in basis.indices[basis.shell(d)]:
            j = next(i for i, ai in enumerate(alpha) if ai > 0)
            parent = prev_shell[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]
            poly = {}
            for g, (cr, ci) in parent.items():
                for k, ar, ai in forms[j]:
                    h = g if k is None else g[:k] + (g[k] + 1,) + g[k + 1 :]
                    qr, qi = poly.get(h, (0, 0))
                    poly[h] = (qr + cr * ar - ci * ai, qi + cr * ai + ci * ar)
            poly = {h: c for h, c in poly.items() if c != (0, 0)}
            shell[alpha] = poly
            cols.append(
                {
                    pos[h]: GaussianRational(Fraction(re, den), Fraction(im, den))
                    for h, (re, im) in poly.items()
                }
            )
        prev_shell = shell
    return tuple(cols)


def _reference_matrix_from_exact(sqrt_ns, columns):
    out = np.zeros((len(columns), len(columns)), dtype=complex)
    for j, colmap in enumerate(columns):
        for i, c in colmap.items():
            out[i, j] = complex(c) * (sqrt_ns[i] / sqrt_ns[j])
    return out


def _reference_adjoint_truncation(symbol, max_degree):
    basis = build_basis(symbol.n, max_degree)
    sqrt_ns = np.sqrt(basis.norm_sq)
    n, N = symbol.n, max_degree
    tau, weight = adjoint_symbol(symbol)
    forms = [[(k, complex(a)) for k, a in enumerate(row) if a != 0] for row in tau.A]
    kernel = list(kernel_series_polynomial(weight, N).terms.items())
    kernel_degrees = [sum(g) for g, _ in kernel]
    pos = {g: i for i, g in enumerate(basis.indices)}
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    zero = (0,) * n
    shell = {zero: {zero: 1.0}}
    for d in range(N + 1):
        if d:
            prev_shell, shell = shell, {}
            for alpha in basis.indices[basis.shell(d)]:
                j = next(i for i, ai in enumerate(alpha) if ai > 0)
                parent = prev_shell[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]
                h = shell[alpha] = {}
                for g, c in parent.items():
                    for k, a in forms[j]:
                        gk = g[:k] + (g[k] + 1,) + g[k + 1 :]
                        h[gk] = h.get(gk, 0) + c * a
        cut = kernel[: bisect.bisect_right(kernel_degrees, N - d)]
        for alpha, h in shell.items():
            q = {}
            for g, c in h.items():
                for gam, kc in cut:
                    t = tuple(map(operator.add, g, gam))
                    q[t] = q.get(t, 0) + c * kc
            col = pos[alpha]
            for t, c in q.items():
                out[pos[t], col] = c
    out *= sqrt_ns[:, None] / sqrt_ns[None, :]
    return out


def _oracle_symbols(rng):
    """(symbol, N): the mixed exponents, then seeded symbols for n = 1..4
    with B != 0 and B = 0, dyadic or not, and with a zero, a negative zero
    and a subnormal entry in A."""
    for A, B, N in _MIXED_EXPONENTS:
        yield AffineSymbol(np.array(A, dtype=complex), np.array(B, dtype=complex)), N
    for s, N in _random_symbols(rng):
        yield s, N
        A = _dyadic(s.A)
        if s.n > 1:
            A[0, -1], A[-1, 0], A[-1, -1] = 0.0, -0.0, 5e-324 - 5e-324j
        yield AffineSymbol(A, s.B), N


def test_exact_mode_has_the_reference_bits():
    rng = np.random.default_rng(RNG_SEED + 18)
    for s, N in _oracle_symbols(rng):
        op = build_truncation(s, N, exact=True)
        columns = _reference_exact_columns(s, op.basis)
        want = _reference_matrix_from_exact(np.sqrt(op.basis.norm_sq), columns)
        assert _same_bits(op.matrix, want), (s.n, N)
        assert _same_bits(exact_matrix_as_double(op), want), (s.n, N)
        assert op.exact_columns == columns, (s.n, N)


def test_exact_columns_are_converted_only_when_read():
    s = make_corpus()["shear_compact_2d"]
    op = build_truncation(s, 4, exact=True)
    exact_matrix_as_double(op)
    assert "exact_columns" not in vars(op)
    columns = op.exact_columns
    assert op.exact_columns is columns
    assert all(type(c) is GaussianRational for col in columns for c in col.values())
    assert build_truncation(s, 4).exact_columns is None


def test_exact_mode_holds_only_the_matrix():
    # the scaled Gaussian integers that the matrix is built from are
    # dropped; exact_columns expands them again when it is read
    rng = np.random.default_rng(RNG_SEED + 40)
    s = AffineSymbol(random_contraction(rng, 2, top=0.9), [0.5, -0.25j])
    build_basis(2, 16)  # cached and shared between operators: not counted
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = build_truncation(s, 16, exact=True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert op.dim == 153
    assert held <= 2 * 16 * op.dim**2


def test_adjoint_route_matches_the_reference():
    rng = np.random.default_rng(RNG_SEED + 19)
    for s, N in _oracle_symbols(rng):
        want = _reference_adjoint_truncation(s, N)
        got = build_adjoint_truncation(s, N).matrix
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (s.n, N)


@pytest.mark.parametrize(
    "build",
    [
        lambda s, N: build_truncation(s, N, exact=True),
        build_adjoint_truncation,
    ],
    ids=["exact", "adjoint"],
)
def test_oracle_routes_refuse_entries_past_the_double_range(build):
    # the degree-3 coefficient 1e600 leaves the double range, as it does
    # for the creation recursion
    s = AffineSymbol(np.array([[1e200]], dtype=complex), np.zeros(1, dtype=complex))
    assert np.all(np.isfinite(build(s, 1).matrix))
    message = "a degree-3 truncation entry exceeds the double range"
    with pytest.raises(SizeOverflowError, match=message):
        build_truncation(s, 3)
    with pytest.raises(SizeOverflowError, match=message):
        build(s, 3)


_ENTRY = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)


@st.composite
def _truncated_symbols(draw):
    """(symbol, N) for n = 1..3, B zero or not, with a zero entry in A when
    n > 1."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, {1: 10, 2: 5, 3: 3}[n]))
    entries = st.lists(st.tuples(_ENTRY, _ENTRY), min_size=n * n, max_size=n * n)
    A = np.array([complex(*z) for z in draw(entries)]).reshape(n, n)
    if n > 1:
        A.flat[draw(st.integers(0, n * n - 1))] = 0.0
    B = np.zeros(n, dtype=complex)
    if draw(st.booleans()):
        B = np.array([complex(*z) for z in draw(entries)[:n]])
    return AffineSymbol(A, B), N


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_truncated_symbols())
def test_forward_matrix_is_the_adjoint_routes_conjugate_transpose(case):
    s, N = case
    M = build_truncation(s, N).matrix
    adjoint = build_adjoint_truncation(s, N).matrix
    assert np.max(np.abs(M - adjoint.conj().T)) <= 1e-12 * np.max(np.abs(M))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_truncated_symbols())
def test_exact_mode_matrix_is_the_double_build(case):
    s, N = case
    M = build_truncation(s, N).matrix
    exact = build_truncation(s, N, exact=True).matrix
    assert np.max(np.abs(M - exact)) <= 1e-12 * np.max(np.abs(exact))
