"""Spectrum enumeration, the truncation eigenvalue oracle, eigenfunctions."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from fockop import (
    NonSquareError,
    NotDiagonalizableError,
    build_truncation,
    construct_eigenfunction,
    eigenvalue_products,
    eigenvalues,
    enumerate_spectrum,
    multiset_distance,
    truncated_spectrum,
    verify_eigenfunction,
)
from conftest import THETA, random_normal_matrix

RNG_SEED = 777


def test_eigenvalues_sorted():
    A = np.diag([0.2, 1j, -1.0, 0.7])
    ev = eigenvalues(A)
    # unimodular first (argument ascending), then moduli descending
    assert np.allclose(ev, [1j, -1.0, 0.7, 0.2])


def test_eigenvalues_rejects_non_square():
    with pytest.raises(NonSquareError):
        eigenvalues(np.zeros((2, 3)))


def test_eigenvalue_products_diag():
    ev = np.array([0.5, 1.0 / 3.0])
    prods = eigenvalue_products(ev, 2)
    got = {g: v for g, v in prods}
    assert got[(0, 0)] == pytest.approx(1.0)
    assert got[(1, 0)] == pytest.approx(0.5)
    assert got[(0, 1)] == pytest.approx(1.0 / 3.0)
    assert got[(2, 0)] == pytest.approx(0.25)
    assert got[(1, 1)] == pytest.approx(1.0 / 6.0)
    assert got[(0, 2)] == pytest.approx(1.0 / 9.0)
    assert len(prods) == 6


def test_enumerate_spectrum_dedup_identity(corpus):
    spec = enumerate_spectrum(corpus["identity_1d"], 5)
    assert len(spec.products) == 1
    assert spec.products[0][1] == pytest.approx(1.0)
    assert not spec.closure_contains_zero


def test_enumerate_spectrum_closure_zero(corpus):
    assert enumerate_spectrum(corpus["compact_2d"], 3).closure_contains_zero
    assert not enumerate_spectrum(corpus["unitary_2d"], 3).closure_contains_zero


def test_enumerate_spectrum_independence_delegation(corpus):
    spec = enumerate_spectrum(
        corpus["rotation_i"], 3, exact_angles=[Fraction(1, 2)]
    )
    assert spec.unimodular_angles_independent == "no"
    spec2 = enumerate_spectrum(corpus["compact_2d"], 3)
    # no unimodular eigenvalues at all: independence holds vacuously
    assert spec2.unimodular_angles_independent == "yes"


def test_truncated_spectrum_matches_products_with_b(corpus):
    # B shifts nothing: the truncation is graded-triangular, so its
    # eigenvalues are the diagonal products of eigenvalues of A
    for name in ["mixed_2d", "rotation_compact_2d", "compact_3d"]:
        s = corpus[name]
        N = 4
        expected = [v for _, v in eigenvalue_products(eigenvalues(s.A), N)]
        got = truncated_spectrum(s, N)
        assert multiset_distance(expected, got) < 1e-7, name


def test_truncated_spectrum_random_normal_contractions():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = random_normal_matrix(rng, n, radius=0.95)
        s_deg = int(rng.integers(2, 6))
        from fockop import AffineSymbol

        s = AffineSymbol(A, np.zeros(n))
        expected = [v for _, v in eigenvalue_products(eigenvalues(A), s_deg)]
        got = truncated_spectrum(s, s_deg)
        assert multiset_distance(expected, got) < 1e-7


def test_multiset_distance_properties():
    xs = [1.0, 2.0, 3.0]
    assert multiset_distance(xs, [3.0, 1.0, 2.0]) == 0.0
    assert multiset_distance(xs, [3.0, 1.0, 2.5]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        multiset_distance(xs, [1.0])


def test_eigenfunction_rotation_compact(corpus):
    # diag(e^{i theta}, 1/2) with b = (0, 1): C = 2, F = w (v - 2),
    # eigenvalue e^{i theta} / 2
    s = corpus["rotation_compact_2d"]
    spec = construct_eigenfunction(s, beta=(1,), gamma=(1,))
    assert spec.eigenvalue == pytest.approx(np.exp(1j * THETA) * 0.5)
    assert np.allclose(spec.C, [2.0])
    assert verify_eigenfunction(spec) < 1e-12
    assert verify_eigenfunction(spec, s) < 1e-12
    # F itself: w*v - 2w up to eigenvector scaling
    ratio = spec.polynomial.coefficient((1, 0)) / spec.polynomial.coefficient((1, 1))
    assert ratio == pytest.approx(-2.0)


def test_eigenfunction_constant_is_exact_zero(corpus):
    s = corpus["compact_1d"]
    spec = construct_eigenfunction(s, beta=(), gamma=(0,))
    assert spec.eigenvalue == pytest.approx(1.0)
    assert verify_eigenfunction(spec) == 0.0


def test_eigenfunction_exact_mode(corpus):
    s = corpus["compact_2d"]
    spec = construct_eigenfunction(s, beta=(), gamma=(1, 2), exact=True)
    assert spec.polynomial.exact
    assert complex(spec.eigenvalue_exact) == pytest.approx(0.5 * (1.0 / 9.0))
    assert verify_eigenfunction(spec) == 0.0


def test_eigenfunction_perturbed_eigenvalue_has_residual(corpus):
    s = corpus["rotation_compact_2d"]
    spec = construct_eigenfunction(s, beta=(1,), gamma=(1,))
    bad = dataclasses.replace(spec, eigenvalue=spec.eigenvalue + 0.1)
    assert verify_eigenfunction(bad) >= 0.1 * spec.polynomial.max_abs_coefficient()


def test_eigenfunction_defective_block_rejected(corpus):
    with pytest.raises(NotDiagonalizableError):
        construct_eigenfunction(corpus["nilpotent_2d"], beta=(), gamma=(1, 0))


def test_eigenfunction_round_trip_small_degrees(corpus):
    s = corpus["shear_compact_2d"]
    for b1 in range(3):
        for g2 in range(3):
            spec = construct_eigenfunction(s, beta=(), gamma=(b1, g2))
            assert verify_eigenfunction(spec, s) < 1e-10, (b1, g2)


def test_spectrum_eigenvalues_include_unimodular_block(corpus):
    spec = enumerate_spectrum(corpus["mixed_2d"], 3)
    vals = sorted(abs(v) for _, v in spec.products)
    assert vals[0] == pytest.approx(0.125)
    assert vals[-1] == pytest.approx(1.0)
    assert spec.closure_contains_zero  # |1/2| < 1 drives powers to 0


def test_truncation_spectrum_via_operator(corpus):
    s = corpus["compact_2d"]
    op = build_truncation(s, 3)
    direct = op.spectrum()
    expected = [v for _, v in eigenvalue_products(eigenvalues(s.A), 3)]
    assert multiset_distance(direct, expected) < 1e-10
