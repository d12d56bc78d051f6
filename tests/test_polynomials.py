"""Graded multi-index enumeration and sparse polynomial arithmetic."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from fockop import MultiPolynomial, graded_dim, graded_indices
from fockop.polynomials import monomial_norm_sq_exact


def test_graded_order_n2():
    idx = graded_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def _reference_graded_indices(n, max_degree):
    # the stars-and-bars pass with a sort per shell that the direct
    # generation replaces
    out = []
    for d in range(max_degree + 1):
        shell = []
        for cut in combinations_with_replacement(range(n), d):
            g = [0] * n
            for c in cut:
                g[c] += 1
            shell.append(tuple(g))
        shell.sort()
        out.extend(shell)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graded_indices_match_sorted_stars_and_bars(n):
    for N in range(11):
        assert graded_indices(n, N) == _reference_graded_indices(n, N)


def test_graded_indices_one_variable_is_the_degrees():
    assert graded_indices(1, 2000) == [(d,) for d in range(2001)]


def test_graded_dim_matches_enumeration():
    for n in (1, 2, 3, 4):
        for N in (0, 1, 3, 5):
            assert len(graded_indices(n, N)) == graded_dim(n, N)
            assert graded_dim(n, N) == math.comb(N + n, n)


def test_monomial_norms():
    # ||z^gamma||^2 = gamma! 2^|gamma|
    assert monomial_norm_sq_exact((0,)) == 1
    assert monomial_norm_sq_exact((1,)) == 2
    assert monomial_norm_sq_exact((3,)) == 6 * 8
    assert monomial_norm_sq_exact((2, 1)) == 2 * 8


def test_polynomial_mul_and_eval():
    rng = np.random.default_rng(3)
    x = MultiPolynomial.variable(2, 0)
    y = MultiPolynomial.variable(2, 1)
    p = (x + 2 * y) * (x - y) + MultiPolynomial.constant(2, 3.0)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = (z[0] + 2 * z[1]) * (z[0] - z[1]) + 3.0
        assert p.evaluate(z) == pytest.approx(direct, rel=1e-13)


def test_polynomial_pow_truncate_degree():
    x = MultiPolynomial.variable(1, 0)
    p = (1 + x) ** 6
    assert p.degree() == 6
    assert p.coefficient((3,)) == pytest.approx(20.0)
    q = p.truncate(2)
    assert q.degree() == 2
    assert q.coefficient((2,)) == pytest.approx(15.0)
    assert q.coefficient((3,)) == 0


def test_zero_polynomial_degree():
    z = MultiPolynomial.zero(2)
    assert z.degree() == -1
    assert z.max_abs_coefficient() == 0.0
    assert (z * MultiPolynomial.variable(2, 0)).degree() == -1


def test_exact_mode_round_trip():
    x = MultiPolynomial.variable(1, 0, exact=True)
    p = (1 + x) ** 4
    # binomial coefficients come out as exact integers
    assert p.coefficient((2,)) == 6
    d = p.to_double()
    assert not d.exact
    assert d.coefficient((2,)) == 6.0


def test_mixing_exact_and_double_raises():
    x = MultiPolynomial.variable(1, 0, exact=True)
    y = MultiPolynomial.variable(1, 0, exact=False)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(TypeError):
        x + object()


def test_dimension_mismatch_raises():
    x = MultiPolynomial.variable(1, 0)
    y = MultiPolynomial.variable(2, 0)
    with pytest.raises(ValueError):
        x * y
