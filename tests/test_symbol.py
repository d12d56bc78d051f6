"""Symbol validation, block Schur normal form, iterates, adjoints."""

import numpy as np
import pytest

from fockop import (
    AffineSymbol,
    NonFiniteEntryError,
    NormExceedsOneError,
    ShapeMismatchError,
    SizeOverflowError,
    StructureViolationError,
    adjoint_symbol,
    block_schur_form,
    block_schur_of_symbol,
    build_adjoint_truncation,
    build_truncation,
    compose_symbols,
    iterate_symbol,
)
from fockop.symbol import _eig_sort_key, sort_eigenvalues
from conftest import make_corpus, random_unitary

RNG_SEED = 20240811


def test_constructor_validation():
    with pytest.raises(ShapeMismatchError):
        AffineSymbol(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        AffineSymbol(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(NonFiniteEntryError):
        AffineSymbol(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(NonFiniteEntryError):
        AffineSymbol(np.eye(1), np.array([np.inf]))


def test_symbol_is_frozen():
    s = AffineSymbol(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        s.A[0, 0] = 2.0
    # so norm_a can be cached; a norm beyond the double range is not
    # cached and raises on every access
    assert s.norm_a == s.norm_a == 1.0
    huge = AffineSymbol(np.array([[1.7e308 + 1.7e308j]]), np.ones(1))
    for _ in range(2):
        with pytest.raises(SizeOverflowError):
            huge.norm_a


def test_symbol_equality_and_hash_by_value():
    rng = np.random.default_rng(RNG_SEED + 7)
    for n in (1, 2, 3):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s, t = AffineSymbol(A, B), AffineSymbol(A.copy(), B.copy())
        assert s == t and not s != t
        assert hash(s) == hash(t)
        assert len({s, t}) == 1
        assert s != AffineSymbol(A, B + 1.0)
        assert s != AffineSymbol(np.eye(n + 1), np.zeros(n + 1))
        assert s != (A, B) and s != "phi" and s != None  # noqa: E711
        # an array answers elementwise, so the symbol defers to it
        assert s.__eq__(A) is NotImplemented
    # -0.0 equals 0.0, so it must hash alike
    neg = AffineSymbol(np.array([[-0.0, 1.0], [0.5, -0.0j]]), np.array([-0.0, 0.0]))
    pos = AffineSymbol(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2))
    assert neg == pos and hash(neg) == hash(pos)


def test_call_evaluates_affine_map():
    s = AffineSymbol(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 2.0]))
    z = np.array([3.0 + 1j, 4.0])
    assert np.allclose(s(z), s.A @ z + s.B)


@pytest.mark.parametrize("one", [1 - 1e-17j, 1 + 1e-17j, 1 - 1e-15j])
def test_sort_eigenvalues_real_one_first_whatever_its_rounding(one):
    # an argument just below 2pi is the argument 0, not the largest one
    rot = np.exp(1j * np.pi / 4)
    assert _eig_sort_key(one)[1] < 1e-12
    assert list(sort_eigenvalues([one, rot])) == [one, rot]
    assert list(sort_eigenvalues([rot, one])) == [one, rot]


def _assert_sorted_reconstruction(A, form):
    T = form.M
    assert np.linalg.norm(form.U @ A @ form.U.conj().T - T) < 1e-9
    keys = [_eig_sort_key(t) for t in np.diag(T)]
    assert keys == sorted(keys)


def test_block_schur_reconstruction_random():
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        s = int(rng.integers(0, n + 1))
        # unitarily scrambled diag(unimodular block, strict contraction)
        phases = np.exp(2j * np.pi * rng.uniform(size=s))
        inner = rng.uniform(0.1, 0.8, size=n - s) * np.exp(
            2j * np.pi * rng.uniform(size=n - s)
        )
        W = random_unitary(rng, n)
        A = (W * np.concatenate([phases, inner])) @ W.conj().T
        form = block_schur_form(A)
        assert form.s == s
        _assert_sorted_reconstruction(A, form)
        assert np.all(np.abs(np.abs(form.D) - 1) < 1e-10)
        if n - s:
            assert np.all(np.abs(np.diag(form.A1)) < 1)
    # unitaries with eigenvalues exp(i pi k/4): repeated and near-real
    # eigenvalues, whose arguments rounding can push across 0 and 2 pi
    for trial in range(400):
        n = int(rng.integers(2, 5))
        W = random_unitary(rng, n)
        A = (W * np.exp(0.25j * np.pi * rng.integers(0, 8, size=n))) @ W.conj().T
        form = block_schur_form(A)
        assert form.s == n
        _assert_sorted_reconstruction(A, form)


def test_block_schur_eigen_order_is_canonical():
    A = np.diag([0.5, np.exp(0.3j), np.exp(0.1j), 0.9])
    form = block_schur_form(A)
    assert form.s == 2
    # unimodular entries argument-ascending, inner moduli descending
    assert np.allclose(form.D, [np.exp(0.1j), np.exp(0.3j)])
    assert np.allclose(np.diag(form.A1), [0.9, 0.5])
    # a rotation by 3 degrees scrambles diag(exp(i pi/4), 1)
    c, s = np.cos(np.deg2rad(3)), np.sin(np.deg2rad(3))
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag([np.exp(0.25j * np.pi), 1.0]) @ R.T
    form = block_schur_form(A)
    assert form.s == 2
    assert np.allclose(form.D, [1.0, np.exp(0.25j * np.pi)])
    _assert_sorted_reconstruction(A, form)


def test_block_schur_fast_path_identity_u():
    A = np.array([[1j, 0.0], [0.0, 0.5]])
    form = block_schur_form(A)
    assert np.array_equal(form.U, np.eye(2))
    assert form.s == 1


def test_block_schur_rejects_expansive():
    with pytest.raises(NormExceedsOneError):
        block_schur_form(np.array([[1.5]]))


def test_block_schur_rejects_unimodular_row_with_off_diagonal_mass():
    # ||A|| = 1 + 7e-13 passes the norm gate, but row 0 of the (already
    # triangular) Schur form carries 1e-6 beside its unimodular diagonal
    with pytest.raises(StructureViolationError, match="unimodular row 0"):
        block_schur_form(np.array([[1.0, 1e-6], [0.0, 0.5]]))


def test_block_schur_of_symbol_transforms_b():
    c = make_corpus()
    s = c["rotation_compact_2d"]
    form = block_schur_of_symbol(s)
    assert np.allclose(form.Bprime, form.U @ s.B)


def test_iterate_symbol_closed_form():
    s = make_corpus()["compact_1d"]
    m = 6
    it = iterate_symbol(s, m)
    a = 0.5
    assert it.A[0, 0] == pytest.approx(a**m)
    assert it.B[0] == pytest.approx(sum(a**k for k in range(m)))
    z = np.array([0.3 + 0.4j])
    w = z
    for _ in range(m):
        w = s(w)
    assert np.allclose(it(z), w)


def test_compose_symbols_order():
    outer = AffineSymbol(np.array([[2.0]]), np.array([1.0]))
    inner = AffineSymbol(np.array([[3.0]]), np.array([5.0]))
    comp = compose_symbols(outer, inner)
    z = np.array([1.5])
    assert np.allclose(comp(z), outer(inner(z)))


def test_adjoint_symbol_is_a_star():
    s = make_corpus()["shear_compact_2d"]
    tau, b = adjoint_symbol(s)
    assert np.array_equal(tau.A, s.A.conj().T)
    assert np.all(tau.B == 0)
    assert np.array_equal(b, s.B)


def test_adjoint_truncation_matches_conjugate_transpose():
    # the matrix of C* on the graded basis is the conjugate transpose of
    # the matrix of C, for every symbol, bounded or not
    c = make_corpus()
    for name in ["compact_1d", "mixed_2d", "shear_compact_2d", "unbounded_2d"]:
        s = c[name]
        N = 10 if s.n == 1 else 7
        direct = build_truncation(s, N).matrix
        star = build_adjoint_truncation(s, N).matrix
        assert np.max(np.abs(star - direct.conj().T)) < 1e-10, name
