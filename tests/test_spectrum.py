"""Spectrum enumeration, the truncation eigenvalue oracle, eigenfunctions."""

import cmath
import dataclasses
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockop import (
    AffineSymbol,
    NonSquareError,
    NotDiagonalizableError,
    ShapeMismatchError,
    SizeOverflowError,
    block_schur_of_symbol,
    build_basis,
    build_truncation,
    construct_eigenfunction,
    eigenvalue_products,
    eigenvalues,
    enumerate_spectrum,
    multiset_distance,
    truncated_spectrum,
    verify_eigenfunction,
)
from fockop.polynomials import graded_indices
from fockop.truncation import _creation_shells
from fockop.spectrum import (
    DEDUP_TOL,
    _COND_CAP,
    _dedup_mask,
    _matched_eig,
    _normalized_symbol,
    _perfect_matching,
    shell_spectrum_distance,
)
from conftest import (
    THETA,
    random_bounded_noncompact_symbol,
    random_compact_symbol,
    random_contraction,
    random_normal_matrix,
    random_unitary,
)

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


def test_enumerate_spectrum_dedup_is_not_transitive():
    # 0.5 + 0.6e-10 lies within DEDUP_TOL of both neighbours, which are
    # 1.2e-10 apart: the graded-lex first one wins and the third survives
    A = np.diag([0.5 + 1.2e-10, 0.5 + 0.6e-10, 0.5])
    spec = enumerate_spectrum(AffineSymbol(A, np.zeros(3)), 1)
    assert [g for g, _ in spec.products] == [(0, 0, 0), (0, 0, 1), (1, 0, 0)]


def _pairwise_dedup(products):
    """The reference rule: keep v unless it is within DEDUP_TOL of a value
    kept before it."""
    kept = []
    for g, v in products:
        if not any(abs(v - u) <= DEDUP_TOL for _, u in kept):
            kept.append((g, v))
    return kept


def _dedup_cases():
    rng = np.random.default_rng(RNG_SEED)
    for n, degree in [(1, 12), (2, 9), (3, 7), (4, 5)]:
        for _ in range(4):
            yield random_normal_matrix(rng, n, radius=1.0), degree
        # roots of unity: many products coincide up to rounding
        roots = np.exp(2j * np.pi * rng.integers(0, 12, size=n) / 12)
        yield np.diag(roots), degree
        # near-duplicate eigenvalues a few DEDUP_TOL apart
        base = rng.uniform(0.3, 0.9) * np.exp(2j * np.pi * rng.uniform())
        jitter = DEDUP_TOL * rng.uniform(-2, 2, size=n) * np.exp(
            2j * np.pi * rng.uniform(size=n)
        )
        yield np.diag(base + jitter), degree


def test_enumerate_spectrum_matches_pairwise_dedup():
    for A, degree in _dedup_cases():
        spec = enumerate_spectrum(AffineSymbol(A, np.zeros(len(A))), degree)
        full = eigenvalue_products(eigenvalues(A), degree)
        assert list(spec.products) == _pairwise_dedup(full)


def _reference_products(eigvals, max_degree):
    # the scalar loop that the power-table products replace
    eigvals = np.asarray(eigvals, dtype=complex)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for g in graded_indices(len(eigvals), max_degree):
            v = 1.0 + 0.0j
            for lam, gi in zip(eigvals, g):
                if gi:
                    v *= lam**gi
            if not cmath.isfinite(v):
                raise SizeOverflowError(
                    f"eigenvalue product at multi-index {g} exceeds the double range"
                )
            out.append((g, v))
    return out


# the enumeration degrees of the closed-form sweep benchmark
_SWEEP_DEGREE = {1: 255, 2: 20, 3: 10, 4: 7}


def _sweep_class_matrices(rng, n):
    """One A per symbol class of the closed-form sweep; B does not enter
    the products."""
    yield "compact", random_contraction(rng, n, top=0.85)
    yield "boundary", random_bounded_noncompact_symbol(rng, n).A
    yield "normal", random_normal_matrix(rng, n, radius=0.9)
    yield "unitary", random_unitary(rng, n)
    turns = rng.choice([1 / 2, 1 / 3, 2 / 5, 3 / 4, 5 / 6, 7 / 5, 5 / 3], n, replace=False)
    yield "rotation", np.diag(np.exp(1j * np.pi * turns))
    A = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    yield "nilpotent", A
    yield "zero", np.zeros((n, n), dtype=complex)


def _bits(products):
    return [(g, np.complex128(v).tobytes()) for g, v in products]


@pytest.mark.parametrize("n", sorted(_SWEEP_DEGREE))
def test_eigenvalue_products_bits_match_scalar_loop(n):
    rng = np.random.default_rng(RNG_SEED + n)
    for _ in range(3):
        for kind, A in _sweep_class_matrices(rng, n):
            ev = eigenvalues(A)
            got = eigenvalue_products(ev, _SWEEP_DEGREE[n])
            assert _bits(got) == _bits(_reference_products(ev, _SWEEP_DEGREE[n])), kind


def test_eigenvalue_products_keep_signed_zeros():
    # (-0.5) (-0.25) has imaginary part -0.0; multiplying it by the unused
    # factor lambda_3^0 = 1 + 0j would turn that into +0.0
    ev = np.array([-0.5, -0.25, 0.5], dtype=complex)
    got = eigenvalue_products(ev, 4)
    assert _bits(got) == _bits(_reference_products(ev, 4))
    assert np.signbit(dict(got)[(1, 1, 0)].imag)


def test_eigenvalue_products_overflow_names_first_index():
    ev = eigenvalues(np.diag([1e200, 0.5]))
    with pytest.raises(SizeOverflowError) as ref:
        _reference_products(ev, 3)
    with pytest.raises(SizeOverflowError) as got:
        eigenvalue_products(ev, 3)
    assert str(got.value) == str(ref.value)
    assert "(2, 0)" in str(got.value)


def test_eigenvalue_products_count_is_capped_before_generation(monkeypatch):
    ev = eigenvalues(np.diag([0.5, 0.4, 0.3]))
    with pytest.raises(SizeOverflowError, match="166676666850001 exceeds cap 50000"):
        eigenvalue_products(ev, 100000)
    monkeypatch.setenv("FOCKOP_DIM_CAP", "10")
    assert len(eigenvalue_products(ev[:2], 3)) == 10
    with pytest.raises(SizeOverflowError, match="15 exceeds cap 10"):
        enumerate_spectrum(AffineSymbol(np.diag(ev[:2]), np.zeros(2)), 4)


def _assert_block_dedup_is_pairwise(values):
    values = np.asarray(values, dtype=complex)
    want = [i for i, _ in _pairwise_dedup(list(enumerate(values)))]
    assert np.flatnonzero(_dedup_mask(values)).tolist() == want


# values on a grid of DEDUP_TOL / 9.5: no two grid points lie exactly
# DEDUP_TOL apart, so rounding cannot decide a comparison
_GRID = DEDUP_TOL / 9.5
_BASE = 0.3 + 0.4j


@st.composite
def _clustered_values(draw):
    size = draw(st.integers(1, 300))
    spacing = draw(st.integers(5, 14))  # cluster spacing in grid units
    clusters = draw(st.integers(1, 40))
    point = st.tuples(
        st.integers(0, clusters - 1), st.integers(-3, 3), st.integers(-3, 3)
    )
    points = draw(st.lists(point, min_size=size, max_size=size))
    return [_BASE + _GRID * complex(c * spacing + dx, dy) for c, dx, dy in points]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_clustered_values())
def test_block_dedup_matches_pairwise_on_clusters(values):
    _assert_block_dedup_is_pairwise(values)


def _chain_at(start):
    # far-apart values, then a non-transitive chain 6 grid units a step
    # from position start on: its middle value is dropped, its ends kept
    far = [float(k) for k in range(start)]
    chain = [_BASE + _GRID * 6 * k for k in range(3)]
    return far + chain + [float(k) + 0.5 for k in range(70)]


@pytest.mark.parametrize(
    "values, kept",
    [
        (_chain_at(62), list(range(62)) + [62, 64]),
        (_chain_at(63), list(range(63)) + [63, 65]),
        (_chain_at(64), list(range(64)) + [64, 66]),
        ([0.25 - 0.5j] * 300, [0]),
        ([1.0] + [0.0] * 299, [0, 1]),
        ([complex(k, -k) for k in range(300)], list(range(300))),
        # a difference of exactly DEDUP_TOL marks a duplicate
        ([0.0, DEDUP_TOL, 1.0], [0, 2]),
        ([0.0] + [k + 10.0 for k in range(63)] + [DEDUP_TOL, 1.0], [*range(64), 65]),
    ],
    ids=[
        "chain-62",
        "chain-63",
        "chain-64",
        "all-equal",
        "zero-class",
        "all-distinct",
        "exact-tol-in-block",
        "exact-tol-across-blocks",
    ],
)
def test_block_dedup_across_block_edges(values, kept):
    _assert_block_dedup_is_pairwise(values)
    got = np.flatnonzero(_dedup_mask(np.asarray(values, dtype=complex)))
    assert got[: len(kept)].tolist() == kept


def _greedy_order(lam, diag):
    """The reference matching: each diagonal entry in turn takes the
    nearest unclaimed eigenvalue, the first one on a tie."""
    taken = [False] * len(lam)
    order = []
    for a in diag:
        best, best_d = None, None
        for j in range(len(lam)):
            if not taken[j]:
                d = abs(lam[j] - a)
                if best is None or d < best_d:
                    best, best_d = j, d
        taken[best] = True
        order.append(best)
    return order


def test_matched_eig_matches_greedy_order():
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(200):
        m = int(rng.integers(1, 6))
        diag = 0.9 * rng.uniform(size=m) * np.exp(2j * np.pi * rng.uniform(size=m))
        A1 = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)), 1)
        if trial % 4 == 0:
            # equal entries in contiguous runs with no coupling inside a
            # run keep A1 diagonalizable and make ties in the matching
            runs = np.sort(rng.integers(0, max(1, m - 1), size=m))
            diag = diag[runs]
            A1[runs[:, None] == runs[None, :]] = 0
        A1 += np.diag(diag)
        lam, V = np.linalg.eig(A1.T)
        if np.linalg.cond(V) > _COND_CAP:
            with pytest.raises(NotDiagonalizableError):
                _matched_eig(A1)
            continue
        order = _greedy_order(lam, np.diag(A1))
        got_lam, got_V = _matched_eig(A1)
        assert np.array_equal(got_lam, lam[order])
        assert np.array_equal(got_V, V[:, order])


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


def _reference_multiset_distance(xs, ys):
    """Optimal-matching sup distance between equal-size complex multisets."""
    from scipy.optimize import linear_sum_assignment

    xs = np.asarray(xs, dtype=complex).reshape(-1)
    ys = np.asarray(ys, dtype=complex).reshape(-1)
    if xs.shape != ys.shape:
        raise ValueError(f"multiset sizes differ: {xs.shape} vs {ys.shape}")
    cost = np.abs(xs[:, None] - ys[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max()) if len(r) else 0.0


@st.composite
def _grid_multisets(draw):
    # two multisets of the same size on a 3 x 3 grid of step 1/2: many
    # pairwise distances tie exactly
    size = draw(st.integers(0, 6))
    point = st.tuples(st.integers(0, 2), st.integers(0, 2))
    sets = [draw(st.lists(point, min_size=size, max_size=size)) for _ in range(2)]
    return [np.array([complex(x, y) / 2 for x, y in p], dtype=complex) for p in sets]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_grid_multisets())
def test_multiset_distance_is_the_bottleneck_distance(sets):
    xs, ys = sets
    perms = np.array(list(itertools.permutations(range(len(xs)))), dtype=np.intp)
    brute = float(np.abs(xs - ys[perms]).max(axis=1, initial=0.0).min())
    got = multiset_distance(xs, ys)
    assert got == brute
    assert got <= _reference_multiset_distance(xs, ys)


def test_multiset_distance_never_exceeds_the_sum_optimal_matching():
    rng = np.random.default_rng(RNG_SEED)
    for size in (10, 40, 120):
        centers = rng.random(5) + 1j * rng.random(5)
        xs = rng.choice(centers, size) + 1e-3 * rng.standard_normal(size)
        ys = rng.choice(centers, size) + 1e-3 * rng.standard_normal(size)
        assert multiset_distance(xs, ys) <= _reference_multiset_distance(xs, ys)


def test_perfect_matching_follows_a_path_past_the_recursion_limit():
    # cyclic staircase: row i meets columns i and i + 1, the last row only
    # column 0; from the identity start, the last row's one augmenting path
    # runs through all 1100 columns
    n = 1100
    adj = np.zeros((n, n), dtype=bool)
    rows = np.arange(n - 1)
    adj[rows, rows] = adj[rows, rows + 1] = True
    adj[n - 1, 0] = True
    assert n > sys.getrecursionlimit()
    got = _perfect_matching(adj, np.arange(n))
    assert got.tolist() == list(range(1, n)) + [0]
    # without column n - 1's one edge the same search runs to a dead end
    adj[n - 2, n - 1] = False
    assert _perfect_matching(adj, np.arange(n)) is None


def test_shell_spectrum_distance_on_the_corpus(corpus):
    # every shell block's eigenvalues are that shell's products
    for name, s in corpus.items():
        assert shell_spectrum_distance(s, 6) < 1e-12, name


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


def test_eigenfunction_check_rejects_another_dimension(corpus):
    spec = construct_eigenfunction(corpus["rotation_compact_2d"], beta=(1,), gamma=(1,))
    with pytest.raises(ShapeMismatchError):
        verify_eigenfunction(spec, corpus["compact_1d"])


def test_eigenfunction_check_is_capped_before_it_builds(corpus, monkeypatch):
    # both specs have degree 3 in 2 variables: C(5, 2) = 10 monomials
    double = construct_eigenfunction(corpus["shear_compact_2d"], beta=(), gamma=(2, 1))
    exact = construct_eigenfunction(corpus["compact_2d"], beta=(), gamma=(1, 2), exact=True)
    monkeypatch.setenv("FOCKOP_DIM_CAP", "10")
    assert verify_eigenfunction(double) < 1e-12
    assert verify_eigenfunction(exact) == 0.0

    def refuse(*args):
        raise AssertionError("built a matrix past the cap")

    monkeypatch.setenv("FOCKOP_DIM_CAP", "9")
    monkeypatch.setattr("fockop.truncation._creation_shells", refuse)
    monkeypatch.setattr("fockop.truncation._exact_columns", refuse)
    for spec in (double, exact):
        with pytest.raises(SizeOverflowError, match="10 exceeds cap 9"):
            verify_eigenfunction(spec)


def test_eigenfunction_check_overflow_is_typed(corpus):
    # (z/2 + 1e200)^2 has the constant term 1e400
    spec = construct_eigenfunction(corpus["compact_1d"], beta=(), gamma=(2,))
    huge = AffineSymbol(np.array([[0.5]]), np.array([1e200]))
    with pytest.raises(SizeOverflowError, match="degree-2"):
        verify_eigenfunction(dataclasses.replace(spec, normalized_symbol=huge))


def test_eigenfunction_defective_block_rejected(corpus):
    with pytest.raises(NotDiagonalizableError):
        construct_eigenfunction(corpus["nilpotent_2d"], beta=(), gamma=(1, 0))


def test_eigenfunction_check_on_a_defective_block_answers(corpus):
    # psi is remembered apart from the eigenpairs, so a check against a
    # symbol whose A1^T has no eigenbasis never asks for one; a construction
    # on it raises on every call, as a call that raises stores nothing
    s = corpus["nilpotent_2d"]
    spec = construct_eigenfunction(corpus["shear_compact_2d"], beta=(), gamma=(1, 1))
    for _ in range(2):
        assert 1e-3 < verify_eigenfunction(spec, s) < np.inf
        with pytest.raises(NotDiagonalizableError):
            construct_eigenfunction(s, beta=(), gamma=(1, 0))


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


# ---------------------------------------------------------------------------
# The dedup on crowded values only, against the blocked rule on all values


def _reference_dedup_mask(values):
    """_dedup_mask as it was before it sent only the crowded values through
    the rule: the blocked sequential rule on every value."""
    keep = np.zeros(len(values), dtype=bool)
    kept = np.empty(len(values), dtype=complex)
    nkept = 0
    block_size = 64
    lower = np.tri(block_size, k=-1, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(values), block_size):
            x = values[start : start + block_size]
            m = len(x)
            near_kept = np.abs(kept[None, :nkept] - x[:, None]) <= DEDUP_TOL
            live = ~near_kept.any(axis=1)
            close = np.abs(x[None, :] - x[:, None]) <= DEDUP_TOL
            close &= lower[:m, :m] & live[:, None] & live[None, :]
            has = close.any(axis=1)
            first = close.argmax(axis=1)
            block = live & ~has
            for j in np.flatnonzero(has & ~block[first]):
                block[j] = not (close[j] & block).any()
            keep[start : start + m] = block
            new = x[block]
            kept[nkept : nkept + len(new)] = new
            nkept += len(new)
    return keep


_SPACINGS = (0.0, 3e-11, 7e-11, 1e-10, 2e-10)


@st.composite
def _crowded_sets(draw):
    # clusters of points a fixed spacing apart along one direction, some
    # on the real axis, some mirrored into conjugate pairs, around centres
    # of modulus up to 1 or near 1e7, in a shuffled order
    scale = draw(st.sampled_from((1.0, 1e7)))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    values = []
    for _ in range(draw(st.integers(1, 25))):
        centre = scale * complex(draw(unit), draw(unit))
        kind = draw(st.sampled_from(("plane", "real", "conjugate")))
        if kind == "real":
            centre = complex(centre.real, 0.0)
        step = draw(st.sampled_from(_SPACINGS)) * cmath.exp(1j * draw(unit) * cmath.pi)
        if kind == "real":
            step = complex(abs(step), 0.0)
        points = [centre + k * step for k in range(draw(st.integers(1, 10)))]
        if kind == "conjugate":
            points += [p.conjugate() for p in points]
        values += points
    values = draw(st.permutations(values))
    return np.array(values, dtype=complex)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_crowded_sets())
def test_dedup_on_crowded_values_keeps_the_blocked_rules_mask(values):
    assert np.array_equal(_dedup_mask(values), _reference_dedup_mask(values))


# ---------------------------------------------------------------------------
# The B = 0 eigenfunction check reads the shells where F has terms


def _reference_shell_residual(spec, psi):
    """verify_eigenfunction's B = 0 route as it was: F's columns gathered
    into a dim x terms array in Fortran order, zero outside their shells,
    then summed across."""
    poly = spec.polynomial
    terms = poly.terms
    d = max(sum(g) for g in terms)
    basis = build_basis(poly.n, d)
    pos = np.array([basis.position(g) for g in terms], dtype=np.intp)
    f = np.array(list(terms.values()), dtype=complex)
    blocks, C = _creation_shells(psi, basis, np.ones((poly.n, basis.shell(d).start)))
    assert C is None
    degree = basis.degrees()[pos]
    cols = np.zeros((basis.dim, len(pos)), dtype=complex, order="F")
    for e in set(degree.tolist()):
        s = basis.shell(e)
        i = np.flatnonzero(degree == e)
        cols[s, i] = blocks[e][:, pos[i] - s.start]
    cols *= f
    resid = cols.sum(axis=1)
    resid[pos] -= spec.eigenvalue * f
    return float(np.max(np.abs(resid)))


def test_eigenfunction_check_on_shells_has_the_reference_bits():
    rng = np.random.default_rng(RNG_SEED + 40)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            s = AffineSymbol(random_contraction(rng, n), np.zeros(n))
            gamma = tuple(int(x) for x in rng.integers(0, 4, size=n))
            spec = construct_eigenfunction(s, (), gamma)
            want = _reference_shell_residual(spec, spec.normalized_symbol)
            assert verify_eigenfunction(spec).hex() == want.hex(), (n, gamma)
            assert verify_eigenfunction(spec, s).hex() == want.hex(), (n, gamma)
        # F from a symbol with B != 0 has terms of every degree up to
        # |gamma|; checked against a B = 0 symbol, it reads several shells
        other = AffineSymbol(random_contraction(rng, n), rng.standard_normal(n) + 0.5j)
        spec = construct_eigenfunction(other, (), (2,) * n)
        assert len({sum(g) for g in spec.polynomial.terms}) > 1
        want = _reference_shell_residual(spec, _normalized_symbol(block_schur_of_symbol(s)))
        assert want > 1e-3  # F is not an eigenfunction of s
        assert verify_eigenfunction(spec, s).hex() == want.hex(), n


# ---------------------------------------------------------------------------
# The B != 0 eigenfunction check reads the column blocks too


def _reference_dense_residual(spec, psi):
    """verify_eigenfunction's B != 0 route as it was: F's columns gathered
    from the dense coefficient matrix C, scaled in place and summed
    across."""
    poly = spec.polynomial
    terms = poly.terms
    d = max(sum(g) for g in terms)
    basis = build_basis(poly.n, d)
    pos = [basis.position(g) for g in terms]
    f = np.array(list(terms.values()), dtype=complex)
    _, C = _creation_shells(psi, basis, np.ones((poly.n, basis.shell(d).start)))
    assert C is not None
    cols = C[:, pos]
    cols *= f
    resid = cols.sum(axis=1)
    resid[pos] -= spec.eigenvalue * f
    return float(np.max(np.abs(resid)))


def test_eigenfunction_check_on_column_blocks_matches_the_dense_gather():
    rng = np.random.default_rng(RNG_SEED + 41)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            s = random_compact_symbol(rng, n)
            gamma = tuple(int(x) for x in rng.integers(0, 4, size=n))
            spec = construct_eigenfunction(s, (), gamma)
            assert np.any(spec.normalized_symbol.B)
            scale = max(1.0, spec.polynomial.max_abs_coefficient())
            # a true eigenvalue leaves rounding; a wrong one a residual of
            # about 0.1 |f|
            for lam in (spec.eigenvalue, spec.eigenvalue + 0.1):
                check = dataclasses.replace(spec, eigenvalue=lam)
                want = _reference_dense_residual(check, check.normalized_symbol)
                assert abs(verify_eigenfunction(check) - want) <= 1e-14 * scale, (n, gamma)
                assert abs(verify_eigenfunction(check, s) - want) <= 1e-14 * scale, (n, gamma)


_COMPACT_TRIANGULAR = AffineSymbol([[0.5, 0.1], [0.0, 0.25]], [0.0, 0.0])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: multiset_distance([np.nan], [0.0]), ValueError, "nan"),
        # a compact symbol has s = 0 unimodular eigenvalues, so beta is ()
        (
            lambda: construct_eigenfunction(_COMPACT_TRIANGULAR, (1,), (1, 1)),
            ShapeMismatchError,
            "beta must have length",
        ),
        (
            lambda: construct_eigenfunction(_COMPACT_TRIANGULAR, (), (1,)),
            ShapeMismatchError,
            "gamma must have length",
        ),
        # moduli out of order: the Schur form permutes, so U != I
        (
            lambda: construct_eigenfunction(
                AffineSymbol(np.diag([0.25, 0.5]), [0.0, 0.0]), (), (1, 0), exact=True
            ),
            ValueError,
            "U = I",
        ),
        (
            lambda: construct_eigenfunction(_COMPACT_TRIANGULAR, (), (1, 0), exact=True),
            ValueError,
            "exactly diagonal",
        ),
        # (1.5, 0) built the (1, 0) eigenfunction and ("2", 0) the (2, 0)
        # one; -1 failed inside the polynomial power
        (
            lambda: construct_eigenfunction(_COMPACT_TRIANGULAR, (), (1.5, 0)),
            ValueError,
            "an entry of gamma must be a nonnegative integer",
        ),
        (
            lambda: construct_eigenfunction(_COMPACT_TRIANGULAR, (), ("2", 0)),
            ValueError,
            "an entry of gamma must be a nonnegative integer",
        ),
        (
            lambda: construct_eigenfunction(_COMPACT_TRIANGULAR, (), (-1, 0)),
            ValueError,
            "an entry of gamma must be a nonnegative integer",
        ),
        (
            lambda: construct_eigenfunction(AffineSymbol([[1j]], [0.0]), (1.5,), ()),
            ValueError,
            "an entry of beta must be a nonnegative integer",
        ),
        (
            lambda: construct_eigenfunction(AffineSymbol([[1j]], [0.0]), (-1,), ()),
            ValueError,
            "an entry of beta must be a nonnegative integer",
        ),
    ],
    ids=[
        "distance-nan",
        "beta-length",
        "gamma-length",
        "exact-not-schur",
        "exact-not-diagonal",
        "gamma-fraction",
        "gamma-string",
        "gamma-negative",
        "beta-fraction",
        "beta-negative",
    ],
)
def test_fail_closed_paths_raise_their_type(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error
