"""Boundedness, norms, normality, Berezin transform, Schatten membership."""

import math

import numpy as np
import pytest

from fockop import (
    AffineSymbol,
    IdentityViolationError,
    InconsistentError,
    NotBoundedError,
    NotCompactError,
    QuadratureDivergenceError,
    SizeOverflowError,
    berezin_transform,
    berezin_transform_quadrature,
    check_bounded,
    check_compact,
    check_cyclic,
    check_essentially_normal,
    check_hyponormal,
    check_normal,
    check_supercyclic,
    classify,
    construct_eigenfunction,
    essential_norm,
    hilbert_schmidt_norm_sq,
    hilbert_schmidt_norm_sq_closed_form,
    kernel_orbit,
    operator_norm,
    schatten_integrals,
    schatten_integrals_quadrature,
    schatten_membership,
    solve_z0,
    truncated_norm,
)
from fockop.analysis import _essential_norm_from_z0
from conftest import (
    BOUNDED,
    UNBOUNDED,
    make_corpus,
    random_bounded_noncompact_symbol,
    random_compact_symbol,
    random_contraction,
)

RNG_SEED = 90125


def test_bounded_verdicts_on_corpus(corpus):
    for name in BOUNDED:
        v = check_bounded(corpus[name])
        assert v.bounded, name
        assert v.witness is None
    for name in UNBOUNDED:
        v = check_bounded(corpus[name])
        assert not v.bounded, name
        assert v.witness is not None


def test_witness_certifies_unboundedness(corpus):
    # the witness is a unit vector with |A zeta| = |zeta| and <A zeta, B> != 0
    for name in UNBOUNDED:
        s = corpus[name]
        z = v = check_bounded(s).witness
        assert np.linalg.norm(z) == pytest.approx(1.0)
        assert np.linalg.norm(s.A @ z) == pytest.approx(np.linalg.norm(z), abs=1e-12)
        assert abs(np.sum((s.A @ z) * np.conj(s.B))) > 0.1, name


def test_unbounded_witness_is_e1(corpus):
    w = check_bounded(corpus["unbounded_2d"]).witness
    assert np.allclose(w, [1.0, 0.0])


def test_random_noncompact_generator_is_bounded():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        s = random_bounded_noncompact_symbol(rng, n)
        assert check_bounded(s).bounded
        assert not check_compact(s)


def test_compactness_is_norm_a_strictly_below_one(corpus):
    assert check_compact(corpus["compact_1d"])
    assert check_compact(corpus["point_eval_1d"])
    assert not check_compact(corpus["mixed_2d"])
    assert not check_compact(corpus["nilpotent_2d"])


def test_z0_and_norm_known_values(corpus):
    s = corpus["compact_1d"]
    z0 = solve_z0(s)
    assert z0 == pytest.approx(np.array([2.0 / 3.0]))
    assert operator_norm(s) == pytest.approx(math.exp(1.0 / 3.0), rel=1e-14)


def test_norm_of_unitary_is_one(corpus):
    assert operator_norm(corpus["rotation_i"]) == pytest.approx(1.0)
    assert operator_norm(corpus["unitary_2d"]) == pytest.approx(1.0)
    assert operator_norm(corpus["identity_1d"]) == pytest.approx(1.0)


def test_z0_inconsistent_for_unbounded(corpus):
    # A = diag(1, 1/2), B = (1, 0): (I - A*A) z = A*B reads 0 = 1 in row 0
    with pytest.raises(InconsistentError):
        solve_z0(corpus["unbounded_2d"])


def test_z0_ignores_rounding_noise_of_unitary_a():
    # unitary A and B at rounding level: I - A*A is noise near 1e-16, and a
    # least-squares solve that inverts it returns |z0| ~ 1e2 and a norm < 1
    A = np.array(
        [
            [-0.05414114119814914 - 0.48512491506960637j, -0.8585755945944002 - 0.15674980693876844j],
            [0.6504294290612657 + 0.5819485470550683j, -0.41635611098238223 + 0.25480391527438684j],
        ]
    )
    B = np.array(
        [-2.220446049250313e-16 + 3.3306690738754696e-16j, -8.326672684688674e-17 - 6.661338147750939e-16j]
    )
    s = AffineSymbol(A, B)
    assert np.linalg.norm(solve_z0(s)) < 1e-9
    assert operator_norm(s) >= 1.0


def test_z0_residual_scales_with_b():
    # ||A|| = 1 - 5e-11 sits in the unimodular band; B's 5e-10 along it is
    # within tol * |B|, so the symbol is bounded and z0 must exist
    s = AffineSymbol(np.diag([1 - 5e-11, 0.0]), np.array([5e-10, 10.0]))
    assert check_bounded(s).bounded
    assert np.all(solve_z0(s) == 0)
    assert operator_norm(s) == pytest.approx(math.exp(25.0), rel=1e-9)


def test_caller_tolerance_reaches_z0():
    # B's 1e-8 along the unit direction e_1 is inside tol = 1e-6 but not
    # inside the default 1e-10, so every entry point that accepts the
    # symbol at 1e-6 must also solve for z0 at 1e-6
    s = AffineSymbol(np.diag([1.0, 0.5]), np.array([1e-8, 1.0]))
    tol = 1e-6
    assert check_bounded(s, tol).bounded
    norm = math.exp(0.25 * (4 / 9 - 1 / 9 + 1 + 1e-16))
    assert operator_norm(s, tol) == pytest.approx(norm, rel=1e-14)
    assert essential_norm(s, tol) == pytest.approx(norm, rel=1e-14)
    report = classify(s, tol)
    assert report.norm == pytest.approx(norm, rel=1e-14)
    assert report.essential_norm == pytest.approx(norm, rel=1e-14)
    with pytest.raises(NotBoundedError):
        operator_norm(s)  # at the default 1e-10 the symbol is unbounded


def test_operator_norm_rejects_unbounded(corpus):
    with pytest.raises(NotBoundedError):
        operator_norm(corpus["unbounded_2d"])


# every entry point guarded by boundedness, called as call(symbol, tol),
# and the message its guard raises
GUARDED = {
    "operator_norm": (operator_norm, "operator norm requires a bounded symbol"),
    "essential_norm": (essential_norm, "essential norm requires a bounded symbol"),
    "check_normal": (check_normal, "normality is assessed for bounded symbols"),
    "check_supercyclic": (
        check_supercyclic,
        "supercyclicity is assessed for bounded symbols",
    ),
    "check_cyclic": (check_cyclic, "cyclicity is assessed for bounded symbols"),
    "kernel_orbit": (
        lambda s, tol: kernel_orbit(s, np.zeros(s.n), 1, tol_unit=tol),
        "kernel orbits are computed for bounded symbols",
    ),
    "construct_eigenfunction": (
        lambda s, tol: construct_eigenfunction(s, (), (), tol_unit=tol),
        "eigenfunctions are constructed for bounded symbols",
    ),
}


@pytest.mark.parametrize("name", list(GUARDED))
def test_boundedness_guard(corpus, name):
    call, message = GUARDED[name]
    with pytest.raises(NotBoundedError) as exc:
        call(corpus["unbounded_2d"], 1e-10)
    assert str(exc.value) == message
    # ||A|| = 1 + 5e-11 is bounded at the default tolerance but not at
    # 1e-12, so each function must hand its own tolerance to the guard
    s = AffineSymbol(np.array([[1 + 5e-11]]), np.zeros(1))
    assert check_bounded(s).bounded
    with pytest.raises(NotBoundedError) as exc:
        call(s, 1e-12)
    assert str(exc.value) == message


def test_essential_norm_compact_is_zero(corpus):
    assert essential_norm(corpus["compact_1d"]) == 0.0
    assert essential_norm(corpus["compact_3d"]) == 0.0


def test_essential_norm_equals_norm_when_noncompact(corpus):
    for name in ["mixed_2d", "rotation_i", "unitary_2d", "nilpotent_2d"]:
        s = corpus[name]
        assert essential_norm(s) == pytest.approx(operator_norm(s), rel=1e-12), name


def test_mixed_2d_norm_value(corpus):
    # z0 = (0, 2/3), phi(z0) = (0, 4/3), so both forms give exp(1/3)
    s = corpus["mixed_2d"]
    assert operator_norm(s) == pytest.approx(math.exp(1.0 / 3.0), rel=1e-13)
    assert essential_norm(s) == pytest.approx(math.exp(1.0 / 3.0), rel=1e-9)


def test_normality_lattice(corpus):
    # normal iff B = 0 and A normal
    assert check_normal(corpus["compact_2d"])
    assert check_normal(corpus["unitary_2d"])
    assert check_normal(corpus["rotation_i"])
    assert not check_normal(corpus["compact_1d"])  # B != 0
    assert not check_normal(corpus["nilpotent_2d"])  # A not normal
    # hyponormal coincides with normal for these operators
    for name in BOUNDED:
        assert check_hyponormal(corpus[name]) == check_normal(corpus[name]), name
    # essentially normal iff compact or normal
    assert check_essentially_normal(corpus["compact_1d"])
    assert check_essentially_normal(corpus["unitary_2d"])
    assert not check_essentially_normal(corpus["mixed_2d"])
    assert not check_essentially_normal(corpus["nilpotent_2d"])


def test_berezin_closed_form_known_value():
    s = AffineSymbol(np.array([[0.5]]), np.array([0.0]))
    val = berezin_transform(s, np.array([1.0]))
    assert val == pytest.approx(math.exp(-3.0 / 8.0), rel=1e-14)


def test_berezin_at_zero_is_one():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        s = random_compact_symbol(rng, int(rng.integers(1, 3)))
        assert berezin_transform(s, np.zeros(s.n)) == 1.0


def test_berezin_requires_compact(corpus):
    with pytest.raises(NotCompactError):
        berezin_transform(corpus["mixed_2d"], np.zeros(2))


def test_berezin_quadrature_matches_closed_form():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(3):
        s = random_compact_symbol(rng, 1, top=0.8)
        for _ in range(3):
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            ref = berezin_transform(s, z)
            quad = berezin_transform_quadrature(s, z, order=24)
            assert quad == pytest.approx(ref, rel=1e-12)


def test_quadratures_fail_closed_past_the_double_range():
    # phi(u) = u/2 + 1e200: the closed forms give 1.0 and refuse the
    # integrals; the rules' |phi(u)|^2 overflows, to inf - inf = nan in
    # the Berezin exponent and to an infinite Schatten sum
    s = AffineSymbol(np.array([[0.5]]), np.array([1e200]))
    assert berezin_transform(s, np.zeros(1)) == 1.0
    with pytest.raises(SizeOverflowError, match="Gauss-Hermite sum is nan"):
        berezin_transform_quadrature(s, np.zeros(1))
    with pytest.raises(SizeOverflowError):
        schatten_integrals(s, 2)
    with pytest.raises(SizeOverflowError, match="Gauss-Hermite sum is inf"):
        schatten_integrals_quadrature(s, 2)


def test_schatten_integrals_zero_symbol():
    s = AffineSymbol(np.zeros((1, 1)), np.zeros(1))
    out = schatten_integrals(s, 2.0)
    assert out.int_cphi == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert out.int_cphi_star == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_schatten_integrals_match_quadrature():
    # The order-16 rule is centred at 0 and weighted for the widest
    # direction of the Gaussian, so it reaches 1e-10 only for nearly
    # isotropic, nearly centred integrands: ||A|| <= 0.5 and |B| = 1 here.
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (1, 2):
        for p in (0.5, 1.0, 3.0):
            A = random_contraction(rng, n, top=0.5)
            B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            s = AffineSymbol(A, B / np.linalg.norm(B))
            closed = schatten_integrals(s, p)
            quad = schatten_integrals_quadrature(s, p, order=16)
            assert closed.int_cphi == pytest.approx(quad.int_cphi, rel=1e-10)
            assert closed.int_cphi_star == pytest.approx(quad.int_cphi_star, rel=1e-10)


def test_schatten_adjoint_integral_at_two_is_hilbert_schmidt(corpus):
    # sum_alpha |e_alpha(u)|^2 = exp(|u|^2/2) makes ||C_phi||_HS^2 the
    # p = 2 integral of ||C_phi* k_z||^p against (2 pi)^-n dv, which is
    # exp(|B|^2/2 + <Q^-1 A*B, A*B>/2) / det Q with Q = I - A*A
    rng = np.random.default_rng(RNG_SEED + 5)
    symbols = [corpus[name] for name in ("compact_1d", "compact_2d", "compact_3d")]
    symbols += [random_compact_symbol(rng, n) for n in (1, 2, 3)]
    for s in symbols:
        Q = np.eye(s.n) - s.A.conj().T @ s.A
        u = s.A.conj().T @ s.B
        quad = np.vdot(s.B, s.B).real + np.vdot(u, np.linalg.solve(Q, u)).real
        ref = math.exp(0.5 * quad) / np.linalg.det(Q).real
        i2 = schatten_integrals(s, 2.0).int_cphi_star / (2.0 * math.pi) ** s.n
        assert i2 == pytest.approx(ref, rel=1e-12)
        assert hilbert_schmidt_norm_sq_closed_form(s) == pytest.approx(ref, rel=1e-12)


def test_schatten_membership(corpus):
    assert schatten_membership(corpus["compact_1d"], 0.5)
    assert schatten_membership(corpus["compact_2d"], 7.0)
    assert not schatten_membership(corpus["mixed_2d"], 2.0)
    with pytest.raises(ValueError):
        schatten_membership(corpus["compact_1d"], 0.0)


def test_hilbert_schmidt_known_values():
    s1 = AffineSymbol(np.array([[0.5]]), np.array([0.0]))
    assert hilbert_schmidt_norm_sq(s1, max_degree=30) == pytest.approx(
        4.0 / 3.0, abs=1e-8
    )
    s2 = make_corpus()["compact_2d"]
    assert hilbert_schmidt_norm_sq(s2, max_degree=15) == pytest.approx(
        3.0 / 2.0, abs=1e-6
    )


def test_hilbert_schmidt_infinite_for_noncompact(corpus):
    assert hilbert_schmidt_norm_sq(corpus["rotation_i"]) == math.inf
    assert hilbert_schmidt_norm_sq(corpus["identity_1d"]) == math.inf
    assert hilbert_schmidt_norm_sq(corpus["nilpotent_2d"]) == math.inf
    assert hilbert_schmidt_norm_sq(corpus["mixed_2d"]) == math.inf


def test_hilbert_schmidt_unsettled_sum_raises():
    # compact, so the sum is finite, but the default degree 24 does not
    # settle it: for a = 0.8, b = 2.5 the per-degree contributions still
    # grow; for a = 0.9, b = 1 they decay, but the partial sum is 240.6
    # and the geometric tail bound 6.4 times that
    for a, b, closed in [(0.8, 2.5, 45427), (0.9, 1.0, 384.92)]:
        s = AffineSymbol(a * np.eye(2), np.array([b, 0.0]))
        assert hilbert_schmidt_norm_sq_closed_form(s) == pytest.approx(closed, rel=1e-4)
        with pytest.raises(QuadratureDivergenceError):
            hilbert_schmidt_norm_sq(s)


def test_hilbert_schmidt_closed_form_matches_truncation():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(5):
        n = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A *= 0.55 / np.linalg.svd(A, compute_uv=False)[0]
        B = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        s = AffineSymbol(A, B)
        limit = hilbert_schmidt_norm_sq(s, max_degree=48 if n == 1 else 32)
        closed = hilbert_schmidt_norm_sq_closed_form(s)
        assert limit == pytest.approx(closed, rel=1e-8)


def test_hilbert_schmidt_closed_form_requires_compact(corpus):
    with pytest.raises(NotCompactError):
        hilbert_schmidt_norm_sq_closed_form(corpus["mixed_2d"])


def test_classify_compact(corpus):
    rep = classify(corpus["compact_1d"])
    assert rep.bounded.bounded and rep.compact
    assert rep.norm == pytest.approx(math.exp(1.0 / 3.0))
    assert rep.essential_norm == 0.0
    assert rep.schatten_all_p
    assert rep.supercyclic is False
    assert rep.cyclic == "yes"


def test_classify_unbounded(corpus):
    rep = classify(corpus["unbounded_2d"])
    assert not rep.bounded.bounded
    assert rep.compact is False
    assert rep.norm is None
    assert rep.essential_norm is None
    assert rep.schatten_all_p is False
    assert rep.normal is None and rep.supercyclic is None
    assert rep.cyclic is None


def test_classify_truncation_consistency(corpus):
    # the truncated norm never exceeds the closed form it certifies
    for name in ["compact_1d", "compact_2d", "mixed_2d"]:
        s = corpus[name]
        closed = operator_norm(s)
        assert truncated_norm(s, 8) <= closed + 1e-10


@pytest.mark.parametrize(
    "call, error, match",
    [
        # <phi(z0'), B> = 0.333i at z0' = i z0 + 1/2, which no real norm has
        (
            lambda s: _essential_norm_from_z0(s, 1j * solve_z0(s) + 0.5, operator_norm(s)),
            IdentityViolationError,
            "imaginary part",
        ),
        (
            lambda s: _essential_norm_from_z0(s, solve_z0(s), operator_norm(s) * (1 + 1e-6)),
            IdentityViolationError,
            "identity mismatch",
        ),
        (lambda s: schatten_integrals(s, 0), ValueError, "p must be positive"),
        # one p rule, 0 < p < inf, before compactness: nan and inf got
        # through, and the quadrature had no guard at all
        (lambda s: schatten_integrals(s, math.nan), ValueError, "p must be positive"),
        (lambda s: schatten_integrals(s, math.inf), ValueError, "p must be positive"),
        (lambda s: schatten_membership(s, math.nan), ValueError, "p must be positive"),
        (lambda s: schatten_membership(s, math.inf), ValueError, "p must be positive"),
        (lambda s: schatten_integrals_quadrature(s, 0), ValueError, "p must be positive"),
        (lambda s: schatten_integrals_quadrature(s, -1.0), ValueError, "p must be positive"),
        (lambda s: schatten_integrals_quadrature(s, math.nan), ValueError, "p must be positive"),
        (lambda s: schatten_integrals_quadrature(s, math.inf), ValueError, "p must be positive"),
        # ||A|| = 1 divided by zero and ||A|| > 1 took a negative square root
        (lambda s: schatten_integrals_quadrature(s, 2.0), NotCompactError, "compact"),
        (
            lambda s: schatten_integrals_quadrature(AffineSymbol([[2.0]], [0.0]), 2.0),
            NotCompactError,
            "compact",
        ),
    ],
    ids=[
        "essential-norm-imaginary",
        "essential-norm-mismatch",
        "schatten-p-zero",
        "schatten-p-nan",
        "schatten-p-inf",
        "membership-p-nan",
        "membership-p-inf",
        "quadrature-p-zero",
        "quadrature-p-negative",
        "quadrature-p-nan",
        "quadrature-p-inf",
        "quadrature-norm-one",
        "quadrature-norm-above-one",
    ],
)
def test_fail_closed_paths_raise_their_type(corpus, call, error, match):
    with pytest.raises(error, match=match) as info:
        call(corpus["mixed_2d"])
    assert type(info.value) is error
