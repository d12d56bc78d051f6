"""Cyclicity verdicts, rational independence, kernel orbits."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockop import (
    AffineSymbol,
    AngleSet,
    ForwardOrbitUnsupportedError,
    NotBoundedError,
    ShapeMismatchError,
    check_cyclic,
    check_supercyclic,
    classify,
    enumerate_spectrum,
    kernel_orbit,
    kernel_series_polynomial,
    orbit_density_experiment,
    rational_independence,
)
from fockop import cli, dynamics
from fockop.dynamics import (
    DEFAULT_MAX_COEFF,
    _angle_verdict,
    _find_root_of_unity,
    _relation_residual,
    _unimodular_angles,
)
from fockop.symbol import DEFAULT_TOL_UNIT, _eig_sort_key, _eigenvalues_of
from conftest import BOUNDED, random_contraction, random_unitary


def test_angle_set_build_and_validation():
    a = AngleSet.build([np.pi / 2, 1.0], exact=[Fraction(1, 2), None])
    assert a.exact[0] == Fraction(1, 2)
    assert a.exact[1] is None
    with pytest.raises(ValueError):
        AngleSet.build([1.0], exact=[Fraction(1, 2)])  # tag does not match


def test_angle_tags_stop_at_2_53():
    AngleSet.build([0.0], exact=[Fraction(1, 2**53)])
    with pytest.raises(ValueError, match=r"2\*\*53"):
        AngleSet.build([0.0], exact=[Fraction(1, 2**53 + 1)])


def test_check_cyclic_rejects_a_tag_beyond_2_53():
    # pi / 10^400 matches the angle 0 to 1e-9, but the relation it gives,
    # (-1, 10^400), has a coefficient that no double holds
    sym = AffineSymbol(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ValueError, match=r"2\*\*53"):
        check_cyclic(sym, exact_angles=[Fraction(1, 10**400)])


def test_independence_empty_is_yes():
    v = rational_independence(AngleSet.build([]))
    assert v.independent == "yes"
    assert v.relation is None


def test_independence_exact_tag():
    v = rational_independence(AngleSet.build([np.pi / 2], exact=[Fraction(1, 2)]))
    assert v.independent == "no"
    assert v.relation == (-1, 2)
    assert v.residual < 1e-15


def test_independence_zero_angle():
    v = rational_independence(AngleSet.build([0.0, 1.0]))
    assert v.independent == "no"
    assert v.relation[1] != 0 and v.relation[2] == 0


def test_independence_single_float_radian_unknown():
    # pi is irrational: no small relation with theta = 1 rad exists, and
    # floats can never certify independence
    v = rational_independence(AngleSet.build([1.0]))
    assert v.independent == "unknown"
    assert v.relation is None


def test_independence_float_rational_multiples_found():
    v = rational_independence(AngleSet.build([float(np.pi / 2)]))
    assert v.independent == "no"
    assert v.relation == (-1, 2)


def test_independence_rejects_lattice_noise():
    # genuinely independent angles admit integer combinations below 1e-10
    # once several terms are in play; those must not become "no"
    v = rational_independence(AngleSet.build([np.sqrt(2), np.sqrt(3)]))
    assert v.independent == "unknown"
    w = rational_independence(AngleSet.build([np.sqrt(2), np.sqrt(3), np.sqrt(5)]))
    assert w.independent == "unknown"


def test_independence_finds_small_relations_under_the_guard():
    # the coefficient guard must leave genuine small relations standing
    cases = [
        [np.pi / 2, np.pi / 3],
        [1.0, 2.0],
        [5 * np.pi / 7, 9 * np.pi / 7, 4 * np.pi / 3],
        [0.3, 0.5, 0.8],
    ]
    for thetas in cases:
        v = rational_independence(AngleSet.build(thetas))
        assert v.independent == "no", thetas
        assert len(v.relation) == len(thetas) + 1 and v.residual < 1e-12, thetas


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 2.0 * np.pi, exclude_max=True), min_size=1, max_size=3))
def test_independence_never_yes_on_angles(thetas):
    # "yes" needs an empty angle set, so the unit-circle branch of the
    # cyclicity tree, which always has n >= 1 angles, never sees it
    assert rational_independence(AngleSet.build(thetas)).independent != "yes"


@st.composite
def _related_angles(draw):
    """(thetas, tags) with an integer relation among pi and the angles,
    from one of four sources: exact tags p/q pi; an angle within 1e-13 of 0
    or 2 pi; small rational multiples of pi in floats, for PSLQ; or one
    angle 2 pi p/q of large order q, past PSLQ's reach but in the walk's."""
    source = draw(st.sampled_from(["tag", "zero", "pslq", "walk"]))
    if source == "walk":
        # prime orders, and angles past 2 pi / 3, whose doubles are too
        # coarse for PSLQ to certify the relation (-2p, q)
        q = draw(st.sampled_from([20011, 40009, 60013, 80021, 99991]))
        p = draw(st.integers(q // 3, q - 1))
        return [2.0 * np.pi * p / q], None
    if source == "zero":
        t = draw(st.floats(0.0, 1e-13))
        others = draw(st.lists(st.floats(0.1, 6.0), max_size=2))
        return [draw(st.sampled_from([t, 2.0 * np.pi - t]))] + others, None
    fracs = draw(
        st.lists(
            st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
            min_size=1,
            max_size=3,
        )
    )
    thetas = [float(f) * np.pi for f in fracs]
    return thetas, (fracs if source == "tag" else None)


def _assert_found_relation(iv, thetas):
    if iv.independent != "no":
        return
    rel = iv.relation
    assert math.gcd(*rel) == 1, rel
    assert next(k for k in reversed(rel) if k != 0) > 0, rel
    assert iv.residual.hex() == _relation_residual(rel, thetas).hex()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_related_angles())
def test_every_found_relation_is_canonical_with_its_residual(case):
    thetas, tags = case
    angles = AngleSet.build(thetas, tags)
    _assert_found_relation(rational_independence(angles), angles.thetas)
    # the unit-circle branch, which adds the walk in one variable; the
    # tags follow the symbol's sorted eigenvalues
    ev = np.exp(1j * np.array(thetas))
    sym = AffineSymbol(np.diag(ev), np.zeros(len(ev)))
    if tags is not None:
        tags = [tags[i] for i in sorted(range(len(ev)), key=lambda i: _eig_sort_key(ev[i]))]
    iv, _ = _angle_verdict(sym, DEFAULT_TOL_UNIT, DEFAULT_MAX_COEFF, tags)
    angles = _unimodular_angles(_eigenvalues_of(sym), DEFAULT_TOL_UNIT, tags)
    _assert_found_relation(iv, angles.thetas)


def test_generic_unitary_symbols_get_no_false_relation():
    # 300 generic unitaries each at n = 2 and 3: a "no" here would be a
    # PSLQ relation among lattice noise.  Before the guard was calibrated,
    # 15 and 13 of these draws came back "no".
    for n, seed in [(2, 1000), (3, 1001)]:
        rng = np.random.default_rng(seed)
        for i in range(300):
            v = check_cyclic(AffineSymbol(random_unitary(rng, n), np.zeros(n)))
            assert v.verdict == "unknown", (n, i, v.relation)


def test_spectrum_and_cyclicity_share_the_angle_verdict():
    rng = np.random.default_rng(17)
    symbols = [
        AffineSymbol(random_unitary(rng, n), np.zeros(n)) for n in (2, 3, 4) for _ in range(4)
    ]
    symbols.append(AffineSymbol(np.diag(np.exp(2j * np.pi * rng.random(3))), np.zeros(3)))
    for theta in [np.pi / 2, 2 * np.pi / 5, 1.0, 2.0 * np.pi * 12345 / 100003]:
        for r in (1.0, 1.0 - 1e-11):
            symbols.append(AffineSymbol([[r * np.exp(1j * theta)]], [0.0]))
    cases = [(s, None) for s in symbols]
    rotation = AffineSymbol(np.diag(np.exp(1j * np.pi * np.array([0.5, 1 / 3]))), np.zeros(2))
    cases += [(rotation, None), (rotation, [Fraction(1, 3), Fraction(1, 2)])]
    for s, tags in cases:
        spectral = enumerate_spectrum(s, 2, exact_angles=tags).unimodular_angles_independent
        cyclic = check_cyclic(s, exact_angles=tags).independence.independent
        assert spectral == cyclic, (s, tags)


@pytest.fixture
def pslq_calls(monkeypatch):
    """The argument lists of every mpmath.pslq call made during the test."""
    calls = []
    search = mpmath.pslq

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(mpmath, "pslq", counted)
    return calls


@pytest.fixture
def root_walks(monkeypatch):
    """The argument of every root-of-unity walk made during the test."""
    calls = []
    walk = dynamics._find_root_of_unity

    def counted(a):
        calls.append(a)
        return walk(a)

    monkeypatch.setattr(dynamics, "_find_root_of_unity", counted)
    return calls


def _verdicts(s, tags=None, fresh=False):
    """The three requests for one symbol's angle verdict, in the CLI's
    order; fresh asks each of an equal new symbol, which remembers
    nothing."""
    parts = []
    for request, args in ((classify, ()), (enumerate_spectrum, (2,)), (check_cyclic, ())):
        sym = AffineSymbol(s.A, s.B) if fresh else s
        parts.append(request(sym, *args, exact_angles=tags))
    return repr((parts[0].cyclic_detail, parts[1].unimodular_angles_independent, parts[2]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_angle_search_per_symbol(n, pslq_calls, root_walks):
    rng = np.random.default_rng(2200 + n)
    _verdicts(AffineSymbol(random_unitary(rng, n), np.zeros(n)))
    assert len(pslq_calls) == 1
    # in one variable the inconclusive search falls back to the walk, once
    assert len(root_walks) == (n == 1)


@pytest.mark.parametrize("name", ["unitary_2d", "rotation_irrational"])
def test_cli_analyze_runs_one_angle_search(name, pslq_calls, capsys):
    path = Path(__file__).parent / "golden" / f"{name}.sym.json"
    assert cli.main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert len(pslq_calls) == 1


def _unit_circle_cases():
    rng = np.random.default_rng(2202)
    cases = [
        (AffineSymbol(random_unitary(rng, n), np.zeros(n)), None)
        for n in (1, 2, 3)
        for _ in range(4)
    ]
    for theta in [np.pi / 2, 2 * np.pi / 5, 1.0, 2.0 * np.pi * 12345 / 100003]:
        cases.append((AffineSymbol([[np.exp(1j * theta)]], [0.0]), None))
    rotation = AffineSymbol(np.diag(np.exp(1j * np.pi * np.array([0.5, 1 / 3]))), np.zeros(2))
    cases += [(rotation, [Fraction(1, 3), Fraction(1, 2)]), (rotation, None)]
    cases.append((AffineSymbol([[1j]], [0.0]), [Fraction(1, 2)]))
    return cases


def test_remembered_angle_verdicts_equal_fresh_ones(pslq_calls, root_walks):
    fresh = [_verdicts(s, tags, fresh=True) for s, tags in _unit_circle_cases()]
    searches, walks = len(pslq_calls), len(root_walks)
    remembered = [_verdicts(s, tags) for s, tags in _unit_circle_cases()]
    assert remembered == fresh
    # a remembering symbol searches once where three fresh ones search thrice
    assert 3 * (len(pslq_calls) - searches) == searches > 0
    assert 3 * (len(root_walks) - walks) == walks > 0


def test_classify_then_check_cyclic_take_one_smallest_singular_value(monkeypatch):
    rng = np.random.default_rng(2203)
    s = AffineSymbol(random_contraction(rng, 2), rng.standard_normal(2))
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert classify(s).cyclic == check_cyclic(s).verdict == "unknown"
    assert calls == [(2, 2)]


@pytest.mark.parametrize("bad", [1e6, 10.0**6 + 0.5, 0, -5, True])
def test_max_coeff_must_be_a_positive_int(corpus, bad):
    # 1e6 equals the default 10**6, so a remembered verdict must not answer it
    s = corpus["rotation_irrational"]
    assert check_cyclic(s).verdict == "unknown"
    with pytest.raises(ValueError, match="max_coeff must be an int >= 1"):
        check_cyclic(s, max_coeff=bad)
    for thetas in ([], [1.0]):
        with pytest.raises(ValueError, match="max_coeff must be an int >= 1"):
            rational_independence(AngleSet.build(thetas), max_coeff=bad)


def test_supercyclic_always_false_on_bounded(corpus):
    for name in BOUNDED:
        assert check_supercyclic(corpus[name]) is False, name


def test_supercyclic_requires_bounded(corpus):
    with pytest.raises(NotBoundedError):
        check_supercyclic(corpus["translation_1d"])


def test_cyclic_noninvertible_is_no(corpus):
    for name in ["point_eval_1d", "nilpotent_2d"]:
        v = check_cyclic(corpus[name])
        assert v.verdict == "no", name
        assert "invertible" in v.rationale


def test_cyclic_contractive_scalar_is_yes(corpus):
    v = check_cyclic(corpus["compact_1d"])
    assert v.verdict == "yes"


def test_cyclic_root_of_unity_exact(corpus):
    v = check_cyclic(corpus["rotation_i"], exact_angles=[Fraction(1, 2)])
    assert v.verdict == "no"
    assert v.relation == (-1, 2)


def test_angle_tags_may_come_as_a_list_tuple_or_array():
    # the memo key takes a tuple of the tags; an array of them is no key
    A = np.diag(np.exp(1j * np.pi * np.array([0.5, 0.25])))
    tags = [Fraction(1, 4), Fraction(1, 2)]
    want = _verdicts(AffineSymbol(A, np.zeros(2)), tags)
    assert "(-1, 4, 0)" in want
    for given in (tuple(tags), np.array(tags, dtype=object), np.array([0.25, 0.5])):
        assert _verdicts(AffineSymbol(A, np.zeros(2)), given) == want


def test_cyclic_root_of_unity_float(corpus):
    v = check_cyclic(corpus["rotation_i"])
    assert v.verdict == "no"
    assert v.relation == (-1, 2)


def test_cyclic_irrational_rotation_unknown(corpus):
    v = check_cyclic(corpus["rotation_irrational"])
    assert v.verdict == "unknown"


def test_cyclic_large_order_root_caught_by_sin_search():
    # theta = 2 pi 12345/100003: the PSLQ float certificate is out of
    # reach but |a^m - a| vanishes at m - 1 = 100003
    theta = 2.0 * np.pi * 12345.0 / 100003.0
    s = AffineSymbol(np.array([[np.exp(1j * theta)]]), np.zeros(1))
    v = check_cyclic(s)
    assert v.verdict == "no"
    assert v.relation == (-24690, 100003)


def _reference_root_of_unity(a):
    # the exhaustive scan over every m <= 10^6 that the continued-fraction
    # search replaces; about 30 ms a call
    theta = float(np.angle(a))
    ms = np.arange(2, 10**6 + 1, dtype=float)
    vals = 2.0 * np.abs(np.sin((ms - 1.0) * theta / 2.0))
    hits = np.nonzero(vals < 1e-10)[0]
    return int(ms[hits[0]]) if hits.size else None


@pytest.mark.parametrize(
    "theta, m",
    [
        (2.0 * np.pi / 999983, 999984),  # a prime order just below the bound
        (2.0 * np.pi * 7 / 999999, 142858),  # 7/999999 = 1/142857
        # order 999983, but rounding in (m - 1) theta near 5e5 turns leaves
        # the float test at 1.8e-10
        (2.0 * np.pi * 500000 / 999983, None),
        (2.0 * np.pi / 1000003, None),  # m = 1000004 is past the bound
        (np.pi, 3),
        (1e-11, 2),
        (-1e-11, 2),
        # q* = 301183: the float test fails at m - 1 = q* and 2 q* (values
        # 1.07e-10 and 2.15e-10) and passes at 3 q* (2.7e-11)
        (2.921929526215581, 903550),
    ],
)
def test_find_root_of_unity_pinned(theta, m):
    assert _find_root_of_unity(np.exp(1j * theta)) == m


@st.composite
def _near_rational_turns(draw):
    # 2 pi p/q shifted by t 1e-10/q: the test at m = q + 1 flips near |t| = 1
    q = draw(st.integers(2, 10**6))
    p = draw(st.integers(1, q - 1))
    t = draw(st.floats(-3.0, 3.0))
    return 2.0 * np.pi * p / q + t * 1e-10 / q


_REFERENCE_SETTINGS = settings(
    derandomize=True, database=None, max_examples=20, deadline=None
)


@_REFERENCE_SETTINGS
@given(_near_rational_turns())
def test_find_root_of_unity_matches_scan_near_rational_turns(theta):
    a = np.exp(1j * theta)
    assert _find_root_of_unity(a) == _reference_root_of_unity(a)


@_REFERENCE_SETTINGS
@given(st.floats(-np.pi, np.pi))
def test_find_root_of_unity_matches_scan_on_any_angle(theta):
    a = np.exp(1j * theta)
    assert _find_root_of_unity(a) == _reference_root_of_unity(a)


def test_cyclic_unitary_with_relation(corpus):
    v = check_cyclic(corpus["unitary_2d"])  # eigenvalues +-i
    assert v.verdict == "no"
    assert v.relation is not None


def test_cyclic_open_problem_cases(corpus):
    for name in ["compact_2d", "mixed_2d", "shear_compact_2d", "compact_3d"]:
        v = check_cyclic(corpus[name])
        assert v.verdict == "unknown", name
    v = check_cyclic(corpus["compact_2d"])
    assert "open problem" in v.rationale


def test_forward_kernel_orbit_scalar(corpus):
    # C^m K_z = exp(<s_m b, z>/2) K_{conj(a)^m z} with s_m = sum a^k
    s = corpus["compact_1d"]
    z = np.array([1.0 + 0j])
    r = kernel_orbit(s, z, 30, mode="forward")
    assert r.center == pytest.approx(np.array([0.5**30]))
    assert r.scale == pytest.approx(np.exp(1.0), rel=1e-8)


def test_forward_kernel_orbit_needs_dimension_one(corpus):
    with pytest.raises(ForwardOrbitUnsupportedError):
        kernel_orbit(corpus["compact_2d"], np.zeros(2), 3, mode="forward")


def test_adjoint_kernel_orbit_approaches_fixed_point(corpus):
    s = corpus["compact_1d"]
    r = kernel_orbit(s, np.array([1.0 + 0j]), 40, mode="adjoint")
    assert r.scale == 1.0 + 0.0j
    assert r.center == pytest.approx(np.array([2.0 + 0j]))  # fixed point


def test_orbit_experiment_full_span(corpus):
    s = corpus["compact_1d"]
    seed = kernel_series_polynomial(np.array([1.0 + 0j]), 8)
    rep = orbit_density_experiment(s, seed, max_degree=8, steps=12)
    assert rep.dimension == rep.basis_dim == 9
    assert rep.fraction == 1.0
    assert all(b >= a for a, b in zip(rep.dims, rep.dims[1:]))


def test_orbit_experiment_stalls_for_finite_order(corpus):
    s = corpus["rotation_i"]
    seed = kernel_series_polynomial(np.array([1.0 + 0j]), 8)
    rep = orbit_density_experiment(s, seed, max_degree=8, steps=12)
    assert rep.dimension == 4  # a^4 = 1: four spectral classes only
    assert rep.dims == (1, 2, 3, 4) + (4,) * 9


def test_orbit_experiment_input_validation(corpus):
    s = corpus["compact_1d"]
    from fockop import MultiPolynomial

    with pytest.raises(ValueError):
        orbit_density_experiment(s, MultiPolynomial.zero(1), 6, 4)
    with pytest.raises(ShapeMismatchError):
        orbit_density_experiment(s, MultiPolynomial.zero(2), 6, 4)
    big = MultiPolynomial.variable(1, 0) ** 9
    with pytest.raises(ValueError):
        orbit_density_experiment(s, big, 6, 4)


def test_cyclic_requires_bounded(corpus):
    with pytest.raises(NotBoundedError):
        check_cyclic(corpus["unbounded_2d"])
