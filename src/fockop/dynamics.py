"""Cyclicity, supercyclicity and kernel orbits of C_phi.

Bounded C_phi is never supercyclic.  Cyclicity is decided by a small
case tree: non-invertible A kills cyclicity; in one variable a
non-unimodular invertible a gives cyclicity with a kernel function as
cyclic vector; the invertible non-unitary case in several variables is
open and reported as such.  On the unit circle (a unimodular a, or a
unitary A) one branch serves every n: the angles of the unimodular
eigenvalues go through one integer-relation search with pi, and in one
variable the continued-fraction walk for a root of unity is the fallback
when that search is inconclusive.  _angle_verdict owns both steps, and
spectrum.enumerate_spectrum reads its verdict too.  A symbol remembers
its angle and cyclicity verdicts (symbol.per_symbol), so classify,
enumerate_spectrum and check_cyclic on one symbol run each search once;
the module itself keeps no state.

The independence test is three-valued on purpose: floating angles can
certify a relation (hence "no") but never independence, so "yes" only
comes from structural case analysis, never from numerics.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .analysis import _require_bounded
from .errors import ForwardOrbitUnsupportedError, ShapeMismatchError, SizeOverflowError
from .symbol import (
    _ZERO_ANGLE_TOL,
    DEFAULT_TOL_UNIT,
    _eigenvalues_of,
    _nonnegative_int,
    _unimodular,
    hermitian_inner,
    iterate_symbol,
    per_symbol,
)
from .truncation import build_truncation

DEFAULT_MAX_COEFF = 10**6
_RELATION_RESIDUAL_TOL = 1e-10
_TAG_MATCH_TOL = 1e-9  # |tag * pi - theta| mod 2pi, in AngleSet.build
_SINGULAR_TOL = 1e-12  # smallest singular value of a non-invertible A
_ROOT_BOUND = 10**6
_RANK_TOL = 1e-8
_MAX_TAG = 2**53


@dataclass(frozen=True)
class AngleSet:
    """Angles in [0, 2pi), optionally tagged as exact multiples of pi.

    exact[i] = Fraction(p, q) certifies theta_i = (p/q) pi exactly; None
    marks a plain floating angle.  Tags must match the floats to 1e-9 and
    keep |p| and q within 2**53 (ValueError otherwise): a double angle
    cannot certify a finer tag, nor a double residual its relation.
    """

    thetas: tuple
    exact: tuple

    @classmethod
    def build(cls, thetas, exact=None):
        thetas = tuple(float(t) % (2.0 * np.pi) for t in thetas)
        if exact is None:
            tags = (None,) * len(thetas)
        else:
            if len(exact) != len(thetas):
                raise ShapeMismatchError("exact tags must align with the angles")
            tags = []
            for t, tag in zip(thetas, exact):
                if tag is None:
                    tags.append(None)
                    continue
                tag = Fraction(tag)
                if max(abs(tag.numerator), tag.denominator) > _MAX_TAG:
                    raise ValueError("exact tag numerator or denominator exceeds 2**53")
                target = (float(tag) * np.pi) % (2.0 * np.pi)
                diff = abs(target - t) % (2.0 * np.pi)
                if min(diff, 2.0 * np.pi - diff) > _TAG_MATCH_TOL:
                    raise ValueError(
                        f"exact tag {tag} pi does not match angle {t!r}"
                    )
                tags.append(tag)
            tags = tuple(tags)
        return cls(thetas=thetas, exact=tags)


def _unimodular_angles(ev, tol_unit, exact_angles):
    """The AngleSet of the sorted eigenvalues ev with |lambda| >= 1 - tol_unit:
    their arguments in [0, 2pi), with the tags of exact_angles (aligned with
    ev, or None) at the same positions.

    Raises ShapeMismatchError if exact_angles does not align with ev.
    """
    unim = np.flatnonzero(_unimodular(ev, tol_unit)[1]).tolist()
    tags = None
    if exact_angles is not None:
        if len(exact_angles) != len(ev):
            raise ShapeMismatchError("exact_angles must align with the eigenvalues")
        tags = [exact_angles[i] for i in unim]
    return AngleSet.build([float(np.angle(ev[i])) % (2 * np.pi) for i in unim], tags)


@dataclass(frozen=True)
class IndependenceVerdict:
    """Three-valued rational-independence verdict for (pi, theta_1, ...).

    independent: "yes", "no" or "unknown".  relation, when present, is an
    integer vector (k0, k1, ..., kn), not all zero, with
    k0 pi + sum k_i theta_i = 0, sign-normalized so the last nonzero
    entry is positive and divided by the gcd.
    """

    independent: str
    relation: Optional[tuple]
    residual: Optional[float]


def _canonical_relation(ks):
    ks = [int(k) for k in ks]
    g = math.gcd(*ks)
    if g > 1:
        ks = [k // g for k in ks]
    last = next((k for k in reversed(ks) if k != 0), 0)
    if last < 0:
        ks = [-k for k in ks]
    return tuple(int(k) for k in ks)


def _relation_residual(relation, thetas):
    total = relation[0] * np.pi
    for k, t in zip(relation[1:], thetas):
        total += k * t
    return float(abs(total))


def _relation_found(ks, thetas):
    """The "no" verdict for the integer relation ks among (pi, *thetas):
    the relation canonicalized, with its double residual.  Every found
    relation is reported through here."""
    rel = _canonical_relation(ks)
    return IndependenceVerdict("no", rel, _relation_residual(rel, thetas))


def rational_independence(angles, max_coeff=DEFAULT_MAX_COEFF):
    """Decide rational (in)dependence of (pi, theta_1, ..., theta_k).

    Exact tags decide immediately: theta = (p/q) pi yields the relation
    -p*pi + q*theta = 0.  Pure floating inputs run PSLQ; a candidate
    relation is accepted only if its residual against the floats, at 40
    digits, is below 1e-10, its coefficients stay within max_coeff, and
    ||k||_1 stays within _l1_guard, which holds false "no" verdicts from
    lattice noise to 1e-6 per search.  The reported residual is the double
    one.  Exhausting the search returns "unknown", never "yes".  Raises
    ValueError unless max_coeff is an int >= 1.
    """
    _require_max_coeff(max_coeff)
    thetas = angles.thetas
    k = len(thetas)
    if k == 0:
        return IndependenceVerdict(independent="yes", relation=None, residual=None)

    for i, tag in enumerate(angles.exact):
        if tag is None:
            continue
        rel = [0] * (k + 1)
        rel[0] = -tag.numerator
        rel[i + 1] = tag.denominator
        return _relation_found(rel, thetas)

    # a zero angle is a relation on its own and breaks PSLQ's nonzero
    # input requirement, so handle it first
    for i, t in enumerate(thetas):
        if min(t, 2.0 * np.pi - t) < _ZERO_ANGLE_TOL:
            rel = [0] * (k + 1)
            rel[i + 1] = 1
            if t > np.pi:  # theta ~ 2pi: theta - 2pi = 0
                rel[0] = -2
            return _relation_found(rel, thetas)

    # Search depth 1e-13, not the 1e-10 reporting gate: double inputs only
    # certify a relation to ~|k|*1e-16, while unrelated angles admit lattice
    # noise at the 1e-11 level once three or more terms are in play (e.g.
    # -23192*pi + 58099*sqrt(2) - 5372*sqrt(3) ~ 3.8e-11).  Digging deeper
    # than the noise floor would turn independence into false dependence.
    # The noise guard _l1_guard is checked after the search: as PSLQ's
    # maxcoeff it would make the search run to the bound instead of
    # returning its first relation.
    import mpmath as mp

    with mp.workdps(40):
        values = [mp.pi] + [mp.mpf(t) for t in thetas]
        try:
            found = mp.pslq(
                values, tol=mp.mpf(10) ** -13, maxcoeff=max_coeff, maxsteps=20000
            )
        except ValueError:
            found = None
        if found is not None:
            rel = _canonical_relation(found)
            # at 40 digits: in doubles the |k| 2pi terms round at ~1e-10
            if (
                abs(mp.fdot(rel, values)) < _RELATION_RESIDUAL_TOL
                and max(abs(x) for x in rel) <= max_coeff
                and sum(abs(x) for x in rel) <= _l1_guard(k)
            ):
                return _relation_found(rel, thetas)
    return IndependenceVerdict(independent="unknown", relation=None, residual=None)


def _require_max_coeff(max_coeff):
    # a float bound makes PSLQ raise, and would share a memo key with the
    # int it equals
    if isinstance(max_coeff, bool) or not isinstance(max_coeff, int) or max_coeff < 1:
        raise ValueError(f"max_coeff must be an int >= 1, got {max_coeff!r}")


def _l1_guard(k):
    # Fix (k_1, ..., k_k) and take k_0 nearest: the distance from
    # sum k_i theta_i to pi Z is about uniform on [0, pi/2], so the number
    # of vectors with ||k||_1 <= c landing within delta of a relation is
    # (2^k c^k / k!) (2 delta / pi).  At the delta = 1e-13 search depth and
    # 1e-6 false "no" verdicts expected per search, c = 7.9e6 for one angle
    # (never binds below DEFAULT_MAX_COEFF), 2802 for two, 227 for three
    # and 69 for four.  The guard sums |k_0| too, which only tightens it.
    count = math.factorial(k) * math.pi * 1e-6 / (2 ** (k + 1) * 1e-13)
    return int(count ** (1.0 / k))


def check_supercyclic(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """Bounded composition operators on the Fock space are never
    supercyclic, in any dimension."""
    _require_bounded(symbol, tol_unit, "supercyclicity is assessed for bounded symbols")
    return False


@dataclass(frozen=True)
class CyclicityVerdict:
    verdict: str  # "yes" / "no" / "unknown"
    rationale: str
    relation: Optional[tuple] = None
    independence: Optional[IndependenceVerdict] = None


def _find_root_of_unity(a):
    """Smallest 1 < m <= _ROOT_BOUND with a^m = a for unimodular a, else None.

    a^m = a is the float test 2|sin((m - 1) theta / 2)| < 1e-10 with
    theta = arg a.  Only candidates for m are tested, found exactly from
    the continued fraction of x = theta / fl(2 pi).

    Error budget: with q = m - 1 < 10^6, |q theta| < 2^22, so fl(q theta)
    is within 2.4e-10 of q theta, and fl(2 pi) is within 2.5e-16 of 2 pi,
    which adds at most 1.3e-10 over the |p| <= 5e5 turns.  A pass
    therefore has |q theta - p fl(2 pi)| < 5e-10, that is ||q x|| < 1e-10,
    well inside the candidate margin ||q x|| < 1e-9.

    Lattice argument: two points (q1, p1), (q2, p2) with 0 < q < 10^6 and
    |q x - p| < 1e-9 have |q2 p1 - q1 p2| < 2e6 * 1e-9 < 1, so the integer
    determinant is 0 and both are multiples of the smallest such q*.  That
    q* is a best approximation of x, hence a convergent (Khinchin,
    Continued Fractions, 1964), and the candidates are m = k q* + 1 with
    k ||q* x|| < 1e-9.
    """
    theta = float(np.angle(a))
    x = abs(Fraction(theta)) / Fraction(2.0 * math.pi)
    num, den = x.numerator, x.denominator
    p, q, p_prev, q_prev = 1, 0, 0, 1
    while True:  # the last convergent is x itself, with err = 0
        c = num // den
        num, den = den, num - c * den
        p, q, p_prev, q_prev = c * p + p_prev, c * q + q_prev, p, q
        if q >= _ROOT_BOUND:
            return None
        err = abs(q * x - p)
        if err < 1e-9:
            break
    for k in range(1, (_ROOT_BOUND - 1) // q + 1):
        if k * err >= 1e-9:
            break
        m = k * q + 1
        if 2.0 * np.abs(np.sin((m - 1.0) * theta / 2.0)) < 1e-10:
            return m
    return None


def check_cyclic(
    symbol,
    tol_unit=DEFAULT_TOL_UNIT,
    max_coeff=DEFAULT_MAX_COEFF,
    exact_angles=None,
):
    """Three-valued cyclicity verdict for bounded C_phi.

    exact_angles, when given, aligns with the sorted eigenvalues of A and
    tags arguments that are exact rational multiples of pi.

    Raises
    ------
    ValueError
        If max_coeff is not an int >= 1.
    NotBoundedError
    """
    _require_max_coeff(max_coeff)
    _require_bounded(symbol, tol_unit, "cyclicity is assessed for bounded symbols")
    return _cyclic_verdict(symbol, tol_unit, max_coeff, exact_angles)


# rationales on the unit circle, indexed by n == 1
_RELATION_FOUND = (
    "unitary A with a rational relation among the eigenvalue angles and pi",
    "a is a root of unity: some power a^m returns to a",
)
_UNDECIDED = (
    "unitary A; independence of the eigenvalue angles could not be decided "
    "from floating data",
    "no root-of-unity relation found below the search bounds; floating data "
    "cannot certify independence",
)


@per_symbol
def _angle_verdict(symbol, tol_unit, max_coeff, exact_angles):
    """The independence verdict for the unimodular angles of the sorted
    eigenvalues of symbol.A, and the m of a^m = a when the root-of-unity
    walk decided it (else None).

    The relation search runs for every n.  In one variable its "unknown"
    falls back to _find_root_of_unity on a / |a|: an m found there gives
    the verdict "no" with the relation (m - 1) theta = 2k pi and its double
    residual.  check_cyclic and spectrum.enumerate_spectrum both read this
    verdict, so they agree on every symbol.  Every caller passes the four
    arguments positionally, so that one verdict has one memo key.
    """
    ev = _eigenvalues_of(symbol)
    angles = _unimodular_angles(ev, tol_unit, exact_angles)
    iv = rational_independence(angles, max_coeff)
    if iv.independent != "unknown" or len(ev) != 1:
        return iv, None
    a = complex(ev[0])
    m = _find_root_of_unity(a / abs(a))
    if m is None:
        return iv, None
    k = int(round((m - 1) * angles.thetas[0] / (2.0 * np.pi)))
    return _relation_found([-2 * k, m - 1], angles.thetas), m


@per_symbol
def _cyclic_verdict(symbol, tol_unit, max_coeff, exact_angles):
    """check_cyclic for a symbol already known to be bounded, remembered
    as _angle_verdict is.  On the unit circle the angle verdict decides
    (it cannot answer "yes": every eigenvalue of a unitary A is on the
    circle, so there are angles)."""
    n, A = symbol.n, symbol.A
    if symbol._singular_values[-1] <= _SINGULAR_TOL:
        return CyclicityVerdict(
            verdict="no",
            rationale="A is not invertible; the range of C_phi is not dense",
        )
    scalar = n == 1
    if scalar and abs(complex(A[0, 0])) < 1.0 - tol_unit:
        return CyclicityVerdict(
            verdict="yes",
            rationale="0 < |a| < 1: every kernel function K_z with z != 0 "
            "(and K_0 when b != 0) is a cyclic vector",
        )
    if not scalar and not np.linalg.norm(A @ A.conj().T - np.eye(n)) < tol_unit:
        return CyclicityVerdict(
            verdict="unknown",
            rationale="invertible non-unitary A in dimension >= 2: cyclicity "
            "is an open problem",
        )
    iv, m = _angle_verdict(symbol, tol_unit, max_coeff, exact_angles)
    if iv.independent == "no":
        return CyclicityVerdict(
            verdict="no",
            rationale=_RELATION_FOUND[scalar]
            if m is None
            else f"a^{m} = a: the orbit of any vector spans "
            f"at most {m - 1} distinct directions per eigenline",
            relation=iv.relation,
            independence=iv,
        )
    return CyclicityVerdict(
        verdict="unknown", rationale=_UNDECIDED[scalar], independence=iv
    )


@dataclass(frozen=True, eq=False)
class KernelOrbitResult:
    """C^m applied to K_z stays a scalar multiple of a kernel function."""

    center: np.ndarray
    scale: complex


def kernel_orbit(symbol, z, m, mode="adjoint", tol_unit=DEFAULT_TOL_UNIT):
    """Closed-form orbit of a kernel function.

    mode="adjoint": (C_phi*)^m K_z = K_{phi_m(z)}, any dimension.
    mode="forward": C_phi^m K_z = c_m K_{conj(a)^m z}, one variable only,
    with c_m = exp(<s_m b, z>/2) and s_m = 1 + a + ... + a^{m-1}.

    Raises
    ------
    NotBoundedError
    ForwardOrbitUnsupportedError
        mode="forward" with n >= 2.
    SizeOverflowError
        mode="forward" where c_m leaves the double range.
    ValueError
        If m is not an integer >= 0, or mode is unknown.
    """
    _require_bounded(symbol, tol_unit, "kernel orbits are computed for bounded symbols")
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != symbol.n:
        raise ShapeMismatchError("orbit point has the wrong dimension")
    m = _nonnegative_int(m, "iteration count")
    if mode == "adjoint":
        center = iterate_symbol(symbol, m)(z)
        return KernelOrbitResult(center=center, scale=1.0 + 0.0j)
    if mode == "forward":
        if symbol.n != 1:
            raise ForwardOrbitUnsupportedError(
                "forward kernel orbits have closed form only for n = 1"
            )
        a = complex(symbol.A[0, 0])
        b = complex(symbol.B[0])
        s = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for _ in range(m):
            s += term
            term *= a
        x = 0.5 * hermitian_inner([s * b], z)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = complex(np.exp(x))
        if not np.isfinite(scale):
            raise SizeOverflowError(f"orbit scale = exp({x}) exceeds the double range")
        center = np.conj(a) ** m * z
        return KernelOrbitResult(center=center, scale=scale)
    raise ValueError(f"unknown orbit mode {mode!r}")


@dataclass(frozen=True)
class OrbitDensityReport:
    """Span growth of {M^k x} inside the truncated space.

    dims[k] is the numerical rank of the first k+1 orbit vectors; the
    sequence is nondecreasing by construction.
    """

    dims: tuple
    dimension: int
    basis_dim: int
    fraction: float


def orbit_density_experiment(symbol, seed, max_degree, steps):
    """Numerical density probe: how much of the degree <= N space the
    truncated orbit of a seed polynomial spans.

    seed must be expressible at degree <= N.  The span of {M^k x : k <= s}
    is the Krylov space of (M, x), so it is grown one orthonormalized
    direction at a time: each step applies M to the newest basis vector and
    keeps the component orthogonal to the current span when its relative
    size exceeds _RANK_TOL.  Stacking raw powers instead would lose
    directions whose eigenvalues decay, reporting false rank deficiency.
    The seed's coordinates need the monomial norms, so max_degree is at
    most 150 (SizeOverflowError above).
    """
    steps = _nonnegative_int(steps, "steps")
    op = build_truncation(symbol, max_degree)
    basis = op.basis
    if seed.n != symbol.n:
        raise ShapeMismatchError("seed polynomial has the wrong dimension")
    if seed.degree() > max_degree:
        raise ValueError(
            f"seed degree {seed.degree()} exceeds truncation degree {max_degree}"
        )
    x = np.zeros(basis.dim, dtype=complex)
    sqrt_ns = np.sqrt(basis.norm_sq)
    for g, c in seed.to_double().terms.items():
        x[basis.position(g)] = complex(c) * sqrt_ns[basis.position(g)]
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValueError("seed polynomial is zero")

    q = np.empty((basis.dim, steps + 1), dtype=complex)
    q[:, 0] = x / nx
    rank = 1
    dims = [1]
    for _ in range(steps):
        w = op.matrix @ q[:, rank - 1]
        nv = np.linalg.norm(w)
        if nv > 0:
            # orthogonalize twice; a single classical pass is not stable
            for _ in range(2):
                w -= q[:, :rank] @ (q[:, :rank].conj().T @ w)
            nrm = np.linalg.norm(w)
            if nrm > _RANK_TOL * nv:
                q[:, rank] = w / nrm
                rank += 1
        dims.append(rank)
        if rank == basis.dim:
            dims.extend([basis.dim] * (steps + 1 - len(dims)))
            break
    return OrbitDensityReport(
        dims=tuple(dims),
        dimension=dims[-1],
        basis_dim=basis.dim,
        fraction=dims[-1] / basis.dim,
    )
