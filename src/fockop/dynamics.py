"""Cyclicity, supercyclicity and kernel orbits of C_phi.

Bounded C_phi is never supercyclic.  Cyclicity is decided by a small
case tree: non-invertible A kills cyclicity; in one variable a
non-unimodular invertible a gives cyclicity with a kernel function as
cyclic vector; unimodular and unitary cases reduce to rational
independence of the eigenvalue angles with pi; the invertible non-unitary
case in several variables is open and reported as such.

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
from .errors import ForwardOrbitUnsupportedError, ShapeMismatchError
from .symbol import DEFAULT_TOL_UNIT, hermitian_inner, iterate_symbol
from .truncation import build_truncation

DEFAULT_MAX_COEFF = 10**6
_RELATION_RESIDUAL_TOL = 1e-10
_ROOT_BOUND = 10**6
_RANK_TOL = 1e-8


@dataclass(frozen=True)
class AngleSet:
    """Angles in [0, 2pi), optionally tagged as exact multiples of pi.

    exact[i] = Fraction(p, q) certifies theta_i = (p/q) pi exactly; None
    marks a plain floating angle.  Tags must match the floats to 1e-9.
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
                if isinstance(tag, tuple):
                    tag = Fraction(tag[0], tag[1])
                else:
                    tag = Fraction(tag)
                target = (float(tag) * np.pi) % (2.0 * np.pi)
                diff = abs(target - t) % (2.0 * np.pi)
                if min(diff, 2.0 * np.pi - diff) > 1e-9:
                    raise ValueError(
                        f"exact tag {tag} pi does not match angle {t!r}"
                    )
                tags.append(tag)
            tags = tuple(tags)
        return cls(thetas=thetas, exact=tags)


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
    g = 0
    for k in ks:
        g = int(np.gcd(g, abs(k)))
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


def rational_independence(angles, max_coeff=DEFAULT_MAX_COEFF):
    """Decide rational (in)dependence of (pi, theta_1, ..., theta_k).

    Exact tags decide immediately: theta = (p/q) pi yields the relation
    -p*pi + q*theta = 0.  Pure floating inputs run PSLQ; a candidate
    relation is accepted only if its residual against the floats is below
    1e-10 and its coefficients stay within max_coeff.  Exhausting the
    search returns "unknown", never "yes".
    """
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
        rel = _canonical_relation(rel)
        return IndependenceVerdict(
            independent="no", relation=rel, residual=_relation_residual(rel, thetas)
        )

    # a zero angle is a relation on its own and breaks PSLQ's nonzero
    # input requirement, so handle it first
    for i, t in enumerate(thetas):
        if min(t, 2.0 * np.pi - t) < 1e-12:
            rel = [0] * (k + 1)
            rel[i + 1] = 1
            if t > np.pi:  # theta ~ 2pi: theta - 2pi = 0
                rel[0] = -2
            rel = _canonical_relation(rel)
            return IndependenceVerdict(
                independent="no",
                relation=rel,
                residual=_relation_residual(rel, thetas),
            )

    # Search depth 1e-13, not the 1e-10 reporting gate: double inputs only
    # certify a relation to ~|k|*1e-16, while unrelated angles admit lattice
    # noise at the 1e-11 level once three or more terms are in play (e.g.
    # -23192*pi + 58099*sqrt(2) - 5372*sqrt(3) ~ 3.8e-11).  Digging deeper
    # than the noise floor would turn independence into false dependence.
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
        resid = _relation_residual(rel, thetas)
        if (
            resid < _RELATION_RESIDUAL_TOL
            and max(abs(x) for x in rel) <= max_coeff
            and sum(abs(x) for x in rel) <= _l1_guard(k)
        ):
            return IndependenceVerdict(independent="no", relation=rel, residual=resid)
    return IndependenceVerdict(independent="unknown", relation=None, residual=None)


def _l1_guard(k):
    # Expected number of integer vectors with ||k||_1 <= c landing within
    # delta of zero is about (delta/5) * 2^(k+1) * c^k / (k+1)!.  Solving
    # for <= 0.01 at the delta = 1e-13 search depth bounds the aggregate
    # coefficient size below which a found relation is not lattice noise.
    # One angle: ~2.5e11 (never binds); two: 6.1e5; three: 9.1e3.
    return int((5e11 * math.factorial(k + 1) / 2 ** (k + 1)) ** (1.0 / k))


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
    """Smallest 1 < m <= _ROOT_BOUND with a^m = a for unimodular a, else None."""
    theta = float(np.angle(a))
    ms = np.arange(2, _ROOT_BOUND + 1, dtype=float)
    vals = 2.0 * np.abs(np.sin((ms - 1.0) * theta / 2.0))
    hits = np.nonzero(vals < 1e-10)[0]
    if hits.size == 0:
        return None
    return int(ms[hits[0]])


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
    NotBoundedError
    """
    _require_bounded(symbol, tol_unit, "cyclicity is assessed for bounded symbols")
    return _cyclic_verdict(symbol, tol_unit, max_coeff, exact_angles)


def _cyclic_verdict(symbol, tol_unit, max_coeff, exact_angles):
    """check_cyclic for a symbol already known to be bounded."""
    from .spectrum import eigenvalues

    n = symbol.n
    sv = np.linalg.svd(symbol.A, compute_uv=False)
    if sv[-1] <= 1e-12:
        return CyclicityVerdict(
            verdict="no",
            rationale="A is not invertible; the range of C_phi is not dense",
        )

    if n == 1:
        a = complex(symbol.A[0, 0])
        if abs(a) >= 1.0 - tol_unit:
            theta = float(np.angle(a)) % (2.0 * np.pi)
            angle_set = AngleSet.build([theta], exact_angles)
            iv = rational_independence(angle_set, max_coeff)
            if iv.independent == "no":
                return CyclicityVerdict(
                    verdict="no",
                    rationale="a is a root of unity: some power a^m returns to a",
                    relation=iv.relation,
                    independence=iv,
                )
            m = _find_root_of_unity(a / abs(a))
            if m is not None:
                k = int(round((m - 1) * theta / (2.0 * np.pi)))
                rel = _canonical_relation([-2 * k, m - 1])
                return CyclicityVerdict(
                    verdict="no",
                    rationale=f"a^{m} = a: the orbit of any vector spans "
                    f"at most {m - 1} distinct directions per eigenline",
                    relation=rel,
                    independence=iv,
                )
            return CyclicityVerdict(
                verdict="unknown",
                rationale="no root-of-unity relation found below the search "
                "bounds; floating data cannot certify independence",
                independence=iv,
            )
        return CyclicityVerdict(
            verdict="yes",
            rationale="0 < |a| < 1: every kernel function K_z with z != 0 "
            "(and K_0 when b != 0) is a cyclic vector",
        )

    gram = symbol.A @ symbol.A.conj().T - np.eye(n)
    if np.linalg.norm(gram) < tol_unit:
        ev = eigenvalues(symbol.A)
        thetas = [float(np.angle(l)) % (2.0 * np.pi) for l in ev]
        angle_set = AngleSet.build(thetas, exact_angles)
        iv = rational_independence(angle_set, max_coeff)
        if iv.independent == "yes":
            return CyclicityVerdict(
                verdict="yes",
                rationale="unitary A with eigenvalue angles rationally "
                "independent from pi",
                independence=iv,
            )
        if iv.independent == "no":
            return CyclicityVerdict(
                verdict="no",
                rationale="unitary A with a rational relation among the "
                "eigenvalue angles and pi",
                relation=iv.relation,
                independence=iv,
            )
        return CyclicityVerdict(
            verdict="unknown",
            rationale="unitary A; independence of the eigenvalue angles "
            "could not be decided from floating data",
            independence=iv,
        )

    return CyclicityVerdict(
        verdict="unknown",
        rationale="invertible non-unitary A in dimension >= 2: cyclicity "
        "is an open problem",
    )


@dataclass(frozen=True)
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
    """
    _require_bounded(symbol, tol_unit, "kernel orbits are computed for bounded symbols")
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != symbol.n:
        raise ShapeMismatchError("orbit point has the wrong dimension")
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
        scale = np.exp(0.5 * hermitian_inner([s * b], z))
        center = np.conj(a) ** m * z
        return KernelOrbitResult(center=center, scale=complex(scale))
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
    steps: int


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
        steps=steps,
    )
