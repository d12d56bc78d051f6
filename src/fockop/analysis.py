"""Closed-form operator theory for C_phi, phi(z) = Az + B, alpha = 1/2.

Boundedness and compactness, the operator and essential norms, normality
and its relatives, the Berezin transform, Schatten-class information and
the Hilbert-Schmidt norm.  Each closed form here is cross-checked in the
test suite against the graded truncation oracle or direct quadrature.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    IdentityViolationError,
    InconsistentError,
    NotBoundedError,
    NotCompactError,
    QuadratureDivergenceError,
    SizeOverflowError,
)
from .symbol import DEFAULT_TOL_UNIT, hermitian_inner, per_symbol
from . import truncation as _trunc

_IDENTITY_REL_TOL = 1e-9


def _exp(x, what):
    """math.exp(x), raising SizeOverflowError where it leaves the double
    range, also when x is already inf or nan from an overflowed sum."""
    try:
        val = math.exp(x)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise SizeOverflowError(f"{what} = exp({x:.17g}) exceeds the double range")
    return val


@dataclass(frozen=True, eq=False)
class BoundednessVerdict:
    """Outcome of the boundedness test.

    bounded is true iff ||A|| <= 1 + tol and B is orthogonal to the image
    of the norm-one singular directions.  When the orthogonality fails,
    witness holds a unit zeta with |A zeta| = |zeta| and <A zeta, B> != 0;
    when instead ||A|| > 1 there is no finite-dimensional witness.
    """

    bounded: bool
    witness: Optional[np.ndarray]
    norm_a: float


def check_bounded(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """Boundedness of C_phi: ||A|| <= 1 and <A zeta, B> = 0 whenever
    |A zeta| = |zeta|.

    The unit singular directions are read off the SVD: zeta ranges over
    right singular vectors with sigma within tol_unit of 1, so the
    condition is that B has no component along the corresponding left
    singular vectors.

    The verdict is computed once per symbol and tolerance (see
    symbol.per_symbol): each call returns a new BoundednessVerdict around
    the same read-only witness.
    """
    return replace(_bounded_verdict(symbol, tol_unit))


@per_symbol
def _bounded_verdict(symbol, tol_unit):
    norm_a = symbol.norm_a
    if norm_a > 1.0 + tol_unit:
        return BoundednessVerdict(bounded=False, witness=None, norm_a=norm_a)
    U, sig, Vh = np.linalg.svd(symbol.A)
    unit = sig >= 1.0 - tol_unit
    if not np.any(unit):
        return BoundednessVerdict(bounded=True, witness=None, norm_a=norm_a)
    Us = U[:, unit]
    overlaps = Us.conj().T @ symbol.B  # <B, u_i> conjugated pairing
    with np.errstate(over="ignore", invalid="ignore"):
        mass = float(np.linalg.norm(overlaps))
        scale = max(1.0, float(np.linalg.norm(symbol.B)))
    if mass <= tol_unit * scale:
        return BoundednessVerdict(bounded=True, witness=None, norm_a=norm_a)
    # witness maximizing |<A zeta, B>| over unit zeta in the singular space
    coeff = overlaps / mass
    zeta = Vh.conj().T[:, unit] @ coeff
    zeta = zeta / np.linalg.norm(zeta)
    return BoundednessVerdict(bounded=False, witness=zeta, norm_a=norm_a)


def _require_bounded(symbol, tol_unit, message):
    """The guard of every closed form that holds only for bounded C_phi:
    raise NotBoundedError(message) unless check_bounded passes at tol_unit."""
    if not _bounded_verdict(symbol, tol_unit).bounded:
        raise NotBoundedError(message)


def check_compact(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """C_phi is compact iff ||A|| < 1, tested as ||A|| < 1 - tol_unit."""
    return symbol.norm_a < 1.0 - tol_unit


@per_symbol
def solve_z0(symbol, tol=DEFAULT_TOL_UNIT):
    """Minimum-norm solution of (I - A*A) z = A*B.

    For bounded symbols the system is consistent (A*B is orthogonal to
    ker(I - A*A)); a large least-squares residual therefore signals a
    symbol on the unbounded side.  Singular values of I - A*A up to 2 tol
    count as zero: for a unitary A the matrix is rounding noise, and
    inverting that noise would return a huge z0.  The largest of them,
    max_i |1 - sigma_i^2|, is read off the singular values of A that the
    symbol keeps.

    z0 is computed once per symbol and tolerance (see symbol.per_symbol),
    and every call returns the same read-only array; an inconsistent
    system raises on every call.

    Raises
    ------
    InconsistentError
        If the residual exceeds tol * max(1, |B|) * max(1, ||A||).
    SizeOverflowError
        If A*A, A*B or max|1 - sigma_i^2| leaves the double range, before
        the system is solved.
    """
    n = symbol.n
    A = symbol.A
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.eye(n) - A.conj().T @ A
        rhs = A.conj().T @ symbol.B
        smax = float(np.max(np.abs(1.0 - symbol._singular_values ** 2)))
    # LAPACK's least squares would fail on an inf or nan entry, after
    # printing to stderr
    for name, part in (("A*A", lhs), ("A*B", rhs), ("max|1 - sigma_i^2|", smax)):
        if not np.isfinite(part).all():
            raise SizeOverflowError(f"solving for z0: {name} exceeds the double range")
    if smax <= 2 * tol:
        z0 = np.zeros(n, dtype=complex)
    else:
        z0 = np.linalg.lstsq(lhs, rhs, rcond=2 * tol / smax)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(lhs @ z0 - rhs))
        scale = max(1.0, float(np.linalg.norm(symbol.B))) * max(1.0, symbol.norm_a)
    if resid > tol * scale:
        raise InconsistentError(
            f"(I - A*A) z = A*B residual {resid:.3e}; symbol is not bounded"
        )
    return z0


def _norm_from_z0(symbol, z0):
    z2, az2, b2 = (hermitian_inner(v, v).real for v in (z0, symbol.A @ z0, symbol.B))
    for name, t in (("|z0|^2", z2), ("|A z0|^2", az2), ("|B|^2", b2)):
        if not math.isfinite(t):
            raise SizeOverflowError(
                f"||C_phi|| = exp((|z0|^2 - |A z0|^2 + |B|^2)/4) exceeds the "
                f"double range: {name} overflows"
            )
    return _exp(0.25 * (z2 - az2 + b2), "||C_phi||")


def operator_norm(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """||C_phi|| = exp((|z0|^2 - |A z0|^2 + |B|^2) / 4).

    The value does not depend on which solution z0 of (I - A*A) z = A*B
    is taken; solve_z0 picks the minimum-norm one.

    Raises
    ------
    NotBoundedError
    """
    _require_bounded(symbol, tol_unit, "operator norm requires a bounded symbol")
    return _operator_norm(symbol, tol_unit)


@per_symbol
def _operator_norm(symbol, tol_unit):
    """||C_phi|| from the remembered z0, computed once per symbol and
    tolerance (see symbol.per_symbol)."""
    return _norm_from_z0(symbol, solve_z0(symbol, tol_unit))


def _essential_norm_from_z0(symbol, z0, norm):
    # non-compact case: exp(<phi(z0), B>/4), checked against the norm
    val = hermitian_inner(symbol(z0), symbol.B)
    if abs(val.imag) > _IDENTITY_REL_TOL * max(1.0, abs(val)):
        raise IdentityViolationError(
            f"<phi(z0), B> has imaginary part {val.imag:.3e}"
        )
    via_identity = _exp(0.25 * val.real, "essential norm")
    if abs(via_identity - norm) > _IDENTITY_REL_TOL * norm:
        raise IdentityViolationError(
            f"essential-norm identity mismatch: {via_identity!r} vs {norm!r}"
        )
    return via_identity


def essential_norm(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """Essential norm: 0 when compact, else equal to the operator norm.

    In the non-compact case the value exp(<phi(z0), B>/4) is evaluated
    against the full norm formula; the two must agree to a relative 1e-9
    and the inner product must be real to the same tolerance, otherwise
    the computation is rejected rather than silently trusted.

    Raises
    ------
    NotBoundedError
    IdentityViolationError
        If the two closed forms disagree.
    """
    _require_bounded(symbol, tol_unit, "essential norm requires a bounded symbol")
    return _essential_norm(symbol, tol_unit)


@per_symbol
def _essential_norm(symbol, tol_unit):
    """essential_norm without its boundedness guard, computed once per
    symbol and tolerance (see symbol.per_symbol) from the remembered z0 and
    operator norm; a failed identity check raises on every call."""
    if check_compact(symbol, tol_unit):
        return 0.0
    z0 = solve_z0(symbol, tol_unit)
    return _essential_norm_from_z0(symbol, z0, _operator_norm(symbol, tol_unit))


def _is_normal(symbol, tol):
    A = symbol.A
    comm = A @ A.conj().T - A.conj().T @ A
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.linalg.norm(symbol.B) < tol and np.linalg.norm(comm) < tol)


def check_normal(symbol, tol=DEFAULT_TOL_UNIT):
    """C_phi is normal iff B = 0 and A is a normal matrix.

    Raises
    ------
    NotBoundedError
    """
    _require_bounded(symbol, tol, "normality is assessed for bounded symbols")
    return _is_normal(symbol, tol)


def check_hyponormal(symbol, tol=DEFAULT_TOL_UNIT):
    """Hyponormal composition operators are already normal, so this is
    the same predicate as check_normal."""
    return check_normal(symbol, tol)


def check_essentially_normal(symbol, tol=DEFAULT_TOL_UNIT):
    """Essentially normal iff compact or normal."""
    return check_compact(symbol, tol) or check_normal(symbol, tol)


def berezin_transform(symbol, z, tol_unit=DEFAULT_TOL_UNIT):
    """Berezin transform of C_phi* C_phi at z:

        ||C_phi k_z||^2 = exp(-|z|^2/2 + Re<B, z> + |A* z|^2/2).

    Substituting C_phi k_z = exp(<B,z>/2 - |z|^2/4) K_{A*z} into the
    kernel norm gives the display; at z = 0 the value is exactly 1.

    Raises
    ------
    NotCompactError
        The Toeplitz identification behind the transform needs ||A|| < 1.
    """
    if not check_compact(symbol, tol_unit):
        raise NotCompactError("Berezin transform is provided for compact symbols")
    z = np.asarray(z, dtype=complex).reshape(-1)
    Az = symbol.A.conj().T @ z
    expo = (
        -0.5 * hermitian_inner(z, z).real
        + hermitian_inner(symbol.B, z).real
        + 0.5 * hermitian_inner(Az, Az).real
    )
    return _exp(expo, "Berezin transform")


# ---------------------------------------------------------------------------
# Gaussian integrals: closed forms and tensor Gauss-Hermite oracles

_GH_BLOCK = 2_000_000


def _tensor_gauss_hermite(exponent_fn, m, scale, order):
    """integral over R^m of exp(exponent_fn(t)) dt by tensor Gauss-Hermite.

    The rule absorbs a factor exp(-scale |t|^2): nodes are x/sqrt(scale)
    and log-weights carry the +x^2 compensation, which keeps large nodes
    from under/overflowing separately.  The order^m grid points are
    visited in blocks of at most _GH_BLOCK.

    exponent_fn maps an (P, m) real array to a (P,) real array.  Raises
    SizeOverflowError where the sum is inf, or nan from inf - inf.
    """
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(order)
    nodes = x / math.sqrt(scale)
    logw = np.log(w) + x * x - 0.5 * math.log(scale)
    size = order**m
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, size, _GH_BLOCK):
            flat = np.arange(start, min(start + _GH_BLOCK, size))
            idx = np.unravel_index(flat, (order,) * m)
            pts = np.stack([nodes[i] for i in idx], axis=-1)
            total += float(np.sum(np.exp(exponent_fn(pts) + sum(logw[i] for i in idx))))
    if not math.isfinite(total):
        raise SizeOverflowError(f"a Gauss-Hermite sum is {total}, out of the double range")
    return total


def _as_complex_points(pts):
    # axes alternate Re, Im per complex coordinate
    return pts[:, 0::2] + 1j * pts[:, 1::2]


@dataclass(frozen=True)
class SchattenIntegrals:
    """The two weighted kernel integrals controlling Schatten membership."""

    int_cphi: float
    int_cphi_star: float


def _gaussian_integral(H, b, shift=0.0):
    """exp(shift) times the integral over C^n of exp(-<Hz, z> + 2 Re<z, b>)
    dv(z) for Hermitian H > 0: pi^n exp(shift + <H^-1 b, b>) / det H, taken
    as one exponential so that only a result out of double range overflows."""
    quad = hermitian_inner(np.linalg.solve(H, b), b).real
    log_det = np.linalg.slogdet(H)[1]
    log_val = shift + quad + H.shape[0] * math.log(math.pi) - log_det
    return _exp(log_val, "Gaussian integral")


def _require_p(p):
    """The one rule on a Schatten exponent: 0 < p < inf, which nan fails."""
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")


def _require_schatten(symbol, p, tol_unit):
    """The guards of both Schatten integrals: the p rule, then compactness."""
    _require_p(p)
    if not check_compact(symbol, tol_unit):
        raise NotCompactError("Schatten integrals are evaluated for compact symbols")


def schatten_integrals(symbol, p, tol_unit=DEFAULT_TOL_UNIT):
    """Evaluate, over plain Lebesgue volume dv on C^n,

        I1 = integral ||C_phi k_z||^p dv(z)
        I2 = integral ||C_phi* k_z||^p dv(z)

    in closed form.  Both integrands are Gaussians,

        ||C_phi k_z||^p  = exp(-(p/4)<(I - AA*)z, z> + (p/2) Re<z, B>)
        ||C_phi* k_z||^p = exp(p|B|^2/4 - (p/4)<(I - A*A)z, z> + (p/2) Re<z, A*B>),

    and both integrals are finite exactly when ||A|| < 1.
    schatten_integrals_quadrature evaluates the same integrals directly.

    Raises
    ------
    ValueError
        Unless 0 < p < inf.
    NotCompactError
    """
    _require_schatten(symbol, p, tol_unit)
    q = 0.25 * p
    AAh = symbol.A @ symbol.A.conj().T
    return SchattenIntegrals(
        int_cphi=_gaussian_integral(q * (np.eye(symbol.n) - AAh), q * symbol.B),
        int_cphi_star=_int_cphi_star(symbol, q),
    )


def _int_cphi_star(symbol, q):
    """schatten_integrals' I2 at p = 4 q, with no guard."""
    A, B = symbol.A, symbol.B
    Ah = A.conj().T
    return _gaussian_integral(
        q * (np.eye(symbol.n) - Ah @ A), q * (Ah @ B), q * hermitian_inner(B, B).real
    )


def berezin_transform_quadrature(symbol, z, order=32):
    """The defining integral of the Berezin transform,

        (2 pi)^{-n} integral exp(-|z - phi(u)|^2/2) exp((|phi(u)|^2 - |u|^2)/2) dv(u),

    evaluated directly by tensor Gauss-Hermite.  Shares nothing with the
    closed form in berezin_transform; the test suite plays them against
    each other.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = symbol.n
    A, B = symbol.A, symbol.B

    def expo(pts):
        u = _as_complex_points(pts)
        ph = u @ A.T + B
        dz = z - ph
        return 0.5 * (
            -np.sum(np.abs(dz) ** 2, axis=-1)
            + np.sum(np.abs(ph) ** 2, axis=-1)
            - np.sum(np.abs(u) ** 2, axis=-1)
        )

    val = _tensor_gauss_hermite(expo, 2 * n, 0.5, order)
    return val / (2.0 * math.pi) ** n


def schatten_integrals_quadrature(symbol, p, order=16):
    """The integrals of schatten_integrals evaluated directly, by one
    tensor Gauss-Hermite rule of the given order, from the kernel norms

        ||C_phi k_z||^2  = exp(-|z|^2/2 + Re<B, z> + |A* z|^2/2)
        ||C_phi* k_z||^2 = exp((|phi(z)|^2 - |z|^2)/2).

    Shares nothing with the closed form in schatten_integrals, whose
    guards it keeps (ValueError unless 0 < p < inf, and NotCompactError);
    the test suite plays them against each other.
    """
    _require_schatten(symbol, p, DEFAULT_TOL_UNIT)
    n = symbol.n
    A, B = symbol.A, symbol.B
    scale = 0.25 * p * (1.0 - symbol.norm_a**2)

    def expo1(pts):
        z = _as_complex_points(pts)
        Az = z @ np.conj(A)  # rows are A* z
        zz = np.sum(np.abs(z) ** 2, axis=-1)
        bz = np.real(np.sum(B * np.conj(z), axis=-1))
        return 0.5 * p * (-0.5 * zz + bz + 0.5 * np.sum(np.abs(Az) ** 2, axis=-1))

    def expo2(pts):
        z = _as_complex_points(pts)
        ph = z @ A.T + B
        return 0.25 * p * (
            np.sum(np.abs(ph) ** 2, axis=-1) - np.sum(np.abs(z) ** 2, axis=-1)
        )

    return SchattenIntegrals(
        int_cphi=_tensor_gauss_hermite(expo1, 2 * n, scale, order),
        int_cphi_star=_tensor_gauss_hermite(expo2, 2 * n, scale, order),
    )


def schatten_membership(symbol, p, tol_unit=DEFAULT_TOL_UNIT):
    """C_phi is in S_p for every 0 < p < infinity iff it is compact.
    Raises ValueError unless 0 < p < inf."""
    _require_p(p)
    return check_compact(symbol, tol_unit)


_HS_DEFAULT_DEGREE = {1: 40, 2: 24, 3: 14}


def hilbert_schmidt_norm_sq(symbol, max_degree=None):
    """sum_alpha ||C_phi e_alpha||^2 from the truncation Frobenius norms;
    +infinity for a non-compact symbol whose per-degree sums do not settle.

    Truncation columns are exact, so the per-degree sums c_d are exact.
    They settle when r, the largest ratio c_(d+1) / c_d over the top third
    of the degrees, is below 1 - 1e-6 and the tail bound c_N r / (1 - r)
    is at most 1e-4 of the partial sum through N, which is then returned.

    Raises
    ------
    QuadratureDivergenceError
        If the sum is not settled although the symbol is compact, so the
        sum is finite but max_degree is too low to reach it.
    """
    if max_degree is None:
        max_degree = _HS_DEFAULT_DEGREE.get(symbol.n, 10)
    c = _trunc.build_truncation(symbol, max_degree).column_norms_sq_by_degree()
    total = float(np.sum(c))
    top = range((2 * max_degree) // 3, max_degree)
    # a sum below 1e-300 counts as zero, so no ratio is taken to it
    r = max((c[d + 1] / c[d] for d in top if c[d + 1] > 1e-300), default=0.0)
    if r >= 1.0 - 1e-6 or c[max_degree] * r / (1.0 - r) > 1e-4 * total:
        if check_compact(symbol):
            raise QuadratureDivergenceError(
                f"per-degree Hilbert-Schmidt sums have not settled by degree "
                f"{max_degree} for a compact symbol (largest ratio {r:.6g})"
            )
        return math.inf
    return total


def hilbert_schmidt_norm_sq_closed_form(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """Gaussian-integral evaluation of the same sum:

        ||C_phi||_HS^2 = (2 pi)^{-n} integral ||C_phi* k_z||^2 dv(z),

    the Schatten integral I2 at p = 2, evaluated without I1.  Follows from
    sum_alpha |e_alpha(u)|^2 = exp(|u|^2/2); must match the truncation
    limit.

    Raises
    ------
    NotCompactError
    """
    _require_schatten(symbol, 2.0, tol_unit)
    return _int_cphi_star(symbol, 0.5) / (2.0 * math.pi) ** symbol.n


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Aggregate verdicts for one symbol.

    The defaults are the report of an unbounded symbol: not compact, and
    None for every field that needs boundedness.  cyclic is the
    three-valued string "yes" / "no" / "unknown"; cyclic_detail carries
    the full verdict object.
    """

    bounded: BoundednessVerdict
    compact: bool = False
    norm: Optional[float] = None
    essential_norm: Optional[float] = None
    z0: Optional[np.ndarray] = None
    normal: Optional[bool] = None
    hyponormal: Optional[bool] = None
    essentially_normal: Optional[bool] = None
    schatten_all_p: bool = False
    supercyclic: Optional[bool] = None
    cyclic: Optional[str] = None
    cyclic_detail: object = None


def classify(symbol, tol_unit=DEFAULT_TOL_UNIT, exact_angles=None):
    """Run every closed-form verdict and collect them in one report.

    Boundedness, z0, the two norms and the cyclicity verdict are read from
    what the symbol remembers (see symbol.per_symbol), and the normality
    relatives are derived from them; cyclicity skips the boundedness guard
    of check_cyclic, and the essential norm keeps the identity checks of
    essential_norm.  The report holds the remembered verdicts and z0,
    read-only.
    """
    from .dynamics import DEFAULT_MAX_COEFF, _cyclic_verdict

    bv = _bounded_verdict(symbol, tol_unit)
    if not bv.bounded:
        return ClassificationReport(bounded=bv)
    compact = check_compact(symbol, tol_unit)
    cyc = _cyclic_verdict(symbol, tol_unit, DEFAULT_MAX_COEFF, exact_angles)
    normal = _is_normal(symbol, tol_unit)
    return ClassificationReport(
        bounded=bv,
        compact=compact,
        norm=_operator_norm(symbol, tol_unit),
        essential_norm=_essential_norm(symbol, tol_unit),
        z0=solve_z0(symbol, tol_unit),
        normal=normal,
        hyponormal=normal,
        essentially_normal=compact or normal,
        schatten_all_p=compact,
        # check_supercyclic is False for every bounded symbol
        supercyclic=False,
        cyclic=cyc.verdict,
        cyclic_detail=cyc,
    )
