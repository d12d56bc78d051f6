"""Spectrum of C_phi and explicit polynomial-type eigenfunctions.

For bounded C_phi the spectrum is the closure of

    { prod_j d_j^{beta_j} * prod_i lambda_i^{gamma_i} }

over multi-indices beta (against the unimodular diagonal d_j of the block
Schur form) and gamma (against the eigenvalues lambda_i of the strictly
contractive block A1).  Eigenfunctions come from the same normal form:

    F(w, v) = w^beta * prod_i [ (v - C)^T v(i) ]^{gamma_i}

with C = (I - A1)^{-1} B1 and A1^T v(i) = lambda_i v(i), living in the
Schur coordinates z' = U z = (w, v).
"""

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import _require_bounded
from .errors import (
    NonSquareError,
    NotDiagonalizableError,
    ShapeMismatchError,
    SizeOverflowError,
)
from .exact import GaussianRational
from .polynomials import MultiPolynomial, graded_indices
from .symbol import (
    AffineSymbol,
    DEFAULT_TOL_UNIT,
    block_schur_of_symbol,
    sort_eigenvalues,
)
from .truncation import compose_polynomial

DEDUP_TOL = 1e-10
_COND_CAP = 1e8


def eigenvalues(A):
    """Eigenvalues sorted modulus-descending, ties argument-ascending."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected square matrix, got shape {A.shape}")
    return sort_eigenvalues(np.linalg.eigvals(A))


def eigenvalue_products(eigvals, max_degree):
    """All (gamma, prod_i lambda_i^{gamma_i}) with |gamma| <= max_degree,
    in graded-lex order, with multiplicity (no deduplication).

    Raises SizeOverflowError if a product leaves the range of a double.
    """
    eigvals = np.asarray(eigvals, dtype=complex)
    n = len(eigvals)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for g in graded_indices(n, max_degree):
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


@dataclass(frozen=True)
class SpectrumEnumeration:
    """Finite enumeration of the eigenvalue-product set.

    products pairs each retained multi-index with its value; values within
    DEDUP_TOL of an earlier one are dropped, keeping the graded-lex first
    representative.  closure_contains_zero records whether 0 is an
    accumulation point (some |lambda_i| < 1).  unimodular_angles_independent
    is the three-valued rational-independence verdict for the arguments of
    the unimodular eigenvalues together with pi.
    """

    eigenvalues: np.ndarray
    max_degree: int
    products: tuple
    closure_contains_zero: bool
    unimodular_angles_independent: str
    independence_detail: object = None


def enumerate_spectrum(
    symbol,
    max_degree,
    tol_unit=DEFAULT_TOL_UNIT,
    exact_angles=None,
):
    """Enumerate {lambda^gamma : |gamma| <= max_degree} with deduplication.

    exact_angles optionally tags eigenvalue arguments as exact rational
    multiples of pi, aligned with the sorted eigenvalue order (None per
    untagged slot); tags flow into the independence verdict.
    """
    from .dynamics import AngleSet, rational_independence

    ev = eigenvalues(symbol.A)
    full = eigenvalue_products(ev, max_degree)
    kept = np.empty(len(full), dtype=complex)
    reps = []
    # an overflowed difference is inf, so it never marks a duplicate
    with np.errstate(over="ignore", invalid="ignore"):
        for g, v in full:
            if not np.any(np.abs(kept[: len(reps)] - v) <= DEDUP_TOL):
                kept[len(reps)] = v
                reps.append((g, v))

    contains_zero = bool(np.any(np.abs(ev) < 1.0 - tol_unit))

    unim = [i for i in range(len(ev)) if abs(ev[i]) >= 1.0 - tol_unit]
    thetas = [float(np.angle(ev[i])) % (2 * np.pi) for i in unim]
    tags = None
    if exact_angles is not None:
        if len(exact_angles) != len(ev):
            raise ShapeMismatchError("exact_angles must align with the eigenvalues")
        tags = [exact_angles[i] for i in unim]
    angle_set = AngleSet.build(thetas, tags)
    verdict = rational_independence(angle_set)
    return SpectrumEnumeration(
        eigenvalues=ev,
        max_degree=max_degree,
        products=tuple(reps),
        closure_contains_zero=contains_zero,
        unimodular_angles_independent=verdict.independent,
        independence_detail=verdict,
    )


def multiset_distance(xs, ys):
    """Optimal-matching sup distance between equal-size complex multisets."""
    from scipy.optimize import linear_sum_assignment

    xs = np.asarray(xs, dtype=complex).reshape(-1)
    ys = np.asarray(ys, dtype=complex).reshape(-1)
    if xs.shape != ys.shape:
        raise ValueError(f"multiset sizes differ: {xs.shape} vs {ys.shape}")
    cost = np.abs(xs[:, None] - ys[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max()) if len(r) else 0.0


@dataclass(frozen=True)
class EigenfunctionSpec:
    """An explicit eigenfunction in the Schur coordinates z' = Uz.

    polynomial is F as a MultiPolynomial in n variables (w, v); composing
    it with normalized_symbol (psi(w, v) = (Dw, A1 v + B1)) reproduces
    eigenvalue * polynomial.  In exact mode polynomial carries Gaussian
    rational coefficients and eigenvalue_exact the exact eigenvalue.
    """

    beta: tuple
    gamma: tuple
    C: np.ndarray
    eigvecs_a1t: np.ndarray
    polynomial: MultiPolynomial
    eigenvalue: complex
    normalized_symbol: AffineSymbol
    eigenvalue_exact: Optional[GaussianRational] = None


def _matched_eig(A1):
    """Eigenpairs of A1^T matched to the diagonal order of A1.

    A1 is upper triangular, so its eigenvalues are the diagonal entries in
    their stored order; numpy returns them permuted, and each diagonal
    entry in turn claims the nearest unclaimed computed pair (the first
    one on a tie).
    """
    lam, V = np.linalg.eig(A1.T)
    if np.linalg.cond(V) > _COND_CAP:
        raise NotDiagonalizableError(
            "eigenvector basis of A1^T is numerically defective"
        )
    order = []
    for a in np.diag(A1):
        d = np.abs(lam - a)
        d[order] = np.inf
        order.append(int(np.argmin(d)))
    return lam[order], V[:, order]


def construct_eigenfunction(
    symbol, beta, gamma, tol_unit=DEFAULT_TOL_UNIT, exact=False
):
    """Build the eigenfunction for multi-indices (beta, gamma).

    beta runs over the s unimodular directions, gamma over the n - s
    contractive ones.  The eigenvalue is
    prod_j d_j^{beta_j} * prod_i lambda_i^{gamma_i}.

    exact mode is available when the symbol is already block triangular
    with U = I and A1 exactly diagonal; then C solves coordinatewise in
    rational arithmetic and the residual of verify_eigenfunction vanishes
    identically.

    Raises
    ------
    NotBoundedError
    NotDiagonalizableError
        If A1^T has a numerically defective eigenbasis.
    ShapeMismatchError
        If beta or gamma have the wrong length.
    ValueError
        If exact mode is asked for a symbol not in that form.
    """
    _require_bounded(
        symbol, tol_unit, "eigenfunctions are constructed for bounded symbols"
    )
    form = block_schur_of_symbol(symbol, tol_unit)
    n, s = symbol.n, form.s
    beta = tuple(int(b) for b in beta)
    gamma = tuple(int(g) for g in gamma)
    if len(beta) != s:
        raise ShapeMismatchError(f"beta must have length s={s}, got {len(beta)}")
    if len(gamma) != n - s:
        raise ShapeMismatchError(
            f"gamma must have length n-s={n - s}, got {len(gamma)}"
        )
    m = n - s
    A1 = form.A1
    B1 = form.Bprime[s:]
    psi = AffineSymbol(form.M, np.concatenate([np.zeros(s), B1]))

    if exact and not np.array_equal(form.U, np.eye(n)):
        raise ValueError("exact mode requires a symbol already in Schur form (U = I)")
    if exact and m and np.any(A1[~np.eye(m, dtype=bool)] != 0):
        raise ValueError("exact mode requires A1 exactly diagonal")

    if exact:
        # A1 diagonal: lambda_i = a_ii, V = I and C_i = b_i / (1 - a_ii)
        one = GaussianRational(1)
        D = [GaussianRational.from_complex(d) for d in form.D]
        lam = [GaussianRational.from_complex(a) for a in np.diag(A1)]
        C = [GaussianRational.from_complex(b) / (one - a) for a, b in zip(lam, B1)]
        V = np.eye(m, dtype=complex)
    else:
        one = 1.0 + 0.0j
        D = form.D
        if m:
            C = np.linalg.solve(np.eye(m) - A1, B1)
            lam, V = _matched_eig(A1)
        else:
            C = np.zeros(0, dtype=complex)
            lam = np.zeros(0, dtype=complex)
            V = np.zeros((0, 0), dtype=complex)

    poly = MultiPolynomial.constant(n, one, exact=exact)
    for j in range(s):
        if beta[j]:
            poly = poly * MultiPolynomial.variable(n, j, exact=exact) ** beta[j]
    for i in range(m):
        if gamma[i]:
            # the factor (v - C)^T v(i); zero coefficients are dropped
            terms = {}
            const = 0
            for j in range(m):
                vj = V[j, i]
                if vj != 0:
                    terms[tuple(1 if t == s + j else 0 for t in range(n))] = vj
                    const -= C[j] * vj
            terms[(0,) * n] = const
            poly = poly * MultiPolynomial(n, terms, exact=exact) ** gamma[i]

    eig = one
    for j in range(s):
        eig *= D[j] ** beta[j]
    for i in range(m):
        eig *= lam[i] ** gamma[i]

    return EigenfunctionSpec(
        beta=beta,
        gamma=gamma,
        C=np.array([complex(c) for c in C]) if exact else C,
        eigvecs_a1t=V,
        polynomial=poly,
        eigenvalue=complex(eig),
        normalized_symbol=psi,
        eigenvalue_exact=eig if exact else None,
    )


def verify_eigenfunction(spec, symbol=None, tol_unit=DEFAULT_TOL_UNIT):
    """Residual max-coefficient of F o psi - eigenvalue * F.

    With symbol given, the Schur normalization is recomputed from it;
    otherwise the one stored on the spec is used.  Exact-mode specs
    compose in rational arithmetic and return exactly 0.0 on success.
    """
    psi = spec.normalized_symbol
    if symbol is not None:
        form = block_schur_of_symbol(symbol, tol_unit)
        psi = AffineSymbol(
            form.M, np.concatenate([np.zeros(form.s), form.Bprime[form.s :]])
        )
    composed = compose_polynomial(spec.polynomial, psi)
    if spec.polynomial.exact:
        scale = spec.eigenvalue_exact
        if scale is None:
            scale = GaussianRational.from_complex(spec.eigenvalue)
        diff = composed - spec.polynomial.scale(scale)
    else:
        diff = composed - spec.polynomial.scale(spec.eigenvalue)
    return diff.max_abs_coefficient()
