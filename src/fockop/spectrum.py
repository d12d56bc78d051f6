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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import _require_bounded
from .dynamics import DEFAULT_MAX_COEFF, _angle_verdict
from .errors import NotDiagonalizableError, ShapeMismatchError, SizeOverflowError
from .exact import GaussianRational
from .polynomials import MultiPolynomial
from .symbol import (
    AffineSymbol,
    DEFAULT_TOL_UNIT,
    _block_schur,
    _eigenvalues_of,
    _nonnegative_int,
    _unimodular,
    per_symbol,
)
from .truncation import build_basis, build_truncation, eigenfunction_residual

DEDUP_TOL = 1e-10
_DEDUP_BLOCK = 64
_COND_CAP = 1e8


def eigenvalue_products(eigvals, max_degree):
    """All (gamma, prod_i lambda_i^{gamma_i}) with |gamma| <= max_degree,
    in graded-lex order, with multiplicity (no deduplication).

    The bits of each value are those of the scalar loop
    v = 1; v *= lambda_i**gamma_i for i ascending with gamma_i != 0.
    The powers come from one table per eigenvalue, filled with the scalar
    expression lam**k on an np.complex128.  The products run over the whole
    index array in real arithmetic, re = vr*pr - vi*pi and
    im = vr*pi + vi*pr, which is the scalar complex product.  numpy's
    vectorized complex * and np.power are not used: on arrays they may
    round differently from the scalar forms.

    Raises
    ------
    SizeOverflowError
        As build_basis does, before any index is generated; or at the first
        multi-index in graded order whose product leaves the range of a
        double.
    """
    basis = build_basis(len(eigvals), max_degree)
    return list(zip(basis.indices, _products(eigvals, basis).tolist()))


def _products(eigvals, basis):
    """eigenvalue_products' values on a GradedBasis, as a complex array."""
    eigvals = np.asarray(eigvals, dtype=complex)
    P, N = basis.dim, basis.max_degree
    G = basis.exponents
    vr, vi = np.ones(P), np.zeros(P)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, lam in enumerate(eigvals):
            table = np.array([1.0] + [lam**k for k in range(1, N + 1)])
            k = G[:, i]
            pr, pi = table.real[k], table.imag[k]
            # skipped, not multiplied by 1 + 0j, which can flip a signed zero
            use = k != 0
            vr, vi = (
                np.where(use, vr * pr - vi * pi, vr),
                np.where(use, vr * pi + vi * pr, vi),
            )
        bad = ~(np.isfinite(vr) & np.isfinite(vi))
    if bad.any():
        g = basis.indices[int(np.argmax(bad))]
        raise SizeOverflowError(
            f"eigenvalue product at multi-index {g} exceeds the double range"
        )
    values = np.empty(P, dtype=complex)
    values.real, values.imag = vr, vi
    return values


def _dedup_mask(values):
    """Which values survive the sequential rule: keep v unless it lies
    within DEDUP_TOL of a value kept before it.

    A value with no other value within DEDUP_TOL is always kept and never
    drops another, so only the crowded values go through the rule, in
    their order (_sequential_mask).  A value is taken as crowded when some
    other value lies within 2 DEDUP_TOL of it in the real part and some
    other value in the imaginary part.  The factor 2 absorbs the rounding
    of the difference, so every pair the rule finds close is crowded, and
    the mask is that of the rule on all the values.
    """
    keep = np.ones(len(values), dtype=bool)
    crowded = _has_neighbour(values.real) & _has_neighbour(values.imag)
    if crowded.any():
        keep[crowded] = _sequential_mask(values[crowded])
    return keep


def _has_neighbour(x):
    """Whether some other entry of the real array x lies within
    2 DEDUP_TOL of each entry.  In sorted order the nearest entries are
    adjacent, and a gap is rounded no larger than a wider difference."""
    order = np.argsort(x)
    # an overflowed gap is inf, so it never marks a neighbour
    with np.errstate(over="ignore", invalid="ignore"):
        close = np.diff(x[order]) <= 2 * DEDUP_TOL
    near = np.zeros(len(x), dtype=bool)
    near[order[:-1]] = close
    near[order[1:]] |= close
    return near


def _sequential_mask(values):
    """_dedup_mask's rule on every value, one after another.

    The rule is not transitive, so it runs in blocks of _DEDUP_BLOCK in
    order.  A block first drops every row close to a value kept in earlier
    blocks, in one comparison.  Among the rows left, a row with no earlier
    close row is kept, and a row whose first earlier close row is kept is
    dropped; only the others are checked, in order, against the kept rows
    before them.
    """
    keep = np.zeros(len(values), dtype=bool)
    kept = np.empty(len(values), dtype=complex)
    nkept = 0
    lower = np.tri(_DEDUP_BLOCK, k=-1, dtype=bool)
    # an overflowed difference is inf, so it never marks a duplicate
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(values), _DEDUP_BLOCK):
            x = values[start : start + _DEDUP_BLOCK]
            m = len(x)
            near_kept = np.abs(kept[None, :nkept] - x[:, None]) <= DEDUP_TOL
            live = ~near_kept.any(axis=1)
            # close[j, l]: live rows l < j within DEDUP_TOL of each other
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


@dataclass(frozen=True, eq=False)
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


def enumerate_spectrum(
    symbol,
    max_degree,
    tol_unit=DEFAULT_TOL_UNIT,
    exact_angles=None,
):
    """Enumerate {lambda^gamma : |gamma| <= max_degree} with deduplication.

    The values carry the bits of eigenvalue_products: a scalar power table
    lam**k per eigenvalue, multiplied in real arithmetic
    (re = vr*pr - vi*pi, im = vr*pi + vi*pr), because numpy's vectorized
    complex * may round differently from the scalar product.  A value is
    kept unless it lies within DEDUP_TOL of a value kept before it in
    graded order; only values with a neighbour are compared (_dedup_mask),
    which keeps exactly that set.  The eigenvalues are those the symbol
    remembers, a read-only array.

    Raises SizeOverflowError as eigenvalue_products does.

    exact_angles optionally tags eigenvalue arguments as exact rational
    multiples of pi, aligned with the sorted eigenvalue order (None per
    untagged slot); tags flow into the independence verdict.
    """
    ev = _eigenvalues_of(symbol)
    basis = build_basis(symbol.n, max_degree)
    values = _products(ev, basis)
    keep = _dedup_mask(values)
    indices = [basis.indices[i] for i in np.flatnonzero(keep)]
    reps = list(zip(indices, values[keep].tolist()))
    verdict, _ = _angle_verdict(symbol, tol_unit, DEFAULT_MAX_COEFF, exact_angles)
    return SpectrumEnumeration(
        eigenvalues=ev,
        max_degree=max_degree,
        products=tuple(reps),
        closure_contains_zero=not _unimodular(ev, tol_unit)[1].all(),
        unimodular_angles_independent=verdict.independent,
    )


def multiset_distance(xs, ys):
    """Bottleneck distance between equal-size complex multisets: the least
    t such that some bijection moves every x to within t of its partner.

    The answer is one of the pairwise distances |x_i - y_j|, so it is
    never above the largest distance of any one bijection, the sum-optimal
    one included.  The greedy matching (each x in turn takes its nearest
    free y) bounds it from above, and the largest nearest-neighbour
    distance, taken both ways, from below.  The distinct distances between
    the two bounds are binary-searched, each tested for a perfect matching
    by augmenting paths (Gabow and Tarjan, J. Algorithms 9, 1988).  An
    overflowed distance is inf.  Empty inputs give 0.0.

    Raises ValueError if the sizes differ or a distance is nan.
    """
    xs = np.asarray(xs, dtype=complex).reshape(-1)
    ys = np.asarray(ys, dtype=complex).reshape(-1)
    if xs.shape != ys.shape:
        raise ValueError(f"multiset sizes differ: {xs.shape} vs {ys.shape}")
    if not len(xs):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        cost = np.abs(xs[:, None] - ys[None, :])
    if np.isnan(cost).any():
        raise ValueError("multiset distance of nan values")
    match = np.empty(len(xs), dtype=np.intp)
    free = np.ones(len(ys), dtype=bool)
    for i, row in enumerate(cost):
        cols = np.flatnonzero(free)
        match[i] = cols[np.argmin(row[cols])]
        free[match[i]] = False
    lo = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    hi = cost[np.arange(len(xs)), match].max()
    candidates = np.unique(cost[(cost >= lo) & (cost <= hi)])
    # the perfect matching match keeps every distance within candidates[top]
    bottom, top = 0, len(candidates) - 1
    while bottom < top:
        mid = (bottom + top) // 2
        found = _perfect_matching(cost <= candidates[mid], match)
        if found is None:
            bottom = mid + 1
        else:
            top, match = mid, found
    return float(candidates[top])


def _perfect_matching(adj, start):
    """A perfect matching of the square bipartite graph adj (adj[i, j]:
    row i may take column j) as the column of each row, or None.

    The pairs of the row-to-column bijection start that are edges of adj
    are kept.  Each other row is matched by one augmenting path, found by
    a breadth-first search over alternating paths a whole level at a time
    and flipped in a loop, so a path of any length is found without
    recursion.  A row with no augmenting path means there is no perfect
    matching.
    """
    n = len(adj)
    kept = adj[np.arange(n), start]
    col_of = np.where(kept, start, -1)
    row_of = np.full(n, -1, dtype=np.intp)
    row_of[start[kept]] = np.flatnonzero(kept)
    for r in np.flatnonzero(~kept):
        parent = np.full(n, -1, dtype=np.intp)  # the row that reached a column
        frontier = np.array([r])
        end = -1
        while end < 0:
            reach = adj[frontier] & (parent < 0)
            hit = np.flatnonzero(reach.any(axis=0))
            if not hit.size:
                return None
            parent[hit] = frontier[reach[:, hit].argmax(axis=0)]
            unmatched = hit[row_of[hit] < 0]
            if unmatched.size:
                end = unmatched[0]
            frontier = row_of[hit]
        while end >= 0:
            i = parent[end]
            before = col_of[i]  # -1 once the path is back at r
            col_of[i], row_of[end] = end, i
            end = before
    return col_of


def shell_spectrum_distance(symbol, max_degree):
    """The largest multiset_distance, over the degree shells d <= max_degree,
    between the products lambda^gamma with |gamma| = d and the eigenvalues
    of the truncation's shell-d block.

    The truncation is block triangular over the shells (block diagonal when
    B = 0), and shell d's block has exactly the shell-d products as its
    eigenvalues, so each shell is matched on its own.

    Raises SizeOverflowError as eigenvalue_products and build_truncation do.
    """
    op = build_truncation(symbol, max_degree)
    values = _products(_eigenvalues_of(symbol), op.basis)
    return max(
        multiset_distance(values[op.basis.shell(d)], np.linalg.eigvals(block))
        for d, block in enumerate(op.shell_blocks())
    )


@dataclass(frozen=True, eq=False)
class EigenfunctionSpec:
    """An explicit eigenfunction in the Schur coordinates z' = Uz.

    polynomial is F as a MultiPolynomial in n variables (w, v); composing
    it with normalized_symbol (psi(w, v) = (Dw, A1 v + B1)) reproduces
    eigenvalue * polynomial, which verify_eigenfunction checks from
    polynomial.terms alone.  In exact mode polynomial carries Gaussian
    rational coefficients and eigenvalue_exact the exact eigenvalue.

    C and normalized_symbol are what the symbol remembers (see
    symbol.per_symbol): every spec of one symbol and tolerance shares them,
    and their arrays are read-only.
    """

    beta: tuple
    gamma: tuple
    C: np.ndarray
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


@per_symbol
def _contractive_frame(symbol, tol_unit):
    """(C, lam, V) of the contractive block, computed once per symbol and
    tolerance (see per_symbol): C = (I - A1)^{-1} B1 and the eigenpairs of
    A1^T from _matched_eig, as read-only arrays.  A defective A1 raises
    NotDiagonalizableError on every call."""
    form = _block_schur(symbol, tol_unit)
    m = symbol.n - form.s
    if not m:
        empty = np.zeros(0, dtype=complex)
        return empty, empty, empty.reshape(0, 0)
    C = np.linalg.solve(np.eye(m) - form.A1, form.Bprime[form.s :])
    return (C, *_matched_eig(form.A1))


def _normalized_symbol(form):
    """psi(w, v) = (Dw, A1 v + B1): the symbol in Schur coordinates, with
    the unimodular part of Bprime dropped."""
    B = np.concatenate([np.zeros(form.s), form.Bprime[form.s :]])
    return AffineSymbol(form.M, B)


@per_symbol
def _psi(symbol, tol_unit):
    """_normalized_symbol of the block Schur form the symbol remembers,
    built once per symbol and tolerance (see per_symbol)."""
    return _normalized_symbol(_block_schur(symbol, tol_unit))


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
        If an entry of beta or gamma is not an integer >= 0, or exact mode
        is asked for a symbol not in that form.
    """
    _require_bounded(
        symbol, tol_unit, "eigenfunctions are constructed for bounded symbols"
    )
    form = _block_schur(symbol, tol_unit)
    n, s = symbol.n, form.s
    beta = tuple(_nonnegative_int(b, "an entry of beta") for b in beta)
    gamma = tuple(_nonnegative_int(g, "an entry of gamma") for g in gamma)
    if len(beta) != s:
        raise ShapeMismatchError(f"beta must have length s={s}, got {len(beta)}")
    if len(gamma) != n - s:
        raise ShapeMismatchError(
            f"gamma must have length n-s={n - s}, got {len(gamma)}"
        )
    m = n - s
    A1 = form.A1
    B1 = form.Bprime[s:]

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
        C, lam, V = _contractive_frame(symbol, tol_unit)

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
        polynomial=poly,
        eigenvalue=complex(eig),
        normalized_symbol=_psi(symbol, tol_unit),
        eigenvalue_exact=eig if exact else None,
    )


def verify_eigenfunction(spec, symbol=None, tol_unit=DEFAULT_TOL_UNIT):
    """Residual max|C f - eigenvalue f| of F o psi = eigenvalue F, with f
    the coefficients of F and C the coefficient matrix of C_psi on the
    monomials of degree <= deg F, from truncation.eigenfunction_residual.
    Exact-mode specs are checked in exact arithmetic and return exactly
    0.0 on success.

    With symbol given, the Schur normalization psi is the one the symbol
    remembers for tol_unit; otherwise the one stored on the spec is used.

    Raises ShapeMismatchError if psi and F differ in dimension, and
    SizeOverflowError as eigenfunction_residual does: past the dimension
    cap or physical memory (before anything is built), or if a residual
    entry leaves the double range.
    """
    poly = spec.polynomial
    psi = spec.normalized_symbol if symbol is None else _psi(symbol, tol_unit)
    if psi.n != poly.n:
        raise ShapeMismatchError("polynomial and symbol dimensions differ")
    lam = spec.eigenvalue
    if poly.exact:
        lam = spec.eigenvalue_exact
        if lam is None:
            lam = GaussianRational.from_complex(spec.eigenvalue)
    return eigenfunction_residual(psi, poly.terms, lam, poly.exact)
