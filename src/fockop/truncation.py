"""Exact truncation of C_phi to the span of monomials of degree <= N.

Composition with an affine map never raises total degree, so the span of
{z^gamma : |gamma| <= N} is invariant and the truncated matrix is the
genuine restriction of the operator, not a lossy compression: column
gamma holds the exact coordinates of C_phi e_gamma.  That makes these
matrices an independent oracle for every closed-form result in the
package.

Matrix convention, in the orthonormal basis e_gamma = z^gamma/||z^gamma||
with ||z^gamma||^2 = gamma! 2^{|gamma|}:

    M[beta, alpha] = c_{alpha beta} * sqrt(normSq(beta)/normSq(alpha))

where (A z + B)^alpha = sum_beta c_{alpha beta} z^beta.
"""

import os
import struct
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import AdjointNotGradedError, ShapeMismatchError, SizeOverflowError
from .exact import GaussianRational
from .polynomials import (
    MultiPolynomial,
    graded_dim,
    graded_indices,
    monomial_norm_sq_exact,
)
from .symbol import AffineSymbol, sort_eigenvalues

DEFAULT_DIM_CAP = 50_000
DIM_CAP_ENV = "FOCKOP_DIM_CAP"
BINARY_MAGIC = b"FOCKTRNC1"
# ||z^gamma||^2 = gamma! 2^|gamma| peaks at N! 2^N on degree N, and that
# exceeds the largest double from N = 151 on
_MAX_FLOAT_DEGREE = 150


def dimension_cap():
    """Effective basis-size cap: FOCKOP_DIM_CAP, else 50000."""
    env = os.environ.get(DIM_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{DIM_CAP_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_DIM_CAP


@dataclass(frozen=True)
class GradedBasis:
    """Monomial basis of degree <= max_degree in graded lexicographic order.

    Fields
    ------
    n, max_degree : int
    indices : tuple of multi-index tuples, graded-lex.
    norm_sq : float ndarray, ||z^gamma||^2 = gamma! 2^{|gamma|} per index.
    """

    n: int
    max_degree: int
    indices: tuple
    norm_sq: np.ndarray

    @property
    def dim(self):
        return len(self.indices)

    def position(self, gamma):
        return self._index_of[tuple(gamma)]

    def __contains__(self, gamma):
        return tuple(gamma) in self._index_of

    def degrees(self):
        """Total degree of each basis element, as an int array."""
        return np.array([sum(g) for g in self.indices])

    @property
    def _index_of(self):
        # built lazily; dataclass is frozen so stash via object.__setattr__
        cached = self.__dict__.get("_index_of_cache")
        if cached is None:
            cached = {g: i for i, g in enumerate(self.indices)}
            object.__setattr__(self, "_index_of_cache", cached)
        return cached


def build_basis(n, max_degree):
    """Construct the graded basis, enforcing the dimension cap.

    Raises
    ------
    SizeOverflowError
        If C(max_degree + n, n) exceeds the cap, or if the monomial norms
        do not fit a double (max_degree above 150).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    cap = dimension_cap()
    dim = graded_dim(n, max_degree)
    if dim > cap:
        raise SizeOverflowError(
            f"basis dimension {dim} exceeds cap {cap} (n={n}, N={max_degree})"
        )
    if max_degree > _MAX_FLOAT_DEGREE:
        raise SizeOverflowError(
            f"degree {max_degree} is too high: ||z^gamma||^2 = gamma! 2^|gamma| "
            f"overflows a double; the largest usable degree is {_MAX_FLOAT_DEGREE}"
        )
    indices = tuple(graded_indices(n, max_degree))
    norm_sq = np.array([float(monomial_norm_sq_exact(g)) for g in indices])
    return GradedBasis(n=n, max_degree=max_degree, indices=indices, norm_sq=norm_sq)


def _affine_forms(symbol, exact):
    """The coordinate polynomials l_i(z) = (Az + B)_i."""
    n = symbol.n
    forms = []
    for i in range(n):
        terms = {}
        for j in range(n):
            a = symbol.A[i, j]
            if a != 0:
                g = tuple(1 if t == j else 0 for t in range(n))
                terms[g] = GaussianRational.from_complex(a) if exact else complex(a)
        b = symbol.B[i]
        if b != 0:
            terms[(0,) * n] = GaussianRational.from_complex(b) if exact else complex(b)
        forms.append(MultiPolynomial(n, terms, exact=exact))
    return forms


def compose_polynomial(p, symbol):
    """p(phi(z)) for an affine symbol, in the mode of p.

    Powers of the affine forms are cached across terms, so the cost is one
    sparse multiply per distinct exponent rather than per term.  Exact
    polynomials compose with the symbol's entries converted losslessly.
    """
    if p.n != symbol.n:
        raise ShapeMismatchError("polynomial and symbol dimensions differ")
    forms = _affine_forms(symbol, p.exact)
    one = GaussianRational(1) if p.exact else 1.0
    # powers[i] holds l_i^0, l_i^1, ... grown on demand
    powers = [[MultiPolynomial.constant(p.n, one, exact=p.exact)] for _ in range(p.n)]

    def power(i, k):
        cache = powers[i]
        while len(cache) <= k:
            cache.append(cache[-1] * forms[i])
        return cache[k]

    out = MultiPolynomial.zero(p.n, exact=p.exact)
    for g, c in sorted(p.terms.items()):
        term = MultiPolynomial.constant(p.n, c, exact=p.exact)
        for i, gi in enumerate(g):
            if gi:
                term = term * power(i, gi)
        out = out + term
    return out


@dataclass(frozen=True)
class TruncatedOperator:
    """Matrix of C_phi on the degree <= N subspace.

    matrix is always the normalized complex128 matrix.  When built in
    exact mode, exact_columns[j] maps row index -> GaussianRational
    unnormalized coefficient c_{alpha beta}; the float matrix is then
    D^{1/2} C D^{-1/2} evaluated from those exact entries.
    """

    basis: GradedBasis
    matrix: np.ndarray
    symbol: object
    exact_columns: tuple = None

    @property
    def dim(self):
        return self.basis.dim

    def norm(self):
        """Operator 2-norm (largest singular value)."""
        return float(np.linalg.norm(self.matrix, 2))

    def singular_values(self):
        return np.linalg.svd(self.matrix, compute_uv=False)

    def spectrum(self):
        """Eigenvalues sorted modulus-descending, argument-ascending."""
        return sort_eigenvalues(np.linalg.eigvals(self.matrix))

    def column_norms_sq_by_degree(self):
        """sum over columns of each total degree of the squared column norm.

        Because columns are exact, entry d is exactly
        sum_{|alpha| = d} ||C_phi e_alpha||^2.
        """
        col_sq = np.sum(np.abs(self.matrix) ** 2, axis=0)
        degs = self.basis.degrees()
        out = np.zeros(self.basis.max_degree + 1)
        np.add.at(out, degs, col_sq)
        return out


def build_truncation(symbol, max_degree, exact=False):
    """Expand (Az + B)^alpha for every |alpha| <= N into the matrix of C_phi.

    Columns are generated along the graded order by one sparse multiply
    each: the polynomial for alpha is the polynomial for alpha - e_j times
    l_j, with j the first nonzero slot of alpha.  Only the previous degree
    shell is kept alive.

    Parameters
    ----------
    symbol : AffineSymbol
    max_degree : int
    exact : bool
        Also carry exact Gaussian-rational coefficients (input floats are
        dyadic rationals, so the conversion is lossless).
    """
    basis = build_basis(symbol.n, max_degree)
    n = symbol.n
    dim = basis.dim
    forms = _affine_forms(symbol, exact)
    matrix = np.zeros((dim, dim), dtype=complex)
    exact_cols = [None] * dim if exact else None
    sqrt_ns = np.sqrt(basis.norm_sq)

    one = GaussianRational(1) if exact else 1.0 + 0.0j
    unit = MultiPolynomial.constant(n, one, exact=exact)
    prev_shell = {(0,) * n: unit}
    col = 0

    def emit(j, poly):
        na = sqrt_ns[j]
        if exact:
            ex = {}
        for g, c in poly.terms.items():
            i = basis.position(g)
            matrix[i, j] = complex(c) * (sqrt_ns[i] / na)
            if exact:
                ex[i] = c
        if exact:
            exact_cols[j] = ex

    emit(0, unit)
    col = 1
    for d in range(1, max_degree + 1):
        shell = {}
        while col < dim and sum(basis.indices[col]) == d:
            alpha = basis.indices[col]
            j = next(i for i, ai in enumerate(alpha) if ai > 0)
            prev = tuple(ai - 1 if i == j else ai for i, ai in enumerate(alpha))
            poly = prev_shell[prev] * forms[j]
            shell[alpha] = poly
            emit(col, poly)
            col += 1
        prev_shell = shell

    return TruncatedOperator(
        basis=basis,
        matrix=matrix,
        symbol=symbol,
        exact_columns=tuple(exact_cols) if exact else None,
    )


def exact_matrix_as_double(op):
    """Rebuild the normalized matrix from the exact columns.

    Returns D^{1/2} C D^{-1/2} with C the exact coefficient matrix; used
    to certify that double-mode expansion arithmetic agrees with the
    rational route.
    """
    if op.exact_columns is None:
        raise ValueError("operator was not built in exact mode")
    dim = op.dim
    out = np.zeros((dim, dim), dtype=complex)
    sqrt_ns = np.sqrt(op.basis.norm_sq)
    for j, colmap in enumerate(op.exact_columns):
        for i, c in colmap.items():
            out[i, j] = complex(c) * (sqrt_ns[i] / sqrt_ns[j])
    return out


def kernel_series_polynomial(w, max_degree, exact=False):
    """Degree <= N Taylor polynomial of K_w(z) = exp(<z, w>/2).

    The coefficient of z^gamma is conj(w)^gamma / (2^{|gamma|} gamma!).
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    n = w.shape[0]
    if exact:
        wbar = [GaussianRational.from_complex(wi).conjugate() for wi in w]
    else:
        wbar = np.conj(w)
    terms = {}
    for g in graded_indices(n, max_degree):
        c = GaussianRational(1) if exact else 1.0 + 0.0j
        for wi, gi in zip(wbar, g):
            if gi:
                c = c * wi**gi
        denom = monomial_norm_sq_exact(g)  # gamma! 2^{|gamma|}
        terms[g] = c / denom if not exact else c / GaussianRational(denom)
    return MultiPolynomial(n, terms, exact=exact)


def build_adjoint_truncation(symbol, max_degree):
    """Matrix of C_phi* on the same basis via the factorization
    C_phi* = M_{K_B} C_tau with tau(z) = A* z.

    Multiplication by K_B leaves the graded subspace only through terms of
    degree > N, which cannot reach rows of degree <= N, so truncating the
    kernel series at N is exact.  The result must equal the conjugate
    transpose of build_truncation(symbol, N).matrix; the two routes share
    no code path, which is the point.
    """
    basis = build_basis(symbol.n, max_degree)
    n = symbol.n
    dim = basis.dim
    Astar = symbol.A.conj().T
    kernel = kernel_series_polynomial(symbol.B, max_degree)
    sqrt_ns = np.sqrt(basis.norm_sq)
    out = np.zeros((dim, dim), dtype=complex)
    tau = AffineSymbol(Astar, np.zeros(n))
    for j, alpha in enumerate(basis.indices):
        mono = MultiPolynomial(n, {alpha: 1.0})
        q = (kernel * compose_polynomial(mono, tau)).truncate(max_degree)
        for g, c in q.terms.items():
            i = basis.position(g)
            out[i, j] = c * (sqrt_ns[i] / sqrt_ns[j])
    return TruncatedOperator(basis=basis, matrix=out, symbol=symbol)


def truncated_norm(symbol, max_degree):
    """||P_N C_phi P_N||, nondecreasing in N and <= ||C_phi|| when bounded."""
    return build_truncation(symbol, max_degree).norm()


def truncated_spectrum(symbol, max_degree):
    return build_truncation(symbol, max_degree).spectrum()


def truncated_singular_values(symbol, max_degree):
    return build_truncation(symbol, max_degree).singular_values()


def truncated_commutator_norm(symbol, max_degree):
    """Frobenius norm of M*M - MM* for the truncation M.

    Only meaningful for B = 0: then the subspace is invariant under both
    C_phi and its adjoint, so the compression of the commutator is the
    commutator of the compressions.  For B != 0 the multiplier part of the
    adjoint leaks outside every graded subspace.

    Raises
    ------
    AdjointNotGradedError
        If any entry of B is nonzero.
    """
    if np.any(symbol.B != 0):
        raise AdjointNotGradedError("commutator oracle requires B = 0")
    M = build_truncation(symbol, max_degree).matrix
    H = M.conj().T
    return float(np.linalg.norm(H @ M - M @ H))


def dump_csv(op, path):
    """Write all entries as rows of `row,col,re,im`, row-major, 17 digits."""
    dim = op.dim
    M = op.matrix
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("row,col,re,im\n")
        for i in range(dim):
            for j in range(dim):
                z = M[i, j]
                fh.write(f"{i},{j},{z.real:.17g},{z.imag:.17g}\n")


def dump_binary(op, path):
    """Write magic FOCKTRNC1, u32 little-endian dim, then dim^2 complex
    entries as little-endian float64 (re, im) pairs, row-major."""
    M = np.ascontiguousarray(op.matrix.astype("<c16"))
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", op.dim))
        fh.write(M.tobytes(order="C"))


def load_binary(path):
    """Read a matrix written by dump_binary; returns (dim, complex ndarray)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(BINARY_MAGIC))
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        (dim,) = struct.unpack("<I", fh.read(4))
        data = fh.read(16 * dim * dim)
        if len(data) != 16 * dim * dim:
            raise ValueError("truncated payload")
        M = np.frombuffer(data, dtype="<c16").reshape(dim, dim).astype(complex)
    return dim, M
