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

The double-precision matrix never forms those norms.  In the basis e_gamma,
multiplication by z_k is Bargmann's creation operator
Z_k e_g = sqrt(2(g_k+1)) e_{g+e_k} (Bargmann 1961, Comm. Pure Appl. Math.
14), and C_phi z^alpha = l_j C_phi z^{alpha-e_j} with l_j = (Az + B)_j, so

    M[:, alpha] = L_j M[:, alpha - e_j] / sqrt(2 alpha_j),
    L_j = sum_k A_jk Z_k + B_j I,

with j the first nonzero slot of alpha.  M is block upper triangular in
the degree shells, and block diagonal when B = 0, so its eigenvalues, and
for B = 0 its singular values, are those of the shell blocks.  Exact mode
and build_adjoint_truncation are the oracles for this recursion and share
no code with it; they go through the norms, which fit a double only up to
degree 150.
"""

import bisect
import math
import operator
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    AdjointNotGradedError,
    ParseError,
    ShapeMismatchError,
    SizeOverflowError,
)
from .exact import GaussianRational
from .polynomials import (
    MultiPolynomial,
    graded_dim,
    graded_indices,
    monomial_norm_sq_exact,
)
from .symbol import adjoint_symbol, sort_eigenvalues

DEFAULT_DIM_CAP = 50_000
DIM_CAP_ENV = "FOCKOP_DIM_CAP"
BINARY_MAGIC = b"FOCKTRNC1"
# ||z^gamma||^2 = gamma! 2^|gamma| peaks at N! 2^N on degree N, and that
# exceeds the largest double from N = 151 on
_MAX_FLOAT_DEGREE = 150


def dimension_cap():
    """Effective basis-size cap: FOCKOP_DIM_CAP, else 50000.

    Raises ParseError unless the variable holds an integer >= 1.
    """
    env = os.environ.get(DIM_CAP_ENV)
    if env is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParseError(f"{DIM_CAP_ENV} must be an integer >= 1, got {env!r}")
    return cap


@dataclass(frozen=True)
class GradedBasis:
    """Monomial basis of degree <= max_degree in graded lexicographic order.

    Fields
    ------
    n, max_degree : int
    indices : tuple of multi-index tuples, graded-lex.
    """

    n: int
    max_degree: int
    indices: tuple

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

    def shell(self, d):
        """Slice of the positions of degree exactly d."""
        return slice(graded_dim(self.n, d - 1), graded_dim(self.n, d))

    @cached_property
    def norm_sq(self):
        """||z^gamma||^2 = gamma! 2^{|gamma|} per index, as doubles.

        Raises SizeOverflowError above degree 150, where the norms leave
        the double range.
        """
        if self.max_degree > _MAX_FLOAT_DEGREE:
            raise SizeOverflowError(
                f"degree {self.max_degree} is too high for the monomial norms: "
                f"||z^gamma||^2 = gamma! 2^|gamma| overflows a double; the exact "
                f"and adjoint routes and the orbit experiment stop at degree "
                f"{_MAX_FLOAT_DEGREE}"
            )
        return np.array([float(monomial_norm_sq_exact(g)) for g in self.indices])

    @cached_property
    def _index_of(self):
        return {g: i for i, g in enumerate(self.indices)}


def build_basis(n, max_degree):
    """Construct the graded basis, enforcing the dimension cap.

    Raises
    ------
    SizeOverflowError
        If C(max_degree + n, n) exceeds the cap.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    cap = dimension_cap()
    dim = graded_dim(n, max_degree)
    if dim > cap:
        raise SizeOverflowError(
            f"basis dimension {dim} exceeds cap {cap} (n={n}, N={max_degree})"
        )
    return GradedBasis(n=n, max_degree=max_degree, indices=tuple(graded_indices(n, max_degree)))


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

    The matrix is block triangular in the degree shells (upper for C_phi,
    lower for the adjoint route), and block diagonal when symbol.B = 0;
    the solves below use that structure.
    """

    basis: GradedBasis
    matrix: np.ndarray
    symbol: object
    exact_columns: tuple = None

    @property
    def dim(self):
        return self.basis.dim

    def shell_blocks(self):
        """The diagonal blocks of the degree shells 0..N."""
        shells = [self.basis.shell(d) for d in range(self.basis.max_degree + 1)]
        return [self.matrix[s, s] for s in shells]

    def norm(self):
        """Operator 2-norm (largest singular value)."""
        return float(self.singular_values()[0])

    def singular_values(self):
        """Descending; from the shell blocks when B = 0, where M is block
        diagonal, and from the whole matrix otherwise."""
        if np.any(self.symbol.B):
            return np.linalg.svd(self.matrix, compute_uv=False)
        blocks = [np.linalg.svd(b, compute_uv=False) for b in self.shell_blocks()]
        return np.sort(np.concatenate(blocks))[::-1]

    def spectrum(self):
        """Eigenvalues of the shell blocks, sorted modulus-descending,
        argument-ascending."""
        blocks = [np.linalg.eigvals(b) for b in self.shell_blocks()]
        return sort_eigenvalues(np.concatenate(blocks))

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


def _creation_maps(basis):
    """dst[k, i] = position of g_i + e_k and w[k, i] = sqrt(2 (g_k + 1)),
    for the basis elements g_i of degree < N."""
    rows = graded_dim(basis.n, basis.max_degree - 1)
    low = basis.indices[:rows]
    pos = basis._index_of
    dst = np.array(
        [[pos[g[:k] + (g[k] + 1,) + g[k + 1 :]] for g in low] for k in range(basis.n)],
        dtype=np.intp,
    ).reshape(basis.n, rows)
    G = np.array(low, dtype=float).reshape(rows, basis.n)
    return dst, np.sqrt(2.0 * (G.T + 1.0))


def _creation_matrix(symbol, basis):
    """The normalized matrix, one degree shell at a time by the creation
    recursion of the module docstring.

    Within shell d the columns whose first nonzero slot is j are
    contiguous, and their parents alpha - e_j are the first columns of
    shell d - 1, in the same order.  So each (d, j) is one gather of the
    parent columns, one scaled scatter per nonzero A_jk, and a division
    by the real sqrt(2 alpha_j), applied to the real and imaginary parts
    separately so that exact entries stay exact.
    """
    n, A, B = basis.n, symbol.A, symbol.B
    dst, w = _creation_maps(basis)
    M = np.zeros((basis.dim, basis.dim), dtype=complex)
    M[0, 0] = 1.0
    b_zero = not np.any(B)
    for d in range(1, basis.max_degree + 1):
        parent, shell = basis.shell(d - 1), basis.shell(d)
        # parent columns have entries only in rows of degree < d, and with
        # B = 0 only in shell d - 1, whose images lie in shell d alone
        rows = slice(parent.start if b_zero else 0, parent.stop)
        top = shell.start if b_zero else 0
        for j in range(n):
            cols = slice(parent.start, parent.start + math.comb(d + n - 2 - j, n - 1 - j))
            P = M[rows, cols]
            kids = dst[j, cols]
            X = M[top : shell.stop, kids[0] : kids[-1] + 1]
            if B[j] != 0:
                X[rows.start - top : rows.stop - top] += B[j] * P
            for k in range(n):
                if A[j, k] != 0:
                    X[dst[k, rows] - top] += (A[j, k] * w[k, rows])[:, None] * P
            X.real /= w[j, cols]
            X.imag /= w[j, cols]
    return M


def _exact_columns(symbol, basis):
    """Exact coefficients of (Az + B)^alpha, one {row: GaussianRational}
    map per column.

    Every double is a dyadic rational, so 2^s A and 2^s B are Gaussian
    integers once 2^s is the largest denominator among the real and
    imaginary parts.  The expansion runs in those integers, as (re, im)
    pairs of Python ints, so no operation pays a gcd: the polynomial for
    alpha is the polynomial for alpha - e_j times 2^s l_j, with j the first
    nonzero slot of alpha, and only the previous degree shell is kept
    alive.  Each coefficient is divided by 2^{s|alpha|} once, at the end.
    """
    n, A, B = symbol.n, symbol.A, symbol.B
    s = max(
        float(x).as_integer_ratio()[1].bit_length() - 1
        for z in (*A.ravel(), *B)
        for x in (z.real, z.imag)
    )

    def scaled(z):
        """2^s z as a pair of ints."""
        return tuple(
            num << (s - den.bit_length() + 1)
            for num, den in (float(x).as_integer_ratio() for x in (z.real, z.imag))
        )

    # forms[j] lists (k, re, im) for the nonzero terms of 2^s l_j, with
    # k = None for the constant term
    forms = []
    for j in range(n):
        row = [(k, *scaled(A[j, k])) for k in range(n)] + [(None, *scaled(B[j]))]
        forms.append([t for t in row if t[1] or t[2]])
    pos = basis._index_of
    zero = (0,) * n
    prev_shell = {zero: {zero: (1, 0)}}
    cols = [{0: GaussianRational(1)}]
    for d in range(1, basis.max_degree + 1):
        den = 1 << (s * d)
        shell = {}
        for alpha in basis.indices[basis.shell(d)]:
            j = next(i for i, ai in enumerate(alpha) if ai > 0)
            parent = prev_shell[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]
            poly = {}
            for g, (cr, ci) in parent.items():
                for k, ar, ai in forms[j]:
                    h = g if k is None else g[:k] + (g[k] + 1,) + g[k + 1 :]
                    qr, qi = poly.get(h, (0, 0))
                    poly[h] = (qr + cr * ar - ci * ai, qi + cr * ai + ci * ar)
            poly = {h: c for h, c in poly.items() if c != (0, 0)}
            shell[alpha] = poly
            cols.append(
                {
                    pos[h]: GaussianRational(Fraction(re, den), Fraction(im, den))
                    for h, (re, im) in poly.items()
                }
            )
        prev_shell = shell
    return tuple(cols)


def _matrix_from_exact(sqrt_ns, columns):
    """D^{1/2} C D^{-1/2} from the exact coefficient columns C, with
    sqrt_ns the diagonal of D^{1/2}."""
    out = np.zeros((len(columns), len(columns)), dtype=complex)
    for j, colmap in enumerate(columns):
        for i, c in colmap.items():
            out[i, j] = complex(c) * (sqrt_ns[i] / sqrt_ns[j])
    return out


def build_truncation(symbol, max_degree, exact=False):
    """The matrix of C_phi on the monomials of degree <= N.

    Parameters
    ----------
    symbol : AffineSymbol
    max_degree : int
    exact : bool
        Expand (Az + B)^alpha exactly, in Gaussian integers scaled by a
        power of two, instead of the creation recursion (input floats are
        dyadic rationals, so the conversion is lossless), keep the
        coefficients as GaussianRational, and evaluate the matrix from
        them.  Limited to degree <= 150.

    Raises SizeOverflowError if an entry leaves the range of a double.
    """
    basis = build_basis(symbol.n, max_degree)
    exact_cols = None
    if exact:
        sqrt_ns = np.sqrt(basis.norm_sq)  # raises above degree 150
        exact_cols = _exact_columns(symbol, basis)
        matrix = _matrix_from_exact(sqrt_ns, exact_cols)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = _creation_matrix(symbol, basis)
    if not np.isfinite(matrix).all():
        raise SizeOverflowError(
            f"a degree-{max_degree} truncation entry exceeds the double range"
        )
    return TruncatedOperator(
        basis=basis, matrix=matrix, symbol=symbol, exact_columns=exact_cols
    )


def exact_matrix_as_double(op):
    """A copy of the normalized matrix D^{1/2} C D^{-1/2} of an exact-mode
    operator, C its exact coefficient matrix.

    build_truncation(..., exact=True) already converted the exact columns
    into op.matrix, so the copy has the same bits.  The function stays
    because perfbench's `exact` job calls it.
    """
    if op.exact_columns is None:
        raise ValueError("operator was not built in exact mode")
    return op.matrix.copy()


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
    C_phi* = M_{K_B} C_tau, with tau(z) = A* z from symbol.adjoint_symbol.

    This is the identity C_phi = C_{Az} exp(B . d) transposed: Bargmann's
    annihilation operators d_k have adjoints d_k* = z_k / 2, so
    (C_{Az} exp(B . d))* = M_{K_B} C_{A* z} with K_B(z) = exp(<z, B>/2).

    Column alpha is built shell by shell: the homogeneous C_tau z^alpha is
    its parent C_tau z^{alpha - e_j} times tau_j(z) = (A* z)_j, with j the
    first nonzero slot of alpha.  It is then multiplied by the kernel
    series cut at degree N - |alpha|; the higher kernel terms land only in
    rows of degree > N, so the cut is exact.  The result must equal the
    conjugate transpose of build_truncation(symbol, N).matrix.  It shares
    no code with the creation recursion there, and exact mode stays the
    independent certificate in rational arithmetic: these two routes are
    that recursion's oracles.  Limited to degree <= 150.
    """
    basis = build_basis(symbol.n, max_degree)
    sqrt_ns = np.sqrt(basis.norm_sq)
    n, N = symbol.n, max_degree
    tau, weight = adjoint_symbol(symbol)
    forms = [[(k, complex(a)) for k, a in enumerate(row) if a != 0] for row in tau.A]
    # the series lists its terms in graded order, so each cut is a prefix
    kernel = list(kernel_series_polynomial(weight, N).terms.items())
    kernel_degrees = [sum(g) for g, _ in kernel]
    pos = basis._index_of
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    # shell maps each alpha of degree d to C_tau z^alpha as {gamma: coefficient}
    zero = (0,) * n
    shell = {zero: {zero: 1.0}}
    for d in range(N + 1):
        if d:
            prev_shell, shell = shell, {}
            for alpha in basis.indices[basis.shell(d)]:
                j = next(i for i, ai in enumerate(alpha) if ai > 0)
                parent = prev_shell[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]
                h = shell[alpha] = {}
                for g, c in parent.items():
                    for k, a in forms[j]:
                        gk = g[:k] + (g[k] + 1,) + g[k + 1 :]
                        h[gk] = h.get(gk, 0) + c * a
        cut = kernel[: bisect.bisect_right(kernel_degrees, N - d)]
        for alpha, h in shell.items():
            q = {}
            for g, c in h.items():
                for gam, kc in cut:
                    t = tuple(map(operator.add, g, gam))
                    q[t] = q.get(t, 0) + c * kc
            col = pos[alpha]
            for t, c in q.items():
                out[pos[t], col] = c
    out *= sqrt_ns[:, None] / sqrt_ns[None, :]
    return TruncatedOperator(basis=basis, matrix=out, symbol=symbol)


def truncated_norm(symbol, max_degree):
    """||P_N C_phi P_N||, nondecreasing in N and <= ||C_phi|| when bounded."""
    return build_truncation(symbol, max_degree).norm()


def truncated_spectrum(symbol, max_degree):
    return build_truncation(symbol, max_degree).spectrum()


def truncated_commutator_norm(symbol, max_degree):
    """Frobenius norm of M*M - MM* for the truncation M.

    Only meaningful for B = 0: then the subspace is invariant under both
    C_phi and its adjoint, so the compression of the commutator is the
    commutator of the compressions.  For B != 0 the multiplier part of the
    adjoint leaks outside every graded subspace.  M is then block diagonal,
    so the norm is sqrt(sum_d ||M_d* M_d - M_d M_d*||_F^2) over its shell
    blocks M_d.

    Raises
    ------
    AdjointNotGradedError
        If any entry of B is nonzero.
    """
    if np.any(symbol.B != 0):
        raise AdjointNotGradedError("commutator oracle requires B = 0")
    blocks = build_truncation(symbol, max_degree).shell_blocks()
    return math.hypot(
        *(np.linalg.norm(M.conj().T @ M - M @ M.conj().T) for M in blocks)
    )


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
