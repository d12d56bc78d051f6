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
for B = 0 its singular values, are those of the shell blocks.  With B = 0,
L_j maps shell d - 1 into shell d, so only the blocks are built, each from
the one before it, and the dense matrix is assembled only when read.
The norm then solves only the blocks that can hold it: a block whose
Frobenius norm, an upper bound on its 2-norm taken from its own entries,
lies below a top singular value already computed is certified smaller and
skipped (see _PRUNE_SLACK).
Exact mode and build_adjoint_truncation are the oracles for this
recursion and share no code with it; they go through the norms, which fit
a double only up to degree 150.

Before anything is allocated, the bytes it takes (16 dim^2 for a dense
matrix, 16 sum_d s_d^2 for the blocks of shells of size s_d) are checked
against the machine's physical memory, since the dimension cap counts
basis elements and not bytes.

Eigenfunctions F are verified by this recursion in the monomial basis z^g
(creation weights one, so no norm is formed), and by the exact columns in
exact mode; neither shares code with the MultiPolynomial arithmetic that
constructs F.
"""

import bisect
import itertools
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
# Relative slack of the B = 0 norm's block pruning.  A block of size s is
# skipped when its computed Frobenius norm f times (1 + _PRUNE_SLACK) is
# below best, the largest computed top singular value so far.  Its own
# computed top singular value would then be below best too, so the norm
# keeps its bits: _frobenius sums s squares per column and then 2s column
# sums, all nonnegative, so in any order f is at most (1.5 s + 2) u below
# the true Frobenius norm (u = 2^-53; a sum in the subnormal range belongs
# to a block far below block 0's norm 1 <= best).  LAPACK's SVD is
# backward stable, so the computed top singular value exceeds the true
# one, which the Frobenius norm bounds, by at most p(s) u relative, p a
# modest polynomial of about s.  1e-10 is 9e5 u: that covers every shell
# under the default dimension cap (s <= 50000, under 1.3e5 u) sevenfold,
# and any shell up to s = 3e5, past what the memory check lets a shell
# block hold on machines below a terabyte.  Equal values are never skipped.
_PRUNE_SLACK = 1e-10


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
        return self.exponents.sum(axis=1)

    @cached_property
    def exponents(self):
        """The multi-indices as a dim x n int64 array."""
        flat = itertools.chain.from_iterable(self.indices)
        return np.fromiter(flat, np.int64, self.dim * self.n).reshape(self.dim, self.n)

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


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Matrix of C_phi on the degree <= N subspace.

    The matrix is block triangular in the degree shells (upper for C_phi,
    lower for the adjoint route), and block diagonal when symbol.B = 0;
    the solves below use that structure.

    A double-mode build with B = 0 is kept in block form: blocks holds the
    shell blocks, and the dense matrix is assembled from them on the first
    read of matrix.  Every other build stores the dense matrix.  matrix is
    the normalized complex128 matrix either way.  When built in exact
    mode, exact_columns[j] maps row index -> GaussianRational unnormalized
    coefficient c_{alpha beta}; the float matrix is then
    D^{1/2} C D^{-1/2} evaluated from those exact entries.
    """

    basis: GradedBasis
    symbol: object
    blocks: tuple = None
    dense: np.ndarray = None
    exact_columns: tuple = None

    @property
    def dim(self):
        return self.basis.dim

    @cached_property
    def matrix(self):
        """The dense matrix, assembled once from the blocks in block form.

        Raises SizeOverflowError if it would not fit in physical memory.
        """
        if self.blocks is None:
            return self.dense
        _refuse_past_memory(self.basis)
        return _block_diagonal(self.basis, self.blocks)

    def shell_blocks(self):
        """The diagonal blocks of the degree shells 0..N."""
        if self.blocks is not None:
            return list(self.blocks)
        shells = [self.basis.shell(d) for d in range(self.basis.max_degree + 1)]
        return [self.matrix[s, s] for s in shells]

    def norm(self):
        """Operator 2-norm (largest singular value), with the bits of
        singular_values()[0].

        In block form only the blocks that can hold the norm are solved:
        they are visited by descending Frobenius norm, and the visit stops
        at the first block whose Frobenius norm, widened by _PRUNE_SLACK,
        is below the largest top singular value found so far.
        """
        if self.blocks is None:
            return float(self.singular_values()[0])
        with np.errstate(over="ignore"):  # an infinite bound prunes nothing
            bounds = [_frobenius(b) for b in self.blocks]
        best = 0.0
        for d in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
            if bounds[d] * (1.0 + _PRUNE_SLACK) < best:
                break
            best = max(best, np.linalg.svd(self.blocks[d], compute_uv=False)[0])
        return float(best)

    def singular_values(self):
        """Descending; from every shell block when B = 0, where M is block
        diagonal, and from the whole matrix otherwise.  norm() needs only
        the first and solves fewer blocks."""
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
        if self.blocks is None:
            col_sq = np.sum(np.abs(self.matrix) ** 2, axis=0)
        else:
            # the zeros off the blocks add nothing to a column's sum
            col_sq = np.concatenate(
                [np.sum(np.abs(b) ** 2, axis=0) for b in self.blocks]
            )
        degs = self.basis.degrees()
        out = np.zeros(self.basis.max_degree + 1)
        np.add.at(out, degs, col_sq)
        return out


def _frobenius(block):
    """||block||_F of a C-contiguous complex block: the squares of the real
    and imaginary parts summed down each column, then across."""
    parts = block.view(float)
    return math.sqrt((parts * parts).sum(axis=0).sum())


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _refuse_past_memory(basis, blocks=False):
    """Raise SizeOverflowError, before anything is allocated, if the dense
    complex matrix on basis (16 dim^2 bytes) or, with blocks, its shell
    blocks (16 sum_d s_d^2 bytes, s_d the size of shell d) would take more
    than the machine's physical memory."""
    if blocks:
        sizes = (math.comb(d + basis.n - 1, d) for d in range(basis.max_degree + 1))
        nbytes, what = 16 * sum(m * m for m in sizes), "shell blocks"
    else:
        nbytes, what = 16 * basis.dim**2, "dense matrix"
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise SizeOverflowError(
            f"the dim-{basis.dim} truncation's {what} would take {nbytes} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def _block_diagonal(basis, blocks):
    """The dense matrix with the shell blocks on its diagonal."""
    M = np.zeros((basis.dim, basis.dim), dtype=complex)
    for d, block in enumerate(blocks):
        s = basis.shell(d)
        M[s, s] = block
    return M


def _creation_maps(basis):
    """dst[k, i] = position of g_i + e_k, for the basis elements g_i of
    degree < N.

    Each index is keyed by its degree and then its entries, in radix
    N + 1, so the keys ascend in graded-lex order and one searchsorted
    finds every g + e_k.  The keys are Python ints where (N + 1)^(n + 1)
    leaves int64.
    """
    n, N = basis.n, basis.max_degree
    rows = graded_dim(n, N - 1)
    dtype = np.int64 if (N + 1) ** (n + 1) <= 2**63 else object
    place = np.array([(N + 1) ** p for p in range(n, -1, -1)], dtype=dtype)
    G = basis.exponents.astype(dtype, copy=False)
    keys = G.sum(axis=1) * place[0] + G @ place[1:]
    # g + e_k adds one to the degree and one to entry k
    return np.searchsorted(keys, keys[:rows] + (place[0] + place[1:])[:, None])


def _creation_weights(basis):
    """w[k, i] = sqrt(2 (g_k + 1)), for the basis elements g_i of degree < N."""
    rows = graded_dim(basis.n, basis.max_degree - 1)
    return np.sqrt(2.0 * (basis.exponents[:rows].T + 1.0))


def _creation_matrix(symbol, basis, w):
    """The dense matrix of C_phi, one degree shell at a time by the
    creation recursion of the module docstring.  Used for B != 0;
    _creation_blocks builds B = 0.

    z_k b_i = w[k, i] b_{i + e_k} on the basis vectors b_i of degree < N:
    _creation_weights gives b = e and the normalized matrix, and weights
    one give b = z^g and the coefficient matrix C, with no degree limit.

    Within shell d the columns whose first nonzero slot is j are
    contiguous, and their parents alpha - e_j are the first columns of
    shell d - 1, in the same order.  So each (d, j) is one gather of the
    parent columns, whose entries lie in the rows of degree < d, one
    scaled scatter per nonzero A_jk, and a division by the real
    w[j, parent], applied to the real and imaginary parts separately so
    that exact entries stay exact.
    """
    n, A, B = basis.n, symbol.A, symbol.B
    dst = _creation_maps(basis)
    M = np.zeros((basis.dim, basis.dim), dtype=complex)
    M[0, 0] = 1.0
    for d in range(1, basis.max_degree + 1):
        parent, shell = basis.shell(d - 1), basis.shell(d)
        rows = slice(0, parent.stop)
        for j in range(n):
            cols = slice(parent.start, parent.start + math.comb(d + n - 2 - j, n - 1 - j))
            P = M[rows, cols]
            kids = dst[j, cols]
            X = M[: shell.stop, kids[0] : kids[-1] + 1]
            if B[j] != 0:
                X[rows] += B[j] * P
            for k in range(n):
                if A[j, k] != 0:
                    X[dst[k, rows]] += (A[j, k] * w[k, rows])[:, None] * P
            X.real /= w[j, cols]
            X.imag /= w[j, cols]
    return M


def _creation_blocks(symbol, basis, w):
    """The shell blocks of C_phi for B = 0, by the creation recursion.

    With B = 0, L_j maps shell d - 1 into shell d, so shell d's block
    comes from shell d - 1's block alone.  Each entry gets the same
    products, added in the same order and with the same operand layouts,
    as in _creation_matrix, and the same division, so the blocks have the
    bits of the dense matrix's diagonal blocks.  Each column is divided
    once all of the shell's columns are built.
    """
    n, A = basis.n, symbol.A
    dst = _creation_maps(basis)
    blocks = [np.ones((1, 1), dtype=complex)]
    for d in range(1, basis.max_degree + 1):
        parent, shell = basis.shell(d - 1), basis.shell(d)
        weights = w[:, parent]
        # a run of consecutive rows (every k for n <= 2) is added to in
        # place through a slice, without a fancy-index round trip
        targets = [
            slice(t[0], t[-1] + 1) if t[-1] - t[0] == len(t) - 1 else t
            for t in dst[:, parent] - shell.start
        ]
        size = shell.stop - shell.start
        block, div = np.zeros((size, size), dtype=complex), np.empty(size)
        for j in range(n):
            m = math.comb(d + n - 2 - j, n - 1 - j)
            first = dst[j, parent.start] - shell.start
            X, P = block[:, first : first + m], blocks[-1][:, :m]
            for k in range(n):
                if A[j, k] != 0:
                    X[targets[k]] += (A[j, k] * weights[k])[:, None] * P
            div[first : first + m] = w[j, parent.start : parent.start + m]
        block.real /= div
        block.imag /= div
        blocks.append(block)
    return blocks


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

    With B = 0 and exact False only the shell blocks are built, and the
    operator is returned in block form.

    Raises SizeOverflowError if an entry leaves the range of a double, or
    if what would be built does not fit in physical memory: 16 dim^2
    bytes for a dense matrix, 16 sum_d s_d^2 for the blocks of shells of
    size s_d.
    """
    basis = build_basis(symbol.n, max_degree)
    blockwise = not exact and not np.any(symbol.B)
    _refuse_past_memory(basis, blocks=blockwise)
    exact_cols = blocks = matrix = None
    if exact:
        sqrt_ns = np.sqrt(basis.norm_sq)  # raises above degree 150
        exact_cols = _exact_columns(symbol, basis)
        matrix = _matrix_from_exact(sqrt_ns, exact_cols)
    else:
        w = _creation_weights(basis)
        with np.errstate(over="ignore", invalid="ignore"):
            if blockwise:
                blocks = tuple(_creation_blocks(symbol, basis, w))
            else:
                matrix = _creation_matrix(symbol, basis, w)
    if not all(np.isfinite(m).all() for m in (blocks or (matrix,))):
        raise SizeOverflowError(
            f"a degree-{max_degree} truncation entry exceeds the double range"
        )
    return TruncatedOperator(
        basis=basis,
        symbol=symbol,
        blocks=blocks,
        dense=matrix,
        exact_columns=exact_cols,
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


def kernel_series_polynomial(w, max_degree):
    """Degree <= N Taylor polynomial of K_w(z) = exp(<z, w>/2).

    The coefficient of z^gamma is conj(w)^gamma / (2^{|gamma|} gamma!).
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    n = w.shape[0]
    wbar = np.conj(w)
    terms = {}
    for g in graded_indices(n, max_degree):
        c = 1.0 + 0.0j
        for wi, gi in zip(wbar, g):
            if gi:
                c = c * wi**gi
        terms[g] = c / monomial_norm_sq_exact(g)  # gamma! 2^{|gamma|}
    return MultiPolynomial(n, terms)


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
    _refuse_past_memory(basis)
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
    return TruncatedOperator(basis=basis, symbol=symbol, dense=out)


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
