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
for B = 0 its singular values, are those of the shell blocks.  The one
recursion builds M shell by shell: each shell reads its columns' parents
alpha - e_j from the shell before, adds B_j times them when B != 0, then
one scaled scatter of them per variable k, in that order for every
entry; a zero A_jk or B_j adds only +-0, which leaves an entry's bits as
they are.  The tables it reads that depend on the basis alone are built
once per basis (GradedBasis._creation_plan), and build_basis shares one
basis per (n, N).  B sets the row window: with B = 0, L_j maps shell
d - 1 into shell d, so only the diagonal blocks are built, as views into
one buffer, and the dense matrix is assembled only when read; otherwise
the columns span every row above.
With B = 0 the norm solves only the blocks that can hold it: a block
whose Frobenius norm, an upper bound on its 2-norm taken from its own
entries, lies below a top singular value already computed is certified
smaller and skipped (see _PRUNE_SLACK).  The bounds of all blocks come
from one pass over the buffer.
With B != 0 the norm is one dense SVD below _LANCZOS_MIN_DIM (85), and
from there on the top singular value of a Golub-Kahan-Lanczos
bidiagonalization of the dense matrix, stopped when its residual is a few
ulps of the value.  A breakdown, a residual that falls too slowly to get
there within dim // 5 + 4 steps (about what the dense SVD costs), or no
convergence within them falls back to the dense SVD and its bits (see
_lanczos_norm, _lanczos_steps and _stalled).
Exact mode and build_adjoint_truncation are the oracles for this
recursion and share no code with it; they go through the norms, which fit
a double only up to degree 150.  Exact mode expands the coefficients as
Gaussian integers scaled by a power of two and divides each once, into
the matrix; exact_columns expands them again, into GaussianRational, on
its first read.  The adjoint route keeps each shell of C_{A* z} as a
dense array of monomial coefficients and forms the shell's columns with
one product by the cut kernel series.

Before anything is allocated, the bytes it takes are checked against the
machine's physical memory, since the dimension cap counts basis elements
and not bytes: 16 dim^2 for a dense matrix, and for the shell blocks
(shells of size s_d) the 16 sum_d s_d^2 bytes of the one buffer that
they share.

eigenfunction_residual, the check behind spectrum.verify_eigenfunction,
verifies eigenfunctions F by this recursion in the monomial basis z^g
(creation weights one, so no norm is formed), and by the exact columns in
exact mode; neither shares code with the MultiPolynomial arithmetic that
constructs F.
"""

import itertools
import math
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
# keeps its bits: _frobenius_bounds sums the 2s squares of each row's real
# and imaginary parts and then the block's s row sums, all nonnegative, so
# in any order the relative errors of the squares (u), the row sums
# ((2s - 1) u) and the block sum ((s - 1) u) add to at most 3s u, and f,
# its square root, is at most (1.5 s + 2) u below the true Frobenius norm
# (u = 2^-53; a sum in the subnormal range belongs to a block far below
# block 0's norm 1 <= best).  LAPACK's SVD is
# backward stable, so the computed top singular value exceeds the true
# one, which the Frobenius norm bounds, by at most p(s) u relative, p a
# modest polynomial of about s.  1e-10 is 9e5 u: that covers every shell
# under the default dimension cap (s <= 50000, under 1.3e5 u) sevenfold,
# and any shell up to s = 3e5, past what the memory check lets a shell
# block hold on machines below a terabyte.  Equal values are never skipped.
_PRUNE_SLACK = 1e-10
# build_basis keeps the bases it built last, most recently used last
_BASES_KEPT = 32
_bases = {}
# Doubles squared at a time by the B = 0 norm's Frobenius bounds: 256 kB
# of scratch, which stays in cache where a buffer-sized one would not
_ROW_CHUNK = 1 << 15
# From this dim on, a B != 0 norm() comes from _lanczos_norm and not from
# the dense SVD: the smallest dim above every truncation in the golden
# files (84).  Measured on a 2-CPU Xeon with numpy 2.4 and OpenBLAS, in a
# warm process, on four seeded symbols of each B != 0 class at each of 18
# dims from 85 to 1001, fallbacks included, the route took this multiple
# of the dense SVD's time: at dims 85 to 165, 0.08 to 0.84 on compact
# symbols, 0.18 to 1.2 with a unitary A, 0.16 to 1.07 with ||A|| = 1 and
# a generic B, 0.09 to 0.4 with a nilpotent A (n >= 2) and 0.5 to 1.13 on
# boundary (||A|| = 1, bounded) symbols, whose top singular values
# cluster; from dim 210 to 1001, 0.01 to 0.26 on the first four and 0.06
# to 1.1 on boundary ones.  The rank-one M of A = 0 breaks down at the
# second step, which adds 0.07 to 0.09 ms to a dense SVD of 0.09 to 0.2 ms
# up to dim 126, and at most 13% from dim 136 on.
_LANCZOS_MIN_DIM = 85
# _lanczos_norm takes at most _lanczos_steps(dim) = dim // 5 + 4 steps,
# about what the dense SVD costs up to dim 500 or so.  On the same host a
# step costs 50 to 80 us below dim 300, mostly numpy call overhead, plus
# the SVD of the k x k bidiagonal, which grows as k^3 (35 us at k = 16,
# about 200 us at k = 28).  21 steps took 1.0 times the dense SVD's time
# at dim 85, 28 steps 0.8 times at dim 121, 70 steps 1.3 times at dim 330
# and 103 steps 1.2 times at dim 496.  Seeded symbols of the converging
# classes took 4 to 40 steps.
_DIM_PER_LANCZOS_STEP = 5
_LANCZOS_EXTRA_STEPS = 4
# _lanczos_norm's residual bound, in ulps of the value it returns
_LANCZOS_ULPS = 4
# _lanczos_norm gives up from step _LANCZOS_STALL_FROM on once the
# geometric rate at which its residual fell over the last
# _LANCZOS_STALL_STEPS steps, kept up, would not bring it to
# _LANCZOS_ULPS ulps within _LANCZOS_STALL_SLACK times its step budget
# (see _stalled).  The slack allows for the rate of a converging
# recursion, which grows as it goes.  On 336 seeded boundary symbols at
# dims 85 to 1001 the residual stalled near 1e-2 on 120, and the
# recursion gave up on them after a median 8 steps and at most 15; on
# 1317 seeded symbols of the converging classes it gave up on 23 that
# would have converged, all at dims 85 to 201 and at step 6 to 15.
_LANCZOS_STALL_FROM = 6
_LANCZOS_STALL_STEPS = 4
_LANCZOS_STALL_SLACK = 2


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

    build_basis shares one basis per (n, max_degree), so everything cached
    here is computed once per basis and must not be written to: the arrays
    are read-only.

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

    def positions(self, G):
        """The positions of the multi-indices held as the rows of the int
        array G (last axis n), each of which must lie in the basis.

        Each index is keyed by its degree and then its entries, in radix
        N + 1, so the keys ascend in graded-lex order and one searchsorted
        finds them all.  The keys are Python ints where (N + 1)^(n + 1)
        leaves int64.
        """
        return np.searchsorted(self._keys, self._key(G))

    def __contains__(self, gamma):
        return tuple(gamma) in self._index_of

    def degrees(self):
        """Total degree of each basis element, as an int array."""
        return self.exponents.sum(axis=1)

    @cached_property
    def exponents(self):
        """The multi-indices as a read-only dim x n int64 array."""
        flat = itertools.chain.from_iterable(self.indices)
        G = np.fromiter(flat, np.int64, self.dim * self.n).reshape(self.dim, self.n)
        return _read_only(G)

    def shell(self, d):
        """Slice of the positions of degree exactly d."""
        return slice(graded_dim(self.n, d - 1), graded_dim(self.n, d))

    @cached_property
    def norm_sq(self):
        """||z^gamma||^2 = gamma! 2^{|gamma|} per index, as read-only doubles.

        Raises SizeOverflowError above degree 150, where the norms leave
        the double range.
        """
        _refuse_past_float_degree(self.max_degree)
        return _read_only(np.array([float(monomial_norm_sq_exact(g)) for g in self.indices]))

    @cached_property
    def _index_of(self):
        return {g: i for i, g in enumerate(self.indices)}

    @cached_property
    def _radix(self):
        """(N + 1)^p for p = n down to 0: the place values of the keys."""
        n, N = self.n, self.max_degree
        dtype = np.int64 if (N + 1) ** (n + 1) <= 2**63 else object
        return _read_only(np.array([(N + 1) ** p for p in range(n, -1, -1)], dtype=dtype))

    @cached_property
    def _keys(self):
        """The ascending keys of positions(), one per basis element."""
        return _read_only(self._key(self.exponents))

    def _key(self, G):
        """The key of each row of G: its degree, then its entries, in
        radix N + 1."""
        place = self._radix
        G = np.asarray(G).astype(place.dtype, copy=False)
        return G.sum(axis=-1) * place[0] + G @ place[1:]

    @cached_property
    def _block_layout(self):
        """(starts, offsets, chunks) of the shell blocks laid end to end in
        one buffer, each row-major.  Shell d holds the positions starts[d]
        up to starts[d + 1], and its block the buffer's entries offsets[d]
        up to offsets[d + 1].  chunks cuts the buffer's real view into runs
        of whole rows of at most _ROW_CHUNK doubles (or one longer row):
        (rows, doubles, row_starts), the rows as positions, the slice of
        doubles they take and where each row starts within that slice."""
        starts = [graded_dim(self.n, d - 1) for d in range(self.max_degree + 2)]
        sizes = np.diff(starts)
        offsets = np.zeros(len(starts), dtype=np.intp)
        np.cumsum(sizes * sizes, out=offsets[1:])
        # row i of the dense matrix starts at double at[i], and at[dim] is
        # the end of the buffer
        at = np.zeros(self.dim + 1, dtype=np.intp)
        np.cumsum(2 * np.repeat(sizes, sizes), out=at[1:])
        chunks, i = [], 0
        while i < self.dim:
            j = max(i + 1, int(np.searchsorted(at, at[i] + _ROW_CHUNK, "right")) - 1)
            chunks.append((slice(i, j), slice(at[i], at[j]), _read_only(at[i:j] - at[i])))
            i = j
        return tuple(starts), tuple(offsets.tolist()), tuple(chunks)

    @cached_property
    def _creation_plan(self):
        """The creation recursion's tables that depend on the basis alone;
        see _CreationPlan."""
        return _CreationPlan.of(self)


def _read_only(a):
    a.flags.writeable = False
    return a


def _refuse_past_float_degree(max_degree):
    if max_degree > _MAX_FLOAT_DEGREE:
        raise SizeOverflowError(
            f"degree {max_degree} is too high for the monomial norms: "
            f"||z^gamma||^2 = gamma! 2^|gamma| overflows a double; the exact "
            f"and adjoint routes, the kernel series and the orbit experiment "
            f"stop at degree {_MAX_FLOAT_DEGREE}"
        )


def build_basis(n, max_degree):
    """The graded basis, enforcing the dimension cap.

    The basis is shared: calls with the same (n, max_degree) return the
    same read-only object, of which the last _BASES_KEPT built are kept.
    The cap is read, and checked, on every call.

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
    key = (n, max_degree)
    basis = _bases.pop(key, None)
    if basis is None:
        basis = GradedBasis(n=n, max_degree=max_degree, indices=tuple(graded_indices(n, max_degree)))
        if len(_bases) == _BASES_KEPT:
            del _bases[next(iter(_bases))]  # the least recently used
    _bases[key] = basis
    return basis


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
    mode (exact is True), the float matrix is D^{1/2} C D^{-1/2} evaluated
    from the unnormalized coefficients c_{alpha beta} as _exact_columns
    gives them, scaled Gaussian integers, which are then dropped.
    exact_columns expands them again on its first read, as one map row
    index -> GaussianRational per column.
    """

    basis: GradedBasis
    symbol: object
    blocks: tuple = None
    dense: np.ndarray = None
    exact: bool = False

    @property
    def dim(self):
        return self.basis.dim

    @property
    def _buffer(self):
        """In block form, the one buffer that the blocks are views into."""
        return self.blocks[0].base

    @cached_property
    def matrix(self):
        """The dense matrix, assembled once from the blocks in block form.

        Raises SizeOverflowError if it would not fit in physical memory.
        """
        if self.blocks is None:
            return self.dense
        _refuse_past_memory(self.basis)
        return _block_diagonal(self.basis, self.blocks)

    @cached_property
    def exact_columns(self):
        """In exact mode, exact_columns[j] maps row index -> GaussianRational
        coefficient c_{alpha beta} of column j, built on the first read;
        None otherwise."""
        if not self.exact:
            return None
        s, columns = _exact_columns(self.symbol, self.basis)
        degrees = self.basis.degrees().tolist()
        return tuple(_gaussian_column(s, d, c) for d, c in zip(degrees, columns))

    def shell_blocks(self):
        """The diagonal blocks of the degree shells 0..N."""
        if self.blocks is not None:
            return list(self.blocks)
        shells = [self.basis.shell(d) for d in range(self.basis.max_degree + 1)]
        return [self.matrix[s, s] for s in shells]

    def norm(self):
        """Operator 2-norm (largest singular value).

        With B = 0 it has the bits of singular_values()[0], but only the
        shell blocks that can hold the norm are solved: they are visited
        by descending Frobenius norm, and the visit stops at the first
        block whose Frobenius norm, widened by _PRUNE_SLACK, is below the
        largest top singular value found so far.

        With B != 0 and dim below _LANCZOS_MIN_DIM (85) it is
        singular_values()[0], one dense SVD.  From that dim on it is the
        top singular value of a Golub-Kahan-Lanczos bidiagonalization of
        the matrix (_lanczos_norm), which takes no dim x dim SVD and lies
        within a few ulps of the dense SVD's value (at most 2e-15 apart,
        relative, on every seeded symbol measured).  The recursion takes
        at most dim // 5 + 4 steps (_lanczos_steps), and gives up early
        once its residual falls too slowly to converge within them
        (_stalled).  Where it breaks down, gives up or does not converge,
        the dense value is returned, with its bits.  A norm past the double
        range raises SizeOverflowError.
        """
        if np.any(self.symbol.B):
            top = None
            if self.dim >= _LANCZOS_MIN_DIM:
                top = _lanczos_norm(self.matrix, _lanczos_steps(self.dim))
            return float(self.singular_values()[0]) if top is None else _finite_top(top)
        blocks = self.shell_blocks()
        if self.blocks is not None:
            entries = self._buffer
        else:
            entries = np.concatenate([b.ravel() for b in blocks])
        bounds = _frobenius_bounds(self.basis, entries).tolist()
        best = 0.0
        for d in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
            if bounds[d] * (1.0 + _PRUNE_SLACK) < best:
                break
            best = max(best, _finite_top(np.linalg.svd(blocks[d], compute_uv=False)[0]))
        return float(best)

    def singular_values(self):
        """Descending; from every shell block when B = 0, where M is block
        diagonal, and from one dense SVD of the whole matrix otherwise.
        norm() needs only the first: it solves fewer blocks when B = 0,
        and from _LANCZOS_MIN_DIM on with B != 0 it takes no dense SVD
        unless its Lanczos recursion falls back.  SizeOverflowError if the
        largest leaves the double range."""
        if np.any(self.symbol.B):
            sv = np.linalg.svd(self.matrix, compute_uv=False)
        else:
            blocks = [np.linalg.svd(b, compute_uv=False) for b in self.shell_blocks()]
            sv = np.sort(np.concatenate(blocks))[::-1]  # a NaN sorts first
        _finite_top(sv[0])
        return sv

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


def _finite_top(sigma):
    """sigma, a top singular value; SizeOverflowError if the SVD or the
    Lanczos recursion left the double range (inf or NaN)."""
    if not np.isfinite(sigma):
        raise SizeOverflowError(f"the truncated norm {sigma} exceeds the double range")
    return sigma


def _frobenius_bounds(basis, entries):
    """||M_d||_F of every shell block M_d, from entries, the blocks laid
    end to end as GradedBasis._block_layout says: the squares of the real
    and imaginary parts summed along each row, then each block's row sums.
    The squares are taken a chunk of rows at a time, so that their scratch
    stays small and in cache.  An overflowed square gives an infinite
    bound."""
    starts, _, chunks = basis._block_layout
    parts = entries.view(float)
    rows = np.empty(basis.dim)
    with np.errstate(over="ignore"):
        for r, doubles, at in chunks:
            x = parts[doubles]
            rows[r] = np.add.reduceat(x * x, at)
    return np.sqrt(np.add.reduceat(rows, starts[:-1]))


def _lanczos_steps(dim):
    """_lanczos_norm's step budget at this dim."""
    return dim // _DIM_PER_LANCZOS_STEP + _LANCZOS_EXTRA_STEPS


def _lanczos_norm(M, steps):
    """The largest singular value of the square matrix M from at most
    steps steps of Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan
    1965), or None where the dense SVD must give it.

    From the unit vector v_1 the recursion builds orthonormal U_k, V_k and
    an upper bidiagonal B_k (alphas on the diagonal, betas above it) with
    M V_k = U_k B_k and M* U_k = V_k B_k^T + beta_k v_{k+1} e_k^T.  If
    B_k y = sigma x and B_k^T x = sigma y, sigma the top singular value of
    B_k, then M V_k y = sigma U_k x and
    M* U_k x = sigma V_k y + beta_k x_k v_{k+1}, so a singular value of M
    lies within the residual |beta_k x_k| of sigma.  The recursion stops
    once that residual is at most _LANCZOS_ULPS ulps of sigma.  Each new
    vector is orthogonalized against all the earlier ones, twice, and v_1
    is the same pseudo-random vector on every call (_start_vector), so
    that a host gives the same bits on every run.

    None is returned on a breakdown, an alpha or beta at most dim * eps
    times the largest so far (M then has an invariant subspace that v_1
    need not reach past: the rank-one M of A = 0 breaks down at the second
    alpha), on a non-finite alpha or beta, when the residual falls too
    slowly to get there within the steps (_stalled), and when it is still
    larger after the last step.
    """
    dim = M.shape[0]
    eps = np.finfo(float).eps
    tiny = dim * eps
    # U and V with their conjugates, so that no projection conjugates a
    # vector: conj(Q @ conj(x)) is Qc @ x, bit for bit
    U, Uc = np.empty((2, steps, dim), dtype=complex)
    V, Vc = np.empty((2, steps + 1, dim), dtype=complex)
    # B_k is Bk[: k + 1, : k + 1]; its last beta is written after the step
    Bk = np.zeros((steps, steps + 1))
    residual = np.empty(steps)
    V[0] = _start_vector(dim)
    Vc[0] = V[0].conj()
    p = M @ V[0]
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            if k:
                p -= Bk[k - 1, k] * U[k - 1]
                _orthogonalize(p, U[:k], Uc[:k])
            Bk[k, k] = a = np.linalg.norm(p)
            scale = max(scale, a)
            if not math.isfinite(a) or a <= tiny * scale:
                return None
            U[k] = p / a
            np.conj(U[k], out=Uc[k])
            # M* u = conj(conj(u) M), without a transposed copy of M
            r = np.conj(Uc[k] @ M) - a * V[k]
            _orthogonalize(r, V[: k + 1], Vc[: k + 1])
            b = np.linalg.norm(r)
            scale = max(scale, b)
            if not math.isfinite(b):
                return None
            X, s, _ = np.linalg.svd(Bk[: k + 1, : k + 1])
            res = b * abs(X[k, 0])
            if res <= _LANCZOS_ULPS * eps * s[0]:
                # without vectors LAPACK takes B_k's singular values to high
                # relative accuracy (dqds); with them its value can lie a
                # few ulps higher
                return float(np.linalg.svd(Bk[: k + 1, : k + 1], compute_uv=False)[0])
            residual[k] = res / s[0]
            if b <= tiny * scale or _stalled(residual[: k + 1], steps):
                return None
            Bk[k, k + 1] = b
            V[k + 1] = r / b
            np.conj(V[k + 1], out=Vc[k + 1])
            p = M @ V[k + 1]
    return None


def _stalled(residual, steps):
    """Whether the relative residuals so far fall too slowly: from step
    _LANCZOS_STALL_FROM on, the geometric rate of their fall over the last
    _LANCZOS_STALL_STEPS steps, kept up, would not bring the last one down
    to _LANCZOS_ULPS ulps within _LANCZOS_STALL_SLACK times steps."""
    k = len(residual)
    if k < _LANCZOS_STALL_FROM:
        return False
    fall = math.log(residual[-1 - _LANCZOS_STALL_STEPS] / residual[-1]) / _LANCZOS_STALL_STEPS
    need = math.log(residual[-1] / (_LANCZOS_ULPS * np.finfo(float).eps))
    return fall * (_LANCZOS_STALL_SLACK * steps - k) < need


def _start_vector(dim):
    """A fixed unit vector of pseudo-random complex entries: SplitMix64
    (Steele, Lea and Flood 2014) of 0, 1, 2, ... in wrapping uint64
    arithmetic, so that it is the same on every call and loads no random
    generator (importing numpy.random takes about 11 ms and 1 to 6 MB of
    resident memory on a 2-CPU Xeon)."""
    z = np.arange(2 * dim, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53 - 0.5
    v = x[:dim] + 1j * x[dim:]
    return v / np.linalg.norm(v)


def _orthogonalize(x, Q, Qc):
    """Take from x, in place, its projection on the orthonormal rows of
    Q, twice over; Qc holds their conjugates."""
    for _ in range(2):
        x -= (Qc @ x) @ Q


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
    nbytes, what = 16 * basis.dim**2, "dense matrix"
    if blocks:
        nbytes, what = 16 * basis._block_layout[1][-1], "shell blocks"
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
    """dst[k, i] = position of g_i + e_k, for the g_i of degree < N."""
    G = basis.exponents[: basis.shell(basis.max_degree).start]
    return basis.positions(G + np.eye(basis.n, dtype=np.int64)[:, None])


def _creation_weights(basis):
    """w[k, i] = sqrt(2 (g_k + 1)), for the basis elements g_i of degree < N."""
    return np.sqrt(2.0 * (basis.exponents[: basis.shell(basis.max_degree).start].T + 1.0))


def _creation_parents(basis):
    """slot[c] and parent[c] for each column c of degree >= 1: the first
    nonzero slot j of alpha_c and the position of alpha_c - e_j.  Column 0
    has no parent; it gets 0 and 0."""
    G = basis.exponents
    slot = np.argmax(G > 0, axis=1)
    parent = basis.positions(G[1:] - np.eye(basis.n, dtype=np.int64)[slot[1:]])
    return slot, np.concatenate(([0], parent))


def _consecutive(t):
    """The rows t as a slice when they are consecutive, so that a block is
    added to in place through it, without a fancy-index round trip."""
    if t[-1] - t[0] == len(t) - 1:
        return slice(int(t[0]), int(t[-1]) + 1)
    return t


@dataclass(frozen=True)
class _CreationPlan:
    """The creation recursion's tables on one basis: they depend on
    neither the symbol nor the weights, so a basis builds them once.

    Fields
    ------
    shells : shells[d], the slice of the positions of degree d.
    slot, parent : as _creation_parents gives them, per position.
    slots : slots[d], one (j, kids, m) per slot j of shell d's columns.
        The columns of slot j are contiguous, kids within the shell, and
        their parents alpha - e_j are the first m columns of shell d - 1,
        in the same order.
    block_rows, dense_rows : [d][k], the rows of Z_k applied to shell
        d - 1's block, within shell d's block: local to the diagonal block
        (B = 0) and rows of M (B != 0), as a slice where consecutive.
    """

    shells: tuple
    slot: np.ndarray
    parent: np.ndarray
    slots: tuple
    block_rows: tuple
    dense_rows: tuple

    @classmethod
    def of(cls, basis):
        n = basis.n
        dst = _read_only(_creation_maps(basis))
        slot, parent = _creation_parents(basis)
        starts = basis._block_layout[0]
        shells = tuple(slice(a, b) for a, b in zip(starts, starts[1:]))
        slots = [None]
        for s in shells[1:]:
            runs, col = [], 0
            for j, run in itertools.groupby(slot[s].tolist()):
                m = len(list(run))
                runs.append((j, slice(col, col + m), m))
                col += m
            slots.append(tuple(runs))
        # the rows of Z_k local to the block they land in
        degree = basis.degrees()
        near = _read_only(dst - np.array(starts)[degree[: dst.shape[1]] + 1])
        return cls(
            shells=shells,
            slot=_read_only(slot),
            parent=_read_only(parent),
            slots=tuple(slots),
            block_rows=(None,) + tuple(
                tuple(_consecutive(near[k, s]) for k in range(n)) for s in shells[:-1]
            ),
            dense_rows=(None,) + tuple(
                tuple(_consecutive(dst[k, : s.stop]) for k in range(n)) for s in shells[:-1]
            ),
        )


def _creation_shells(symbol, basis, w):
    """C_phi one degree shell at a time, by the creation recursion of the
    module docstring.  Returns (blocks, M).

    z_k b_i = w[k, i] b_{i + e_k} on the basis vectors b_i of degree < N:
    _creation_weights gives b = e and the normalized matrix, and weights
    one give b = z^g and the coefficient matrix C, with no degree limit.

    blocks[d] is the column block M[lo_d : shell_d.stop, shell_d], which
    holds every entry of shell d's columns that can be nonzero.  With
    B = 0, L_j maps shell d - 1 into shell d, so lo_d = shell_d.start: the
    blocks are the diagonal shell blocks, views into one buffer of
    16 sum_d s_d^2 bytes (s_d the size of shell d; see
    GradedBasis._block_layout), and M is None.  Otherwise lo_d = 0: the
    blocks are views into the dense M.

    The columns of shell d whose slot (first nonzero entry) is j are
    contiguous, and their parents alpha - e_j are the first columns of
    shell d - 1's block, in the same order.  With B != 0 the shell first
    adds B_j times the parents to the parent rows; then, for k ascending,
    it scales the parents by A_jk w[k, row], slot by slot, into X and adds
    X to the rows of Z_k.  Each entry thus gets its terms in the order of
    the recursion, and every term of a zero A_jk or B_j is +-0: an entry
    starts at +0 and a sum of doubles is -0 only when both terms are, so
    adding +-0 never changes its bits.  (A zero coefficient times an
    infinite parent entry gives nan, but only after an earlier shell has
    overflowed.)  Each column is then divided by the real w[j, parent], its
    real and imaginary parts alike, in one pass over the block's real view,
    so that exact entries stay exact.  X is a view into one buffer made
    per build, so the shells reuse memory that is in cache.
    """
    A, B = symbol.A, symbol.B
    plan = basis._creation_plan  # only now: a refused build builds no plan
    shells, slot = plan.shells, plan.slot
    # coef[k, i, j] = A_jk w[k, i]
    coef = w[:, :, None] * A.T[:, None, :]
    # div[c - 1] = w[j, parent], twice over: once per real and imaginary part
    div = np.repeat(w[slot[1:], plan.parent[1:]], 2)
    if np.any(B):
        M = np.zeros((basis.dim, basis.dim), dtype=complex)
        blocks = [M[: s.stop, s] for s in shells]
        targets = plan.dense_rows
    else:
        M, (_, offsets, _) = None, basis._block_layout
        # each block is zeroed just before its shell is built, in cache
        buffer = np.empty(offsets[-1], dtype=complex)
        blocks = [
            buffer[offsets[d] : offsets[d + 1]].reshape(s.stop - s.start, -1)
            for d, s in enumerate(shells)
        ]
        targets = plan.block_rows
        blocks[0].fill(0.0)
    blocks[0][0, 0] = 1.0
    size = max((len(a) * b.shape[1] for a, b in zip(blocks, blocks[1:])), default=0)
    X = np.empty(size, dtype=complex)
    for d in range(1, basis.max_degree + 1):
        shell, block, prev = shells[d], blocks[d], blocks[d - 1]
        if M is None:
            block.fill(0.0)
        # the rows of shell d - 1's block, where its entries lie
        rows = slice(shells[d - 1].stop - len(prev), shells[d - 1].stop)
        x = X[: len(prev) * block.shape[1]].reshape(len(prev), -1)
        if M is not None:  # then the rows start at 0 and index this block too
            for j, kids, m in plan.slots[d]:
                np.multiply(B[j], prev[:, :m], out=x[:, kids])
            block[rows] += x
        for k, t in enumerate(targets[d]):
            c = coef[k, rows]
            for j, kids, m in plan.slots[d]:
                np.multiply(c[:, j, None], prev[:, :m], out=x[:, kids])
            block[t] += x
        parts = block.view(float)
        parts /= div[2 * shell.start - 2 : 2 * shell.stop - 2]
    return blocks, M


def eigenfunction_residual(psi, terms, eigenvalue, exact):
    """max|C f - eigenvalue f|: how far F o psi is from eigenvalue F, for
    F with the coefficients terms (multi-index -> coefficient) in psi.n
    variables and C the coefficient matrix of C_psi on the monomials of
    degree <= deg F.

    In double mode C's columns come from the creation recursion with
    weights one (monomials z^g, no norms), and only F's columns are read,
    from the column blocks, one shell at a time.  In exact mode eigenvalue
    and the coefficients are GaussianRational, only F's exact columns are
    converted, and an exact eigenfunction gives exactly 0.0.

    Raises SizeOverflowError if C(deg F + n, n) exceeds the dimension cap
    or, in double mode, C would not fit in physical memory (both before
    anything is built; with B = 0 the shell blocks are counted), or if a
    residual entry leaves the double range.
    """
    d = max((sum(g) for g in terms), default=0)
    basis = build_basis(psi.n, d)
    pos = [basis.position(g) for g in terms]
    if exact:
        s, columns = _exact_columns(psi, basis)
        resid = {p: -eigenvalue * c for p, c in zip(pos, terms.values())}
        for p, (g, c) in zip(pos, terms.items()):
            for i, v in _gaussian_column(s, sum(g), columns[p]).items():
                resid[i] = resid.get(i, 0) + c * v
        return max((abs(complex(v)) for v in resid.values()), default=0.0)
    _refuse_past_memory(basis, blocks=not np.any(psi.B))
    f = np.array(list(terms.values()), dtype=complex)
    pos = np.array(pos, dtype=np.intp)
    degree = basis.degrees()[pos]
    # elementwise, in place on the gathered columns: a BLAS product would
    # wake OpenBLAS's worker threads
    with np.errstate(over="ignore", invalid="ignore"):
        blocks, _ = _creation_shells(psi, basis, np.ones((psi.n, basis.shell(d).start)))
        resid = np.zeros(basis.dim, dtype=complex)
        for e in sorted(set(degree.tolist())):
            # F's columns in shell e's column block, zero outside its rows,
            # in Fortran order, as numpy lays out the gather C[:, pos[i]]
            s, block = basis.shell(e), blocks[e]
            i = np.flatnonzero(degree == e)
            cols = np.asfortranarray(block[:, pos[i] - s.start])
            cols *= f[i]
            resid[s.stop - len(block) : s.stop] += cols.sum(axis=1)
        resid[pos] -= eigenvalue * f
    worst = float(np.max(np.abs(resid)))  # nan propagates
    if not np.isfinite(worst):
        raise _entry_overflow(d, "coefficient of F o psi")
    return worst


def _exact_columns(symbol, basis):
    """Exact coefficients of (Az + B)^alpha as scaled Gaussian integers.

    Every double is a dyadic rational, so 2^s A and 2^s B are Gaussian
    integers once 2^s is the largest denominator among the real and
    imaginary parts.  The expansion runs in those integers, as (re, im)
    pairs of Python ints, so no operation pays a gcd: the polynomial for
    alpha is the polynomial for alpha - e_j times 2^s l_j, with j the first
    nonzero slot of alpha, and only the previous degree shell is kept
    alive.

    Returns (s, columns): columns[c] maps each row of a nonzero
    coefficient to its pair, and c_{alpha beta} = (re + i im) / 2^{s|alpha|}
    with alpha the index of column c.  The pairs are divided only where
    they are read: _matrix_from_exact and _gaussian_column.
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
    cols = [{0: (1, 0)}]
    for d in range(1, basis.max_degree + 1):
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
            poly = shell[alpha] = {h: c for h, c in poly.items() if c != (0, 0)}
            cols.append({pos[h]: c for h, c in poly.items()})
        prev_shell = shell
    return s, tuple(cols)


def _gaussian_column(s, degree, column):
    """A column of _exact_columns, of the given degree, as a map row ->
    GaussianRational coefficient c_{alpha beta}."""
    den = 1 << (s * degree)
    return {
        i: GaussianRational(Fraction(re, den), Fraction(im, den))
        for i, (re, im) in column.items()
    }


def _matrix_from_exact(basis, sqrt_ns, scaled):
    """D^{1/2} C D^{-1/2} from the exact coefficient columns C, given as
    _exact_columns returns them, with sqrt_ns the diagonal of D^{1/2}.

    Each pair is divided by its 2^{s|alpha|} in Python ints, which rounds
    correctly, as float() of the reduced fraction does.  The quotients
    sqrt_ns[row] / sqrt_ns[col] are taken in one numpy pass, and each entry
    is then one Python complex product: numpy's may fuse a multiply and an
    add, which can flip the sign of an entry that underflows to zero.
    Raises SizeOverflowError if a coefficient leaves the double range.
    """
    s, columns = scaled
    counts = [len(c) for c in columns]
    rows = np.fromiter(
        itertools.chain.from_iterable(columns), dtype=np.intp, count=sum(counts)
    )
    cols = np.repeat(np.arange(len(columns)), counts)
    ratio = iter((sqrt_ns[rows] / sqrt_ns[cols]).tolist())
    dens = [1 << (s * d) for d in basis.degrees().tolist()]
    try:
        vals = [
            complex(re / den, im / den) * next(ratio)
            for den, column in zip(dens, columns)
            for re, im in column.values()
        ]
    except OverflowError:
        raise _entry_overflow(basis.max_degree) from None
    out = np.zeros((len(columns), len(columns)), dtype=complex)
    out[rows, cols] = vals
    return out


def _entry_overflow(max_degree, what="truncation entry"):
    return SizeOverflowError(f"a degree-{max_degree} {what} exceeds the double range")


def build_truncation(symbol, max_degree, exact=False):
    """The matrix of C_phi on the monomials of degree <= N.

    Parameters
    ----------
    symbol : AffineSymbol
    max_degree : int
    exact : bool
        Expand (Az + B)^alpha exactly, in Gaussian integers scaled by a
        power of two, instead of the creation recursion (input floats are
        dyadic rationals, so the conversion is lossless).  Each entry of
        the matrix is one correctly rounded quotient of those scaled
        integers, scaled by the norms.  The operator keeps only the
        matrix; exact_columns expands the coefficients again, as
        GaussianRational, on its first read.  Limited to degree <= 150.

    With B = 0 and exact False only the shell blocks are built, and the
    operator is returned in block form.

    Raises SizeOverflowError if an entry leaves the range of a double, or
    if what would be built does not fit in physical memory: 16 dim^2
    bytes for a dense matrix, 16 sum_d s_d^2 for the blocks of shells of
    size s_d.
    """
    basis = build_basis(symbol.n, max_degree)
    _refuse_past_memory(basis, blocks=not exact and not np.any(symbol.B))
    blocks = None
    if exact:
        sqrt_ns = np.sqrt(basis.norm_sq)  # raises above degree 150
        matrix = _matrix_from_exact(basis, sqrt_ns, _exact_columns(symbol, basis))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            blocks, matrix = _creation_shells(symbol, basis, _creation_weights(basis))
    op = TruncatedOperator(
        basis=basis,
        symbol=symbol,
        blocks=None if matrix is not None else tuple(blocks),
        dense=matrix,
        exact=exact,
    )
    # in block form the buffer holds every entry that can be nonzero
    if not np.isfinite(op._buffer if matrix is None else matrix).all():
        raise _entry_overflow(max_degree)
    return op


def exact_matrix_as_double(op):
    """A copy of the normalized matrix D^{1/2} C D^{-1/2} of an exact-mode
    operator, C its exact coefficient matrix.

    build_truncation(..., exact=True) already converted the exact columns
    into op.matrix, so the copy has the same bits, and exact_columns is
    not read.  The function stays because perfbench's `exact` job calls
    it.
    """
    if not op.exact:
        raise ValueError("operator was not built in exact mode")
    return op.matrix.copy()


def _kernel_series(w, basis):
    """conj(w)^gamma / (2^{|gamma|} gamma!) per basis element: the Taylor
    series of K_w(z) = exp(<z, w>/2) in graded order, so its terms of degree
    <= m are the first basis.shell(m).stop.

    The coefficient is the product over j of t_j[gamma_j], with
    t_j[k] = t_j[k - 1] conj(w_j) / (2k) one running product per variable.
    No power of w is formed, so SizeOverflowError is raised only where a
    coefficient itself leaves the double range, and above degree 150.
    """
    _refuse_past_float_degree(basis.max_degree)
    n, N = basis.n, basis.max_degree
    tables = np.empty((n, N + 1), dtype=complex)
    tables[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(np.conj(w)[:, None], np.arange(2, 2 * N + 1, 2), out=tables[:, 1:])
        np.cumprod(tables, axis=1, out=tables)
        # t_j[k] is the flat entry j (N + 1) + k
        series = tables.take(basis.exponents + np.arange(0, n * (N + 1), N + 1)).prod(axis=1)
    if not np.isfinite(series).all():
        raise _entry_overflow(basis.max_degree, "kernel series coefficient")
    return series


def kernel_series_polynomial(w, max_degree):
    """Degree <= N Taylor polynomial of K_w(z) = exp(<z, w>/2).

    The coefficient of z^gamma is conj(w)^gamma / (2^{|gamma|} gamma!).
    Its terms run over build_basis(n, N), in graded order, so the series
    obeys the dimension cap.  SizeOverflowError when C(N + n, n) exceeds
    it, above degree 150, and where a coefficient leaves the double range.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    basis = build_basis(w.shape[0], max_degree)
    return MultiPolynomial(basis.n, dict(zip(basis.indices, _kernel_series(w, basis).tolist())))


def build_adjoint_truncation(symbol, max_degree):
    """Matrix of C_phi* on the same basis via the factorization
    C_phi* = M_{K_B} C_tau, with tau(z) = A* z from symbol.adjoint_symbol.

    This is the identity C_phi = C_{Az} exp(B . d) transposed: Bargmann's
    annihilation operators d_k have adjoints d_k* = z_k / 2, so
    (C_{Az} exp(B . d))* = M_{K_B} C_{A* z} with K_B(z) = exp(<z, B>/2).

    The matrix is built shell by shell, in the monomial coefficients.  Row
    alpha of H_d, the s_d x s_d array of shell d, holds the homogeneous
    C_tau z^alpha: its parent C_tau z^{alpha - e_j} times
    tau_j(z) = (A* z)_j, with j the first nonzero slot of alpha.  So H_d
    takes one scaled add per variable k of the parents' rows of H_{d-1},
    moved to the columns gamma + e_k.  Each column is then multiplied by
    the kernel series cut at degree N - d; the higher kernel terms land
    only in rows of degree > N, so the cut is exact.  K_d places the cut
    series at the rows g + gamma of each g in shell d, and the shell's
    columns are K_d H_d^T.  The positions come from
    GradedBasis.positions.  The result must equal the conjugate transpose
    of build_truncation(symbol, N).matrix.  It shares no code with the
    creation recursion there, and exact mode stays the independent
    certificate in exact arithmetic: these two routes are that
    recursion's oracles.  Limited to degree <= 150.

    Raises SizeOverflowError if an entry leaves the range of a double.
    """
    basis = build_basis(symbol.n, max_degree)
    _refuse_past_memory(basis)
    sqrt_ns = np.sqrt(basis.norm_sq)
    n, N = symbol.n, max_degree
    tau, weight = adjoint_symbol(symbol)
    # the series is in graded order, so each cut is a prefix, and the key
    # of g + gamma (see GradedBasis.positions) is the sum of their keys
    series, keys = _kernel_series(weight, basis), basis._keys
    G, eye = basis.exponents, np.eye(n, dtype=np.int64)
    # slot[i - 1] is the first nonzero slot j of alpha_i, parent[i - 1] the
    # position of alpha_i - e_j and coef[k, i - 1] = tau_jk; child[k, i] is
    # the position of g_i + e_k
    slot = np.argmax(G[1:] > 0, axis=1)
    parent = basis.positions(G[1:] - eye[slot])
    coef = tau.A[slot].T
    child = basis.positions(G[: basis.shell(N).start] + eye[:, None])
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    H = np.ones((1, 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(N + 1):
            shell = basis.shell(d)
            lo, size = shell.start, shell.stop - shell.start
            if d:
                prev, kids = basis.shell(d - 1), slice(lo - 1, shell.stop - 1)
                P = H[parent[kids] - prev.start]
                H = np.zeros((size, size), dtype=complex)
                for k in range(n):
                    H[:, child[k, prev] - lo] += coef[k, kids, None] * P
            # the first m kernel terms have degree <= N - d
            m = basis.shell(N - d).stop
            rows = np.searchsorted(keys, keys[shell, None] + keys[:m]) - lo
            K = np.zeros((basis.dim - lo, size), dtype=complex)
            K[rows, np.arange(size)[:, None]] = series[:m]
            # to the orthonormal basis: entry (i, j) times sqrt_ns[i] / sqrt_ns[j]
            out[lo:, shell] = (K @ H.T) * (sqrt_ns[lo:, None] / sqrt_ns[None, shell])
    if not np.isfinite(out).all():
        raise _entry_overflow(max_degree)
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
        header = fh.read(4)
        if len(header) != 4:
            raise ValueError("truncated header")
        (dim,) = struct.unpack("<I", header)
        data = fh.read(16 * dim * dim)
        if len(data) != 16 * dim * dim:
            raise ValueError("truncated payload")
        M = np.frombuffer(data, dtype="<c16").reshape(dim, dim).astype(complex)
    return dim, M
