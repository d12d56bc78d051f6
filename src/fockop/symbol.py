"""Affine self-maps phi(z) = Az + B of C^n and their normal forms.

Only affine maps induce bounded composition operators on the Fock space,
so the symbol type is the pair (A, B).  The weight parameter alpha is
fixed at 1/2 throughout the package; the reproducing kernel is
K_w(z) = exp(<z, w>/2) with <u, v> = sum_i u_i conj(v_i).
"""

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property, wraps

import numpy as np

from .errors import (
    NonFiniteEntryError,
    NonSquareError,
    NormExceedsOneError,
    ShapeMismatchError,
    SizeOverflowError,
    StructureViolationError,
)

DEFAULT_TOL_UNIT = 1e-10
# an angle this close to 0 or 2pi counts as the angle 0
_ZERO_ANGLE_TOL = 1e-12


def hermitian_inner(u, v):
    """<u, v> = sum_i u_i conj(v_i), the pairing used by every formula here.

    Overflow gives inf or nan without a numpy warning; callers check the
    results they derive from it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.sum(np.asarray(u) * np.conj(np.asarray(v))))


def operator_norm_of_matrix(A):
    """Largest singular value.

    Raises
    ------
    NonSquareError
        If A is not a square 2-d array.
    SizeOverflowError
        If the SVD leaves the double range (it returns NaN or inf).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(A, 2))
    if not np.isfinite(norm):
        raise SizeOverflowError(f"||A|| = {norm} exceeds the double range")
    return norm


def per_symbol(fn):
    """fn(symbol, *args, **kwargs), computed once per symbol and arguments.

    The value is kept on the symbol instance, in its __dict__, as
    cached_property keeps AffineSymbol.norm_a, so it lives and dies with
    the symbol.  An entry is keyed by fn itself and the arguments, the
    tolerance included, with each list or array argument turned into a
    tuple.  Each array in the value, or in the fields of a dataclass value,
    is made read-only, because every later call returns the same one.  A
    call that raises stores nothing, so the next call raises again.
    """

    def part(a):
        return tuple(a) if isinstance(a, (list, np.ndarray)) else a

    @wraps(fn)
    def remembered(symbol, *args, **kwargs):
        key = (fn, *map(part, args), *((k, part(v)) for k, v in sorted(kwargs.items())))
        memo = symbol.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = _freeze(fn(symbol, *args, **kwargs))
        return memo[key]

    return remembered


def _freeze(value):
    """value, with each array in it or in its dataclass fields read-only."""
    if is_dataclass(value):
        parts = [getattr(value, f.name) for f in fields(value)]
    else:
        parts = [value]
    for a in parts:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return value


@dataclass(frozen=True, eq=False)
class AffineSymbol:
    """The map phi(z) = Az + B.

    Parameters
    ----------
    A : (n, n) array_like
        Complex matrix.
    B : (n,) array_like
        Complex translation vector.

    Arrays are copied, cast to complex128 and frozen.  NaN or infinite
    entries are rejected at construction.  Symbols compare and hash by
    value, with -0.0 equal to 0.0.
    """

    A: np.ndarray
    B: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=complex)
        B = np.array(self.B, dtype=complex).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeMismatchError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ShapeMismatchError(
                f"B has length {B.shape[0]}, expected {A.shape[0]}"
            )
        if A.shape[0] < 1:
            raise ShapeMismatchError("dimension must be >= 1")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise NonFiniteEntryError("A and B must have finite entries")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "n", A.shape[0])

    def __call__(self, z):
        """phi(z) = Az + B for a point z in C^n."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.shape[0] != self.n:
            raise ShapeMismatchError(f"point has length {z.shape[0]}, expected {self.n}")
        return self.A @ z + self.B

    def __eq__(self, other):
        if not isinstance(other, AffineSymbol):
            return NotImplemented
        return np.array_equal(self.A, other.A) and np.array_equal(self.B, other.B)

    def __hash__(self):
        # adding 0 turns -0.0 into 0.0, so equal symbols hash alike
        return hash((self.n, (self.A + 0).tobytes(), (self.B + 0).tobytes()))

    def __getstate__(self):
        # copies and pickles start without what per_symbol remembered: its
        # keys are functions, which pickle cannot look up by name
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state

    @cached_property
    def norm_a(self):
        """||A||; a non-finite norm raises SizeOverflowError on every access."""
        return operator_norm_of_matrix(self.A)

    def __repr__(self):
        return f"AffineSymbol(n={self.n}, ||A||={self.norm_a:.6g}, |B|={np.linalg.norm(self.B):.6g})"


@dataclass(frozen=True, eq=False)
class BlockSchurForm:
    """Unitary block triangularization U A U* = diag(D, A1).

    Fields
    ------
    U : (n, n) unitary with U A U* upper triangular in the sorted order.
    s : number of unimodular diagonal entries.
    D : (s,) unimodular diagonal entries, modulus-descending then
        argument-ascending in [0, 2pi).
    A1 : (n-s, n-s) upper triangular block, every diagonal modulus
        < 1 - tol_unit.
    Bprime : (n,) the transformed translation U B.
    """

    U: np.ndarray
    s: int
    D: np.ndarray
    A1: np.ndarray
    Bprime: np.ndarray

    @property
    def M(self):
        """The full transformed matrix diag(D, A1) with certified zeros."""
        n = self.U.shape[0]
        M = np.zeros((n, n), dtype=complex)
        s = self.s
        M[:s, :s] = np.diag(self.D)
        M[s:, s:] = self.A1
        return M


def _eig_sort_key(lam):
    # modulus descending, ties broken by argument ascending in [0, 2pi).
    # Moduli inside the unimodular band collapse to exactly 1 so the
    # argument tiebreak is not defeated by 1-ulp modulus noise, and an
    # argument just below 2pi folds to 0 so the sign of a rounded
    # imaginary part cannot send a real eigenvalue to the end.
    m = abs(lam)
    if m >= 1.0 - DEFAULT_TOL_UNIT:
        m = 1.0
    theta = float(np.angle(lam)) % (2.0 * np.pi)
    if 2.0 * np.pi - theta < _ZERO_ANGLE_TOL:
        theta = 0.0
    return (-m, theta)


def sort_eigenvalues(ev):
    """Eigenvalues sorted modulus-descending, ties argument-ascending."""
    return np.array(sorted(ev, key=_eig_sort_key), dtype=complex)


def eigenvalues(A):
    """Eigenvalues sorted modulus-descending, ties argument-ascending."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected square matrix, got shape {A.shape}")
    return sort_eigenvalues(np.linalg.eigvals(A))


@per_symbol
def _eigenvalues_of(symbol):
    """eigenvalues(symbol.A), computed once per symbol (see per_symbol):
    a read-only array."""
    return eigenvalues(symbol.A)


def _is_sorted_triangular(A):
    if np.tril(A, -1).any():
        return False
    n = A.shape[0]
    keys = [_eig_sort_key(A[i, i]) for i in range(n)]
    return all(keys[i] <= keys[i + 1] for i in range(n - 1))


def block_schur_form(A, tol_unit=DEFAULT_TOL_UNIT):
    """Sorted complex Schur form split into unimodular and contractive blocks.

    Eigenvalues are ordered modulus-descending (ties: argument ascending
    in [0, 2pi)).  Diagonal entries with modulus >= 1 - tol_unit are
    classified unimodular; their rows must then be zero off the diagonal,
    which is certified entrywise before the entries are zeroed.

    The complex Schur form from scipy.linalg.schur is reordered by LAPACK's
    ztrexc (Bai and Demmel 1993), one move per diagonal position, in a
    stable selection sort: equal keys keep their order.  ztrexc copies the
    swapped diagonal values exactly, so the sort keys cannot drift.
    Matrices already upper triangular in the sorted order pass through
    with U = I exactly.

    Parameters
    ----------
    A : (n, n) array_like with operator norm <= 1 + tol_unit.
    tol_unit : float
        Half-width of the tolerance band around modulus 1.

    Returns
    -------
    BlockSchurForm with Bprime = 0 (use block_schur_of_symbol to carry B).

    Raises
    ------
    NormExceedsOneError
        If ||A|| > 1 + tol_unit.
    StructureViolationError
        If a unimodular row carries off-diagonal mass > tol_unit, or
        ztrexc reports an error.
    """
    A = np.asarray(A, dtype=complex)
    norm = operator_norm_of_matrix(A)
    if norm > 1.0 + tol_unit:
        raise NormExceedsOneError(f"||A|| = {norm} exceeds 1 + {tol_unit}")
    n = A.shape[0]

    if _is_sorted_triangular(A):
        T = A.copy()
        U = np.eye(n, dtype=complex)
    else:
        import scipy.linalg

        T, Z = scipy.linalg.schur(A, output="complex")
        keys = [_eig_sort_key(t) for t in np.diag(T)]
        for i in range(n):
            j = min(range(i, n), key=keys.__getitem__)
            if j > i:
                T, Z, info = scipy.linalg.lapack.ztrexc(T, Z, j + 1, i + 1)
                if info:
                    raise StructureViolationError(f"ztrexc returned info = {info}")
                keys.insert(i, keys.pop(j))
        U = Z.conj().T

    diag = np.diag(T).copy()
    s = int(np.sum(np.abs(diag) >= 1.0 - tol_unit))
    for i in range(s):
        row = T[i, i + 1 :]
        if row.size and np.max(np.abs(row)) > tol_unit:
            raise StructureViolationError(
                f"unimodular row {i} has off-diagonal mass {np.max(np.abs(row)):.3e}"
            )
        T[i, i + 1 :] = 0.0
    D = diag[:s]
    A1 = T[s:, s:].copy()
    return BlockSchurForm(U=U, s=s, D=D, A1=A1, Bprime=np.zeros(n, dtype=complex))


@per_symbol
def _block_schur(symbol, tol_unit):
    form = block_schur_form(symbol.A, tol_unit)
    return replace(form, Bprime=form.U @ symbol.B)


def block_schur_of_symbol(symbol, tol_unit=DEFAULT_TOL_UNIT):
    """block_schur_form of symbol.A with Bprime = U B attached.

    The form is computed once per symbol and tolerance (see per_symbol):
    each call returns a new BlockSchurForm around the same read-only
    arrays.  Raises as block_schur_form does, on every call.
    """
    return replace(_block_schur(symbol, tol_unit))


def adjoint_symbol(symbol):
    """The adjoint factorization data: C_phi* = M_{K_B} C_tau.

    Returns
    -------
    tau : AffineSymbol
        tau(z) = A* z.
    kernel_weight : ndarray
        The vector B; the multiplier is K_B(z) = exp(<z, B>/2).
    """
    tau = AffineSymbol(symbol.A.conj().T, np.zeros(symbol.n))
    return tau, symbol.B.copy()


def iterate_symbol(symbol, m):
    """The m-th iterate phi_m = phi o phi_(m-1), with phi_0 the identity:
    A_m = A^m, B_m = (A^{m-1} + ... + I) B."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("iteration count must be a nonnegative integer")
    it = AffineSymbol(np.eye(symbol.n), np.zeros(symbol.n))
    for _ in range(m):
        it = compose_symbols(symbol, it)
    return it


def compose_symbols(outer, inner):
    """The symbol of z -> outer(inner(z)).

    Note the operator identity runs the other way:
    C_outer C_inner = C_{inner o outer}.
    """
    if outer.n != inner.n:
        raise ShapeMismatchError("cannot compose symbols of different dimension")
    return AffineSymbol(outer.A @ inner.A, outer.A @ inner.B + outer.B)
