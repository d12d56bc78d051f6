"""The benchmark's own answers and the checks that compare fockop against them.

Nothing here imports fockop.  Each value is either computed apart from the
program (an SVD, a least-squares solve, numpy.linalg.eigvals, a Gaussian
integral) or is a property the method must have.  None is a copy of a
recorded output.  A failed check raises CheckError with the numbers that
decided it.
"""

import math
import struct
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import linear_sum_assignment

TOL_UNIT = 1e-10  # the program's default unimodular band; cases keep far from it
NORM_REL = 1e-9  # closed-form norms against the benchmark's z0
MATRIX_REL = 1e-12  # two routes to the same truncation matrix
SPECTRUM_ABS = 1e-8  # truncated eigenvalues against eigenvalue products
DEDUP_TOL = 1e-10  # the program's default deduplication tolerance
SCHATTEN_REL = 1e-9  # Gauss-Hermite against the Gaussian closed form
EIGENFUNCTION_ABS = 1e-8  # eigenfunction residual, relative to coefficient size


class CheckError(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


def require(ok, what):
    if not ok:
        raise CheckError(what)


def close(got, want, rel, what):
    require(
        got is not None and abs(got - want) <= rel * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r} (rel tol {rel})",
    )


# ---------------------------------------------------------------------------
# verdicts from the benchmark's own SVD


def verdicts(A, B, tol=TOL_UNIT):
    """(bounded, compact, invertible) of C_phi from an SVD of A."""
    U, sig, _ = np.linalg.svd(A)
    unit = sig >= 1.0 - tol
    bounded = sig[0] <= 1.0 + tol and np.linalg.norm(
        U[:, unit].conj().T @ B
    ) <= tol * max(1.0, np.linalg.norm(B))
    return bool(bounded), bool(sig[0] < 1.0 - tol), bool(sig[-1] > 1e-12)


def operator_norm(A, B):
    """sup_w ||C_phi* k_w|| = exp((|phi(z0)|^2 - |z0|^2)/4), z0 the
    least-squares solution of (I - A*A) z = A*B."""
    n = A.shape[0]
    Ah = A.conj().T
    z0 = np.linalg.lstsq(np.eye(n) - Ah @ A, Ah @ B, rcond=None)[0]
    ph = A @ z0 + B
    return math.exp(0.25 * (np.vdot(ph, ph).real - np.vdot(z0, z0).real))


def check_norm(A, B, norm):
    """Closed-form operator norm of a bounded symbol."""
    require(norm is not None and norm >= 1.0 - 1e-12, f"norm {norm!r} < 1")
    close(norm, operator_norm(A, B), NORM_REL, "operator norm")


def check_essential_norm(A, B, ess_norm):
    """0 exactly for a compact symbol, the operator norm otherwise."""
    if verdicts(A, B)[1]:
        require(ess_norm == 0.0, f"compact symbol has essential norm {ess_norm!r}")
    else:
        require(ess_norm is not None and ess_norm != 0.0, "non-compact symbol has essential norm 0")
        close(ess_norm, operator_norm(A, B), NORM_REL, "essential norm")


def check_truncated_norm(tnorm, closed):
    require(
        tnorm <= closed * (1 + 1e-12),
        f"truncated norm {tnorm!r} exceeds the closed-form norm {closed!r}",
    )


# ---------------------------------------------------------------------------
# graded basis and spectrum


def graded_indices(n, N):
    out = []
    for d in range(N + 1):
        shell = []
        for cut in combinations_with_replacement(range(n), d):
            g = [0] * n
            for c in cut:
                g[c] += 1
            shell.append(tuple(g))
        out.extend(sorted(shell))
    return out


def degrees(n, N):
    return np.array([sum(g) for g in graded_indices(n, N)])


def products(A, N):
    """prod_i lambda_i^gamma_i over |gamma| <= N, lambda = eigvals(A)."""
    lam = np.linalg.eigvals(A)
    G = np.array(graded_indices(A.shape[0], N))
    return np.prod(lam[None, :] ** G, axis=1)


def check_multiset(got, want, tol, what):
    got = np.asarray(got, complex).reshape(-1)
    want = np.asarray(want, complex).reshape(-1)
    require(got.shape == want.shape, f"{what}: {got.size} values, expected {want.size}")
    cost = np.abs(got[:, None] - want[None, :])
    r, c = linear_sum_assignment(cost)
    worst = float(cost[r, c].max()) if len(r) else 0.0
    require(worst <= tol, f"{what}: matched distance {worst:.3e} > {tol:.1e}")


def check_enumeration(kept, A, N, slack=1e-12):
    """kept (the deduplicated products) lies in the product set, covers it
    within the deduplication tolerance, and holds no two values closer
    than that tolerance."""
    kept = np.asarray(kept, complex).reshape(-1)
    want = products(A, N)
    require(kept.size >= 1, "empty spectrum enumeration")
    d = np.abs(want[:, None] - kept[None, :])
    require(d.min(axis=0).max() <= slack, "an enumerated value is not a product")
    require(
        d.min(axis=1).max() <= DEDUP_TOL + slack,
        f"a product is {d.min(axis=1).max():.3e} from every enumerated value",
    )
    if kept.size > 1:
        dk = np.abs(kept[:, None] - kept[None, :]) + np.eye(kept.size) * 1.0
        require(dk.min() > DEDUP_TOL * (1 - 1e-6), "two enumerated values coincide")


# ---------------------------------------------------------------------------
# truncation matrices


def check_same_matrix(got, want, what):
    got = np.asarray(got)
    require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = max(1.0, float(np.max(np.abs(want))))
    require(err <= MATRIX_REL * scale, f"{what}: entries differ by {err:.3e}")


def check_graded(M, n, N):
    """C_phi never raises degree: no entry from a column of degree d into a
    row of higher degree."""
    deg = degrees(n, N)
    below = deg[:, None] > deg[None, :]
    require(M.shape == (deg.size, deg.size), f"matrix shape {M.shape} for n={n}, N={N}")
    require(not np.any(M[below]), "entry below the degree grading")


def check_low_degree(M, A, B):
    """Columns of degree <= 1, from C_phi 1 = 1 and, with e_k = z_k/sqrt(2),
    C_phi e_k = sum_j A_kj e_j + (B_k/sqrt(2)) e_0.  In graded-lex order
    position 1 + i holds the variable n - 1 - i."""
    n = A.shape[0]
    var = [n - 1 - i for i in range(n)]
    want = np.zeros((n + 1, n + 1), complex)
    want[0, 0] = 1.0
    for c, k in enumerate(var, start=1):
        want[0, c] = B[k] / math.sqrt(2.0)
        for r, j in enumerate(var, start=1):
            want[r, c] = A[k, j]
    check_same_matrix(M[: n + 1, : n + 1], want, "degree <= 1 block")


def check_commutator(value, A):
    """For B = 0 the truncated [M*, M] vanishes exactly when A is normal."""
    comm = np.linalg.norm(A @ A.conj().T - A.conj().T @ A)
    if comm < TOL_UNIT:
        require(value <= 1e-9, f"normal A but commutator norm {value:.3e}")
    else:
        require(value >= 1e-3 * comm, f"non-normal A but commutator norm {value:.3e}")


def read_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = int(round(math.sqrt(data.shape[0])))
    M = np.zeros((dim, dim), complex)
    M[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2] + 1j * data[:, 3]
    return M


def read_bin(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    require(raw[:9] == b"FOCKTRNC1", "bad magic in binary dump")
    (dim,) = struct.unpack("<I", raw[9:13])
    require(len(raw) == 13 + 16 * dim * dim, "binary dump has the wrong length")
    return np.frombuffer(raw[13:], dtype="<c16").reshape(dim, dim)


# ---------------------------------------------------------------------------
# Gaussian integrals


def _gaussian(H, c, const=0.0):
    """integral over C^n of exp(-z*Hz + 2 Re(c*z) + const) dv(z)."""
    n = H.shape[0]
    quad = np.vdot(c, np.linalg.solve(H, c)).real
    return math.pi**n / np.linalg.det(H).real * math.exp(quad + const)


def schatten_integrals(A, B, p):
    """I1 = int ||C_phi k_z||^p dv and I2 = int ||C_phi* k_z||^p dv.

    ||C_phi k_z||^2 = exp(-z*(I - AA*)z/2 + Re<B, z>) and
    ||C_phi* k_z||^2 = exp((|Az + B|^2 - |z|^2)/2), so both integrands are
    exp(-z*Hz + 2 Re(c*z) + const) with H = (p/4)(I - AA*), c = (p/4)B for
    I1 and H = (p/4)(I - A*A), c = (p/4)A*B, const = (p/4)|B|^2 for I2.
    """
    n = A.shape[0]
    eye = np.eye(n)
    q = 0.25 * p
    i1 = _gaussian(q * (eye - A @ A.conj().T), q * B)
    i2 = _gaussian(q * (eye - A.conj().T @ A), q * (A.conj().T @ B), q * np.vdot(B, B).real)
    return i1, i2


def check_schatten(got1, got2, A, B, p):
    want1, want2 = schatten_integrals(A, B, p)
    close(got1, want1, SCHATTEN_REL, f"Schatten I1 (p={p})")
    close(got2, want2, SCHATTEN_REL, f"Schatten I2 (p={p})")


def hilbert_schmidt_sq(A, B):
    """sum_alpha ||C_phi e_alpha||^2 = int exp(|phi(z)|^2/2) dmu(z), since
    sum_alpha |e_alpha(w)|^2 = exp(|w|^2/2); with the Gaussian measure
    dmu = (2pi)^-n exp(-|z|^2/2) dv this is the integral of I2 at p = 2."""
    n = A.shape[0]
    Ah = A.conj().T
    H = 0.5 * (np.eye(n) - Ah @ A)
    return _gaussian(H, 0.5 * (Ah @ B), 0.5 * np.vdot(B, B).real) / (2 * math.pi) ** n


def berezin(A, B, z):
    """||C_phi k_z||^2 = exp(-|z|^2/2 + Re<B, z> + |A*z|^2/2)."""
    Az = A.conj().T @ z
    return math.exp(-0.5 * np.vdot(z, z).real + np.vdot(z, B).real + 0.5 * np.vdot(Az, Az).real)
