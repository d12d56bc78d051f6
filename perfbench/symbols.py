"""Seeded affine symbols phi(z) = Az + B for the benchmark, one class each.

Every generator takes a numpy Generator and returns a Case.  The class of
a case is fixed by construction, with wide margins around every tolerance
of the program (1e-10), so the expected verdicts never sit on a boundary.
Nothing here imports fockop: the program receives only the arrays.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Case:
    kind: str
    A: np.ndarray
    B: np.ndarray
    tags: tuple = None  # Fraction or None per sorted eigenvalue, or None

    @property
    def n(self):
        return self.A.shape[0]


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    Q, R = np.linalg.qr(_cplx(rng, n, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def compact(rng, n, top=(0.3, 0.85), with_b=True):
    A = _cplx(rng, n, n)
    A *= rng.uniform(*top) / np.linalg.svd(A, compute_uv=False)[0]
    B = _cplx(rng, n) if with_b else np.zeros(n, complex)
    return Case("compact" if with_b else "compact_b0", A, B)


def hs_safe(rng, n):
    """Compact with ||A|| <= 0.6 and |B| <= 1.5.  hilbert_schmidt_norm_sq
    returns inf for about 2% of `compact` cases (||A|| > 0.7, |B| > 2),
    whose Hilbert-Schmidt norm is finite; see README.md, "Found"."""
    case = compact(rng, n, top=(0.3, 0.6))
    B = case.B * (rng.uniform(0.5, 1.5) / np.linalg.norm(case.B))
    return Case("hs_safe", case.A, B)


def _boundary_parts(rng, n):
    k = int(rng.integers(1, n + 1))
    sing = np.concatenate([np.ones(k), rng.uniform(0.2, 0.8, size=n - k)])
    U, V = _unitary(rng, n), _unitary(rng, n)
    return (U * sing) @ V.conj().T, U[:, :k]


def boundary(rng, n):
    """||A|| = 1 and B orthogonal to the image of the unit singular space."""
    A, Uk = _boundary_parts(rng, n)
    g = _cplx(rng, n)
    return Case("boundary", A, g - Uk @ (Uk.conj().T @ g))


def unbounded(rng, n):
    """||A|| = 1 and B with a component of size >= 0.5 along A's image of
    a unit singular direction."""
    A, Uk = _boundary_parts(rng, n)
    g = _cplx(rng, n)
    B = g - Uk @ (Uk.conj().T @ g) + rng.uniform(0.5, 1.5) * Uk[:, 0]
    return Case("unbounded", A, B)


def normal(rng, n):
    W = _unitary(rng, n)
    lam = rng.uniform(0.1, 0.9, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return Case("normal", (W * lam) @ W.conj().T, np.zeros(n, complex))


def unitary(rng, n):
    """A unitary with generic (untagged) eigenvalue angles, B = 0."""
    return Case("unitary", _unitary(rng, n), np.zeros(n, complex))


# distinct angles p/q * pi in [0, 2pi) with small denominators
_RATIONAL_ANGLES = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4),
    Fraction(5, 6), Fraction(7, 5), Fraction(5, 3), Fraction(9, 7),
]


def rotation(rng, n, tagged):
    """A = diag(exp(i pi p_j/q_j)), B = 0; tags follow the program's sorted
    eigenvalue order (all unimodular, so argument ascending)."""
    picks = rng.choice(len(_RATIONAL_ANGLES), size=n, replace=False)
    fr = [_RATIONAL_ANGLES[i] for i in picks]
    A = np.diag([np.exp(1j * np.pi * float(f)) for f in fr])
    tags = tuple(sorted(fr)) if tagged else None
    return Case("rotation_tagged" if tagged else "rotation_untagged", A,
                np.zeros(n, complex), tags)


def nilpotent(rng, n):
    A = np.triu(_cplx(rng, n, n), 1)
    A *= 0.8 / np.linalg.svd(A, compute_uv=False)[0]
    return Case("nilpotent", A, _cplx(rng, n))


def zero(rng, n):
    """A = 0: C_phi is the rank-one point evaluation at B."""
    return Case("zero", np.zeros((n, n), complex), _cplx(rng, n))


def dyadic(rng, n):
    """Compact symbol with entries on a 1/16 grid, so exact mode keeps
    small rationals.  Entries have modulus <= sqrt(2)/4, so for n <= 2 the
    row and column sums bound ||A|| by 0.71."""
    if n > 2:
        raise ValueError("dyadic symbols are defined for n <= 2")
    A = (rng.integers(-4, 5, size=(n, n)) + 1j * rng.integers(-4, 5, size=(n, n))) / 16.0
    B = (rng.integers(-8, 9, size=n) + 1j * rng.integers(-8, 9, size=n)) / 16.0
    return Case("dyadic", A, B)


def make(kind, rng, n):
    if kind in ("rotation_tagged", "rotation_untagged"):
        return rotation(rng, n, kind == "rotation_tagged")
    if kind == "compact_b0":
        return compact(rng, n, with_b=False)
    return {
        "compact": compact, "boundary": boundary, "unbounded": unbounded,
        "normal": normal, "unitary": unitary, "nilpotent": nilpotent,
        "zero": zero, "dyadic": dyadic, "hs_safe": hs_safe,
    }[kind](rng, n)


def document(case):
    """The CLI's JSON symbol document for a case."""
    c = lambda z: {"re": float(z.real), "im": float(z.imag)}
    doc = {
        "n": case.n,
        "A": [[c(z) for z in row] for row in case.A],
        "B": [c(z) for z in case.B],
    }
    if case.tags is not None:
        doc["anglesExact"] = [{"num": t.numerator, "den": t.denominator} for t in case.tags]
    return json.dumps(doc)
