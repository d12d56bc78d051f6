"""Shared fixture symbols and random symbol generators.

The corpus deliberately covers every branch of the classification:
compact, bounded non-compact, unbounded, normal, unitary, nilpotent,
unimodular scalars (rational and irrational angle) and the degenerate
A = 0 point evaluations.
"""

import numpy as np
import pytest

from fockop import AffineSymbol, truncation

THETA = 0.7  # irrational-looking rotation angle reused by several tests


def _sym(A, B):
    return AffineSymbol(np.array(A, dtype=complex), np.array(B, dtype=complex))


def make_corpus():
    """name -> AffineSymbol; rebuilt per call so tests cannot share state."""
    return {
        # n = 1
        "compact_1d": _sym([[0.5]], [1.0]),
        "rotation_i": _sym([[1j]], [0.0]),
        "rotation_irrational": _sym([[np.exp(1j)]], [0.0]),
        "identity_1d": _sym([[1.0]], [0.0]),
        "translation_1d": _sym([[1.0]], [1j]),
        "point_eval_1d": _sym([[0.0]], [1.0]),
        # n = 2
        "compact_2d": _sym([[0.5, 0.0], [0.0, 1.0 / 3.0]], [0.0, 0.0]),
        "mixed_2d": _sym([[1.0, 0.0], [0.0, 0.5]], [0.0, 1.0]),
        "unbounded_2d": _sym([[1.0, 0.0], [0.0, 0.5]], [1.0, 0.0]),
        "nilpotent_2d": _sym([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0]),
        "unitary_2d": _sym([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0]),
        "rotation_compact_2d": _sym(
            [[np.exp(1j * THETA), 0.0], [0.0, 0.5]], [0.0, 1.0]
        ),
        "shear_compact_2d": _sym([[0.4, 0.3], [0.0, 0.2]], [1.0, -0.5j]),
        # n = 3
        "compact_3d": _sym(np.diag([0.5, 1.0 / 3.0, 0.25]), [1.0, 0.0, 0.0]),
    }


# names whose operators are bounded; everything else in the corpus is not
BOUNDED = [
    "compact_1d",
    "rotation_i",
    "rotation_irrational",
    "identity_1d",
    "point_eval_1d",
    "compact_2d",
    "mixed_2d",
    "nilpotent_2d",
    "unitary_2d",
    "rotation_compact_2d",
    "shear_compact_2d",
    "compact_3d",
]

UNBOUNDED = ["translation_1d", "unbounded_2d"]


@pytest.fixture(autouse=True)
def _fresh_bases():
    # no test sees a basis that another test built
    truncation._bases.clear()


@pytest.fixture
def corpus():
    return make_corpus()


@pytest.fixture
def bounded_corpus():
    c = make_corpus()
    return {k: c[k] for k in BOUNDED}


@pytest.fixture
def unbounded_corpus():
    c = make_corpus()
    return {k: c[k] for k in UNBOUNDED}


def random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    # fix the phases so Q is Haar distributed
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_contraction(rng, n, top=0.9):
    """||A|| <= top < 1, generic singular values."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = np.linalg.svd(A, compute_uv=False)[0]
    return A * (rng.uniform(0.2, top) / s)


def random_normal_matrix(rng, n, radius=1.0):
    """W diag(lambda) W* with |lambda| <= radius."""
    W = random_unitary(rng, n)
    lam = rng.uniform(0.1, radius, size=n) * np.exp(
        2j * np.pi * rng.uniform(size=n)
    )
    return (W * lam) @ W.conj().T


def random_compact_symbol(rng, n, top=0.85):
    A = random_contraction(rng, n, top=top)
    B = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return AffineSymbol(A, B)


def random_bounded_noncompact_symbol(rng, n):
    """||A|| = 1 with B orthogonal to the image of the unit singular
    directions, the exact boundary case of the boundedness criterion."""
    k = int(rng.integers(1, n + 1))
    sing = np.concatenate([np.ones(k), rng.uniform(0.2, 0.9, size=n - k)])
    U = random_unitary(rng, n)
    V = random_unitary(rng, n)
    A = (U * sing) @ V.conj().T
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Uk = U[:, :k]
    B = g - Uk @ (Uk.conj().T @ g)  # project out span(U[:, :k])
    return AffineSymbol(A, B)
