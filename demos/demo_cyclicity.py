"""
Cyclicity: three-valued verdicts and an orbit experiment
========================================================

No bounded C_phi here is ever supercyclic.  Cyclicity splits on the
unimodular part of A: roots of unity kill it, rationally independent
angles leave it open for floats (a float can never certify
irrationality), and the genuinely contractive invertible case in
dimension one is cyclic.
"""

from fractions import Fraction

import numpy as np

from fockop import (
    AffineSymbol,
    check_cyclic,
    check_supercyclic,
    kernel_series_polynomial,
    orbit_density_experiment,
)

cases = {
    "a = i (exact tag pi/2)": (np.array([[1j]]), np.zeros(1), [Fraction(1, 2)]),
    "a = 1/2, b = 1": (np.array([[0.5]]), np.array([1.0]), None),
    "A = diag(1/2, 1/3)": (np.diag([0.5, 1 / 3]).astype(complex), np.zeros(2), None),
    "a = e^i": (np.array([[np.exp(1j)]]), np.zeros(1), None),
}
for label, (A, B, tags) in cases.items():
    sym = AffineSymbol(A, B)
    v = check_cyclic(sym, exact_angles=tags)
    print(f"{label}")
    print(f"  supercyclic: {check_supercyclic(sym)}")
    print(f"  cyclic     : {v.verdict}  ({v.rationale})")
    if v.relation is not None:
        print(f"  relation   : {v.relation}")

# a numerical density probe: grow the Krylov space of the truncation
# from the kernel-series seed and watch how much of degree <= 8 it fills
print("\norbit span inside the degree <= 8 space (dimension 9):")
for label, a in [("a = 1/2, b = 1", 0.5), ("a = i", 1j)]:
    sym = AffineSymbol(np.array([[a]]), np.array([1.0 if a == 0.5 else 0.0]))
    seed = kernel_series_polynomial(np.array([1.0 + 0j]), 8)
    rep = orbit_density_experiment(sym, seed, max_degree=8, steps=12)
    print(f"  {label:16s} dims {rep.dims} -> {rep.dimension}/{rep.basis_dim}")
