"""
Berezin transform, Schatten classes, Hilbert-Schmidt norms
==========================================================

For compact C_phi the Berezin transform of C*_phi C_phi has a closed
Gaussian form; Gauss-Hermite quadrature of the defining integral
reproduces it to machine precision.  Compact here implies membership in
every Schatten class; the two kernel integrals behind that criterion are
Gaussians, and quadrature reproduces their closed forms too.  The
Hilbert-Schmidt norm has its own closed form that the truncated
Frobenius norm converges to.
"""

import numpy as np

from fockop import (
    AffineSymbol,
    berezin_transform,
    berezin_transform_quadrature,
    build_truncation,
    hilbert_schmidt_norm_sq,
    hilbert_schmidt_norm_sq_closed_form,
    schatten_integrals,
    schatten_integrals_quadrature,
    schatten_membership,
)

sym = AffineSymbol(np.array([[0.5]]), np.array([1.0]))

# closed form vs the integral it stands for
for z in [np.array([0.0 + 0j]), np.array([1.0 + 0j]), np.array([1.0 + 2.0j])]:
    closed = berezin_transform(sym, z)
    quad = berezin_transform_quadrature(sym, z, order=24)
    print(f"z = {z[0]:+.1f}  berezin {closed:.12f}  quadrature gap {closed - quad:.2e}")
print("berezin at 0 is exactly ||C_phi k_0||^2 = 1:", berezin_transform(sym, np.zeros(1)))

# compact => every Schatten class
print("\nS_p membership for p = 1/2, 1, 2:",
      [schatten_membership(sym, p) for p in (0.5, 1.0, 2.0)])
for p in (1.0, 2.0):
    closed = schatten_integrals(sym, p)
    quad = schatten_integrals_quadrature(sym, p)
    print(f"p = {p:.0f}  kernel integrals {closed.int_cphi:.12f},"
          f" {closed.int_cphi_star:.12f}  quadrature gaps"
          f" {closed.int_cphi - quad.int_cphi:.2e},"
          f" {closed.int_cphi_star - quad.int_cphi_star:.2e}")

# Hilbert-Schmidt: closed form against the truncated Frobenius norm
s1 = AffineSymbol(np.array([[0.5]]), np.zeros(1))
closed = hilbert_schmidt_norm_sq_closed_form(s1)
print("\nphi(z) = z/2:  ||C_phi||_HS^2 closed form:", closed, "(= 4/3)")
for N in (5, 15, 30):
    fro = np.linalg.norm(build_truncation(s1, N).matrix, "fro") ** 2
    print(f"  N={N:2d}  Frobenius^2 {fro:.12f}   gap {closed - fro:.3e}")

# the helper with a convergence loop built in
print("via hilbert_schmidt_norm_sq:", hilbert_schmidt_norm_sq(s1))

# unitary symbols are bounded but nowhere near Hilbert-Schmidt: the
# closed form refuses (it needs ||A|| < 1) and the truncation estimator
# detects the divergence
rot = AffineSymbol(np.array([[1j]]), np.zeros(1))
print("a = i:  ||C_phi||_HS^2 =", hilbert_schmidt_norm_sq(rot))
