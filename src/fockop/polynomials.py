"""Sparse multivariate polynomials over complex floats or Gaussian rationals.

Multi-indices are plain tuples of nonnegative ints.  The graded
lexicographic order (total degree first, then componentwise tuple order)
fixes basis enumeration everywhere in the package:
n=2, N=1 enumerates (0,0), (0,1), (1,0).
"""

from itertools import combinations_with_replacement
from math import comb, factorial

from .exact import GaussianRational, _power


def graded_indices(n, max_degree):
    """All multi-indices of dimension n with |gamma| <= max_degree.

    Returned in graded lexicographic order: shell by shell in degree, and
    each shell, generated by stars and bars, sorted into tuple order.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    out = []
    for d in range(max_degree + 1):
        # stars-and-bars: positions of bars determine the index
        shell = []
        for cut in combinations_with_replacement(range(n), d):
            g = [0] * n
            for c in cut:
                g[c] += 1
            shell.append(tuple(g))
        shell.sort()
        out.extend(shell)
    return out


def graded_dim(n, max_degree):
    """Number of multi-indices with |gamma| <= max_degree, C(N+n, n)."""
    return comb(max_degree + n, n)


def monomial_norm_sq_exact(gamma):
    """||z^gamma||^2 = gamma! * 2^{|gamma|} as an exact integer."""
    out = 1
    for g in gamma:
        out *= factorial(g) * 2**g
    return out


class MultiPolynomial:
    """Sparse polynomial sum_gamma c_gamma z^gamma.

    Parameters
    ----------
    n : int
        Number of variables.
    terms : dict, optional
        Multi-index tuple -> coefficient.  Zero coefficients are dropped.
    exact : bool
        Coefficient mode.  Exact polynomials carry GaussianRational
        coefficients; double polynomials carry Python complex.  Mixing
        modes in arithmetic raises ValueError.
    """

    __slots__ = ("n", "terms", "exact")

    def __init__(self, n, terms=None, exact=False):
        self.n = n
        self.exact = exact
        self.terms = {}
        if terms:
            for g, c in terms.items():
                if len(g) != n:
                    raise ValueError(f"index {g} has wrong length for n={n}")
                c = self._convert(c)
                if c != 0:
                    self.terms[tuple(g)] = c

    def _convert(self, c):
        if self.exact:
            if isinstance(c, GaussianRational):
                return c
            g = GaussianRational._coerce(c)
            if g is NotImplemented:
                raise TypeError(f"cannot use {type(c).__name__} as exact coefficient")
            return g
        return complex(c)

    @classmethod
    def zero(cls, n, exact=False):
        return cls(n, {}, exact=exact)

    @classmethod
    def constant(cls, n, c, exact=False):
        return cls(n, {(0,) * n: c}, exact=exact)

    @classmethod
    def variable(cls, n, i, exact=False):
        g = tuple(1 if j == i else 0 for j in range(n))
        one = GaussianRational(1) if exact else 1.0 + 0.0j
        return cls(n, {g: one}, exact=exact)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(g) for g in self.terms)

    def coefficient(self, gamma):
        gamma = tuple(gamma)
        if gamma in self.terms:
            return self.terms[gamma]
        return GaussianRational(0) if self.exact else 0j

    def _check_mode(self, other):
        if self.exact != other.exact:
            raise ValueError("cannot mix exact and double polynomials")
        if self.n != other.n:
            raise ValueError("cannot mix polynomials in different dimensions")

    def _as_poly(self, other):
        """Lift a scalar to a constant polynomial; NotImplemented if it is
        neither a scalar nor a compatible polynomial."""
        if isinstance(other, MultiPolynomial):
            return other
        try:
            c = self._convert(other)
        except (TypeError, ValueError):
            return NotImplemented
        return MultiPolynomial(self.n, {(0,) * self.n: c}, exact=self.exact)

    def __add__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_mode(other)
        t = dict(self.terms)
        for g, c in other.terms.items():
            s = t.get(g, 0) + c
            if s == 0:
                t.pop(g, None)
            else:
                t[g] = s
        out = MultiPolynomial(self.n, exact=self.exact)
        out.terms = t
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        c = self._convert(c)
        out = MultiPolynomial(self.n, exact=self.exact)
        if c == 0:
            return out
        out.terms = {g: cc * c for g, cc in self.terms.items()}
        return out

    def __mul__(self, other):
        if not isinstance(other, MultiPolynomial):
            try:
                return self.scale(other)
            except (TypeError, ValueError):
                return NotImplemented
        self._check_mode(other)
        t = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = tuple(a + b for a, b in zip(g1, g2))
                s = t.get(g, 0) + c1 * c2
                if s == 0:
                    t.pop(g, None)
                else:
                    t[g] = s
        out = MultiPolynomial(self.n, exact=self.exact)
        out.terms = t
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        one = GaussianRational(1) if self.exact else 1.0
        return _power(self, k, MultiPolynomial.constant(self.n, one, exact=self.exact))

    def truncate(self, max_degree):
        """Drop all terms of total degree > max_degree."""
        out = MultiPolynomial(self.n, exact=self.exact)
        out.terms = {g: c for g, c in self.terms.items() if sum(g) <= max_degree}
        return out

    def evaluate(self, z):
        """Evaluate at a point (sequence of n complex numbers)."""
        z = [complex(zi) for zi in z]
        total = 0j
        for g, c in self.terms.items():
            v = complex(c)
            for zi, gi in zip(z, g):
                if gi:
                    v *= zi**gi
            total += v
        return total

    def max_abs_coefficient(self):
        """Largest coefficient modulus; exact 0.0 for the zero polynomial."""
        if not self.terms:
            return 0.0
        return max(abs(complex(c)) for c in self.terms.values())

    def to_double(self):
        if not self.exact:
            return self
        out = MultiPolynomial(self.n, exact=False)
        out.terms = {g: complex(c) for g, c in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPolynomial):
            return NotImplemented
        return (
            self.n == other.n
            and self.exact == other.exact
            and self.terms == other.terms
        )

    def __repr__(self):
        k = len(self.terms)
        mode = "exact" if self.exact else "double"
        return f"MultiPolynomial(n={self.n}, {k} terms, {mode})"
