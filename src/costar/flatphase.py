"""Polynomial algebra on flat phase space R^{2n} with coordinates
(q1..qn, p1..pn), the Moyal family of bidifferential kernels for the
symplectic form sum_i dq^i ^ dp_i, and the codimension-one constraint
J = p_n with its prolongation/difference-quotient pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import add, methodcaller

from .scalar import (
    GaussianRational,
    I,
    TermRing,
    _merge,
    kernel_series,
    pairing_kernel,
)

ONE = GaussianRational(1)
HALF_I = I * Fraction(1, 2)


class FlatPoly(TermRing):
    """Polynomial in (q1..qn, p1..pn) over GaussianRational.

    terms maps exponent vectors of length 2n (q exponents first) to nonzero
    coefficients.  Monomials are linearly independent, so the stored form is
    canonical and structural equality is function equality.
    """

    __slots__ = ()
    _coefficients = GaussianRational

    def __init__(self, dim, terms=()):
        if dim < 1:
            raise ValueError("flat phase space needs dim >= 1")
        self.dim = dim
        out = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            key = tuple(key)
            if len(key) != 2 * dim or any(e < 0 for e in key):
                raise ValueError("bad exponent vector %r for dim %d" % (key, dim))
            _merge(out, key, GaussianRational.of(c))
        self.terms = out
        self._dcache = {}

    @staticmethod
    def constant(c, dim):
        return FlatPoly(dim, {(0,) * (2 * dim): GaussianRational.of(c)})

    @staticmethod
    def q(i, dim):
        # 1-based coordinate index
        if not 1 <= i <= dim:
            raise ValueError("q index out of range")
        key = [0] * (2 * dim)
        key[i - 1] = 1
        return FlatPoly(dim, {tuple(key): ONE})

    @staticmethod
    def p(i, dim):
        if not 1 <= i <= dim:
            raise ValueError("p index out of range")
        key = [0] * (2 * dim)
        key[dim + i - 1] = 1
        return FlatPoly(dim, {tuple(key): ONE})

    @staticmethod
    def _key_product(k1, k2):
        return tuple(map(add, k1, k2))

    def partial(self, idx):
        """Derivative by the 0-based coordinate index over (q1..qn, p1..pn)."""
        if not 0 <= idx < 2 * self.dim:
            raise ValueError("coordinate index out of range")
        cached = self._dcache.get(idx)
        if cached is not None:
            return cached
        out = {}
        for key, c in self.terms.items():
            e = key[idx]
            if e:
                _merge(out, key[:idx] + (e - 1,) + key[idx + 1:], c * e)
        res = FlatPoly._of_terms(self.dim, out)
        self._dcache[idx] = res
        return res


def poisson(f, g):
    """Canonical Poisson bracket sum_i (df/dq^i dg/dp_i - df/dp_i dg/dq^i)."""
    f._check(g)
    out = FlatPoly.zero(f.dim)
    for i in range(f.dim):
        out = out + f.partial(i) * g.partial(f.dim + i)
        out = out - f.partial(f.dim + i) * g.partial(i)
    return out


def _degrees(f):
    # largest exponent of each coordinate in f, all zero for the zero polynomial
    return tuple(map(max, zip(*f.terms))) if f.terms else (0,) * (2 * f.dim)


@cache
def _moyal_pairs(n):
    # d/dq^i f (x) d/dp_i g with sign +, then d/dp_i f (x) d/dq^i g with
    # sign -; each partial is called by name, so it is looked up per call
    d = [methodcaller("partial", i) for i in range(2 * n)]
    return (tuple((d[i], d[n + i], 1) for i in range(n))
            + tuple((d[n + i], d[i], -1) for i in range(n)))


def moyal_kernel(f, g, r):
    """Order-r Moyal bidifferential kernel M_r(f, g).

    M_r(f,g) = (i/2)^r sum over multi-indices s, t with |s|+|t| = r of
    (-1)^{|t|} / (s! t!) (d_q^s d_p^t f)(d_p^s d_q^t g), so that M_0 = fg and
    M_1(f,g) - M_1(g,f) = i {f, g}.  This is the order-r term of
    exp((i/2) sum_i (d_q^i (x) d_p_i - d_p_i (x) d_q^i)) on f (x) g.

    Only multi-indices with s_i <= min(deg_{q_i} f, deg_{p_i} g) and
    t_i <= min(deg_{p_i} f, deg_{q_i} g) are enumerated: every other term
    has an identically zero derivative.  So M_r(f, p_n) with r >= 2 takes
    no derivative at all.
    """
    f._check(g)  # before the degrees, which read the keys of g as flat
    n = f.dim
    fdeg, gdeg = _degrees(f), _degrees(g)
    caps = tuple(map(min, fdeg[:n], gdeg[n:])) + tuple(map(min, fdeg[n:], gdeg[:n]))
    return pairing_kernel(f, g, r, _moyal_pairs(n), caps, HALF_I)


def pn_kernel(f, r):
    """The Moyal kernel against the constraint, M_r(f, p_n): f p_n at
    r = 0, (i/2) df/dq^n at r = 1, and zero above, since p_n has one
    nonzero derivative, by p_n, which pairs with d/dq^n on f."""
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    if r == 0:
        return f * FlatPoly.p(f.dim, f.dim)
    if r == 1:
        return f.partial(f.dim - 1).scale(HALF_I)
    return FlatPoly.zero(f.dim)


def moyal_product(f, g, order):
    """Star product of f and g as a series truncated at the given order."""
    return kernel_series(moyal_kernel, f, g, order)


def prol(f):
    """Prolongation: substitute p_n = 0 and view the result ambiently.

    Read as a function on C = {p_n = 0}, the same substitution is the
    restriction.  Sections of C built this way are constant along the p_n
    direction, so prol is a projection with prol(prol f) = prol f.
    """
    idx = 2 * f.dim - 1
    return FlatPoly._of_terms(f.dim, {k: c for k, c in f.terms.items() if k[idx] == 0})


def pij(f):
    """Difference quotient (f - prol f) / p_n, exact on polynomials."""
    idx = 2 * f.dim - 1
    out = {}
    for key, c in f.terms.items():
        if key[idx]:
            out[key[:idx] + (key[idx] - 1,)] = c
    return FlatPoly._of_terms(f.dim, out)


def drop_last_pair(f):
    """Reinterpret a polynomial that does not involve (q^n, p_n) as a
    polynomial on the reduced space R^{2(n-1)}."""
    n = f.dim
    if n < 2:
        raise ValueError("cannot drop the only coordinate pair")
    out = {}
    for key, c in f.terms.items():
        if key[n - 1] or key[2 * n - 1]:
            raise ValueError("term %r involves the last coordinate pair" % (key,))
        out[key[:n - 1] + key[n:2 * n - 1]] = c
    return FlatPoly(n - 1, out)
