"""Polynomial algebra on flat phase space R^{2n} with coordinates
(q1..qn, p1..pn), the Moyal family of bidifferential kernels for the
symplectic form sum_i dq^i ^ dp_i, and the codimension-one constraint
J = p_n with its prolongation/difference-quotient pair.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import (
    GaussianRational,
    I,
    LambdaSeries,
    TermRing,
    _compositions,
    _multi_factorial,
)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
HALF_I = I * Fraction(1, 2)


class FlatPoly(TermRing):
    """Polynomial in (q1..qn, p1..pn) over GaussianRational.

    terms maps exponent vectors of length 2n (q exponents first) to nonzero
    coefficients.  Monomials are linearly independent, so the stored form is
    canonical and structural equality is function equality.
    """

    __slots__ = ()

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
            c = GaussianRational.of(c)
            if key in out:
                c = out[key] + c
            if c.is_zero():
                out.pop(key, None)
            else:
                out[key] = c
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

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, ZERO) + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return FlatPoly(self.dim, out)

    def __neg__(self):
        return FlatPoly(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(key, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return FlatPoly(self.dim, out)

    def scale(self, c):
        c = GaussianRational.of(c)
        if c.is_zero():
            return FlatPoly.zero(self.dim)
        return FlatPoly(self.dim, {k: v * c for k, v in self.terms.items()})

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
                nk = key[:idx] + (e - 1,) + key[idx + 1:]
                s = out.get(nk, ZERO) + c * e
                if s.is_zero():
                    out.pop(nk, None)
                else:
                    out[nk] = s
        res = FlatPoly(self.dim, out)
        self._dcache[idx] = res
        return res

    def dq(self, i):
        return self.partial(i - 1)

    def dp(self, i):
        return self.partial(self.dim + i - 1)

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, FlatPoly) or other.dim != self.dim:
            return NotImplemented
        return self.terms == other.terms


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


def _multi_partial(f, qexp, pexp):
    out = f
    for i, e in enumerate(qexp):
        for _ in range(e):
            out = out.partial(i)
            if out.is_zero():
                return out
    for i, e in enumerate(pexp):
        for _ in range(e):
            out = out.partial(f.dim + i)
            if out.is_zero():
                return out
    return out


def moyal_kernel(f, g, r):
    """Order-r Moyal bidifferential kernel M_r(f, g).

    M_r(f,g) = (i/2)^r sum over multi-indices s, t with |s|+|t| = r of
    (-1)^{|t|} / (s! t!) (d_q^s d_p^t f)(d_p^s d_q^t g), so that M_0 = fg and
    M_1(f,g) - M_1(g,f) = i {f, g}.

    Only multi-indices with s_i <= min(deg_{q_i} f, deg_{p_i} g) and
    t_i <= min(deg_{p_i} f, deg_{q_i} g) are enumerated, and only orders
    |s| that leave |t| within its caps: every other term has an
    identically zero derivative.  So M_r(f, p_n) with r >= 2 takes no
    derivative at all.
    """
    f._check(g)
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    n = f.dim
    fdeg, gdeg = _degrees(f), _degrees(g)
    scap = tuple(map(min, fdeg[:n], gdeg[n:]))
    tcap = tuple(map(min, fdeg[n:], gdeg[:n]))
    acc = FlatPoly.zero(n)
    for js in range(max(0, r - sum(tcap)), min(r, sum(scap)) + 1):
        for s in _compositions(js, scap):
            df = _multi_partial(f, s, (0,) * n)
            if df.is_zero():
                continue
            for t in _compositions(r - js, tcap):
                dft = _multi_partial(df, (0,) * n, t)
                if dft.is_zero():
                    continue
                dg = _multi_partial(_multi_partial(g, t, (0,) * n), (0,) * n, s)
                if dg.is_zero():
                    continue
                sign = -1 if (r - js) % 2 else 1
                c = Fraction(sign, _multi_factorial(s) * _multi_factorial(t))
                acc = acc + (dft * dg).scale(c)
    return acc.scale(HALF_I ** r)


def moyal_product(f, g, order):
    """Star product of f and g as a series truncated at the given order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return LambdaSeries(tuple(moyal_kernel(f, g, r) for r in range(order + 1)))


def prol(f):
    """Prolongation: substitute p_n = 0 and view the result ambiently.

    Read as a function on C = {p_n = 0}, the same substitution is the
    restriction.  Sections of C built this way are constant along the p_n
    direction, so prol is a projection with prol(prol f) = prol f.
    """
    idx = 2 * f.dim - 1
    return FlatPoly(f.dim, {k: c for k, c in f.terms.items() if k[idx] == 0})


def pij(f):
    """Difference quotient (f - prol f) / p_n, exact on polynomials."""
    idx = 2 * f.dim - 1
    out = {}
    for key, c in f.terms.items():
        if key[idx]:
            out[key[:idx] + (key[idx] - 1,)] = c
    return FlatPoly(f.dim, out)


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
