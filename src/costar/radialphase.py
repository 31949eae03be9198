"""Radial function algebra on C^{n+1} and its Wick-type star product.

Elements are finite sums of terms z^alpha zbar^beta R(u) where u = sum_i
z^i zbar^i and R is a rational function of u.  The symplectic form is
(i/2) sum_i dz^i ^ dzbar^i.  Two codimension-one constraints are provided,
both cutting out the sphere u = -2*mu (mu < 0):

    linear     J = -u/2 - mu
    quadratic  J = u^2/4 - mu^2

together with restriction to the sphere, prolongation (pullback along the
radial retraction z -> sqrt(-2 mu / u) z), and the exact difference
quotient against J.

The stored term representation is not unique for dim >= 2 (u may appear
either as a radial factor or expanded into monomials).  Equality therefore
goes through a normal form: numerators are expanded into plain monomials
over a common denominator in u, where coefficients are comparable.  For
dim == 1 the single pair z^1 zbar^1 is rewritten into u on construction,
which already makes the stored form canonical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, gcd
from operator import add, methodcaller, sub

from .scalar import (
    GaussianRational,
    I,
    PoleError,
    RadialRational,
    TermRing,
    UPoly,
    _compositions,
    _merge,
    _multi_factorial,
    kernel_series,
    pairing_kernel,
)

ZERO = GaussianRational(0)
# side of a term key (alpha, beta): the z exponents, or the zbar exponents
Z, ZBAR = 0, 1


class ParityError(ValueError):
    """A term of odd monomial degree fed into a radial-only operation."""


def _bump(exps, idx, step):
    return exps[:idx] + (exps[idx] + step,) + exps[idx + 1:]


class RadialFun(TermRing):
    """Finite sum of terms z^alpha zbar^beta R(u) on C^dim.

    terms maps (alpha, beta) pairs of exponent tuples to nonzero
    RadialRational parts.  Odd-degree terms are legal in the algebra (they
    occur transiently inside derivatives) but are rejected by the
    sphere-aware operations prol/pij/restrict.
    """

    __slots__ = ()
    _coefficients = RadialRational

    def __init__(self, dim, terms=()):
        if dim < 1:
            raise ValueError("radial algebra needs dim >= 1")
        self.dim = dim
        out = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (alpha, beta), r in items:
            alpha, beta = tuple(alpha), tuple(beta)
            if len(alpha) != dim or len(beta) != dim:
                raise ValueError("exponent tuples must have length %d" % dim)
            if any(e < 0 for e in alpha + beta):
                raise ValueError("negative monomial exponent")
            r = RadialRational.of(r)
            if dim == 1:
                # z^1 zbar^1 is u itself; strip the common power into R
                m = min(alpha[0], beta[0])
                if m:
                    r = r * RadialRational.u_power(m)
                    alpha, beta = (alpha[0] - m,), (beta[0] - m,)
            _merge(out, (alpha, beta), r)
        self.terms = out
        self._dcache = {}

    @staticmethod
    def from_radial(r, dim):
        z = (0,) * dim
        return RadialFun(dim, {(z, z): RadialRational.of(r)})

    @staticmethod
    def constant(c, dim):
        return RadialFun.from_radial(RadialRational.of(GaussianRational.of(c)), dim)

    @staticmethod
    def u(dim, power=1):
        return RadialFun.from_radial(RadialRational.u_power(power), dim)

    @staticmethod
    def z(i, dim):
        # 1-based coordinate index
        if not 1 <= i <= dim:
            raise ValueError("z index out of range")
        alpha = tuple(1 if k == i - 1 else 0 for k in range(dim))
        return RadialFun(dim, {(alpha, (0,) * dim): RadialRational.of(1)})

    @staticmethod
    def zbar(i, dim):
        if not 1 <= i <= dim:
            raise ValueError("zbar index out of range")
        beta = tuple(1 if k == i - 1 else 0 for k in range(dim))
        return RadialFun(dim, {((0,) * dim, beta): RadialRational.of(1)})

    @staticmethod
    def monomial(alpha, beta, radial=1):
        return RadialFun(len(alpha), [((alpha, beta), radial)])

    @staticmethod
    def _key_product(k1, k2):
        # raw sums: in dim 1, __init__ strips the common power of z zbar
        return tuple(map(add, k1[0], k2[0])), tuple(map(add, k1[1], k2[1]))


    def d_z(self, i):
        """Derivative by z^i (1-based); du/dz^i = zbar^i."""
        return self._derivative(Z, i - 1)

    def d_zbar(self, i):
        return self._derivative(ZBAR, i - 1)

    def _derivative(self, side, idx):
        # d/dzbar is d/dz with alpha and beta swapped: the monomial factor
        # lowers the exponent on its own side, and R(u) raises the other
        # side's, since du/dz^i = zbar^i
        if not 0 <= idx < self.dim:
            raise ValueError("coordinate index out of range")
        cached = self._dcache.get((side, idx))
        if cached is not None:
            return cached
        out = []
        for key, r in self.terms.items():
            e = key[side][idx]
            if e:
                nk = list(key)
                nk[side] = _bump(key[side], idx, -1)
                out.append((nk, r.scale(e)))
            dr = r.derivative()
            if not dr.is_zero():
                nk = list(key)
                nk[1 - side] = _bump(key[1 - side], idx, 1)
                out.append((nk, dr))
        res = RadialFun(self.dim, out)
        self._dcache[(side, idx)] = res
        return res

    def euler_e(self):
        """E = sum_i z^i d/dz^i; on a term: |alpha| R + u R'."""
        return self._euler(Z)

    def euler_ebar(self):
        """Ebar = sum_i zbar^i d/dzbar^i; on a term: |beta| R + u R'."""
        return self._euler(ZBAR)

    def _euler(self, side):
        u = RadialRational.u_power(1)
        out = {}
        for key, r in self.terms.items():
            nr = r.scale(sum(key[side])) + u * r.derivative()
            if not nr.is_zero():
                out[key] = nr
        return RadialFun._of_terms(self.dim, out)

    def common_denominator(self):
        den = UPoly.of(1)
        for r in self.terms.values():
            den = den.lcm(r.den)
        return den

    def expansion(self, den=None):
        """Normal form: (den, cells) with f = (sum cells) / den(u).

        Numerator u-powers are expanded into plain monomials, so cells maps
        (gamma, delta) to scalar coefficients; den stays a polynomial in u.
        A given den must be a common multiple of the term denominators.
        """
        den = self.common_denominator() if den is None else den
        cells = {}
        for (alpha, beta), r in self.terms.items():
            num = r.num * den.exact_div(r.den)
            for k, c in enumerate(num.coeffs):
                if c.is_zero():
                    continue
                for s in _compositions(k, self.dim):
                    key = (
                        tuple(x + y for x, y in zip(alpha, s)),
                        tuple(x + y for x, y in zip(beta, s)),
                    )
                    _merge(cells, key, c * (factorial(k) // _multi_factorial(s)))
        return den, cells

    @staticmethod
    def from_expansion(den, cells, dim):
        out = []
        for key, c in cells.items():
            out.append((key, RadialRational(UPoly.of(c), den)))
        return RadialFun(dim, out)

    def is_zero(self):
        """True iff the terms sum to the zero function.

        Expanding u = sum_i z^i zbar^i raises alpha and beta by the same s,
        so every cell of a term z^alpha zbar^beta R(u) keeps the class
        alpha - beta, and terms of different classes never cancel.  A class
        of one stored term is nonzero: its cells with |s| = k carry the
        coefficient of u^k in the numerator of R.  So only the classes of
        two or more terms are decided, smallest first, up to the first
        nonzero one, each on integer cells (_class_is_zero).
        """
        classes = {}
        for key, r in self.terms.items():
            classes.setdefault(tuple(map(sub, *key)), []).append((key, r))
        if any(len(terms) == 1 for terms in classes.values()):
            return False
        return all(_class_is_zero(terms, self.dim)
                   for terms in sorted(classes.values(), key=len))

    def __eq__(self, other):
        # stored terms are not canonical, so unequal ones go to the normal form
        eq = TermRing.__eq__(self, other)
        return (self - other).is_zero() if eq is False else eq


@cache
def _multinomials(k, dim):
    # (s, k!/s!) over the s with |s| = k: u^k = sum_s (k!/s!) z^s zbar^s
    return tuple((s, factorial(k) // _multi_factorial(s))
                 for s in _compositions(k, dim))


def _class_is_zero(terms, dim):
    """True iff the (key, RadialRational) pairs of one class alpha - beta
    sum to zero, decided as expansion decides it, on integer cells.

    The numerators are brought over one denominator D(u) and one integer
    d, so that term i reads (re_i + I*im_i)(u) / (d D(u)) with integer
    lists re_i and im_i; then u^k of term (alpha, beta) adds (k!/s!) times
    its integer pair to the cell alpha + s for each |s| = k, and the class
    is zero iff every cell is.  Where every denominator is a power of u,
    as on every output of prol, D = u^top and numerator i is only shifted
    by top - deg den_i.
    """
    dens = [r.den for _, r in terms]
    # a monic denominator is u^deg iff it is real with no lower coefficient
    if all(im is None and not any(re[:-1])
           for re, im, _ in map(UPoly.integers, dens)):
        top = max(map(UPoly.degree, dens))
        nums = [(r.num, top - r.den.degree()) for _, r in terms]
    else:
        den = UPoly.of(1)
        for d in dens:
            den = den.lcm(d)
        nums = [(r.num * den.exact_div(r.den), 0) for _, r in terms]
    nums = [(num.integers(), shift) for num, shift in nums]
    d = 1
    for (_, _, den), _ in nums:
        d = d * den // gcd(d, den)
    re_cells, im_cells = {}, {}
    for ((alpha, _), _), ((re, im, den), shift) in zip(terms, nums):
        m = d // den
        for k, x in enumerate(re, shift):
            y = im[k - shift] if im is not None else 0
            if not x and not y:
                continue
            for s, c in _multinomials(k, dim):
                cell = tuple(map(add, alpha, s))
                if x:
                    re_cells[cell] = re_cells.get(cell, 0) + c * m * x
                if y:
                    im_cells[cell] = im_cells.get(cell, 0) + c * m * y
    return not any(re_cells.values()) and not any(im_cells.values())


def scalar_ratio(x, y):
    """The scalar c with x = c*y, or None if there is no such scalar."""
    x._check(y)
    if y.is_zero():
        return None
    den = x.common_denominator().lcm(y.common_denominator())
    _, cx = x.expansion(den)
    _, cy = y.expansion(den)
    key = sorted(cy)[0]
    c = cx.get(key, ZERO) / cy[key]
    for k in set(cx) | set(cy):
        if cx.get(k, ZERO) != cy.get(k, ZERO) * c:
            return None
    return c


def is_homogeneous(f):
    """True iff f is invariant under complex scaling, i.e. Ef = Ebar f = 0."""
    return f.euler_e().is_zero() and f.euler_ebar().is_zero()


class RadialConstraint:
    """Radial constraint J(u) with regular zero on the sphere u = -2*mu."""

    __slots__ = ("kind", "mu")

    def __init__(self, kind, mu):
        if kind not in ("linear", "quadratic"):
            raise ValueError("constraint kind must be 'linear' or 'quadratic'")
        self.kind = kind
        self.mu = Fraction(mu)
        if self.mu >= 0:
            raise ValueError("mu must be negative")
        a = self.sphere_u
        j = self.j_radial()
        if not j.eval(a).is_zero():
            raise ValueError("constraint does not vanish on the sphere")
        if j.derivative().eval(a).is_zero():
            raise ValueError("sphere is not a regular zero of the constraint")

    @staticmethod
    def linear(mu):
        return RadialConstraint("linear", mu)

    @staticmethod
    def quadratic(mu):
        return RadialConstraint("quadratic", mu)

    @property
    def sphere_u(self):
        # value of u on the constraint sphere
        return -2 * self.mu

    def j_radial(self):
        if self.kind == "linear":
            return RadialRational(UPoly((-self.mu, Fraction(-1, 2))))
        return RadialRational(UPoly((-self.mu ** 2, 0, Fraction(1, 4))))

    def j(self, dim):
        return RadialFun.from_radial(self.j_radial(), dim)


def _require_even(f, op):
    for key in f.terms:
        if (sum(key[0]) + sum(key[1])) % 2:
            raise ParityError(
                "%s needs even terms; found odd monomial degree in %r" % (op, key)
            )


def restrict(f, constraint):
    """Restriction to the sphere: evaluate every radial part at u = -2*mu.

    The monomials are kept, so == between restrictions depends on how the
    inputs spell u; compare on the sphere through prol (vanishes_on_c)."""
    _require_even(f, "restriction")
    a = constraint.sphere_u
    out = []
    for key, r in f.terms.items():
        out.append((key, RadialRational.of(r.eval(a))))
    return RadialFun(f.dim, out)


def prol(f, constraint):
    """Prolongation: pull the restriction of f back along z -> sqrt(a/u) z.

    On a term z^alpha zbar^beta R(u) of even degree d this gives
    a^{d/2} u^{-d/2} z^alpha zbar^beta R(a), with a = -2*mu.  Homogeneous
    functions are fixed; prol is a projection onto scale-invariant functions.
    """
    _require_even(f, "prolongation")
    a = constraint.sphere_u
    out = {}
    for key, r in f.terms.items():
        d = sum(key[0]) + sum(key[1])
        val = r.eval(a) * GaussianRational.of(a ** (d // 2))
        if not val.is_zero():
            out[key] = RadialRational.u_power(-(d // 2)).scale(val)
    return RadialFun._of_terms(f.dim, out)


def pij(f, constraint):
    """Exact difference quotient (f - prol f) / J.

    The per-term radial numerator vanishes on the sphere, so the quotient
    stays pole-free there; a residual pole would mean the prolongation and
    the constraint disagree, which is reported rather than simplified away.
    """
    g = f - prol(f, constraint)
    j = constraint.j_radial()
    a = constraint.sphere_u
    out = {}
    for key, r in g.terms.items():
        q = r / j
        if q.den.eval(a).is_zero():
            raise PoleError(
                "difference quotient left a pole at u = %s" % (a,)
            )
        out[key] = q
    return RadialFun._of_terms(f.dim, out)


@cache
def _wick_pairs(n):
    # d/dz^i f (x) d/dzbar^i g, each called by name as _derivative
    return tuple((methodcaller("_derivative", Z, i),
                  methodcaller("_derivative", ZBAR, i), 1) for i in range(n))


def wick_kernel(f, g, r):
    """Order-r Wick bidifferential kernel.

    M_r(f,g) = (2^r / r!) sum over r-tuples of indices of
    (d^r f / dz^{i_1}..dz^{i_r}) (d^r g / dzbar^{i_1}..dzbar^{i_r}),
    grouped by multi-index; the normalization makes M_0 = fg and
    M_1(f,g) - M_1(g,f) = i {f, g} for the form (i/2) sum dz^i ^ dzbar^i.
    This is the order-r term of exp(2 sum_i d_z^i (x) d_zbar^i) on f (x) g;
    no multi-index entry exceeds r.
    """
    return pairing_kernel(f, g, r, _wick_pairs(f.dim), (r,) * f.dim, 2)


def _constraint_parts(constraint):
    # parts[r] = (2^r/r!) J^(r) for r = 0..deg J
    j, parts = constraint.j_radial(), []
    for r in range(j.num.degree() + 1):
        parts.append(j.scale(Fraction(2 ** r, factorial(r))))
        j = j.derivative()
    return parts


def constraint_kernel(constraint):
    """The Wick kernel against the constraint, (f, r) -> M_r(f, J).

    J depends on z only through u, so d_zbar^s J = z^s J^(|s|)(u) and

        M_r(f, J) = (2^r/r!) J^(r)(u) sum_{|s|=r} (r!/s!) z^s d_z^s f
                  = (2^r/r!) J^(r)(u) E(E-1)...(E-r+1) f,

    the falling factorial of the Euler operator E.  It is zero for
    r > deg J, where no derivative of f is taken.  z^i and d/dz^i obey the
    same relations on the stored terms, with u a letter of its own, as
    they do on functions.  So where E spells u R' as the product rule
    does, R' at the key raised by z^i zbar^i for each i, the stored terms
    equal those of wick_kernel(f, J, r).  euler_e spells it as u R' at the
    key instead, which restrict keeps apart from the sum.
    """
    parts = _constraint_parts(constraint)

    def kernel(f, r):
        if r < 0:
            raise ValueError("kernel order must be nonnegative")
        if r >= len(parts):
            return RadialFun.zero(f.dim)
        for s in range(r):
            # E - s: (|alpha| - s) R at the key, and R' at each raised key
            out = []
            for key, c in f.terms.items():
                e = sum(key[Z]) - s
                if e:
                    out.append((key, c.scale(e)))
                dc = c.derivative()
                if dc:
                    alpha, beta = key
                    for i in range(f.dim):
                        out.append(((_bump(alpha, i, 1), _bump(beta, i, 1)), dc))
            f = RadialFun(f.dim, out)
        return f * parts[r]

    return kernel


def _lengths(n):
    # the jet length of order m in a transfer to order n: 2(n - m) + 1
    return [2 * (n - m) + 1 for m in range(n + 1)]


@cache
def _wick_weights(r, dim):
    # (k, 2^r/k!) for the multi-indices k of order r, the terms of M_r
    return tuple((k, Fraction(2 ** r, _multi_factorial(k)))
                 for k in _compositions(r, dim))


class _SphereJets:
    """Taylor jets in t = u - a at the sphere a = -2*mu, for one transfer.

    A jet is a UPoly in t that holds the first coefficients of a radial
    part; the caller tracks how many are exact.  The terms of a function
    become a dict from its keys to jets.  The jets of radial parts and the
    inverse jets are cached by value and length: the terms of one series
    repeat a few dozen radial parts.
    """

    __slots__ = ("a", "dim", "parts", "jets", "inverses", "prolongations",
                 "quotient", "u_jet")

    def __init__(self, constraint, dim):
        self.a = constraint.sphere_u
        self.dim = dim
        self.parts = _constraint_parts(constraint)
        self.jets, self.inverses, self.prolongations = {}, {}, {}
        self.u_jet = UPoly((self.a, 1))  # u = a + t
        # J(a + t) / t, whose inverse is t/J: J has the simple zero t = 0
        j = constraint.j_radial().num.shifted(self.a, len(self.parts))
        self.quotient = j.exact_div(UPoly.u(1))

    def inverse(self, d, n):
        # 1/d mod t**n for a jet d with d(0) != 0
        key = (d, n)
        out = self.inverses.get(key)
        if out is None:
            d = d.coeffs
            inv = [1 / d[0]]
            for k in range(1, n):
                acc = ZERO
                for i in range(1, min(k, len(d) - 1) + 1):
                    acc = acc + d[i] * inv[k - i]
                inv.append(-acc * inv[0])
            out = self.inverses[key] = UPoly(inv)
        return out

    def of(self, r, n):
        """The jet of the RadialRational r to n coefficients, num(a + t)
        times 1/den(a + t); a pole at a raises the PoleError of eval."""
        key = (r, n)
        out = self.jets.get(key)
        if out is None:
            out = r.num.shifted(self.a, n)
            if r.den.degree() > 0:
                den = r.den.shifted(self.a, n)
                if not den.eval(0):
                    r.eval(self.a)  # raises
                out = out.jet_mul(self.inverse(den, n), n)
            self.jets[key] = out
        return out

    def convert(self, f, n):
        # the terms of f as jets of n coefficients, checked as prol checks them
        _require_even(f, "prolongation")
        out = {}
        for key, r in f.terms.items():
            c = self.of(r, n)
            if c:
                out[key] = c
        return out

    def prolonged(self, h):
        # (a/u)^h = a^h u^-h, the prolongation of a key of degree 2h
        out = self.prolongations.get(h)
        if out is None:
            out = self.prolongations[h] = RadialRational.u_power(-h).scale(
                GaussianRational.of(self.a ** h))
        return out

    def prol(self, x):
        # x(0) (a/u)^h on a key of degree 2h, as prol reads r(a) off its terms
        out = {}
        for key, c in x.items():
            c0 = c.eval(0)
            if c0:
                h = (sum(key[Z]) + sum(key[ZBAR])) // 2
                out[key] = self.prolonged(h).scale(c0)
        return RadialFun._of_terms(self.dim, out)

    def pij(self, x, n):
        # (x - x(0) (a/u)^h) / t times t/J: n - 1 coefficients from n
        out = {}
        quotient = self.inverse(self.quotient, n - 1)
        t = UPoly.u(1)
        for key, c in x.items():
            c0 = c.eval(0)
            if c0:
                h = (sum(key[Z]) + sum(key[ZBAR])) // 2
                c = c - self.of(self.prolonged(h), n).scale(c0)
            c = c.exact_div(t)
            if c:
                out[key] = c.jet_mul(quotient, n - 1)
        return out

    def euler(self, x, s, n):
        """E - s as constraint_kernel spells it, to n coefficients: (|alpha|
        - s) x at the key and x' at each raised key; in dim 1 __init__
        strips z zbar into u, so x' (a + t) at the key itself."""
        out = {}
        for key, c in x.items():
            e = sum(key[Z]) - s
            if e:
                _merge(out, key, c.truncated(n).scale(e))
            dc = c.derivative().truncated(n)
            if dc:
                if self.dim == 1:
                    _merge(out, key, dc.jet_mul(self.u_jet, n))
                    continue
                alpha, beta = key
                for i in range(self.dim):
                    _merge(out, (_bump(alpha, i, 1), _bump(beta, i, 1)), dc)
        return out

    def derivative(self, x, side, idx, n):
        """d/dz^i (side Z) or d/dzbar^i (side ZBAR), i = idx + 1, as
        RadialFun._derivative spells it, to n coefficients: e x at the key
        lowered on its own side, and x' at the key raised on the other.
        In dim 1 the keys are left unfolded: the derivatives keep the ideal
        of z zbar - u, so multiply's fold gives the terms of the folded
        derivatives."""
        out = {}
        for key, c in x.items():
            e = key[side][idx]
            if e:
                nk = list(key)
                nk[side] = _bump(key[side], idx, -1)
                _merge(out, tuple(nk), c.truncated(n).scale(e))
            dc = c.derivative().truncated(n)
            if dc:
                nk = list(key)
                nk[1 - side] = _bump(key[1 - side], idx, 1)
                _merge(out, tuple(nk), dc)
        return out

    def derived(self, memo, k, side, n):
        # D^k x for the multi-index k, from memo, which maps multi-indices
        # to jets and holds x at k = 0 with n coefficients; D^k x has
        # n - |k| of them
        out = memo.get(k)
        if out is None:
            i = max(i for i, e in enumerate(k) if e)
            prev = self.derived(memo, _bump(k, i, -1), side, n)
            out = memo[k] = self.derivative(prev, side, i, n - sum(k)) if prev else {}
        return out

    def multiply(self, out, x, y, w, n):
        # add w x y to out, to n coefficients, with the keys added as
        # RadialFun._key_product adds them and folded in dim 1 as __init__
        # strips z^m zbar^m into u^m
        for (alpha, beta), c in x.items():
            c = c.truncated(n)
            if w != 1:
                c = c.scale(w)
            for (gamma, delta), d in y.items():
                key = tuple(map(add, alpha, gamma)), tuple(map(add, beta, delta))
                p = c.jet_mul(d, n)
                if self.dim == 1:
                    m = min(key[Z][0], key[ZBAR][0])
                    if m:
                        key = (key[Z][0] - m,), (key[ZBAR][0] - m,)
                        p = p.jet_mul(self.u_jet ** m, n)
                _merge(out, key, p)

    def wick(self, fs, gs, n):
        """The jets of a_m = sum_{j+k+r=m} M_r(f_j, g_k) for m = 0..n, the
        coefficients of star_series(fs, gs), to 2(n - m) + 1 coefficients.

        M_r(f, g) = sum_{|k|=r} (2^r/k!) D^k f Dbar^k g is the sum that
        wick_kernel takes, D^k the derivatives by z and Dbar^k those by
        zbar.  f_j is converted once, to 2(n - j) + 1 coefficients, and
        D^k f_j is memoised per multi-index k, to 2(n - j) + 1 - |k|: enough,
        as M_r(f_j, g_k) feeds a_{j+k+r}, of length 2(n - j - k - r) + 1.
        The key of each term is the key that star_series stores it at, and
        its jet the jet of what it stores there, so the sums of the jets at
        each key are the jets of the terms of a_m.  The coefficients are
        converted f_0 .. f_n, then g_0 .. g_n, and convert raises prol's
        ParityError or PoleError for the first odd term or pole at a.
        """
        lengths = _lengths(n)
        zero = (0,) * self.dim
        fd = [{zero: self.convert(fs[j], lengths[j])} for j in range(n + 1)]
        gd = [{zero: self.convert(gs[j], lengths[j])} for j in range(n + 1)]
        a = [{} for _ in range(n + 1)]
        for j in range(n + 1):
            for k in range(n + 1 - j):
                if not fd[j][zero] or not gd[k][zero]:
                    continue
                for r in range(n + 1 - j - k):
                    for idx, w in _wick_weights(r, self.dim):
                        df = self.derived(fd[j], idx, Z, lengths[j])
                        dg = self.derived(gd[k], idx, ZBAR, lengths[k])
                        if df and dg:
                            self.multiply(a[j + k + r], df, dg, w, lengths[j + k + r])
        return a

    def transfer(self, a, n):
        """prol(h_m) for h = T(a), yielded for m = 0..n, from the iterable
        a of the jets of a_0 .. a_n, to 2(n - m) + 1 coefficients each; a_m
        is read at order m.

        It runs the forward substitution h_m = a_m - sum_k M_k(pi_J
        h_{m-k}, J) of reduction.transfer_series on the jets.  prol reads
        only the values h_m(a) of the radial parts, and every step is a map
        on the stored terms key by key (pij, the Euler steps of
        constraint_kernel, the product by parts[r]), so the jets of the
        terms of h_m carry all that the answer needs, and prol yields the
        same terms as on h_m.

        Lengths: prol(h_n) needs coefficient 0 of h_n only.  A term of h_m
        reaches h_{m+k} through pij, which divides by t, and k Euler steps,
        each of which differentiates; each loses the top coefficient.  So
        h_m needs L_m >= L_{m+k} + k + 1 coefficients for every k >= 1, and
        the largest bound, at k = 1, gives L_m = 2(n - m) + 1.
        """
        lengths = _lengths(n)
        pending = [{} for _ in range(n + 1)]  # -sum_k M_k(pi_J h_{m-k}, J)
        for m, h in enumerate(a):
            for key, c in pending[m].items():
                _merge(h, key, c)
            yield self.prol(h)
            if m == n:
                break
            # M_k(pi_J h_m, J) = parts[k] (E - k + 1) ... (E - 1) E pi_J h_m
            x = self.pij(h, lengths[m])
            for k in range(1, min(len(self.parts), n - m + 1)):
                x = self.euler(x, k - 1, lengths[m] - 1 - k)
                part, out = self.of(-self.parts[k], lengths[m + k]), pending[m + k]
                for key, c in x.items():
                    _merge(out, key, c.jet_mul(part, lengths[m + k]))


def prol_transfer(series, constraint):
    """prol(T(series)) for a sphere constraint, yielded order by order.

    _SphereJets.transfer runs the forward substitution of
    reduction.transfer_series on Taylor jets in t = u - a at the sphere
    a = -2*mu, with no rational function of u inside it, and gives the
    same terms as prol on each order of transfer_series.

    Errors: the odd terms and the poles at a of h_m are those of a_m, as
    the kernel terms are even and pole-free there.  So a_m is checked as
    prol checks h_m: a ParityError naming its first odd key, then the
    PoleError of RadialRational.eval.  a_0 .. a_{n-1} are checked before the
    first yield and a_n before the last, where transfer_series and prol
    check them; so in_istar stops at the same order.
    """
    n = series.order
    jets = _SphereJets(constraint, series[0].dim)
    lengths = _lengths(n)
    converted = [jets.convert(series[m], lengths[m]) for m in range(n)]
    top = (jets.convert(series[n], lengths[n]) for _ in (n,))
    yield from jets.transfer(chain(converted, top), n)


def prol_transfer_star(fs, gs, constraint):
    """prol(T(fs * gs)) for a sphere constraint, yielded order by order,
    with the Wick product taken on jets from the factors
    (_SphereJets.wick): no product, sum or gcd of rational functions of u
    comes between the factors and prol.  The terms are those of
    prol_transfer on star_series(fs, gs) with the Wick kernels.

    A factor coefficient up to the order of the product with an odd term
    or a pole at a raises prol's ParityError or PoleError, before the
    first yield, even where the product would have none.
    """
    fs[0]._check(gs[0])
    n = min(fs.order, gs.order)
    jets = _SphereJets(constraint, fs[0].dim)
    yield from jets.transfer(jets.wick(fs, gs, n), n)


def wick_product(f, g, order):
    """Wick star product as a series truncated at the given order."""
    return kernel_series(wick_kernel, f, g, order)


def poisson(f, g):
    """Poisson bracket -2i sum_i (d_z^i f d_zbar^i g - d_z^i g d_zbar^i f),
    the bracket of (i/2) sum dz^i ^ dzbar^i; equals -i (M_1(f,g) - M_1(g,f))."""
    f._check(g)
    acc = RadialFun.zero(f.dim)
    for i in range(1, f.dim + 1):
        acc = acc + f.d_z(i) * g.d_zbar(i) - g.d_z(i) * f.d_zbar(i)
    return acc.scale(I * (-2))
