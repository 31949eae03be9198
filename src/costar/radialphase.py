"""Radial function algebra on C^{n+1} and its Wick-type star product.

Elements are finite sums of terms z^alpha zbar^beta R(u) where u = sum_i
z^i zbar^i and R is a rational function of u.  The symplectic form is
(i/2) sum_i dz^i ^ dzbar^i.  Two codimension-one constraints are provided,
both cutting out the sphere u = -2*mu (mu < 0):

    linear     J = -u/2 - mu
    quadratic  J = u^2/4 - mu^2

together with prolongation (pullback along the radial retraction
z -> sqrt(-2 mu / u) z), and the exact difference quotient against J.

The stored term representation is not unique for dim >= 2 (u may appear
either as a radial factor or expanded into monomials).  Equality therefore
goes through a normal form, one per class alpha - beta (_class_cells): the
numerators go over a common denominator in u and one integer, and a Horner
pass in u expands them into plain monomials with integer cells, where
coefficients are comparable.  is_zero reads those cells, and expansion()
turns them into scalars for scalar_ratio.  For dim == 1 the single pair
z^1 zbar^1 is rewritten into u on construction, which already makes the
stored form canonical.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache, reduce
from math import comb, factorial, lcm
from operator import add, methodcaller, sub

from .scalar import (
    GaussianRational,
    I,
    Jet,
    RadialRational,
    TermRing,
    UPoly,
    _merge,
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
    sphere-aware operations prol/pij.
    """

    __slots__ = ()
    _coefficients = RadialRational

    def __init__(self, dim, terms=()):
        if dim < 1:
            raise ValueError("radial algebra needs dim >= 1")
        self.dim = dim
        out = {}
        coefficient = self._coefficients
        items = terms.items() if isinstance(terms, dict) else terms
        for (alpha, beta), r in items:
            alpha, beta = tuple(alpha), tuple(beta)
            if len(alpha) != dim or len(beta) != dim:
                raise ValueError("exponent tuples must have length %d" % dim)
            if min(alpha + beta) < 0:
                raise ValueError("negative monomial exponent")
            r = coefficient.of(r)
            if dim == 1:
                # z^1 zbar^1 is u itself; strip the common power into R
                m = min(alpha[0], beta[0])
                if m:
                    r = r * coefficient.u_power(m)
                    alpha, beta = (alpha[0] - m,), (beta[0] - m,)
            _merge(out, (alpha, beta), r)
        self.terms = out
        self._dcache = {}

    @classmethod
    def from_radial(cls, r, dim):
        z = (0,) * dim
        return cls(dim, {(z, z): r})

    @classmethod
    def constant(cls, c, dim):
        return cls.from_radial(GaussianRational.of(c), dim)

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

    @classmethod
    def _of_raw_terms(cls, dim, terms):
        # raw keys are normal forms except in dim 1
        return cls(dim, terms) if dim == 1 else cls._of_terms(dim, terms)


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
        out = {}
        for key, r in self.terms.items():
            e = key[side][idx]
            if e:
                nk = list(key)
                nk[side] = _bump(key[side], idx, -1)
                _merge(out, tuple(nk), r.derivative_scale(e))
            dr = r.derivative()
            if not dr.is_zero():
                nk = list(key)
                nk[1 - side] = _bump(key[1 - side], idx, 1)
                _merge(out, tuple(nk), dr)
        res = self._of_raw_terms(self.dim, out)
        self._dcache[(side, idx)] = res
        return res

    def euler_e(self):
        """E = sum_i z^i d/dz^i; on a term: |alpha| R + u R'."""
        return euler_step(self, Z, 0)

    def euler_ebar(self):
        """Ebar = sum_i zbar^i d/dzbar^i; on a term: |beta| R + u R'."""
        return euler_step(self, ZBAR, 0)

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
        Each class alpha - beta is expanded on its own (_class_cells).
        """
        den = self.common_denominator() if den is None else den
        cells = {}
        for delta, terms in _classes(self).items():
            d, class_cells = _class_cells(terms, den)
            for alpha, (re, im) in class_cells.items():
                beta = tuple(map(sub, alpha, delta))
                cells[alpha, beta] = GaussianRational._make(re, im, d)
        return den, cells

    def is_zero(self):
        """True iff the terms sum to the zero function.

        Expanding u = sum_i z^i zbar^i raises alpha and beta by the same s,
        so every cell of a term z^alpha zbar^beta R(u) keeps the class
        alpha - beta, and terms of different classes never cancel.  A class
        of one stored term is nonzero: its cells with |s| = k carry the
        coefficient of u^k in the numerator of R.  So only the classes of
        two or more terms are decided, smallest first, up to the first
        nonzero one, each by the cells of its normal form (_class_cells).
        """
        classes = _classes(self)
        if any(len(terms) == 1 for terms in classes.values()):
            return False
        return all(not _class_cells(terms)[1]
                   for terms in sorted(classes.values(), key=len))

    def __eq__(self, other):
        # stored terms are not canonical, so unequal ones go to the normal form
        eq = TermRing.__eq__(self, other)
        return (self - other).is_zero() if eq is False else eq


def _classes(f):
    # the (key, RadialRational) pairs of f by their class alpha - beta
    classes = {}
    for key, r in f.terms.items():
        classes.setdefault(tuple(map(sub, *key)), []).append((key, r))
    return classes


def _class_cells(terms, den=None):
    """The normal form (d, cells) of the (key, RadialRational) pairs of one
    class delta = alpha - beta: they sum to the sum over the cells
    alpha -> (re, im) of (re + I*im)/(d den(u)) z^alpha zbar^(alpha - delta).

    The numerators go over den, given or else the lcm of the term
    denominators, and over the one integer d; where every denominator is
    a power of u, as on every output of prol, den is the highest of them
    and each numerator is only shifted by the difference of the degrees.
    Grouped by their power e of u into P_e keyed by alpha, the integer
    parts are expanded by Horner (_horner).
    """
    dens = [r.den.integers() for _, r in terms]
    # a monic denominator is u^deg iff it is real with no lower coefficient
    if den is None and all(im is None and not any(re[:-1]) for re, im, _ in dens):
        top = max(len(re) for re, _, _ in dens)
        nums = [(r.num, top - len(re)) for (_, r), (re, _, _) in zip(terms, dens)]
    else:
        den = reduce(UPoly.lcm, (r.den for _, r in terms)) if den is None else den
        nums = [(r.num * den.exact_div(r.den), 0) for _, r in terms]
    nums = [(num.integers(), shift) for num, shift in nums]
    d = lcm(*(q for (_, _, q), _ in nums))
    re_parts, im_parts = defaultdict(dict), defaultdict(dict)
    for ((alpha, _), _), ((re, im, q), shift) in zip(terms, nums):
        m = d // q
        for parts, coeffs in (re_parts, re), (im_parts, im or ()):
            for e, x in enumerate(coeffs, shift):
                if x:
                    part = parts[e]
                    part[alpha] = part.get(alpha, 0) + m * x
    dim = len(terms[0][0][0])
    re, im = _horner(re_parts, dim), _horner(im_parts, dim)
    return d, {alpha: (re.get(alpha, 0), im.get(alpha, 0)) for alpha in re | im}


def _horner(parts, dim):
    # the nonzero integer cells of sum_e parts[e] u^e: acc = acc*u + parts[e]
    # from the top e down, where the factor u = sum_i z^i zbar^i raises
    # alpha by each unit vector
    acc = {}
    for e in range(max(parts, default=-1), -1, -1):
        raised = dict(parts.get(e, ()))
        for alpha, c in acc.items():
            if c:
                for i in range(dim):
                    key = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    raised[key] = raised.get(key, 0) + c
        acc = raised
    return {alpha: c for alpha, c in acc.items() if c}


def scalar_ratio(x, y):
    """The scalar c with x = c*y, or None if there is no such scalar."""
    x._check(y)
    den = x.common_denominator().lcm(y.common_denominator())
    _, cy = y.expansion(den)
    if not cy:
        return None
    _, cx = x.expansion(den)
    key = min(cy)
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

    __slots__ = ("kind", "mu", "sphere_u", "_j")

    def __init__(self, kind, mu):
        if kind not in ("linear", "quadratic"):
            raise ValueError("constraint kind must be 'linear' or 'quadratic'")
        self.kind = kind
        self.mu = Fraction(mu)
        if self.mu >= 0:
            raise ValueError("mu must be negative")
        # the value of u on the constraint sphere, a simple zero of
        # J = -(u - a)/2 and of J = (u - a)(u + a)/4, since a > 0
        self.sphere_u = -2 * self.mu
        # J(u), built once: pij divides by it on every call
        if kind == "linear":
            self._j = RadialRational(UPoly((-self.mu, Fraction(-1, 2))))
        else:
            self._j = RadialRational(UPoly((-self.mu ** 2, 0, Fraction(1, 4))))

    @staticmethod
    def linear(mu):
        return RadialConstraint("linear", mu)

    @staticmethod
    def quadratic(mu):
        return RadialConstraint("quadratic", mu)

    def j_radial(self):
        return self._j

    def j(self, dim):
        return RadialFun.from_radial(self.j_radial(), dim)

    def kernel_parts(self):
        """parts[r] = (2^r/r!) J^(r) for r = 0..deg J, the radial parts of
        the Wick kernels against J (constraint_kernel)."""
        j, parts = self.j_radial(), []
        for r in range(j.num.degree() + 1):
            parts.append(j.scale(Fraction(2 ** r, factorial(r))))
            j = j.derivative()
        return parts


def _require_even(f, op):
    for key in f.terms:
        if (sum(key[0]) + sum(key[1])) % 2:
            raise ParityError(
                "%s needs even terms; found odd monomial degree in %r" % (op, key)
            )


@cache
def prolonged(a, h):
    # (a/u)^h = a^h u^-h, the prolongation of a key of degree 2h
    return RadialRational.u_power(-h).scale(GaussianRational.of(a ** h))


@cache
def prolonged_jet(a, h, n):
    # the jet of (a/u)^h at u = a + t to n >= 1 coefficients, the binomial
    # series (1 + t/a)^-h = sum_j (-1)^j C(h + j - 1, j) a^-j t^j (1 for h = 0)
    return UPoly([1] + [Fraction(comb(h + j - 1, j), (-a) ** j) for j in range(1, n)])


def prol(f, constraint):
    """Prolongation: pull the restriction of f back along z -> sqrt(a/u) z.

    On a term z^alpha zbar^beta R(u) of even degree 2h this gives
    R(a) (a/u)^h z^alpha zbar^beta, with a = -2*mu.  Homogeneous
    functions are fixed; prol is a projection onto scale-invariant functions.
    f may be a JetFun, whose Jet parts evaluate to their coefficient 0.
    """
    _require_even(f, "prolongation")
    a = constraint.sphere_u
    out = {}
    for key, r in f.terms.items():
        c = r.eval(a)
        if c:
            out[key] = prolonged(a, (sum(key[0]) + sum(key[1])) // 2).scale(c)
    return RadialFun._of_terms(f.dim, out)


def pij(f, constraint):
    """Exact difference quotient (f - prol f) / J.

    The quotient has no pole on the sphere u = a: each term of f - prol f
    has the radial part R(u) - R(a) (a/u)^h, which vanishes at a (prol
    raises the PoleError of a pole of R there first), and a is a simple
    zero of J.
    """
    g = f - prol(f, constraint)
    j = constraint.j_radial()
    return RadialFun._of_terms(f.dim, {key: r / j for key, r in g.terms.items()})


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


def constraint_kernel(parts):
    """The Wick kernel against the constraint, (f, r) -> M_r(f, J), from
    parts[r] = (2^r/r!) J^(r) (RadialConstraint.kernel_parts, or their
    jets for a JetFun f).

    J depends on z only through u, so d_zbar^s J = z^s J^(|s|)(u) and

        M_r(f, J) = (2^r/r!) J^(r)(u) sum_{|s|=r} (r!/s!) z^s d_z^s f
                  = (2^r/r!) J^(r)(u) E(E-1)...(E-r+1) f,

    the falling factorial of the Euler operator E, one euler_step per s.
    It is zero for r > deg J, where no derivative of f is taken.  z^i and
    d/dz^i obey the same relations on the stored terms, with u a letter of
    its own, as they do on functions, so the stored terms equal those of
    wick_kernel(f, J, r).
    """

    def kernel(f, r):
        if r < 0:
            raise ValueError("kernel order must be nonnegative")
        if r >= len(parts):
            return type(f).zero(f.dim)
        for s in range(r):
            f = euler_step(f, Z, s)
        return f * parts[r]

    return kernel


def euler_step(f, side, s):
    """(E - s) f for E = sum_i z^i d/dz^i (side Z) or Ebar (side ZBAR).

    On a term z^alpha zbar^beta R(u), E - s gives (|alpha| - s) R at the
    key, and u R' spelled as the product rule spells it: R' at the key
    raised by z^i zbar^i, for each i.  The side only picks |alpha| or
    |beta|, since u is symmetric in z and zbar.
    """
    out = {}
    for key, c in f.terms.items():
        e = sum(key[side]) - s
        if e:
            _merge(out, key, c.derivative_scale(e))
        dc = c.derivative()
        if dc:
            alpha, beta = key
            for i in range(f.dim):
                _merge(out, (_bump(alpha, i, 1), _bump(beta, i, 1)), dc)
    return f._of_raw_terms(f.dim, out)


class JetFun(RadialFun):
    """A RadialFun whose radial parts are Jets at the sphere (SphereJets).
    Its stored terms are its value: no jet is printed or respelled."""

    __slots__ = ()
    is_zero = TermRing.is_zero
    __eq__ = TermRing.__eq__


def _inverse(d, n):
    # 1/d mod t**n for a jet d with d(0) != 0
    d = d.coeffs
    inv = [1 / d[0]]
    for k in range(1, n):
        acc = sum((d[i] * inv[k - i] for i in range(1, min(k, len(d) - 1) + 1)), ZERO)
        inv.append(-acc * inv[0])
    return UPoly(inv)


@cache
def _jet_fun(a, top):
    # the JetFun class over the jets at u = a of at most top coefficients
    jet = type("Jet", (Jet,), {"__slots__": (), "a": a, "top": top})
    return type("JetFun", (JetFun,), {"__slots__": (), "_coefficients": jet})


class SphereJets:
    """Taylor jets in t = u - a at the sphere a = -2*mu for a transfer to
    order n: the ring (fun), the jets of J and of its kernel parts, and
    pij, for the jet PhaseSetup of reduction.radial_setup, whose prol is
    the prol above.  convert(f, m) gives the order-m coefficient
    2(n - m) + 1 coefficients, its deficit 2m (README, "Jets at the
    sphere").  The two series that pij reads are closed: the jets of
    (a/u)^h are binomial (prolonged_jet), and t/J is geometric.
    """

    __slots__ = ("order", "a", "fun", "j", "parts", "quotient")

    def __init__(self, constraint, parts, dim, order):
        # parts: constraint.kernel_parts(), which are polynomials in u
        self.order, self.a = order, constraint.sphere_u
        top = 2 * order + 1
        self.fun = _jet_fun(self.a, top)
        self.parts = [self.jet(p, top) for p in parts]
        # J(a + t) = parts[0], given at least 2 coefficients, so that
        # pij(J) = 1 keeps a coefficient at order 0
        j = self.jet(parts[0], max(top, 2))
        self.j = self.fun.from_radial(j, dim)
        # t/J(a + t) to top coefficients, for J(a + t) = b0 t + b1 t^2 with
        # b0 != 0 (b1 = 0 on the linear constraint): sum_k (-b1)^k/b0^(k+1) t^k
        b0, b1 = (j.p.coeffs + (ZERO,))[1:3]
        self.quotient = UPoly([(-b1) ** k / b0 ** (k + 1) for k in range(top)])

    def jet(self, r, n):
        """The Jet of the RadialRational r to n coefficients, num(a + t)
        times 1/den(a + t); a pole at a raises the PoleError of eval."""
        p = r.num.shifted(self.a, n)
        if r.den.degree() > 0:
            den = r.den.shifted(self.a, n)
            if not den.eval(0):
                r.eval(self.a)  # raises
            p = p.jet_mul(_inverse(den, n), n)
        return self.fun._coefficients(p, n)

    def convert(self, f, m):
        # f as coefficient m of a series of the order, checked as prol checks it
        n = 2 * (self.order - m) + 1
        _require_even(f, "prolongation")
        out = {}
        for key, r in f.terms.items():
            c = self.jet(r, n)
            if c:
                out[key] = c
        return self.fun._of_terms(f.dim, out)

    def pij(self, x):
        # (c - c(0) (a/u)^h) / t times t/J on each term: one coefficient less
        out = {}
        t = UPoly.u(1)
        jet = self.fun._coefficients
        for key, c in x.terms.items():
            p, n, c0 = c.p, c.n, c.eval(self.a)
            if c0:
                h = (sum(key[Z]) + sum(key[ZBAR])) // 2
                p = p - prolonged_jet(self.a, h, n).scale(c0)
            p = p.exact_div(t)
            if p:
                out[key] = jet(p.jet_mul(self.quotient, n - 1), n - 1)
        return self.fun._of_terms(x.dim, out)


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
