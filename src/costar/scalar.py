"""Exact scalar layer: Gaussian rationals, rational functions of the radius
variable u, truncated formal series in the deformation parameter, and the
ring skeleton the phase-space algebras share.

Everything here is exact.  There are no floats anywhere in the engine; all
higher layers (phase-space algebras, products, coefficient tables) reduce to
the arithmetic in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import factorial
from math import gcd as _int_gcd
from operator import add, mul, neg, sub


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function where its reduced denominator vanishes."""


class AlgebraMismatchError(TypeError):
    """Binary operation between values that do not live in the same algebra."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def _operand(of, x):
    # of(x), or NotImplemented for an operand that of cannot read: so the
    # scalar operators let I * f or r * f reach the reflected operator of a
    # phase-space element f
    try:
        return of(x)
    except TypeError:
        return NotImplemented


def _power(base, n, one):
    # base ** n for an int n >= 0 by square-and-multiply; the base is not
    # squared past the top bit of n, where that square would go unused
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class TermRing:
    """Ring skeleton shared by the phase-space algebras FlatPoly and RadialFun.

    An element lives on a phase space of dimension dim and is stored as the
    dict terms, from keys to nonzero coefficients; _dcache memoises its
    first derivatives.  A subclass supplies __init__(dim, terms), which
    normalises the keys, constant(c, dim), _key_product(k1, k2) and
    _coefficients, the type of the stored coefficients; the rest of the
    ring is built here.  Operand checks test type(other) first, so that
    an element never reaches the ABCMeta check of Fraction.
    """

    __slots__ = ("dim", "terms", "_dcache")

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def one(cls, dim):
        return cls.constant(1, dim)

    @classmethod
    def _of_terms(cls, dim, terms):
        # trusted constructor: the keys of the dict terms are already in
        # normal form and its values nonzero, so __init__'s pass is skipped
        self = cls.__new__(cls)
        self.dim = dim
        self.terms = terms
        self._dcache = {}
        return self

    # trusted constructor from a dict of merged nonzero terms at raw key
    # products, which a subclass whose keys need normalising overrides
    _of_raw_terms = _of_terms

    def _coerce(self, other):
        # a bare scalar stands for the constant function
        if type(other) is not type(self) and isinstance(
                other, (int, Fraction, GaussianRational)):
            return self.constant(other, self.dim)
        return other

    def is_zero(self):
        return not self.terms

    def scale(self, c):
        c = GaussianRational.of(c)
        if c.is_zero():
            return self.zero(self.dim)
        return self._of_terms(self.dim, {k: v.scale(c) for k, v in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise AlgebraMismatchError(
                "expected a %s, got %r" % (type(self).__name__, other)
            )
        if other.dim != self.dim:
            raise AlgebraMismatchError(
                "dimension mismatch: %d vs %d" % (self.dim, other.dim)
            )

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, type(self)) or other.dim != self.dim:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        # elements are immutable, so a sum with zero can be the other operand
        if not self.terms or not other.terms:
            return other if not self.terms else self
        out = dict(self.terms)
        for key, c in other.terms.items():
            _merge(out, key, c)
        return self._of_terms(self.dim, out)

    def __neg__(self):
        return self._of_terms(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, c in other.terms.items():
            # s - c where self has the key, so no -c is built there
            s = out.get(key)
            if s is None:
                out[key] = -c
            else:
                c = s - c
                if c.is_zero():
                    del out[key]
                else:
                    out[key] = c
        return self._of_terms(self.dim, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not type(self):
            if isinstance(other, (int, Fraction, GaussianRational)):
                return self.scale(other)
            if isinstance(other, self._coefficients):
                # multiplies every term, though a sum does not coerce it
                terms = {k: v * other for k, v in self.terms.items()}
                return type(self)(self.dim, terms)
        self._check(other)
        out = {}
        self._product_into(out, other, 1)
        return self._of_raw_terms(self.dim, out)

    def _product_into(self, out, other, w):
        # add w * self * other to the dict out at the raw key products, which
        # the subclass's __init__ normalises; w scales each term of self once
        key_product, scaled = self._key_product, w != 1
        terms = other.terms.items()
        for k1, c1 in self.terms.items():
            if scaled:
                c1 = c1.scale(w)
            for k2, c2 in terms:
                _merge(out, key_product(k1, k2), c1 * c2)

    # a reflected operand is a scalar, and both coefficient rings commute
    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, n, self.one(self.dim))

    def sorted_terms(self):
        # keys are unique, so the sort never compares two values
        return sorted(self.terms.items())

    def __repr__(self):
        return "%s(%d, %r)" % (type(self).__name__, self.dim, self.sorted_terms())

    __hash__ = None


def _merge(out, key, c):
    # add the term c at key into the dict out, dropping a zero sum
    s = out.get(key)
    if s is not None:
        c = s + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


def pairing_kernel(f, g, r, pairs, caps, weight):
    """Order-r term of exp(weight * sum_p sign_p D_p (x) E_p) on f (x) g,

        weight^r * sum over k with |k| = r of
        prod_p sign_p^{k_p} / k_p!  (D^k f) (E^k g),

    for pairs[p] = (D_p, E_p, sign_p) of commuting derivations of f and g.
    Only k_p <= caps[p] is enumerated, a bound past which a term vanishes,
    so no derivative is taken when the caps sum to less than r.  A chain of
    derivatives serves every k with its prefix and stops at its first zero;
    the g side steps first, since against a constraint it vanishes soonest.
    """
    f._check(g)
    if r < 0:
        raise ValueError("kernel order must be nonnegative")
    if r > sum(caps) or not f.terms or not g.terms:
        return f.zero(f.dim)
    # room[p]: the largest order the pairs after p can take between them
    room = [sum(caps[p + 1:]) for p in range(len(pairs))]
    out = {}
    for sign, den, df, dg in _pairing_terms(pairs, caps, room, 0, r, f, g):
        df._product_into(out, dg, _weight(weight, r, sign, den))
    return f._of_raw_terms(f.dim, out)


@cache
def _weight(weight, r, sign, den):
    # weight^r * sign / den, the factor of one term of pairing_kernel
    return GaussianRational.of(weight) ** r * Fraction(sign, den)


def _pairing_terms(pairs, caps, room, p, left, df, dg):
    # (prod sign^k, k!, D^k df, E^k dg) over pairs p.. for each |k| = left;
    # a recursive closure would leave a reference cycle on every call
    d, e, s = pairs[p]
    hi = min(left, caps[p])
    chains = zip(_derivative_chain(dg, e, hi), _derivative_chain(df, d, hi))
    for k, (dgk, dfk) in enumerate(chains):
        if left - k > room[p]:
            continue
        if p + 1 == len(pairs):
            yield s ** k, factorial(k), dfk, dgk
            continue
        for sign, den, dfl, dgl in _pairing_terms(pairs, caps, room, p + 1,
                                                  left - k, dfk, dgk):
            yield sign * s ** k, den * factorial(k), dfl, dgl


def _derivative_chain(h, d, n):
    # h, d(h), ..., d^n(h) for a nonzero h, stopping before the first zero
    yield h
    for _ in range(n):
        h = d(h)
        if not h.terms:
            return
        yield h


class GaussianRational:
    """Exact complex scalar (a + b*I)/d with integers a, b and d.

    Values are kept normalised: d > 0 and gcd(a, b, d) == 1, so zero is
    0/1 and structural equality is value equality.  The rational parts are
    the derived Fraction properties re and im.  Instances are treated as
    immutable; every operation returns a fresh value.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        q, s = re.denominator, im.denominator
        g = _int_gcd(q, s)
        # over lcm(q, s) each prime of the denominator misses one numerator
        self._a = re.numerator * (s // g)
        self._b = im.numerator * (q // g)
        self._d = q // g * s

    @staticmethod
    def _make(a, b, d):
        """(a + b*I)/d for integers a, b and d > 0, normalised by one gcd."""
        g = _int_gcd(d, a, b)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        r = _new(GaussianRational)
        r._a = a
        r._b = b
        r._d = d
        return r

    @staticmethod
    def of(x):
        if type(x) is GaussianRational:
            return x
        if isinstance(x, int):
            return _raw(int(x), 0, 1)  # int() stores a bool as 0 or 1
        if isinstance(x, Fraction):
            return _raw(x.numerator, 0, x.denominator)
        raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def is_zero(self):
        return not self._a and not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(_of, other)
            if other is NotImplemented:
                return other
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(_of, other)
            if other is NotImplemented:
                return other
        return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return _of(other) - self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(_of, other)
            if other is NotImplemented:
                return other
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a = a * c
        return _make(a, b, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(_of, other)
            if other is NotImplemented:
                return other
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if c < 0:
                c, f = -c, -f
            return _make(a * f, b * f, d * c)
        # multiply through by the conjugate of c + e*I
        return _make((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __rtruediv__(self, other):
        return _of(other) / self

    scale = __mul__  # TermRing.scale calls v.scale(c) on every coefficient

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return ONE / self ** (-n)
        if not self._b:
            # gcd(a, d) == 1 carries over to the powers
            return _raw(self._a ** n, 0, self._d ** n)
        return _power(self, n, ONE)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it compares equal to
        if self._b:
            return hash((self.re, self.im))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


_new = object.__new__
_make = GaussianRational._make
_of = GaussianRational.of


def _raw(a, b, d):
    # (a + b*I)/d for a triple that is already normalised; _make and _sum
    # build their results inline, as this call costs about as much as the
    # three stores
    r = _new(GaussianRational)
    r._a = a
    r._b = b
    r._d = d
    return r


def _sum(a, b, d, c, e, f):
    # (a + b*I)/d + (c + e*I)/f, normalised without a gcd against d*f
    if d == 1 and f == 1:
        a, b = a + c, b + e
    else:
        g = _int_gcd(d, f)
        if g == 1:
            # a prime of d*f divides just one of d, f, so it misses one part
            a, b, d = a * f + c * d, b * f + e * d, d * f
        else:
            s, t = d // g, f // g
            a, b, d = a * t + c * s, b * t + e * s, s * f
            # a prime shared by a, b and lcm(d, f) = s*f also divides g
            h = _int_gcd(g, a, b)
            if h != 1:
                a, b, d = a // h, b // h, d // h
    r = _new(GaussianRational)
    r._a = a
    r._b = b
    r._d = d
    return r


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def scalar_text(c):
    """Deterministic, re-parseable text for a Gaussian rational.

    Pure parts print bare ("-3/2", "I", "2*I"); mixed values are
    parenthesized ("(1/2 - 3*I)") so they can be embedded in products.
    """
    c = GaussianRational.of(c)
    if not c.im:
        return str(c.re)
    if c.im == 1:
        im = "I"
    elif c.im == -1:
        im = "-I"
    else:
        im = "%s*I" % (c.im,)
    if not c.re:
        return im
    if c.im < 0:
        return "(%s - %s)" % (c.re, im[1:])
    return "(%s + %s)" % (c.re, im)


def _reduced(re, im, den, g):
    """(re + I*im)/den as a UPoly, for int lists re and im (None when real)
    of one length and den > 0.  Trailing zero coefficients are popped in
    place, and the coefficients and den are divided by h = gcd(g, re, im).
    Every prime that divides den and all the coefficients must divide g, so
    g == 1 needs no gcd.  g == 0 divides out the content and leaves den, so
    _reduced(r, ri, 1, 0) is the primitive part of r."""
    if im is not None and not any(im):
        im = None
    if im is None:
        while re and not re[-1]:
            re.pop()
    else:
        while not re[-1] and not im[-1]:
            re.pop()
            im.pop()
    if not re:
        den = 1
    elif g != 1:
        h = _int_gcd(g, *re) if im is None else _int_gcd(g, *re, *im)
        if h != 1:
            # h.__rfloordiv__(v) is v // h
            re = list(map(h.__rfloordiv__, re))
            if im is not None:
                im = list(map(h.__rfloordiv__, im))
            if g:
                den //= h
    p = _new(UPoly)
    p._re = re
    p._im = im
    p._den = den
    return p


def _times(re, im, a, b):
    # (re + I*im) * (a + b*I) for int lists re, im (None when real) and ints
    if not b:
        return (list(map(a.__mul__, re)),
                None if im is None else list(map(a.__mul__, im)))
    if im is None:
        return list(map(a.__mul__, re)), list(map(b.__mul__, re))
    out, outi = [], []
    for x, y in zip(re, im):
        out.append(x * a - y * b)
        outi.append(x * b + y * a)
    return out, outi


def _over(re, im, m, den, a, b):
    # (re + I*im) * m / (den * (a + b*I)) as a UPoly, for int lists re, im
    # (None when real), ints m != 0, den > 0 and a + b*I != 0
    if b:
        re, im = _times(re, im, a * m, -b * m)
        den *= a * a + b * b
    else:
        if a < 0:
            a, m = -a, -m
        if m != 1:
            re, im = _times(re, im, m, 0)
        else:
            re, im = list(re), None if im is None else list(im)
        den *= a
    return _reduced(re, im, den, den)


def _int_pseudo_rem(a, ai, b, bi, quo):
    """Remainder r of the pseudo-division of a + I*ai by b + I*bi.

    The lists hold Gaussian integers, and ai and bi are None when real.  A
    complex lead l of b is first made the rational integer |l|**2 by
    multiplying b by conj(l).  Then each step scales the remainder by the
    lead lb of b and cancels its top coefficient c, so with e = len(a) -
    len(b) + 1 steps,

        lb**e * a == sum_s c_s * lb**s * u**s * b + r,

    and (c_s, ci_s) goes to quo[s] unless quo is None.  Returns
    (r, ri) untrimmed, with ri None when everything is real.
    """
    if bi is not None and bi[-1]:
        b, bi = _times(b, bi, b[-1], -bi[-1])
    dv = len(b) - 1
    lb = b[-1]
    rem = list(a)
    if ai is not None:
        remi = list(ai)
    elif bi is not None:
        remi = [0] * len(a)
    else:
        remi = None
    bim = bi if bi is not None else [0] * len(b)
    for shift in range(len(a) - 1 - dv, -1, -1):
        c = rem.pop()
        if lb != 1:
            rem = list(map(lb.__mul__, rem))
        ci = 0
        if remi is None:
            for k in range(dv):
                rem[shift + k] -= c * b[k]
        else:
            ci = remi.pop()
            if lb != 1:
                remi = list(map(lb.__mul__, remi))
            for k in range(dv):
                x, y = b[k], bim[k]
                rem[shift + k] -= c * x - ci * y
                remi[shift + k] -= c * y + ci * x
        if quo is not None:
            quo[shift] = (c, ci)
    return rem, remi


class UPoly:
    """Univariate polynomial in u over GaussianRational.

    Stored as (re + I*im)/den: re and im are little-endian lists of integers
    of one length, with no trailing coefficient zero in both; im is None when
    every coefficient is real; den > 0 and gcd(den, re, im) == 1.  The form
    is canonical, so structural equality is value equality.  The zero
    polynomial has re == [] and degree -1.  The lists are never mutated once
    stored.  coeffs, the tuple of GaussianRational coefficients, is derived
    on first use and kept.
    """

    __slots__ = ("_re", "_im", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = list(map(GaussianRational.of, coeffs))
        while cs and cs[-1].is_zero():
            cs.pop()
        den = 1
        for c in cs:
            if c._d != 1:
                den = den * c._d // _int_gcd(den, c._d)
        # over the lcm each prime of den misses one reduced coefficient
        re, im = [], []
        for c in cs:
            k = den // c._d
            re.append(c._a * k)
            im.append(c._b * k)
        self._re, self._im, self._den = re, im if any(im) else None, den
        self._coeffs = tuple(cs)

    @property
    def coeffs(self):
        try:
            return self._coeffs
        except AttributeError:
            pass
        re, im, n = self._re, self._im, len(self._re)
        cs = tuple(map(_make, re, im or [0] * n, [self._den] * n))
        self._coeffs = cs
        return cs

    @staticmethod
    def of(x):
        if isinstance(x, UPoly):
            return x
        if type(x) is int:
            return _reduced([x] if x else [], None, 1, 1)
        if isinstance(x, (int, Fraction, GaussianRational)):
            c = GaussianRational.of(x)
            if c.is_zero():
                return _reduced([], None, 1, 1)
            return _reduced([c._a], [c._b] if c._b else None, c._d, 1)
        raise TypeError("cannot interpret %r as a polynomial in u" % (x,))

    @staticmethod
    def u(power=1):
        # the monomial u**power
        if power < 0:
            raise ValueError("a power of u in a polynomial must be nonnegative")
        return _reduced([0] * power + [1], None, 1, 1)

    def integers(self):
        """The stored form (re, im, den), self = (re + I*im)/den: int
        lists (im None when every coefficient is real) and an int den."""
        return self._re, self._im, self._den

    def is_zero(self):
        return not self._re

    def __bool__(self):
        return bool(self._re)

    def degree(self):
        return len(self._re) - 1

    def lead(self):
        if not self._re:
            raise ValueError("zero polynomial has no leading coefficient")
        im = self._im
        return _make(self._re[-1], im[-1] if im is not None else 0, self._den)

    def __add__(self, other, sign=1):
        # self + sign * other, for sign 1 or -1
        if type(other) is not UPoly:
            other = UPoly.of(other)
        a, b = self._re, other._re
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        ai, bi = self._im, other._im
        d, f = self._den, other._den
        if d == f:
            g = d
            if sign != 1:
                b, bi = _times(b, bi, sign, 0)
        else:
            # bring both to lcm(d, f) = d*s = f*t; a prime shared by the
            # numerators and the lcm then divides g = gcd(d, f)
            g = _int_gcd(d, f)
            s, t = f // g, d // g
            a, ai = _times(a, ai, s, 0)
            b, bi = _times(b, bi, sign * t, 0)
            d *= s
        if len(a) < len(b):
            a, b, ai, bi = b, a, bi, ai
        re = list(a)
        for k, v in enumerate(b):
            re[k] += v
        im = None
        if ai is not None or bi is not None:
            im = list(ai) if ai is not None else [0] * len(a)
            if bi is not None:
                for k, v in enumerate(bi):
                    im[k] += v
        return _reduced(re, im, d, g)

    __radd__ = __add__

    def __neg__(self):
        im = self._im
        return _reduced(list(map(neg, self._re)),
                        None if im is None else list(map(neg, im)), self._den, 1)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return UPoly.of(other) - self

    def __mul__(self, other):
        if type(other) is not UPoly:
            other = UPoly.of(other)
        a, b = self._re, other._re
        if not a or not b:
            return _reduced([], None, 1, 1)
        den = self._den * other._den
        ai, bi = self._im, other._im
        if ai is None and bi is None:
            re = [0] * (len(a) + len(b) - 1)
            for j, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, j):
                        re[k] += x * y
            return _reduced(re, None, den, den)
        # the product of two nonzero polynomials has a nonzero lead
        n = len(a) + len(b) - 1
        re, im = [0] * n, [0] * n
        ai = ai if ai is not None else [0] * len(a)
        bi = bi if bi is not None else [0] * len(b)
        for j, (x, xi) in enumerate(zip(a, ai)):
            for k, (y, yi) in enumerate(zip(b, bi), j):
                re[k] += x * y - xi * yi
                im[k] += x * yi + xi * y
        return _reduced(re, im, den, den)

    def jet_mul(self, other, n):
        """self * other mod u**n, from the operands mod u**n; on real
        operands one integer convolution of the first n coefficients."""
        a, b = self._re, other._re
        if self._im is not None or other._im is not None or not a or not b:
            return (self.truncated(n) * other.truncated(n)).truncated(n)
        re = [0] * min(n, len(a) + len(b) - 1)
        for j, x in enumerate(a[:n]):
            if x:
                for k, y in enumerate(b[:n - j], j):
                    re[k] += x * y
        den = self._den * other._den
        return _reduced(re, None, den, den)

    __rmul__ = __mul__

    def scale(self, c):
        c = GaussianRational.of(c)
        if c.is_zero() or not self._re:
            return _reduced([], None, 1, 1)
        re, im = _times(self._re, self._im, c._a, c._b)
        den = self._den * c._d
        return _reduced(re, im, den, den)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("polynomial exponent must be a nonnegative integer")
        return _power(self, n, UPoly.of(1))

    def divmod(self, other):
        other = UPoly.of(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a, ai, da = self._re, self._im, self._den
        if len(a) < len(other._re):
            return _reduced([], None, 1, 1), self
        # self = a/da and other = b/db; the pseudo-division runs on b' = b*c
        # for c = conj(lead(b)) = b[-1] - cb*I when that lead is complex
        b, bi = other._re, other._im
        cb = 0 if bi is None else -bi[-1]
        e = len(a) - len(b) + 1
        quo = [None] * e
        r, ri = _int_pseudo_rem(a, ai, b, bi, quo)
        # lb**e * a == q' * b' + r for the lead lb of b', so the quotient is
        # q' * c * db / (lb**e * da) and the remainder r / (lb**e * da)
        lb, p = (b[-1] * b[-1] + cb * cb if cb else b[-1]), 1
        q, qi = [], []
        for c, ci in quo:
            q.append(c * p)
            qi.append(ci * p)
            p *= lb
        qi = qi if any(qi) else None
        if cb:
            q, qi = _times(q, qi, b[-1], cb)
        scale = lb ** e
        return (_over(q, qi, other._den, da, scale, 0),
                _over(r, ri, 1, da, scale, 0))

    def exact_div(self, other):
        other = UPoly.of(other)
        k = other._valuation()
        if k == other.degree():
            # other is c*u**k: drop k coefficients that must be zero, divide by c
            re, im = self._re, self._im
            if any(re[:k]) or im is not None and any(im[:k]):
                raise ValueError("polynomial division is not exact")
            oi = other._im
            if oi is None and other._re[k] == other._den == 1:
                return self._lower(k)
            return _over(re[k:], None if im is None else im[k:], other._den,
                         self._den, other._re[k], 0 if oi is None else oi[k])
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    def monic(self):
        re, im = self._re, self._im
        if not re or re[-1] == self._den and (im is None or not im[-1]):
            return self
        return _over(re, im, 1, 1, re[-1], 0 if im is None else im[-1])

    def shifted(self, x, n):
        """self(x + u) mod u**n for a rational x and n >= 0: the first n
        Taylor coefficients of self at x, by Horner in x + u."""
        out, step = UPoly(), UPoly((x, 1))
        for c in reversed(self.coeffs):
            out = (out * step + c).truncated(n)
        return out

    def truncated(self, n):
        """self mod u**n: the coefficients of u**0 .. u**(n-1)."""
        re, im = self._re, self._im
        if len(re) <= n:
            return self
        return _reduced(re[:n], None if im is None else im[:n], self._den, self._den)

    def _lower(self, k):
        # self / u**k, for k <= the valuation: the content is unchanged
        im = self._im
        return _reduced(self._re[k:], None if im is None else im[k:], self._den, 1)

    def _valuation(self):
        """v_u: the power of u dividing self, i.e. its count of leading zero
        coefficients; None for the zero polynomial."""
        im = self._im
        for k, c in enumerate(self._re):
            if c or im and im[k]:
                return k
        return None

    def gcd(self, other):
        other = UPoly.of(other)
        if self.is_zero():
            return other.monic() if not other.is_zero() else UPoly.of(1)
        if other.is_zero():
            return self.monic()
        # a nonzero constant is coprime to everything
        if self.degree() == 0 or other.degree() == 0:
            return UPoly.of(1)
        va, vb = self._valuation(), other._valuation()
        if va == self.degree() or vb == other.degree():
            # c*u**k shares with a polynomial of valuation v just u**min(k, v)
            return UPoly.u(min(va, vb))
        # primitive pseudo-remainder sequence on the numerators, over Z or
        # over Z[i] with a rational-integer content
        a, b = self, other
        while b.degree() > 0:
            r, ri = _int_pseudo_rem(a._re, a._im, b._re, b._im, None)
            a, b = b, _reduced(r, ri, 1, 0)
        if not b.is_zero():
            return UPoly.of(1)  # a nonzero constant remainder: coprime
        return a.monic()

    def lcm(self, other):
        other = UPoly.of(other)
        if self.is_zero() or other.is_zero():
            return UPoly()
        return (self * other).exact_div(self.gcd(other)).monic()

    def eval(self, x):
        # Horner on the numerators, homogenised in the denominator of x:
        # sum n_k x**k == sum n_k xa**k xd**(n-k) / xd**n for x = xa/xd
        x = GaussianRational.of(x)
        re, im = self._re, self._im
        if not re:
            return ZERO
        im = im if im is not None else [0] * len(re)
        xa, xb, xd = x._a, x._b, x._d
        acc, acci, p = re[-1], im[-1], 1
        for k in range(len(re) - 2, -1, -1):
            p *= xd
            acc, acci = (acc * xa - acci * xb + re[k] * p,
                         acc * xb + acci * xa + im[k] * p)
        return _make(acc, acci, self._den * p)

    def derivative(self):
        re, im = self._re, self._im
        ks = range(1, len(re))
        return _reduced(list(map(mul, ks, re[1:])),
                        None if im is None else list(map(mul, ks, im[1:])),
                        self._den, self._den)

    def __eq__(self, other):
        if type(other) is not UPoly:
            try:
                other = UPoly.of(other)
            except TypeError:
                return NotImplemented
        return (self._re == other._re and self._den == other._den
                and self._im == other._im)

    def __hash__(self):
        # a constant hashes like the scalar it compares equal to
        re, im = self._re, self._im
        if len(re) <= 1:
            return hash(self.lead()) if re else 0
        return hash((tuple(re), None if im is None else tuple(im), self._den))

    def __repr__(self):
        return "UPoly(%r)" % (self.coeffs,)


class RadialRational:
    """Rational function of u in canonical form.

    Canonical means gcd(num, den) = 1 and den monic; the zero function is
    0/1.  With that normalization, structural equality is function equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        """num/den in canonical form, cancelled without a gcd of num and den.

        u**min(v_u num, v_u den) goes by valuation.  After that u divides
        at most one of them, so every common irreducible p divides
        rest = den/u**v_u(den) and its square-free part rad (Yun 1976,
        cached in _radical_split).  So p divides g = gcd(num, rad), exactly
        once.  Dividing both by g, a p still common to num and den divided
        the old ones too, so it divides g and hence
        gcd(num, gcd(g, den)), the next g.  The loop ends when that is
        constant, at which point gcd(num, den) = 1.  Each gcd has an operand
        of degree <= deg rad, which is 1 or 2 on the sphere's denominators
        u^a (u - 2mu)^b.
        """
        if type(num) is not UPoly:
            num = UPoly.of(num)
        if type(den) is not UPoly:
            den = UPoly.of(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function of u")
        if num.is_zero():
            self.num, self.den = UPoly(), UPoly.of(1)
            return
        if num.degree() > 0 and den.degree() > 0:
            k = min(num._valuation(), den._valuation())
            if k:
                num, den = num._lower(k), den._lower(k)
            v = den._valuation()
            if num.degree() > 0 and den.degree() > v:
                rest = den._lower(v) if v else den
                g = num.gcd(_radical_split(rest.monic())[0])
                while g.degree() > 0:
                    num, den = num.exact_div(g), den.exact_div(g)
                    g = num.gcd(den.gcd(g))
        # monic returns a monic den itself, and then num needs no scaling
        monic = den.monic()
        if monic is not den:
            num = num.scale(ONE / den.lead())
        self.num, self.den = num, monic

    @staticmethod
    def of(x):
        if isinstance(x, RadialRational):
            return x
        return RadialRational(UPoly.of(x))

    @staticmethod
    def u_power(k):
        # u**k, with negative k allowed
        if k >= 0:
            return RadialRational(UPoly.u(k) if k else UPoly.of(1))
        return RadialRational(UPoly.of(1), UPoly.u(-k))

    @staticmethod
    def _raw(num, den):
        # bypass reduction for results known to be reduced and monic
        r = RadialRational.__new__(RadialRational)
        r.num, r.den = num, den
        return r

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if type(other) is not RadialRational:
            other = _operand(RadialRational.of, other)
            if other is NotImplemented:
                return other
        if self.den == other.den:
            return RadialRational(self.num + other.num, self.den)
        g = self.den.gcd(other.den)
        if g.degree() == 0:
            # coprime denominators: the sum is already reduced, and not zero,
            # as a/d1 = -b/d2 in lowest terms would give d1 = d2 = 1
            return RadialRational._raw(self.num * other.den + other.num * self.den,
                                       self.den * other.den)
        rden = other.den.exact_div(g)
        return RadialRational(
            self.num * rden + other.num * self.den.exact_div(g), self.den * rden
        )

    __radd__ = __add__

    def __neg__(self):
        return RadialRational._raw(-self.num, self.den)

    def __sub__(self, other):
        other = _operand(RadialRational.of, other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return RadialRational.of(other) - self

    def __mul__(self, other):
        if type(other) is not RadialRational:
            other = _operand(RadialRational.of, other)
            if other is NotImplemented:
                return other
        if self.num.is_zero() or other.num.is_zero():
            return RadialRational(UPoly())
        # cross-cancel so the product needs no further reduction
        a = RadialRational(self.num, other.den)
        b = RadialRational(other.num, self.den)
        return RadialRational._raw(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(RadialRational.of, other)
        if other is NotImplemented:
            return other
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if self.is_zero():
            return self
        a = RadialRational(self.num, other.num)
        b = RadialRational(other.den, self.den)
        return RadialRational._raw(a.num * b.num, a.den * b.den)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        # den/num is already reduced; it only needs a monic denominator
        num, den = self.den, self.num
        monic = den.monic()
        if monic is not den:
            num = num.scale(ONE / den.lead())
        inv = RadialRational._raw(num, monic)
        return inv if other == 1 else RadialRational.of(other) * inv

    def scale(self, c):
        c = GaussianRational.of(c)
        if c.is_zero():
            return RadialRational(UPoly())
        return RadialRational._raw(self.num.scale(c), self.den)

    # c times self as a term of a derivative: a jet there loses a coefficient
    derivative_scale = scale

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return (RadialRational.of(1) / self) ** (-n)
        return _power(self, n, RadialRational.of(1))

    def derivative(self):
        """(n/d)' = (n'r - nq)/(d*r), with (r, q) = _radical_split(d).

        The quotient rule gives (n'd - nd')/d**2; dividing both by
        g = gcd(d, d') gives the form above.  It is canonical without a
        gcd: take an irreducible p with p**e exactly dividing d.  Then
        p**(e-1) exactly divides d' and g, so p divides r = d/g but not
        q = d'/g, and p does not divide n since gcd(n, d) = 1.  So p does
        not divide n'r - nq, which is coprime to d*r, as every irreducible
        factor of d*r divides d.  d and r are monic, and so is d*r.
        """
        num, den = self.num, self.den
        if den.degree() == 0:
            return RadialRational._raw(num.derivative(), den)
        r, q = _radical_split(den)
        return RadialRational._raw(num.derivative() * r - num * q, den * r)

    def eval(self, u0):
        u0 = GaussianRational.of(u0)
        d = self.den.eval(u0)
        if d.is_zero():
            raise PoleError("pole at u = %s" % (scalar_text(u0),))
        return self.num.eval(u0) / d

    def __eq__(self, other):
        other = _operand(RadialRational.of, other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # with the denominator 1 it equals, and so hashes like, its numerator
        if self.den.degree() == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return "RadialRational(%r, %r)" % (self.num, self.den)


@lru_cache(maxsize=1024)
def _radical_split(d):
    """(r, q) = (d/g, d'/g) with g = gcd(d, d') for a monic d of positive
    degree: r is the square-free part of d (Yun 1976).  Bounded, as each
    key is a denominator and a reduction reuses a few hundred of them."""
    dd = d.derivative()
    g = d.gcd(dd)
    return d.exact_div(g), dd.exact_div(g)


class Jet:
    """Truncated Taylor series in t = u - a: the UPoly p holds the first n
    coefficients, the ones the jet knows.  A subclass fixes a and the top
    length, which scalars and powers of u = a + t take whole.  With the
    deficit top - n, a sum keeps the larger deficit, a derivative adds
    one, a scale keeps it and a product adds those of its factors (README,
    "Jets at the sphere").  Equality reads the coefficients both know.
    eval(a) is coefficient 0, so radialphase.prol reads a jet's value on
    the sphere as it reads a RadialRational's.
    """

    __slots__ = ("p", "n")
    a = top = None

    def __init__(self, p, n):
        self.p = p
        self.n = n

    @classmethod
    def of(cls, x):
        # a scalar, exact
        return x if isinstance(x, Jet) else cls(UPoly.of(x), cls.top)

    @classmethod
    def u_power(cls, k):
        # u**k = (a + t)**k for k >= 0, exact
        return cls((UPoly((cls.a, 1)) ** k).truncated(cls.top), cls.top)

    def eval(self, u0):
        # coefficient 0: a jet is evaluated only at its own point u0 = a
        p = self.p
        if not p._re:
            return ZERO
        return _make(p._re[0], p._im[0] if p._im is not None else 0, p._den)

    def is_zero(self):
        return not self.p._re

    def __bool__(self):
        return bool(self.p._re)

    def __add__(self, other, op=add):
        n = self.n
        if other.n == n:
            return type(self)(op(self.p, other.p), n)
        n = min(n, other.n)
        return type(self)(op(self.p.truncated(n), other.p.truncated(n)), n)

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __neg__(self):
        return type(self)(-self.p, self.n)

    def __mul__(self, other):
        n = self.n + other.n - self.top
        if n <= 0:
            return type(self)(_reduced([], None, 1, 1), 0)
        return type(self)(self.p.jet_mul(other.p, n), n)

    def scale(self, c):
        return type(self)(self.p.scale(c), self.n)

    def derivative_scale(self, c):
        # c times self as a term of a derivative, which loses one coefficient
        n = self.n - 1
        return type(self)(self.p.truncated(n).scale(c), n)

    def derivative(self):
        return type(self)(self.p.derivative(), self.n - 1)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        n = min(self.n, other.n)
        return self.p.truncated(n) == other.p.truncated(n)


class LambdaSeries:
    """Truncated formal power series in the deformation parameter.

    coeffs[k] is the order-k coefficient; the truncation order is
    len(coeffs) - 1.  Binary operations truncate to the smaller order, since
    nothing is known about either operand beyond its own truncation.
    Coefficients may live in any algebra with + and -; mixing algebras is
    an error.  There is no product of series here: the star product of a
    phase setup is reduction.star_series.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def truncated(self, order):
        if order >= self.order:
            return self
        return LambdaSeries(self.coeffs[: order + 1])

    def map(self, fn):
        return LambdaSeries(tuple(map(fn, self.coeffs)))

    def _check(self, other):
        if not isinstance(other, LambdaSeries):
            raise AlgebraMismatchError("expected a LambdaSeries, got %r" % (other,))
        if type(self.coeffs[0]) is not type(other.coeffs[0]):
            raise AlgebraMismatchError(
                "series coefficients live in different algebras: %s vs %s"
                % (type(self.coeffs[0]).__name__, type(other.coeffs[0]).__name__)
            )

    # map stops at the shorter operand, which truncates to the smaller order

    def __add__(self, other):
        self._check(other)
        return LambdaSeries(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return LambdaSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return LambdaSeries(tuple(map(neg, self.coeffs)))

    def __eq__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return "LambdaSeries(%r)" % (self.coeffs,)


def kernel_series(kernel, f, g, order):
    """The star product f * g = sum_r M_r(f, g) with M_r = kernel(f, g, r),
    truncated at the given order: one kernel call per order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return LambdaSeries(tuple(kernel(f, g, r) for r in range(order + 1)))
