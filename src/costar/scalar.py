"""Exact scalar layer: Gaussian rationals, rational functions of the radius
variable u, truncated formal series in the deformation parameter, and the
ring skeleton the phase-space algebras share.

Everything here is exact.  There are no floats anywhere in the engine; all
higher layers (phase-space algebras, products, coefficient tables) reduce to
the arithmetic in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from math import gcd as _int_gcd


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
        return type(self)(self.dim, {k: v.scale(c) for k, v in self.terms.items()})

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
        return type(self)(self.dim, out)

    def __neg__(self):
        return type(self)(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

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
        key_product = self._key_product
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _merge(out, key_product(k1, k2), c1 * c2)
        return type(self)(self.dim, out)

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
    acc = f.zero(f.dim)
    if r > sum(caps) or not f.terms or not g.terms:
        return acc
    # room[p]: the largest order the pairs after p can take between them
    room = [sum(caps[p + 1:]) for p in range(len(pairs))]
    wr = weight ** r
    for sign, den, df, dg in _pairing_terms(pairs, caps, room, 0, r, f, g):
        c = wr * Fraction(sign, den)
        acc = acc + (df * dg if c == 1 else (df * dg).scale(c))
    return acc


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


def _compositions(total, caps):
    # all tuples e with sum(e) == total and 0 <= e[i] <= caps[i], in
    # lexicographic order; nothing when the caps cannot reach the total
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    room = sum(caps[1:])
    for head in range(max(0, total - room), min(total, caps[0]) + 1):
        for rest in _compositions(total - head, caps[1:]):
            yield (head,) + rest


def _multi_factorial(exp):
    n = 1
    for e in exp:
        n *= factorial(e)
    return n


def _int_primitive(cs):
    g = 0
    for v in cs:
        g = _int_gcd(g, v)
    return [v // g for v in cs] if g else []


def _int_pseudo_rem(a, b):
    # remainder of a by b after scaling by powers of lead(b); integer lists
    dv = len(b) - 1
    lb = b[-1]
    rem = list(a)
    while len(rem) - 1 >= dv:
        shift = len(rem) - 1 - dv
        lr = rem.pop()
        if lr:
            rem = [c * lb for c in rem]
            for k in range(dv):
                rem[shift + k] -= lr * b[k]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return rem


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

    def conjugate(self):
        return _raw(self._a, -self._b, self._d)

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


class UPoly:
    """Univariate polynomial in u over GaussianRational.

    Coefficients are little-endian with no trailing zeros; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def of(x):
        if isinstance(x, UPoly):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return UPoly((GaussianRational.of(x),))
        raise TypeError("cannot interpret %r as a polynomial in u" % (x,))

    @staticmethod
    def u(power=1):
        # the monomial u**power
        return UPoly((0,) * power + (1,))

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = UPoly.of(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-UPoly.of(other))

    def __rsub__(self, other):
        return UPoly.of(other) - self

    def __mul__(self, other):
        other = UPoly.of(other)
        if self.is_zero() or other.is_zero():
            return UPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return UPoly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = GaussianRational.of(c)
        return UPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("polynomial exponent must be a nonnegative integer")
        return _power(self, n, UPoly.of(1))

    def divmod(self, other):
        other = UPoly.of(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree()
        inv_lead = ONE / other.lead()
        quo = [ZERO] * max(dd - dv + 1, 0)
        while dd >= dv and rem:
            while rem and rem[-1].is_zero():
                rem.pop()
                dd -= 1
            if dd < dv or not rem:
                break
            c = rem[-1] * inv_lead
            quo[dd - dv] = c
            for k in range(dv + 1):
                rem[dd - dv + k] = rem[dd - dv + k] - c * other.coeffs[k]
        return UPoly(quo), UPoly(rem)

    def exact_div(self, other):
        other = UPoly.of(other)
        k = other._valuation()
        if k == other.degree():
            # other is c*u**k: drop k coefficients that must be zero, divide by c
            cs = self.coeffs
            if any(cs[:k]):
                raise ValueError("polynomial division is not exact")
            q = UPoly(cs[k:])
            c = other.coeffs[k]
            return q if c == ONE else q.scale(ONE / c)
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(ONE / self.lead())

    def _valuation(self):
        """v_u: the power of u dividing self, i.e. its count of leading zero
        coefficients; None for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def _as_primitive_ints(self):
        # primitive integer coefficient list, or None for complex coefficients
        den = 1
        for c in self.coeffs:
            if c._b:
                return None
            d = c._d
            if d != 1:
                den = den * d // _int_gcd(den, d)
        ints = [c._a * (den // c._d) for c in self.coeffs]
        return _int_primitive(ints)

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
        sa, sb = self._as_primitive_ints(), other._as_primitive_ints()
        if sa is not None and sb is not None:
            # primitive pseudo-remainder sequence over the integers
            while sb:
                sa, sb = sb, _int_primitive(_int_pseudo_rem(sa, sb))
            if sa[-1] < 0:
                sa = [-v for v in sa]
            lead = sa[-1]
            return UPoly(tuple(_make(v, 0, lead) for v in sa))
        a, b = self.monic(), other.monic()
        while not b.is_zero():
            a, b = b, a.divmod(b)[1].monic()
        return a if not a.is_zero() else UPoly.of(1)

    def lcm(self, other):
        other = UPoly.of(other)
        if self.is_zero() or other.is_zero():
            return UPoly()
        return (self * other).exact_div(self.gcd(other)).monic()

    def eval(self, x):
        x = GaussianRational.of(x)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self):
        return UPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def __eq__(self, other):
        try:
            other = UPoly.of(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UPoly(%r)" % (self.coeffs,)


class RadialRational:
    """Rational function of u in canonical form.

    Canonical means gcd(num, den) = 1 and den monic; the zero function is
    0/1.  With that normalization, structural equality is function equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = UPoly.of(num), UPoly.of(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function of u")
        if num.is_zero():
            self.num, self.den = UPoly(), UPoly.of(1)
            return
        if den.degree() == 0:
            lc = den.lead()
            self.num = num if lc == ONE else num.scale(ONE / lc)
            self.den = UPoly.of(1)
            return
        if num.degree() > 0:
            g = num.gcd(den)
            if g.degree() > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        lc = den.lead()
        if lc != ONE:
            num, den = num.scale(ONE / lc), den.monic()
        self.num, self.den = num, den

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

    def __add__(self, other):
        if type(other) is not RadialRational:
            other = _operand(RadialRational.of, other)
            if other is NotImplemented:
                return other
        if self.den == other.den:
            return RadialRational(self.num + other.num, self.den)
        g = self.den.gcd(other.den)
        if g.degree() == 0:
            # coprime denominators: the sum is already reduced
            num = self.num * other.den + other.num * self.den
            if num.is_zero():
                return RadialRational(UPoly())
            return RadialRational._raw(num, self.den * other.den)
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
        lc = den.lead()
        if lc != ONE:
            num, den = num.scale(ONE / lc), den.monic()
        inv = RadialRational._raw(num, den)
        return inv if other == 1 else RadialRational.of(other) * inv

    def scale(self, c):
        c = GaussianRational.of(c)
        if c.is_zero():
            return RadialRational(UPoly())
        return RadialRational._raw(self.num.scale(c), self.den)

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


def zero_like(x):
    """Additive zero of the algebra x lives in."""
    return x - x


class LambdaSeries:
    """Truncated formal power series in the deformation parameter.

    coeffs[k] is the order-k coefficient; the truncation order is
    len(coeffs) - 1.  Binary operations truncate to the smaller order, since
    nothing is known about either operand beyond its own truncation.
    Coefficients may live in any algebra with +, -, *; mixing algebras is an
    error.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.coeffs = coeffs

    @staticmethod
    def constant(x, order):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        z = zero_like(x)
        return LambdaSeries((x,) + (z,) * order)

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
        return LambdaSeries(tuple(fn(c) for c in self.coeffs))

    def _check(self, other):
        if not isinstance(other, LambdaSeries):
            raise AlgebraMismatchError("expected a LambdaSeries, got %r" % (other,))
        if type(self.coeffs[0]) is not type(other.coeffs[0]):
            raise AlgebraMismatchError(
                "series coefficients live in different algebras: %s vs %s"
                % (type(self.coeffs[0]).__name__, type(other.coeffs[0]).__name__)
            )

    def __add__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return LambdaSeries(tuple(self[k] + other[k] for k in range(n + 1)))

    def __sub__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return LambdaSeries(tuple(self[k] - other[k] for k in range(n + 1)))

    def __neg__(self):
        return LambdaSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        out = []
        for m in range(n + 1):
            acc = zero_like(self.coeffs[0])
            for k in range(m + 1):
                acc = acc + self[k] * other[m - k]
            out.append(acc)
        return LambdaSeries(tuple(out))

    def __eq__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        return "LambdaSeries(%r)" % (self.coeffs,)


def kernel_series(kernel, f, g, order):
    """The star product f * g = sum_r M_r(f, g) with M_r = kernel(f, g, r),
    truncated at the given order: one kernel call per order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return LambdaSeries(tuple(kernel(f, g, r) for r in range(order + 1)))
