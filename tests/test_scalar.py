import re
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from costar import scalar
from costar.cli import parse_expression
from costar.scalar import (
    AlgebraMismatchError,
    GaussianRational,
    I,
    LambdaSeries,
    PoleError,
    RadialRational,
    UPoly,
    scalar_text,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_gaussians = gaussians.filter(lambda c: not c.is_zero())


def test_gaussian_basics():
    assert (GaussianRational(1, 1) * GaussianRational(1, -1)) == 2
    assert I * I == -1
    assert GaussianRational(Fraction(1, 2)) + GaussianRational(Fraction(1, 3)) == Fraction(5, 6)
    assert (GaussianRational(3, 4) / GaussianRational(3, 4)) == 1
    assert GaussianRational(2) ** -2 == Fraction(1, 4)
    assert (I ** 3) == GaussianRational(0, -1)


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@pytest.mark.parametrize("mode", ["flat", "radial-linear"])
def test_gaussian_on_the_left_of_an_algebra_element(mode):
    # the scalar's operators hand an algebra element to its reflected ones
    f = parse_expression("I*%s1 + 2" % ("q" if mode == "flat" else "z"), mode, 2)
    c = GaussianRational(Fraction(1, 2), -3)
    assert I + f == f + I
    assert I - f == -(f - I)
    assert I * f == f.scale(I)
    assert c * f == f * c
    acc = c
    acc += f
    assert acc == f + c
    with pytest.raises(TypeError, match="unsupported operand"):
        I / f
    with pytest.raises(TypeError):
        GaussianRational(1) + "x"
    with pytest.raises(TypeError):
        "x" * GaussianRational(1)


def test_radial_rational_on_the_left_of_an_algebra_element():
    # as for the Gaussian scalar: r * f multiplies like f * r, while a sum
    # with r raises the algebra's own mismatch error on either side
    from costar.radialphase import RadialFun

    r = RadialRational.u_power(-1)
    f = RadialFun.z(1, 2)
    assert r * f == f * r == RadialFun.monomial((1, 0), (0, 0), radial=r)
    for op in (lambda: f + r, lambda: r + f, lambda: r - f, lambda: f - r):
        with pytest.raises(AlgebraMismatchError):
            op()
    with pytest.raises(TypeError, match="unsupported operand"):
        r / f
    with pytest.raises(TypeError):
        r + "x"
    with pytest.raises(TypeError):
        "x" * r
    assert r != "x"


def test_gaussian_hash_agrees_with_equality():
    # a real value equals, and so must hash like, the int or Fraction it is
    assert len({GaussianRational(1), 1}) == 1
    assert len({GaussianRational(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(GaussianRational(Fraction(-6, 4))) == hash(Fraction(-3, 2))
    assert hash(GaussianRational(0)) == hash(0)
    assert {GaussianRational(1, 2): "x"}[GaussianRational(Fraction(2, 2), 2)] == "x"
    assert len({GaussianRational(1, 2), GaussianRational(1, -2)}) == 2


# Reference arithmetic for the property test below: a Gaussian rational is a
# pair (re, im) of Fractions, and nothing here shares code with the engine.

def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _ref_mul(out, x)
    return _ref_div((Fraction(1), Fraction(0)), out) if n < 0 else out


def _check(value, want):
    # the value is the reference pair, stored as normalised (a + b*I)/d
    assert (value.re, value.im) == want
    a, b, d = value._a, value._b, value._d
    assert d > 0 and gcd(gcd(a, b), d) == 1
    if want == (0, 0):
        assert (a, b, d) == (0, 0, 1)


wide_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
pairs = st.tuples(wide_fractions, wide_fractions)


@settings(max_examples=300)
@given(pairs, pairs, st.integers(min_value=-4, max_value=4))
def test_gaussian_matches_fraction_pair_reference(x, y, n):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    _check(gx, x)
    _check(gx + gy, _ref_add(x, y))
    _check(gx - gy, _ref_sub(x, y))
    _check(gx * gy, _ref_mul(x, y))
    _check(-gx, (-x[0], -x[1]))
    _check(gx + x[0], _ref_add(x, (x[0], 0)))
    _check(y[1] * gx, _ref_mul(x, (y[1], 0)))
    assert (gx == gy) == (x == y)
    assert (gx == x[0]) == (x[1] == 0)
    if y != (0, 0):
        _check(gx / gy, _ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy
    if y[0] != 0:
        _check(gx / y[0], _ref_div(x, (y[0], 0)))
    else:
        with pytest.raises(ZeroDivisionError):
            gx / y[0]
    if x != (0, 0) or n >= 0:
        _check(gx ** n, _ref_pow(x, n))
    else:
        with pytest.raises(ZeroDivisionError):
            gx ** n
    # printed text parses back to the same value
    parsed = parse_expression(scalar_text(gx), "flat", 1)
    _check(parsed.terms.get((0, 0), GaussianRational(0)), x)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_gaussians)
def test_gaussian_multiplicative_inverse(a):
    assert a * (GaussianRational(1) / a) == 1
    conjugate = GaussianRational(a.re, -a.im)
    assert a * conjugate == GaussianRational(a.re * a.re + a.im * a.im)


def test_scalar_text_forms():
    assert scalar_text(GaussianRational(Fraction(-1, 2))) == "-1/2"
    assert scalar_text(I) == "I"
    assert scalar_text(-I) == "-I"
    assert scalar_text(GaussianRational(Fraction(1, 2), 3)) == "(1/2 + 3*I)"
    assert scalar_text(GaussianRational(1, -1)) == "(1 - I)"


def test_upoly_divmod_and_gcd():
    u = UPoly.u()
    p = (u - 2) * (u + 2)
    q, r = p.divmod(u - 2)
    assert q == u + 2 and r.is_zero()
    assert p.exact_div(u - 2) == u + 2
    with pytest.raises(ValueError, match="not exact"):
        (p + 1).exact_div(u - 2)
    assert p.gcd(u - 2) == (u - 2).monic()
    assert (u ** 3).lcm(u ** 2 * (u + 1)) == u ** 3 * (u + 1)


def test_radial_rational_canonical_form():
    u = UPoly.u()
    r = RadialRational(u * u - 4, u - 2)
    assert r.num == u + 2 and r.den == UPoly.of(1)
    assert r.eval(2) == 4
    # denominator is normalized monic, numerator absorbs the unit
    s = RadialRational(UPoly.of(1), u.scale(2))
    assert s.den == u and s.num == UPoly.of(Fraction(1, 2))


def test_radial_rational_eval_and_poles():
    r = RadialRational(UPoly.of(1), UPoly.u())
    assert r.eval(1) == 1
    with pytest.raises(PoleError, match="u = 0"):
        r.eval(0)
    with pytest.raises(ZeroDivisionError):
        RadialRational(UPoly.of(1), UPoly())


def test_radial_rational_derivative():
    u = UPoly.u()
    r = RadialRational(UPoly.of(1), u)
    assert r.derivative() == RadialRational(UPoly.of(-1), u * u)
    assert RadialRational(u ** 2).derivative() == RadialRational(u.scale(2))


upolys = st.builds(
    lambda cs: UPoly(cs),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=3),
)
nonzero_upolys = upolys.filter(lambda p: not p.is_zero())


@given(upolys, nonzero_upolys, nonzero_upolys)
def test_radial_rational_canonical_uniqueness(n, d, g):
    assert RadialRational(n * g, d * g) == RadialRational(n, d)


@given(upolys, nonzero_upolys, upolys, nonzero_upolys)
def test_radial_rational_field_ops_pointwise(n1, d1, n2, d2):
    f = RadialRational(n1, d1)
    g = RadialRational(n2, d2)
    x = GaussianRational(5)
    try:
        fx, gx = f.eval(x), g.eval(x)
        sx, px = (f + g).eval(x), (f * g).eval(x)
    except PoleError:
        return
    assert sx == fx + gx
    assert px == fx * gx


# Reference polynomial arithmetic for the tests below: _RefUPoly keeps a
# trimmed little-endian tuple of Gaussian rationals and computes on it
# coefficient by coefficient, with long division and a monic Euclid over
# Q(i).  It shares no polynomial code with UPoly, which computes on
# integers over one denominator.

class _RefUPoly:
    def __init__(self, cs=()):
        cs = [GaussianRational.of(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self.cs = tuple(cs)

    def __bool__(self):
        return bool(self.cs)

    def __eq__(self, other):
        return self.cs == other.cs

    def __add__(self, other):
        a, b = list(self.cs), list(other.cs)
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] = a[k] + c
        return _RefUPoly(a)

    def __neg__(self):
        return _RefUPoly(-c for c in self.cs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self or not other:
            return _RefUPoly()
        out = [GaussianRational(0)] * (len(self.cs) + len(other.cs) - 1)
        for j, a in enumerate(self.cs):
            for k, b in enumerate(other.cs):
                out[j + k] = out[j + k] + a * b
        return _RefUPoly(out)

    def scale(self, c):
        return _RefUPoly(a * c for a in self.cs)

    def divmod(self, other):
        rem, b = list(self.cs), other.cs
        quo = [GaussianRational(0)] * max(len(rem) - len(b) + 1, 0)
        while len(rem) >= len(b):
            c = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            quo[shift] = c
            for k, bk in enumerate(b):
                rem[shift + k] = rem[shift + k] - c * bk
            rem = list(_RefUPoly(rem).cs)
        return _RefUPoly(quo), _RefUPoly(rem)

    def monic(self):
        return self.scale(GaussianRational(1) / self.cs[-1]) if self else self

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        return a.monic() if a else _RefUPoly([1])

    def lcm(self, other):
        if not self or not other:
            return _RefUPoly()
        return (self * other).divmod(self.gcd(other))[0].monic()

    def eval(self, x):
        out = GaussianRational(0)
        for c in reversed(self.cs):
            out = out * x + c
        return out

    def derivative(self):
        return _RefUPoly(c * k for k, c in enumerate(self.cs) if k)


def _ref(p):
    return _RefUPoly(p.coeffs)


def _same(p, ref):
    # p is the reference value, stored in the canonical integer form
    assert p.coeffs == ref.cs
    re, im, den = p._re, p._im, p._den
    assert den > 0 and len(re) == p.degree() + 1
    assert im is None or (len(im) == len(re) and any(im))
    assert not re or re[-1] or im[-1]
    assert gcd(den, *re, *(im or ())) == 1
    assert UPoly(p.coeffs) == p


gauss_polys = st.lists(gaussians, max_size=5).map(UPoly)
nonzero_gauss_polys = gauss_polys.filter(bool)
# c*u**k, the shape of most denominators on the sphere
monomials = st.builds(lambda c, k: UPoly((0,) * k + (c,)),
                      nonzero_gaussians, st.integers(0, 6))
# polynomials with a power of u as a factor, so min(k, v_u) varies
u_multiples = st.builds(lambda p, j: p * UPoly.u(j), gauss_polys, st.integers(0, 4))
# real and complex coefficients, the zero polynomial, constants and c*u**k
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)
reference_polys = st.one_of(
    st.lists(wide_fractions, max_size=6).map(UPoly),
    st.lists(wide_gaussians, max_size=6).map(UPoly),
    st.just(UPoly()),
    st.builds(UPoly.of, wide_gaussians),
    monomials,
)


@settings(max_examples=200)
@given(reference_polys, reference_polys, reference_polys, wide_gaussians,
       wide_gaussians, st.integers(0, 8))
def test_upoly_matches_reference(a, b, common, c, x, n):
    ra, rb = _ref(a), _ref(b)
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(-a, -ra)
    _same(a * b, ra * rb)
    _same(a.jet_mul(b, n), _RefUPoly((ra * rb).cs[:n]))
    _same(a.scale(c), ra.scale(c))
    _same(a.monic(), ra.monic())
    _same(a.derivative(), ra.derivative())
    assert a.eval(x) == ra.eval(x)
    # a common factor, so the gcd and the exact divisions have work to do
    if not common.is_zero():
        a, b = a * common, b * common
        ra, rb = _ref(a), _ref(b)
    _same(a.gcd(b), ra.gcd(rb))
    _same(a.lcm(b), ra.lcm(rb))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    rq, rr = ra.divmod(rb)
    _same(q, rq)
    _same(r, rr)
    if rr:
        with pytest.raises(ValueError, match="not exact"):
            a.exact_div(b)
    else:
        _same(a.exact_div(b), rq)
    _same((a * b).exact_div(b), ra)


any_scalars = st.one_of(st.integers(-50, 50), small_fractions, gaussians)


@settings(max_examples=200)
@given(any_scalars, gauss_polys)
def test_upoly_and_radial_hash_agree_with_equality(c, p):
    # a constant equals, and so must hash like, the scalar it holds; a
    # RadialRational over 1 likewise equals and hashes like its numerator
    for x in (UPoly.of(c), RadialRational.of(c)):
        assert x == c and hash(x) == hash(c)
        assert len({x, c}) == 1
    r = RadialRational(p)
    assert r == p and hash(r) == hash(p)
    assert len({r, p}) == 1


@given(gauss_polys, nonzero_upolys)
def test_upoly_and_radial_truth_is_nonzero(p, d):
    # false exactly for zero, as for GaussianRational
    assert not UPoly() and not UPoly((0, 0)) and not RadialRational(UPoly())
    assert bool(p) is not p.is_zero()
    r = RadialRational(p, d)
    assert bool(r) is not r.is_zero()
    assert UPoly.u(3) and RadialRational.u_power(-1) and RadialRational.of(I)


def test_negative_power_of_u():
    with pytest.raises(ValueError, match="nonnegative"):
        UPoly.u(-1)
    # RadialRational keeps its own negative powers
    assert RadialRational.u_power(-2) == RadialRational(UPoly.of(1), UPoly.u(2))
    assert RadialRational.u_power(-2) * RadialRational.u_power(2) == 1


@settings(max_examples=200)
@given(reference_polys, st.one_of(wide_fractions, small_fractions), st.integers(0, 12))
def test_shifted_matches_the_taylor_formula(p, x, n):
    # coefficient k of p(x + u) is p^(k)(x) / k!, for real and Gaussian p
    taylor, d = [], p
    for k in range(n):
        taylor.append(d.eval(x) / factorial(k))
        d = d.derivative()
    _same(p.shifted(x, n), _RefUPoly(taylor))


@settings(max_examples=200)
@given(monomials, u_multiples, st.booleans())
def test_gcd_with_monomial_matches_euclid(m, p, swap):
    a, b = (p, m) if swap else (m, p)
    _same(a.gcd(b), _ref(a).gcd(_ref(b)))


@given(u_multiples, monomials)
def test_exact_div_by_monomial_matches_long_division(p, m):
    quo, rem = _ref(p).divmod(_ref(m))
    if rem:
        with pytest.raises(ValueError, match="not exact"):
            p.exact_div(m)
    else:
        _same(p.exact_div(m), quo)
    assert (p * m).exact_div(m) == p


def test_exact_div_by_monomial_rejects_a_remainder():
    u = UPoly.u()
    with pytest.raises(ValueError, match="not exact"):
        (u ** 3 + 1).exact_div(u ** 2)
    with pytest.raises(ValueError, match="not exact"):
        (u ** 3 + u).exact_div(u.scale(I) ** 2)
    assert (u ** 3 + u ** 2).exact_div(u.scale(2) ** 2) == (u + 1).scale(Fraction(1, 4))


def test_monomial_operands_skip_long_division(monkeypatch):
    # gcd with, and exact division by, c*u**k run neither the integer
    # pseudo-remainder sequence nor divmod
    def generic(*args):
        raise AssertionError("generic path taken")
    monkeypatch.setattr(scalar, "_int_pseudo_rem", generic)
    monkeypatch.setattr(UPoly, "divmod", generic)
    u = UPoly.u()
    m = u.scale(3) ** 3
    for p in ((u + 2) * u ** 2, (u + I) * u ** 2):
        assert p.gcd(m) == u ** 2 and m.gcd(p) == u ** 2
        assert (p * m).exact_div(m) == p
        assert RadialRational(p, m) == RadialRational(p.exact_div(u ** 2), u.scale(27))


@st.composite
def radial_rationals(draw):
    # n / (u**a (u - c)**b s): repeated factors, complex coefficients and,
    # when a = b = 0 and s is constant, the denominator 1
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    c = draw(nonzero_gaussians)
    s = draw(gauss_polys)
    den = UPoly.u(a) * UPoly((-c, 1)) ** b * (UPoly.of(1) if s.is_zero() else s)
    return RadialRational(draw(gauss_polys), den)


def _reference_radial(num, den):
    # the canonical form by one full gcd of num and den and a monic den
    g = num.gcd(den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num.scale(1 / den.lead()), den.monic()


def _factored(num, den, roots, cyclotomic, exponents):
    # num and den over u, u - c for rational and Gaussian c, and the
    # irreducible u^2 + u + 1; num takes each factor k times for k below,
    # equal to and above its exponent b in den
    bases = [UPoly.u()] + [UPoly((-c, 1)) for c in roots]
    if cyclotomic:
        bases.append(UPoly((1, 1, 1)))
    den = UPoly.of(den)
    for base, (k, b) in zip(bases, exponents):
        num, den = num * base ** k, den * base ** b
    return num, den


factored_fractions = st.builds(
    _factored, gauss_polys, nonzero_gaussians,
    st.lists(st.sampled_from([1, -3, Fraction(1, 2), Fraction(-3, 2), 2 + I, -I,
                              GaussianRational(Fraction(2, 3), 1)]), max_size=2),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=4, max_size=4))


# powers of factors that share no root with those of factored_fractions
coprime_denominators = st.builds(
    lambda k, m: UPoly((5, 1)) ** k * UPoly((2, 0, 1)) ** m,
    st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=200)
@given(factored_fractions, nonzero_gauss_polys, gauss_polys, coprime_denominators)
def test_radial_rational_matches_full_gcd_reference(fraction, h, num2, den2):
    num, den = fraction
    r = RadialRational(num, den)
    assert (r.num, r.den) == _reference_radial(num, den)
    # the same function spelled with a common factor: equal, and so hashed alike
    s = RadialRational(num * h, den * h)
    assert (s.num, s.den) == (r.num, r.den)
    assert s == r and hash(s) == hash(r)
    # a sum over coprime denominators: reduced as it stands, and zero only
    # when both terms are, unless both denominators are 1
    q = RadialRational(num2, den2)
    for x, y in ((r, q), (q, r)):
        total = x + y
        assert (total.num, total.den) == _reference_radial(
            x.num * y.den + y.num * x.den, x.den * y.den)
        if x.den != y.den:
            assert bool(total) == bool(x or y)


@given(radial_rationals())
def test_derivative_matches_quotient_rule(f):
    n, d = f.num, f.den
    got = f.derivative()
    assert got == RadialRational(n.derivative() * d - n * d.derivative(), d * d)
    # canonical without the constructor: coprime parts, monic denominator
    assert _ref(got.num).gcd(_ref(got.den)) == _RefUPoly([1])
    assert got.den.lead() == 1


@given(radial_rationals().filter(lambda r: not r.is_zero()), gaussians)
def test_radial_reciprocal_matches_constructor(r, c):
    # the reciprocal swaps the reduced parts without a gcd
    assert 1 / r == RadialRational(r.den, r.num)
    assert c / r == RadialRational.of(c) * RadialRational(r.den, r.num)


@pytest.mark.parametrize("x", [
    UPoly((1, I, Fraction(1, 2))),
    RadialRational(UPoly((2, I)), UPoly((0, 1, 1))),
    parse_expression("q1 + I*p1 - 2", "flat", 1),
    parse_expression("z1 + zb1/u - 1", "radial-linear", 1),
], ids=["UPoly", "RadialRational", "FlatPoly", "RadialFun"])
def test_pow_matches_repeated_product(x):
    acc = x ** 0
    for n in range(10):
        assert x ** n == acc
        acc = acc * x


def test_lambda_series_ring():
    one, zero = GaussianRational(1), GaussianRational(0)
    a = LambdaSeries((one, one, zero))               # 1 + lambda
    b = LambdaSeries((one, -one, zero))              # 1 - lambda
    assert (a + b).coeffs == (one * 2, zero, zero)
    assert (a - b).coeffs == (zero, one * 2, zero)
    assert (-a).coeffs == (-one, -one, zero)
    unit = LambdaSeries((one, zero, zero))
    assert a - unit == LambdaSeries((zero, one, zero))


def test_lambda_series_truncation_to_min_order():
    one, zero = GaussianRational(1), GaussianRational(0)
    a = LambdaSeries((one, zero, zero, zero))
    b = LambdaSeries((one, zero, zero))
    assert (a + b).order == 2
    assert (a - b).order == 2
    assert a.truncated(1).order == 1


def test_lambda_series_mismatched_algebras():
    a = LambdaSeries((GaussianRational(1), GaussianRational(0)))
    b = LambdaSeries((RadialRational.of(1), RadialRational.of(0)))
    with pytest.raises(AlgebraMismatchError):
        a + b


series3 = st.builds(
    lambda cs: LambdaSeries(tuple(GaussianRational(c) for c in cs)),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
)


@given(series3, series3, series3)
def test_lambda_series_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - b == a + (-b)
    assert (a - a).coeffs == (GaussianRational(0),) * 3


def _q1():
    return parse_expression("q1", "flat", 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GaussianRational(1.5), TypeError, "cannot interpret 1.5 as an exact rational"),
    (lambda: scalar.pairing_kernel(_q1(), _q1(), -1, (), (), 1), ValueError,
     "kernel order must be nonnegative"),
    (lambda: GaussianRational(2) ** 0.5, TypeError, "exponent must be an integer"),
    (lambda: UPoly().lead(), ValueError, "zero polynomial has no leading coefficient"),
    (lambda: UPoly.u(1) ** -1, TypeError,
     "polynomial exponent must be a nonnegative integer"),
    (lambda: RadialRational.u_power(1) / 0, ZeroDivisionError,
     "division by the zero rational function"),
    (lambda: 1 / RadialRational(UPoly()), ZeroDivisionError,
     "division by the zero rational function"),
    (lambda: RadialRational.u_power(1) ** 0.5, TypeError, "exponent must be an integer"),
    (lambda: LambdaSeries(()), ValueError, "a series needs at least the order-0 coefficient"),
    (lambda: LambdaSeries((_q1(),)) + 1, AlgebraMismatchError,
     "expected a LambdaSeries, got 1"),
    (lambda: scalar.kernel_series(scalar.pairing_kernel, _q1(), _q1(), -1), ValueError,
     "truncation order must be nonnegative"),
], ids=["float gaussian", "pairing_kernel order", "gaussian float power",
        "zero lead", "negative upoly power", "truediv by zero", "rtruediv by zero",
        "radial float power", "empty series", "series and scalar",
        "kernel_series order"])
def test_reachable_input_checks_raise(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()
