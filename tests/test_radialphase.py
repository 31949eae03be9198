import re
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from costar.radialphase import (
    ParityError,
    RadialConstraint,
    RadialFun,
    constraint_kernel,
    is_homogeneous,
    pij,
    poisson,
    prol,
    scalar_ratio,
    wick_kernel,
    wick_product,
)
from costar.reduction import radial_setup
from costar.scalar import (
    GaussianRational,
    I,
    LambdaSeries,
    PoleError,
    RadialRational,
    UPoly,
)

HALF = Fraction(1, 2)


def gauss(lo=-3, hi=3):
    return st.builds(GaussianRational, st.integers(lo, hi), st.integers(lo, hi))


def radial_polys():
    # small polynomials in u, poles never needed for the random inputs
    return st.builds(lambda cs: RadialRational(UPoly(cs)),
                     st.lists(st.integers(-2, 2), max_size=3))


def radial_rationals():
    dens = st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any)
    return st.builds(lambda cs, ds: RadialRational(UPoly(cs), UPoly(ds)),
                     st.lists(st.integers(-2, 2), max_size=3), dens)


def sphere_regular_rationals():
    # denominators with no zero at u > 0, so none on a sphere u = -2*mu
    dens = st.sampled_from([(1,), (0, 1), (0, 0, 1), (1, 2, 1), (1, 1, 1)])
    return st.builds(lambda cs, ds: RadialRational(UPoly(cs), UPoly(ds)),
                     st.lists(gauss(), max_size=3), dens)


EVEN_KEYS_2 = [
    ((0, 0), (0, 0)),
    ((1, 0), (1, 0)),
    ((0, 1), (0, 1)),
    ((1, 0), (0, 1)),
    ((2, 0), (0, 0)),
    ((1, 1), (1, 1)),
    ((0, 2), (2, 0)),
]
ANY_KEYS_2 = EVEN_KEYS_2 + [
    ((1, 0), (0, 0)),
    ((0, 0), (1, 0)),
    ((1, 1), (0, 1)),
]


def funs(keys, dim=2, max_terms=3, radials=radial_polys):
    pairs = st.lists(
        st.tuples(st.sampled_from(keys), radials()),
        max_size=max_terms,
    )
    return pairs.map(lambda ps: RadialFun(dim, ps))


def swap(f):
    # exchange alpha and beta in every term, keeping the radial parts
    return RadialFun(f.dim, {(b, a): r for (a, b), r in f.terms.items()})


def star_series(fs, gs, order):
    # bilinear extension of the kernel family to truncated series
    n = min(fs.order, gs.order, order)
    dim = fs[0].dim
    coeffs = []
    for m in range(n + 1):
        acc = RadialFun.zero(dim)
        for r in range(m + 1):
            for j in range(m - r + 1):
                acc = acc + wick_kernel(fs[j], gs[m - r - j], r)
        coeffs.append(acc)
    return LambdaSeries(tuple(coeffs))


def as_series(f, order):
    return LambdaSeries((f,) + (RadialFun.zero(f.dim),) * order)


def test_dim1_canonical_rewrite():
    f = RadialFun.monomial((2,), (1,))
    assert f.terms == {((1,), (0,)): RadialRational.u_power(1)}
    assert RadialFun.z(1, 1) * RadialFun.zbar(1, 1) == RadialFun.u(1)


def test_dim2_keeps_monomial_split():
    f = RadialFun.z(1, 2) * RadialFun.zbar(1, 2)
    assert f.terms == {((1, 0), (1, 0)): RadialRational.of(1)}
    assert f != RadialFun.u(2)


def test_representation_equality():
    # u and its monomial expansion are the same function on C^2
    split = (RadialFun.z(1, 2) * RadialFun.zbar(1, 2)
             + RadialFun.z(2, 2) * RadialFun.zbar(2, 2))
    assert split == RadialFun.u(2)
    assert (split - RadialFun.u(2)).is_zero()
    assert split.terms != RadialFun.u(2).terms


@given(funs(ANY_KEYS_2), funs(ANY_KEYS_2), funs(ANY_KEYS_2))
def test_ring_laws(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f - f == RadialFun.zero(2)


@given(funs(ANY_KEYS_2))
def test_normal_form_round_trip(f):
    # f = (sum cells) / den(u), rebuilt term by term from the cells
    den, cells = f.expansion()
    rebuilt = RadialFun(2, [(key, RadialRational(UPoly.of(c), den))
                            for key, c in cells.items()])
    assert rebuilt == f


def test_derivatives():
    u = RadialFun.u(2)
    assert u.d_z(1) == RadialFun.zbar(1, 2)
    assert u.d_zbar(2) == RadialFun.z(2, 2)
    # the lowered exponent comes down as a factor, on either side
    m, ru = RadialFun.monomial, RadialRational.u_power(1)
    f = m((3, 0), (1, 2), radial=ru)
    assert f.d_z(1) == m((2, 0), (1, 2), radial=ru * 3) + m((3, 0), (2, 2))
    assert f.d_zbar(2) == m((3, 0), (1, 1), radial=ru * 2) + m((3, 1), (1, 2))
    # after dim-1 canonicalization z zbar / u is the constant 1
    f = RadialFun.monomial((1,), (1,), radial=RadialRational.u_power(-1))
    assert f == RadialFun.one(1)
    assert f.d_z(1).is_zero()
    with pytest.raises(ValueError):
        u.d_z(3)


def test_euler_operators():
    f = RadialFun.z(1, 2) * RadialFun.zbar(2, 2)
    assert f.euler_e() == f
    assert f.euler_ebar() == f
    u = RadialFun.u(2)
    assert u.euler_e() == u
    assert (RadialFun.z(1, 2) * RadialFun.zbar(1, 2) * u).euler_e() == \
        (RadialFun.z(1, 2) * RadialFun.zbar(1, 2) * u).scale(2)


@settings(max_examples=200)
@given(funs(ANY_KEYS_2, radials=radial_rationals), st.sampled_from([1, 2]))
def test_zbar_operations_mirror_z(f, i):
    # d/dzbar and Ebar are d/dz and E with alpha and beta swapped
    assert swap(f).d_z(i) == swap(f.d_zbar(i))
    assert swap(f).euler_e() == swap(f.euler_ebar())


def test_is_homogeneous():
    f = RadialFun.monomial((1, 0), (1, 0), radial=RadialRational.u_power(-1))
    assert is_homogeneous(f)
    assert not is_homogeneous(RadialFun.u(2))
    assert not is_homogeneous(RadialFun.z(1, 2))


def test_poisson_canonical_pair():
    z, zb = RadialFun.z(1, 2), RadialFun.zbar(1, 2)
    assert poisson(z, zb) == RadialFun.constant(I * (-2), 2)
    assert poisson(zb, z) == RadialFun.constant(I * 2, 2)


@settings(max_examples=200)
@given(funs(ANY_KEYS_2), funs(ANY_KEYS_2), funs(ANY_KEYS_2))
def test_poisson_laws(f, g, h):
    zero = RadialFun.zero(2)
    assert poisson(f, g) + poisson(g, f) == zero
    assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)


def test_wick_lowest_orders():
    z, zb = RadialFun.z(1, 1), RadialFun.zbar(1, 1)
    assert wick_kernel(z, zb, 0) == RadialFun.u(1)
    assert wick_kernel(z, zb, 1) == RadialFun.constant(2, 1)
    assert wick_kernel(zb, z, 1).is_zero()
    assert wick_kernel(z, zb, 2).is_zero()
    s = wick_product(z, zb, 2)
    assert s == LambdaSeries((RadialFun.u(1), RadialFun.constant(2, 1),
                              RadialFun.zero(1)))


@given(funs(ANY_KEYS_2), funs(ANY_KEYS_2))
def test_wick_axioms(f, g):
    one = RadialFun.one(2)
    assert wick_product(f, one, 3) == as_series(f, 3)
    assert wick_product(one, f, 3) == as_series(f, 3)
    assert wick_kernel(f, g, 0) == f * g
    commutator = wick_kernel(f, g, 1) - wick_kernel(g, f, 1)
    assert commutator == poisson(f, g).scale(I)


def test_wick_associative_fixed():
    z, zb = RadialFun.z(1, 1), RadialFun.zbar(1, 1)
    u = RadialFun.u(1)
    order = 4
    for f, g, h in [(z, zb, z), (u, z * z, zb * zb), (u * u, zb, z)]:
        lhs = star_series(wick_product(f, g, order), as_series(h, order), order)
        rhs = star_series(as_series(f, order), wick_product(g, h, order), order)
        assert lhs == rhs


@given(funs(ANY_KEYS_2, max_terms=2), funs(ANY_KEYS_2, max_terms=2),
       funs(ANY_KEYS_2, max_terms=2))
def test_wick_associative_random(f, g, h):
    order = 3
    lhs = star_series(wick_product(f, g, order), as_series(h, order), order)
    rhs = star_series(as_series(f, order), wick_product(g, h, order), order)
    assert lhs == rhs


def _uncapped_wick(f, g, r):
    # M_r as wick_kernel's docstring states it: (2^r / r!) times the sum,
    # over every r-tuple of indices, of the z derivatives of f by those
    # indices times the zbar derivatives of g; no caps, no early exits
    acc = RadialFun.zero(f.dim)
    for idx in product(range(1, f.dim + 1), repeat=r):
        df, dg = f, g
        for i in idx:
            df, dg = df.d_z(i), dg.d_zbar(i)
        acc = acc + df * dg
    return acc.scale(Fraction(2 ** r, factorial(r)))


def kernel_funs(dim):
    exps = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    over_u = st.builds(lambda cs, k: RadialRational(UPoly(cs), UPoly.u(k)),
                       st.lists(st.integers(-2, 2), max_size=2), st.integers(1, 2))
    terms = st.lists(st.tuples(st.tuples(exps, exps),
                               st.one_of(radial_polys(), over_u)), max_size=3)
    return st.one_of(
        st.just(RadialFun.zero(dim)),
        gauss().map(lambda c: RadialFun.constant(c, dim)),
        terms.map(lambda ts: RadialFun(dim, ts)),
    )


@settings(max_examples=200)
@given(st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(kernel_funs(d),
                                                              kernel_funs(d))),
       st.integers(0, 4))
def test_wick_kernel_matches_uncapped_sum(fg, r):
    f, g = fg
    assert wick_kernel(f, g, r) == _uncapped_wick(f, g, r)


@given(st.builds(Fraction, st.integers(-10 ** 6, -1), st.integers(1, 10 ** 6)))
def test_constraint_validation(mu):
    # the sphere is a simple zero of J for every negative mu
    for kind in ("linear", "quadratic"):
        j = RadialConstraint(kind, mu).j_radial()
        assert j.eval(-2 * mu).is_zero()
        assert not j.derivative().eval(-2 * mu).is_zero()
    c = RadialConstraint.linear(-HALF)
    assert c.sphere_u == 1
    assert c.j_radial().eval(1).is_zero()
    q = RadialConstraint.quadratic(-HALF)
    assert q.j_radial() == RadialRational(UPoly((-Fraction(1, 4), 0, Fraction(1, 4))))
    with pytest.raises(ValueError):
        RadialConstraint.linear(0)
    with pytest.raises(ValueError):
        RadialConstraint.quadratic(Fraction(1, 2))
    with pytest.raises(ValueError):
        RadialConstraint("cubic", -1)


def test_restrict_examples():
    # the value on the sphere, read through prol
    c = RadialConstraint.linear(-HALF)
    f = RadialFun.from_radial(RadialRational(UPoly.of(1), UPoly((1, 1))), 2)
    assert prol(f, c) == RadialFun.constant(HALF, 2)
    assert radial_setup(c, 2).prol(c.j(2)).is_zero()
    with pytest.raises(ParityError, match="even"):
        prol(RadialFun.z(1, 2), c)
    pole = RadialFun.from_radial(RadialRational(UPoly.of(1), UPoly((-1, 1))), 2)
    with pytest.raises(PoleError, match="u = 1"):
        prol(pole, c)


def test_prol_examples():
    c = RadialConstraint.linear(-HALF)
    f = RadialFun.z(1, 2) * RadialFun.zbar(1, 2)
    p = prol(f, c)
    assert p == RadialFun.monomial((1, 0), (1, 0), radial=RadialRational.u_power(-1))
    assert prol(p, c) == p
    assert prol(RadialFun.u(2), c) == RadialFun.one(2)


def test_sphere_vanishing_is_representation_free():
    # zero on the sphere but nonzero as an ambient stored form
    c = RadialConstraint.linear(-HALF)
    f = (RadialFun.z(1, 2) * RadialFun.zbar(1, 2)
         + RadialFun.z(2, 2) * RadialFun.zbar(2, 2)
         - RadialFun.one(2))
    assert not f.is_zero()
    # two spellings of u give one function on the sphere
    assert prol(f + RadialFun.one(2), c) == prol(RadialFun.u(2), c)
    setup = radial_setup(c, 2)
    assert setup.prol(f).is_zero()
    assert not setup.prol(f + RadialFun.one(2)).is_zero()


def test_pij_examples():
    lin = RadialConstraint.linear(-HALF)
    quad = RadialConstraint.quadratic(-HALF)
    u = RadialFun.u(2)
    assert pij(u, lin) == RadialFun.constant(-2, 2)
    expected = RadialFun.from_radial(RadialRational(UPoly.of(4), UPoly((1, 1))), 2)
    assert pij(u, quad) == expected
    # difference quotients of u^2 agree on the sphere up to the slope ratio
    lin2 = pij(u * u, lin)
    assert lin2 == RadialFun.from_radial(RadialRational(UPoly((-2, -2))), 2)
    assert prol(lin2, lin) == RadialFun.constant(-4, 2)
    assert prol(pij(u * u, quad), quad) == RadialFun.constant(4, 2)


@settings(max_examples=200)
@given(funs(EVEN_KEYS_2, radials=sphere_regular_rationals),
       st.sampled_from([Fraction(-1, 2), Fraction(-3, 2)]),
       st.sampled_from(["linear", "quadratic"]))
def test_decomposition_identity(f, mu, kind):
    c = RadialConstraint(kind, mu)
    q = pij(f, c)
    # the quotient has no pole on the sphere
    assert all(r.den.eval(c.sphere_u) for r in q.terms.values())
    assert prol(f, c) + q * c.j(2) == f
    assert prol(prol(f, c), c) == prol(f, c)
    assert prol(f - prol(f, c), c).is_zero()


@given(funs(EVEN_KEYS_2), st.sampled_from([Fraction(-1, 2), Fraction(-2)]))
def test_restricted_quotient_is_scaled_euler(f, mu):
    # on the sphere the linear difference quotient is (E + Ebar)/(2 mu)
    c = RadialConstraint.linear(mu)
    lhs = prol(pij(f, c), c)
    rhs = prol(f.euler_e() + f.euler_ebar(), c).scale(Fraction(1, 2) / mu)
    assert lhs == rhs


@given(funs(ANY_KEYS_2, max_terms=2))
def test_kernels_against_linear_constraint(h):
    j = RadialConstraint.linear(-HALF).j(2)
    assert wick_kernel(h, j, 1) == -h.euler_e()
    assert wick_kernel(h, j, 2).is_zero()
    assert wick_kernel(h, j, 3).is_zero()


@given(funs(ANY_KEYS_2, max_terms=2))
def test_kernels_against_quadratic_constraint(h):
    j = RadialConstraint.quadratic(-HALF).j(2)
    e = h.euler_e()
    assert wick_kernel(h, j, 1) == RadialFun.u(2) * e
    assert wick_kernel(h, j, 2) == e.euler_e() - e
    assert wick_kernel(h, j, 3).is_zero()


def test_scalar_ratio():
    f = RadialFun.u(2) + RadialFun.z(1, 2) * RadialFun.zbar(2, 2)
    assert scalar_ratio(f.scale(GaussianRational(3, 1)), f) == GaussianRational(3, 1)
    assert scalar_ratio(f, f + RadialFun.one(2)) is None
    assert scalar_ratio(f, RadialFun.zero(2)) is None
    assert scalar_ratio(RadialFun.zero(2), f) == GaussianRational(0)


@pytest.mark.parametrize("call, message", [
    (lambda: RadialFun(2, [(((1,), (1,)), 1)]), "exponent tuples must have length 2"),
    (lambda: RadialFun(2, [(((-1, 0), (1, 0)), 1)]), "negative monomial exponent"),
    (lambda: RadialFun.z(0, 2), "z index out of range"),
    (lambda: RadialFun.zbar(3, 2), "zbar index out of range"),
    (lambda: constraint_kernel(RadialConstraint.linear(-HALF).kernel_parts())(
        RadialFun.u(2), -1), "kernel order must be nonnegative"),
], ids=["tuple length", "negative exponent", "z index", "zbar index",
        "j_kernel order"])
def test_reachable_input_checks_raise(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
