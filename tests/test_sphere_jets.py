"""prol(T(series)) on Taylor jets at the sphere against prol of the
generic transfer_series, and RadialFun.is_zero against its expansion."""

from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from costar.radialphase import ParityError, RadialConstraint, RadialFun
from costar.reduction import (
    PhaseSetup,
    in_istar,
    prol_transfer,
    radial_setup,
    reduce_star,
    transfer_series,
)
from costar.scalar import GaussianRational, LambdaSeries, PoleError, RadialRational, UPoly

MUS = [Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)]


def generic(setup):
    # the same setup without its jet path: prol of transfer_series
    return PhaseSetup(setup.label, setup.j, setup.kernel, setup.j_kernel,
                      setup.prol, setup.pij, setup.bracket)


@cache
def keys(dim, degree):
    # (alpha, beta) with |alpha| + |beta| = degree, exponents at most 2
    out = []
    for a in range(3 ** dim):
        for b in range(3 ** dim):
            alpha = tuple(a // 3 ** i % 3 for i in range(dim))
            beta = tuple(b // 3 ** i % 3 for i in range(dim))
            if sum(alpha) + sum(beta) == degree:
                out.append((alpha, beta))
    return out


def radial_parts():
    # c u^e num(u) / (u + 1)^k: no pole on the spheres a = 1, 2, 3
    return st.builds(
        lambda c, e, num, k: RadialRational(
            UPoly(num or [1]), UPoly((1, 1)) ** k).scale(c) * RadialRational.u_power(e),
        st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2)).filter(bool),
        st.integers(-2, 1), st.lists(st.integers(-2, 2), max_size=3), st.integers(0, 1))


def funs(dim, degrees=(0, 2, 4)):
    ks = [k for d in degrees for k in keys(dim, d)]
    return st.lists(st.tuples(st.sampled_from(ks), radial_parts()),
                    max_size=3).map(lambda ts: RadialFun(dim, ts))


@st.composite
def sphere_series(draw):
    # a_m = g_m J + h_m: the g_m J part is a multiple of J, whose T has
    # terms at every order, and h_m is neither prolonged nor in the ideal
    dim = draw(st.sampled_from([1, 2, 3]))
    constraint = RadialConstraint(draw(st.sampled_from(["linear", "quadratic"])),
                                  draw(st.sampled_from(MUS)))
    setup = radial_setup(constraint, dim)
    order = draw(st.integers(0, 5))
    coeffs = tuple(draw(funs(dim)) * setup.j + draw(funs(dim))
                   for _ in range(order + 1))
    return setup, LambdaSeries(coeffs)


@settings(max_examples=200)
@given(sphere_series())
def test_prol_transfer_matches_generic(case):
    setup, series = case
    want = transfer_series(setup, series).map(setup.prol)
    got = prol_transfer(setup, series)
    # the same stored terms, not only equal functions
    assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]
    assert in_istar(setup, series) == all(c.is_zero() for c in want.coeffs)


def test_sample_series_reach_the_top_order():
    # prol T_n of a multiple of J is nonzero up to n = 5 once a radial part
    # is not a polynomial (on polynomials the Euler steps run out), so the
    # jets of every order take part in the comparison above
    inv = RadialRational(1, UPoly((1, 1)))
    for kind in ("linear", "quadratic"):
        for dim in (1, 2, 3):
            setup = radial_setup(RadialConstraint(kind, -1), dim)
            g = RadialFun.monomial((1,) + (0,) * (dim - 1), (0,) * (dim - 1) + (1,),
                                   radial=inv) + RadialFun.u(dim, 2)
            series = setup.as_series(g * setup.j, 5)
            got = prol_transfer(setup, series)
            assert all(not c.is_zero() for c in got.coeffs[1:])
            assert got == transfer_series(setup, series).map(setup.prol)


def outcome(fn):
    try:
        return "value", fn()
    except (ParityError, PoleError) as e:
        return type(e), str(e)


BAD = [
    RadialFun.z(1, 2),  # odd
    RadialFun.monomial((1, 0), (0, 1), radial=RadialRational(1, UPoly((-2, 1)))),
]


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("at", range(4))
@pytest.mark.parametrize("bad", BAD, ids=["odd", "pole"])
def test_errors_match_the_generic_path(kind, at, bad):
    # an odd term, or a pole at a = 2, at order `at` of an order-3 series:
    # the same exception and message as prol of transfer_series, and
    # in_istar stops where it stopped, before a_3 when a_0 is off the ideal
    setup = radial_setup(RadialConstraint(kind, -1), 2)
    ok = RadialFun.z(1, 2) * RadialFun.zbar(2, 2) * setup.j
    off_ideal = RadialFun.u(2)
    for first in (ok, off_ideal):
        coeffs = [first, ok, ok.scale(2), ok]
        coeffs[at] = coeffs[at] + bad
        series = LambdaSeries(tuple(coeffs))
        want = outcome(lambda: transfer_series(setup, series).map(setup.prol))
        assert want[0] != "value"
        assert outcome(lambda: prol_transfer(setup, series)) == want
        got = outcome(lambda: in_istar(setup, series))
        assert got == outcome(lambda: in_istar(generic(setup), series))
        if first is off_ideal:
            assert got == (("value", False) if at == 3 else want)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_radial_reduce_star_makes_no_j_kernel_call(kind):
    constraint = RadialConstraint(kind, Fraction(-3, 2))
    setup = radial_setup(constraint, 3)
    calls = Counter()
    j_kernel, pij = setup.j_kernel, setup.pij

    def counted_j_kernel(f, r):
        calls["j_kernel"] += 1
        return j_kernel(f, r)

    def counted_pij(f):
        calls["pij"] += 1
        return pij(f)

    setup.j_kernel, setup.pij = counted_j_kernel, counted_pij
    f = RadialFun.monomial((1, 0, 0), (0, 1, 0), radial=RadialRational.u_power(-1))
    g = RadialFun.monomial((0, 1, 0), (0, 0, 1), radial=RadialRational.u_power(-1))
    got = reduce_star(setup, f, g, 4)
    assert not calls
    assert got == reduce_star(generic(radial_setup(constraint, 3)), f, g, 4)


@st.composite
def cancelling_funs(draw):
    # u spelled as sum z_i zbar_i times random parts, minus the same parts
    # times u, plus random terms: is_zero must see through the spellings
    dim = draw(st.sampled_from([2, 3]))
    u_sum = sum((RadialFun.z(i, dim) * RadialFun.zbar(i, dim)
                 for i in range(1, dim + 1)), RadialFun.zero(dim))
    parts = draw(funs(dim, degrees=(0, 1, 2)))
    extra = draw(st.one_of(st.just(RadialFun.zero(dim)), funs(dim, degrees=(0, 1, 2))))
    return (u_sum - RadialFun.u(dim)) * parts + extra


@settings(max_examples=200)
@given(cancelling_funs())
def test_is_zero_matches_the_expansion(f):
    assert f.is_zero() == (not f.expansion()[1])
