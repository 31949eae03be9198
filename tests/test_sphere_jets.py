"""prol(T(series)) and prol(T(fs * gs)) on Taylor jets at the sphere
against prol of the generic transfer_series and star_series, and
RadialFun.is_zero and RadialFun.expansion against a term-by-term
multinomial expansion."""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from costar import radialphase
from costar.radialphase import ParityError, RadialConstraint, RadialFun, SphereJets
from costar.reduction import (
    PhaseSetup,
    in_istar,
    prol_transfer,
    radial_setup,
    reduce_star,
    reduce_star_series,
    transfer_series,
)
from costar.scalar import (
    GaussianRational,
    I,
    LambdaSeries,
    PoleError,
    RadialRational,
    UPoly,
)

MUS = [Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)]


def generic(setup):
    # the same setup without its jet paths: the forward substitution and
    # star_series with the Wick kernels on RadialFuns
    return PhaseSetup(setup.label, setup.j, setup.kernel, setup.j_kernel,
                      setup.prol, setup.pij)


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


def gaussians():
    return st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2)).filter(bool)


def radial_parts():
    # c u^e num(u) / (u + 1)^k: no pole on the spheres a = 1, 2, 3
    return st.builds(
        lambda c, e, num, k: RadialRational(
            UPoly(num or [1]), UPoly((1, 1)) ** k).scale(c) * RadialRational.u_power(e),
        gaussians(), st.integers(-2, 1), st.lists(st.integers(-2, 2), max_size=3),
        st.integers(0, 1))


def funs(dim, degrees=(0, 2, 4), min_size=0):
    ks = [k for d in degrees for k in keys(dim, d)]
    return st.lists(st.tuples(st.sampled_from(ks), radial_parts()),
                    min_size=min_size, max_size=3).map(lambda ts: RadialFun(dim, ts))


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
    # in_istar stops where the eager transfer stopped, before a_3 when a_0
    # is off the ideal
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
        assert got == outcome(lambda: all(
            c.is_zero() for c in map(setup.prol, transfer_series(setup, series).coeffs)))
        if first is off_ideal:
            assert got == (("value", False) if at == 3 else want)


@st.composite
def factor_series(draw):
    # two series of even factors with no pole at the sphere, of orders n
    # and n or n + 1 on one setup, the longer one truncated by the product
    dim = draw(st.sampled_from([1, 2, 3]))
    constraint = RadialConstraint(draw(st.sampled_from(["linear", "quadratic"])),
                                  draw(st.sampled_from(MUS)))
    n = draw(st.integers(0, 4 if dim < 3 else 3))

    def series():
        order = n + draw(st.integers(0, 1))
        return LambdaSeries((draw(funs(dim, min_size=1)),) + tuple(
            draw(funs(dim)) for _ in range(order)))

    return radial_setup(constraint, dim), series(), series()


@settings(max_examples=200)
@given(factor_series())
def test_reduce_star_series_matches_generic(case):
    # the Wick product on jets from the factors against prol_transfer of
    # star_series: the same stored terms at every order
    setup, fs, gs = case
    got = reduce_star_series(setup, fs, gs)
    want = reduce_star_series(generic(setup), fs, gs)
    assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("at", range(3))
@pytest.mark.parametrize("bad", BAD, ids=["odd", "pole"])
def test_reduce_star_series_checks_the_factors(kind, at, bad):
    # an odd term or a pole at a = 2 in coefficient `at` of either factor
    # raises what prol raises on that coefficient
    setup = radial_setup(RadialConstraint(kind, -1), 2)
    ok = RadialFun.z(1, 2) * RadialFun.zbar(2, 2) * RadialRational.u_power(-1)
    for left in (True, False):
        coeffs = [ok, ok.scale(2), setup.one]
        coeffs[at] = coeffs[at] + bad
        bad_series = LambdaSeries(tuple(coeffs))
        fs, gs = (bad_series, setup.as_series(ok, 2)) if left else (
            setup.as_series(ok, 2), bad_series)
        want = outcome(lambda: setup.prol(coeffs[at]))
        assert want[0] in (ParityError, PoleError)
        assert outcome(lambda: reduce_star_series(setup, fs, gs)) == want


def test_odd_factors_raise_where_their_product_is_even():
    # z1 * zb1 = z1 zb1 + 2 is even, and the generic path reduces it; the
    # jets refuse the odd factors, as the reduce_star_series docstring says
    setup = radial_setup(RadialConstraint.linear(-1), 2)
    fs, gs = setup.as_series(RadialFun.z(1, 2), 2), setup.as_series(RadialFun.zbar(1, 2), 2)
    assert outcome(lambda: reduce_star_series(generic(setup), fs, gs))[0] == "value"
    assert outcome(lambda: reduce_star_series(setup, fs, gs)) == outcome(
        lambda: setup.prol(fs[0]))


def counted_jets(setup, calls):
    # setup with its jets hook counted into calls: one count per jet setup
    # built, and one per call of that setup's kernel, j_kernel and pij
    jets = setup.jets

    def counted(order):
        jet_setup, convert = jets(order)
        kernel, j_kernel, pij = jet_setup.kernel, jet_setup.j_kernel, jet_setup.pij

        def counted_kernel(f, g, r):
            calls["kernel"] += 1
            return kernel(f, g, r)

        def counted_j_kernel(f, r):
            calls["j_kernel"] += 1
            return j_kernel(f, r)

        def counted_pij(f):
            calls["pij"] += 1
            return pij(f)

        calls["jets", order] += 1
        jet_setup.kernel, jet_setup.j_kernel = counted_kernel, counted_j_kernel
        jet_setup.pij = counted_pij
        return jet_setup, convert

    setup.jets = counted
    return setup


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_radial_reduce_star_makes_no_j_kernel_call(kind, monkeypatch):
    # no kernel, j_kernel or pij call with a RadialFun operand but
    # admissibility's M_1(J, x) and M_1(x, J) on each factor: the Wick
    # product and the transfer run on the jet setup, whose operands are
    # JetFuns
    constraint = RadialConstraint(kind, Fraction(-3, 2))
    setup = radial_setup(constraint, 3)
    calls, on_radial = Counter(), []

    def counted(name, fn):
        def wrapper(*args):
            algebra = type(args[0]).__name__
            calls[name, algebra] += 1
            if algebra != "JetFun":
                on_radial.append((name,) + args)
            return fn(*args)
        return wrapper

    f = RadialFun.monomial((1, 0, 0), (0, 1, 0), radial=RadialRational.u_power(-1))
    g = RadialFun.monomial((0, 1, 0), (0, 0, 1), radial=RadialRational.u_power(-1))
    monkeypatch.setattr(radialphase, "wick_kernel",
                        counted("wick_kernel", radialphase.wick_kernel))
    setup.kernel, setup.j_kernel, setup.pij = (
        counted(name, fn) for name, fn in (("kernel", setup.kernel),
                                           ("j_kernel", setup.j_kernel),
                                           ("pij", setup.pij)))
    got = reduce_star(setup, f, g, 4)
    assert on_radial == [("kernel", setup.j, f, 1), ("j_kernel", f, 1),
                         ("kernel", setup.j, g, 1), ("j_kernel", g, 1)]
    assert calls["wick_kernel", "JetFun"] == 5
    assert got == reduce_star(generic(radial_setup(constraint, 3)), f, g, 4)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_reduce_makes_the_closed_counts_on_the_jet_setup(kind, dim):
    # a reduce at order n builds one jet setup and runs the forward
    # substitution on it: n pij and n(n+1)/2 j_kernel calls, and one Wick
    # kernel per order, as the factors' higher coefficients have no terms;
    # prol_transfer makes the same transfer with no Wick kernel
    setup = radial_setup(RadialConstraint(kind, Fraction(-1, 2)), dim)
    f = RadialFun.monomial((1,) + (0,) * (dim - 1), (0,) * (dim - 1) + (1,),
                           radial=RadialRational.u_power(-1))
    g = f.scale(2) + setup.one
    calls = Counter()
    counted = counted_jets(radial_setup(RadialConstraint(kind, Fraction(-1, 2)), dim),
                           calls)
    for n in range(5):
        calls.clear()
        reduce_star(counted, f, g, n)
        assert calls == Counter({("jets", n): 1, "kernel": n + 1, "pij": n,
                                 "j_kernel": n * (n + 1) // 2})
        calls.clear()
        prol_transfer(counted, setup.as_series(f * setup.j, n))
        assert calls == Counter({("jets", n): 1, "pij": n,
                                 "j_kernel": n * (n + 1) // 2})


@st.composite
def jet_operands(draw):
    # a ring of jets at the sphere a = -2 mu, two radial parts with no pole
    # at a, and two lengths up to the ring's top 2 order + 1
    constraint = RadialConstraint(draw(st.sampled_from(["linear", "quadratic"])),
                                  draw(st.sampled_from(MUS)))
    order = draw(st.integers(0, 4))
    jets = SphereJets(constraint, constraint.kernel_parts(), 1, order)
    top = 2 * order + 1
    return (jets, draw(radial_parts()), draw(radial_parts()),
            draw(st.integers(1, top)), draw(st.integers(1, top)))


def stored(x):
    return x.p, x.n


@settings(max_examples=200)
@given(jet_operands())
def test_jets_are_a_ring_map_mod_t_n(case):
    # the jet of a sum, a product, a derivative and a power of u is that
    # operation on the jets, to the length the deficit rule gives: the
    # smaller length, n1 + n2 - top, and n - 1
    jets, r, s, n1, n2 = case
    top = 2 * jets.order + 1
    x, y = jets.jet(r, n1), jets.jet(s, n2)
    assert stored(x + y) == stored(jets.jet(r + s, min(n1, n2)))
    assert stored(x - y) == stored(jets.jet(r - s, min(n1, n2)))
    n = n1 + n2 - top
    assert stored(x * y) == (stored(jets.jet(r * s, n)) if n > 0 else (UPoly(), 0))
    if n1 > 1:
        assert stored(x.derivative()) == stored(jets.jet(r.derivative(), n1 - 1))
        assert stored(x.derivative_scale(3)) == stored(jets.jet(r.scale(3), n1 - 1))
    assert stored(type(x).u_power(n2)) == stored(jets.jet(RadialRational.u_power(n2), top))
    assert x.eval(jets.a) == r.eval(jets.a)


CLOSED_MUS = [Fraction(-1, 2), Fraction(-1), Fraction(-3, 2), Fraction(-7, 3),
              Fraction(-1, 3)]


@pytest.mark.parametrize("mu", CLOSED_MUS)
def test_prolonged_jet_is_the_jet_of_a_over_u_to_the_h(mu):
    # the binomial series of (a/u)^h against the general conversion of the
    # RadialRational, which factors still take; every h <= 8 and n <= 17
    constraint = RadialConstraint.linear(mu)
    jets, a = SphereJets(constraint, constraint.kernel_parts(), 1, 8), constraint.sphere_u
    for h in range(9):
        for n in range(1, 18):
            assert radialphase.prolonged_jet(a, h, n) == jets.jet(
                radialphase.prolonged(a, h), n).p


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("mu", CLOSED_MUS)
def test_quotient_inverts_j_over_t(kind, mu):
    # t/J to top coefficients: times J(a + t)/t, spelled here by powers of
    # a + t, it is 1 mod t^top, for every order up to 8
    constraint = RadialConstraint(kind, mu)
    at = UPoly((constraint.sphere_u, 1))
    j = sum((at ** k).scale(c) for k, c in enumerate(constraint.j_radial().num.coeffs))
    j_over_t = j.exact_div(UPoly.u(1))
    for order in range(9):
        jets = SphereJets(constraint, constraint.kernel_parts(), 1, order)
        top = 2 * order + 1
        assert jets.quotient.degree() < top
        assert (jets.quotient * j_over_t).truncated(top) == 1


def prolonged(dim):
    # prol-shaped: c z^alpha zbar^beta u^-h with |alpha| + |beta| = 2h
    return st.lists(st.tuples(st.sampled_from(keys(dim, 0) + keys(dim, 2) + keys(dim, 4)),
                              gaussians()), min_size=1, max_size=3).map(
        lambda ts: RadialFun(dim, [(key, RadialRational.u_power(
            -((sum(key[0]) + sum(key[1])) // 2)).scale(c)) for key, c in ts]))


@st.composite
def cancelling_funs(draw):
    # u spelled as sum z_i zbar_i times random parts, minus the same parts
    # times u, plus random terms: is_zero must see through the spellings.
    # The parts are general, or prol-shaped over u (every denominator a
    # power of u); the extra terms are general, prol-shaped, or i times a
    # real function whose one class has dim + 1 terms (so only the
    # imaginary parts of its cells are nonzero)
    dim = draw(st.sampled_from([2, 3]))
    u_sum = sum((RadialFun.z(i, dim) * RadialFun.zbar(i, dim)
                 for i in range(1, dim + 1)), RadialFun.zero(dim))
    u = RadialFun.u(dim)
    parts = draw(st.one_of(funs(dim, degrees=(0, 1, 2)),
                           prolonged(dim).map(lambda p: p * RadialFun.u(dim, -1))))
    real = st.integers(1, 3).map(lambda c: (u_sum + u).scale(c) * RadialFun.u(dim, -1))
    extra = draw(st.one_of(st.just(RadialFun.zero(dim)), funs(dim, degrees=(0, 1, 2)),
                           prolonged(dim), real.map(lambda f: f.scale(I))))
    return (u_sum - u) * parts + extra


def compositions(total, parts):
    # every tuple of parts nonnegative integers that sum to total
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def multinomial_expansion(f):
    # the reference normal form (den, cells): the numerators over the lcm
    # of the denominators, each u^k expanded term by term as the sum over
    # |s| = k of (k!/s!) z^s zbar^s, and the zero cells dropped
    den = UPoly.of(1)
    for r in f.terms.values():
        den = den.lcm(r.den)
    cells = {}
    for (alpha, beta), r in f.terms.items():
        for k, c in enumerate((r.num * den.exact_div(r.den)).coeffs):
            for s in compositions(k, f.dim):
                weight = factorial(k)
                for x in s:
                    weight //= factorial(x)
                key = (tuple(a + x for a, x in zip(alpha, s)),
                       tuple(b + x for b, x in zip(beta, s)))
                cells[key] = cells.get(key, GaussianRational(0)) + c * weight
    return den, {key: c for key, c in cells.items() if not c.is_zero()}


@settings(max_examples=200)
@given(cancelling_funs())
def test_is_zero_matches_the_expansion(f):
    den, cells = multinomial_expansion(f)
    assert f.is_zero() == (not cells)
    assert f.expansion() == (den, cells)
