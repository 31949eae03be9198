import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from costar.flatphase import (
    FlatPoly,
    drop_last_pair,
    moyal_kernel,
    moyal_product,
    pij,
    pn_kernel,
    poisson,
    prol,
)
from costar.radialphase import RadialFun
from costar.reduction import flat_setup
from costar.scalar import (
    AlgebraMismatchError,
    GaussianRational,
    I,
    RadialRational,
    UPoly,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


def flat_polys(dim=2, max_terms=3, max_exp=2):
    keys = st.tuples(*([st.integers(0, max_exp)] * (2 * dim)))
    return st.builds(
        lambda d: FlatPoly(dim, d),
        st.dictionaries(keys, small_gaussians, max_size=max_terms),
    )


def q(i, dim=2):
    return FlatPoly.q(i, dim)


def p(i, dim=2):
    return FlatPoly.p(i, dim)


def test_ring_ops():
    f = q(1) + p(1)
    assert f * f == q(1) ** 2 + (q(1) * p(1)).scale(2) + p(1) ** 2
    assert (q(1) - q(1)).is_zero()
    assert (f + (-f)).is_zero()
    assert FlatPoly.one(2) * f == f
    assert f.scale(0).is_zero()


def test_dimension_mismatch():
    # the ring skeleton FlatPoly and RadialFun share, run on both
    with pytest.raises(AlgebraMismatchError):
        q(1, 2) + RadialFun.z(1, 2)
    with pytest.raises(AlgebraMismatchError):
        RadialFun.z(1, 2) + q(1, 2)
    for gen in (FlatPoly.q, RadialFun.z):
        f = gen(1, 2)
        two = type(f).constant(2, 2)
        with pytest.raises(AlgebraMismatchError):
            f + gen(1, 3)
        assert 2 - f == two + (-f)
        assert f - 2 == f + (-two)
        assert 0 + f == f
        assert 2 * f == f.scale(2)
        with pytest.raises(ValueError):
            f ** -1
        with pytest.raises(ValueError):
            f ** 1.5


@st.composite
def ring_pairs(draw):
    # a and b in either algebra over a few keys, sharing some terms exactly,
    # so that a - b cancels some keys outright and merges others
    cls = draw(st.sampled_from([FlatPoly, RadialFun]))
    dim = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 1)] * dim)
    if cls is FlatPoly:
        keys = st.tuples(exps, exps).map(lambda k: k[0] + k[1])
        coeffs = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
    else:
        keys = st.tuples(exps, exps)
        coeffs = st.builds(lambda cs: RadialRational(UPoly(cs)),
                           st.lists(st.integers(-2, 2), max_size=2))
    terms = st.lists(st.tuples(keys, coeffs), max_size=4)
    a = draw(terms)
    b = a[:draw(st.integers(0, len(a)))] + draw(terms)
    return cls(dim, a), cls(dim, b)


@given(ring_pairs())
def test_difference_stores_the_terms_of_a_sum_with_the_negation(ab):
    a, b = ab
    want = type(a)(a.dim, list(a.terms.items())
                   + [(key, -c) for key, c in b.terms.items()])
    assert (a - b).terms == want.terms
    assert (a - a).terms == {}


def test_partial_derivatives():
    f = q(1) ** 2 * p(2)
    # over (q1, q2, p1, p2): d/dq1 is index 0, d/dp1 index 2, d/dp2 index 3
    assert f.partial(0) == (q(1) * p(2)).scale(2)
    assert f.partial(3) == q(1) ** 2
    assert f.partial(2).is_zero()


def test_poisson_canonical_pairs():
    assert poisson(q(1), p(1)) == FlatPoly.one(2)
    assert poisson(q(1), q(2)).is_zero()
    assert poisson(p(1), p(2)).is_zero()
    assert poisson(q(1) * p(1), q(1)) == -q(1)


@given(flat_polys(), flat_polys(), flat_polys())
def test_poisson_laws(f, g, h):
    assert poisson(f, f).is_zero()
    assert poisson(f, g) == -poisson(g, f)
    assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)


def test_moyal_lowest_orders():
    s = moyal_product(q(1), p(1), 2)
    assert s[0] == q(1) * p(1)
    assert s[1] == FlatPoly.constant(I * Fraction(1, 2), 2)
    assert s[2].is_zero()
    t = moyal_product(p(1), q(1), 1)
    assert t[1] == FlatPoly.constant(-I * Fraction(1, 2), 2)


def test_moyal_square_pair():
    # q1^2 * p1^2 = q1^2 p1^2 + 2 i lambda q1 p1 - lambda^2 / 2
    s = moyal_product(q(1) ** 2, p(1) ** 2, 3)
    assert s[0] == q(1) ** 2 * p(1) ** 2
    assert s[1] == (q(1) * p(1)).scale(I * 2)
    assert s[2] == FlatPoly.constant(Fraction(-1, 2), 2)
    assert s[3].is_zero()


@given(flat_polys(), flat_polys())
def test_moyal_axioms(f, g):
    unit = FlatPoly.one(2)
    su = moyal_product(f, unit, 3)
    assert su[0] == f and su[1].is_zero() and su[2].is_zero()
    s = moyal_product(f, g, 1)
    t = moyal_product(g, f, 1)
    assert s[0] == f * g
    assert s[1] - t[1] == poisson(f, g).scale(I)


@given(flat_polys(max_terms=2, max_exp=2), flat_polys(max_terms=2, max_exp=2),
       flat_polys(max_terms=2, max_exp=2))
def test_moyal_associative_low_order(f, g, h):
    n = 3
    left = _star_series(_star_series(_as_series(f, n), _as_series(g, n)),
                        _as_series(h, n))
    right = _star_series(_as_series(f, n), _star_series(_as_series(g, n),
                                                        _as_series(h, n)))
    assert left == right


def _as_series(f, order):
    from costar.scalar import LambdaSeries

    return LambdaSeries((f,) + (FlatPoly.zero(f.dim),) * order)


def _star_series(a, b):
    from costar.scalar import LambdaSeries

    n = min(a.order, b.order)
    out = []
    for m in range(n + 1):
        acc = FlatPoly.zero(a[0].dim)
        for r in range(m + 1):
            for j in range(m - r + 1):
                acc = acc + moyal_kernel(a[j], b[m - r - j], r)
        out.append(acc)
    return LambdaSeries(out)


def test_moyal_associative_order_six():
    f = q(1) ** 2 * p(1)
    g = p(1) ** 2 + q(2)
    h = q(1) * p(2)
    n = 6
    left = _star_series(_star_series(_as_series(f, n), _as_series(g, n)),
                        _as_series(h, n))
    right = _star_series(_as_series(f, n), _star_series(_as_series(g, n),
                                                        _as_series(h, n)))
    assert left == right


def test_constraint_and_prolongation():
    assert flat_setup(2).j == p(2)
    with pytest.raises(ValueError):
        flat_setup(1)
    f = q(1) + p(2) * q(2) + p(2) ** 2
    assert prol(f) == q(1)
    assert pij(f) == q(2) + p(2)
    assert prol(p(2)).is_zero()


@given(flat_polys())
def test_decomposition_identity(f):
    assert prol(f) + pij(f) * p(2) == f
    assert prol(prol(f)) == prol(f)
    assert pij(prol(f)).is_zero()


def test_drop_last_pair():
    f = q(1) * p(1) + 2 * q(1) ** 2
    g = drop_last_pair(f)
    assert g.dim == 1
    assert g == FlatPoly(1, {(1, 1): 1, (2, 0): 2})
    with pytest.raises(ValueError):
        drop_last_pair(q(2))
    with pytest.raises(ValueError):
        drop_last_pair(FlatPoly.one(1))


@given(flat_polys(max_exp=1), flat_polys(max_exp=1))
def test_moyal_closure_on_reduced_variables(f, g):
    # inputs independent of (q2, p2) star-multiply to the same kind
    f = FlatPoly(2, {k: c for k, c in f.terms.items() if k[1] == 0 and k[3] == 0})
    g = FlatPoly(2, {k: c for k, c in g.terms.items() if k[1] == 0 and k[3] == 0})
    s = moyal_product(f, g, 3)
    for coeff in s:
        assert all(k[1] == 0 and k[3] == 0 for k in coeff.terms)


def _uncapped_moyal(f, g, r):
    # the Moyal sum over every pair of multi-indices (s, t), with no
    # degree caps and no early exits
    n = f.dim

    def tuples(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in tuples(total - head, parts - 1):
                yield (head,) + rest

    def derive(h, offset, exps):
        for i, e in enumerate(exps):
            for _ in range(e):
                h = h.partial(offset + i)
        return h

    acc = FlatPoly.zero(n)
    for js in range(r + 1):
        for s in tuples(js, n):
            for t in tuples(r - js, n):
                df = derive(derive(f, 0, s), n, t)
                dg = derive(derive(g, n, s), 0, t)
                den = 1
                for e in s + t:
                    den *= factorial(e)
                acc = acc + (df * dg).scale(Fraction((-1) ** (r - js), den))
    return acc.scale((I * Fraction(1, 2)) ** r)


@st.composite
def uneven_polys(draw, dim):
    # each coordinate gets its own degree bound, so the caps differ per index
    bounds = draw(st.lists(st.integers(0, 3), min_size=2 * dim, max_size=2 * dim))
    keys = st.tuples(*(st.integers(0, b) for b in bounds))
    terms = draw(st.dictionaries(keys, small_gaussians, min_size=1, max_size=3))
    return FlatPoly(dim, terms)


def kernel_inputs(dim):
    poly = st.one_of(
        st.just(FlatPoly.zero(dim)),
        st.builds(lambda c: FlatPoly.constant(c, dim), small_gaussians),
        uneven_polys(dim),
    )
    return st.tuples(poly, poly)


@settings(max_examples=200)
@given(st.sampled_from([2, 3]).flatmap(kernel_inputs), st.integers(0, 4))
def test_moyal_kernel_matches_uncapped_sum(fg, r):
    f, g = fg
    assert moyal_kernel(f, g, r) == _uncapped_moyal(f, g, r)


def test_moyal_kernel_against_constraint_takes_no_derivative(monkeypatch):
    # J = p_n is linear, so M_r(f, J) vanishes for r >= 2 before any partial
    calls = Counter()
    partial = FlatPoly.partial

    def counted(self, idx):
        calls[idx] += 1
        return partial(self, idx)

    monkeypatch.setattr(FlatPoly, "partial", counted)
    for dim in (2, 3):
        f = (FlatPoly.q(1, dim) + FlatPoly.p(1, dim) + FlatPoly.q(dim, dim)
             + FlatPoly.p(dim, dim)) ** 3
        for r in range(2, 7):
            assert moyal_kernel(f, FlatPoly.p(dim, dim), r).is_zero()
    assert not calls
    # in general no partial is taken once r passes the sum of the caps
    # min(deg_{q_i} f, deg_{p_i} g) + min(deg_{p_i} f, deg_{q_i} g)
    pairs = [(q(1) ** 2 * p(2) + q(2), p(1) ** 3 + q(2) * p(1)),
             (q(1) * q(2) * p(1) ** 2, q(1) ** 2 * p(2) ** 2 + p(1)),
             (FlatPoly(3, {(1, 0, 2, 0, 1, 0): 1, (0, 0, 0, 3, 0, 0): I}),
              FlatPoly(3, {(0, 0, 1, 0, 0, 2): 2, (2, 1, 0, 1, 0, 0): 1}))]
    for f, g in pairs:
        n = f.dim

        def deg(h, idx):
            return max(k[idx] for k in h.terms)

        total = sum(min(deg(f, i), deg(g, n + i)) + min(deg(f, n + i), deg(g, i))
                    for i in range(n))
        for r in range(total + 1, total + 4):
            assert moyal_kernel(f, g, r).is_zero()
        assert not calls
        moyal_kernel(f, g, total)
        assert calls
        calls.clear()
    # the counter does see the partials that M_1 takes
    assert not moyal_kernel(f, FlatPoly.p(dim, dim), 1).is_zero()
    assert calls


@pytest.mark.parametrize("call, message", [
    (lambda: FlatPoly(2, {(1, 0, 0): 1}), "bad exponent vector (1, 0, 0) for dim 2"),
    (lambda: FlatPoly(1, {(1, -1): 1}), "bad exponent vector (1, -1) for dim 1"),
    (lambda: FlatPoly.q(0, 2), "q index out of range"),
    (lambda: FlatPoly.p(3, 2), "p index out of range"),
    (lambda: FlatPoly.q(1, 2).partial(4), "coordinate index out of range"),
    (lambda: pn_kernel(FlatPoly.q(1, 2), -1), "kernel order must be nonnegative"),
], ids=["short key", "negative exponent", "q index", "p index", "partial index",
        "pn_kernel order"])
def test_reachable_input_checks_raise(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
