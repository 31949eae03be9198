from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from costar.flatphase import (
    FlatPoly,
    drop_last_pair,
    moyal_kernel,
    moyal_product,
    pij,
    poisson,
    prol,
)
from costar.reduction import flat_setup
from costar.scalar import AlgebraMismatchError, GaussianRational, I

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
    assert FlatPoly.one(2) * f == f
    assert f.scale(0).is_zero()


def test_dimension_mismatch():
    with pytest.raises(AlgebraMismatchError):
        q(1, 2) + q(1, 3)


def test_partial_derivatives():
    f = q(1) ** 2 * p(2)
    assert f.dq(1) == (q(1) * p(2)).scale(2)
    assert f.dp(2) == q(1) ** 2
    assert f.dp(1).is_zero()


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

    return LambdaSeries.constant(f, order)


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
