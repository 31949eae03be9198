"""The engine against perfbench/oracle.py, an oracle written with sympy that
shares no code with costar, and pij against sympy's own rational functions.
Skipped where sympy is not installed."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from costar.radialphase import RadialConstraint, RadialFun, pij  # noqa: E402
from costar.scalar import GaussianRational, RadialRational, UPoly  # noqa: E402

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    # the benchmark's modules by path: perfbench is not a package
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
workloads = _load("workloads")

ORACLE_OPS = [op for op in workloads.sphere_reduce_ops(0) + workloads.coeff_tables_ops(0)
              if op["kind"] in ("reduce", "obstruct")]


def test_oracle_reproduces_the_frozen_cells():
    assert oracle.selftest()


@pytest.mark.parametrize("op", ORACLE_OPS, ids=lambda op: " ".join(op["argv"]))
def test_cli_output_matches_the_oracle(op):
    assert oracle.verdict(op, workloads.run_cli(op["argv"])) is True


U = sp.Symbol("u")
KEYS = [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((1, 0), (0, 1)),
        ((0, 2), (2, 0)), ((1, 1), (1, 1)), ((2, 0), (0, 0))]
# denominators with no zero at u > 0, so none on a sphere u = -2*mu
DENOMINATORS = [UPoly(cs) for cs in ((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1), (1, 2, 1),
                                     (1, 1, 1))]

fractions = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
even_terms = st.dictionaries(
    st.sampled_from(KEYS),
    st.tuples(st.lists(st.builds(GaussianRational, fractions, fractions), max_size=3),
              st.sampled_from(DENOMINATORS)),
    min_size=1, max_size=3)


def _sym(coeffs):
    # the polynomial in u with the given GaussianRational coefficients
    return sum(((sp.Rational(c.re) + sp.I * sp.Rational(c.im)) * U ** k
                for k, c in enumerate(coeffs)), sp.Integer(0))


@settings(max_examples=200)
@given(even_terms, st.sampled_from(["linear", "quadratic"]),
       st.sampled_from([Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)]))
def test_pij_matches_sympy_cancel(terms, kind, mu):
    c = RadialConstraint(kind, mu)
    a, m = -2 * sp.Rational(mu), sp.Rational(mu)
    j = -U / 2 - m if kind == "linear" else U ** 2 / 4 - m ** 2
    f = RadialFun(2, [(key, RadialRational(UPoly(num), den))
                      for key, (num, den) in terms.items()])
    got = pij(f, c).terms
    for key, (num, den) in terms.items():
        r = _sym(num) / _sym(den.coeffs)
        h = (sum(key[0]) + sum(key[1])) // 2
        n, d = sp.fraction(sp.cancel((r - r.subs(U, a) * (a / U) ** h) / j))
        # the quotient has no pole on the sphere
        assert d.subs(U, a) != 0
        q = got.get(key)
        if q is None:
            assert n == 0
            continue
        assert not q.den.eval(c.sphere_u).is_zero()
        assert sp.expand(_sym(q.num.coeffs) * d - n * _sym(q.den.coeffs)) == 0
