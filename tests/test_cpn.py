from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from costar import cpn, radialphase
from costar.cpn import (
    a_coeff_closed,
    a_coeff_engine,
    a_coeff_operator,
    a_coeff_sum,
    b_coeff_engine,
    coefficient_table,
    obstruction_order2,
    pr_letters,
    pr_word_sum,
    table_reduced_product,
)
from costar.radialphase import (
    ParityError,
    RadialConstraint,
    RadialFun,
    poisson,
    prol,
    scalar_ratio,
    wick_product,
)
from costar.reduction import (
    MembershipError,
    is_in_b_cap_f,
    prol_transfer,
    radial_setup,
    reduce_star,
    transfer_ops,
)
from costar.scalar import I, GaussianRational, PoleError, RadialRational, UPoly

HALF = Fraction(1, 2)


def radial_polys():
    return st.builds(lambda cs: RadialRational(UPoly(cs)),
                     st.lists(st.integers(-2, 2), max_size=3))


BALANCED_KEYS = [
    ((0, 0), (0, 0)),
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((2, 0), (0, 2)),
]


def balanced_funs(max_terms=2):
    pairs = st.lists(st.tuples(st.sampled_from(BALANCED_KEYS), radial_polys()),
                     max_size=max_terms)
    return pairs.map(lambda ps: RadialFun(2, ps))


HOMOG = [
    RadialFun.one(2),
    RadialFun.monomial((1, 0), (1, 0), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((1, 0), (0, 1), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((0, 1), (1, 0), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((1, 1), (1, 1), radial=RadialRational.u_power(-2)),
]


def test_table_spot_values():
    assert [a_coeff_sum(1, l) for l in range(6)] == [1, -1, 1, -1, 1, -1]
    assert all(a_coeff_sum(k, 0) == 1 for k in range(1, 9))
    assert all(a_coeff_sum(k, 1) == -k * (k + 1) // 2 for k in range(1, 9))
    assert a_coeff_sum(2, 2) == 7
    assert [a_coeff_sum(0, l) for l in range(4)] == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        a_coeff_sum(-1, 0)


def test_sum_matches_closed_formula():
    for k in range(1, 9):
        for l in range(9):
            assert a_coeff_closed(k, l) == a_coeff_sum(k, l)
    with pytest.raises(ValueError):
        a_coeff_closed(0, 1)


def test_operator_table_matches_engine_normalization():
    # frozen values computed by hand from the kernel definition
    frozen = {(1, 1): -2, (2, 1): -6, (1, 2): 4, (2, 2): 28}
    for (k, l), v in frozen.items():
        assert a_coeff_engine(k, l) == v
    for mu, dim in [(Fraction(-1, 2), 1), (Fraction(-3, 2), 2)]:
        for k in range(4):
            for l in range(4):
                got = a_coeff_operator(k, l, mu, dim)
                assert got == a_coeff_engine(k, l)
                assert got == 2 ** l * a_coeff_sum(k, l)


def test_quadratic_table_frozen_values():
    assert b_coeff_engine(1, 1) == -3
    assert b_coeff_engine(2, 1) == -8
    assert b_coeff_engine(1, 2) == Fraction(17, 2)
    assert all(b_coeff_engine(k, 0) == 1 for k in range(5))
    assert [b_coeff_engine(0, l) for l in range(4)] == [1, 0, 0, 0]


def word_sum_cell(k, l, mu):
    # the definition a^{k+l} res(T_l(u^{-k})), T_l the sum of all words of
    # weight l, restricted and scaled here rather than by the engine
    c = RadialConstraint.quadratic(mu)
    h = pr_word_sum(radial_setup(c, 1), l)(RadialFun.u(1, -k))
    res = scalar_ratio(prol(h, c), RadialFun.one(1))
    assert res is not None and res.im == 0
    return c.sphere_u ** (k + l) * res.re


def test_quadratic_table_is_mu_independent():
    # the engine computes its rows at a = 1 only, which rests on the table
    # not depending on mu: the definition at spheres a != 1 gives them too
    table = coefficient_table("quadratic", 8, 10)
    for mu in [Fraction(-2), Fraction(-7, 3), Fraction(-3, 7)]:
        assert [[word_sum_cell(k, l, mu) for l in range(10)]
                for k in range(1, 9)] == table


@pytest.mark.parametrize("mu", [Fraction(-1, 2), Fraction(-2), Fraction(-7, 3)])
def test_quadratic_rows_match_word_sums(mu):
    rows = [[b_coeff_engine(0, l) for l in range(8)]]
    rows += coefficient_table("quadratic", 5, 8)
    for k, row in enumerate(rows):
        assert row == [word_sum_cell(k, l, mu) for l in range(8)]


def test_b_coeff_engine_reads_table_cells():
    table = coefficient_table("quadratic", 4, 6)
    for k in range(1, 5):
        for l in range(6):
            assert b_coeff_engine(k, l) == table[k - 1][l]
    for k, l in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            b_coeff_engine(k, l)


def test_quadratic_table_letter_calls_are_linear_in_lmax(monkeypatch):
    # a row costs 2*lmax - 3 letters; a word sum per cell costs a number
    # that grows like the Fibonacci numbers
    calls = []

    def counting_letters(setup):
        def count(letter):
            def counted(f):
                calls.append(1)
                return letter(f)
            return counted
        return tuple(count(x) for x in pr_letters(setup))

    monkeypatch.setattr(cpn, "pr_letters", counting_letters)
    assert cpn._quadratic_row.cache_info().maxsize is not None
    cpn._quadratic_row.cache_clear()
    kmax, lmax = 6, 9
    coefficient_table("quadratic", kmax, lmax)
    assert 0 < len(calls) <= 2 * kmax * (lmax - 1)
    cpn._quadratic_row.cache_clear()


def test_quadratic_row_takes_one_quotient_per_cell(monkeypatch):
    # the rows run on the jet setup, whose pij is SphereJets.pij.  R(h_{l-2})
    # reuses the quotient that P(h_{l-2}) took, so the 6 cells h_0..h_5 of
    # a row take the quotients of h_0..h_4: 5 pij calls, not 5 + 4.  The
    # jet setup is built once per row length, and the one that builds it
    # also checks pi_J(J) = 1 with a sixth
    calls = []
    pij = radialphase.SphereJets.pij

    def counted(sphere, f):
        calls.append(f)
        return pij(sphere, f)

    monkeypatch.setattr(radialphase.SphereJets, "pij", counted)
    cpn._quadratic_jets.cache_clear()
    row = cpn._quadratic_row.__wrapped__(3, 6)
    assert len(calls) == 6
    del calls[:]
    warm = cpn._quadratic_row.__wrapped__(4, 6)
    assert len(calls) == 5
    monkeypatch.undo()
    cpn._quadratic_jets.cache_clear()  # drop the setup that holds counted
    assert list(row) == [word_sum_cell(3, l, Fraction(-1, 2)) for l in range(6)]
    assert warm == cpn._operator_row(RadialConstraint.quadratic(-HALF), 1, 4, 6)


def test_quadratic_rows_on_jets_match_the_operator_rows():
    # the jet rows against the same pass in RadialRational arithmetic, for
    # every row k <= 16 and every length n <= 16, since the jets' length
    # follows n
    quadratic = RadialConstraint.quadratic(-HALF)
    for k in range(17):
        want = cpn._operator_row(quadratic, 1, k, 16)
        for n in range(1, 17):
            assert cpn._quadratic_row.__wrapped__(k, n) == want[:n]


def test_coefficient_table_layout():
    table = coefficient_table("linear", 3, 4)
    assert len(table) == 3 and all(len(row) == 4 for row in table)
    assert table[0] == [(-2) ** l for l in range(4)]
    assert table[1][0] == 1
    quad = coefficient_table("quadratic", 2, 3)
    assert quad[0][1] == -3
    with pytest.raises(ValueError):
        coefficient_table("cubic", 2, 2)


@given(balanced_funs())
def test_linear_transfer_is_kernel_power(f):
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    k = pr_letters(setup)[0]
    t = transfer_ops(setup, 3)
    kf = f
    for n in range(1, 4):
        kf = k(kf)
        assert t.ops[n](f) == kf


@settings(max_examples=200)
@given(balanced_funs(), st.sampled_from([Fraction(-1, 2), Fraction(-2)]))
def test_pr_letters_kernel_vs_euler(f, mu):
    # pr_letters run on j_kernel, the Euler form; the general Wick kernel
    # against J shares no kernel code with it
    setup = radial_setup(RadialConstraint.quadratic(mu), 2)
    p, r = pr_letters(setup)
    q = setup.pij(f)
    assert p(f) == -setup.kernel(q, setup.j, 1)
    assert r(f) == -setup.kernel(q, setup.j, 2)


@given(balanced_funs())
def test_word_sums_match_transfer_recursion(f):
    for kind in ("linear", "quadratic"):
        c = RadialConstraint(kind, -HALF)
        setup = radial_setup(c, 2)
        t = transfer_ops(setup, 4)
        for w in range(1, 5):
            assert pr_word_sum(setup, w)(f) == t.ops[w](f)


@pytest.mark.parametrize("kind,mu", [
    ("linear", Fraction(-1, 2)),
    ("linear", Fraction(-3, 2)),
    ("quadratic", Fraction(-1, 2)),
    ("quadratic", Fraction(-3, 2)),
])
def test_table_product_matches_reduction(kind, mu):
    c = RadialConstraint(kind, mu)
    setup = radial_setup(c, 2)
    pairs = [(HOMOG[1], HOMOG[2]), (HOMOG[2], HOMOG[3]), (HOMOG[4], HOMOG[1])]
    for f, g in pairs:
        assert table_reduced_product(c, f, g, 4) == reduce_star(setup, f, g, 4)


def sparse_degree_zero(rng, dim):
    # a Gaussian constant plus at most three distinct generators z_i zbar_j / u
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    keys = rng.sample([(a, b) for a in units for b in units], rng.randint(1, 3))

    def gaussian():
        return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))

    return RadialFun(dim, [(((0,) * dim, (0,) * dim), RadialRational.u_power(0).scale(
        gaussian()))] + [(key, RadialRational.u_power(-1).scale(gaussian())) for key in keys])


@pytest.mark.parametrize("kind,mu,dim,order", [
    ("linear", -HALF, 2, 8),
    ("quadratic", -HALF, 2, 8),
    ("linear", Fraction(-1), 3, 8),
    ("quadratic", Fraction(-1), 3, 8),
    ("linear", Fraction(-3, 2), 4, 8),
    ("quadratic", Fraction(-3, 2), 4, 8),
    ("linear", -HALF, 4, 6),
    ("quadratic", Fraction(-1), 4, 6),
    ("linear", Fraction(-3, 2), 2, 7),
    ("quadratic", Fraction(-3, 2), 3, 7),
])
def test_table_product_matches_reduction_to_order_8(kind, mu, dim, order):
    # the closed form reads its quadratic rows off _quadratic_row, the letter
    # pass on dim-1 jets, and reduce_star runs the forward substitution on
    # jets in dims 2-4: the two agree on sparse degree-0 pairs, up to order 8
    rng = Random("%s %s %d %d" % (kind, mu, dim, order))
    c = RadialConstraint(kind, mu)
    setup = radial_setup(c, dim)
    f, g = sparse_degree_zero(rng, dim), sparse_degree_zero(rng, dim)
    assert table_reduced_product(c, f, g, order) == reduce_star(setup, f, g, order)


def test_table_product_needs_homogeneous_inputs():
    c = RadialConstraint.linear(-HALF)
    with pytest.raises(MembershipError):
        table_reduced_product(c, RadialFun.u(2), HOMOG[1], 2)


def test_obstruction_ratio_is_minus_two():
    pairs = [(HOMOG[2], HOMOG[3]), (HOMOG[1], HOMOG[2]),
             (HOMOG[4], HOMOG[3])]
    for f, g in pairs:
        assert not poisson(f, g).is_zero()
        for mu in [Fraction(-1, 2), Fraction(-5, 2)]:
            lhs, rhs, ratio = obstruction_order2(f, g, mu)
            assert not rhs.is_zero()
            assert ratio == GaussianRational(-2)


def test_obstruction_vanishes_on_commuting_pair():
    f = HOMOG[1]
    lhs, rhs, ratio = obstruction_order2(f, f, Fraction(-1, 2))
    assert lhs.is_zero() and rhs.is_zero() and ratio is None


def degree_zero_funs(dim):
    # sums of c z^alpha zbar^beta / u^k with |alpha| = |beta| = k <= 1 and
    # Gaussian c: homogeneous of degree 0, so admissible for both constraints
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    keys = [((0,) * dim, (0,) * dim)] + [(a, b) for a in units for b in units]
    gaussians = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
    terms = st.lists(st.tuples(st.sampled_from(keys), gaussians),
                     min_size=1, max_size=3)
    return terms.map(lambda ts: RadialFun(dim, [
        (key, RadialRational.u_power(-sum(key[0])).scale(c)) for key, c in ts]))


def four_reduced_products(f, g, mu):
    # the definition of lhs, term for term: four reduced products at order 2
    lin = radial_setup(RadialConstraint.linear(mu), f.dim)
    quad = radial_setup(RadialConstraint.quadratic(mu), f.dim)

    def second(setup, x, y):
        return reduce_star(setup, x, y, 2)[2]

    return (second(quad, f, g) - second(lin, f, g)) \
        - (second(quad, g, f) - second(lin, g, f))


@settings(max_examples=200)
@given(st.sampled_from([2, 3]).flatmap(
           lambda dim: st.tuples(degree_zero_funs(dim), degree_zero_funs(dim))),
       st.sampled_from([-HALF, Fraction(-3, 2), Fraction(-2)]))
def test_obstruction_matches_four_reduced_products(fg, mu):
    f, g = fg
    lhs, rhs, ratio = obstruction_order2(f, g, mu)
    want = four_reduced_products(f, g, mu)
    assert lhs.terms == want.terms
    a = -2 * mu
    want_rhs = (RadialFun.u(f.dim) * poisson(f, g)).scale(I * HALF / a ** 2)
    assert rhs.terms == want_rhs.terms
    assert ratio == scalar_ratio(want, want_rhs)


@settings(max_examples=200)
@given(st.sampled_from([2, 3]).flatmap(
           lambda dim: st.tuples(degree_zero_funs(dim), degree_zero_funs(dim))),
       st.sampled_from([-HALF, Fraction(-1), Fraction(-3, 2), Fraction(-7, 3)]))
def test_obstruction_lhs_is_the_commutator_transfer(fg, mu):
    # the definition lhs = prol(T(comm))_2 - prol(T~(comm))_2, where comm is
    # the order-2 Wick commutator; obstruction_order2 reads it off the
    # order-1 commutator alone, as comm_0 = 0 and prol(comm_2) cancels
    f, g = fg
    lin = radial_setup(RadialConstraint.linear(mu), f.dim)
    quad = radial_setup(RadialConstraint.quadratic(mu), f.dim)
    comm = wick_product(f, g, 2) - wick_product(g, f, 2)
    assert not comm[0].terms
    want = prol_transfer(quad, comm)[2] - prol_transfer(lin, comm)[2]
    lhs, _, _ = obstruction_order2(f, g, mu)
    assert lhs.terms == want.terms


def test_obstruction_call_counts(monkeypatch):
    # admissibility's M_1(J, x) and M_1(x, J) on both factors against the
    # quadratic constraint, then the order-1 commutator c1 from two order-1
    # Wick kernels, and one pij and one order-1 j_kernel per constraint for
    # prol(M_1(pi_J c1, J)): no order-2 kernel, no jet setup and no
    # transfer, and no other call of a setup's j_kernel or pij after the
    # checks of its constructor
    calls = Counter()
    wick, setup_of = radialphase.wick_kernel, cpn.radial_setup

    def counted_wick(f, g, r):
        calls["wick_kernel", type(f).__name__, r] += 1
        return wick(f, g, r)

    def counted_setup(constraint, dim):
        setup = setup_of(constraint, dim)
        kind = constraint.kind

        def counted(name, fn):
            def wrapper(x, *order):
                calls[(kind, name) + order] += 1
                return fn(x, *order)
            return wrapper

        setup.j_kernel = counted("j_kernel", setup.j_kernel)
        setup.pij = counted("pij", setup.pij)
        setup.jets = counted("jets", setup.jets)
        return setup

    monkeypatch.setattr(radialphase, "wick_kernel", counted_wick)
    monkeypatch.setattr(cpn, "radial_setup", counted_setup)
    _, _, ratio = obstruction_order2(HOMOG[2], HOMOG[3], -HALF)
    assert ratio == GaussianRational(-2)
    assert calls == Counter({
        ("wick_kernel", "RadialFun", 1): 4, ("quadratic", "j_kernel", 1): 3,
        ("linear", "j_kernel", 1): 1,
        ("linear", "pij"): 1, ("quadratic", "pij"): 1,
    })


def test_obstruction_rejects_what_reduce_star_rejects():
    # the first inadmissible factor is named, as reduce_star names it
    odd = RadialFun.z(1, 2)
    setup = radial_setup(RadialConstraint.quadratic(-HALF), 2)
    for f, g, err in [(RadialFun.u(2), HOMOG[1], MembershipError),
                      (HOMOG[1], RadialFun.u(2), MembershipError),
                      (odd, HOMOG[1], ParityError),
                      (HOMOG[1], odd, ParityError)]:
        with pytest.raises(err) as want:
            reduce_star(setup, f, g, 2)
        with pytest.raises(err) as got:
            obstruction_order2(f, g, -HALF)
        assert str(got.value) == str(want.value)


SPHERE_MU = Fraction(-3, 2)  # the sphere u = 3


def sphere_factors(dim):
    # terms z^alpha zbar^beta c u^(s - d/2) (u + 1)^e / (u - 3)^p of degree
    # d: balanced, odd and unbalanced keys, radial parts that are prolonged
    # (s = e = p = 0) or not, and poles at the sphere
    exps = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    keys = st.one_of(exps.map(lambda a: (a, a[::-1])), st.tuples(exps, exps))

    def term(key, c, s, e, p):
        d = sum(key[0]) + sum(key[1])
        r = RadialRational(UPoly((1, 1)) ** e, UPoly((-3, 1)) ** p)
        return key, (RadialRational.u_power(s - d // 2) * r).scale(c)

    rare = st.sampled_from([0, 0, 0, 1])
    terms = st.lists(st.builds(term, keys, st.integers(-2, 2).filter(bool),
                               rare, rare, rare), min_size=1, max_size=3)
    return terms.map(lambda ts: RadialFun(dim, ts))


def admissibility(setup, f):
    # the value of is_in_b_cap_f, or the type and message of what it raises
    try:
        return is_in_b_cap_f(setup, f)
    except (ParityError, PoleError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(st.sampled_from([1, 2, 3]).flatmap(sphere_factors))
def test_admissibility_does_not_depend_on_the_constraint(f):
    # {J(u), f} = J'(u) {u, f} and J'(-2 mu) != 0, so obstruction_order2
    # checks its factors against the quadratic constraint alone
    lin, quad = (radial_setup(RadialConstraint(kind, SPHERE_MU), f.dim)
                 for kind in ("linear", "quadratic"))
    assert admissibility(lin, f) == admissibility(quad, f)


@pytest.mark.parametrize("call, message", [
    (lambda: a_coeff_closed(1, -1), "table indices must be nonnegative"),
    (lambda: coefficient_table("linear", 0, 3), "table extents must be positive"),
    (lambda: coefficient_table("quadratic", 3, 0), "table extents must be positive"),
], ids=["closed form column", "no rows", "no columns"])
def test_reachable_input_checks_raise(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()
