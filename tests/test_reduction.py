import gc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costar import flatphase, radialphase
from costar.flatphase import FlatPoly
from costar.radialphase import (
    ParityError,
    RadialConstraint,
    RadialFun,
    RadialRational,
    UPoly,
)
from costar.reduction import (
    MembershipError,
    OperatorSeries,
    PhaseSetup,
    decompose_deformed,
    flat_setup,
    identity,
    in_bstar,
    in_istar,
    is_in_b_cap_f,
    radial_setup,
    reduce_star,
    reduce_star_series,
    star_elements,
    star_series,
    transfer_ops,
    transfer_series,
    verify_intertwiner,
)
from costar.scalar import GaussianRational, I, LambdaSeries, PoleError

HALF = Fraction(1, 2)


def setups():
    return [
        flat_setup(2),
        radial_setup(RadialConstraint.linear(-HALF), 2),
        radial_setup(RadialConstraint.quadratic(-Fraction(3, 2)), 2),
    ]


def radial_polys():
    return st.builds(lambda cs: RadialRational(UPoly(cs)),
                     st.lists(st.integers(-2, 2), max_size=3))


EVEN_KEYS = [
    ((0, 0), (0, 0)),
    ((1, 0), (1, 0)),
    ((0, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((2, 0), (0, 2)),
    ((2, 0), (0, 0)),
]


def even_funs(max_terms=2):
    pairs = st.lists(st.tuples(st.sampled_from(EVEN_KEYS), radial_polys()),
                     max_size=max_terms)
    return pairs.map(lambda ps: RadialFun(2, ps))


FLAT_KEYS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
             (0, 0, 1, 1), (2, 0, 0, 1), (1, 0, 1, 0)]


def gauss():
    return st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


def flat_polys(max_terms=2):
    pairs = st.lists(st.tuples(st.sampled_from(FLAT_KEYS), gauss()),
                     max_size=max_terms)
    return pairs.map(lambda ps: FlatPoly(2, ps))


# homogeneous radial functions, the admissible inputs for radial reduction
HOMOG = [
    RadialFun.one(2),
    RadialFun.monomial((1, 0), (1, 0), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((1, 0), (0, 1), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((0, 1), (1, 0), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((1, 1), (1, 1), radial=RadialRational.u_power(-2)),
    RadialFun.monomial((2, 0), (0, 2), radial=RadialRational.u_power(-2)),
]


def homog_funs():
    return st.lists(st.tuples(st.sampled_from(HOMOG), gauss()),
                    min_size=1, max_size=2).map(
        lambda ps: sum((f.scale(c) for f, c in ps), RadialFun.zero(2)))


# polynomials in the first coordinate pair only, admissible for flat reduction
def flat_reduced_funs(max_terms=2):
    keys = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (2, 0, 0, 0)]
    pairs = st.lists(st.tuples(st.sampled_from(keys), gauss()),
                     max_size=max_terms)
    return pairs.map(lambda ps: FlatPoly(2, ps))


def series_of(elems, order):
    return LambdaSeries(tuple(elems[: order + 1]))


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_transfer_fixes_constraint(setup):
    t = transfer_ops(setup, 4)
    for m in range(1, 5):
        assert t.ops[m](setup.j).is_zero()
        assert t.ops[m](setup.one).is_zero()


@given(even_funs())
def test_transfer_fixes_prolonged_radial(f):
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    t = transfer_ops(setup, 3)
    p = setup.prol(f)
    for m in range(1, 4):
        assert t.ops[m](p).is_zero()


@given(flat_polys())
def test_transfer_fixes_prolonged_flat(f):
    setup = flat_setup(2)
    t = transfer_ops(setup, 3)
    p = setup.prol(f)
    for m in range(1, 4):
        assert t.ops[m](p).is_zero()


@given(even_funs())
def test_transfer_straightens_ideal_radial(f):
    # T sends the star multiples of J to the classical multiples, exactly
    for c in [RadialConstraint.linear(-HALF), RadialConstraint.quadratic(-HALF)]:
        setup = radial_setup(c, 2)
        t = transfer_ops(setup, 4)
        lhs = t.apply(star_elements(setup, f, setup.j, 4))
        assert lhs == setup.as_series(f * setup.j, 4)


@given(flat_polys())
def test_transfer_straightens_ideal_flat(f):
    setup = flat_setup(2)
    t = transfer_ops(setup, 4)
    lhs = t.apply(star_elements(setup, f, setup.j, 4))
    assert lhs == setup.as_series(f * setup.j, 4)


def test_flat_transfer_first_order_constant():
    # T_1(q^n p_n) is the constant -i/2 in the flat setup
    setup = flat_setup(2)
    t = transfer_ops(setup, 1)
    f = FlatPoly.q(2, 2) * FlatPoly.p(2, 2)
    assert t.ops[1](f) == FlatPoly.constant(I * (-HALF), 2)


def test_operator_series_inversion_neumann():
    # (id + t K)^-1 = id - t K + t^2 K^2 on any input
    k = lambda f: f * RadialFun.u(2)
    zero = RadialFun.zero(2)
    ops = OperatorSeries((identity, k, lambda f: zero))
    f = RadialFun.z(1, 2) * RadialFun.zbar(2, 2) + RadialFun.one(2)
    u = RadialFun.u(2)
    inv = ops.apply_inverse(LambdaSeries((f, zero, zero)))
    assert inv == LambdaSeries((f, -(f * u), f * u * u))
    with pytest.raises(ValueError, match="identity"):
        OperatorSeries((k, identity)).apply_inverse(LambdaSeries((f, zero)))
    with pytest.raises(ValueError, match="order"):
        ops.apply_inverse(LambdaSeries((f, zero, zero, zero)))


@given(even_funs(), even_funs(), even_funs())
def test_transfer_inverse_round_trip(f0, f1, f2):
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    t = transfer_ops(setup, 2)
    fs = LambdaSeries((f0, f1, f2))
    assert t.apply_inverse(t.apply(fs)) == fs
    assert t.apply(t.apply_inverse(fs)) == fs


@given(even_funs(), even_funs())
def test_decompose_deformed_reconstructs(f0, f1):
    setup = radial_setup(RadialConstraint.quadratic(-HALF), 2)
    fs = LambdaSeries((f0, f1))
    p, w = decompose_deformed(setup, fs)
    for c in p.coeffs:
        assert setup.prol(c) == c
    u_p = transfer_ops(setup, fs.order).apply_inverse(p)
    jser = setup.as_series(setup.j, fs.order)
    assert u_p + star_series(setup, w, jser) == fs


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_ideal_membership(setup):
    g = setup.one + setup.j
    assert in_istar(setup, star_elements(setup, g, setup.j, 3))
    assert not in_istar(setup, setup.as_series(setup.one, 3))
    assert in_istar(setup, setup.as_series(setup.zero, 3))


def test_normalizer_membership_radial():
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    hom = HOMOG[1]
    assert in_bstar(setup, setup.as_series(hom, 3))
    assert in_bstar(setup, setup.as_series(RadialFun.u(2), 3))
    bad = RadialFun.z(1, 2) * RadialFun.z(2, 2)
    assert not in_bstar(setup, setup.as_series(bad, 3))


def test_classical_membership():
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    assert is_in_b_cap_f(setup, HOMOG[1])
    assert is_in_b_cap_f(setup, setup.one)
    assert not is_in_b_cap_f(setup, RadialFun.u(2))
    assert not is_in_b_cap_f(setup, RadialFun.z(1, 2) * RadialFun.z(2, 2))
    flat = flat_setup(2)
    assert is_in_b_cap_f(flat, FlatPoly.q(1, 2) * FlatPoly.p(1, 2))
    assert not is_in_b_cap_f(flat, FlatPoly.q(2, 2))


def outcome(fn):
    try:
        return "value", fn()
    except (ParityError, PoleError) as e:
        return type(e), str(e)


@st.composite
def admissibility_cases(draw):
    # a setup, the Poisson bracket of its algebra and a function with terms
    # of any parity and degree: flat in dims 2-3, or radial in dims 1-3 over
    # denominators with a pole at the sphere a or none
    if draw(st.booleans()):
        n = draw(st.sampled_from([2, 3]))
        exps = st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n)
        f = draw(st.lists(st.tuples(exps, gauss()), max_size=3).map(
            lambda ps: FlatPoly(n, ps)))
        return flat_setup(n), flatphase.poisson, f
    dim = draw(st.sampled_from([1, 2, 3]))
    constraint = RadialConstraint(draw(st.sampled_from(["linear", "quadratic"])),
                                  draw(st.sampled_from([-HALF, -Fraction(3, 2)])))
    a = constraint.sphere_u
    exps = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    dens = st.sampled_from([UPoly.of(1), UPoly.u(1), UPoly((1, 1)), UPoly((-a, 1))])
    radials = st.builds(lambda cs, d: RadialRational(UPoly(cs), d),
                        st.lists(gauss(), max_size=3), dens)
    f = draw(st.lists(st.tuples(st.tuples(exps, exps), radials), max_size=3).map(
        lambda ts: RadialFun(dim, ts)))
    return radial_setup(constraint, dim), radialphase.poisson, f


@settings(max_examples=200)
@given(admissibility_cases())
def test_admissibility_matches_the_poisson_definition(case):
    # is_in_b_cap_f, which reads {J, f} off M_1(J, f) - M_1(f, J), against
    # its definition through the Poisson bracket, on f and on prol(f): the
    # same verdict, or the same exception with the same message
    setup, poisson, f = case

    def definition(x):
        return x == setup.prol(x) and setup.prol(poisson(setup.j, x)).is_zero()

    xs = [f]
    prolonged = outcome(lambda: setup.prol(f))
    if prolonged[0] == "value":
        xs.append(prolonged[1])
    for x in xs:
        assert outcome(lambda: is_in_b_cap_f(setup, x)) == outcome(lambda: definition(x))


@st.composite
def flat_membership_cases(draw):
    # a flat setup, an order n <= 8, a series whose a_0 has prol(a_0) != 0,
    # and a member g * J of the left ideal
    setup = flat_setup(draw(st.sampled_from([2, 3])))
    n = draw(st.integers(0, 8))
    exps = st.lists(st.integers(0, 2), min_size=2 * setup.j.dim,
                    max_size=2 * setup.j.dim)
    polys = st.lists(st.tuples(exps, gauss()), max_size=3).map(
        lambda ps: FlatPoly(setup.j.dim, ps))
    off = LambdaSeries((draw(polys.filter(lambda f: not setup.prol(f).is_zero())),)
                       + tuple(draw(polys) for _ in range(n)))
    return setup, off, star_elements(setup, draw(polys), setup.j, n)


@settings(max_examples=200)
@given(flat_membership_cases())
def test_flat_in_istar_stops_at_the_first_order_off_the_ideal(case):
    # the transfer runs one order at a time: prol(h_0) = prol(a_0) != 0
    # answers before any pij or kernel call, and an ideal member takes the
    # closed counts of the whole forward substitution
    setup, off, member = case
    n = off.order
    calls = Counter()
    counted = counted_maps(setup, calls)
    calls.clear()  # the pij(J) check of the constructor
    assert not in_istar(counted, off)
    assert not calls
    assert in_istar(counted, member)
    assert calls == Counter(pij=n, j_kernel=n * (n + 1) // 2)


def test_reduce_star_rejects_non_members():
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    with pytest.raises(MembershipError, match="left"):
        reduce_star(setup, RadialFun.u(2), setup.one, 2)
    with pytest.raises(MembershipError, match="right"):
        reduce_star(setup, setup.one, RadialFun.z(1, 2) * RadialFun.z(2, 2), 2)


def test_flat_reduced_product_matches_lower_moyal():
    # on functions of the first pair the reduction is plain Moyal
    setup = flat_setup(2)
    q, p = FlatPoly.q(1, 2), FlatPoly.p(1, 2)
    got = reduce_star(setup, q, p, 3)
    expected = LambdaSeries((q * p, FlatPoly.constant(I * HALF, 2),
                             FlatPoly.zero(2), FlatPoly.zero(2)))
    assert got == expected


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_reduce_star_unit(setup):
    f = (FlatPoly.q(1, 2) * FlatPoly.p(1, 2) if setup.label.startswith("flat")
         else HOMOG[1])
    assert reduce_star(setup, setup.one, f, 3) == setup.as_series(f, 3)
    assert reduce_star(setup, f, setup.one, 3) == setup.as_series(f, 3)


@given(homog_funs(), homog_funs())
def test_reduce_star_laws_radial(f, g):
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    fg = reduce_star(setup, f, g, 2)
    gf = reduce_star(setup, g, f, 2)
    assert fg[0] == f * g
    comm = fg - gf
    assert comm[0].is_zero()
    assert comm[1] == setup.prol(radialphase.poisson(f, g)).scale(I)
    for c in fg.coeffs:
        assert is_in_b_cap_f(setup, c)


@given(flat_reduced_funs(), flat_reduced_funs())
def test_reduce_star_laws_flat(f, g):
    setup = flat_setup(2)
    fg = reduce_star(setup, f, g, 2)
    gf = reduce_star(setup, g, f, 2)
    assert fg[0] == f * g
    assert (fg - gf)[1] == setup.prol(flatphase.poisson(f, g)).scale(I)
    for c in fg.coeffs:
        assert is_in_b_cap_f(setup, c)


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_verify_identity_intertwiner(setup):
    if setup.label.startswith("flat"):
        f = FlatPoly.q(1, 2) * FlatPoly.p(1, 2)
        g = FlatPoly.q(1, 2)
    else:
        f, g = HOMOG[1], HOMOG[2]
    assert verify_intertwiner(setup, None, f, g, 3)


def test_verify_nontrivial_intertwiner():
    # E kills homogeneous functions, so only the u term tells S^{-1} from id
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    u, zero = RadialFun.u(2), RadialFun.zero(2)
    for first in (lambda f: f.euler_e(), lambda f: f * u):
        ops = OperatorSeries((identity, first, lambda f: zero))
        assert verify_intertwiner(setup, ops, HOMOG[1], HOMOG[3], 2)


def rebuilt(setup, **changed):
    # the setup with some of its maps replaced; the checks run again
    fields = dict(label=setup.label, j=setup.j, kernel=setup.kernel,
                  j_kernel=setup.j_kernel, prol=setup.prol, pij=setup.pij)
    fields.update(changed)
    return PhaseSetup(**fields)


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_phase_setup_checks_its_maps(setup):
    assert rebuilt(setup).one == setup.one == type(setup.j).one(setup.j.dim)
    assert setup.zero.is_zero() and setup.zero.dim == setup.j.dim
    with pytest.raises(ValueError, match="constraint must vanish on the reduced space"):
        rebuilt(setup, prol=identity)
    with pytest.raises(ValueError, match="difference quotient must send the constraint to 1"):
        rebuilt(setup, pij=lambda f: setup.pij(f).scale(2))


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_intertwiner_must_start_at_identity(setup):
    # a non-identity leading term is refused before the product's first
    # kernel call: only admissibility's M_1(J, x) runs, once per factor
    calls = Counter()

    def kernel(f, g, r):
        calls[f is setup.j, r] += 1
        return setup.kernel(f, g, r)

    counted = rebuilt(setup, kernel=kernel)
    bad = OperatorSeries((lambda f: f, identity))
    one = setup.as_series(setup.one, 1)
    message = "intertwiner must start at the identity"
    with pytest.raises(ValueError, match=message):
        reduce_star_series(counted, one, one, bad)
    with pytest.raises(ValueError, match=message):
        reduce_star(counted, setup.one, setup.one, 1, bad)
    with pytest.raises(ValueError, match=message):
        verify_intertwiner(counted, bad, setup.one, setup.one, 1)
    assert calls == Counter({(True, 1): 4})


def paper_transfer(setup, n, f):
    # the defining recursion T_n f = -sum_k T_{n-k}(M_k(pi_J f, J)), unfolded
    if n == 0:
        return f
    g = setup.pij(f)
    acc = setup.zero
    for k in range(1, n + 1):
        acc = acc + paper_transfer(setup, n - k, setup.kernel(g, setup.j, k))
    return -acc


def sample_series(setup, order):
    # a_m carries J^m, so T_m a_m is not zero and every order of the
    # transfer is compared (test_sample_series_reaches_every_order)
    if setup.label.startswith("flat"):
        q1, q2, p1, p2 = (FlatPoly.q(1, 2), FlatPoly.q(2, 2),
                          FlatPoly.p(1, 2), FlatPoly.p(2, 2))
        elems = [q1 * p2 * p2 + q2, q2 * q2 * p1 - p2.scale(I),
                 q1 * q2 * q2 + setup.one, q2 ** 3 * p2, q2 ** 4 * p1 - q2.scale(HALF)]
    else:
        u, inv_u = RadialFun.u(2), RadialRational.u_power(-1)
        elems = [HOMOG[1] + u, HOMOG[4] * u * u - HOMOG[2], u * u + setup.one,
                 RadialFun.monomial((1, 0), (1, 0), radial=inv_u) * u ** 3,
                 HOMOG[3].scale(I) + u]
    return LambdaSeries(tuple(f * setup.j ** m if m else f
                              for m, f in enumerate(elems[: order + 1])))


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_sample_series_reaches_every_order(setup):
    # with T_m a_m = 0 for m >= 2 a fault in the higher transfer orders
    # would go unseen by the tests that read sample_series
    a = sample_series(setup, 4)
    for m in range(5):
        assert not transfer_series(setup, setup.as_series(a[m], 4))[m].is_zero()


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_transfer_series_matches_paper_recursion(setup):
    a = sample_series(setup, 4)
    t = transfer_ops(setup, 4)
    for n in range(5):
        f = a[n]
        want = paper_transfer(setup, n, f)
        assert t.ops[n](f) == want
        assert transfer_series(setup, setup.as_series(f, 4))[n] == want
    want = LambdaSeries(tuple(
        sum((paper_transfer(setup, n, a[m - n]) for n in range(1, m + 1)), a[m])
        for m in range(5)))
    assert transfer_series(setup, a) == want
    assert t.apply(a) == want


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_transfer_inverse_is_one_plus_d(setup):
    # U = T^{-1} = 1 + D with D_k f = M_k(pi_J f, J); U_k f is component k
    # of U(f, 0, ..., 0)
    t = transfer_ops(setup, 4)
    for f in sample_series(setup, 4).coeffs:
        u = t.apply_inverse(setup.as_series(f, 4))
        assert u[0] == f
        for k in range(1, 5):
            assert u[k] == setup.kernel(setup.pij(f), setup.j, k)


def counted_maps(setup, calls):
    # the setup with its kernel, j_kernel and pij counted into calls
    def kernel(f, g, r):
        calls["kernel"] += 1
        return setup.kernel(f, g, r)

    def j_kernel(f, r):
        calls["j_kernel"] += 1
        return setup.j_kernel(f, r)

    def pij(f):
        calls["pij"] += 1
        return setup.pij(f)

    return rebuilt(setup, kernel=kernel, j_kernel=j_kernel, pij=pij)


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_transfer_series_call_counts(setup):
    # the transfer runs on j_kernel alone, never on the general kernel
    calls = Counter()
    counted = counted_maps(setup, calls)
    a = sample_series(setup, 4)
    for n in range(5):
        calls.clear()
        transfer_series(counted, a.truncated(n))
        assert calls == Counter(pij=n, j_kernel=n * (n + 1) // 2)
        calls.clear()
        transfer_ops(counted, n).ops[n](a[0])
        assert calls == Counter(pij=n, j_kernel=n * (n + 1) // 2)


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_transfer_ops_apply_call_counts(setup):
    # every T_k applied to one input reads the same run of the forward
    # substitution, so input a_j costs one run to order n - j
    calls = Counter()
    counted = counted_maps(setup, calls)
    base = sample_series(setup, 4)
    a = LambdaSeries(tuple(base[m % 5].scale(m + 1) for m in range(9)))
    for n in range(9):
        calls.clear()
        got = transfer_ops(counted, n).apply(a.truncated(n))
        assert calls == Counter(
            j_kernel=sum((n - j) * (n - j + 1) // 2 for j in range(n + 1)),
            pij=sum(n - j for j in range(n + 1)))
        assert got == transfer_series(setup, a.truncated(n))


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_transfer_ops_runs_outlive_their_inputs(setup):
    # transfer_ops keys its runs by id(f) and holds f in the run, so a
    # dropped input's id is not handed to a later input while ops lives
    ops = transfer_ops(setup, 2).ops
    # T_2 of base is not zero, so a run read for the wrong input shows
    base = sample_series(setup, 3)[3] * setup.j
    assert not transfer_series(setup, setup.as_series(base, 2))[2].is_zero()
    gc.freeze()  # so each collection walks only what the loop made
    try:
        for c in range(1, 201):
            x = base.scale(c)
            assert ops[2](x) == transfer_series(setup, setup.as_series(x, 2))[2]
            del x
            gc.collect()
    finally:
        gc.unfreeze()


def test_transfer_ops_raise_again_after_an_error():
    # pij of an odd input raises; a second call on the same input raises
    # the same error again, not a leftover of the failed run
    setup = radial_setup(RadialConstraint.linear(-HALF), 2)
    ops = transfer_ops(setup, 2).ops
    f = RadialFun.z(1, 2)
    for op in (ops[1], ops[1], ops[2]):
        with pytest.raises(ParityError):
            op(f)
    g = RadialFun.z(1, 2) * RadialFun.zbar(2, 2)
    assert ops[2](g) == transfer_series(setup, setup.as_series(g, 2))[2]


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_star_elements_call_counts(setup):
    # f * g at order n needs M_0..M_n once each, and no kernel of a zero
    calls = Counter()

    def kernel(f, g, r):
        calls[r] += 1
        return setup.kernel(f, g, r)

    counted = rebuilt(setup, kernel=kernel)
    f = sample_series(setup, 0)[0]
    for n in range(7):
        calls.clear()
        got = star_elements(counted, f, setup.j, n)
        assert calls == Counter(range(n + 1))
        want = star_series(setup, setup.as_series(f, n), setup.as_series(setup.j, n))
        assert got == want


def radial_kernel_funs(dim):
    # any monomials, over denominators with and without poles on the sphere
    exps = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    dens = st.sampled_from([UPoly.of(1), UPoly.u(2), UPoly((3, 1)),
                            UPoly((0, 1)) * UPoly((1, 0, 1)), UPoly((-2, 1)) ** 2])
    radials = st.builds(lambda cs, d: RadialRational(UPoly(cs), d),
                        st.lists(gauss(), max_size=3), dens)
    terms = st.lists(st.tuples(st.tuples(exps, exps), radials), max_size=3)
    return terms.map(lambda ts: RadialFun(dim, ts))


@settings(max_examples=200)
@given(st.sampled_from(["linear", "quadratic"]),
       st.sampled_from([-HALF, -Fraction(3, 2), Fraction(-2)]),
       st.sampled_from([1, 2, 3]).flatmap(radial_kernel_funs), st.integers(0, 5))
def test_radial_j_kernel_matches_wick_kernel(kind, mu, f, r):
    setup = radial_setup(RadialConstraint(kind, mu), f.dim)
    got, want = setup.j_kernel(f, r), setup.kernel(f, setup.j, r)
    # the same stored terms, not only the same function
    assert got.terms == want.terms
    assert got == want


@settings(max_examples=200)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.lists(
    st.tuples(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n), gauss()),
    max_size=3).map(lambda ps: FlatPoly(n, ps))), st.integers(0, 5))
def test_flat_j_kernel_matches_moyal_kernel(f, r):
    setup = flat_setup(f.dim)
    assert setup.j_kernel(f, r) == setup.kernel(f, setup.j, r)


@pytest.mark.parametrize("setup", setups(), ids=lambda s: s.label)
def test_j_kernel_takes_no_derivative_past_deg_j(monkeypatch, setup):
    # M_r(f, J) = 0 for r > deg J, read off without a derivative of f
    degree = 2 if setup.label.startswith("radial-quadratic") else 1
    calls = Counter()
    for cls, name in ((RadialFun, "_derivative"), (RadialRational, "derivative"),
                      (FlatPoly, "partial")):
        def counted(*args, original=getattr(cls, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(cls, name, counted)
    for f in sample_series(setup, 4).coeffs:
        for r in range(1, 6):
            calls.clear()
            got = setup.j_kernel(f, r)
            if r > degree:
                assert got.is_zero() and not calls
            else:
                assert calls and got == setup.kernel(f, setup.j, r)


def test_apply_inverse_call_counts():
    # forward substitution makes n(n+1)/2 operator calls at order n
    calls = Counter()
    u = RadialFun.u(2)

    def op(f):
        calls["op"] += 1
        return f * u

    f = RadialFun.one(2)
    for n in range(9):
        calls.clear()
        ops = OperatorSeries((identity,) + (op,) * n)
        ops.apply_inverse(LambdaSeries((f,) * (n + 1)))
        assert calls["op"] == n * (n + 1) // 2
