"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
"ACCEPTANCE <n> <name>: PASS/FAIL" line (run with -s to see them inline).
All comparisons are exact; there are no tolerances anywhere.
"""

import functools
import json
from fractions import Fraction
from random import Random

from costar.cli import main, parse_expression
from costar.cpn import (
    a_coeff_closed,
    a_coeff_engine,
    a_coeff_operator,
    a_coeff_sum,
    pr_word_sum,
    table_reduced_product,
)
from costar.flatphase import FlatPoly, drop_last_pair, moyal_product
from costar.radialphase import (
    RadialConstraint,
    RadialFun,
    poisson,
    prol,
    scalar_ratio,
    wick_product,
)
from costar.reduction import (
    decompose_deformed,
    flat_setup,
    in_bstar,
    in_istar,
    radial_setup,
    reduce_star,
    reduce_star_series,
    star_elements,
    star_series,
    transfer_ops,
    verify_intertwiner,
)
from costar.scalar import (
    GaussianRational,
    I,
    LambdaSeries,
    RadialRational,
    UPoly,
)

HALF = Fraction(1, 2)
MUS = (Fraction(-1, 2), Fraction(-1), Fraction(-3, 2))


def report(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok = fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %d %s: FAIL" % (num, name))
                raise
            print("ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL"))
            assert ok, "acceptance criterion %d (%s) failed" % (num, name)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# randomized input builders (fixed seeds, deterministic runs)


def rand_gauss(rng):
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                            Fraction(rng.randint(-3, 3), rng.choice((1, 2))))


def rand_reduced_flat(rng, n, terms=3, deg=3):
    """Polynomial on R^{2n} using only the first n-1 coordinate pairs."""
    out = {}
    for _ in range(terms):
        key = [0] * (2 * n)
        for i in range(n - 1):
            key[i] = rng.randint(0, deg)
            key[n + i] = rng.randint(0, deg)
        out[tuple(key)] = rand_gauss(rng)
    return FlatPoly(n, out)


def rand_flat(rng, n=2, terms=3, deg=2):
    out = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, deg) for _ in range(2 * n))
        out[key] = rand_gauss(rng)
    return FlatPoly(n, out)


EVEN_KEYS = (
    ((0, 0), (0, 0)),
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((2, 0), (0, 2)),
)


def rand_even(rng):
    terms = []
    for _ in range(2):
        radial = RadialRational(UPoly(tuple(rng.randint(-2, 2) for _ in range(3))))
        terms.append((rng.choice(EVEN_KEYS), radial))
    return RadialFun(2, terms)


def homog_pool(dim):
    """Degree-0 generators: 1 and all z_i zbar_j / u."""
    out = [RadialFun.one(dim)]
    inv_u = RadialRational.u_power(-1)
    for i in range(dim):
        for j in range(dim):
            alpha = tuple(1 if k == i else 0 for k in range(dim))
            beta = tuple(1 if k == j else 0 for k in range(dim))
            out.append(RadialFun(dim, {(alpha, beta): inv_u}))
    return out


def rand_homog(rng, pool, dim):
    out = RadialFun.zero(dim)
    for f in pool:
        c = rng.randint(-1, 1)
        if c:
            out = out + f.scale(Fraction(c))
    return out if not out.is_zero() else pool[1]


def all_setups():
    return (
        flat_setup(2),
        radial_setup(RadialConstraint.linear(-HALF), 2),
        radial_setup(RadialConstraint.quadratic(Fraction(-3, 2)), 2),
    )


# ---------------------------------------------------------------------------
# criteria


@report(1, "flat-reduction-matches-moyal")
def test_criterion_1_flat_reduction():
    rng = Random(11)
    ok = True
    order = 6
    for n in (2, 3):
        setup = flat_setup(n)
        for trial in range(10):
            f = rand_reduced_flat(rng, n)
            g = rand_reduced_flat(rng, n)
            reduced = reduce_star(setup, f, g, order)
            small = moyal_product(drop_last_pair(f), drop_last_pair(g), order)
            ok = ok and all(
                drop_last_pair(reduced[k]) == small[k] for k in range(order + 1)
            )
            if trial < 3:
                ok = ok and verify_intertwiner(setup, None, f, g, order)
    return ok


@report(2, "coefficient-table-identity")
def test_criterion_2_coefficient_tables():
    ok = all(
        a_coeff_sum(k, l) == a_coeff_closed(k, l)
        for k in range(1, 9) for l in range(9)
    )
    ok = ok and all(a_coeff_sum(1, l) == (-1) ** l for l in range(9))
    ok = ok and all(a_coeff_sum(k, 0) == 1 for k in range(1, 9))
    ok = ok and all(
        a_coeff_sum(k, 1) == Fraction(-k * (k + 1), 2) for k in range(1, 9)
    )
    return ok


@report(3, "closed-form-product")
def test_criterion_3_closed_form_product():
    rng = Random(23)
    ok = True
    # the operator-defined table equals the combinatorial one once the
    # deformation-scale normalization (factor 2 per order) is applied;
    # the match is independent of the constraint level and the dimension
    for mu, dim in ((-HALF, 1), (Fraction(-3, 2), 2)):
        for k in range(4):
            for l in range(4):
                value = a_coeff_operator(k, l, mu, dim)
                ok = ok and value == a_coeff_engine(k, l)
                ok = ok and value == 2 ** l * a_coeff_sum(k, l)
    for dim in (2, 3):
        pool = homog_pool(dim)
        for mu in MUS:
            c = RadialConstraint.linear(mu)
            setup = radial_setup(c, dim)
            for _ in range(5):
                f = rand_homog(rng, pool, dim)
                g = rand_homog(rng, pool, dim)
                ok = ok and (
                    table_reduced_product(c, f, g, 4)
                    == reduce_star(setup, f, g, 4)
                )
    return ok


@report(4, "transfer-operator-laws")
def test_criterion_4_transfer_laws():
    rng = Random(37)
    ok = True
    order = 5
    for setup in all_setups():
        gen = rand_flat if setup.label.startswith("flat") else rand_even
        t = transfer_ops(setup, order)
        jser = setup.as_series(setup.j, order)
        ok = ok and t.apply(jser) == jser
        for _ in range(20):
            f = gen(rng)
            straightened = t.apply(star_elements(setup, f, setup.j, order))
            ok = ok and straightened == LambdaSeries(
                (f * setup.j,) + (setup.zero,) * order
            )
            pf = setup.prol(f)
            pser = setup.as_series(pf, order)
            ok = ok and t.apply(pser) == pser
            fs = setup.as_series(f, order)
            p, w = decompose_deformed(setup, fs)
            ok = ok and all(setup.prol(c) == c for c in p.coeffs)
            ok = ok and p + star_series(setup, w, jser) == fs
    return ok


@report(5, "reduced-product-axioms")
def test_criterion_5_star_axioms():
    rng = Random(41)
    ok = True
    order = 4
    pool = homog_pool(2)
    for kind, mu in (("linear", -HALF), ("quadratic", Fraction(-3, 2))):
        setup = radial_setup(RadialConstraint(kind, mu), 2)
        for _ in range(5):
            f = rand_homog(rng, pool, 2)
            g = rand_homog(rng, pool, 2)
            h = rand_homog(rng, pool, 2)
            ok = ok and reduce_star(setup, f, setup.one, order) == \
                setup.as_series(f, order)
            ok = ok and reduce_star(setup, setup.one, f, order) == \
                setup.as_series(f, order)
            fg = reduce_star(setup, f, g, order)
            gf = reduce_star(setup, g, f, order)
            ok = ok and fg[0] == f * g
            ok = ok and fg[1] - gf[1] == setup.prol(poisson(f, g).scale(I))
            gh = reduce_star(setup, g, h, order)
            left = reduce_star_series(setup, fg, setup.as_series(h, order))
            right = reduce_star_series(setup, setup.as_series(f, order), gh)
            ok = ok and left == right
    return ok


@report(6, "letter-word-expansion")
def test_criterion_6_word_oracle():
    rng = Random(53)
    ok = True
    setup = radial_setup(RadialConstraint.quadratic(-HALF), 2)
    t = transfer_ops(setup, 4)
    for _ in range(10):
        f = rand_even(rng)
        for w in range(1, 5):
            ok = ok and pr_word_sum(setup, w)(f) == t.ops[w](f)
    return ok


@report(7, "order-two-obstruction")
def test_criterion_7_obstruction():
    rng = Random(67)
    mu = -HALF
    lin = RadialConstraint.linear(mu)
    quad = RadialConstraint.quadratic(mu)
    slin = radial_setup(lin, 2)
    squad = radial_setup(quad, 2)
    pool = homog_pool(2)
    scalars = []
    while len(scalars) < 5:
        f = rand_homog(rng, pool, 2)
        g = rand_homog(rng, pool, 2)
        if poisson(f, g).is_zero():
            continue
        diff_fg = reduce_star(squad, f, g, 2)[2] - reduce_star(slin, f, g, 2)[2]
        diff_gf = reduce_star(squad, g, f, 2)[2] - reduce_star(slin, g, f, 2)[2]
        bracket_rep = prol(poisson(f, g), lin)
        scalars.append(scalar_ratio(diff_fg - diff_gf, bracket_rep))
    ok = all(s is not None and not s.is_zero() for s in scalars)
    ok = ok and len(set(map(repr, scalars))) == 1
    # the single constant witnesses inequivalence of the two reduced
    # products; it is -2 times the reference normalization I/2
    ok = ok and scalars[0] == GaussianRational(0, -1)
    ok = ok and scalars[0] == GaussianRational(-2) * GaussianRational(0, HALF)
    return ok


@report(8, "ideal-and-normalizer-membership")
def test_criterion_8_membership():
    rng = Random(79)
    ok = True
    order = 4
    for setup in all_setups():
        gen = rand_flat if setup.label.startswith("flat") else rand_even
        for _ in range(10):
            g = gen(rng)
            ok = ok and in_istar(setup, star_elements(setup, g, setup.j, order))
    lin = radial_setup(RadialConstraint.linear(-HALF), 2)
    pool = homog_pool(2)
    for _ in range(10):
        f = rand_homog(rng, pool, 2)
        ok = ok and in_bstar(lin, lin.as_series(f, order))
        ok = ok and not in_istar(lin, lin.as_series(f, order))
    flat = flat_setup(2)
    q1p1 = FlatPoly(2, {(1, 0, 1, 0): 1})
    ok = ok and not in_istar(flat, flat.as_series(q1p1, order))
    return ok


@report(9, "cli-determinism-round-trip")
def test_criterion_9_cli(capsys):
    ok = True
    commands = (
        ["star", "--mode", "flat", "--dim", "2", "--order", "3",
         "q1^2*p1", "p1 + q2"],
        ["star", "--mode", "radial-linear", "--dim", "2", "--order", "3",
         "z1*zb1", "z2*zb2"],
        ["reduce", "--mode", "radial-quadratic", "--mu=-3/2", "--dim", "2",
         "--order", "3", "z1*zb2/u", "z2*zb1/u"],
        ["reduce", "--mode", "flat", "--dim", "2", "--order", "4",
         "q1*p1", "q1^2"],
        ["coeffs", "--kind", "linear", "--kmax", "4", "--lmax", "4", "--tsv"],
        ["coeffs", "--kind", "quadratic", "--kmax", "2", "--lmax", "3",
         "--json"],
    )
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        ok = ok and code1 == 0 and code2 == 0 and out1 == out2

    # re-parsing printed coefficients reproduces the computed series
    cases = (
        (["star", "--mode", "radial-linear", "--dim", "1", "--order", "2",
          "z1", "zb1"],
         "radial-linear", 1,
         wick_product(RadialFun.z(1, 1), RadialFun.zbar(1, 1), 2)),
        (["star", "--mode", "flat", "--dim", "2", "--order", "2",
          "q1*p1", "p1^2"],
         "flat", 2,
         moyal_product(parse_expression("q1*p1", "flat", 2),
                       parse_expression("p1^2", "flat", 2), 2)),
        (["reduce", "--mode", "radial-quadratic", "--mu=-3/2", "--dim", "2",
          "--order", "2", "z1*zb2/u", "z2*zb1/u"],
         "radial-quadratic", 2,
         reduce_star(
             radial_setup(RadialConstraint.quadratic(Fraction(-3, 2)), 2),
             parse_expression("z1*zb2/u", "radial-quadratic", 2),
             parse_expression("z2*zb1/u", "radial-quadratic", 2), 2)),
    )
    for argv, mode, dim, series in cases:
        code = main(list(argv))
        out = capsys.readouterr().out
        ok = ok and code == 0
        lines = out.splitlines()
        ok = ok and len(lines) == series.order + 1
        for k, line in enumerate(lines):
            expr = line.split(": ", 1)[1]
            ok = ok and parse_expression(expr, mode, dim) == series[k]

    code = main(["reduce", "--mode", "flat", "--dim", "2", "--order", "2",
                 "--json", "q1", "p1"])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and code == 0 and payload["order"] == 2
    ok = ok and payload["coeffs"][1]["terms"][0]["num"] == \
        [{"im": "1/2", "re": "0"}]
    return ok
