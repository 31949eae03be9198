"""Seeded operation lists for the three workloads, the code that runs one
operation, and the property checks that need no oracle.

An operation is a plain, JSON-serialisable dict.  A workload turns a seed
into one pass: a fixed list of operations that every run repeats whole.
`prepare` builds whatever the engine needs before the first operation
(setups, parsed polynomials); `run_op` performs one operation and returns
its output as plain data, which the checks and the oracle read.
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from random import Random

MUS = ("-1/2", "-1", "-3/2")

# Degree-0 factor shapes for the sphere workloads.  A shape is a list of
# (sign, generator) pairs; a generator is 0 for the constant 1 or (i, j)
# for z_i*zb_j/u with abstract indices.  Every pass runs every shape at
# every mu in both modes; the seed relabels the indices by a permutation
# and flips the sign of each factor as a whole.  So every pass does the
# same amount of work whatever the seed, and only the inputs change.
SPHERE_SHAPES = {
    2: (
        (((1, (1, 2)), (-1, 0)), ((1, (2, 1)), (1, (1, 1)))),
        (((1, (1, 2)), (1, (1, 1))), ((1, (2, 1)), (-1, (2, 2)))),
    ),
    3: (
        (((1, (1, 2)), (1, (2, 3))), ((1, (3, 1)), (-1, (2, 2)))),
        (((1, (1, 3)), (-1, (3, 1))), ((1, (3, 1)), (1, 0))),
    ),
}

# Pairs for `costar obstruct --dim 2`.  A pass runs each twice, at two
# different mu from MUS, so the median op of coeff-tables falls among the
# eight obstruct ops.  The last pair Poisson-commutes, so the command must
# report lhs = rhs = 0 and no ratio.
OBSTRUCT_SHAPES = (
    (((1, (1, 2)), (-1, 0)), ((1, (2, 1)), (1, (1, 1)))),
    (((1, (1, 2)), (-1, (2, 1))), ((1, (2, 1)), (1, (1, 2)), (-1, 0))),
    (((1, (1, 2)),), ((1, (2, 1)), (-1, (2, 2)))),
    (((1, (1, 1)),), ((1, (2, 2)),)),
)

COEFF_MUS = ("-1/2", "-1", "-3/2", "-2", "-5/2", "-1/3", "-2/3", "-3/4",
             "-5/4", "-3/7")

FLAT_N = 3
FLAT_ORDER = 8
FLAT_OPS_PER_PASS = 16


def _factor_text(shape, perm, sign):
    out = ""
    for s, gen in shape:
        s *= sign
        text = "1" if gen == 0 else "z%d*zb%d/u" % (perm[gen[0] - 1], perm[gen[1] - 1])
        if not out:
            out = ("-" if s < 0 else "") + text
        else:
            out += (" - " if s < 0 else " + ") + text
    return out


def _seeded_pair(rng, shape_pair, dim):
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    f = _factor_text(shape_pair[0], perm, rng.choice((1, -1)))
    g = _factor_text(shape_pair[1], perm, rng.choice((1, -1)))
    return f, g


def sphere_reduce_ops(seed):
    rng = Random(seed)
    ops = []
    for mode in ("radial-linear", "radial-quadratic"):
        for dim, order in ((2, 4), (3, 3)):
            for mu in MUS:
                for shape in SPHERE_SHAPES[dim]:
                    f, g = _seeded_pair(rng, shape, dim)
                    argv = ["reduce", "--mode", mode, "--dim", str(dim), "--order",
                            str(order), "--mu=" + mu, "--", f, g]
                    ops.append({"kind": "reduce", "argv": argv, "mode": mode,
                                "dim": dim, "order": order, "mu": mu, "f": f,
                                "g": g})
    return ops


def coeff_tables_ops(seed):
    rng = Random(seed)
    ops = []
    for mu in rng.sample(COEFF_MUS, 2):
        ops.append({"kind": "coeffs", "table": "quadratic", "kmax": 5, "lmax": 6,
                    "mu": mu,
                    "argv": ["coeffs", "--kind", "quadratic", "--kmax", "5",
                             "--lmax", "6", "--mu=" + mu, "--tsv"]})
    ops.append({"kind": "coeffs", "table": "linear", "kmax": 8, "lmax": 8,
                "mu": "-1/2",
                "argv": ["coeffs", "--kind", "linear", "--kmax", "8", "--lmax", "8",
                         "--tsv"]})
    for i in range(2 * len(OBSTRUCT_SHAPES)):
        shape = OBSTRUCT_SHAPES[i % len(OBSTRUCT_SHAPES)]
        mu = MUS[i % len(MUS)]
        f, g = _seeded_pair(rng, shape, 2)
        ops.append({"kind": "obstruct", "dim": 2, "mu": mu, "f": f, "g": g,
                    "argv": ["obstruct", "--dim", "2", "--mu=" + mu, "--", f, g]})
    return ops


def _rand_scalar(rng):
    re_ = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    im = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
    return [str(re_), str(im)]


def _rand_flat_terms(rng):
    # one term of each degree 0..3; the constant keeps prol(g) nonzero
    terms = []
    keys = set()
    for deg in range(4):
        while True:
            key = [0] * (2 * FLAT_N)
            for _ in range(deg):
                key[rng.randrange(2 * FLAT_N)] += 1
            if tuple(key) not in keys:
                break
        keys.add(tuple(key))
        terms.append([key, _rand_scalar(rng)])
    return terms


def flat_ideal_ops(seed):
    rng = Random(seed)
    return [{"kind": "flat", "n": FLAT_N, "order": FLAT_ORDER,
             "g": _rand_flat_terms(rng)} for _ in range(FLAT_OPS_PER_PASS)]


WORKLOADS = {
    "sphere-reduce": sphere_reduce_ops,
    "flat-ideal": flat_ideal_ops,
    "coeff-tables": coeff_tables_ops,
}

# The cProfile pass of a traced run profiles every PROFILE_STRIDE-th op of
# the pass (cProfile slows the scalar layer about fivefold): for
# sphere-reduce that is the first op of each (mode, dim) block.
PROFILE_STRIDE = {"sphere-reduce": 6, "flat-ideal": 1, "coeff-tables": 1}


# ---------------------------------------------------------------------------
# running one operation


def _gauss(pair):
    from costar.scalar import GaussianRational
    return GaussianRational(Fraction(pair[0]), Fraction(pair[1]))


def prepare(ops):
    """Build the engine objects the operations need before the first one.

    Returns a list parallel to ops; CLI operations need nothing beyond
    their argv and the imported front end, flat operations get their
    setup, g and control series.
    """
    from costar import cli  # noqa: F401  (imports are part of set-up)
    from costar.flatphase import FlatPoly
    from costar.reduction import flat_setup

    setups = {}
    out = []
    for op in ops:
        if op["kind"] != "flat":
            out.append(None)
            continue
        n = op["n"]
        if n not in setups:
            setups[n] = flat_setup(n)
        setup = setups[n]
        g = FlatPoly(n, [(tuple(k), _gauss(c)) for k, c in op["g"]])
        out.append((setup, g, setup.as_series(g, op["order"])))
    return out


def run_cli(argv):
    from costar import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_flat(prepared, order):
    from costar.reduction import in_istar, star_elements, transfer_ops

    setup, g, control = prepared
    series = star_elements(setup, g, setup.j, order)
    h = transfer_ops(setup, order).apply(series)
    return {
        "rc": 0,
        "h": [_flat_json(c) for c in h.coeffs],
        "accept": in_istar(setup, series),
        "reject": in_istar(setup, control),
    }


def _flat_json(f):
    return [[list(k), [str(c.re), str(c.im)]] for k, c in f.sorted_terms()]


def run_op(op, prepared):
    """Perform one operation; the result is timed by the caller."""
    if op["kind"] == "flat":
        return run_flat(prepared, op["order"])
    return run_cli(op["argv"])


# ---------------------------------------------------------------------------
# printed-output round trip (run by the benchmark after the measured loop)


def _reparse_radial(text, dim):
    from costar.cli import parse_expression, radial_text

    return radial_text(parse_expression(text, "radial-linear", dim)) == text


def reparse_ok(op, result):
    """Every printed coefficient re-parses to a value that prints the same."""
    if result["rc"] != 0:
        return False
    kind = op["kind"]
    if kind == "flat":
        return all(str(Fraction(v)) == v for c in result["h"] for _, pair in c
                   for v in pair)
    lines = result["stdout"].splitlines()
    if kind == "reduce":
        bodies = [line.split(": ", 1)[1] for line in lines]
        return all(_reparse_radial(b, op["dim"]) for b in bodies)
    if kind == "coeffs":
        return all(str(Fraction(v)) == v for line in lines for v in line.split("\t"))
    lhs, rhs, ratio = (line.split(":", 1)[1].strip() for line in lines)
    ok = _reparse_radial(lhs, op["dim"]) and _reparse_radial(rhs, op["dim"])
    return ok and (ratio == "none" or str(Fraction(ratio)) == ratio)


# ---------------------------------------------------------------------------
# property checks that need no oracle


def _times_pn(g_terms, n):
    # g * p_n by shifting exponents, without the engine's multiplication
    out = []
    for key, c in g_terms:
        k = list(key)
        k[2 * n - 1] += 1
        out.append([k, [str(Fraction(c[0])), str(Fraction(c[1]))]])
    return sorted(out)


def check_flat(op, result):
    """T(g*J) == (g*J, 0, ..., 0), g*J is in I*, and (g, 0, ...) is not."""
    if result["rc"] != 0:
        return False
    h = result["h"]
    want0 = _times_pn(op["g"], op["n"])
    return (len(h) == op["order"] + 1
            and sorted(h[0]) == want0
            and all(not c for c in h[1:])
            and result["accept"] is True
            and result["reject"] is False)


def check_quadratic_mu_independence(ops, results):
    """Quadratic cells printed for different mu are identical."""
    tables = {r["stdout"] for op, r in zip(ops, results)
              if op["kind"] == "coeffs" and op["table"] == "quadratic"
              and r["rc"] == 0}
    return len(tables) <= 1


NUMBER = re.compile(r"(?<![\^A-Za-z\d])\d+")


def max_coeff_bits(op, result):
    """Largest bit length of an integer printed as part of a coefficient."""
    if op["kind"] == "flat":
        text = " ".join(v for c in result["h"] for _, pair in c for v in pair)
    else:
        text = result["stdout"]
    return max((int(x).bit_length() for x in NUMBER.findall(text)), default=0)
