import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import costar.cli as cli
from costar.cli import (
    ParseError,
    fun_text,
    main,
    parse_expression,
    radial_text,
    tokenize,
)
from costar.cpn import a_coeff_engine
from costar.flatphase import FlatPoly
from costar.radialphase import RadialFun
from costar.scalar import GaussianRational, I, RadialRational, UPoly


def test_tokenize_kinds_and_positions():
    toks = tokenize("z1 + u^2")
    assert [(k, t, p) for k, t, p in toks] == [
        ("name", "z1", 0), ("op", "+", 3), ("name", "u", 5),
        ("op", "^", 6), ("int", "2", 7), ("end", "", 8),
    ]
    with pytest.raises(ParseError) as err:
        tokenize("z1 $ u")
    assert err.value.pos == 3


def test_parse_radial_examples():
    f = parse_expression("z1*zb2/u + 2", "radial-linear", 2)
    want = RadialFun.monomial((1, 0), (0, 1), radial=RadialRational.u_power(-1))
    assert f == want + 2
    assert parse_expression("u^-2", "radial-quadratic", 2) == \
        RadialFun.from_radial(RadialRational.u_power(-2), 2)
    g = parse_expression("(1/2 + 3*I)*z1^2*zb1^2/u^2", "radial-linear", 2)
    c = GaussianRational(Fraction(1, 2), 3)
    assert g == RadialFun.monomial((2, 0), (2, 0),
                                   radial=RadialRational.u_power(-2)).scale(c)
    h = parse_expression("(u + 1)/(u^2 - 2)", "radial-linear", 1)
    assert h == RadialFun.from_radial(
        RadialRational(UPoly((1, 1)), UPoly((-2, 0, 1))), 1)


def test_parse_flat_examples():
    f = parse_expression("q1^2*p2 - 3/4", "flat", 2)
    want = FlatPoly(2, {(2, 0, 0, 1): 1, (0, 0, 0, 0): Fraction(-3, 4)})
    assert f == want
    assert parse_expression("I*q1", "flat", 2) == FlatPoly.q(1, 2).scale(I)
    assert parse_expression("-q1^2", "flat", 1) == -(FlatPoly.q(1, 1) ** 2)


def _parse_error(text, mode, dim=2):
    with pytest.raises(ParseError) as err:
        parse_expression(text, mode, dim)
    return err.value.msg, err.value.pos


FLAT_NAMES = "(expected q<i>, p<i>, I)"
RADIAL_NAMES = "(expected z<i>, zb<i>, u, I)"


def test_parse_mode_gating():
    for mode in ("radial-linear", "radial-quadratic"):
        assert _parse_error("q1", mode) == \
            ("unknown name 'q1' in radial mode " + RADIAL_NAMES, 0)
        assert _parse_error("z1 + zz1", mode) == \
            ("unknown name 'zz1' in radial mode " + RADIAL_NAMES, 5)
        assert _parse_error("z3", mode) == \
            ("coordinate index 3 out of range 1..2", 0)
        assert _parse_error("2*zb0", mode) == \
            ("coordinate index 0 out of range 1..2", 2)
    assert _parse_error("z1", "flat") == \
        ("unknown name 'z1' in flat mode " + FLAT_NAMES, 0)
    assert _parse_error("q1*u", "flat") == \
        ("unknown name 'u' in flat mode " + FLAT_NAMES, 3)
    assert _parse_error("q0", "flat") == ("coordinate index 0 out of range 1..2", 0)
    assert _parse_error("p1 - p3", "flat") == \
        ("coordinate index 3 out of range 1..2", 5)


def test_parse_error_positions_and_divisors():
    with pytest.raises(ParseError) as err:
        parse_expression("2q1", "flat", 2)
    assert err.value.pos == 1
    with pytest.raises(ParseError, match="end of input"):
        parse_expression("z1 +", "radial-linear", 2)
    with pytest.raises(ParseError, match="exponent"):
        parse_expression("u^x", "radial-linear", 2)
    radial_divisor = "division needs a scalar or purely radial divisor"
    assert _parse_error("1/(z1 + zb1)", "radial-linear") == (radial_divisor, 1)
    assert _parse_error("u*z1^-1", "radial-quadratic") == (radial_divisor, 4)
    assert _parse_error("1/0", "radial-linear") == ("division by zero", 1)
    assert _parse_error("z1/(z1*zb1 + z2*zb2 - u)", "radial-linear") == \
        ("division by zero", 2)
    flat_divisor = "flat division needs a scalar divisor"
    assert _parse_error("1/q1", "flat") == (flat_divisor, 1)
    assert _parse_error("(q1 + 1)^-2", "flat") == (flat_divisor, 8)
    assert _parse_error("q1/(2 - 2)", "flat") == ("division by zero", 2)
    assert _parse_error("p1^-1", "flat", 1) == (flat_divisor, 2)
    # a scalar or radial divisor is inverted exactly
    assert parse_expression("q1/(2 + I)", "flat", 1) == \
        FlatPoly.q(1, 1).scale(GaussianRational(Fraction(2, 5), Fraction(-1, 5)))
    assert parse_expression("(u + 1)^-2*(u^2 + 2*u + 1)", "radial-linear", 1) == \
        RadialFun.one(1)


ROUNDTRIP_RADIAL = [
    RadialFun.zero(2),
    RadialFun.one(2) + RadialFun.u(2).scale(Fraction(-1, 3)),
    RadialFun.monomial((1, 0), (0, 1), radial=RadialRational.u_power(-1)),
    RadialFun.monomial((2, 1), (1, 2),
                       radial=RadialRational(UPoly((1, 1)), UPoly((0, 0, 1)))),
    RadialFun.monomial((1, 0), (1, 0)).scale(GaussianRational(Fraction(1, 2), -2)),
    RadialFun.from_radial(RadialRational(UPoly((2, 0, 3)), UPoly((1, 1))), 1),
    RadialFun.z(1, 2) * RadialFun.zbar(1, 2) - RadialFun.u(2),
]


@pytest.mark.parametrize("f", ROUNDTRIP_RADIAL)
def test_radial_text_round_trip(f):
    assert parse_expression(radial_text(f), "radial-linear", f.dim) == f


ROUNDTRIP_FLAT = [
    FlatPoly.zero(2),
    FlatPoly(2, {(1, 0, 1, 0): GaussianRational(0, 1),
                 (0, 2, 0, 0): Fraction(-5, 2)}),
    FlatPoly(1, {(3, 1): GaussianRational(Fraction(1, 3), Fraction(-1, 2))}),
    FlatPoly.one(2).scale(-1),
]


@pytest.mark.parametrize("f", ROUNDTRIP_FLAT)
def test_flat_text_round_trip(f):
    assert parse_expression(fun_text(f), "flat", f.dim) == f


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
u_polys = st.lists(gaussians, min_size=1, max_size=3).map(UPoly)


@st.composite
def radial_parts(draw):
    # u^a times a polynomial with complex coefficients, so the reduced
    # denominator is often not a power of u
    den = UPoly.u(draw(st.integers(0, 2))) * draw(u_polys)
    return RadialRational(draw(u_polys), den if not den.is_zero() else 1)


@st.composite
def algebra_elements(draw):
    dim = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    if draw(st.booleans()):
        terms = draw(st.lists(st.tuples(exps, exps, gaussians), max_size=4))
        return FlatPoly(dim, [(a + b, c) for a, b, c in terms]), "flat"
    terms = draw(st.lists(st.tuples(exps, exps, radial_parts()), max_size=4))
    mode = draw(st.sampled_from(["radial-linear", "radial-quadratic"]))
    return RadialFun(dim, [((a, b), r) for a, b, r in terms]), mode


def _schema_json(f):
    """The JSON terms of f as README spells them, built without cli."""
    def scalar(c):
        return {"re": str(c.re), "im": str(c.im)}

    terms = []
    if f.is_zero():
        # a vanishing element has no terms, whatever it stores
        return {"terms": terms}
    for key, c in sorted(f.terms.items()):
        if isinstance(f, FlatPoly):
            alpha, beta = key[:f.dim], key[f.dim:]
            num, den = [scalar(c)], [scalar(GaussianRational(1))]
        else:
            (alpha, beta), num, den = key, c.num.coeffs, c.den.coeffs
            num, den = [scalar(x) for x in num], [scalar(x) for x in den]
        terms.append({"alpha": list(alpha), "beta": list(beta),
                      "num": num, "den": den})
    return {"terms": terms}


@settings(max_examples=200)
@given(algebra_elements())
def test_printer_round_trip_and_json_schema(case):
    f, mode = case
    text = cli.fun_text(f)
    g = parse_expression(text, mode, f.dim)
    assert g == f
    if not f.is_zero():
        assert g.terms == f.terms
    assert cli.coeff_json(f) == _schema_json(f)


FUZZ_NAMES = ["q1", "p1", "q2", "p2", "q3", "q0", "z1", "zb1", "z2", "zb2",
              "zb3", "z0", "u", "I", "w", "zz1"]


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/"]),
                  children).map(lambda t: "%s %s %s" % t),
        children.map(lambda e: "(%s)" % e),
        children.map(lambda e: "-" + e),
        st.tuples(children, st.sampled_from(["2", "3", "-1", "-2"]))
        .map(lambda t: "(%s)^%s" % t),
    )


fuzz_exprs = st.recursive(
    st.one_of(st.sampled_from(FUZZ_NAMES), st.integers(0, 3).map(str)),
    _compound, max_leaves=5)


@settings(max_examples=200)
@given(st.sampled_from(["star", "reduce"]), st.sampled_from(cli.MODES),
       st.integers(1, 2), st.integers(0, 2), fuzz_exprs, fuzz_exprs)
def test_main_fuzz_over_expression_grammar(command, mode, dim, order, f, g):
    argv = [command, "--mode", mode, "--dim", str(dim), "--order", str(order),
            "--", f, g]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("costar:") and not out.getvalue()
        return
    assert code == 0 and not err.getvalue()
    lines = out.getvalue().splitlines()
    assert len(lines) == order + 1
    for k, line in enumerate(lines):
        label, body = line.split(": ", 1)
        assert label == "order %d" % k
        assert cli.fun_text(parse_expression(body, mode, dim)) == body


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_output_is_deterministic_and_reparses(capsys):
    argv = ["star", "--mode", "radial-linear", "--dim", "1",
            "--order", "2", "z1", "zb1"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 == "order 0: u\norder 1: 2\norder 2: 0\n"
    for k, line in enumerate(out1.splitlines()):
        label, expr = line.split(": ", 1)
        assert label == "order %d" % k
        parse_expression(expr, "radial-linear", 1)


def test_star_json_schema(capsys):
    argv = ["star", "--mode", "flat", "--dim", "2", "--order", "1",
            "--json", "q1", "p1"]
    code, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert code == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["order"] == 1
    assert len(payload["coeffs"]) == 2
    term = payload["coeffs"][0]["terms"][0]
    assert term == {"alpha": [1, 0], "beta": [1, 0],
                    "num": [{"re": "1", "im": "0"}],
                    "den": [{"re": "1", "im": "0"}]}
    assert payload["coeffs"][1]["terms"][0]["num"] == [{"re": "0", "im": "1/2"}]


def test_json_and_text_agree_on_vanishing_orders(capsys):
    # orders 2-4 store terms that cancel in dim 2 (z1*zb1 + z2*zb2 = u),
    # so the text prints 0 and the JSON must list no terms
    argv = ["reduce", "--mode", "radial-linear", "--dim", "2", "--order", "4",
            "--mu=-1", "--", "-z1*zb2/u + 1", "z2*zb1/u + z1*zb1/u"]
    code, text, _ = _run(capsys, argv)
    assert code == 0
    lines = text.splitlines()
    code, out, _ = _run(capsys, argv[:-3] + ["--json"] + argv[-3:])
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == len(lines) == 5
    for line, coeff in zip(lines, coeffs):
        assert line.endswith(": 0") == (coeff["terms"] == [])
    assert [line.endswith(": 0") for line in lines] == [False, False, True, True, True]


def test_reduce_cli_flat_frozen(capsys):
    code, out, _ = _run(capsys, ["reduce", "--mode", "flat", "--dim", "2",
                                 "--order", "2", "q1", "p1"])
    assert code == 0
    assert out == "order 0: q1*p1\norder 1: 1/2*I\norder 2: 0\n"


def test_reduce_cli_radial_round_trips(capsys):
    argv = ["reduce", "--mode", "radial-quadratic", "--mu=-3/2", "--dim", "2",
            "--order", "2", "z1*zb2/u", "z2*zb1/u"]
    code, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert code == 0 and out1 == out2
    for line in out1.splitlines():
        parse_expression(line.split(": ", 1)[1], "radial-quadratic", 2)


def test_reduce_cli_rejects_non_member(capsys):
    code, _, err = _run(capsys, ["reduce", "--mode", "radial-linear",
                                 "--dim", "2", "u", "z1*zb1/u"])
    assert code == 2
    assert "left factor" in err


def test_coeffs_tsv_grid(capsys):
    code, out, _ = _run(capsys, ["coeffs", "--kind", "linear",
                                 "--kmax", "4", "--lmax", "4", "--tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    assert rows[0] == ["1", "-2", "4", "-8"]
    for k in range(1, 5):
        for l in range(4):
            assert rows[k - 1][l] == str(a_coeff_engine(k, l))


def test_coeffs_quadratic(capsys):
    argv = ["coeffs", "--kind", "quadratic", "--kmax", "2", "--lmax", "3",
            "--tsv"]
    _, out, _ = _run(capsys, argv)
    assert out.splitlines()[0].split("\t") == ["1", "-3", "17/2"]


def test_coeffs_json(capsys):
    code, out, _ = _run(capsys, ["coeffs", "--kind", "linear", "--kmax", "1",
                                 "--lmax", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"kind": "linear", "kmax": 1, "lmax": 3,
                       "rows": [["1", "-2", "4"]]}


def test_obstruct_cli(capsys):
    code, out, _ = _run(capsys, ["obstruct", "--dim", "2", "--json",
                                 "z1*zb2/u", "z2*zb1/u"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == {"re": "-2", "im": "0"}
    code, out, _ = _run(capsys, ["obstruct", "--dim", "2",
                                 "z1*zb2/u", "z2*zb1/u"])
    assert code == 0
    assert out.splitlines()[-1] == "ratio: -2"


def test_verify_cli(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["verify", "--suite", "tables",
                                 "--examples", "1"])
    assert code == 0
    assert out == "VERIFY tables: PASS\n"
    monkeypatch.setattr(cli, "SUITES", (("broken", lambda rng, n: False),))
    code, out, _ = _run(capsys, ["verify"])
    assert code == 1
    assert out == "VERIFY broken: FAIL\n"


def test_usage_and_parse_errors_exit_2(capsys):
    assert _run(capsys, ["star", "--mode", "bogus", "1", "1"])[0] == 2
    assert _run(capsys, [])[0] == 2
    code, _, err = _run(capsys, ["star", "--mode", "flat", "--dim", "2",
                                 "z1", "q1"])
    assert code == 2 and "flat mode" in err
    code, _, err = _run(capsys, ["reduce", "--mode", "radial-linear",
                                 "--dim", "2", "z1", "zb1"])
    assert code == 2 and "even" in err


def test_help_exits_zero(capsys):
    assert _run(capsys, ["--help"])[0] == 0


@pytest.mark.parametrize("cmd", [
    ["reduce", "z1*zb2/u", "z2*zb1/u"],
    ["coeffs"],
    ["obstruct", "z1*zb2/u", "z2*zb1/u"],
])
@pytest.mark.parametrize("mu", ["1/0", "half"])
def test_bad_mu_is_a_usage_error(capsys, cmd, mu):
    code, out, err = _run(capsys, cmd[:1] + ["--mu=" + mu] + cmd[1:])
    assert code == 2 and out == ""
    assert "--mu" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("mu", ["0", "1"])
def test_coeffs_rejects_nonnegative_mu(capsys, kind, mu):
    # the linear rows do not read mu, yet each table belongs to a constraint
    code, out, err = _run(capsys, ["coeffs", "--kind", kind, "--mu=" + mu])
    assert code == 2 and out == ""
    assert "mu must be negative" in err and "Traceback" not in err


def test_nesting_limit_exits_2(capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    code, out, err = _run(capsys, ["star", "--mode", "flat", "--dim", "2",
                                   "--order", "1", deep, "p1"])
    assert code == 2 and out == ""
    assert "position %d" % cli.MAX_NESTING in err and "Traceback" not in err
    at_limit = "(" * cli.MAX_NESTING + "q1" + ")" * cli.MAX_NESTING
    assert parse_expression(at_limit, "flat", 2) == FlatPoly.q(1, 2)
    # a run of unary minus signs nests no parser frames
    code, out, _ = _run(capsys, ["star", "--mode", "flat", "--dim", "2",
                                 "--order", "1", "--", "-" * 3001 + "q1", "p1"])
    assert code == 0 and out.startswith("order 0: -q1*p1\n")


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--order", str(cli.MAX_ORDER + 1), "z1", "zb1"], "order"),
    (["star", "--mode", "flat", "--dim", str(cli.MAX_DIM + 1), "q1", "p1"], "dim"),
    (["obstruct", "--dim", str(cli.MAX_DIM + 1), "z1", "zb1"], "dim"),
    (["coeffs", "--kmax", str(cli.MAX_TABLE + 1)], "kmax"),
    (["coeffs", "--lmax", str(cli.MAX_TABLE + 1)], "lmax"),
    (["star", "--mode", "flat", "--dim", "2",
      "(q1 + p2)^%d" % (cli.MAX_EXPONENT + 1), "p1"], "position 10"),
    (["reduce", "--mode", "radial-linear", "--dim", "1",
      "z1*(u - 1)^-%d" % (cli.MAX_EXPONENT + 1), "zb1"], "position 12"),
    # the term budget, checked before the power or product is expanded
    (["star", "--mode", "flat", "--dim", "3",
      "(q1+p1+q2+p2+q3+p3)^16", "p1"], "terms (at position 19)"),
    (["star", "--mode", "flat", "--dim", "3",
      "(q1+p1+q2+p2+q3+p3)^6*(q1+p1+q2+p2+q3+p3)^6", "p1"],
     "terms (at position 21)"),
    (["reduce", "--mode", "radial-linear", "--dim", "1",
      "((u+1)^64)^64", "z1"], "terms (at position 10)"),
    # verify runs no suite unless the example count is in range
    (["verify", "--examples", "-1"], "examples"),
    (["verify", "--examples", "0"], "examples"),
    (["verify", "--examples", str(cli.MAX_EXAMPLES + 1)], "examples"),
    (["verify", "--suite", "tables", "--examples", "100000000"], "examples"),
])
def test_size_caps_exit_2(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


HUGE_LITERAL = "7" * 5000


@pytest.mark.parametrize("argv, message", [
    # --mu is measured on its text, before Fraction() expands it
    (["reduce", "--mode", "radial-linear", "--dim", "2", "--order", "2",
      "--mu=-1e-10000000", "--", "z1*zb2/u", "z2*zb1/u"], "--mu"),
    (["reduce", "--mode", "radial-linear", "--dim", "2", "--order", "2",
      "--mu=-1e-20000", "--", "z1*zb2/u", "z2*zb1/u"], "--mu"),
    (["coeffs", "--mu=-1/" + "3" * cli.MAX_MU_DIGITS], "--mu"),
    # integers in expressions: towers of ^64, estimated before each power
    (["star", "--mode", "flat", "--dim", "1", "--order", "0",
      "((((2^64)^64)^64)^64)^64", "1"], "bits (at position 9)"),
    (["star", "--mode", "flat", "--dim", "1", "--order", "0",
      "(((((2^64)^64)^64)^64)^64)^64", "1"], "bits (at position 10)"),
    # 2^240 has 241 bits, and 17 * 241 = MAX_BITS + 1
    (["star", "--mode", "flat", "--dim", "1", "--order", "0",
      "((2^60)^4)^17", "1"], "bits (at position 10)"),
    (["star", "--mode", "flat", "--dim", "1", "--order", "0",
      "(2^63)^64*(2^63)^64", "1"], "bits (at position 9)"),
    (["star", "--mode", "flat", "--dim", "1", "--order", "0",
      HUGE_LITERAL, "1"], "digits (at position 0)"),
    (["obstruct", "--dim", "2", "z1*zb2/u", "z2*zb1^%s/u" % HUGE_LITERAL],
     "digits (at position 7)"),
    (["star", "--mode", "flat", "--dim", "1", "--order", "0",
      "q1 + " + "1" * (cli.MAX_DIGITS + 1), "1"], "digits (at position 5)"),
])
def test_oversized_scalars_exit_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_size_caps_admit_benchmark_inputs():
    # the benchmark reaches order 8, dim 3 and 8x8 tables
    assert cli.MAX_ORDER >= 8 and cli.MAX_DIM >= 3 and cli.MAX_TABLE >= 8
    assert main(["reduce", "--mode", "flat", "--dim", str(cli.MAX_DIM),
                 "--order", str(cli.MAX_ORDER), "q1", "p1"]) == 0
    top = "u^%d" % cli.MAX_EXPONENT
    assert parse_expression(top, "radial-linear", 1) == \
        RadialFun.from_radial(RadialRational.u_power(cli.MAX_EXPONENT), 1)
    binomial = parse_expression("(q1 + p1)^%d" % cli.MAX_EXPONENT, "flat", 1)
    assert len(binomial.terms) == cli.MAX_EXPONENT + 1
    # values at the scalar caps parse
    digits = cli.MAX_MU_DIGITS
    assert cli._fraction("-" + "9" * digits) == 1 - 10 ** digits
    assert cli._fraction("-1e-%d" % (digits - 1)) == Fraction(-1, 10 ** (digits - 1))
    literal = "9" * cli.MAX_DIGITS
    assert parse_expression(literal, "flat", 1) == FlatPoly.constant(int(literal), 1)
    # 2^63 has 64 bits, so its 64th power is estimated at MAX_BITS = 4096
    assert parse_expression("(2^63)^64*q1", "flat", 1) == \
        FlatPoly.q(1, 1).scale(2 ** 4032)
    # every recorded, benchmark and README argv passes all caps
    golden = [r["argv"] for r in json.loads((ROOT / "tests" / "cli_golden.json")
                                            .read_text())]
    for argv in golden + _benchmark_argvs(seeds=(0, 11, 47)) + _readme_argvs():
        ns = cli.parse_plain(argv)
        assert ns is not None, argv
        if hasattr(ns, "f"):
            mode = getattr(ns, "mode", "radial-linear")
            parse_expression(ns.f, mode, ns.dim)
            parse_expression(ns.g, mode, ns.dim)


def _flat_factor(rng, pairs):
    """A random polynomial in q1..q<pairs>, p1..p<pairs>, as text."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [str(rng.choice((-3, -2, -1, 1, 2, 3)))]
        factors += ["%s%d^%d" % (letter, i, rng.randint(1, 2))
                    for letter in "qp" for i in range(1, pairs + 1)
                    if rng.random() < 0.6]
        terms.append("*".join(factors))
    return " + ".join(terms)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [2, 3])
def test_flat_reduction_prints_the_moyal_product_one_dim_down(capsys, dim, seed):
    # factors of the first n-1 pairs reduce across p_n = 0 to their Moyal
    # product in n-1 pairs, and print the same lines
    rng = Random(seed)
    f, g = _flat_factor(rng, dim - 1), _flat_factor(rng, dim - 1)
    options = ["--mode", "flat", "--order", "4", "--"]
    reduced = _run(capsys, ["reduce", "--dim", str(dim)] + options + [f, g])
    small = _run(capsys, ["star", "--dim", str(dim - 1)] + options + [f, g])
    assert reduced[0] == 0 and reduced[1].count("\n") == 5
    assert reduced == small


def test_engine_import_loads_no_dataclasses_inspect_or_typing():
    # the engine is plain classes over the standard library; these modules
    # would add thousands of objects to every import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, costar.cli; print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["coeffs", "--kind", "linear", "--kmax", "4", "--lmax", "4"],
    ["reduce", "--mode", "radial-quadratic", "--dim", "2", "--order", "3",
     "--json", "z1*zb2/u", "z2*zb1/u"],
])
def test_closed_stdout_ends_quietly_with_141(argv):
    # a reader that goes away before it reads, as `| head -c 0` would: the
    # console entry point exits 141 (128 + SIGPIPE), not 1, which README
    # gives to a failed verification suite, and writes nothing to stderr
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "costar.cli"] + argv, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# ---------------------------------------------------------------------------
# the table parser against argparse

ROOT = Path(__file__).resolve().parent.parent
FACTORS = ["z1*zb2/u", "z2*zb1/u", "q1", "1", "", "u^2"]
GOOD_VALUES = {int: ["0", "2", "3", " 4", "1_0"],
               cli._fraction: ["-1/2", "-3/2", "2", " -2 "]}
BAD_VALUES = {int: ["x", "", "1.5"], cli._fraction: ["1/0", "half", ""]}
ALL_OPTIONS = [o for spec in cli.COMMANDS.values() for o in spec.options]


def _option(draw, option, values=None):
    # a long option of the plain shape: its value after "=" or, if the
    # value does not start with "-", in the next token
    name, kind, _, _ = option
    if kind is bool:
        return ["--" + name]
    if values is None:
        values = list(kind) if isinstance(kind, tuple) else GOOD_VALUES[kind]
    value = draw(st.sampled_from(values))
    if value.startswith("-") or draw(st.booleans()):
        return ["--%s=%s" % (name, value)]
    return ["--" + name, value]


def _valued(spec):
    return [o for o in spec.options if o[1] is not bool]


def _prefixed(draw, spec):
    # an option spelled by a prefix
    tokens = _option(draw, draw(st.sampled_from(spec.options)))
    option, eq, value = tokens[0].partition("=")
    tokens[0] = option[:draw(st.integers(3, len(option) - 1))] + eq + value
    return tokens


def _bad_value(draw, spec):
    # a value that is not allowed, or that does not convert
    choices = [o for o in _valued(spec) if isinstance(o[1], tuple)]
    if choices and draw(st.booleans()):
        return _option(draw, draw(st.sampled_from(choices)), values=["bogus", ""])
    option = draw(st.sampled_from(_valued(spec)))
    values = ["x"] if isinstance(option[1], tuple) else BAD_VALUES[option[1]]
    return _option(draw, option, values=values)


def _dash_value(draw, spec):
    # a separate value that starts with "-": argparse reads -1/2 as an
    # option and fails, and reads -1 as a number
    names = [o[0] for o in _valued(spec)]
    name = "mu" if "mu" in names else draw(st.sampled_from(names))
    return ["--" + name, draw(st.sampled_from(["-1/2", "-3/2", "-2/3", "-1", "-h"]))]


def _twice(draw, spec):
    tokens = _option(draw, draw(st.sampled_from(spec.options)))
    return tokens + tokens


# Each fault gives tokens that make an argv of the plain shape one that
# the table parser must decline (or still agree with argparse on)
FAULTS = [
    _prefixed,
    _bad_value,
    _dash_value,
    _twice,
    lambda draw, spec: [draw(st.sampled_from(
        ["-h", "--help", "--he", "--json=1", "--tsv=", "-z1", "-1", "-"]))],
    lambda draw, spec: _option(draw, draw(st.sampled_from(ALL_OPTIONS))),
    lambda draw, spec: [draw(st.sampled_from(FACTORS))],
    lambda draw, spec: ["--json", "--tsv"],
    lambda draw, spec: ["--"],
]
BAD_COMMANDS = ["redu", "-h", "--help", "bogus", ""]
# how an argv is drawn: well formed, with one fault, with a second "--"
# after the first, with a "--" at the end, or with a bad command name
SHAPES = ["plain"] * 4 + ["fault"] * 6 + ["second --"] * 2 + ["final --", "command"]


@st.composite
def argvs(draw):
    # the options and factors of one command in any order, now and then
    # with a "--" after the options, and then changed as the shape says; a
    # fault goes in before any "--", and the options it names are left out
    # of the rest
    shape = draw(st.sampled_from(SHAPES))
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    spec = cli.COMMANDS[command]
    stray = draw(st.sampled_from(FAULTS))(draw, spec) if shape == "fault" else []
    named = {tok.partition("=")[0] for tok in stray}
    pieces = [_option(draw, o) for o in spec.options
              if "--" + o[0] not in named and draw(st.booleans())]
    n = len(spec.positionals)
    pieces += [[f] for f in draw(st.lists(st.sampled_from(FACTORS),
                                          min_size=n, max_size=n))]
    argv, after_options = [], 0
    for piece in draw(st.permutations(pieces)):
        argv += piece
        if piece[0].startswith("-"):
            after_options = len(argv)
    end = len(argv)
    if after_options < end and (shape == "second --" or draw(st.booleans())):
        # a factor after the "--" may start with "-"
        end = draw(st.integers(after_options, len(argv) - 1))
        argv[end:] = ["--"] + [draw(st.sampled_from([t, "-" + t])) for t in argv[end:]]
        if shape == "second --":
            argv.insert(draw(st.integers(end + 1, len(argv) - 1)), "--")
    at = draw(st.integers(0, end))
    argv[at:at] = stray
    if shape == "final --":
        argv.append("--")
    elif shape == "command":
        command = draw(st.sampled_from(BAD_COMMANDS))
    return [command] + argv


@settings(max_examples=1000)
@given(argvs())
# one argv for each way of leaving the plain shape that argparse rejects
@example(["reduce", "--mu", "-1/2", "z1", "zb1"])
@example(["star", "--mode", "bogus", "q1", "p1"])
@example(["star", "--", "q1", "--", "p1"])
@example(["reduce", "z1", "zb1", "--json", "--"])
@example(["coeffs", "--json", "--tsv"])
@example(["obstruct", "z1"])
def test_table_parser_agrees_with_argparse(argv):
    ns = cli.parse_plain(argv)
    if ns is not None:
        assert vars(ns) == vars(cli.build_parser().parse_args(argv))


def _readme_argvs():
    import shlex

    text = (ROOT / "README.md").read_text()
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("costar ")]


def _benchmark_argvs(seeds=(11, 47)):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [op["argv"] for seed in seeds
            for ops in (workloads.sphere_reduce_ops(seed),
                        workloads.coeff_tables_ops(seed))
            for op in ops]


def test_benchmark_and_readme_argvs_take_the_table_path():
    readme = _readme_argvs()
    assert len(readme) == 14
    for argv in _benchmark_argvs() + readme:
        ns = cli.parse_plain(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(cli.build_parser().parse_args(argv))


def test_cli_import_and_plain_command_load_no_argparse():
    # argparse, and the gettext and locale it loads on its first message,
    # cost more than a small command; only help and errors build it
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, costar.cli\n"
            "loaded = lambda: sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
            "print(loaded())\n"
            "costar.cli.main(['coeffs', '--kmax', '1', '--lmax', '2', '--tsv'])\n"
            "print(loaded())\n"
            "costar.cli.main(['coeffs', '--kmax', '1', '--lmax=x'])\n"
            "print(loaded())\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n1\t-2\n[]\n['argparse', 'gettext', 'locale']\n"
    assert "invalid int value: 'x'" in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["star", "--mode", "flat", "--dim", "1", "--order", "1", "(q1", "q1"],
     "parse error: expected ')' (at position 3)"),
    (["star", "--mode", "flat", "--dim", "0", "q1", "q1"], "error: dim must be at least 1"),
    (["star", "--mode", "flat", "--dim", "1", "--order=-1", "q1", "q1"],
     "error: order must be nonnegative"),
], ids=["unclosed parenthesis", "dim 0", "negative order"])
def test_reachable_input_checks_exit_2(capsys, argv, message):
    assert _run(capsys, argv) == (2, "", "costar: %s\n" % message)
