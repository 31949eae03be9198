"""Command line front end.

Subcommands:
  star      ambient star product of two expressions, printed order by order
  reduce    reduced star product on the constraint surface
  coeffs    closed-form coefficient tables for the reduced product
  obstruct  order-2 comparison of the two reduced products on the sphere
  verify    randomized self-checks of the core identities

Expressions use the coordinate names VOCABULARY gives each algebra, and u
in the radial modes, plus integers, I, + - * / ^ and parentheses.  The
printer and the JSON encoder read the same table.  Division and negative
exponents are restricted to scalar or purely radial quantities, which keeps
every expression inside the implemented algebras.  All output is
deterministic: terms are sorted, scalars print exactly, and JSON payloads
are emitted with sorted keys.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from math import comb
from random import Random
from types import SimpleNamespace

from .cpn import (
    a_coeff_engine,
    a_coeff_operator,
    a_coeff_closed,
    a_coeff_sum,
    b_coeff_engine,
    coefficient_table,
    obstruction_order2,
    pr_word_sum,
    table_reduced_product,
)
from .flatphase import FlatPoly, moyal_product
from .radialphase import (
    ParityError,
    RadialConstraint,
    RadialFun,
    poisson,
    scalar_ratio,
    wick_product,
)
from .reduction import (
    MembershipError,
    flat_setup,
    in_bstar,
    in_istar,
    is_in_b_cap_f,
    radial_setup,
    reduce_star,
    star_elements,
    transfer_ops,
    transfer_series,
)
from .scalar import (
    GaussianRational,
    I,
    LambdaSeries,
    RadialRational,
    UPoly,
    scalar_text,
)

ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
MODES = ("flat", "radial-linear", "radial-quadratic")
# For each algebra, the coordinate letter and constructor of the two halves
# (alpha, beta) of a term key; the parser, printer and JSON encoder all
# take their vocabulary from here
VOCABULARY = {
    FlatPoly: (("q", FlatPoly.q), ("p", FlatPoly.p)),
    RadialFun: (("z", RadialFun.z), ("zb", RadialFun.zbar)),
}
# deepest parenthesis nesting an expression may use; each level costs the
# parser a handful of stack frames, so this keeps it far from the
# interpreter's recursion limit
MAX_NESTING = 100
# Caps on the size of a request, so that an oversized one fails at once
# with exit 2.  Each is far above every input of the tests and of the
# benchmark (order 8, dim 3, 8x8 tables); printed results carry powers far
# below MAX_EXPONENT, so they still parse back.
MAX_ORDER = 16      # --order: truncation order of the deformation series
MAX_DIM = 8         # --dim: coordinate pairs or complex coordinates
MAX_TABLE = 16      # coeffs --kmax and --lmax
MAX_EXPONENT = 64   # the integer after ^ in an expression
# verify --examples; each example costs about 0.6 s over the six suites,
# and --examples 50 takes 28-30 s on a 2-core VM
MAX_EXAMPLES = 50
# Most monomials a product or power in an expression may expand to, bounded
# before it is computed; in radial mode each coefficient counts the
# coefficients of its numerator and denominator in u.  (q1+p1+q2+p2+q3+p3)^12
# (6188 terms) parses in about 0.7 s on a 2-core VM; ^16 (20349) is refused.
MAX_TERMS = 10000
# An integer literal has at most MAX_DIGITS digits, below the interpreter's
# 4300-digit limit on converting a string to an int.  Before each product or
# power the parser also bounds the bit length of the largest integer of the
# result, estimated as the sum of the operands' (n times the base's for a
# power): ((2^64)^64)^64 would hold a 262145-bit integer and is refused
# before it is computed.  A coefficient at the cap has about 1233 digits, so
# a product of two of them still prints.
MAX_DIGITS = 1000
MAX_BITS = 4096
# --mu: at most this many digits in its numerator and denominator together,
# read from its text (an exponent e counts as |e| digits) before Fraction()
# expands it.  A reduced product to order 16 prints integers of about 16
# times the digits of mu (1614 digits at 100, and 3928 with factors at
# MAX_BITS), below the 4300-digit limit on printing an int; such a reduce
# takes 4-28 s in dim 2 on a 2-core VM.
MAX_MU_DIGITS = 100


class ParseError(ValueError):
    """Expression syntax or vocabulary error, with a character offset."""

    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.msg = msg
        self.pos = pos


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[+\-*/^()])"
)
# a coordinate name: its letters and its 1-based index
_NAME = re.compile(r"([A-Za-z]+)(\d+)")


def tokenize(text):
    """Split an expression into (kind, text, position) triples."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    """Recursive descent over + - * / ^ with ^ binding tightest."""

    def __init__(self, text, mode, dim):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0
        self.dim = dim
        self.radial = mode != "flat"
        self.algebra = RadialFun if self.radial else FlatPoly
        self.makers = dict(VOCABULARY[self.algebra])
        # the key under which the algebra stores a constant
        (self.unit_key,) = self.constant(1).terms

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        value = self.parse_sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % text, pos)
        return value

    def parse_sum(self):
        value = self.parse_product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_product()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def parse_product(self):
        value = self.parse_unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_unary()
                if text == "/":
                    rhs = self.inverse(rhs, pos)
                (s, b), (t, c) = self.measure(value), self.measure(rhs)
                self.check_size(s * t, b + c, pos)
                value = value * rhs
            else:
                return value

    def parse_unary(self):
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        value = self.parse_power()
        return -value if negate else value

    def parse_power(self):
        base = self.parse_atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, _ = self.peek()
            negative = kind == "op" and text == "-"
            if negative:
                self.advance()
            kind, text, epos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be an integer", epos)
            n = self.integer(text, epos)
            if n > MAX_EXPONENT:
                raise ParseError("exponent %d is larger than %d" % (n, MAX_EXPONENT),
                                 epos)
            if negative:
                base = self.inverse(base, pos)
            # a power of s monomials has at most as many as n-multisets of them
            s, b = self.measure(base)
            self.check_size(comb(s + n - 1, n) if s else 0, n * b, pos)
            return base ** n
        return base

    def measure(self, value):
        """The monomials value counts for against MAX_TERMS, and the bit
        length of the largest integer that stores its coefficients."""
        terms = bits = 0
        for _, _, r in term_view(value):
            terms += r.num.degree() + r.den.degree() + 1
            for poly in (r.num, r.den):
                re, im, den = poly.integers()
                for x in (den, *re, *(im or ())):
                    if x.bit_length() > bits:
                        bits = x.bit_length()
        return terms, bits

    def check_size(self, terms, bits, pos):
        if terms > MAX_TERMS:
            raise ParseError("expression expands to more than %d terms" % MAX_TERMS,
                             pos)
        if bits > MAX_BITS:
            raise ParseError("expression holds integers of more than %d bits"
                             % MAX_BITS, pos)

    def integer(self, text, pos):
        if len(text) > MAX_DIGITS:
            raise ParseError("integer longer than %d digits" % MAX_DIGITS, pos)
        return int(text)

    def parse_atom(self):
        kind, text, pos = self.advance()
        if kind == "int":
            return self.constant(self.integer(text, pos))
        if kind == "op" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING,
                                 pos)
            self.depth += 1
            value = self.parse_sum()
            self.depth -= 1
            kind, text, pos = self.advance()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            return value
        if kind == "name":
            return self.name(text, pos)
        raise ParseError("expected a value, found %r" % (text or "end of input"), pos)

    def constant(self, c):
        return self.algebra.constant(c, self.dim)

    def name(self, text, pos):
        if text == "I":
            return self.constant(I)
        if text == "u" and self.radial:
            return RadialFun.u(self.dim)
        m = _NAME.fullmatch(text)
        make = m and self.makers.get(m.group(1))
        if not make:
            names = ["%s<i>" % letter for letter in self.makers]
            names += ["u", "I"] if self.radial else ["I"]
            raise ParseError("unknown name %r in %s mode (expected %s)" % (
                text, "radial" if self.radial else "flat", ", ".join(names)), pos)
        i = int(m.group(2))
        if not 1 <= i <= self.dim:
            raise ParseError(
                "coordinate index %d out of range 1..%d" % (i, self.dim), pos
            )
        return make(i, self.dim)

    def inverse(self, value, pos):
        if value.is_zero():
            raise ParseError("division by zero", pos)
        if set(value.terms) != {self.unit_key}:
            raise ParseError("division needs a scalar or purely radial divisor"
                             if self.radial else
                             "flat division needs a scalar divisor", pos)
        return self.algebra(self.dim, {self.unit_key: 1 / value.terms[self.unit_key]})


def parse_expression(text, mode, dim):
    return _Parser(text, mode, dim).parse()


# ---------------------------------------------------------------------------
# deterministic, re-parseable printing


def term_view(f):
    """Yield the terms of a FlatPoly or RadialFun in sorted order, each as
    (alpha, beta, RadialRational part).

    A flat key holds its alpha half and then its beta half, and a flat
    coefficient is read as the constant function of u it equals.
    """
    if isinstance(f, FlatPoly):
        n = f.dim
        for key, c in f.sorted_terms():
            yield key[:n], key[n:], RadialRational.of(c)
    else:
        for (alpha, beta), r in f.sorted_terms():
            yield alpha, beta, r


def _join_sum(parts):
    out = parts[0]
    for text in parts[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def _u_power(k):
    return "u" if k == 1 else "u^%d" % k


def _scaled(c, body):
    if c == ONE:
        return body
    if c == MINUS_ONE:
        return "-" + body
    return "%s*%s" % (scalar_text(c), body)


def upoly_text(poly):
    if poly.is_zero():
        return "0"
    parts = []
    for k in range(poly.degree(), -1, -1):
        c = poly.coeffs[k]
        if not c.is_zero():
            parts.append(_scaled(c, _u_power(k)) if k else scalar_text(c))
    return _join_sum(parts)


def _monomial_entries(poly):
    return [(k, c) for k, c in enumerate(poly.coeffs) if not c.is_zero()]


def _term_text(factors, r):
    """One term: the coordinate factors times the radial part r."""
    coeff = ONE
    entries = _monomial_entries(r.num)
    if len(entries) == 1:
        k, coeff = entries[0]
        if k:
            factors.append(_u_power(k))
    else:
        factors.append("(%s)" % upoly_text(r.num))
    text = _scaled(coeff, "*".join(factors)) if factors else scalar_text(coeff)
    if r.den.degree() > 0:
        entries = _monomial_entries(r.den)
        if len(entries) == 1 and entries[0][1] == ONE:
            text += "/" + _u_power(entries[0][0])
        else:
            text += "/(%s)" % upoly_text(r.den)
    return text


def _coordinate_factors(exps, letter):
    out = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            out.append("%s%d" % (letter, i))
        elif e:
            out.append("%s%d^%d" % (letter, i, e))
    return out


def fun_text(f):
    """Re-parseable text of a FlatPoly or RadialFun."""
    # a RadialFun's stored terms can sum to zero (z1*zb1 + z2*zb2 - u)
    if f.is_zero():
        return "0"
    (a, _), (b, _) = VOCABULARY[type(f)]
    return _join_sum([
        _term_text(_coordinate_factors(alpha, a) + _coordinate_factors(beta, b), r)
        for alpha, beta, r in term_view(f)
    ])


radial_text = fun_text


def series_lines(series):
    return ["order %d: %s" % (k, fun_text(series[k])) for k in range(series.order + 1)]


# ---------------------------------------------------------------------------
# JSON payloads


def scalar_json(c):
    c = GaussianRational.of(c)
    return {"re": str(c.re), "im": str(c.im)}


def upoly_json(poly):
    # little-endian coefficient list
    return [scalar_json(c) for c in poly.coeffs]


def coeff_json(f):
    if f.is_zero():  # as in fun_text: stored terms can sum to zero
        return {"terms": []}
    return {"terms": [
        {"alpha": list(alpha), "beta": list(beta),
         "num": upoly_json(r.num), "den": upoly_json(r.den)}
        for alpha, beta, r in term_view(f)
    ]}


def series_json(series):
    return {
        "order": series.order,
        "coeffs": [coeff_json(series[k]) for k in range(series.order + 1)],
    }


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# commands


def _check_dim(dim):
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if dim > MAX_DIM:
        raise ValueError("dim must be at most %d" % MAX_DIM)


def _product_inputs(ns, reduced):
    """Validate the product options (the parser has checked --mode), then
    build the setup (for a reduced product; None otherwise) and parse both
    factors, in that order."""
    _check_dim(ns.dim)
    if ns.order < 0:
        raise ValueError("order must be nonnegative")
    if ns.order > MAX_ORDER:
        raise ValueError("order must be at most %d" % MAX_ORDER)
    if not reduced:
        setup = None
    elif ns.mode == "flat":
        setup = flat_setup(ns.dim)
    elif ns.mode == "radial-linear":
        setup = radial_setup(RadialConstraint.linear(ns.mu), ns.dim)
    else:
        setup = radial_setup(RadialConstraint.quadratic(ns.mu), ns.dim)
    return (setup, parse_expression(ns.f, ns.mode, ns.dim),
            parse_expression(ns.g, ns.mode, ns.dim))


def _emit_series(ns, series):
    if ns.json:
        _emit_json(series_json(series))
    else:
        for line in series_lines(series):
            print(line)
    return 0


def cmd_star(ns):
    _, f, g = _product_inputs(ns, reduced=False)
    product = moyal_product if ns.mode == "flat" else wick_product
    return _emit_series(ns, product(f, g, ns.order))


def cmd_reduce(ns):
    setup, f, g = _product_inputs(ns, reduced=True)
    return _emit_series(ns, reduce_star(setup, f, g, ns.order))


def cmd_coeffs(ns):
    if ns.kmax < 1 or ns.lmax < 1:
        raise ValueError("kmax and lmax must be at least 1")
    if ns.kmax > MAX_TABLE or ns.lmax > MAX_TABLE:
        raise ValueError("kmax and lmax must be at most %d" % MAX_TABLE)
    RadialConstraint(ns.kind, ns.mu)  # the tables do not read mu: check it here
    rows = coefficient_table(ns.kind, ns.kmax, ns.lmax)
    cells = [[str(v) for v in row] for row in rows]
    if ns.json:
        _emit_json({
            "kind": ns.kind,
            "kmax": ns.kmax,
            "lmax": ns.lmax,
            "rows": cells,
        })
    elif ns.tsv:
        for row in cells:
            print("\t".join(row))
    else:
        width = max(max(len(v) for v in row) for row in cells)
        width = max(width, len("l=%d" % (ns.lmax - 1)))
        header = ["%*s" % (width, "l=%d" % l) for l in range(ns.lmax)]
        print("%-6s%s" % ("", "  ".join(header)))
        for k, row in enumerate(cells, start=1):
            body = "  ".join("%*s" % (width, v) for v in row)
            print("%-6s%s" % ("k=%d" % k, body))
    return 0


def cmd_obstruct(ns):
    _check_dim(ns.dim)
    f = parse_expression(ns.f, "radial-linear", ns.dim)
    g = parse_expression(ns.g, "radial-linear", ns.dim)
    lhs, rhs, ratio = obstruction_order2(f, g, ns.mu)
    if ns.json:
        _emit_json({
            "lhs": coeff_json(lhs),
            "rhs": coeff_json(rhs),
            "ratio": None if ratio is None else scalar_json(ratio),
        })
    else:
        print("lhs:   %s" % radial_text(lhs))
        print("rhs:   %s" % radial_text(rhs))
        print("ratio: %s" % ("none" if ratio is None else scalar_text(ratio)))
    return 0


# ---------------------------------------------------------------------------
# randomized verification suites


def _rand_fraction(rng):
    return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))


def _rand_gauss(rng):
    return GaussianRational(_rand_fraction(rng), _rand_fraction(rng))


def _rand_flat(rng, dim=2):
    terms = {}
    for _ in range(3):
        key = tuple(rng.randint(0, 2) for _ in range(2 * dim))
        terms[key] = _rand_gauss(rng)
    return FlatPoly(dim, terms)


_EVEN_KEYS = (
    ((0, 0), (0, 0)),
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((2, 0), (0, 2)),
)


def _rand_even(rng):
    terms = []
    for _ in range(2):
        key = rng.choice(_EVEN_KEYS)
        radial = RadialRational(UPoly(tuple(rng.randint(-2, 2) for _ in range(3))))
        terms.append((key, radial))
    return RadialFun(2, terms)


def _pool():
    inv_u = RadialRational.u_power(-1)
    inv_u2 = RadialRational.u_power(-2)
    return (
        RadialFun.one(2),
        RadialFun.monomial((1, 0), (1, 0), radial=inv_u),
        RadialFun.monomial((1, 0), (0, 1), radial=inv_u),
        RadialFun.monomial((0, 1), (1, 0), radial=inv_u),
        RadialFun.monomial((1, 1), (1, 1), radial=inv_u2),
    )


def _rand_homog(rng, pool):
    out = RadialFun.zero(2)
    for f in pool:
        c = rng.randint(-2, 2)
        if c:
            out = out + f.scale(Fraction(c))
    return out if not out.is_zero() else pool[1]


def _all_setups():
    return (
        flat_setup(2),
        radial_setup(RadialConstraint.linear(Fraction(-1, 2)), 2),
        radial_setup(RadialConstraint.quadratic(Fraction(-3, 2)), 2),
    )


def _suite_lemma1(rng, examples):
    ok = True
    for setup in _all_setups():
        gen = _rand_flat if setup.label.startswith("flat") else _rand_even
        for _ in range(examples):
            f = gen(rng)
            got = transfer_series(setup, star_elements(setup, f, setup.j, 3))
            want = LambdaSeries((f * setup.j,) + (setup.zero,) * 3)
            ok = ok and got == want
    return ok


def _suite_axioms(rng, examples):
    ok = True
    pool = _pool()
    for kind, mu in (("linear", Fraction(-1, 2)), ("quadratic", Fraction(-3, 2))):
        setup = radial_setup(RadialConstraint(kind, mu), 2)
        for _ in range(examples):
            f, g = _rand_homog(rng, pool), _rand_homog(rng, pool)
            fg = reduce_star(setup, f, g, 2)
            gf = reduce_star(setup, g, f, 2)
            ok = ok and reduce_star(setup, setup.one, f, 2) == setup.as_series(f, 2)
            ok = ok and fg[0] == f * g
            ok = ok and fg[1] - gf[1] == setup.prol(poisson(f, g).scale(I))
            ok = ok and all(is_in_b_cap_f(setup, fg[k]) for k in range(3))
    return ok


def _suite_membership(rng, examples):
    ok = True
    for setup in _all_setups():
        gen = _rand_flat if setup.label.startswith("flat") else _rand_even
        for _ in range(examples):
            f = gen(rng)
            ok = ok and in_istar(setup, star_elements(setup, f, setup.j, 2))
        ok = ok and not in_istar(setup, setup.as_series(setup.one, 2))
    pool = _pool()
    for kind in ("linear", "quadratic"):
        setup = radial_setup(RadialConstraint(kind, Fraction(-1, 2)), 2)
        for _ in range(examples):
            series = setup.as_series(_rand_homog(rng, pool), 2)
            ok = ok and in_bstar(setup, series)
    flat = flat_setup(2)
    q1p1 = FlatPoly(2, {(1, 0, 1, 0): ONE})
    q2 = FlatPoly.q(2, 2)
    ok = ok and in_bstar(flat, flat.as_series(q1p1, 2))
    ok = ok and not in_bstar(flat, flat.as_series(q2, 2))
    return ok


def _suite_prwords(rng, examples):
    ok = True
    for kind in ("linear", "quadratic"):
        setup = radial_setup(RadialConstraint(kind, Fraction(-1, 2)), 2)
        t = transfer_ops(setup, 3)
        for _ in range(examples):
            f = _rand_even(rng)
            for w in range(1, 4):
                ok = ok and pr_word_sum(setup, w)(f) == t.ops[w](f)
    return ok


def _suite_tables(rng, examples):
    ok = all(
        a_coeff_closed(k, l) == a_coeff_sum(k, l)
        for k in range(1, 7) for l in range(7)
    )
    for k in range(3):
        for l in range(3):
            ok = ok and a_coeff_operator(k, l) == a_coeff_engine(k, l)
    ok = ok and b_coeff_engine(1, 1) == -3
    ok = ok and b_coeff_engine(2, 1) == -8
    ok = ok and b_coeff_engine(1, 2) == Fraction(17, 2)
    # quadratic row cells against the word sums T_l(u^{-k}) they stand for
    c = RadialConstraint.quadratic(Fraction(-3, 2))
    setup = radial_setup(c, 1)
    rows = coefficient_table("quadratic", 3, 5)
    for k in range(1, 4):
        for l in range(5):
            h = pr_word_sum(setup, l)(RadialFun.u(1, -k))
            res = scalar_ratio(setup.prol(h), RadialFun.one(1))
            ok = ok and res is not None
            ok = ok and c.sphere_u ** (k + l) * res == rows[k - 1][l]
    pool = _pool()
    for kind, mu in (("linear", Fraction(-1, 2)), ("quadratic", Fraction(-3, 2))):
        c = RadialConstraint(kind, mu)
        setup = radial_setup(c, 2)
        for _ in range(examples):
            f, g = _rand_homog(rng, pool), _rand_homog(rng, pool)
            ok = ok and table_reduced_product(c, f, g, 3) == reduce_star(setup, f, g, 3)
    return ok


def _suite_obstruction(rng, examples):
    ok = True
    pool = _pool()
    done = 0
    while done < examples:
        f, g = _rand_homog(rng, pool), _rand_homog(rng, pool)
        if poisson(f, g).is_zero():
            continue
        _, rhs, ratio = obstruction_order2(f, g, Fraction(-1, 2))
        ok = ok and not rhs.is_zero() and ratio == GaussianRational(-2)
        done += 1
    return ok


SUITES = (
    ("lemma1", _suite_lemma1),
    ("axioms", _suite_axioms),
    ("membership", _suite_membership),
    ("prwords", _suite_prwords),
    ("tables", _suite_tables),
    ("obstruction", _suite_obstruction),
)


def cmd_verify(ns):
    if not 1 <= ns.examples <= MAX_EXAMPLES:
        raise ValueError("examples must be between 1 and %d" % MAX_EXAMPLES)
    failed = False
    for name, suite in SUITES:
        if ns.suite != "all" and ns.suite != name:
            continue
        ok = suite(Random(ns.seed), ns.examples)
        print("VERIFY %s: %s" % (name, "PASS" if ok else "FAIL"))
        failed = failed or not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _fraction(text):
    if _mu_digits(text) <= MAX_MU_DIGITS:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            message = "invalid fraction %r" % text
    else:
        message = "more than %d digits in numerator and denominator" % MAX_MU_DIGITS
    from argparse import ArgumentTypeError
    raise ArgumentTypeError(message)


def _mu_digits(text):
    """An upper bound, read from the text, on the digits of the numerator
    and the denominator that Fraction(text) builds."""
    mantissa, _, exponent = text.lower().partition("e")
    # nine digits already exceed any cap, and convert at once
    exponent = "".join(filter(str.isdecimal, exponent)).lstrip("0")[:9]
    return sum(map(str.isdecimal, mantissa)) + int(exponent or 0)


class Command:
    """One subcommand: its handler, its help line, its long options, its
    positionals, and the options of which at most one may be given.

    An option is (name, kind, default, help), where kind is the converter
    of its value, a tuple of the values it allows, or bool for a flag that
    takes no value (default False).  A positional is (name, help).
    """

    __slots__ = ("func", "help", "options", "positionals", "exclusive")

    def __init__(self, func, help, options, positionals=(), exclusive=()):
        self.func = func
        self.help = help
        self.options = options
        self.positionals = positionals
        self.exclusive = exclusive


_PRODUCT_OPTIONS = (
    ("mode", MODES, "radial-quadratic", None),
    ("dim", int, 2, "coordinate pairs (flat) or complex coordinates (radial)"),
    ("order", int, 3, "truncation order of the deformation series"),
    ("mu", _fraction, Fraction(-1, 2),
     "constraint level, a negative fraction (radial modes)"),
    ("json", bool, False, "emit a JSON payload"),
)
_FACTORS = (("f", "left factor expression"), ("g", "right factor expression"))

# the one description of the command line: build_parser and parse_plain
# both read it
COMMANDS = {
    "star": Command(cmd_star, "ambient star product", _PRODUCT_OPTIONS, _FACTORS),
    "reduce": Command(cmd_reduce, "reduced star product", _PRODUCT_OPTIONS,
                      _FACTORS),
    "coeffs": Command(cmd_coeffs, "reduced-product coefficient tables", (
        ("kind", ("linear", "quadratic"), "linear", None),
        ("kmax", int, 4, None),
        ("lmax", int, 4, None),
        ("mu", _fraction, Fraction(-1, 2), None),
        ("json", bool, False, None),
        ("tsv", bool, False, None),
    ), exclusive=("json", "tsv")),
    "obstruct": Command(cmd_obstruct,
                        "order-2 difference of the two reduced products", (
        ("dim", int, 2, None),
        ("mu", _fraction, Fraction(-1, 2), None),
        ("json", bool, False, None),
    ), (("f", None), ("g", None))),
    "verify": Command(cmd_verify, "randomized self-checks", (
        ("suite", ("all",) + tuple(name for name, _ in SUITES), "all", None),
        ("seed", int, 0, None),
        ("examples", int, 3, None),
    )),
}


def build_parser():
    """The argparse parser for COMMANDS.  main builds it only for the argv
    that parse_plain declines, so it renders every help text and error."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="costar",
        description="Star products and coisotropic reduction, exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        parser = sub.add_parser(command, help=spec.help)
        group = parser.add_mutually_exclusive_group() if spec.exclusive else None
        for name, kind, default, help_ in spec.options:
            to = group if name in spec.exclusive else parser
            if kind is bool:
                to.add_argument("--" + name, action="store_true", help=help_)
            elif isinstance(kind, tuple):
                to.add_argument("--" + name, choices=kind, default=default, help=help_)
            else:
                to.add_argument("--" + name, type=kind, default=default, help=help_)
        for name, help_ in spec.positionals:
            parser.add_argument(name, help=help_)
        parser.set_defaults(func=spec.func)
    return ap


def parse_plain(argv):
    """The namespace build_parser().parse_args(argv) returns, read straight
    from COMMANDS, or None when argv is not of the plain shape.

    The plain shape is a command name and then, in any order, the long
    options of that command spelled in full, each at most once, with a
    value after "=" or in the next token, which must not start with "-";
    its positionals, which may start with "-" only after a "--"; at most
    one "--", and not as the last token; and at most one option of an
    exclusive set.  Every value must convert, or be one of those allowed.
    argparse parses anything else: abbreviations, -h, every error, and the
    corners of "--" that differ between Python versions.
    """
    spec = COMMANDS.get(argv[0]) if argv else None
    # argparse keeps a final "--" that follows an option, and fails on it
    if spec is None or argv[-1] == "--":
        return None
    kinds = {"--" + name: (name, kind) for name, kind, _, _ in spec.options}
    given = {}
    positionals = []
    ended = False
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok == "--":
            if ended:
                return None
            ended = True
        elif ended or not tok.startswith("-"):
            positionals.append(tok)
        else:
            option, eq, value = tok.partition("=")
            if option not in kinds:
                return None
            name, kind = kinds[option]
            if name in given:
                return None
            if kind is bool:
                if eq:
                    return None
                given[name] = True
                continue
            if not eq:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            if isinstance(kind, tuple):
                if value not in kind:
                    return None
            else:
                try:
                    value = kind(value)
                except Exception:
                    # int raises ValueError and _fraction argparse's
                    # ArgumentTypeError; argparse parses the argv again and
                    # reports it
                    return None
            given[name] = value
    if len(positionals) != len(spec.positionals):
        return None
    if sum(name in given for name in spec.exclusive) > 1:
        return None
    values = {name: given.get(name, default) for name, _, default, _ in spec.options}
    values.update(zip((name for name, _ in spec.positionals), positionals))
    return SimpleNamespace(command=argv[0], func=spec.func, **values)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    ns = parse_plain(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code is None else int(exc.code)
    try:
        return ns.func(ns)
    except ParseError as exc:
        print("costar: parse error: %s" % exc, file=sys.stderr)
        return 2
    except (MembershipError, ParityError, ValueError, ZeroDivisionError) as exc:
        print("costar: error: %s" % exc, file=sys.stderr)
        return 2


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away: exit 141 (128 + SIGPIPE, as a
        # shell reports it) with no traceback, and send stdout to devnull
        # so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    run()
