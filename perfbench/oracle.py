"""Independent oracle for the sphere products, coefficient tables and the
order-2 obstruction, written with sympy and sharing no code with costar.

Tables.  In one complex dimension a purely radial f(u) stays radial, and
the Wick kernel against the constraint is M_k(g, J) = 2^k/k! u^k g^(k)
J^(k) (derivatives in u).  The oracle evaluates the transfer recursion

    T_0 f = f,   T_n f = -sum_{k=1..n} T_{n-k}( M_k(pi_J f, J) ),
    pi_J f = (f - f(a)) / J,   a = -2*mu,

in the rational function field QQ(u), and reads the tables off as
table(k, l) = a^(k+l) T_l(u^-k) at u = a.

Reduced products.  For degree-0 (homogeneous) factors the reduced product
at order m is sum_{k<=m} a^-m table(k, m-k) u^k M_k(f, g), with M_k the
Wick kernel 2^k sum_{|s|=k} d_z^s f d_zb^s g / s!, z_i and zb_i treated as
independent variables.  Every value is kept as P / u^e with P a polynomial
in QQ[z, zb], so comparisons are exact polynomial identities and no gcd
is ever taken.  Printed output is parsed by sympy, not by costar.

Run as a program it reads {"ops": [...], "results": [...]} as JSON on
stdin and prints {"selftest": bool, "verdicts": [...]}, one verdict per
operation (null where the oracle has nothing to say).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import factorial

import sympy as sp
from sympy import QQ

FROZEN = {
    "linear": [[1, -2, 4, -8], [1, -6, 28, -120]],
    "quadratic": [[1, -3, Fraction(17, 2)], [1, -8, 48]],
}

_UFIELD, _U = sp.field("u", QQ)


def _qq(x):
    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def _constant(c):
    # value of a constant element of QQ(u), as a Fraction
    num, den = c.numer.LC, c.denom.LC
    return Fraction(int(num.numerator), int(num.denominator)) / \
        Fraction(int(den.numerator), int(den.denominator))


def _transfer(f, n, j, dj, a):
    if n == 0:
        return f
    p = (f - _UFIELD(f.subs(_U, a))) / j
    acc = _UFIELD(0)
    for k in range(1, n + 1):
        if not dj[k]:
            continue
        d = p
        for _ in range(k):
            d = d.diff(_U)
        mk = QQ(2 ** k, factorial(k)) * _U ** k * d * dj[k]
        if mk:
            acc += _transfer(mk, n - k, j, dj, a)
    return -acc


_TABLES = {}


def table(kind, mu, kmax, lmax):
    """Rows k = 0..kmax, columns l = 0..lmax-1, as Fractions."""
    key = (kind, Fraction(mu), kmax, lmax)
    if key not in _TABLES:
        m = _qq(mu)
        a = -2 * m
        j = -_U / 2 - m if kind == "linear" else _U ** 2 / 4 - m ** 2
        dj = [j]
        for _ in range(lmax + 1):
            dj.append(dj[-1].diff(_U))
        _TABLES[key] = [
            [_constant(a ** (k + l) * _transfer(_U ** -k, l, j, dj, a).subs(_U, a))
             for l in range(lmax)]
            for k in range(kmax + 1)
        ]
    return _TABLES[key]


def selftest():
    """The oracle reproduces the frozen cells of the README."""
    lin = table("linear", "-1/2", 2, 4)
    quad = table("quadratic", "-1/2", 2, 3)
    return lin[1:] == FROZEN["linear"] and quad[1:] == FROZEN["quadratic"]


class Sphere:
    """Rational functions P / u^e on C^dim with u = sum z_i zb_i."""

    def __init__(self, dim):
        self.dim = dim
        names = ["z%d" % i for i in range(1, dim + 1)] + \
            ["zb%d" % i for i in range(1, dim + 1)]
        self.ring, *gens = sp.ring(",".join(names + ["U"]), QQ)
        self.z, self.zb, self.U = gens[:dim], gens[dim:2 * dim], gens[-1]
        self.u = sum(x * y for x, y in zip(self.z, self.zb))
        self.symbols = {n: sp.Symbol(n) for n in names}
        self.usym = sp.Symbol("U")
        self._upow = [self.ring(1)]

    def upow(self, k):
        while len(self._upow) <= k:
            self._upow.append(self._upow[-1] * self.u)
        return self._upow[k]

    def parse(self, text):
        e = sp.parse_expr(text.replace("^", "**"),
                          local_dict=dict(self.symbols, u=self.usym, I=sp.I))
        n = 0
        for p in sp.preorder_traversal(e):
            if p.is_Pow and p.base == self.usym and p.exp.is_Integer and p.exp < 0:
                n = max(n, -int(p.exp))
        poly = self.ring(sp.expand(e * self.usym ** n))
        return poly.compose(self.U, self.u), n

    def zero(self):
        return self.ring(0), 0

    def add(self, x, y):
        m = max(x[1], y[1])
        return x[0] * self.upow(m - x[1]) + y[0] * self.upow(m - y[1]), m

    def mul(self, x, y):
        return x[0] * y[0], x[1] + y[1]

    def scale(self, x, c):
        return x[0] * _qq(c), x[1]

    def diff(self, x, i, bar):
        # d(P u^-e) = (dP u - e P du) / u^(e+1); du/dz_i = zb_i and vice versa
        v, dv_u = (self.zb[i], self.z[i]) if bar else (self.z[i], self.zb[i])
        p, e = x
        return p.diff(v) * self.u - e * p * dv_u, e + 1

    def dmulti(self, x, s, bar):
        for i, k in enumerate(s):
            for _ in range(k):
                x = self.diff(x, i, bar)
        return x

    def kernel(self, f, g, r):
        acc = self.zero()
        for s in _compositions(r, self.dim):
            c = Fraction(2 ** r)
            for k in s:
                c /= factorial(k)
            term = self.mul(self.dmulti(f, s, False), self.dmulti(g, s, True))
            acc = self.add(acc, self.scale(term, c))
        return acc

    def bracket_sum(self, f, g):
        # sum_i (d_zi f d_zbi g - d_zi g d_zbi f); {f, g} is -2i times this
        acc = self.zero()
        for i in range(self.dim):
            a = self.mul(self.diff(f, i, False), self.diff(g, i, True))
            b = self.mul(self.diff(g, i, False), self.diff(f, i, True))
            acc = self.add(acc, self.add(a, self.scale(b, -1)))
        return acc

    def equal(self, x, y):
        return x[0] * self.upow(y[1]) == y[0] * self.upow(x[1])

    def reduced(self, kind, mu, f, g, order):
        """Oracle reduced product, coefficients for orders 0..order."""
        tab = table(kind, mu, order, order + 1)
        a = -2 * Fraction(mu)
        uk_mk = [self.mul((self.upow(k), 0), self.kernel(f, g, k))
                 for k in range(order + 1)]
        out = []
        for m in range(order + 1):
            acc = self.zero()
            for k in range(m + 1):
                c = tab[k][m - k] / a ** m
                if c:
                    acc = self.add(acc, self.scale(uk_mk[k], c))
            out.append(acc)
        return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


_SPHERES = {}


def _sphere(dim):
    if dim not in _SPHERES:
        _SPHERES[dim] = Sphere(dim)
    return _SPHERES[dim]


def check_reduce(op, result):
    sph = _sphere(op["dim"])
    kind = "linear" if op["mode"] == "radial-linear" else "quadratic"
    want = sph.reduced(kind, op["mu"], sph.parse(op["f"]), sph.parse(op["g"]),
                       op["order"])
    lines = result["stdout"].splitlines()
    if len(lines) != op["order"] + 1:
        return False
    for m, line in enumerate(lines):
        head, _, body = line.partition(": ")
        if head != "order %d" % m or not sph.equal(sph.parse(body), want[m]):
            return False
    return True


def check_coeffs(op, result):
    rows = [[Fraction(v) for v in line.split("\t")]
            for line in result["stdout"].splitlines()]
    want = table(op["table"], op["mu"], op["kmax"], op["lmax"])[1:]
    return rows == want


def check_obstruct(op, result):
    sph = _sphere(op["dim"])
    mu, f, g = op["mu"], sph.parse(op["f"]), sph.parse(op["g"])
    a = -2 * Fraction(mu)

    def second(kind, x, y):
        return sph.reduced(kind, mu, x, y, 2)[2]

    fg = sph.add(second("quadratic", f, g), sph.scale(second("linear", f, g), -1))
    gf = sph.add(second("quadratic", g, f), sph.scale(second("linear", g, f), -1))
    lhs = sph.add(fg, sph.scale(gf, -1))
    # rhs = (i/2) a^-2 u {f, g} with {f, g} = -2i * bracket_sum
    rhs = sph.scale(sph.mul((sph.u, 0), sph.bracket_sum(f, g)), 1 / a ** 2)
    lines = dict(line.split(":", 1) for line in result["stdout"].splitlines())
    ratio = "none" if not rhs[0] else "-2"
    return (sph.equal(sph.parse(lines["lhs"].strip()), lhs)
            and sph.equal(sph.parse(lines["rhs"].strip()), rhs)
            and lines["ratio"].strip() == ratio)


CHECKS = {"reduce": check_reduce, "coeffs": check_coeffs, "obstruct": check_obstruct}


def verdict(op, result):
    check = CHECKS.get(op["kind"])
    if check is None:
        return None
    if result.get("rc") != 0:
        return False
    try:
        return bool(check(op, result))
    except Exception as exc:  # output that does not parse is wrong output
        print("oracle: %s %r: %r" % (op["kind"], op["argv"], exc), file=sys.stderr)
        return False


def main():
    data = json.load(sys.stdin)
    out = {
        "selftest": selftest(),
        "verdicts": [verdict(op, r) for op, r in zip(data["ops"], data["results"])],
    }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
