"""Closed forms for the reduced products on complex projective space.

For the sphere constraints the transfer recursion can be resolved
explicitly, into words in two letters P (weight 1) and R (weight 2):
T_l is the sum of the words of weight l, and cell (k, l) of a table is
a^{k+l} res(T_l(u^{-k})), a = -2*mu.  Splitting each word on its leftmost
letter gives T_l = P T_{l-1} + R T_{l-2}, so _letter_pass runs one pass
h_l = P(h_{l-1}) + R(h_{l-2}) from h_0 = u^{-k}, h_{-1} = 0 and yields
the first n cells of row k with 2n - 3 letter applications, where summing
the Fibonacci-many words cell by cell costs exponentially many.  With the
linear constraint R vanishes, T_l = K^l for the first-order kernel K = P,
and the reduced product of homogeneous f, g takes the table form

    f x g = sum_{k,l} (t/a)^{k+l} A(k,l) u^k M_k(f,g),

with the integer table A(k,l) read off a nested-sum recursion
(a_coeff_engine).  The quadratic constraint gives an analogous rational
table B(k,l), read off the rows of _quadratic_row.  Neither table depends
on mu, so the quadratic rows are computed once, at mu = -1/2, where a = 1,
and in dim 1 on the Taylor jets at the sphere that a transfer runs on,
since res reads only the value there.
The other descriptions stay only as oracles: a_coeff_closed, a direct
binomial formula, for a_coeff_sum (test_sum_matches_closed_formula,
criterion 2, verify --suite tables), a_coeff_operator, the pass of
_operator_row in RadialRational arithmetic on the linear constraint, for
a_coeff_engine (criterion 3, --suite tables), _operator_row on the
quadratic constraint for the jet rows
(test_quadratic_rows_on_jets_match_the_operator_rows), and pr_word_sum
for the quadratic rows (--suite tables) and for T
(test_word_sums_match_transfer_recursion, criterion 6, --suite prwords).
At order two the antisymmetrized parts of the two reduced products differ
by a multiple of u {f,g}, which makes them inequivalent deformations.
obstruction_order2 computes the exact multiple.  Since T and prol are
linear, it needs only the commutator comm = f*g - g*f of the Wick
products; comm_0 = 0, so T(comm)_2 = comm_2 - M_1(pi_J c1, J) for the
order-1 part c1, and prol(comm_2), which reads only the sphere, cancels
between the two constraints.  So the difference takes one pi_J and one
order-1 kernel against J per constraint, and no transfer.  Admissibility
does not depend on J, only on the sphere, so its factors are checked
once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .radialphase import (
    RadialConstraint,
    RadialFun,
    is_homogeneous,
    prol,
    scalar_ratio,
    wick_kernel,
)
from .reduction import (
    MembershipError,
    radial_setup,
    require_admissible,
)
from .scalar import LambdaSeries, RadialRational


def a_coeff_sum(k, l):
    """Nested-sum value of the linear table: (-1)^l sum over descending
    chains k >= i_1 >= ... >= i_l >= 1 of the products i_1 ... i_l."""
    if k < 0 or l < 0:
        raise ValueError("table indices must be nonnegative")
    row = [1] * (k + 1)
    for _ in range(l):
        acc = 0
        new = [0] * (k + 1)
        for m in range(1, k + 1):
            acc += m * row[m]
            new[m] = acc
        row = new
    return (-1) ** l * row[k]


def a_coeff_closed(k, l):
    """Direct binomial formula for the linear table, defined for k >= 1."""
    if k < 1:
        raise ValueError("the direct formula needs k >= 1")
    if l < 0:
        raise ValueError("table indices must be nonnegative")
    s = sum(
        comb(k - 1, n - 1) * (-1) ** (k + l - n) * n ** (k + l - 1)
        for n in range(1, k + 1)
    )
    return Fraction(s, factorial(k - 1))


def a_coeff_engine(k, l):
    """Linear table in the normalization of the product kernels used here."""
    return Fraction(2 ** l * a_coeff_sum(k, l))


def _res(f, constraint):
    # the real value on the sphere, read off the scale-invariant
    # representative so that split monomial spellings of a constant are
    # identified
    c = scalar_ratio(prol(f, constraint), RadialFun.one(f.dim))
    if c is None:
        raise ValueError("the restriction is not constant on the sphere")
    return c.re


def a_coeff_operator(k, l, mu=Fraction(-1, 2), dim=1):
    """Linear table through the operator definition a^{k+l} res(K^l u^{-k}).

    K = -M_1(pi_J f, J) is the letter P of pr_letters; the higher kernels
    against the linear J vanish, so R does and the row of _operator_row
    is res(T_l u^{-k}) = res(K^l u^{-k})."""
    constraint = RadialConstraint.linear(mu)
    return constraint.sphere_u ** (k + l) * _operator_row(constraint, dim, k, l + 1)[l]


def pr_letters(setup):
    """The two word letters of the quadratic transfer recursion, built from
    the product kernels: P = K is the transfer kernel -M_1(pi_J f, J), and
    R(f) = -M_2(pi_J f, J).

    The letters share the quotient pi_J f of the last argument either was
    applied to, so R(h) right after P(h) takes no second quotient."""
    last = [None, None]  # the last argument and its quotient

    def pij(f):
        if last[0] is not f:
            last[:] = f, setup.pij(f)
        return last[1]

    def p(f):
        return -setup.j_kernel(pij(f), 1)

    def r(f):
        return -setup.j_kernel(pij(f), 2)

    return p, r


def _weight_words(n):
    if n == 0:
        yield ()
        return
    for head in (1, 2):
        if head <= n:
            for rest in _weight_words(n - head):
                yield (head,) + rest


def pr_word_sum(setup, weight):
    """Sum over words in the two letters with total weight as given,
    rightmost letter acting first; equals the transfer operator T_weight.

    This is the definition of the quadratic rows, kept as the oracle that
    the row recurrence of _letter_pass is checked against."""
    p, r = pr_letters(setup)
    letters = {1: p, 2: r}

    def apply(f):
        acc = setup.zero
        for word in _weight_words(weight):
            g = f
            for w in reversed(word):
                g = letters[w](g)
            acc = acc + g
        return acc

    return apply


def _letter_pass(letters, h, n):
    # h_0 .. h_{n-1} from h_l = R(h_{l-2}) + P(h_{l-1}), h_{-1} = 0: the
    # word sums T_l(h_0) split on their leftmost letter.  R(h_{l-2}) goes
    # first, so it reuses the quotient that P(h_{l-2}) took in the step
    # before, and each h takes one
    p, r = letters
    before = None
    for l in range(n):
        yield h
        if l + 1 < n:
            after = p(h) if before is None else r(before) + p(h)
            before, h = h, after


def _operator_row(constraint, dim, k, n):
    # res(h_l) for l = 0..n-1 from h_0 = u^{-k}, in RadialRational
    # arithmetic: the linear table's operator definition, and on the
    # quadratic constraint the oracle of _quadratic_row
    letters = pr_letters(radial_setup(constraint, dim))
    return tuple(_res(h, constraint)
                 for h in _letter_pass(letters, RadialFun.u(dim, -k), n))


@lru_cache(maxsize=32)
def _quadratic_jets(order):
    # _quadratic_row's jet setup and conversion, one per row length
    return radial_setup(RadialConstraint.quadratic(Fraction(-1, 2)), 1).jets(order)


@lru_cache(maxsize=256)
def _quadratic_row(k, n):
    # _operator_row of the quadratic constraint in dim 1, on the Taylor jets
    # at the sphere that a transfer to order n - 1 runs on (SphereJets): h_l
    # keeps the coefficients that res(h_l) reads.  The cells do not depend
    # on mu; at mu = -1/2 the sphere is u = a = 1, so a^{k+l} res(h_l) is
    # res(h_l), coefficient 0 of the jet of h_l's one radial term
    jets, convert = _quadratic_jets(n - 1)
    radial = ((0,), (0,))
    row = []
    for h in _letter_pass(pr_letters(jets), convert(RadialFun.u(1, -k), 0), n):
        c = h.terms.get(radial)
        row.append(c.eval(c.a).re if c else Fraction(0))
    return tuple(row)


def b_coeff_engine(k, l):
    """Quadratic table a^{k+l} res(T_l(u^{-k})), read from row k of the
    letter recurrence T_l = P T_{l-1} + R T_{l-2}.  The value does not
    depend on mu, so the rows are computed once, at a = 1."""
    if k < 0 or l < 0:
        raise ValueError("table indices must be nonnegative")
    return _quadratic_row(k, l + 1)[l]


def _table_row(kind, k, n):
    # cells l = 0..n-1 of row k of the linear or the quadratic table
    if kind == "linear":
        return [a_coeff_engine(k, l) for l in range(n)]
    return list(_quadratic_row(k, n))


def coefficient_table(kind, kmax, lmax):
    """Table rows k = 1..kmax, columns l = 0..lmax-1 for one constraint;
    neither table depends on mu."""
    if kmax < 1 or lmax < 1:
        raise ValueError("table extents must be positive")
    if kind not in ("linear", "quadratic"):
        raise ValueError("table kind must be 'linear' or 'quadratic'")
    return [_table_row(kind, k, lmax) for k in range(1, kmax + 1)]


def table_reduced_product(constraint, f, g, order):
    """Closed-form reduced product of homogeneous functions.

    Every (k, l) contribution is homogeneous, so no prolongation step is
    needed; the result agrees with the transfer-operator construction.
    """
    for x in (f, g):
        if not is_homogeneous(x):
            raise MembershipError("closed form needs homogeneous factors")
    a = constraint.sphere_u
    out = [RadialFun.zero(f.dim) for _ in range(order + 1)]
    for k in range(order + 1):
        mk = wick_kernel(f, g, k)
        if mk.is_zero():
            continue
        uk_mk = mk * RadialRational.u_power(k)
        row = _table_row(constraint.kind, k, order - k + 1)
        for l, c in enumerate(row):
            if not c:
                continue
            out[k + l] = out[k + l] + uk_mk.scale(c / a ** (k + l))
    return LambdaSeries(tuple(out))


def obstruction_order2(f, g, mu):
    """Antisymmetrized order-2 difference of the two reduced products.

    Returns (lhs, rhs, ratio) with
    lhs = (f x g - f x~ g)_2 - (g x f - g x~ f)_2 for the quadratic (x) and
    linear (x~) constraints, rhs = (i/2) a^{-2} u {f, g}, and ratio the
    scalar lhs / rhs.  A nonzero constant ratio off the exact class of the
    reduced symplectic form is what makes the two products inequivalent.

    f x g = prol(T(f * g)) with T and prol linear, so for each constraint
    (f x g - g x f)_2 = prol(T(comm))_2 for the Wick commutator
    comm = f*g - g*f.  comm_0 = fg - gf = 0, so the forward substitution
    of T gives h_0 = 0, h_1 = c1 = M_1(f, g) - M_1(g, f) and
    h_2 = comm_2 - M_1(pi_J c1, J).  prol reads only the sphere, so
    prol(comm_2) is the same for both constraints and cancels:
    lhs = prol(M_1(pi_J~ c1, J~)) - prol(M_1(pi_J c1, J)), with no order-2
    kernel and no transfer.  c1 is i {f, g}, so rhs is u c1 / (2 a^2).
    Both factors must be admissible, checked in the order reduce_star would
    check them (left then right).  Classical admissibility reads only the
    sphere: on it {J(u), f} = J'(u) {u, f} with J'(-2 mu) != 0
    (RadialConstraint), so the check against the quadratic constraint
    serves the linear one too.
    """
    quadratic = RadialConstraint.quadratic(mu)
    lin = radial_setup(RadialConstraint.linear(mu), f.dim)
    quad = radial_setup(quadratic, f.dim)
    a = quadratic.sphere_u
    require_admissible(quad, f, g)
    c1 = quad.kernel(f, g, 1) - quad.kernel(g, f, 1)

    def second(setup):
        # prol(h_2) of T(comm) on the setup, less prol(comm_2)
        return -setup.prol(setup.j_kernel(setup.pij(c1), 1))

    lhs = second(quad) - second(lin)
    rhs = (RadialFun.u(f.dim) * c1).scale(Fraction(1, 2) / a ** 2)
    return lhs, rhs, scalar_ratio(lhs, rhs)
