"""Reduction of a deformed product to the constraint quotient.

Everything here is generic over a phase setup: an algebra with a graded
family of product kernels M_r, a constraint element J cutting out the
reduced space C, and the two classical maps prolongation and the
difference quotient pi_J with f = prol f + pi_J(f) * J.

The central object is the transfer operator series T, defined by

    T_0 = id,   T_n(f) = - sum_{k=1..n} T_{n-k}( M_k(pi_J(f), J) ).

T fixes prolonged functions and the constraint, and straightens the left
star ideal: T(f * J) = f J order by order.  The recursion makes T the
inverse of 1 + D with (D a)_m = sum_{k>=1} M_k(pi_J(a_{m-k}), J), so
transfer_series solves h_m = a_m - sum_{k=1..m} M_k(pi_J(h_{m-k}), J)
forward for h = T(a): n pi_J and n(n+1)/2 calls of the kernel against J
at order n, where the unfolded recursion makes a number exponential in n.
transfer_ops reads each T_n(f) off one such run per input f.  The reduced
product of two functions on C is then

    f x g = S^{-1}( prol( T( S(f) * S(g) ) ) )

for an intertwiner S that starts at the identity; the default S = id.
S^{-1} is applied by the same forward substitution, with the terms of S
in place of the kernels.  prol_transfer gives prol(T(series)) and
prol_transfer_star gives prol(T(fs * gs)) on the setup PhaseSetup.jets
gives: a radial setup runs both, the Wick product included, on a second
setup over Taylor jets at the sphere, and a flat setup on itself.
Admissibility reads {J, f} off the kernels: M_1(J, f) - M_1(f, J) = i{J, f}.
"""

from __future__ import annotations

from itertools import chain, repeat

from .scalar import LambdaSeries, kernel_series
from . import flatphase
from . import radialphase


class MembershipError(ValueError):
    """An input lies outside the subalgebra the reduced product is defined on."""


def identity(x):
    return x


def _unchanged(f, m):
    return f


class PhaseSetup:
    """A phase space with constraint, product kernels and classical maps.

    kernel(f, g, r) is the order-r bidifferential product term, with
    M_1(f, g) - M_1(g, f) = i{f, g} for the Poisson bracket, and
    j_kernel(f, r) equals kernel(f, j, r) in a closed form, which the
    transfer series runs on; prol and pij satisfy f = prol(f) + pij(f) * j
    with prol(j) = 0.  one and zero are the unit and zero of j's algebra.
    jets(n) gives (setup, convert) for prol(T(.)) to order n: that setup's
    prol gives the same terms as this one's on the transfer, and
    convert(f, m) is f as the order-m coefficient of a series of order n
    in its algebra.  Without a jets hook it gives this setup and f itself.
    """

    __slots__ = ("label", "j", "kernel", "j_kernel", "prol", "pij", "jets",
                 "one", "zero")

    def __init__(self, label, j, kernel, j_kernel, prol, pij, jets=None):
        self.label = label
        self.j = j
        self.kernel = kernel
        self.j_kernel = j_kernel
        self.prol = prol
        self.pij = pij
        self.jets = jets or (lambda order: (self, _unchanged))
        self.one = type(j).one(j.dim)
        self.zero = type(j).zero(j.dim)
        if not prol(j).is_zero():
            raise ValueError("constraint must vanish on the reduced space")
        if pij(j) != self.one:
            raise ValueError("difference quotient must send the constraint to 1")

    def as_series(self, f, order):
        return LambdaSeries((f,) + (self.zero,) * order)


def flat_setup(n):
    """Flat phase space R^{2n} with the last momentum as constraint."""
    if n < 2:
        raise ValueError("flat reduction needs at least two coordinate pairs")
    return PhaseSetup(
        label="flat-%d" % n,
        j=flatphase.FlatPoly.p(n, n),
        kernel=flatphase.moyal_kernel,
        j_kernel=flatphase.pn_kernel,
        prol=flatphase.prol,
        pij=flatphase.pij,
    )


def radial_setup(constraint, dim):
    """Radial functions on C^dim with a sphere constraint.  Its jets hook
    gives the same setup on Taylor jets at the sphere (SphereJets), where
    the Wick kernel, the kernel against J, the transfer and prol run
    unchanged."""
    label = "radial-%s-%d" % (constraint.kind, dim)
    parts = constraint.kernel_parts()

    def prol(f):
        return radialphase.prol(f, constraint)

    def jets(order):
        sphere = radialphase.SphereJets(constraint, parts, dim, order)
        return PhaseSetup(
            "%s-jets-%d" % (label, order), sphere.j, radialphase.wick_kernel,
            radialphase.constraint_kernel(sphere.parts), prol,
            sphere.pij), sphere.convert

    return PhaseSetup(
        label=label,
        j=constraint.j(dim),
        kernel=radialphase.wick_kernel,
        j_kernel=radialphase.constraint_kernel(parts),
        prol=prol,
        pij=lambda f: radialphase.pij(f, constraint),
        jets=jets,
    )


class OperatorSeries:
    """A formal series of linear operators, one per order in the parameter."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = ops

    @property
    def order(self):
        return len(self.ops) - 1

    def _check_order(self, series):
        if series.order > self.order:
            raise ValueError(
                "operator series of order %d applied to series of order %d"
                % (self.order, series.order)
            )

    def apply(self, series):
        self._check_order(series)
        out = []
        for m in range(series.order + 1):
            acc = self.ops[0](series[m])
            for k in range(1, m + 1):
                acc = acc + self.ops[k](series[m - k])
            out.append(acc)
        return LambdaSeries(tuple(out))

    def apply_inverse(self, series):
        """The inverse series applied by T's forward substitution,
        h_m = a_m - sum_{k=1..m} ops[k](h_{m-k}): n(n+1)/2 operator calls
        at order n.  Only a series with identity leading term inverts."""
        if self.ops[0] is not identity:
            raise ValueError("can only invert a series whose leading term is the identity")
        self._check_order(series)
        return LambdaSeries(tuple(_substitute(
            lambda h, k: self.ops[k](h), identity, series.coeffs)))


def _substitute(op, pre, coeffs):
    """The forward substitution h = (1 + D)^{-1} a for
    (D a)_m = sum_{k=1..m} op(pre(a_{m-k}), k), yielding
    h_m = a_m - sum_{k=1..m} op(pre(h_{m-k}), k) one order at a time.

    pre(h_{m-1}) is taken after a_m is read, so n + 1 orders make n pre
    and n(n+1)/2 op calls, and only the pre values are kept.  T runs on
    (j_kernel, pij), one pij per order where an apply_inverse of 1 + D
    would take one per kernel call, and OperatorSeries.apply_inverse on
    (ops[k], identity).
    """
    pres = []
    for m, a in enumerate(coeffs):
        if m:
            pres.append(pre(h))
        h = a
        for k in range(1, m + 1):
            h = h - op(pres[m - k], k)
        yield h


def transfer_series(setup, series):
    """The transfer image h = T(series), by forward substitution."""
    return LambdaSeries(tuple(_substitute(setup.j_kernel, setup.pij, series.coeffs)))


def _prolonged_orders(setup, series):
    """prol(h_m) for h = T(series), lazily in m, on the setup that
    setup.jets gives (a flat setup is its own).  convert checks a_m as
    prol checks h_m, which has the odd terms and poles of a_m: so
    a_0 .. a_{n-1} convert before the first yield and a_n before the
    last, where prol of transfer_series raises for them."""
    n = series.order
    jets, convert = setup.jets(n)
    head = [convert(series[m], m) for m in range(n)]
    return _prolonged_run(jets, chain(head, (convert(series[n], n) for _ in (n,))))


def _prolonged_run(setup, coeffs):
    # prol(h_m) for h = T(coeffs), one step of the forward substitution per m
    return map(setup.prol, _substitute(setup.j_kernel, setup.pij, coeffs))


def prol_transfer(setup, series):
    """prol(T(series)), the reduced image of a series, order by order.

    Radial setups compute it on Taylor jets at the sphere (PhaseSetup.jets)
    and flat ones on themselves; both raise the errors of prol of
    transfer_series, in its order.
    """
    return LambdaSeries(tuple(_prolonged_orders(setup, series)))


def transfer_ops(setup, order):
    """T as an operator series: T_n(f) is component n of T(f, 0, ..., 0).

    All operators share one run of that substitution per input f, kept
    with its outputs for as long as the returned series lives, so apply at
    order n makes sum_j (n-j)(n-j+1)/2 j_kernel and sum_j (n-j) pij calls.
    """
    runs = {}

    def component(f, n):
        key = id(f)
        if key not in runs:
            # h_0 is f itself, so id(f) is not reused while the run lives
            runs[key] = [], _substitute(setup.j_kernel, setup.pij,
                                        chain((f,), repeat(setup.zero)))
        h, run = runs[key]
        try:
            while len(h) <= n:
                h.append(next(run))
        except BaseException:
            # a generator that raised is closed; the next call starts over
            del runs[key]
            raise
        return h[n]

    return OperatorSeries((identity,) + tuple(
        (lambda f, n=n: component(f, n)) for n in range(1, order + 1)))


def star_series(setup, fs, gs):
    """Bilinear extension of the product kernels to truncated series; a
    pair of coefficients one of which has no terms takes no kernel call."""
    n = min(fs.order, gs.order)
    out = []
    for m in range(n + 1):
        acc = setup.zero
        for r in range(m + 1):
            for j in range(m - r + 1):
                if fs[j].terms and gs[m - r - j].terms:
                    acc = acc + setup.kernel(fs[j], gs[m - r - j], r)
        out.append(acc)
    return LambdaSeries(tuple(out))


def prol_transfer_star(setup, fs, gs):
    """prol(T(fs * gs)), the reduced image of the star product of two
    series, order by order.

    Radial setups take it on Taylor jets at the sphere (PhaseSetup.jets),
    from the factors: so a factor coefficient up to the order of the
    product with an odd term or a pole at the sphere raises prol's
    ParityError or PoleError, before the first yield, even where the
    product would have none.  Flat ones take it on themselves.
    """
    fs[0]._check(gs[0])
    n = min(fs.order, gs.order)
    jets, convert = setup.jets(n)
    # f_0 .. f_n convert first, then g_0 .. g_n; the jets and their memoised
    # derivatives live only until the product is taken
    a = star_series(jets, *(LambdaSeries(tuple(convert(x[m], m) for m in range(n + 1)))
                            for x in (fs, gs)))
    return LambdaSeries(tuple(_prolonged_run(jets, a.coeffs)))


def star_elements(setup, f, g, order):
    """f * g = sum_r M_r(f, g), one kernel call per order."""
    return kernel_series(setup.kernel, f, g, order)


def decompose_deformed(setup, series):
    """Split a series as U(p) + (w * J) with p prolonged order by order.

    Returns (p, w) where p = prol(T series) and w = pij(T series); the
    reconstruction series == U(p) + star(w, J) is exact at the truncation
    order, and series lies in the left star ideal iff p vanishes.
    """
    h = transfer_series(setup, series)
    return h.map(setup.prol), h.map(setup.pij)


def in_istar(setup, series):
    """Membership in the left star ideal generated by the constraint.

    A series is of the form g * J iff its transfer image vanishes on C
    order by order.
    """
    return all(c.is_zero() for c in _prolonged_orders(setup, series))


def in_bstar(setup, series):
    """Membership in the deformed normalizer: [J, f]_* lies in the ideal."""
    j = setup.as_series(setup.j, series.order)
    comm = star_series(setup, j, series) - star_series(setup, series, j)
    return in_istar(setup, comm)


def is_in_b_cap_f(setup, f):
    """Classical admissibility: f is prolonged and {J, f} vanishes on C,
    read off the kernels as M_1(J, f) - M_1(f, J) = i{J, f}."""
    if f != setup.prol(f):
        return False
    return setup.prol(setup.kernel(setup.j, f, 1) - setup.j_kernel(f, 1)).is_zero()


def reduce_star_series(setup, fs, gs, intertwiner=None):
    """Bilinear extension of the reduced product to truncated series.

    The coefficients are assumed admissible; no membership check is done
    here, so element inputs should go through reduce_star instead.  The
    intertwiner S is an OperatorSeries starting at the identity, or None
    for S = id.  prol(T(S fs * S gs)) comes from prol_transfer_star, so on
    a radial setup a coefficient of S fs or S gs up to the product's order
    with an odd term or a pole at the sphere raises prol's ParityError or
    PoleError for that coefficient, even where the product has none.
    """
    if intertwiner is None:
        s = s_inverse = identity
    elif intertwiner.ops[0] is not identity:
        raise ValueError("intertwiner must start at the identity")
    else:
        s, s_inverse = intertwiner.apply, intertwiner.apply_inverse
    return s_inverse(prol_transfer_star(setup, s(fs), s(gs)))


def require_admissible(setup, f, g):
    """Raise MembershipError naming the first of the left factor f and the
    right factor g that is not admissible (is_in_b_cap_f)."""
    for side, x in (("left", f), ("right", g)):
        if not is_in_b_cap_f(setup, x):
            raise MembershipError(
                "%s factor is not an admissible function on the reduced space"
                % side
            )


def reduce_star(setup, f, g, order, intertwiner=None):
    """The reduced product of two admissible functions, as a series.

    Both inputs must be prolonged and bracket-commute with the constraint
    on C; otherwise the construction is not well defined and a
    MembershipError is raised.
    """
    require_admissible(setup, f, g)
    return reduce_star_series(
        setup, setup.as_series(f, order), setup.as_series(g, order), intertwiner
    )


def verify_intertwiner(setup, intertwiner, f, g, order):
    """Check S(f x g) = S(f) * S(g) modulo the left star ideal; the
    intertwiner S is an OperatorSeries or None, as in reduce_star_series."""
    s = identity if intertwiner is None else intertwiner.apply
    reduced = reduce_star(setup, f, g, order, intertwiner)
    fs, gs = s(setup.as_series(f, order)), s(setup.as_series(g, order))
    return in_istar(setup, star_series(setup, fs, gs) - s(reduced))
