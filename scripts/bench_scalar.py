"""Time the exact scalar layer on fixed, seeded inputs.

Measures GaussianRational add/mul/div and UPoly mul/divmod/gcd, the
operations every higher layer of the engine reduces to, UPoly mul on the
small real operands (degree 0 to 4) that a reduction on the sphere
multiplies, and RadialRational
construction and derivative over the denominators a reduction on the
sphere builds: u^a, and u^a (u - 2mu)^b with 2mu = -3 or -1, and the sum
of two RadialRational over one such u^a (u - 2mu)^b, which the transfer
series adds up most.  Prints one
JSON line: for each operation the best per-call time in nanoseconds over
--repeat timed passes.  The derivative rows include the hits of its cache
of denominator splits after the first pass, as a reduction does.  Only the
standard library is used, and the engine is imported from this checkout's
src/.

    python3 scripts/bench_scalar.py [--seed N] [--repeat R]
"""

import argparse
import json
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from costar.scalar import GaussianRational, RadialRational, UPoly  # noqa: E402

SCALARS = 400     # scalar operands; ops run on consecutive pairs
POLYS = 40        # polynomial operands
SMALL_POLYS = 200  # small real polynomial operands
DEGREE = 6        # degree of each polynomial operand
RADIALS = 40      # rational-function operands of each shape


def _fraction(rng):
    return Fraction(rng.randint(-2 ** 20, 2 ** 20), rng.randint(1, 2 ** 10))


def _scalar(rng):
    # half of the values are real, as most coefficients in the engine are
    im = _fraction(rng) if rng.random() < 0.5 else 0
    return GaussianRational(_fraction(rng), im)


def _rational_poly(rng, degree):
    return UPoly([_fraction(rng) for _ in range(degree)] + [1])


def _small_real_poly(rng):
    # small coefficients over the denominators 1, 2 and 4 that mu = -1/2,
    # -1 and -3/2 bring in; the lead is nonzero
    def coeff():
        return Fraction(rng.randint(-64, 64), rng.choice((1, 1, 2, 4)))
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 64), rng.choice((1, 1, 2, 4)))
    return UPoly([coeff() for _ in range(rng.randint(0, 4))] + [lead])


def inputs(seed):
    rng = Random(seed)
    scalars = [_scalar(rng) for _ in range(SCALARS)]
    nonzero = [c for c in scalars if c]
    polys = [UPoly([_scalar(rng) for _ in range(DEGREE + 1)]) for _ in range(POLYS)]
    # rational polynomials sharing a quadratic factor, as in the
    # denominators RadialRational reduces: the integer gcd path
    common = [_rational_poly(rng, 2) for _ in range(POLYS)]
    gcd_pairs = [(c * _rational_poly(rng, DEGREE - 2), c * _rational_poly(rng, DEGREE - 2))
                 for c in common]
    return scalars, nonzero, polys, gcd_pairs


def radial_pairs(rng, shifted):
    # (num, den) with den = u^a, or u^a (u - 2mu)^b when shifted, and a
    # numerator that shares part of den, so construction has work to do
    out = []
    for _ in range(RADIALS):
        den = UPoly.u(rng.randint(1, 6))
        num = _rational_poly(rng, rng.randint(0, 4)) * UPoly.u(rng.randint(0, 2))
        if shifted:
            shift = UPoly((rng.choice((1, 3)), 1))
            den = den * shift ** rng.randint(1, 3)
            num = num * shift ** rng.randint(0, 1)
        out.append((num, den))
    return out


def same_den_pairs(rng):
    # (a, b) in canonical form over one den = u^a (u - 2mu)^b, whose sum
    # goes through the constructor with that den
    out = []
    for _ in range(RADIALS):
        shift = UPoly((rng.choice((1, 3)), 1))
        den = UPoly.u(rng.randint(1, 6)) * shift ** rng.randint(1, 3)
        pair = []
        while len(pair) < 2:
            r = RadialRational(_rational_poly(rng, rng.randint(0, 4)), den)
            if r.den == den:
                pair.append(r)
        out.append(tuple(pair))
    return out


def _derivative_pairs(pairs):
    return [(RadialRational(num, den), None) for num, den in pairs]


def _pairs(xs):
    return list(zip(xs, xs[1:]))


def cases(seed):
    scalars, nonzero, polys, gcd_pairs = inputs(seed)
    divisors = [UPoly(p.coeffs[: DEGREE // 2 + 1]) for p in polys]
    rng = Random(seed)
    upow, shifted = radial_pairs(rng, False), radial_pairs(rng, True)
    small = [_small_real_poly(rng) for _ in range(SMALL_POLYS)]
    same_den = same_den_pairs(rng)
    return {
        "gaussian_add": (lambda a, b: a + b, _pairs(scalars)),
        "gaussian_mul": (lambda a, b: a * b, _pairs(scalars)),
        "gaussian_div": (lambda a, b: a / b, _pairs(nonzero)),
        "upoly_mul": (lambda a, b: a * b, _pairs(polys)),
        "upoly_mul_small_real": (lambda a, b: a * b, _pairs(small)),
        "upoly_divmod": (lambda a, b: a.divmod(b), list(zip(polys, divisors))),
        "upoly_gcd": (lambda a, b: a.gcd(b), gcd_pairs),
        "radial_new_u": (RadialRational, upow),
        "radial_new_u_shift": (RadialRational, shifted),
        "radial_add_same_den": (lambda a, b: a + b, same_den),
        "radial_derivative_u": (lambda f, _: f.derivative(), _derivative_pairs(upow)),
        "radial_derivative_u_shift": (lambda f, _: f.derivative(),
                                      _derivative_pairs(shifted)),
    }


def best_ns(op, pairs, repeat):
    best = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        for a, b in pairs:
            op(a, b)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(pairs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=20,
                    help="timed passes per operation; the best one is reported")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    ns = {name: round(best_ns(op, pairs, args.repeat), 1)
          for name, (op, pairs) in cases(args.seed).items()}
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeat": args.repeat,
        "ns_per_op": ns,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
