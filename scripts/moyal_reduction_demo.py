"""Reduce the Moyal product across the hyperplane p_n = 0.

Functions of the first n-1 coordinate pairs are constant along the
constraint directions; the transfer-operator reduction of their ambient
Moyal product lands back on the Moyal product of the smaller phase space,
coefficient by coefficient.  This script runs the comparison on random
polynomial pairs and prints the first few orders of both sides.
"""

import argparse
from fractions import Fraction
from random import Random

from costar.cli import fun_text
from costar.flatphase import FlatPoly, drop_last_pair, moyal_product
from costar.reduction import flat_setup, reduce_star
from costar.scalar import GaussianRational


def random_poly(rng, n, terms=3, deg=2):
    out = {}
    for _ in range(terms):
        key = [0] * (2 * n)
        for i in range(n - 1):
            key[i] = rng.randint(0, deg)
            key[n + i] = rng.randint(0, deg)
        out[tuple(key)] = GaussianRational(Fraction(rng.randint(-3, 3)),
                                           Fraction(rng.randint(-3, 3)))
    return FlatPoly(n, out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2,
                    help="ambient coordinate pairs (reduced space has one fewer)")
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = Random(args.seed)
    setup = flat_setup(args.dim)
    for trial in range(args.pairs):
        f = random_poly(rng, args.dim)
        g = random_poly(rng, args.dim)
        reduced = reduce_star(setup, f, g, args.order)
        small = moyal_product(drop_last_pair(f), drop_last_pair(g), args.order)
        print("pair %d" % trial)
        print("  f = %s" % fun_text(f))
        print("  g = %s" % fun_text(g))
        agree = True
        for k in range(args.order + 1):
            got = drop_last_pair(reduced[k])
            agree = agree and got == small[k]
            print("  order %d: %s" % (k, fun_text(got)))
        print("  matches direct product: %s" % agree)
        print()


if __name__ == "__main__":
    main()
