"""Print the closed-form coefficient tables of the reduced product.

Rows are k = 1..kmax (powers of u paired with the k-th product kernel),
columns are l = 0..lmax-1 (orders of the transfer expansion).  The linear
table is integer valued; the quadratic one is rational.  Both carry the
engine normalization in which the table cell multiplies (lambda/a)^{k+l}
u^k M_k directly.
"""

import argparse

from costar.cpn import a_coeff_engine, a_coeff_operator, coefficient_table


def print_table(title, rows):
    width = max(len(str(v)) for row in rows for v in row)
    print(title)
    for k, row in enumerate(rows, start=1):
        print("  k=%d  %s" % (k, "  ".join("%*s" % (width, v) for v in row)))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--lmax", type=int, default=6)
    ap.add_argument("--check", action="store_true",
                    help="re-derive the small linear cells from the operator")
    args = ap.parse_args()

    print_table("linear-constraint table",
                coefficient_table("linear", args.kmax, args.lmax))
    print_table("quadratic-constraint table",
                coefficient_table("quadratic", args.kmax, args.lmax))

    if args.check:
        bad = 0
        for k in range(1, 4):
            for l in range(4):
                if a_coeff_operator(k, l) != a_coeff_engine(k, l):
                    bad += 1
        print("operator cross-check:", "ok" if bad == 0 else "%d mismatches" % bad)


if __name__ == "__main__":
    main()
