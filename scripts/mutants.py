#!/usr/bin/env python3
"""Mutation smoke test: do the tests catch small faults in the engine?

Copies src/ to a temporary directory, applies one mutant from MUTANTS at
a time to the copy, and runs the tests named for that mutant against it.
A mutant is killed when those tests fail.  Prints one line per mutant and
then the survivors; exits 1 when a mutant survives or no longer applies
(its source text is gone or no longer unique), and 0 otherwise.

    python3 scripts/mutants.py

Each mutant changes one line.  Its source text may carry a neighbouring
line as context, so that the text occurs exactly once in its file.  The
script is standard library only; the tests need pytest and hypothesis.
Hypothesis runs with a fixed seed and a fresh example database, so a run
is repeatable.  The named tests first run on the unmutated source, split
into JOBS pytest processes; then mutants are tested JOBS at a time, each
in its own pytest process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds for the tests of one mutant
JOBS = 2  # mutants tested at once: one per core of a 2-core machine

FLAT = "costar/flatphase.py"
RADIAL = "costar/radialphase.py"
SCALAR = "costar/scalar.py"
REDUCTION = "costar/reduction.py"
CPN = "costar/cpn.py"
CLI = "costar/cli.py"

T_MOYAL = "tests/test_flatphase.py::test_moyal_kernel_matches_uncapped_sum"
T_WICK = "tests/test_radialphase.py::test_wick_kernel_matches_uncapped_sum"
T_MIRROR = "tests/test_radialphase.py::test_zbar_operations_mirror_z"
T_DERIV = "tests/test_radialphase.py::test_derivatives"
T_PROL = "tests/test_radialphase.py::test_prol_examples"
T_PIJ = "tests/test_radialphase.py::test_pij_examples"
T_DECOMPOSITION = "tests/test_radialphase.py::test_decomposition_identity"
T_RING = "tests/test_flatphase.py::test_ring_ops"
T_STAR_CALLS = "tests/test_reduction.py::test_star_elements_call_counts"
T_NEUMANN = "tests/test_reduction.py::test_operator_series_inversion_neumann"
T_SETUP = "tests/test_reduction.py::test_phase_setup_checks_its_maps"
T_INTERTWINER = "tests/test_reduction.py::test_verify_nontrivial_intertwiner"
T_GCD = "tests/test_scalar.py::test_gcd_with_monomial_matches_euclid"
T_EXACT = "tests/test_scalar.py::test_exact_div_by_monomial_rejects_a_remainder"
T_DIVMOD = "tests/test_scalar.py::test_upoly_divmod_and_gcd"
T_REF = "tests/test_scalar.py::test_upoly_matches_reference"
T_QUAD = "tests/test_cpn.py::test_quadratic_table_frozen_values"
T_CELLS = "tests/test_cpn.py::test_b_coeff_engine_reads_table_cells"
T_RADIAL_REF = "tests/test_scalar.py::test_radial_rational_matches_full_gcd_reference"
T_J_RADIAL = "tests/test_reduction.py::test_radial_j_kernel_matches_wick_kernel"
T_J_FLAT = "tests/test_reduction.py::test_flat_j_kernel_matches_moyal_kernel"
T_SUB = ("tests/test_flatphase.py::"
         "test_difference_stores_the_terms_of_a_sum_with_the_negation")
T_OBSTRUCT = "tests/test_cpn.py::test_obstruction_matches_four_reduced_products"
T_LETTERS = "tests/test_cpn.py::test_pr_letters_kernel_vs_euler"
T_RUNS = "tests/test_reduction.py::test_transfer_ops_runs_outlive_their_inputs"
T_JETS = "tests/test_sphere_jets.py::test_prol_transfer_matches_generic"
T_JET_STAR = "tests/test_sphere_jets.py::test_reduce_star_series_matches_generic"
T_JET_RING = "tests/test_sphere_jets.py::test_jets_are_a_ring_map_mod_t_n"
T_IS_ZERO = "tests/test_sphere_jets.py::test_is_zero_matches_the_expansion"
T_ROW = "tests/test_cpn.py::test_quadratic_row_takes_one_quotient_per_cell"
T_OPERATOR = "tests/test_cpn.py::test_operator_table_matches_engine_normalization"
T_TABLE = "tests/test_cli.py::test_table_parser_agrees_with_argparse"
T_SCALAR_CAPS = "tests/test_cli.py::test_oversized_scalars_exit_2_at_once"
# golden refusals of factors that are prolonged and fail only on {J, f}
T_REFUSALS = ["tests/test_cli_golden.py::test_cli_output_is_golden[%s]" % argv for argv in (
    "reduce --mode radial-linear --dim 2 --order 2 -- z1^2/u 1",
    "reduce --mode radial-quadratic --dim 2 --order 2 -- 1 zb1^2/u",
    "reduce --mode flat --dim 2 --order 2 q1 q2",
    "obstruct --dim 2 -- z1^2/u z2*zb1/u")]
# golden output of the paper's three order-2 obstructions
T_GOLDEN_OBSTRUCT = [
    "tests/test_cli_golden.py::test_cli_output_is_golden[obstruct --dim 2 --mu=-1/2 -- %s]"
    % pair for pair in ("z1*zb2/u z2*zb1/u", "z1*zb1/u z1*zb2/u", "z2*zb2/u z2*zb1/u")]

# (name, file under src/, source text, mutated text, tests that must fail)
MUTANTS = [
    # the shared kernel loop, the term merge and the series builder
    ("kernel cap off by one", SCALAR,
     "hi = min(left, caps[p])",
     "hi = min(left, caps[p] - 1)",
     [T_MOYAL, T_WICK]),
    ("kernel parity sign dropped", SCALAR,
     "d, e, s = pairs[p]",
     "(d, e, _), s = pairs[p], 1",
     [T_MOYAL]),
    ("kernel factorial dropped", SCALAR,
     "yield s ** k, factorial(k), dfk, dgk",
     "yield s ** k, 1, dfk, dgk",
     [T_MOYAL, T_WICK]),
    ("kernel f and g directions swapped", SCALAR,
     "zip(_derivative_chain(dg, e, hi), _derivative_chain(df, d, hi))",
     "zip(_derivative_chain(dg, d, hi), _derivative_chain(df, e, hi))",
     [T_MOYAL, T_WICK]),
    ("merge keeps zero sums", SCALAR,
     "        c = s + c\n    if c.is_zero():",
     "        c = s + c\n    if False:",
     [T_RING]),
    ("difference stores c for -c", SCALAR,
     "out[key] = -c",
     "out[key] = c",
     [T_SUB]),
    ("series builder drops the top order", SCALAR,
     "return LambdaSeries(tuple(kernel(f, g, r) for r in range(order + 1)))",
     "return LambdaSeries(tuple(kernel(f, g, r) for r in range(order)))",
     [T_STAR_CALLS]),
    # the per-algebra kernel data
    ("moyal t caps lowered by one", FLAT,
     "+ tuple(map(min, fdeg[n:], gdeg[:n]))",
     "+ tuple(max(0, min(a, b) - 1) for a, b in zip(fdeg[n:], gdeg[:n]))",
     [T_MOYAL]),
    ("moyal pairing signs equal", FLAT,
     "+ tuple((d[n + i], d[i], -1) for i in range(n)))",
     "+ tuple((d[n + i], d[i], 1) for i in range(n)))",
     [T_MOYAL]),
    # radial derivatives and Euler operators
    ("derivative reads key[0] for key[side]", RADIAL,
     "for key, r in self.terms.items():\n            e = key[side][idx]",
     "for key, r in self.terms.items():\n            e = key[0][idx]",
     [T_MIRROR]),
    ("euler reads key[0] for key[side]", RADIAL,
     "e = sum(key[side]) - s\n",
     "e = sum(key[0]) - s\n",
     [T_MIRROR]),
    ("R' raises its own side", RADIAL,
     "nk[1 - side] = _bump(key[1 - side], idx, 1)\n                _merge(",
     "nk[side] = _bump(key[side], idx, 1)\n                _merge(",
     [T_DERIV]),
    ("derivative drops the factor e", RADIAL,
     "_merge(out, tuple(nk), r.derivative_scale(e))",
     "_merge(out, tuple(nk), r)",
     [T_DERIV]),
    # the kernel against the constraint in closed form
    ("falling factorial drops its shift", RADIAL,
     "e = sum(key[side]) - s\n",
     "e = sum(key[side])\n",
     [T_J_RADIAL, T_LETTERS]),
    ("J^(r) taken one derivative short", RADIAL,
     "        j = j.derivative()\n",
     "        j = j.derivative() if r else j\n",
     [T_J_RADIAL, T_LETTERS]),
    ("factor 2^r/r! dropped", RADIAL,
     "parts.append(j.scale(Fraction(2 ** r, factorial(r))))",
     "parts.append(j)",
     [T_J_RADIAL, T_LETTERS]),
    ("flat kernel against p_n reads d/dp_n", FLAT,
     "return f.partial(f.dim - 1).scale(HALF_I)",
     "return f.partial(2 * f.dim - 1).scale(HALF_I)",
     [T_J_FLAT]),
    # forward substitution, shared by T and apply_inverse
    ("forward substitution adds for subtracts", REDUCTION,
     "h = h - op(pres[m - k], k)",
     "h = h + op(pres[m - k], k)",
     [T_NEUMANN]),
    ("forward substitution reads the quotient of the wrong order", REDUCTION,
     "h = h - op(pres[m - k], k)",
     "h = h - op(pres[k - 1], k)",
     [T_NEUMANN]),
    ("reduce_star_series skips apply_inverse", REDUCTION,
     "return s_inverse(prol_transfer_star(setup, s(fs), s(gs)))",
     "return prol_transfer_star(setup, s(fs), s(gs))",
     [T_INTERTWINER]),
    ("transfer run holds a copy of its input", REDUCTION,
     "chain((f,), repeat(setup.zero))",
     "chain((f.scale(1),), repeat(setup.zero))",
     [T_RUNS]),
    # classical admissibility, i{J, f} = M_1(J, f) - M_1(f, J)
    ("admissibility adds M_1(f, J)", REDUCTION,
     "setup.prol(setup.kernel(setup.j, f, 1) - setup.j_kernel(f, 1))",
     "setup.prol(setup.kernel(setup.j, f, 1) + setup.j_kernel(f, 1))",
     T_REFUSALS),
    # the checks of a phase setup
    ("setup skips the prol(j) == 0 check", REDUCTION,
     "if not prol(j).is_zero():",
     "if False:",
     [T_SETUP]),
    ("setup skips the pij(j) == one check", REDUCTION,
     "if pij(j) != self.one:",
     "if False:",
     [T_SETUP]),
    # polynomials in u
    ("u^k gcd takes max for min", SCALAR,
     "return UPoly.u(min(va, vb))",
     "return UPoly.u(max(va, vb))",
     [T_GCD]),
    ("exact_div skips its remainder check", SCALAR,
     "q, r = self.divmod(other)\n        if not r.is_zero():",
     "q, r = self.divmod(other)\n        if False:",
     [T_DIVMOD, T_EXACT]),
    ("valuation off by one", SCALAR,
     "            if c or im and im[k]:\n                return k\n",
     "            if c or im and im[k]:\n                return k + 1\n",
     [T_GCD, T_EXACT, T_RADIAL_REF]),
    # RadialRational's cancellation by valuation and against the radical
    ("radical cancel loop runs once", SCALAR,
     "while g.degree() > 0:",
     "if g.degree() > 0:",
     [T_RADIAL_REF]),
    ("u valuation cancel takes max for min", SCALAR,
     "k = min(num._valuation(), den._valuation())",
     "k = max(num._valuation(), den._valuation())",
     [T_RADIAL_REF]),
    # UPoly's integer arithmetic over one denominator
    ("complex product cross term sign flipped", SCALAR,
     "re[k] += x * y - xi * yi",
     "re[k] += x * y + xi * yi",
     [T_REF]),
    ("content gcd after a sum skipped", SCALAR,
     "return _reduced(re, im, d, g)",
     "return _reduced(re, im, d, 1)",
     [T_REF]),
    ("u^k slice of exact_div off by one", SCALAR,
     "return _over(re[k:], None if im is None else im[k:], other._den,",
     "return _over(re[k + 1:], None if im is None else im[k + 1:], other._den,",
     [T_EXACT, T_REF]),
    ("pseudo-division quotient drops its lead powers", SCALAR,
     "            qi.append(ci * p)\n            p *= lb\n",
     "            qi.append(ci * p)\n            p *= 1\n",
     [T_REF]),
    ("pseudo-remainder skips the scaling by the lead", SCALAR,
     "        if lb != 1:\n            rem = list(map(lb.__mul__, rem))",
     "        if False:\n            rem = list(map(lb.__mul__, rem))",
     [T_DIVMOD, T_REF]),
    ("gcd stops at a constant remainder without returning 1", SCALAR,
     "return UPoly.of(1)  # a nonzero constant remainder: coprime",
     "pass  # a nonzero constant remainder: coprime",
     [T_REF]),
    ("Horner drops the denominator of the point", SCALAR,
     "            p *= xd\n",
     "            p *= 1\n",
     [T_REF]),
    # the quadratic coefficient table
    ("quadratic row drops R", CPN,
     "after = p(h) if before is None else r(before) + p(h)",
     "after = p(h)",
     [T_QUAD]),
    ("quadratic row swaps the letters", CPN,
     "after = p(h) if before is None else r(before) + p(h)",
     "after = r(h) if before is None else p(before) + r(h)",
     [T_QUAD]),
    ("letters' shared quotient ignores its argument", CPN,
     "if last[0] is not f:",
     "if last[0] is None:",
     [T_QUAD, T_LETTERS]),
    ("letters take a quotient on every call", CPN,
     "if last[0] is not f:",
     "if True:",
     [T_ROW]),
    ("table cell read off by one", CPN,
     "return _quadratic_row(k, l + 1)[l]",
     "return _quadratic_row(k, l + 2)[l + 1]",
     [T_CELLS]),
    ("quadratic rows off the unit sphere", CPN,
     "_operator_row(RadialConstraint.quadratic(Fraction(-1, 2)), 1, k, n)",
     "_operator_row(RadialConstraint.quadratic(Fraction(-1)), 1, k, n)",
     [T_QUAD]),
    ("operator table drops its scale a^(k+l)", CPN,
     "return constraint.sphere_u ** (k + l) * _operator_row(",
     "return 1 * _operator_row(",
     [T_OPERATOR]),
    # prolongation, shared by the radial setups and their jets
    ("prolongation power off by one", RADIAL,
     "return RadialRational.u_power(-h).scale(",
     "return RadialRational.u_power(1 - h).scale(",
     [T_PROL]),
    ("pij divides f, not f - prol f", RADIAL,
     "g = f - prol(f, constraint)",
     "g = f",
     [T_PIJ, T_DECOMPOSITION]),
    # the order-2 obstruction from one Wick commutator
    ("obstruct commutator adds for subtracts", CPN,
     "comm = wick_product(f, g, 2) - wick_product(g, f, 2)",
     "comm = wick_product(f, g, 2) + wick_product(g, f, 2)",
     [T_OBSTRUCT]),
    ("obstruct transfers against lin twice", CPN,
     "lhs = second(quad) - second(lin)",
     "lhs = second(lin) - second(lin)",
     [T_OBSTRUCT]),
    ("obstruct reads order 1 of the transfer", CPN,
     "return prol_transfer(setup, comm)[2]",
     "return prol_transfer(setup, comm)[1]",
     [T_OBSTRUCT]),
    ("obstruct's bracket read off comm[2]", CPN,
     "rhs = (RadialFun.u(f.dim) * comm[1])",
     "rhs = (RadialFun.u(f.dim) * comm[2])",
     [T_OBSTRUCT] + T_GOLDEN_OBSTRUCT),
    # prol(T(series)) on Taylor jets at the sphere: the generic loops on the
    # jet setup, and the lengths, conversions and maps of SphereJets and Jet.
    # A fault in the shared loops reaches the jets and the generic path
    # alike, so the tests named for it hold that code to an oracle of its own
    ("jet one coefficient short", RADIAL,
     "n = 2 * (self.order - m) + 1",
     "n = 2 * (self.order - m)",
     [T_JETS]),
    ("dim-1 fold takes t for u = a + t", SCALAR,
     "UPoly((cls.a, 1))",
     "UPoly((0, 1))",
     [T_JETS]),
    ("jet pij drops the (a/u)^h factor of x(0)", RADIAL,
     "p = p - self.prolonged(h, n).scale(c0)",
     "p = p - self.prolonged(0, n).scale(c0)",
     [T_JETS]),
    ("Euler step shift off by one", RADIAL,
     "e = sum(key[side]) - s\n",
     "e = sum(key[side]) - s - 1\n",
     [T_J_RADIAL]),
    # the Wick product on jets from the factors, through pairing_kernel
    ("kernel weight 2^r/r! for 2^r/k!", SCALAR,
     "df._product_into(out, dg, _weight(weight, r, sign, den))",
     "df._product_into(out, dg, _weight(weight, r, sign, factorial(r)))",
     [T_WICK]),
    ("dim-1 product fold one coefficient short", SCALAR,
     ".truncated(cls.top), cls.top)",
     ".truncated(cls.top), cls.top - 1)",
     [T_JET_STAR]),
    ("jet product length n1 + n2 - N - 1", SCALAR,
     "n = self.n + other.n - self.top",
     "n = self.n + other.n - self.top - 1",
     [T_JET_STAR, T_JET_RING]),
    ("jet sum takes max for min", SCALAR,
     "n = min(n, other.n)",
     "n = max(n, other.n)",
     [T_JET_RING]),
    # RadialFun.is_zero on integer cells
    ("integer cells drop the imaginary part", RADIAL,
     "y = im[k - shift] if im is not None else 0",
     "y = 0",
     [T_IS_ZERO]),
    ("power-of-u shift off by one", RADIAL,
     "nums = [(r.num, top - r.den.degree()) for _, r in terms]",
     "nums = [(r.num, top - r.den.degree() - 1) for _, r in terms]",
     [T_IS_ZERO]),
    # the table parser of the command line against argparse
    ("table parser takes a separate value that starts with -", CLI,
     'if value.startswith("-"):',
     "if False:",
     [T_TABLE]),
    ("table parser skips the check of the allowed values", CLI,
     "if value not in kind:",
     "if False:",
     [T_TABLE]),
    ("table parser reads a second -- as a positional", CLI,
     "if ended:",
     "if False:",
     [T_TABLE]),
    ("--mu admits one digit past its cap", CLI,
     "if _mu_digits(text) <= MAX_MU_DIGITS:",
     "if _mu_digits(text) <= MAX_MU_DIGITS + 1:",
     [T_SCALAR_CAPS]),
    ("expression integers admit one bit past their cap", CLI,
     "if bits > MAX_BITS:",
     "if bits > MAX_BITS + 1:",
     [T_SCALAR_CAPS]),
    ("integer literals admit one digit past their cap", CLI,
     "if len(text) > MAX_DIGITS:",
     "if len(text) > MAX_DIGITS + 1:",
     [T_SCALAR_CAPS]),
]


def apply_mutant(src, path, old, new):
    """Replace the one occurrence of old in src/path; False if it is not one."""
    target = Path(src) / path
    text = target.read_text()
    if text.count(old) != 1:
        return False
    target.write_text(text.replace(old, new))
    return True


def run_tests(src, tests, workdir):
    """True when every named test passes against the costar package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--hypothesis-profile=mutants"]
    # the working directory holds hypothesis's example database
    try:
        done = subprocess.run(cmd + [str(ROOT / t) for t in tests], cwd=workdir,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the tests is caught too
    return done.returncode == 0


def _workdir(tmp, name):
    # a fresh working directory, so that no two test runs share hypothesis's
    # example database
    work = Path(tmp) / name
    work.mkdir()
    return work


def judge(tmp, pristine, n, mutant):
    """Apply mutant number n to a copy of the pristine source and run its
    tests: "killed", "survived" or "STALE"."""
    _, path, old, new, tests = mutant
    src = Path(tmp) / ("m%d" % n)
    shutil.copytree(pristine, src)
    try:
        if not apply_mutant(src, path, old, new):
            return "STALE"
        return "survived" if run_tests(src, tests, _workdir(tmp, "w%d" % n)) else "killed"
    finally:
        shutil.rmtree(src)


def main():
    survivors = []
    with tempfile.TemporaryDirectory(prefix="costar-mutants-") as tmp:
        pristine = Path(tmp) / "pristine"
        shutil.copytree(ROOT / "src", pristine,
                        ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({t for m in MUTANTS for t in m[4]})
        with ThreadPoolExecutor(JOBS) as pool:
            # every named test on the unmutated source, split over the jobs
            parts = list(pool.map(lambda i: run_tests(pristine, every[i::JOBS],
                                                      _workdir(tmp, "p%d" % i)),
                                  range(JOBS)))
            if not all(parts):
                print("the named tests fail on the unmutated source; nothing to measure")
                return 2
            # map yields the verdicts in the order of MUTANTS
            verdicts = pool.map(lambda job: judge(tmp, pristine, *job),
                                enumerate(MUTANTS))
            for (name, *_), verdict in zip(MUTANTS, verdicts):
                print("%-8s %s" % (verdict, name), flush=True)
                if verdict != "killed":
                    survivors.append(name)
    if survivors:
        print("%d of %d mutants not killed: %s"
              % (len(survivors), len(MUTANTS), "; ".join(survivors)))
        return 1
    print("all %d mutants killed" % len(MUTANTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
