"""Golden output of the command line.

tests/cli_golden.json stores, for each argv, the exit code and the sha256
of the stdout and the stderr that `cli.main` gives for it.  The test
replays every argv in process and compares, so a refactor that changes a
printed byte, a message or an exit code fails here.

The argvs are every command-line op of the benchmark workloads at seed 0
(perfbench/workloads.py), each with and without --json; the commands of
acceptance criterion 9; star and reduce in dim 1 in both radial modes;
`coeffs` argvs that the level check refuses, and where the extents are
reported first; factors that are prolonged but fail only on {J, f}, and
an admissible flat pair in dim 3; the commands that reproduce the paper's
examples (the two coefficient tables, the order-2 obstruction on three
pairs, and the flat reduction beside the Moyal product in one dimension
fewer); dim-1 products whose numerators and denominators in u have
several terms, real and Gaussian, for the printer of polynomials; and `verify --suite all --examples 1` and `--suite membership
--examples 3`.  Help texts and argparse errors are left out: their wording
differs between Python versions.

Regenerate the file, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from costar import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

CRITERION_9 = (
    ["star", "--mode", "flat", "--dim", "2", "--order", "3", "q1^2*p1", "p1 + q2"],
    ["star", "--mode", "radial-linear", "--dim", "2", "--order", "3",
     "z1*zb1", "z2*zb2"],
    ["reduce", "--mode", "radial-quadratic", "--mu=-3/2", "--dim", "2",
     "--order", "3", "z1*zb2/u", "z2*zb1/u"],
    ["reduce", "--mode", "flat", "--dim", "2", "--order", "4", "q1*p1", "q1^2"],
    ["coeffs", "--kind", "linear", "--kmax", "4", "--lmax", "4", "--tsv"],
    ["coeffs", "--kind", "quadratic", "--kmax", "2", "--lmax", "3", "--json"],
    ["star", "--mode", "radial-linear", "--dim", "1", "--order", "2", "z1", "zb1"],
    ["star", "--mode", "flat", "--dim", "2", "--order", "2", "q1*p1", "p1^2"],
    ["reduce", "--mode", "radial-quadratic", "--mu=-3/2", "--dim", "2",
     "--order", "2", "z1*zb2/u", "z2*zb1/u"],
    ["reduce", "--mode", "flat", "--dim", "2", "--order", "2", "--json", "q1", "p1"],
)

DIM_1 = tuple(
    [command, "--mode", mode, "--dim", "1", "--order", "3", "--mu=-3/2", f, g]
    for command in ("star", "reduce")
    for mode in ("radial-linear", "radial-quadratic")
    for f, g in (("z1*zb1/u", "3/2"), ("z1*zb1", "1/u"), ("z1", "zb1"))
)


MU_CHECK = (
    ["coeffs", "--mu=0"],
    ["coeffs", "--kind", "linear", "--mu=1/2"],
    ["coeffs", "--kind", "quadratic", "--kmax", "0", "--mu=0"],
    ["coeffs", "--kmax", "17", "--mu=1"],
)

# refusals that pass f == prol f and fail only on {J, f}, then a flat pair
# that passes both
ADMISSIBILITY = (
    ["reduce", "--mode", "radial-linear", "--dim", "2", "--order", "2",
     "--", "z1^2/u", "1"],
    ["reduce", "--mode", "radial-quadratic", "--dim", "2", "--order", "2",
     "--", "1", "zb1^2/u"],
    ["reduce", "--mode", "flat", "--dim", "2", "--order", "2", "q1", "q2"],
    ["obstruct", "--dim", "2", "--", "z1^2/u", "z2*zb1/u"],
    ["reduce", "--mode", "flat", "--dim", "3", "--order", "4",
     "q1^3*p2 + q2*p1", "p1^3*q2 + q1*p2^2"],
)


# the paper's examples: both coefficient tables, the order-2 obstruction on
# three pairs of degree-0 functions, and a flat reduction from dim 2, which
# prints the Moyal product of the same factors in dim 1
PAPER_EXAMPLES = (
    ["coeffs", "--kind", "linear", "--kmax", "5", "--lmax", "6"],
    ["coeffs", "--kind", "quadratic", "--kmax", "5", "--lmax", "6"],
    ["obstruct", "--dim", "2", "--mu=-1/2", "--", "z1*zb2/u", "z2*zb1/u"],
    ["obstruct", "--dim", "2", "--mu=-1/2", "--", "z1*zb1/u", "z1*zb2/u"],
    ["obstruct", "--dim", "2", "--mu=-1/2", "--", "z2*zb2/u", "z2*zb1/u"],
    ["reduce", "--mode", "flat", "--dim", "2", "--order", "3",
     "q1*p1 + 2*q1^2", "p1^2 - q1"],
    ["star", "--mode", "flat", "--dim", "1", "--order", "3",
     "q1*p1 + 2*q1^2", "p1^2 - q1"],
)


# numerators and denominators with several terms in u, real and Gaussian;
# every other record prints monomials only
MULTI_TERM = (
    ["star", "--mode", "radial-linear", "--dim", "1", "--order", "1",
     "1/(u+1)", "(u+2)/(u^2+1)"],
    ["star", "--mode", "radial-linear", "--dim", "1", "--order", "1",
     "I/(u + I)", "u"],
)


def with_json(argv):
    """argv with --json in place of --tsv, or appended."""
    if "--json" in argv:
        return None
    if "--tsv" in argv:
        return [a if a != "--tsv" else "--json" for a in argv]
    if "--" in argv:
        i = argv.index("--")
        return argv[:i] + ["--json"] + argv[i:]
    return argv + ["--json"]


def golden_argvs():
    """The argvs of the golden file, built from the workloads at seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    argvs = []
    for name in sorted(workloads.WORKLOADS):
        for op in workloads.WORKLOADS[name](0):
            if "argv" in op:
                argvs.append(op["argv"])
    argvs += [list(a) for a in (CRITERION_9 + DIM_1 + MU_CHECK + ADMISSIBILITY
                                + PAPER_EXAMPLES + MULTI_TERM)]
    argvs += [j for j in map(with_json, list(argvs)) if j is not None]
    argvs.append(["verify", "--suite", "all", "--examples", "1"])
    argvs.append(["verify", "--suite", "membership", "--examples", "3"])
    return argvs


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return {"argv": list(argv), "rc": rc, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


# run as a script, the file may not exist yet
RECORDS = json.loads(GOLDEN.read_text()) if __name__ != "__main__" else []


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_cli_output_is_golden(record):
    assert run(record["argv"]) == record


def main(argv):
    if argv != ["--write"]:
        print("usage: python tests/test_cli_golden.py --write", file=sys.stderr)
        return 2
    records = [run(a) for a in golden_argvs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print("wrote %d records to %s" % (len(records), GOLDEN.name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
