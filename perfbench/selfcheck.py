"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout (about five minutes on two cores).
It checks that:

1. a short run (one pass, seed 0) of each workload reports zero failed ops;
2. one changed coefficient in an output is counted as a failed op, for a
   reduced product, a coefficient table and a flat transfer image;
3. the wrappers count as many wick_kernel, moyal_kernel and pij calls as
   cProfile does over the same ops, and a PhaseSetup built before the
   wrappers were installed shows up as a mismatch;
4. op isolation holds: two runs of the same `coeffs` op make the same
   number of pr_letter calls, while a second run in the same process
   makes fewer (the lru_cache memo that forking each op keeps out);
5. two traced runs of the same seed give identical per-layer counts.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import opserver  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(name, ok, detail=""):
    print("SELFCHECK %s: %s%s" % (name, "PASS" if ok else "FAIL",
                                  " (%s)" % detail if detail else ""), flush=True)
    if not ok:
        FAILURES.append(name)


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_runs():
    for workload in ("flat-ideal", "coeff-tables", "sphere-reduce"):
        out = bench(workload, 0)
        ok = out is not None and out["failed"] == 0 and out["correct"]
        check("short run %s" % workload, ok,
              "" if out is None else "attempted %d, failed %d"
              % (out["attempted"], out["failed"]))


def _bump_first_number(text):
    m = workloads.NUMBER.search(text)
    return text[:m.start()] + str(int(m.group()) + 1) + text[m.end():]


def corrupted_outputs():
    cases = []
    ops = workloads.sphere_reduce_ops(0)[:1]
    rec = opserver.in_child(opserver.op_body(ops[0], None))
    bad = copy.deepcopy(rec)
    lines = bad["result"]["stdout"].splitlines()
    lines[-1] = lines[-1].split(": ", 1)[0] + ": " + \
        _bump_first_number(lines[-1].split(": ", 1)[1])
    bad["result"]["stdout"] = "\n".join(lines) + "\n"
    cases.append(("reduce", ops[0], rec, bad))

    ops = workloads.coeff_tables_ops(0)[:1]
    rec = opserver.in_child(opserver.op_body(ops[0], None))
    bad = copy.deepcopy(rec)
    bad["result"]["stdout"] = bad["result"]["stdout"].replace("17/2", "19/2", 1)
    cases.append(("coeffs", ops[0], rec, bad))

    ops = workloads.flat_ideal_ops(0)[:1]
    prepared = workloads.prepare(ops)
    rec = opserver.in_child(opserver.op_body(ops[0], prepared[0]))
    bad = copy.deepcopy(rec)
    pair = bad["result"]["h"][0][0][1]
    pair[0] = str(Fraction(pair[0]) + 1)
    cases.append(("flat", ops[0], rec, bad))

    for kind, op, good, bad in cases:
        attempted, failed, correct = run.check_records([(op, good), (op, bad)])
        check("corrupted %s output counted as failed" % kind,
              attempted == 2 and failed == 1 and not correct,
              "attempted %d, failed %d, correct %s" % (attempted, failed, correct))


def wrapper_counts_match_cprofile():
    from costar.radialphase import RadialConstraint, RadialFun
    from costar.reduction import radial_setup, star_elements

    stale = radial_setup(RadialConstraint.quadratic(Fraction(-1, 2)), 2)
    tracer = layertrace.Tracer()
    originals = layertrace.install(tracer)

    ops = [workloads.sphere_reduce_ops(0)[0], workloads.sphere_reduce_ops(0)[-1],
           workloads.coeff_tables_ops(0)[0], workloads.coeff_tables_ops(0)[-1]]
    flat = workloads.flat_ideal_ops(0)[:1]
    ops += flat
    prepared = [None] * 4 + workloads.prepare(flat)
    for op, prep in zip(ops, prepared):
        rec = opserver.in_child(opserver.op_body(op, prep, tracer=tracer,
                                                 originals=originals, profile=True))
        profiled = rec["profile"]["profiled_calls"]
        wrapped = {k: rec["trace"]["calls"].get(k, 0) for k in profiled}
        check("wrapper vs cProfile counts, %s op" % op["kind"],
              wrapped == profiled and any(profiled.values()),
              json.dumps(wrapped, sort_keys=True))

    f = RadialFun.z(1, 2) * RadialFun.zbar(2, 2)

    def stale_op():
        tracer.reset()
        _, prof = layertrace.profiled(lambda: star_elements(stale, f, f, 2))
        summary = layertrace.profile_summary(prof, originals)
        return {"wrapped": tracer.calls.get("radialphase.wick_kernel", 0),
                "profiled": summary["profiled_calls"]["radialphase.wick_kernel"]}

    out = opserver.in_child(stale_op)["result"]
    check("setup built before wrapping is caught",
          out["wrapped"] != out["profiled"], json.dumps(out, sort_keys=True))
    return tracer


def op_isolation(tracer):
    op = workloads.coeff_tables_ops(0)[0]
    counts = []
    for _ in range(2):
        rec = opserver.in_child(opserver.op_body(op, None, tracer=tracer))
        counts.append(rec["trace"]["calls"].get("cpn.pr_letter", 0))
    check("same pr_letter count on two forked runs of one coeffs op",
          counts[0] == counts[1] > 0, "%s" % counts)
    in_process = []
    for _ in range(2):
        tracer.reset()
        workloads.run_op(op, None)
        in_process.append(tracer.calls.get("cpn.pr_letter", 0))
    check("a second run in one process reuses the memo",
          in_process[1] < in_process[0] == counts[0], "%s" % in_process)


def traced_counts_repeat():
    for workload in ("flat-ideal", "coeff-tables", "sphere-reduce"):
        a, b = bench(workload, 1), bench(workload, 1)
        ok = a is not None and b is not None
        if ok:
            ca = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] == "count"}
            cb = {k: v["value"] for k, v in b["metrics"].items() if v["unit"] == "count"}
            ok = ca == cb and a["failed"] == b["failed"] == 0
        check("two traced runs give identical counts, %s" % workload, ok)


def main():
    run.import_engine()
    short_runs()
    corrupted_outputs()
    tracer = wrapper_counts_match_cprofile()
    op_isolation(tracer)
    traced_counts_repeat()
    print("SELFCHECK %s" % ("FAILED: " + ", ".join(FAILURES) if FAILURES else "ALL PASS"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
