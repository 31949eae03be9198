"""Benchmark of the costar engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the engine is imported from
./src, never from an installed copy.  Each workload is a closed loop with
one caller: a seeded list of operations (one pass) is repeated whole until
the operations have taken --seconds.  The operations run in opserver.py,
a process that holds only the engine and the workload's set-up and forks
one process per operation.  After the measured loop, every output is
checked in this process, outside every measured region: by the sympy
oracle in a separate process (oracle.py), and by the property checks and
the printed-output round trip in workloads.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the engine is wrapped layer by layer
(layertrace.py), one extra pass runs under cProfile for the scalar layer, the
per-layer metrics are printed per pass, and the full trace is written to
perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ORACLE = os.path.join(HERE, "oracle.py")
OPSERVER = os.path.join(HERE, "opserver.py")
SETUP_PROBES = 7
ORACLE_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def check_source():
    if not os.path.isfile(os.path.join(SRC, "costar", "__init__.py")):
        raise BenchError("no engine source at %s" % os.path.join(SRC, "costar"))


def import_engine():
    """Put ./src first on the path and check costar really comes from it."""
    check_source()
    sys.path.insert(0, SRC)
    import costar

    where = os.path.dirname(os.path.abspath(costar.__file__))
    if where != os.path.join(SRC, "costar"):
        raise BenchError("costar imported from %s, not from %s" % (where, SRC))


def compile_sources():
    """Write bytecode for the engine and the benchmark, so set-up times
    imports from bytecode whether or not the environment lets Python write
    it (PYTHONDONTWRITEBYTECODE)."""
    check_source()
    for path in (SRC, HERE):
        if not compileall.compile_dir(path, quiet=1):
            raise BenchError("cannot compile the sources under %s" % path)


def server_cmd(workload, seed, trace):
    return [sys.executable, OPSERVER, workload, str(seed), str(int(trace))]


def probe_setup(workload, seed):
    """One set-up in a fresh interpreter, timed from process start."""
    start = perf_counter()
    with subprocess.Popen(server_cmd(workload, seed, False), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed


class OpServer:
    """opserver.py, serving one operation at a time."""

    def __init__(self, workload, seed, trace):
        self.proc = subprocess.Popen(server_cmd(workload, seed, trace),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        if self.proc.stdout.readline().strip() != "READY":
            self.close()
            raise BenchError("op server failed to start (exit %s)" % self.proc.returncode)

    def run(self, i, profile=False):
        self.proc.stdin.write(json.dumps({"i": i, "profile": profile}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("op server died (exit %s)" % self.proc.wait())
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_passes(server, indices, seconds, between=None, profile=False):
    """Whole passes over the ops at indices until --seconds of operations
    have run.

    Returns (records, passes, busy), busy being the wall time spent on the
    operations, fork and pipes included.  between(busy) runs after each
    operation, outside the measured time.
    """
    records = []
    passes = 0
    busy = 0.0
    while True:
        for i in indices:
            start = perf_counter()
            records.append(server.run(i, profile))
            busy += perf_counter() - start
            if between is not None:
                between(busy)
        passes += 1
        if busy >= seconds:
            break
    return records, passes, busy


class SetupProbes:
    """Set-up probes spread over the run, so that the median set-up time
    sees the same machine conditions as the operations do."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed = workload, seed
        self.step = max(seconds, 1.0) / SETUP_PROBES
        self.times = [probe_setup(workload, seed)]
        self.next = self.step

    def __call__(self, busy):
        if busy >= self.next:
            self.times.append(probe_setup(self.workload, self.seed))
            self.next += self.step

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.times.append(probe_setup(self.workload, self.seed))
        return statistics.median(self.times)


# ---------------------------------------------------------------------------
# checking


def distinct(pairs):
    """The distinct (operation, output) pairs, and each pair's index among
    them; passes repeat the same operations, so most outputs repeat."""
    keys, uniq, index = {}, [], []
    for op, rec in pairs:
        key = json.dumps([op, rec["result"]], sort_keys=True)
        if key not in keys:
            keys[key] = len(uniq)
            uniq.append((op, rec["result"]))
        index.append(keys[key])
    return uniq, index


def oracle_verdicts(uniq):
    """Run the sympy oracle over distinct (operation, output) pairs."""
    if not any(op["kind"] in ("reduce", "coeffs", "obstruct") for op, _ in uniq):
        return True, [None] * len(uniq)
    payload = json.dumps({"ops": [op for op, _ in uniq],
                          "results": [r for _, r in uniq]})
    proc = subprocess.run([sys.executable, ORACLE], input=payload, text=True,
                          capture_output=True, timeout=ORACLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("oracle failed: %s" % proc.stderr.strip()[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["selftest"], out["verdicts"]


def output_ok(op, result, verdict):
    """A completed output agrees with the oracle, the properties and the
    printed-output round trip."""
    ok = verdict is not False and workloads.reparse_ok(op, result)
    if op["kind"] == "flat":
        ok = ok and workloads.check_flat(op, result)
    return ok


def check_records(pairs):
    """Check every (operation, record) pair; returns (attempted, failed, correct).

    An operation fails if the engine did not complete it or if its output
    is wrong; correct is false if any completed output is wrong, if the
    oracle does not reproduce the frozen table cells, or if the quadratic
    table changes with mu.
    """
    uniq, index = distinct(pairs)
    selftest, verdicts = oracle_verdicts(uniq)
    good = [result.get("rc") != 0 or output_ok(op, result, verdict)
            for (op, result), verdict in zip(uniq, verdicts)]
    failed = wrong = 0
    for (op, rec), j in zip(pairs, index):
        if rec["result"].get("rc") != 0:
            failed += 1
        elif not good[j]:
            failed += 1
            wrong += 1
    mu_free = workloads.check_quadratic_mu_independence(
        [op for op, _ in pairs], [rec["result"] for _, rec in pairs])
    return len(pairs), failed, wrong == 0 and selftest and mu_free


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, busy, setup_s):
    times = [r["t"] for r in records if "t" in r]
    rss = [r["rss_kb"] for r in records if "rss_kb" in r]
    return {
        "ops_per_s": metric(len(records) / busy, "ops/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(max(rss) / 1024.0, "MB"),
    }


def _sum_maps(maps):
    out = {}
    for m in maps:
        for k, v in m.items():
            out[k] = out.get(k, 0) + v
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_pass(records, passes, table):
    """One table of the op traces summed over the run, per pass.  Passes
    are identical, so integer counts divide exactly."""
    total = _sum_maps(r["trace"][table] for r in records if "trace" in r)
    return {k: v // passes if isinstance(v, int) else v / passes
            for k, v in total.items()}


def profile_totals(prof_records):
    return _sum_maps({k: v for k, v in r["profile"].items() if k != "profiled_calls"}
                     for r in prof_records if "profile" in r)


def max_coeff_bits(pairs):
    return max((workloads.max_coeff_bits(op, rec["result"]) for op, rec in pairs
                if rec["result"].get("rc") == 0), default=0)


def per_layer(records, passes, prof_records, bits):
    """Per-pass layer metrics; counts are exact, times are pass averages."""
    calls = per_pass(records, passes, "calls")
    self_s = per_pass(records, passes, "self_s")
    total_s = per_pass(records, passes, "total_s")
    group_s = per_pass(records, passes, "group_s")
    counts = per_pass(records, passes, "counts")
    prof = profile_totals(prof_records)

    def count(value):
        return metric(value, "count")

    def c(name):
        return count(calls.get(name, 0))

    def s(table, name):
        return metric(table.get(name, 0.0), "s")

    def share(part):
        return metric(_ratio(prof.get(part, 0.0), prof.get("total_s", 0.0)), "ratio")

    def hit_ratio(calls, misses):
        n = prof.get(calls, 0)
        return metric(_ratio(n - prof.get(misses, 0), n), "ratio")
    return {
        "reduction.reduce_star.calls": c("reduction.reduce_star"),
        "reduction.reduce_star.s": s(total_s, "reduction.reduce_star"),
        "reduction.star_series.calls": c("reduction.star_series"),
        "reduction.star_series.self_s": s(self_s, "reduction.star_series"),
        "reduction.transfer_apply.calls": c("reduction.transfer_apply"),
        "reduction.transfer_apply.self_s": s(self_s, "reduction.transfer_apply"),
        "reduction.in_istar.calls": c("reduction.in_istar"),
        "radialphase.pij.calls": c("radialphase.pij"),
        "radialphase.pij.self_s": s(self_s, "radialphase.pij"),
        "radialphase.prol.calls": c("radialphase.prol"),
        "radialphase.prol.self_s": s(self_s, "radialphase.prol"),
        "radialphase.wick_kernel.calls": c("radialphase.wick_kernel"),
        "radialphase.wick_kernel.self_s": s(self_s, "radialphase.wick_kernel"),
        "radialphase.expansion.calls": c("radialphase.expansion"),
        "radialphase.expansion.self_s": s(self_s, "radialphase.expansion"),
        "radialphase.dcache.hit_ratio":
            hit_ratio("radial_dcache_calls", "radial_dcache_misses"),
        "flatphase.moyal_kernel.calls": c("flatphase.moyal_kernel"),
        "flatphase.moyal_kernel.self_s": s(self_s, "flatphase.moyal_kernel"),
        "flatphase.pij.calls": c("flatphase.pij"),
        "flatphase.partial.calls": count(prof.get("flat_partial_calls", 0)),
        "flatphase.dcache.hit_ratio": hit_ratio("flat_partial_calls",
                                                "flat_partial_misses"),
        "scalar.radial_rational_new.calls": count(prof.get("radial_rational_new", 0)),
        "scalar.upoly_gcd.calls": count(prof.get("upoly_gcd", 0)),
        "scalar.upoly_divmod.calls": count(prof.get("upoly_divmod", 0)),
        "scalar.canonical_share": share("canonical_s"),
        "scalar.gaussian_new.calls": count(prof.get("gaussian_new", 0)),
        "scalar.fraction_new.calls": count(prof.get("fraction_new", 0)),
        "scalar.upoly_mul.calls": count(prof.get("upoly_mul", 0)),
        "scalar.self_share": share("scalar_self_s"),
        "cpn.b_coeff_engine.calls": c("cpn.b_coeff_engine"),
        "cpn.b_coeff_engine.s": s(total_s, "cpn.b_coeff_engine"),
        "cpn.pr_letter.calls": c("cpn.pr_letter"),
        "cli.parse.s": s(group_s, "cli.parse"),
        "cli.print.s": s(group_s, "cli.print"),
        "radialphase.out_terms": count(counts.get("radialphase.out_terms", 0)),
        "scalar.max_coeff_bits": metric(bits, "bits"),
    }


def trace_file(workload, seed, records, passes, busy, prof_records):
    """Everything the traced run saw, for reading layer by layer."""
    profiled = _sum_maps(r["profile"]["profiled_calls"] for r in prof_records
                         if "profile" in r)
    wrapped = _sum_maps(r["trace"]["calls"] for r in prof_records if "trace" in r)
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "ops": len(records),
        "traced_ops_per_s": len(records) / busy,
        "per_pass": {
            table: per_pass(records, passes, table)
            for table in ("calls", "self_s", "total_s", "group_s", "counts",
                          "by_r", "by_m")
        },
        "profile_pass": {
            "ops": len(prof_records),
            "totals": profile_totals(prof_records),
            "wrapper_calls": {k: wrapped.get(k, 0) for k in profiled},
            "cprofile_calls": profiled,
        },
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="costar engine benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def bench(ns):
    os.environ.pop("COSTAR_THREADS", None)
    compile_sources()
    import_engine()
    ops = workloads.WORKLOADS[ns.workload](ns.seed)
    every = range(len(ops))
    if not ns.trace:
        probes = SetupProbes(ns.workload, ns.seed, ns.seconds)
        with OpServer(ns.workload, ns.seed, False) as server:
            records, passes, busy = run_passes(server, every, ns.seconds,
                                               between=probes)
        attempted, failed, correct = check_records(list(zip(ops * passes, records)))
        metrics = end_to_end(records, busy, probes.median())
        print("%s: %d passes of %d ops in %.1f s" % (ns.workload, passes, len(ops), busy),
              file=sys.stderr)
    else:
        stride = workloads.PROFILE_STRIDE[ns.workload]
        with OpServer(ns.workload, ns.seed, True) as server:
            records, passes, busy = run_passes(server, every, ns.seconds)
            prof_records, _, _ = run_passes(server, every[::stride], 0, profile=True)
        prof_ops = ops[::stride]
        pairs = list(zip(ops * passes, records))
        attempted, failed, correct = check_records(pairs + list(zip(prof_ops,
                                                                    prof_records)))
        metrics = per_layer(records, passes, prof_records, max_coeff_bits(pairs))
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-%d.json" % (ns.workload, ns.seed))
        with open(path, "w") as fh:
            json.dump(trace_file(ns.workload, ns.seed, records, passes, busy,
                                 prof_records), fh, indent=1, sort_keys=True)
        print("%s: traced %d passes of %d ops in %.1f s; trace in %s"
              % (ns.workload, passes, len(ops), busy, os.path.relpath(path, ROOT)),
              file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ns = parse_args(argv)
    try:
        out = bench(ns)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
