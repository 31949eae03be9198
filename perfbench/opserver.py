"""The process that sets a workload up and runs its operations.

    python3 perfbench/opserver.py <workload> <seed> <trace 0|1>

It imports only the engine (from ./src) and workloads.py, and layertrace.py
when traced, none of run.py's harness.  It builds the workload's set-up,
prints READY, and then serves requests read from standard input, one JSON
line each: {"i": <index of the op in the pass>, "profile": <bool>}.  Each
operation runs in a process forked from this one, so it starts from the
state of a fresh `costar` invocation plus its prepared inputs, and no memo
filled by an earlier operation.  Its record (time, peak RSS, output and,
when traced, the layer trace) goes back as one JSON line.  End of input
ends the server.

run.py times this program from process start to READY as the set-up time.
The peak RSS of an op process is the interpreter, the engine and the op's
inputs and working set; the harness and its records live in run.py's
process.
"""

import json
import os
import resource
import signal
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

OP_TIMEOUT_S = 120


def in_child(fn):
    """Run fn() in a forked process and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            signal.alarm(OP_TIMEOUT_S)
            try:
                data = json.dumps(fn())
            except Exception as exc:  # an engine crash is a failed op
                data = json.dumps({"rc": -1, "error": repr(exc)})
            with os.fdopen(wfd, "w") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        data = json.dumps({"rc": -1, "error": "op process died (status %d)" % status})
    record = json.loads(data)
    if "result" not in record:
        record = {"result": record}
    return record


def op_body(op, prepared, tracer=None, originals=None, profile=False):
    """The function a forked process runs for one operation."""

    def body():
        if tracer is not None:
            tracer.reset()
        prof = None
        start = perf_counter()
        if profile:
            import layertrace
            result, prof = layertrace.profiled(lambda: workloads.run_op(op, prepared))
        else:
            result = workloads.run_op(op, prepared)
        elapsed = perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {"t": elapsed, "rss_kb": rss_kb, "result": result}
        if tracer is not None:
            record["trace"] = tracer.export()
        if prof is not None:
            record["profile"] = layertrace.profile_summary(prof, originals)
        return record

    return body


def serve(workload, seed, trace):
    tracer = originals = None
    if trace:
        # wrappers go in before any PhaseSetup is built
        import layertrace
        tracer = layertrace.Tracer()
        originals = layertrace.install(tracer)
    ops = workloads.WORKLOADS[workload](seed)
    prepared = workloads.prepare(ops)
    print("READY", flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        i = req["i"]
        body = op_body(ops[i], prepared[i], tracer, originals, req["profile"])
        print(json.dumps(in_child(body)), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
