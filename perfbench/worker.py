"""One cold round of one workload, in a fresh interpreter.

Started by run.py as
    python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]
The program's caches are module-level dicts keyed by id(), so only a
fresh process gives a cold run.  Prints one JSON object on its last line;
a traced round also writes its spans to perfbench/out/spans-W.jsonl.

setup_s is the process CPU time from interpreter start to inputs ready
(interpreter, imports, inputs).  CPU time rather than wall time: a
0.2 s wall interval on a shared 2-CPU box moves by half between runs.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from mpmath import mp
    mp.prec = 256  # before the workload module builds its constants
    import stokeswb
    if os.path.dirname(os.path.abspath(stokeswb.__file__)) != os.path.join(ROOT, "src", "stokeswb"):
        sys.exit(f"stokeswb imported from {stokeswb.__file__}, not from this checkout")
    import checks
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    inputs = setup(args.seed)
    out = {"setup_s": time.process_time()}
    if not args.setup_only:
        ops = checks.Operations()
        w0, c0 = time.perf_counter(), time.process_time()
        run(inputs, ops)
        out.update(
            run_s=time.perf_counter() - w0,
            run_cpu_s=time.process_time() - c0,
            digits=ops.worst_digits or 0.0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=ops.attempted,
            failed=ops.failed,
            failures=ops.failures[:10],
        )
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.layer_metrics()
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tracer.write_spans(os.path.join(HERE, "out", f"spans-{args.workload}.jsonl"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
