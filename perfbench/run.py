"""Benchmark of the stokeswb pipeline: time to a checked result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each in a fresh single-threaded
interpreter at 256 bits (the program's caches are module-level dicts,
so a second round in one process would be warm).  Rounds repeat one
after another, a closed loop with one client, until another round would
end past S seconds; at least one round runs.  Every output is checked
against a reference computed apart from the program (see checks.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with --trace 0 the end-to-end
metrics (medians over the rounds), with --trace 1 the per-layer metrics
of traced rounds (alternating with untraced rounds) plus the tracing
overhead.  Spans of the last traced round go to perfbench/out/.  The
exit code is non-zero when any operation failed or the program could
not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("gamma-crossing", "gamma-dense-z", "borel-resum", "form-setup")
ROUND_TIMEOUT = 150
SETUP_SAMPLES = 7

# median over the rounds of a run; setup_s is taken apart
END_TO_END = {"run_s": "s", "run_cpu_s": "s", "digits": "digits", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def worker(workload, seed, *flags):
    """Run one round in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("STOKES_WB_PRECISION", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def rounds(workload, seed, seconds, traced):
    """Rounds until the next would end past `seconds`; (plain, traced) lists."""
    start = time.monotonic()
    plain, with_trace, walls = [], [], []
    while True:
        t = time.monotonic()
        if traced and len(with_trace) < len(plain):
            with_trace.append(worker(workload, seed, "--trace"))
        else:
            plain.append(worker(workload, seed))
        walls.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            if not traced or with_trace:
                return plain, with_trace


def metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "stokeswb", "__init__.py")):
        sys.exit(f"no stokeswb sources under {ROOT}/src")

    try:
        plain, traced = rounds(args.workload, args.seed, args.seconds, args.trace)
        setup = [r["setup_s"] for r in plain]
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(worker(args.workload, args.seed, "--setup-only")["setup_s"])
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        sys.exit(f"{args.workload}: {exc}")

    done = plain + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    for r in done:
        for msg in r["failures"]:
            print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        metrics = {name: metric([r["layers"][name]["value"] for r in traced],
                                traced[0]["layers"][name]["unit"])
                   for name in traced[0]["layers"]}
        metrics["trace_overhead_s"] = {
            "value": statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain), "unit": "s"}
    else:
        metrics = {"setup_s": metric(setup, "s")}
        for name, unit in END_TO_END.items():
            metrics[name] = metric([r[name] for r in plain], unit)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
