"""Benchmark of softdyn's four pipelines, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep|trng|battery|reservoir \
        --seed N --seconds S --trace 0|1

With --trace 0 it repeats whole rounds of the workload's operations for
about S seconds (at least one round) and prints the end-to-end metrics of
the fastest round.
With --trace 1 it runs one round untraced and one traced, and prints the
per-layer metrics.  Either way it then checks the program's outputs, and
its last line of output is one JSON object: correct, attempted, failed and
metrics.  Run outputs go to .perfbench/<workload>/ in the checkout.
"""

import time

# Set-up is timed from the process's start: /proc gives the part before this
# line, perf_counter the rest, imports and input generation included.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def since_process_start() -> float:
    """Seconds from this process's start to now, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def timed_round(workload, ops):
    start = time.perf_counter()
    rates = workload.round(ops)
    return time.perf_counter() - start, rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "trng", "battery", "reservoir"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    offset = since_process_start() - (time.perf_counter() - T0)

    if not os.path.isfile(os.path.join(SRC, "softdyn", "cli.py")):
        print(f"error: no softdyn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the sweep runs with the program's default worker count
    os.environ.pop("SOFTDYN_THREADS", None)
    import tracing
    import workloads
    from softdyn import oscillator

    out = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    setup_s = offset + time.perf_counter() - T0
    ops = workloads.Ops()

    if args.trace:
        untraced_s, rates = timed_round(workload, ops)
        tracer = tracing.Tracer()
        tracer.install()
        ops.tracer = tracer
        try:
            traced_s, _ = timed_round(workload, ops)
        finally:
            ops.tracer = None
            tracer.uninstall()
        test_s = dict.fromkeys((t.__name__ for t in workloads.nist_tests()), 0.0)
        if hasattr(workload, "test_times"):
            test_s.update(workload.test_times())
        metrics = tracing.layer_metrics(tracer, test_s)
        metrics.update(tracing.kernel_probe(oscillator))
        metrics.update({name: (0.0, unit) for name, unit in workloads.RATES.items()})
        metrics.update(rates)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        with open(os.path.join(out, "trace.json"), "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    else:
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(timed_round(workload, ops))
            fastest, rates = min(rounds, key=lambda r: r[0])
            if time.perf_counter() - start + fastest > args.seconds:
                break
        metrics = {"wall_s": (fastest, "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
        for name, (value, unit) in rates.items():
            print(f"{name} {value:.6g} {unit} (fastest of {len(rounds)} rounds)")

    try:
        failures = workload.check()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures = [f"output missing or malformed: {exc!r}"]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
