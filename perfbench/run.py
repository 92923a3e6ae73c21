"""robinshape benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (map-laplace, mala-desk or mala-surrogate) in this process
and prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics ``setup_s``, ``op_s`` and ``peak_rss_mb``,
measured untraced; with ``--trace 1`` each operation runs untraced and then
traced, and the metrics are the per-layer figures of the traced runs plus the
tracing overhead.  A
traced run also writes its spans to ``perfbench/out/``.  ``--seconds 1`` is
the smoke mode: every workload and check at reduced length.

Run it from a checkout: it benchmarks ``<checkout>/src/robinshape`` and exits
with status 2 when that is missing.
"""
from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import benchenv  # noqa: E402

SETUP_REPEATS = 3   # this process plus two fresh ones; setup_s is their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description="robinshape benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("map-laplace", "mala-desk", "mala-surrogate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up in a fresh process and exit")
    return parser.parse_args(argv)


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        benchenv.use_checkout_sources()
    except benchenv.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    out_dir = benchenv.OUT / args.workload
    if args.setup_only:
        out_dir = out_dir / "setup"
    workload = workload_cls(args.seed, out_dir)
    workload.setup()
    setup_s = perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    ops = workload.run(args.seconds, tracer)
    workloads.report_failures(ops)
    good = [op for op in ops if op.ok]

    timed_ops = good or ops
    print(f"perfbench: {len(ops)} operations, median wall time "
          f"{statistics.median(op.wall for op in timed_ops):.4f} s", file=sys.stderr)
    if tracer is None:
        # A round is a fixed set of operations, and the 30 map-laplace cases
        # differ in cost: a round's mean weighs each case the same in every
        # run, where the median of one round jumps between cases.
        rounds = {}
        for op in timed_ops:
            rounds.setdefault(op.round, []).append(op.scaled)
        metrics = {
            "op_s": (statistics.median(statistics.fmean(r) for r in rounds.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = (statistics.median(setups), "s")
    else:
        untraced = sum(op.wall for op in ops)
        overhead = 100.0 * (sum(op.traced_wall for op in ops) - untraced) / untraced
        infos = [op.info for op in timed_ops]
        metrics = tracing.layer_metrics(tracer, len(ops), overhead, infos)
        tracer.write(benchenv.OUT / f"trace-{args.workload}-seed{args.seed}.csv")

    result = {"correct": bool(good), "attempted": len(ops), "failed": len(ops) - len(good),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
