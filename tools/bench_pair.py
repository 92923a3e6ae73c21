"""Write the before/after BENCH files of a performance change.

    python3 tools/bench_pair.py --parent PARENT_CHECKOUT --label NAME \
        [--change CHANGE_CHECKOUT] [--seeds 31 32 33] [--seconds 25] \
        [--workloads map-laplace mala-desk mala-surrogate] \
        [--traced mala-desk:31] [--machine "2-core shared VM"] [--out-dir .]
    python3 tools/bench_pair.py --summarize BENCH_NAME-parent.json BENCH_NAME.json

For every seed and workload (by default every workload ``BENCHMARK.json``
declares) it runs ``perfbench/run.py`` once in each checkout, parent and
change alternating which goes first, and keeps the last line of standard
output, the run's JSON result.  Each ``--traced
WORKLOAD:SEED`` adds one ``--trace 1`` run per checkout.  The results go to
``BENCH_<NAME>-parent.json`` and ``BENCH_<NAME>.json`` in ``--out-dir``, each
with the checkout's git SHA and the Python, numpy and scipy versions of the
interpreter that ran the benchmark.  ``--change`` defaults to the checkout
this script sits in.  Both checkouts must be git checkouts; a checkout with
uncommitted changes is recorded with ``"git_dirty": true``.  The SHAs are
read and ``--out-dir`` is created before the first run, so a bad checkout
or output path stops the script before it has run anything.

At the end of a run, and for two committed files with ``--summarize``, it
prints one line per workload and end-to-end metric of ``BENCHMARK.json``:
each side's median and quartiles over the untraced runs, the relative change
of the medians, and in how many of the pairs (the two sides' runs of one
workload and seed) the change was better.
"""
import argparse
import json
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
NOTE = ("last JSON line of perfbench/run.py per workload and seed; "
        "parent and change runs alternated on the same host")


def git(checkout: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *cmd[1:]], cwd=checkout,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"workload": workload, "seed": seed, "trace": trace, "command": " ".join(cmd),
            "exit": done.returncode, "result": result}


def end_to_end_metrics() -> list:
    """(name, better) of the end-to-end metrics that BENCHMARK.json declares."""
    return [(m["name"], m["better"]) for m in BENCHMARK["end_to_end"]]


def metric_values(doc: dict, metric: str) -> dict:
    """{(workload, seed): value} of metric over the doc's untraced runs that
    returned a result."""
    values = {}
    for run in doc["runs"]:
        value = ((run["result"] or {}).get("metrics", {}).get(metric) or {}).get("value")
        if run["trace"] == 0 and value is not None:
            values[run["workload"], run["seed"]] = value
    return values


def spread(values: list) -> str:
    """median (first quartile-third quartile)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return f"{median:.5g} ({q1:.5g}-{q3:.5g})"


def summary(parent: dict, change: dict, metrics: list) -> str:
    """The table of each workload's end-to-end metrics, parent against change."""
    lines = [f"{'workload':15s} {'metric':12s} {'parent median (quartiles)':28s} "
             f"{'change median (quartiles)':28s} {'change':>8s}  pairs won"]
    workloads = sorted({run["workload"] for run in parent["runs"] + change["runs"]})
    for workload in workloads:
        for metric, better in metrics:
            before, after = (metric_values(doc, metric) for doc in (parent, change))
            keys = sorted(k for k in before.keys() & after.keys() if k[0] == workload)
            if not keys:
                continue
            old, new = [before[k] for k in keys], [after[k] for k in keys]
            sign = -1.0 if better == "lower" else 1.0
            won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            rel = statistics.median(new) / statistics.median(old) - 1.0
            lines.append(f"{workload:15s} {metric:12s} {spread(old):28s} {spread(new):28s} "
                         f"{rel:+8.1%}  {won}/{len(keys)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--summarize", nargs=2, type=Path, metavar=("PARENT_JSON", "CHANGE_JSON"),
                    help="print the summary of two BENCH files and run nothing")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--label")
    ap.add_argument("--seeds", type=int, nargs="+", default=[31, 32, 33])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--traced", nargs="*", default=["mala-desk:31"],
                    help="WORKLOAD:SEED pairs run once more with --trace 1")
    ap.add_argument("--machine", default=f"{platform.machine()} host")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    if args.summarize:
        parent, change = (json.loads(path.read_text()) for path in args.summarize)
        print(summary(parent, change, end_to_end_metrics()))
        return 0
    if args.parent is None or args.label is None:
        ap.error("--parent and --label are required unless --summarize is given")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # everything that can fail outside the runs is settled before the first
    # one, so a bad checkout or output path does not cost a whole pair
    docs = {}
    for side, checkout in sides.items():
        try:
            sha = git(checkout, "rev-parse", "HEAD")
            dirty = git(checkout, "status", "--porcelain", "--untracked-files=no")
        except subprocess.CalledProcessError:
            ap.error(f"--{side} {checkout} is not a git checkout")
        label = f"{args.label}-parent" if side == "parent" else args.label
        docs[side] = {"label": label, "git_sha": sha, **({"git_dirty": True} if dirty else {})}
    args.out_dir.mkdir(parents=True, exist_ok=True)

    runs = {side: [] for side in sides}
    jobs = [(w, s, 0) for s in args.seeds for w in args.workloads]
    jobs += [(w, int(s), 1) for w, s in (t.split(":") for t in args.traced)]
    for i, (workload, seed, trace) in enumerate(jobs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            run = run_once(sides[side], workload, seed, args.seconds, trace)
            runs[side].append(run)
            op_s = ((run["result"] or {}).get("metrics", {}).get("op_s") or {}).get("value")
            print(f"{side:6s} {workload:14s} seed {seed} trace {trace} exit {run['exit']}"
                  f" op_s {op_s}", file=sys.stderr)

    host = {"machine": args.machine, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}
    for side, doc in docs.items():
        doc.update({"host": host, "note": NOTE, "runs": runs[side]})
        path = args.out_dir / f"BENCH_{doc['label']}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    print(summary(docs["parent"], docs["change"], end_to_end_metrics()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
