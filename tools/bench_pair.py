"""Write the before/after BENCH files of a performance change.

    python3 tools/bench_pair.py --parent PARENT_CHECKOUT --label NAME \
        [--change CHANGE_CHECKOUT] [--seeds 31 32 33] [--seconds 25] \
        [--workloads map-laplace mala-desk mala-surrogate] \
        [--traced mala-desk:31] [--machine "2-core shared VM"] [--out-dir .]

For every seed and workload it runs ``perfbench/run.py`` once in each
checkout, parent and change alternating which goes first, and keeps the last
line of standard output, the run's JSON result.  Each ``--traced
WORKLOAD:SEED`` adds one ``--trace 1`` run per checkout.  The results go to
``BENCH_<NAME>-parent.json`` and ``BENCH_<NAME>.json`` in ``--out-dir``, each
with the checkout's git SHA and the Python, numpy and scipy versions of the
interpreter that ran the benchmark.  ``--change`` defaults to the checkout
this script sits in.  Both checkouts must be git checkouts; a checkout with
uncommitted changes is recorded with ``"git_dirty": true``.  The SHAs are
read and ``--out-dir`` is created before the first run, so a bad checkout
or output path stops the script before it has run anything.
"""
import argparse
import json
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

WORKLOADS = ("map-laplace", "mala-desk", "mala-surrogate")
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[31, 32, 33])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--traced", nargs="*", default=["mala-desk:31"],
                    help="WORKLOAD:SEED pairs run once more with --trace 1")
    ap.add_argument("--machine", default=f"{platform.machine()} host")
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    args = ap.parse_args(argv)

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
