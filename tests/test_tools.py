import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

import robinshape
from robinshape.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_rejects_a_non_git_parent_before_any_run(tmp_path, monkeypatch, capsys):
    bench_pair = load_bench_pair()
    runs = []
    monkeypatch.setattr(bench_pair, "run_once", lambda *args: runs.append(args))
    # no git repository above tmp_path may stand in for the parent
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    parent = tmp_path / "parent"
    parent.mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--parent", str(parent), "--label", "x",
                         "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2 and runs == []
    assert "not a git checkout" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_pair_creates_its_out_dir_before_the_first_run(tmp_path, monkeypatch):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("the source tree is not a git checkout")
    bench_pair = load_bench_pair()
    out = tmp_path / "a" / "b"

    def run_once(checkout, workload, seed, seconds, trace):
        assert out.is_dir()
        return {"workload": workload, "seed": seed, "trace": trace, "command": "",
                "exit": 0, "result": None}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    assert bench_pair.main(["--parent", str(ROOT), "--label", "x", "--seeds", "1",
                            "--workloads", "map-laplace", "--traced",
                            "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["BENCH_x-parent.json", "BENCH_x.json"]


def test_bench_pair_runs_the_workloads_benchmark_json_declares(tmp_path, monkeypatch):
    bench_pair = load_bench_pair()
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = []

    def run_once(checkout, workload, seed, seconds, trace):
        runs.append(workload)
        return {"workload": workload, "seed": seed, "trace": trace, "command": "",
                "exit": 0, "result": None}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "git", lambda checkout, *args: "0" * 40 if
                        args[0] == "rev-parse" else "")
    assert bench_pair.main(["--parent", str(tmp_path), "--label", "x", "--seeds", "1",
                            "--traced", "--out-dir", str(tmp_path / "out")]) == 0
    # by default each declared workload, once per side and seed
    assert runs[::2] == declared and sorted(runs) == sorted(declared * 2)


def bench_doc(label, op_s, rss, traced_op_s):
    """A BENCH document of mala-desk runs with the given op_s and peak_rss_mb
    per seed 1, 2, ..., plus one traced run and one run that returned nothing."""
    def run(seed, trace, op, mb):
        metrics = {"op_s": {"value": op, "unit": "s"}, "peak_rss_mb": {"value": mb, "unit": "MB"}}
        return {"workload": "mala-desk", "seed": seed, "trace": trace, "command": "", "exit": 0,
                "result": {"correct": True, "metrics": metrics}}
    runs = [run(seed, 0, op, mb) for seed, (op, mb) in enumerate(zip(op_s, rss), start=1)]
    runs.append(run(1, 1, traced_op_s, 1.0))
    runs.append({"workload": "mala-desk", "seed": 99, "trace": 0, "command": "", "exit": 1,
                 "result": None})
    return {"label": label, "git_sha": "0" * 40, "runs": runs}


def test_bench_pair_summarizes_two_bench_files(tmp_path, capsys):
    bench_pair = load_bench_pair()
    parent = bench_doc("x-parent", [0.40, 0.44, 0.42, 0.48, 0.46], [80.0] * 5, 9.0)
    change = bench_doc("x", [0.36, 0.40, 0.45, 0.38, 0.37], [80.5] * 5, 0.0)
    table = bench_pair.summary(parent, change, [("op_s", "lower"), ("peak_rss_mb", "lower")])
    header, op_s, rss = table.splitlines()
    # the traced run and the run without a result take no part; quartiles
    # are the inclusive ones of the five untraced runs
    assert op_s.split() == ["mala-desk", "op_s", "0.44", "(0.42-0.46)", "0.38", "(0.37-0.4)",
                            "-13.6%", "4/5"]
    assert rss.split() == ["mala-desk", "peak_rss_mb", "80", "(80-80)", "80.5", "(80.5-80.5)",
                           "+0.6%", "0/5"]
    assert "pairs won" in header
    # --summarize reads the two files and runs nothing
    paths = []
    for doc in (parent, change):
        paths.append(tmp_path / f"BENCH_{doc['label']}.json")
        paths[-1].write_text(json.dumps(doc))
    assert bench_pair.main(["--summarize", *map(str, paths)]) == 0
    printed = capsys.readouterr().out
    assert "mala-desk       op_s" in printed and "4/5" in printed
    assert "setup_s" not in printed  # no run carries it


def test_readme_example_config_loads():
    # the README's example config takes only keys that a config still has
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert cfg.seed == 7 and cfg.gn.grad_reduction == 1e5 and cfg.mala.mcse_threshold == 0.1


def test_readme_imports_exactly_the_package_root():
    # the README's library example imports every name the package root
    # exports, and only those
    readme = (ROOT / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("from robinshape import ")]
    assert len(lines) == 1
    names = lines[0].removeprefix("from robinshape import ").split(", ")
    assert sorted(names) == sorted(robinshape.__all__)
