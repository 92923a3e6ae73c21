import importlib.util
import subprocess
from pathlib import Path

import pytest

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
