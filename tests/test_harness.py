import dataclasses
import io
import json
import math
import numbers
import os
import types
import typing

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from robinshape import cli, fem, harness, mala, optimize
from robinshape.geometry import fourier_basis
from robinshape.harness import (ConfigError, ExperimentConfig, MeshSpec,
                                SyntheticDataset, build_problem, chain_csv,
                                generate_data, run_map, run_mcmc,
                                truth_profiles)
from robinshape.inverse import Problem
from robinshape.mesh import build_slab_mesh
from robinshape.priors import build_alpha_prior, build_beta_prior, joint_prior

from conftest import BoundaryShape


def small_config(tmp_path, **overrides):
    d = {
        "fine_mesh": {"nx": 60, "ny": 4},
        "inversion_mesh": {"nx": 24, "ny": 2},
        "n_loads": 4,
        "n_sensors": 16,
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
        "mala": {"burn_in": 200, "max_steps": 400, "check_interval": 200},
    }
    d.update(overrides)
    return ExperimentConfig.from_dict(d)


# -- configuration -----------------------------------------------------------

def test_config_roundtrip_and_defaults():
    cfg = ExperimentConfig()
    assert cfg.fine_mesh == MeshSpec(nx=229, ny=10)
    assert cfg.inversion_mesh == MeshSpec(nx=77, ny=7)
    assert cfg.n_loads == 8 and cfg.n_sensors == 32 and cfg.p == 7
    back = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert back == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_loads": 8, "bogus": 1})
    # nested keys, including options that are constants of the algorithms,
    # at their values, in range or not
    for d in ({"fine_mesh": {"nx": 10, "ny": 2, "nz": 3}},
              {"gn": {"stationary_tol": 1e-12}}, {"gn": {"backtrack_factor": 0.5}},
              {"mala": {"enabled": False}}, {"gn": {"c1": 1e-4}}, {"gn": {"c1": 0.0}},
              {"mala": {"target_accept": 0.574}}, {"mala": {"adapt_exponent": 0.6}},
              {"mala": {"refresh_every": 100}}, {"mala": {"tau_init": 0.1}},
              {"mala": {"refresh_every": 0}}, {"mala": {"tau_init": 0.0}}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"L": -1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_sensors": 0})
    # truth profiles: an unknown name, a misspelt or foreign key, a missing
    # required key, a value that is not finite numbers
    custom = {"f_x": [0.0, 1.0], "f_values": [1.0, 1.0],
              "beta_x": [0.0, 1.0], "beta_values": [0.0, 0.0]}
    for d in ({"truth_profile": "example9"}, {"truth_params": {"dpeth": 0.4}},
              {"truth_profile": "example3", "truth_params": {"depth": 0.4}},
              {"truth_profile": "custom", "truth_params": {"f_x": [0.0, 1.0]}},
              *({"truth_profile": "custom", "truth_params": {**custom, "beta_values": [0.0, v]}}
                for v in (float("inf"), float("nan"), "high"))):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
    # the paper's examples are fixed: each refuses the keys that once set its numbers
    for profile, key in (("example1", "depth"), ("example2", "noise_f"), ("example3", "centers")):
        with pytest.raises(ConfigError, match=f"unknown {profile} truth parameters"):
            ExperimentConfig.from_dict({"truth_profile": profile, "truth_params": {key: 0.2}})
    cfg = ExperimentConfig.from_dict({"truth_profile": "custom", "truth_params": custom})
    assert cfg.truth_params == custom


def test_out_of_range_settings_rejected_before_any_work(tmp_path):
    out = tmp_path / "out"
    # counts must be integers: a float or a bool would load and fail late
    for bad in ({"mala": {"check_interval": 0}},
                {"mala": {"max_steps": 150.5, "burn_in": 10}}, {"mala": {"burn_in": 10.0}},
                {"gn": {"max_iters": 5.5}}, {"mala": {"check_interval": True}},
                {"inversion_mesh": {"nx": 77.5, "ny": 7}},
                # one column has no free node: an empty inversion or all-zero data
                {"inversion_mesh": {"nx": 1, "ny": 2}}, {"fine_mesh": {"nx": 1, "ny": 30}},
                {"n_sensors": 4.5}, {"n_loads": 8.5}, {"p": 7.5}, {"seed": 2.0},
                {"n_loads": True}, {"p": -1}, {"seed": -1}, {"sigma_alpha2": -1},
                {"delta_beta2": 0.0}, {"corr_l": -10.0}, {"noise_percent": -1.0},
                # non-finite numbers would load and fail late, or write inf
                # data, and a bool would load as the number 1
                *({name: value} for name in ("L", "H", "s_alpha", "sigma_alpha2",
                                              "delta_beta2", "corr_l", "noise_percent")
                  for value in (float("inf"), float("nan"), True)),
                # an infinite MCSE threshold stops a chain at its first check,
                # and an infinite gradient reduction never stops Gauss-Newton;
                # true would stop a chain on a threshold of 1
                {"mala": {"mcse_threshold": float("inf")}},
                {"gn": {"grad_reduction": float("inf")}},
                {"mala": {"mcse_threshold": True}}, {"gn": {"grad_reduction": True}},
                # the paper's examples take no truth parameters
                {"truth_params": {"depth": 1.5}},
                # an integer too large for a float
                {"L": 10**400}, {"mala": {"mcse_threshold": 10**400}}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({**bad, "output_dir": str(out)}, fh)
        assert cli.main(["generate-data", "--config", path]) == 1
    assert not out.exists()
    # float settings still take integers
    cfg = ExperimentConfig.from_dict({"mala": {"mcse_threshold": 1},
                                      "gn": {"grad_reduction": 100}})
    assert cfg.mala.mcse_threshold == 1 and cfg.gn.grad_reduction == 100


SETTING_VALUES = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=3),
                           st.none(), st.lists(st.integers(), max_size=2))
# the least a settings object needs to load
REQUIRED = {"fine_mesh": {"nx": 60, "ny": 4}, "inversion_mesh": {"nx": 24, "ny": 2}}


def setting_keys(tp):
    return [f.name for f in dataclasses.fields(tp)] + ["unknown"]


# the config's own float settings, L to noise_percent
FLOAT_FIELDS = [name for name, hint in typing.get_type_hints(ExperimentConfig).items()
                if hint is float]


@given(st.fixed_dictionaries({}, optional={
           name: st.dictionaries(st.sampled_from(setting_keys(tp)), SETTING_VALUES)
           for name, tp in harness.NESTED.items()}),
       SETTING_VALUES)
@example(d={}, value=math.inf)  # the derandomized draws hold no infinity
@example(d={}, value=True)
def test_loaded_settings_are_integers_and_finite_numbers(d, value):
    # settings either fail on load or hold integer counts and finite real
    # numbers, neither of them a bool; a dict of many drawn values seldom
    # loads, so the drawn value also goes alone into each key of each
    # settings object and into each float setting of the config
    single = [{name: {**REQUIRED.get(name, {}), key: value}}
              for name, tp in harness.NESTED.items() for key in setting_keys(tp)]
    single += [{name: value} for name in FLOAT_FIELDS]
    for case in (d, *single):
        try:
            cfg = ExperimentConfig.from_dict(case)
        except ConfigError:
            continue
        for settings in (cfg, *(getattr(cfg, name) for name in harness.NESTED)):
            for key, hint in typing.get_type_hints(type(settings)).items():
                got = getattr(settings, key)
                if hint is int:
                    assert isinstance(got, numbers.Integral) and not isinstance(got, bool)
                elif hint is float:
                    assert isinstance(got, numbers.Real) and not isinstance(got, bool)
                    assert math.isfinite(got), (key, got)


@pytest.mark.parametrize("bad", [{"fine_mesh": [229, 10]}, {"gn": 5}, {"mala": "x"},
                                 {"output_dir": 3}])
def test_mistyped_nested_setting_is_a_config_error(tmp_path, capsys, bad):
    # a settings object that is not a JSON object, or an output_dir that is
    # not a string, fails on load with a message, not late with a traceback
    name = next(iter(bad))
    with pytest.raises(ConfigError, match=name):
        ExperimentConfig.from_dict(bad)
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"output_dir": str(tmp_path / "out"), **bad}, fh)
    for command in ("generate-data", "map", "sample"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["5", "[1]", '"x"'])
def test_config_that_is_not_an_object_exits_1(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["generate-data", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: a config must be an object")


def test_atomic_write_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        harness.atomic_write(str(tmp_path / "a.json"), "{}")
        os.umask(0o077)
        harness.atomic_write(str(tmp_path / "b.json"), "{}")
    finally:
        os.umask(old)
    assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "b.json").stat().st_mode & 0o777 == 0o600
    assert (tmp_path / "a.json").read_text() == "{}"


def test_sensor_placement():
    cfg = ExperimentConfig()
    x = cfg.sensor_x1()
    assert x.size == 32
    np.testing.assert_allclose(x, (np.arange(32) + 0.5) / 32)
    assert 0.0 < x[0] and x[-1] < cfg.L


# -- truth profiles ----------------------------------------------------------

def test_example1_profile_shape():
    profile, beta_fn = truth_profiles("example1")
    x = np.linspace(0.0, 1.0, 2001)
    f, _ = profile.eval(x)
    assert f.min() > 0.0
    far = np.abs(x - 0.5) > 0.45
    np.testing.assert_allclose(f[far], 1.0, atol=1e-3)
    assert f.min() < 0.85  # the dip is really there
    b = beta_fn(x)
    assert b.min() < -0.5 and abs(b[0] - 1.0) < 0.01


def test_example3_has_three_cavities():
    profile, beta_fn = truth_profiles("example3")
    x = np.linspace(0.0, 1.0, 4001)
    f, _ = profile.eval(x)
    low = f < 0.8
    n_components = int(np.sum(np.diff(low.astype(int)) == 1) + low[0])
    assert n_components == 3
    assert f.max() <= 1.0 + 1e-9 and f.min() > 0.0


def test_example3_exceeds_low_order_fourier_span():
    # steep cavity walls cannot be captured by the 15-term basis: the
    # least-squares projection leaves error localized at the walls, far above
    # the residual level on the smooth parts of the profile
    profile, _ = truth_profiles("example3")
    x = np.linspace(0.0, 1.0, 4001)
    f, _ = profile.eval(x)
    V, _ = fourier_basis(7, 1.0, x)
    coef, *_ = np.linalg.lstsq(V, f, rcond=None)
    resid = f - V @ coef
    centers, hw = (0.2, 0.5, 0.8), (0.05, 0.06, 0.05)
    in_cavity = np.zeros_like(x, dtype=bool)
    near_wall = np.zeros_like(x, dtype=bool)
    for c, h in zip(centers, hw):
        in_cavity |= np.abs(x - c) < h + 0.07
        near_wall |= np.abs(np.abs(x - c) - h) < 0.05
    smooth_rms = np.sqrt(np.mean(resid[~in_cavity] ** 2))
    assert np.max(np.abs(resid)) > 5.0 * smooth_rms
    assert near_wall[np.argmax(np.abs(resid))]
    assert np.max(np.abs(resid)) > 2.5 * np.sqrt(np.mean(resid ** 2))


def test_example2_needs_rng_and_unknown_name():
    with pytest.raises(ValueError):
        truth_profiles("example2")
    with pytest.raises(ValueError):
        truth_profiles("example9")
    profile, beta_fn = truth_profiles("example2", rng=np.random.default_rng(0))
    f, _ = profile.eval(np.linspace(0, 1, 100))
    assert np.all(np.isfinite(f)) and f.min() > 0.0


def test_custom_truth_samples_are_checked_on_load(tmp_path):
    # np.interp reads decreasing abscissae without an error and gives a
    # wrong profile (f_x = [1, 0] with f_values = [1, 0.5] read 1.0 and then
    # 0.5 everywhere), and a length mismatch failed only in generate-data
    custom = {"f_x": [0.0, 1.0], "f_values": [1.0, 0.5],
              "beta_x": [0.0, 1.0], "beta_values": [0.0, 0.0]}
    for bad in ({"f_x": [1.0, 0.0]}, {"beta_x": [1.0, 0.0]}, {"f_x": [0.0, 0.0]},
                {"f_values": [1.0, 0.5, 0.8]}, {"beta_x": [0.0, 0.5, 1.0]},
                {"f_x": [], "f_values": []}, {"beta_x": 0.5, "beta_values": 0.0}):
        with pytest.raises(ConfigError):
            small_config(tmp_path, truth_profile="custom", truth_params={**custom, **bad})
    f, _ = truth_profiles("custom", custom)[0].eval(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(f, [1.0, 0.75, 0.5])


def test_custom_profile():
    params = {"f_x": [0.0, 1.0], "f_values": [1.0, 1.0],
              "beta_x": [0.0, 1.0], "beta_values": [0.25, 0.25]}
    profile, beta_fn = truth_profiles("custom", params)
    f, df = profile.eval(np.array([0.1, 0.9]))
    np.testing.assert_allclose(f, 1.0)
    np.testing.assert_allclose(df, 0.0, atol=1e-12)
    np.testing.assert_allclose(beta_fn(np.array([0.5])), 0.25)


# -- synthetic data ----------------------------------------------------------

def test_generate_data_refuses_coarse_fine_mesh(tmp_path):
    cfg = small_config(tmp_path, fine_mesh={"nx": 30, "ny": 2})
    with pytest.raises(ConfigError):
        generate_data(cfg)


def test_noise_scaling_matches_delta_e():
    cfg = ExperimentConfig(seed=5)  # defaults: 256 observations, 1% noise
    ds = generate_data(cfg)
    assert ds.y.size == 256
    span = ds.y_noiseless.max() - ds.y_noiseless.min()
    np.testing.assert_allclose(ds.delta_e, span / 100.0)
    ratio = np.std(ds.y - ds.y_noiseless, ddof=1) / ds.delta_e
    assert 0.9 <= ratio <= 1.1


def test_flat_truth_zero_noise_matches_reference_solve(tmp_path):
    params = {"f_x": [0.0, 1.0], "f_values": [1.0, 1.0],
              "beta_x": [0.0, 1.0], "beta_values": [0.0, 0.0]}
    cfg = small_config(tmp_path, truth_profile="custom", truth_params=params,
                       noise_percent=0.0)
    ds = generate_data(cfg)
    assert np.array_equal(ds.y, ds.y_noiseless)
    mesh = build_slab_mesh(cfg.L, cfg.H, 60, 4)
    ws = fem.FemWorkspace(mesh)
    shape = BoundaryShape(alpha=np.zeros(15), L=cfg.L, H=cfg.H)
    system = fem.assemble(ws, shape.eval(ws.x1), np.zeros(ws.trace.n_nodes))
    ref = fem.forward(system, fem.all_loads(ws, cfg.n_loads),
                      ws.sensor_operator(cfg.sensor_x1()))
    np.testing.assert_allclose(ds.y_noiseless, ref.y, atol=1e-12)


def test_dataset_regeneration_is_byte_identical(tmp_path):
    cfg = small_config(tmp_path, truth_profile="example2", seed=11)
    for tag in ("a", "b"):
        generate_data(cfg).to_file(str(tmp_path / tag / "ds.json"))
    assert (tmp_path / "a" / "ds.json").read_bytes() == (tmp_path / "b" / "ds.json").read_bytes()


def test_workspace_is_built_once_per_mesh(tmp_path, monkeypatch):
    # generate_data reuses the data mesh's workspace across cases and
    # build_problem the inversion mesh's; data and MAP from the cached
    # workspaces are bitwise those of fresh builds
    built = []

    class CountingWorkspace(fem.FemWorkspace):
        def __init__(self, mesh):
            built.append((mesh.nx, mesh.ny))
            super().__init__(mesh)

    monkeypatch.setattr(fem, "FemWorkspace", CountingWorkspace)
    cfg = small_config(tmp_path, truth_profile="example2", seed=11)
    fem.workspace.cache_clear()
    try:
        fresh = generate_data(cfg)
        fresh_map = run_map(cfg, fresh).m_map
        generate_data(dataclasses.replace(cfg, seed=12, n_loads=2))
        cached = generate_data(cfg)
        problems = [build_problem(cfg, cached) for _ in range(2)]
        assert problems[0].ws is problems[1].ws
        cached_map = run_map(cfg, cached).m_map
    finally:
        fem.workspace.cache_clear()
    assert sorted(built) == [(24, 2), (60, 4)]
    for name in ("y", "y_noiseless", "truth_f", "truth_beta", "truth_s"):
        assert np.array_equal(getattr(fresh, name), getattr(cached, name))
    assert fresh.delta_e == cached.delta_e
    assert np.array_equal(fresh_map, cached_map)


def test_dataset_file_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    ds = generate_data(cfg)
    path = str(tmp_path / "d.json")
    ds.to_file(path)
    assert os.listdir(tmp_path) == ["d.json"]
    back = SyntheticDataset.from_file(path)
    for name in ("y", "y_noiseless", "sensor_x1", "truth_f", "truth_beta", "truth_s"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()
    assert back.delta_e == ds.delta_e and back.seed == ds.seed
    assert back.n_loads == ds.n_loads and back.fine_mesh == ds.fine_mesh


def test_dataset_file_lacking_fields_is_rejected(tmp_path, capsys):
    # a dataset.json in the earlier two-file format (the header here, y and
    # y_noiseless in a dataset.csv it names) lacks the data: a ValueError
    # naming both fields, and exit 1 with a message from the commands
    path, cfg = write_config(tmp_path)
    ds = generate_data(cfg)
    header = {"delta_e": ds.delta_e, "seed": ds.seed, "n_loads": ds.n_loads,
              "sensor_x1": ds.sensor_x1.tolist(), "truth_s": ds.truth_s.tolist(),
              "truth_f": ds.truth_f.tolist(), "truth_beta": ds.truth_beta.tolist(),
              "fine_mesh": ds.fine_mesh, "csv": "dataset.csv"}
    os.makedirs(cfg.output_dir)
    with open(os.path.join(cfg.output_dir, "dataset.json"), "w") as fh:
        json.dump(header, fh)
    with open(os.path.join(cfg.output_dir, "dataset.csv"), "w") as fh:
        fh.write("y,y_noiseless\n" + "".join(f"{a!r},{b!r}\n"
                                             for a, b in zip(ds.y, ds.y_noiseless)))
    with pytest.raises(ValueError, match=r"\['y', 'y_noiseless'\]"):
        SyntheticDataset.from_file(os.path.join(cfg.output_dir, "dataset.json"))
    # a file that is not a JSON object lacks every field
    (tmp_path / "five.json").write_text("5")
    with pytest.raises(ValueError, match="'y', 'y_noiseless', 'delta_e'"):
        SyntheticDataset.from_file(str(tmp_path / "five.json"))
    for command in ("map", "sample"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "y_noiseless" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(cfg.output_dir, "map_report.json"))


def test_single_observation_dataset_roundtrip(tmp_path):
    # one load and one sensor write one observation, which must read back
    # as an array of one, not as a scalar
    cfg = small_config(tmp_path, n_loads=1, n_sensors=1)
    ds = generate_data(cfg)
    assert ds.y.shape == (1,)
    path = str(tmp_path / "d.json")
    ds.to_file(path)
    back = SyntheticDataset.from_file(path)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.y_noiseless, ds.y_noiseless)
    assert back.y.shape == (1,) and back.n_loads == 1


def test_default_problem_dimensions():
    cfg = ExperimentConfig()
    ds = generate_data(cfg)
    prob = build_problem(cfg, ds)
    assert prob.n_alpha == 15 and prob.q == 78 and prob.n == 93


# -- inference runs and artifacts --------------------------------------------

@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = small_config(tmp)
    ds = generate_data(cfg)
    map_result = run_map(cfg, ds)
    return cfg, ds, map_result


def test_run_map_artifacts(small_pipeline):
    cfg, ds, result = small_pipeline
    assert result.report.converged
    out = cfg.output_dir
    with open(os.path.join(out, "map_report.json")) as fh:
        rep = json.load(fh)
    assert len(rep["m_map"]) == result.problem.n
    assert len(rep["alpha_map"]) == 15
    assert len(rep["beta_map"]) == result.problem.q
    assert rep["gauss_newton"]["converged"]
    # the Laplace envelopes' centers and sigmas: the boundary height at the
    # MAP and its pointwise std from the alpha block of the covariance
    problem, n_alpha = result.problem, result.problem.n_alpha
    alpha_map = result.m_map[:n_alpha]
    assert np.asarray(rep["trace_s"]).tobytes() == problem.trace.s.tobytes()
    assert (np.asarray(rep["boundary_map"]).tobytes()
            == harness.boundary_height(problem, alpha_map).tobytes())
    cov_aa = result.laplace.covariance[:n_alpha, :n_alpha]
    height_cov = problem.mesh.H ** 2 * problem.basis.Vs @ cov_aa @ problem.basis.Vs.T
    np.testing.assert_allclose(rep["boundary_std"], np.sqrt(np.diag(height_cov)),
                               rtol=0, atol=1e-15)
    assert np.asarray(rep["marginal_std"]).tobytes() == result.laplace.marginal_std.tobytes()
    assert len(rep["boundary_std"]) == len(rep["beta_map"]) == problem.q
    assert np.all(np.asarray(rep["boundary_std"]) > 0)


@pytest.mark.parametrize("gn", [{}, {"max_iters": 0}])
def test_run_map_linearizes_each_gauss_newton_point_once(tmp_path, monkeypatch, gn):
    # Gauss-Newton linearises at its start and after each accepted step; the
    # Laplace covariance comes from the Hessian of the point it returns
    cfg = small_config(tmp_path, gn=gn)
    ds = generate_data(cfg)
    calls = []
    linearize = Problem.linearize

    def counted(self, m):
        calls.append(1)
        return linearize(self, m)

    monkeypatch.setattr(Problem, "linearize", counted)
    result = run_map(cfg, ds)
    assert result.report.reason == ("iteration cap" if gn else "gradient reduction reached")
    assert len(calls) == result.report.n_iters + 1
    H = optimize._gn_system(result.problem, result.m_map)[2]
    np.testing.assert_array_equal(result.report.hessian, H)
    np.testing.assert_array_equal(result.laplace.covariance,
                                  optimize.laplace(result.m_map, H).covariance)


def test_run_map_assembles_each_line_search_point_once(tmp_path, monkeypatch):
    # the point the line search accepts is linearised from its kept
    # evaluation, so only the start is assembled outside the line search
    cfg = small_config(tmp_path)
    ds = generate_data(cfg)
    assemblies, evaluations = [], []
    assemble, potential_value = fem.assemble, Problem.potential_value

    def counted_assemble(*args):
        assemblies.append(1)
        return assemble(*args)

    def counted_value(self, m):
        evaluations.append(1)
        return potential_value(self, m)

    monkeypatch.setattr(fem, "assemble", counted_assemble)
    monkeypatch.setattr(Problem, "potential_value", counted_value)
    result = run_map(cfg, ds)
    assert result.report.reason == "gradient reduction reached"
    assert len(evaluations) >= result.report.n_iters > 0
    assert len(assemblies) == len(evaluations) + 1


@pytest.fixture(scope="module")
def small_mcmc(small_pipeline):
    cfg, ds, map_result = small_pipeline
    return cfg, map_result, run_mcmc(cfg, ds, map_result)


def test_run_mcmc_artifacts(small_mcmc):
    cfg, map_result, mc = small_mcmc
    out = cfg.output_dir
    with open(os.path.join(out, "mcmc_summary.json")) as fh:
        summary = json.load(fh)
    n = map_result.problem.n
    assert len(summary["cm"]) == n
    assert len(summary["mcse_halfwidth_over_std"]) == n
    assert len(summary["beta_skewness"]) == map_result.problem.q
    for key in ("68", "95", "99.7"):
        lo, hi = summary["robin_envelopes"][key]
        assert np.all(np.asarray(lo) <= np.asarray(hi))
    with open(os.path.join(out, "chain.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "alpha_0" and header[14] == "alpha_14"
    assert header[15] == "beta_1" and header[-3] == f"beta_{map_result.problem.q}"
    assert header[-2:] == ["J", "accepted"]
    assert mc.chain.n_recorded == cfg.mala.max_steps  # tiny budget: cap reached
    assert not mc.chain.converged


def test_chain_csv_values_roundtrip(small_mcmc):
    # the table parses back to the recorded chain bitwise
    cfg, map_result, mc = small_mcmc
    n = map_result.problem.n
    table = np.loadtxt(os.path.join(cfg.output_dir, "chain.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    assert table.shape == (mc.chain.n_recorded, n + 2)
    assert table[:, :n].tobytes() == mc.chain.samples.tobytes()
    assert table[:, n].tobytes() == mc.chain.J_trace.tobytes()
    assert np.array_equal(table[:, n + 1], mc.chain.accept_flags)
    assert 0 < mc.chain.accept_flags.sum() < mc.chain.n_recorded


def reference_chain_csv(names, samples, J_trace, accept_flags) -> str:
    """chain.csv written one repr per value, row by row."""
    lines = [",".join(names)]
    for state, J, flag in zip(samples, J_trace, accept_flags):
        lines.append(",".join([repr(float(v)) for v in state] + [repr(float(J)), repr(int(flag))]))
    return "\n".join(lines) + "\n"


def recorded_chain(accept_flags, n=5, seed=0, specials=(), kept=()):
    """A ChainOutput whose state and J (column n) change exactly at the
    accepted rows, as run_chain records them; specials sets (row, column,
    value) in the state that row's run of rows carries, and an accepted row
    in kept changes only those values."""
    rng = np.random.default_rng(seed)
    accept_flags = np.asarray(accept_flags, dtype=bool)
    rows = np.empty((accept_flags.size, n + 1))
    current = rng.standard_normal(n + 1)
    for i, accepted in enumerate(accept_flags):
        if accepted and i not in kept:
            current = rng.standard_normal(n + 1)
        for row, col, value in specials:
            if row == i:
                current[col] = value
        rows[i] = current
    return mala.ChainOutput(samples=rows[:, :n].copy(), J_trace=rows[:, n].copy(),
                            accept_flags=accept_flags, acceptance_rate_trace=[],
                            mcse=np.zeros(n), converged=False, n_burn_in=0,
                            n_recorded=accept_flags.size, final_tau=0.1, n_invalid=0)


def run_flags(n_rows, rejected_runs, seed=1):
    """Accept flags that accept about half the steps, with the given
    (start, stop) runs of rejections."""
    flags = np.random.default_rng(seed).random(n_rows) < 0.5
    for start, stop in rejected_runs:
        flags[start:stop] = False
    return flags


@pytest.mark.parametrize("flags, specials, kept", [
    # rejection runs across the block boundaries at rows 1024 and 2048
    (run_flags(3000, [(1000, 1100), (2040, 2049)]), (), ()),
    (run_flags(2049, [(1023, 1025), (2047, 2049)]), (), ()),
    (np.zeros(2100, dtype=bool), (), ()),
    (np.ones(1500, dtype=bool), (), ()),
    # -0.0, then an accepted state that differs only by +0.0 there, which ==
    # calls equal; the smallest subnormal, a value near the largest float
    # and a J of -0.0, each repeated by rejections
    (np.array([1, 0, 0, 1, 0, 1, 0, 0, 1, 0], dtype=bool),
     [(0, 1, -0.0), (3, 1, 0.0), (5, 2, 5e-324), (5, 3, 1e308), (8, 5, -0.0)], (3,)),
    # accepted rows whose state and J are bitwise those of the row above
    (np.array([1, 0, 1, 1, 0, 1], dtype=bool), (), (2, 3)),
], ids=["runs-across-blocks", "runs-at-block-edges", "all-rejected", "all-accepted",
        "special-values", "accepted-repeat"])
def test_chain_csv_is_the_per_value_repr_text(flags, specials, kept):
    output = recorded_chain(flags, specials=specials, kept=kept)
    problem = types.SimpleNamespace(n_alpha=2, q=3)
    names = ["alpha_0", "alpha_1", "beta_1", "beta_2", "beta_3", "J", "accepted"]
    text = chain_csv(problem, output)
    assert text == reference_chain_csv(names, output.samples, output.J_trace,
                                       output.accept_flags)
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    assert table[:, :5].tobytes() == output.samples.tobytes()
    assert table[:, 5].tobytes() == output.J_trace.tobytes()
    assert np.array_equal(table[:, 6], output.accept_flags)


def test_desk_beta_skewness_matches_scipy_stats_skew(tmp_path):
    # scipy.stats stays out of the library; it is the oracle here
    from scipy import stats
    cfg = ExperimentConfig.from_dict({
        "seed": 1, "output_dir": str(tmp_path),
        "mala": {"burn_in": 0, "max_steps": 300, "check_interval": 300}})
    ds = generate_data(cfg)
    mc = run_mcmc(cfg, ds, run_map(cfg, ds))
    # the desk problem's 93 coordinates: 15 for alpha, then 78 for beta
    expected = stats.skew(mc.chain.samples[:, 15:], axis=0)
    assert len(expected) == 78
    assert np.array(mc.summary["beta_skewness"]).tobytes() == expected.tobytes()


def test_run_mcmc_reports_invalid_proposals(small_pipeline, tmp_path, monkeypatch):
    cfg, ds, map_result = small_pipeline
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
    problem = map_result.problem
    target = problem.potential_and_gradient
    calls, n_inf = 0, 0

    def failing(m):
        # every 7th call fails; the first call (the chain start) never does
        nonlocal calls, n_inf
        calls += 1
        J, g = (np.inf, None) if calls % 7 == 0 else target(m)
        n_inf += not np.isfinite(J)
        return J, g

    monkeypatch.setattr(problem, "potential_and_gradient", failing)
    run_mcmc(cfg, ds, map_result)
    with open(os.path.join(cfg.output_dir, "mcmc_summary.json")) as fh:
        summary = json.load(fh)
    assert n_inf >= (cfg.mala.burn_in + cfg.mala.max_steps) // 7
    assert summary["n_invalid_proposals"] == n_inf


# -- CLI ---------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    cfg = small_config(tmp_path, **overrides)
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        fh.write(cfg.to_json())
    return path, cfg


def test_cli_pipeline_exit_codes(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.main(["generate-data", "--config", path]) == 0
    assert os.path.exists(os.path.join(cfg.output_dir, "dataset.json"))
    assert cli.main(["map", "--config", path]) == 0
    # a sampling budget too small for the 10% MCSE rule: not-converged exit
    path3, _ = write_config(tmp_path, mala={"burn_in": 100, "max_steps": 200,
                                            "check_interval": 200,
                                            "mcse_threshold": 1e-6})
    assert cli.main(["sample", "--config", path3]) == 3


def test_cli_reproduce_example_with_config(tmp_path):
    # the example number picks the truth profile; the file keeps its output_dir
    path, cfg = write_config(tmp_path, mala={"burn_in": 0, "max_steps": 100,
                                             "check_interval": 100,
                                             "mcse_threshold": 1e-6})
    assert cli.main(["reproduce-example", "3", "--config", path]) == 3
    with open(os.path.join(cfg.output_dir, "config.json")) as fh:
        written = json.load(fh)
    assert written["truth_profile"] == "example3"
    assert written["output_dir"] == cfg.output_dir
    assert sorted(os.listdir(cfg.output_dir)) == [
        "chain.csv", "config.json", "dataset.json", "map_report.json", "mcmc_summary.json"]
    # the dataset is the one generate-data writes for example3
    ds = generate_data(dataclasses.replace(cfg, truth_profile="example3"))
    assert np.array_equal(SyntheticDataset.from_file(
        os.path.join(cfg.output_dir, "dataset.json")).y, ds.y)


def test_cli_sample_after_failed_map_exits_2(tmp_path):
    path, cfg = write_config(tmp_path, gn={"max_iters": 0},
                             mala={"burn_in": 0, "max_steps": 100, "check_interval": 100})
    assert cli.main(["generate-data", "--config", path]) == 0
    assert cli.main(["map", "--config", path]) == 2
    assert cli.main(["sample", "--config", path]) == 2
    with open(os.path.join(cfg.output_dir, "map_report.json")) as fh:
        assert json.load(fh)["gauss_newton"]["reason"] == "iteration cap"


def test_cli_sample_chain_too_large_to_hold_exits_1(tmp_path, capsys):
    # 10**15 recorded rows cannot be mapped on a 64-bit host: the chain
    # fails before its burn-in with a message naming max_steps
    path, _ = write_config(tmp_path, mala={"burn_in": 10, "max_steps": 10**15})
    assert cli.main(["generate-data", "--config", path]) == 0
    capsys.readouterr()
    assert cli.main(["sample", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_steps" in err and "Traceback" not in err


def test_cli_map_rejects_zero_noise_level(tmp_path, capsys):
    # a zero noise level (set directly, or from the zero data range of one
    # observation) leaves no likelihood: exit 1 with a message, no traceback
    for overrides in ({"noise_percent": 0.0}, {"n_loads": 1, "n_sensors": 1}):
        path, cfg = write_config(tmp_path, **overrides)
        assert cli.main(["generate-data", "--config", path]) == 0
        assert SyntheticDataset.from_file(
            os.path.join(cfg.output_dir, "dataset.json")).delta_e == 0.0
        assert cli.main(["map", "--config", path]) == 1
        assert "noise level must be positive" in capsys.readouterr().err


def test_run_map_rejects_zero_noise_level_as_config_error(tmp_path):
    # both ways to a zero noise level load and generate (noise-free) data,
    # and the inverse problem then refuses them as a config error naming
    # both causes, not as the raw ValueError of Problem
    for overrides in ({"noise_percent": 0.0}, {"n_loads": 1, "n_sensors": 1}):
        cfg = small_config(tmp_path, **overrides)
        ds = generate_data(cfg)
        assert ds.delta_e == 0.0
        with pytest.raises(ConfigError, match="noise level must be positive") as err:
            run_map(cfg, ds)
        assert "noise_percent" in str(err.value) and "data range is 0" in str(err.value)


def test_cli_non_positive_truth_height_exits_1(tmp_path, capsys):
    # a truth profile that dips to or below the bottom is a config error
    # naming the profile, not a traceback out of the assembly
    custom = {"f_x": [0.0, 1.0], "f_values": [1.0, -0.5],
              "beta_x": [0.0, 1.0], "beta_values": [0.0, 0.0]}
    path, cfg = write_config(tmp_path, truth_profile="custom", truth_params=custom)
    assert cli.main(["generate-data", "--config", path]) == 1
    assert "truth profile 'custom'" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(cfg.output_dir, "dataset.json"))


def test_cli_overflowing_custom_truth_exits_1(tmp_path, capsys):
    # exp(1e308) overflows the truth's assembly, and an infinite value is
    # no truth: both are config errors naming the profile, not numerical
    # failures, and nothing is written
    path, cfg = write_config(tmp_path)
    with open(path) as fh:
        d = json.load(fh)
    for value in (1e308, float("inf")):
        d.update(truth_profile="custom",
                 truth_params={"f_x": [0.0, 1.0], "f_values": [1.0, 1.0],
                               "beta_x": [0.0, 1.0], "beta_values": [0.0, value]})
        with open(path, "w") as fh:
            json.dump(d, fh)
        assert cli.main(["generate-data", "--config", path]) == 1
        assert "truth profile 'custom'" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cfg.output_dir, "dataset.json"))


def test_cli_mesh_too_large_to_allocate_exits_1(tmp_path, capsys):
    # 10**15 columns need 7 PiB of node abscissae, beyond any address space:
    # the allocation fails before it touches memory, and generate-data exits
    # 1 with a message and writes nothing
    path, cfg = write_config(tmp_path, fine_mesh={"nx": 10**15, "ny": 10})
    assert cli.main(["generate-data", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(cfg.output_dir, "dataset.json"))


def test_cli_invalid_config_exit_code(tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"n_loads": 4, "bogus_key": True}, fh)
    assert cli.main(["generate-data", "--config", bad]) == 1
    assert cli.main(["generate-data", "--config", str(tmp_path / "nope.json")]) == 1


def test_cli_output_dir_under_a_file_exits_1(tmp_path, capsys):
    # an output_dir below a regular file is an OSError other than
    # FileNotFoundError: exit 1 with a message, no traceback
    (tmp_path / "afile").write_text("")
    path, _ = write_config(tmp_path, output_dir=str(tmp_path / "afile" / "out"))
    for command in ("generate-data", "map"):
        assert cli.main([command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err


def test_cli_diagnose(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = []
    for tag in ("a", "b"):
        p = str(tmp_path / f"chain_{tag}.csv")
        lines = ["x0,x1,J,accepted"]
        for row in rng.standard_normal((500, 2)):
            lines.append(f"{float(row[0])!r},{float(row[1])!r},0.0,1")
        with open(p, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(p)
    assert cli.main(["diagnose"] + paths) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_chains"] == 2 and len(out["gelman_rubin"]) == 2
    assert all(r < 1.05 for r in out["gelman_rubin"])


# -- operators shared by the problems of one configuration -------------------

def dense_sensors(sensors: fem.Sensors) -> np.ndarray:
    """The (n_sensors, n_free) operator that the row block stands for."""
    dense = np.zeros((sensors.block.shape[0], sensors.n_free))
    dense[:, sensors.rows] = sensors.block
    return dense


def hat_interpolation(ws, sensor_x1) -> np.ndarray:
    """The P1 hat functions of the free nodes on the bottom edge at
    sensor_x1, (n_sensors, n_free), from the uniform node spacing alone; it
    rounds differently from the mesh's own coordinates, by up to 2e-14."""
    x1, x2 = ws.mesh.nodes[ws.free].T
    h = ws.mesh.L / ws.mesh.nx
    hats = np.maximum(1.0 - np.abs(np.asarray(sensor_x1)[:, None] - x1) / h, 0.0)
    return hats * (x2 == 0.0)


def test_generate_data_reads_one_shared_sensor_block(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict({"output_dir": str(tmp_path)})
    read = []
    forward = fem.forward

    def reading_forward(system, loads, sensors):
        read.append(sensors)
        return forward(system, loads, sensors)

    monkeypatch.setattr(fem, "forward", reading_forward)
    first = generate_data(cfg)
    again = generate_data(cfg)
    np.testing.assert_array_equal(first.y, again.y)
    fine = fem.workspace(cfg.L, cfg.H, cfg.fine_mesh.nx, cfg.fine_mesh.ny)
    sensors = fine.sensor_operator(cfg.sensor_x1())
    assert len(read) == 2 and read[0] is read[1] is sensors
    # two free rows per sensor on the desk's fine mesh, not all 2508
    assert sensors.block.shape == (32, 64) and sensors.rows.shape == (64,)
    for a in (sensors.rows, sensors.block):
        with pytest.raises(ValueError):
            a[0] = 0
    np.testing.assert_allclose(dense_sensors(sensors), hat_interpolation(fine, cfg.sensor_x1()),
                               rtol=0.0, atol=1e-13)


def shared_operators(prob: Problem) -> dict:
    return {"B": prob.B, "loads": prob.loads, "basis": prob.basis, "prior": prob.prior}


def test_shared_operators_are_read_only(tmp_path):
    cfg = small_config(tmp_path)
    prob = build_problem(cfg, generate_data(cfg))
    fine = fem.workspace(cfg.L, cfg.H, cfg.fine_mesh.nx, cfg.fine_mesh.ny)
    fine_sensors = fine.sensor_operator(cfg.sensor_x1())
    arrays = [prob.B.rows, prob.B.block, prob.loads, prob.prior_mean, prob.prior_precision,
              prob.prior.chol_precision, fine.loads(cfg.n_loads), fine_sensors.rows,
              fine_sensors.block]
    arrays += [getattr(prob.basis, f.name) for f in dataclasses.fields(prob.basis)
               if f.name != "M22"]
    # the sparse operators, through their storage: the quadrature block and
    # the workspace's own
    ws = prob.ws
    for op in (prob.basis.M22, ws.F, ws.FT, ws.grad_op, ws.top_op, ws.top_pullback):
        arrays += [op.data, op.indices, op.indptr]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] += 1
        with pytest.raises(ValueError):
            np.multiply(a, 2, out=a)


def test_configurations_share_only_equal_operators(tmp_path):
    cfg = small_config(tmp_path)
    base = build_problem(cfg, generate_data(cfg))
    again = build_problem(cfg, generate_data(dataclasses.replace(cfg, seed=4)))
    assert all(a is b for a, b in zip(shared_operators(again).values(),
                                      shared_operators(base).values()))
    own = {"p": ("basis", "prior"), "n_sensors": ("B",), "n_loads": ("loads",),
           "sigma_alpha2": ("prior",), "s_alpha": ("prior",), "delta_beta2": ("prior",),
           "corr_l": ("prior",)}
    values = {"p": 2, "n_sensors": 12, "n_loads": 3, "sigma_alpha2": 0.02, "s_alpha": -2.0,
              "delta_beta2": 40.0, "corr_l": 5.0}
    for key, names in own.items():
        c = dataclasses.replace(cfg, **{key: values[key]})
        prob = build_problem(c, generate_data(c))
        for name, op in shared_operators(prob).items():
            assert (op is shared_operators(base)[name]) == (name not in names), (key, name)
        # and each operator of its own is the one its settings build
        ws = prob.ws
        np.testing.assert_allclose(dense_sensors(prob.B), hat_interpolation(ws, c.sensor_x1()),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_array_equal(prob.loads, fem.all_loads(ws, c.n_loads))
        np.testing.assert_array_equal(prob.basis.Vx, fourier_basis(c.p, c.L, ws.x1)[0])
        prior = joint_prior(build_alpha_prior(c.p, c.sigma_alpha2, c.s_alpha),
                            build_beta_prior(ws.trace, c.delta_beta2, c.corr_l))
        np.testing.assert_array_equal(prob.prior_precision, prior.precision)


def test_run_map_after_other_cases_matches_cold_caches(tmp_path):
    cfg = small_config(tmp_path, truth_profile="example3", seed=5)
    others = [small_config(tmp_path, seed=6),
              small_config(tmp_path, truth_profile="example2", seed=7, p=2),
              small_config(tmp_path, seed=8, n_sensors=12, corr_l=5.0)]
    fem.workspace.cache_clear()
    try:
        cold = run_map(cfg, generate_data(cfg))
        for other in others:
            run_map(other, generate_data(other))
        warm = run_map(cfg, generate_data(cfg))
    finally:
        fem.workspace.cache_clear()
    # the warm run reads the operators the cold run built and the others shared
    assert all(a is b for a, b in zip(shared_operators(warm.problem).values(),
                                      shared_operators(cold.problem).values()))
    assert np.array_equal(cold.m_map, warm.m_map)
    assert np.array_equal(cold.laplace.covariance, warm.laplace.covariance)
    assert np.array_equal(cold.report.hessian, warm.report.hessian)
    assert cold.report.to_dict() == warm.report.to_dict()
