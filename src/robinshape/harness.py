"""Experiment orchestration: configuration, inverse-crime-free synthetic data
generation, MAP/Laplace and MCMC runs, and result export.  The data come from
`fem.forward`, the inverse problem's forward map, on a finer mesh; every CSV
artifact is written by `table_csv`, or for the chain in its format by
`chain_csv`; a config's truth parameters are checked against the profile's
row of `TRUTH_PARAMS` when it is loaded."""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import fem, mala, optimize
from .geometry import InvalidShapeError, SampledProfile
from .inverse import Problem
from .mala import MalaSettings
from .optimize import GaussNewtonOptions
from .priors import build_alpha_prior, build_beta_prior, joint_prior


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class MeshSpec:
    nx: int
    ny: int

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.nx, self.ny)):
            raise ValueError("mesh nx and ny must be integers")
        # one column has no free node: both of its node columns are Dirichlet
        if self.nx < 2 or self.ny < 1:
            raise ValueError("mesh nx must be at least 2 and ny at least 1")


@dataclass
class ExperimentConfig:
    L: float = 1.0
    H: float = 0.05
    n_loads: int = 8
    n_sensors: int = 32
    fine_mesh: MeshSpec = field(default_factory=lambda: MeshSpec(nx=229, ny=10))
    inversion_mesh: MeshSpec = field(default_factory=lambda: MeshSpec(nx=77, ny=7))
    truth_profile: str = "example1"
    truth_params: dict = field(default_factory=dict)
    p: int = 7
    sigma_alpha2: float = 0.01
    s_alpha: float = -1.0
    delta_beta2: float = 50.0
    corr_l: float = 10.0
    noise_percent: float = 1.0
    seed: int = 0
    output_dir: str = "out"
    gn: GaussNewtonOptions = field(default_factory=GaussNewtonOptions)
    mala: MalaSettings = field(default_factory=MalaSettings)

    def __post_init__(self):
        for name in ("L", "H", "s_alpha", "sigma_alpha2", "delta_beta2", "corr_l",
                     "noise_percent"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not (self.L > 0 and self.H > 0):
            raise ConfigError("L and H must be positive")
        for name, least in (("n_loads", 1), ("n_sensors", 1), ("p", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer")
            if value < least:
                raise ConfigError(f"{name} must be at least {least}")
        for name in ("sigma_alpha2", "delta_beta2", "corr_l"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.noise_percent >= 0:
            raise ConfigError("noise_percent must be non-negative")
        truth_parameters(self.truth_profile, self.truth_params)

    def sensor_x1(self) -> np.ndarray:
        # equally spaced with half-spacing end offsets (avoids grounded corners)
        return (np.arange(self.n_sensors) + 0.5) * self.L / self.n_sensors

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        nested = {"fine_mesh": MeshSpec, "inversion_mesh": MeshSpec,
                  "gn": GaussNewtonOptions, "mala": MalaSettings}
        try:
            for key, tp in nested.items():
                if isinstance(kwargs.get(key), dict):
                    kwargs[key] = tp(**kwargs[key])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def table_csv(names: list, *columns) -> str:
    """CSV text: a header of names, then one row per entry of the equally
    long columns, each value written by repr so that floats read back
    exactly.  Values become Python scalars 1024 rows at a time, so a long
    chain never holds all of them as objects at once."""
    columns = [np.asarray(c) for c in columns]
    lines = [",".join(names)]
    for i in range(0, len(columns[0]), 1024):
        block = zip(*(c[i:i + 1024].tolist() for c in columns))
        lines += [",".join(map(repr, row)) for row in block]
    return "\n".join(lines) + "\n"


def atomic_write(path: str, text: str):
    """Write-temp-then-rename so readers never see partial files."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- truth profiles ----------------------------------------------------------

def _gaussian_bump(x, center, width):
    return np.exp(-0.5 * ((x - center) / width) ** 2)


def _smooth_cavity(x, center, halfwidth, steepness):
    """Flat-bottomed dip built from two sigmoids; 0 outside, ~1 inside."""
    s = lambda z: 1.0 / (1.0 + np.exp(-z))
    return s((x - center + halfwidth) / steepness) * s((center + halfwidth - x) / steepness)


# every key a config's truth_params may set, per profile, with its default;
# None marks a key the profile needs
TRUTH_PARAMS = {
    "example1": {"depth": 0.2, "center": 0.5, "width": 0.12, "beta_base": 1.0,
                 "beta_dip": 2.0, "beta_center": 0.6, "beta_width": 0.15},
    "example2": {"noise_f": 0.01, "noise_beta": 0.05, "dip_depth": 0.25, "dip_center": 0.3,
                 "dip_width": 0.15, "bump_height": 0.15, "bump_center": 0.8,
                 "bump_width": 0.06, "beta_base": 0.5},
    "example3": {"centers": (0.2, 0.5, 0.8), "depths": (0.35, 0.45, 0.4),
                 "halfwidths": (0.05, 0.06, 0.05), "steepness": 0.008,
                 "beta_base": 1.0, "beta_drop": 2.5},
    "custom": dict.fromkeys(("f_x", "f_values", "beta_x", "beta_values")),
}


def truth_parameters(name: str, params: dict | None = None) -> dict:
    """The parameters of truth profile name: its TRUTH_PARAMS row updated by
    params.  Raises ConfigError for an unknown profile, an unknown key, a
    missing required one, a value that is not finite numbers, or custom
    samples that are not strictly increasing or not as long as their values."""
    if name not in TRUTH_PARAMS:
        raise ConfigError(f"unknown truth profile {name!r}")
    unknown = set(params or {}) - set(TRUTH_PARAMS[name])
    if unknown:
        raise ConfigError(f"unknown {name} truth parameters: {sorted(unknown)}")
    merged = {**TRUTH_PARAMS[name], **(params or {})}
    missing = sorted(k for k, v in merged.items() if v is None)
    if missing:
        raise ConfigError(f"{name} truth needs the parameters {missing}")
    for key, value in merged.items():
        try:
            finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ConfigError(f"truth profile {name!r}: parameter {key!r} must be finite numbers")
    if name == "custom":  # np.interp reads any other samples without an error
        for x_key, v_key in (("f_x", "f_values"), ("beta_x", "beta_values")):
            x, v = (np.asarray(merged[k], dtype=float) for k in (x_key, v_key))
            if x.ndim != 1 or x.size == 0 or v.shape != x.shape or np.any(np.diff(x) <= 0.0):
                raise ConfigError(f"custom truth: {x_key} must be strictly increasing, "
                                  f"non-empty and as long as {v_key}")
    return merged


def truth_profiles(name: str, params: dict | None = None, L: float = 1.0,
                   rng: np.random.Generator | None = None):
    """Analytic truth profiles (boundary height f and log-admittance beta).

    Returns (boundary_profile, beta_fn) where boundary_profile has an
    eval(x) -> (f, df) method and beta_fn maps arc-coordinates to values.
    example2 adds white noise to both curves and needs an rng.
    """
    P = truth_parameters(name, params)
    x = np.linspace(0.0, L, 4096 + 1)

    if name == "example1":
        fvals = 1.0 - P["depth"] * _gaussian_bump(x, P["center"], P["width"])
        beta_fn = lambda s: (P["beta_base"] - P["beta_dip"]
                             * _gaussian_bump(np.asarray(s), P["beta_center"], P["beta_width"]))
    elif name == "example2":
        if rng is None:
            raise ValueError("example2 truth needs an rng for its white noise")
        fvals = (1.0 - P["dip_depth"] * _gaussian_bump(x, P["dip_center"], P["dip_width"])
                 + P["bump_height"] * _gaussian_bump(x, P["bump_center"], P["bump_width"]))
        fvals = fvals + P["noise_f"] * rng.standard_normal(x.size)
        beta_smooth = (P["beta_base"]
                       - 1.5 * _gaussian_bump(x, 0.35, 0.18)
                       + 1.0 * _gaussian_bump(x, 0.75, 0.1))
        beta_vals = beta_smooth + P["noise_beta"] * rng.standard_normal(x.size)
        beta_fn = lambda s: np.interp(np.asarray(s), x, beta_vals)
    elif name == "example3":
        fvals = np.ones_like(x)
        beta_vals = np.full_like(x, P["beta_base"])
        for c, d, hw in zip(P["centers"], P["depths"], P["halfwidths"]):
            cav = _smooth_cavity(x, c, hw, P["steepness"])
            fvals = fvals - d * cav
            beta_vals = beta_vals - P["beta_drop"] * cav
        beta_fn = lambda s: np.interp(np.asarray(s), x, beta_vals)
    else:  # custom
        fvals = np.interp(x, P["f_x"], P["f_values"])
        beta_fn = lambda s: np.interp(np.asarray(s), P["beta_x"], P["beta_values"])
    return SampledProfile(x=x, values=fvals), beta_fn


# -- synthetic data ----------------------------------------------------------

@dataclass
class SyntheticDataset:
    y: np.ndarray
    y_noiseless: np.ndarray
    delta_e: float
    seed: int
    sensor_x1: np.ndarray
    n_loads: int
    truth_f: np.ndarray        # f sampled at the fine trace nodes
    truth_beta: np.ndarray     # beta at the fine trace nodes
    truth_s: np.ndarray        # fine trace arc-coordinates
    fine_mesh: dict            # metadata of the generating mesh

    def to_files(self, json_path: str, csv_path: str):
        header = {
            "delta_e": self.delta_e, "seed": self.seed,
            "n_loads": self.n_loads,
            "sensor_x1": self.sensor_x1.tolist(),
            "truth_s": self.truth_s.tolist(),
            "truth_f": self.truth_f.tolist(),
            "truth_beta": self.truth_beta.tolist(),
            "fine_mesh": self.fine_mesh,
            "csv": os.path.basename(csv_path),
        }
        atomic_write(json_path, json.dumps(header, indent=2))
        atomic_write(csv_path, table_csv(["y", "y_noiseless"], self.y, self.y_noiseless))

    @classmethod
    def from_files(cls, json_path: str) -> "SyntheticDataset":
        with open(json_path) as fh:
            header = json.load(fh)
        csv_path = os.path.join(os.path.dirname(json_path), header["csv"])
        payload = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        return cls(y=payload[:, 0], y_noiseless=payload[:, 1],
                   delta_e=header["delta_e"], seed=header["seed"],
                   sensor_x1=np.asarray(header["sensor_x1"]),
                   n_loads=header["n_loads"],
                   truth_f=np.asarray(header["truth_f"]),
                   truth_beta=np.asarray(header["truth_beta"]),
                   truth_s=np.asarray(header["truth_s"]),
                   fine_mesh=header["fine_mesh"])


def generate_data(config: ExperimentConfig) -> SyntheticDataset:
    """Solve the forward problem with the truth profiles on the fine mesh and
    add Gaussian noise scaled to the stated percentage of the data range."""
    fine = config.fine_mesh
    inv = config.inversion_mesh
    n_fine = (fine.nx + 1) * (fine.ny + 1)
    n_inv = (inv.nx + 1) * (inv.ny + 1)
    if n_fine < 3 * n_inv:
        raise ConfigError("fine mesh must have at least 3x the inversion mesh nodes")

    seeds = np.random.SeedSequence(config.seed).spawn(2)
    rng_truth = np.random.default_rng(seeds[0])
    rng_noise = np.random.default_rng(seeds[1])

    profile, beta_fn = truth_profiles(config.truth_profile, config.truth_params,
                                      L=config.L, rng=rng_truth)
    ws = fem.workspace(config.L, config.H, fine.nx, fine.ny)
    trace = ws.trace
    beta_true = np.asarray(beta_fn(trace.s), dtype=float)

    try:
        system = fem.assemble(ws, profile.eval(ws.x1), beta_true)
        y0 = fem.forward(system, ws.loads(config.n_loads), ws.sensor_operator(config.sensor_x1())).y
    except (InvalidShapeError, fem.SolverError) as exc:
        raise ConfigError(f"truth profile {config.truth_profile!r}: {exc}") from exc

    delta_e = float(y0.max() - y0.min()) * config.noise_percent / 100.0
    y = y0 + delta_e * rng_noise.standard_normal(y0.size)

    f_true, _ = profile.eval(trace.s)
    return SyntheticDataset(y=y, y_noiseless=y0, delta_e=delta_e, seed=config.seed,
                            sensor_x1=config.sensor_x1(), n_loads=config.n_loads,
                            truth_f=f_true, truth_beta=beta_true, truth_s=trace.s,
                            fine_mesh={"nx": fine.nx, "ny": fine.ny, "n_nodes": n_fine,
                                       "n_trace": trace.n_nodes})


# -- inference runs ----------------------------------------------------------

def build_problem(config: ExperimentConfig, dataset: SyntheticDataset) -> Problem:
    ws = fem.workspace(config.L, config.H, config.inversion_mesh.nx, config.inversion_mesh.ny)
    settings = (config.p, config.sigma_alpha2, config.s_alpha, config.delta_beta2, config.corr_l)
    prior = ws.memo(("prior", *settings), lambda: joint_prior(
        build_alpha_prior(config.p, config.sigma_alpha2, config.s_alpha),
        build_beta_prior(ws.trace, config.delta_beta2, config.corr_l)))
    return Problem(ws=ws, p=config.p, prior=prior, data=dataset.y,
                   noise_std=dataset.delta_e, sensor_x1=dataset.sensor_x1,
                   n_loads=dataset.n_loads)


def boundary_height(problem: Problem, alpha: np.ndarray) -> np.ndarray:
    """The boundary height H (1 + V alpha) at the trace nodes, for one alpha
    (n_alpha,) or a stack of them (n, n_alpha)."""
    return problem.mesh.H * (1.0 + alpha @ problem.basis.Vs.T)


@dataclass
class MapResult:
    m_map: np.ndarray
    report: optimize.GaussNewtonReport
    laplace: optimize.LaplaceApproximation
    problem: Problem


def run_map(config: ExperimentConfig, dataset: SyntheticDataset) -> MapResult:
    """Gauss-Newton MAP estimate plus Laplace approximation; writes a JSON
    report and CSV envelope tables to the output directory."""
    problem = build_problem(config, dataset)
    m_map, report = optimize.gauss_newton(problem, problem.prior_mean, config.gn)
    lap = optimize.laplace(m_map, report.hessian)

    alpha_map, beta_map = problem.split(m_map)
    std = lap.marginal_std
    # the boundary height's pointwise std from the alpha covariance block
    Vs, cov_aa = problem.basis.Vs, lap.covariance[:problem.n_alpha, :problem.n_alpha]
    bnd_std = problem.mesh.H * np.sqrt(np.einsum("si,ij,sj->s", Vs, cov_aa, Vs))
    bnd_map = boundary_height(problem, alpha_map)

    out = config.output_dir
    rep = {
        "m_map": m_map.tolist(),
        "alpha_map": alpha_map.tolist(),
        "beta_map": beta_map.tolist(),
        "marginal_std": std.tolist(),
        "gauss_newton": report.to_dict(),
        "n_parameters": problem.n,
        "inversion_mesh": {"nx": config.inversion_mesh.nx, "ny": config.inversion_mesh.ny,
                           "n_nodes": problem.mesh.n_nodes,
                           "n_trace": problem.trace.n_nodes},
    }
    atomic_write(os.path.join(out, "map_report.json"), json.dumps(rep, indent=2))

    names = ["s", "center"] + [f"{b}{k}" for k in (1, 2, 3) for b in ("lo", "hi")]
    for field_name, center, sigma in (("boundary", bnd_map, bnd_std),
                                      ("robin", beta_map, std[problem.n_alpha:])):
        bands = [c for k in (1, 2, 3) for c in (center - k * sigma, center + k * sigma)]
        atomic_write(os.path.join(out, f"{field_name}_envelope_laplace.csv"),
                     table_csv(names, problem.trace.s, center, *bands))
    return MapResult(m_map=m_map, report=report, laplace=lap, problem=problem)


@dataclass
class McmcResult:
    chain: mala.ChainOutput
    summary: dict


def chain_csv(problem: Problem, output: mala.ChainOutput) -> str:
    """chain.csv, the text `table_csv` writes for the columns of the states,
    J and the accepted flag.  A rejected step leaves the state and J as they
    were, so a row whose flag is 0 repeats the row above and reuses its
    text: only the first row and the accepted rows are formatted."""
    names = [f"alpha_{i}" for i in range(problem.n_alpha)]
    names += [f"beta_{j + 1}" for j in range(problem.q)]
    lines = [",".join(names + ["J", "accepted"])]
    flags = output.accept_flags.astype(int)
    new = output.accept_flags.astype(bool)
    new[:1] = True
    text = None
    for i in range(0, len(output.samples), 1024):
        block = slice(i, i + 1024)
        rows = np.column_stack([output.samples[block], output.J_trace[block]])
        fresh = iter(rows[new[block]].tolist())
        for is_new, flag in zip(new[block].tolist(), flags[block].tolist()):
            if is_new:
                text = ",".join(map(repr, next(fresh)))
            lines.append(f"{text},{flag!r}")
    return "\n".join(lines) + "\n"


def run_mcmc(config: ExperimentConfig, dataset: SyntheticDataset,
             map_result: MapResult) -> McmcResult:
    """MALA from the MAP estimate with the Laplace covariance as the initial
    proposal; writes the chain CSV and a summary JSON."""
    problem = map_result.problem
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])
    output = mala.run_chain(map_result.m_map, map_result.laplace.covariance,
                            problem.potential_and_gradient, rng,
                            **dataclasses.asdict(config.mala))

    cm = output.samples.mean(axis=0)
    std = output.samples.std(axis=0, ddof=1)
    hw = mala.mcse_halfwidth(output.samples)
    skew_beta = mala.skewness(output.samples[:, problem.n_alpha:])

    # pointwise credible envelopes for the boundary height and Robin field
    heights = boundary_height(problem, output.samples[:, :problem.n_alpha])
    levels = {"68": (16.0, 84.0), "95": (2.5, 97.5), "99.7": (0.15, 99.85)}
    bnd_env = {k: np.percentile(heights, v, axis=0).tolist() for k, v in levels.items()}
    beta_samples = output.samples[:, problem.n_alpha:]
    rob_env = {k: np.percentile(beta_samples, v, axis=0).tolist() for k, v in levels.items()}

    out = config.output_dir
    atomic_write(os.path.join(out, "chain.csv"), chain_csv(problem, output))
    summary = {
        "converged": output.converged,
        "n_recorded": output.n_recorded,
        "burn_in": output.n_burn_in,
        "acceptance_rate": output.acceptance_rate,
        "acceptance_rate_trace": output.acceptance_rate_trace,
        "final_tau": output.final_tau,
        "n_invalid_proposals": output.n_invalid,
        "cm": cm.tolist(),
        "posterior_std": std.tolist(),
        "mcse": output.mcse.tolist(),
        "mcse_halfwidth_over_std": (hw / std).tolist(),
        "beta_skewness": skew_beta.tolist(),
        "trace_s": problem.trace.s.tolist(),
        "boundary_envelopes": bnd_env,
        "robin_envelopes": rob_env,
    }
    atomic_write(os.path.join(out, "mcmc_summary.json"), json.dumps(summary, indent=2))
    return McmcResult(chain=output, summary=summary)


def diagnose(chain_paths: list) -> dict:
    """Gelman-Rubin and MCSE tables from saved chain CSV files."""
    # the states, without the J and accepted columns
    chains = [np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[:, :-2] for p in chain_paths]
    length = min(c.shape[0] for c in chains)
    chains = [c[:length] for c in chains]
    result = {"n_chains": len(chains), "length": length}
    if len(chains) >= 2:
        result["gelman_rubin"] = mala.gelman_rubin(chains).tolist()
    result["mcse"] = [mala.mcse_batch_means(c).tolist() for c in chains]
    return result
