"""End-to-end acceptance checks.  Each test prints one PASS/FAIL line."""
import json
import os
import time

import numpy as np
import pytest
import scipy.linalg as sla

from robinshape import fem, mala
from robinshape.geometry import pushforward_entries_from
from robinshape.harness import (ExperimentConfig, build_problem, generate_data,
                                run_map, run_mcmc)
from robinshape.mesh import build_slab_mesh, trace_of_top
from robinshape.optimize import gauss_newton, laplace
from robinshape.priors import build_beta_prior

from conftest import (BoundaryShape, LinearGaussianProblem, random_valid_parameters,
                      small_problem)


def verdict(number, label, ok):
    print(f"[criterion {number:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def random_shape(rng, p=7, max_tries=100):
    for _ in range(max_tries):
        alpha = 0.04 * rng.standard_normal(2 * p + 1)
        shape = BoundaryShape(alpha=alpha)
        if shape.min_f() > 0.3:
            return shape
    raise RuntimeError("no valid shape found")


# -- 1: push-forward invariance under refinement ------------------------------

def test_criterion_01_pushforward_invariance():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    sensors = (np.arange(32) + 0.5) / 32
    grids = (64, 128, 256)
    all_orders, finest = [], []
    for _ in range(5):
        shape = random_shape(rng)
        disc = []
        for nx in grids:
            ny = nx // 16
            mesh = build_slab_mesh(1.0, 0.05, nx, ny)
            ws = fem.FemWorkspace(mesh)
            beta = 0.8 + 0.5 * np.sin(2 * np.pi * ws.trace.s)
            ref = fem.forward(fem.assemble(ws, shape.eval(ws.x1), beta), fem.all_loads(ws, 8),
                              ws.sensor_operator(sensors))
            def_obs = fem.solve_deformed(mesh, shape, beta, 8, sensors)
            disc.append(np.linalg.norm(ref.y - def_obs.y) / np.linalg.norm(def_obs.y))
        finest.append(disc[-1])
        orders = [np.log2(disc[i] / disc[i + 1]) for i in range(len(grids) - 1)]
        all_orders.append(np.mean(orders))
    elapsed = time.monotonic() - t0
    ok = (max(finest) < 0.01 and min(all_orders) >= 1.8 and elapsed < 120.0)
    print(f"    finest-grid max discrepancy {max(finest):.3e}, "
          f"orders {['%.2f' % o for o in all_orders]}, {elapsed:.1f}s")
    verdict(1, "push-forward invariance + order >= 1.8", ok)


# -- 2: adjoint gradient vs central finite differences ------------------------

def test_criterion_02_adjoint_gradient_fd():
    t0 = time.monotonic()
    prob = small_problem()
    rng = np.random.default_rng(202)
    # flanking larger steps make the truncation branch of the V visible; the
    # accuracy check uses the 1e-4..1e-7 window, where the minimum must lie
    steps = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    window = slice(2, 6)
    worst = 0.0
    minimum_in_window = 0
    for _ in range(10):
        m = random_valid_parameters(prob, rng)
        _, g = prob.potential_and_gradient(m)
        err_by_step = np.zeros((len(steps), prob.n))
        for si, h in enumerate(steps):
            for i in range(prob.n):
                e = np.zeros(prob.n)
                e[i] = h
                fd = (prob.potential_value(m + e) - prob.potential_value(m - e)) / (2 * h)
                err_by_step[si, i] = abs(fd - g[i]) / max(abs(g[i]), abs(fd), 1e-12)
        worst = max(worst, float(err_by_step[window].min(axis=0).max()))
        mean_err = err_by_step.mean(axis=1)
        k = int(np.argmin(mean_err))
        if 0 < k < len(steps) - 1 and 1e-7 <= steps[k] <= 1e-4:
            minimum_in_window += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and minimum_in_window == 10 and elapsed < 300.0
    print(f"    worst best-over-sweep relative error {worst:.2e}, "
          f"minimum inside 1e-4..1e-7 in {minimum_in_window}/10 sweeps, "
          f"{elapsed:.1f}s")
    verdict(2, "adjoint gradient matches central FD to 1e-4", ok)


# -- 3: gradient/Jacobian consistency ------------------------------------------

def test_criterion_03_gradient_jacobian_consistency():
    prob = small_problem()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10):
        m = random_valid_parameters(prob, rng)
        ev = prob.potential(m)
        g = prob.gradient(m)
        G = prob.jacobian(m)
        g_prior = prob.prior_precision @ (m - prob.prior_mean)
        g_ref = G.T @ (ev.state.y - prob.data) / prob.noise_std ** 2 + g_prior
        worst = max(worst, float(np.max(np.abs(g - g_ref))
                                 / np.max(np.abs(g_ref))))
    ok = worst <= 1e-8
    print(f"    worst relative deviation {worst:.2e}")
    verdict(3, "misfit gradient equals G^T noise-weighted residual", ok)


# -- 4: linear-Gaussian exactness ----------------------------------------------

def test_criterion_04_linear_gaussian_exactness():
    rng = np.random.default_rng(404)
    G = rng.standard_normal((40, 12))
    prec = np.diag(rng.uniform(0.5, 2.0, 12))
    prob = LinearGaussianProblem(G=G, data=rng.standard_normal(40), noise_std=0.05,
                                 prior_mean=rng.standard_normal(12),
                                 prior_precision=prec)
    mean, cov = prob.exact_posterior()
    m_map, report = gauss_newton(prob, prob.prior_mean + rng.standard_normal(12))
    lap = laplace(m_map, report.hessian)
    scale = np.max(np.abs(mean))
    ok = (report.n_iters <= 2
          and np.max(np.abs(m_map - mean)) <= 1e-10 * scale
          and np.max(np.abs(lap.covariance - cov)) <= 1e-10)
    print(f"    mean error {np.max(np.abs(m_map - mean)):.2e}, "
          f"cov error {np.max(np.abs(lap.covariance - cov)):.2e}, "
          f"iters {report.n_iters}")
    verdict(4, "one-step GN + exact Laplace covariance to 1e-10", ok)


# -- 5: determinant identity -----------------------------------------------------

def test_criterion_05_determinant_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        shape = random_shape(rng)
        for _ in range(100):
            xt = (rng.uniform(0, 1), rng.uniform(0, 1))
            s11, s12, s22 = pushforward_entries_from(*shape.eval(xt[0]), xt[1])
            det = np.linalg.det(np.array([[s11, s12], [s12, s22]]))
            worst = max(worst, abs(det - 1.0))
    ok = worst <= 1e-12
    print(f"    worst |det - 1| over 10^4 pairs: {worst:.2e}")
    verdict(5, "push-forward tensor determinant is 1", ok)


# -- 6/7/10 share one desk-scale pipeline run --------------------------------

@pytest.fixture(scope="module")
def example1_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("example1")
    cfg = ExperimentConfig(seed=1, output_dir=str(tmp))
    t0 = time.monotonic()
    dataset = generate_data(cfg)
    map_result = run_map(cfg, dataset)
    mcmc_result = run_mcmc(cfg, dataset, map_result)
    elapsed = time.monotonic() - t0
    return cfg, dataset, map_result, mcmc_result, elapsed


def test_criterion_06_example1_pipeline(example1_run):
    cfg, dataset, map_result, mc, elapsed = example1_run
    report = map_result.report
    prob = map_result.problem

    gn_ok = (report.converged and report.reason == "gradient reduction reached"
             and report.n_iters <= 50)

    s = prob.trace.s
    truth_h = prob.mesh.H * np.interp(s, dataset.truth_s, dataset.truth_f)
    truth_b = np.interp(s, dataset.truth_s, dataset.truth_beta)
    b_lo, b_hi = [np.asarray(v) for v in mc.summary["boundary_envelopes"]["99.7"]]
    r_lo, r_hi = [np.asarray(v) for v in mc.summary["robin_envelopes"]["99.7"]]
    cover_h = np.mean((truth_h >= b_lo) & (truth_h <= b_hi))
    cover_b = np.mean((truth_b >= r_lo) & (truth_b <= r_hi))

    ok = (gn_ok and cover_h >= 0.95 and cover_b >= 0.95 and elapsed < 4 * 3600)
    print(f"    GN: {report.reason} in {report.n_iters} iterations; envelope "
          f"coverage boundary {cover_h:.3f}, Robin {cover_b:.3f}; "
          f"pipeline {elapsed / 60:.1f} min, chain {mc.chain.n_recorded} steps, "
          f"acceptance {mc.chain.acceptance_rate:.3f}")
    verdict(6, "desk-scale pipeline: GN cap + 99.7% envelope coverage", ok)


def test_criterion_07_mala_gaussian_surrogate(example1_run):
    cfg, dataset, map_result, mc, _ = example1_run
    lap = map_result.laplace
    t0 = time.monotonic()
    prec = sla.cho_solve((lap.chol_covariance, True), np.eye(lap.mean.size))
    mu = lap.mean

    def target(m):
        d = m - mu
        g = prec @ d
        return 0.5 * float(d @ g), g

    rng = np.random.default_rng(707)
    out = mala.run_chain(mu.copy(), lap.covariance, target, rng,
                         burn_in=5000, max_steps=300_000, check_interval=5000)
    elapsed = time.monotonic() - t0
    std = lap.marginal_std
    mean_err = np.max(np.abs(out.samples.mean(axis=0) - mu) / std)
    ok = (out.converged and mean_err < 0.1
          and 0.45 <= out.acceptance_rate <= 0.70 and elapsed < 1800.0)
    print(f"    93-dim surrogate: converged={out.converged}, "
          f"max mean error {mean_err:.3f} std, acceptance "
          f"{out.acceptance_rate:.3f}, {out.n_recorded} steps, {elapsed:.0f}s")
    verdict(7, "MALA on 93-dim Gaussian surrogate", ok)


# -- 8: MCSE calibration and stopping count ------------------------------------

def test_criterion_08_mcse_calibration():
    rng = np.random.default_rng(808)
    mcse = mala.mcse_batch_means(rng.standard_normal(1_000_000)[:, None])[0]
    mcse_ok = abs(mcse - 1e-3) <= 0.2e-3

    firing = []
    for _ in range(20):
        xs = rng.standard_normal(2000)[:, None]
        fired = None
        for n in range(100, 2001, 10):
            if mala.stopping_rule(xs[:n], threshold=0.1):
                fired = n
                break
        firing.append(fired if fired is not None else 2000)
    median_fire = float(np.median(firing))
    fire_ok = 540.0 / 1.5 <= median_fire <= 540.0 * 1.5
    ok = mcse_ok and fire_ok
    print(f"    MCSE on 10^6 i.i.d.: {mcse:.3e}; stopping fires at median "
          f"n = {median_fire:.0f} (target ~540)")
    verdict(8, "MCSE within 20% of 1e-3; stopping fires near n = 540", ok)


# -- 9: homogeneous prior marginals ---------------------------------------------

def test_criterion_09_beta_prior_homogeneity():
    trace = trace_of_top(build_slab_mesh(1.0, 0.05, 77, 7))
    prior = build_beta_prior(trace, 50.0, 10.0)
    d = np.diag(prior.covariance)
    ratio = float(d.max() / d.min())
    ok = trace.n_nodes == 78 and ratio <= 1.1
    print(f"    78-node trace, max/min marginal variance = {ratio:.4f}")
    verdict(9, "beta-prior marginal variance ratio <= 1.1", ok)


# -- 10: negative skewness where Laplace and MCMC envelopes disagree ------------

def test_criterion_10_robin_skewness(example1_run):
    cfg, dataset, map_result, mc, _ = example1_run
    prob = map_result.problem
    beta_map = prob.split(map_result.m_map)[1]
    sigma = map_result.laplace.marginal_std[prob.n_alpha:]
    lap_lo, lap_hi = beta_map - 3 * sigma, beta_map + 3 * sigma
    r_lo, r_hi = [np.asarray(v) for v in mc.summary["robin_envelopes"]["99.7"]]
    skew = np.asarray(mc.summary["beta_skewness"])

    # visible disagreement: an envelope endpoint off by > 10% of the Laplace
    # halfwidth
    gap = np.maximum(np.abs(r_lo - lap_lo), np.abs(r_hi - lap_hi)) / (3 * sigma)
    disagree = gap > 0.10
    if not np.any(disagree):
        disagree = gap >= np.quantile(gap, 0.9)  # largest-gap decile
    frac_negative = float(np.mean(skew[disagree] < 0.0))

    diag_path = os.path.join(cfg.output_dir, "skewness_check.json")
    with open(diag_path, "w") as fh:
        json.dump({"disagreeing_indices": np.flatnonzero(disagree).tolist(),
                   "envelope_gap_over_halfwidth": gap.tolist(),
                   "beta_skewness": skew.tolist(),
                   "fraction_negative_among_disagreeing": frac_negative}, fh,
                  indent=2)
    ok = frac_negative > 0.5
    print(f"    {int(disagree.sum())} disagreeing coordinates, "
          f"{frac_negative:.2f} with negative skewness; recorded in "
          f"skewness_check.json")
    verdict(10, "negative Robin skewness where envelopes disagree", ok)
