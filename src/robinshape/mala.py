"""Metropolis-adjusted Langevin sampling with continuous adaptation of the
proposal covariance and step size, batch-means MCSE stopping, and the
Gelman-Rubin diagnostic.  A step works in the whitened coordinates of the
proposal covariance A = C C^T and needs no inverse; the empirical covariance
is brought up to date only when the proposal is refreshed."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import stdtrit


# weight offset of the adaptation: keeps the early gamma small so the
# initial proposal covariance is not wiped out by the first few updates
_T_OFFSET = 100
_CONFIDENCE = 0.98


@dataclass
class MalaSettings:
    """run_chain's settings: exactly the keys of a config's "mala" object."""

    burn_in: int = 10_000
    max_steps: int = 400_000
    check_interval: int = 5_000
    mcse_threshold: float = 0.1
    target_accept: float = 0.574
    adapt_exponent: float = 0.6
    refresh_every: int = 100
    tau_init: float = 0.1

    def __post_init__(self):
        counts = (self.burn_in, self.max_steps, self.check_interval, self.refresh_every)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in counts):
            raise ValueError("burn_in, max_steps, check_interval and refresh_every "
                             "must be integers")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.max_steps < 100:
            raise ValueError("max_steps must be at least 100, the batch-means minimum")
        if self.check_interval < 1 or self.refresh_every < 1:
            raise ValueError("check_interval and refresh_every must be at least 1")
        if not (self.mcse_threshold > 0 and self.tau_init > 0 and self.adapt_exponent > 0):
            raise ValueError("mcse_threshold, tau_init and adapt_exponent must be positive")
        if not 0 < self.target_accept < 1:
            raise ValueError("target_accept must lie strictly between 0 and 1")


@dataclass
class ChainState:
    """The current state with its potential and gradient.  w = C^T grad is
    kept for the proposal factor w_chol = C it was computed with: the step
    takes it from the accepted proposal's reverse term and recomputes it
    only when refresh_proposal has replaced the factor."""

    m: np.ndarray
    J: float
    grad: np.ndarray
    n_steps: int = 0
    n_accepted: int = 0
    n_invalid: int = 0
    w: np.ndarray | None = None
    w_chol: np.ndarray | None = None


@dataclass
class AdaptState:
    """Proposal covariance A = chol_A chol_A^T, kept as the factor the step
    reads, and log step size, adapted with weights t^(-settings.adapt_exponent).

    mean and log_tau change at every step, cov only at a refresh (every
    k = settings.refresh_every steps): the deviations x_t - mean_t wait as the
    rows of ``deviations`` = D, and the refresh applies the exact identity
    (t + T0) cov_t = (t + T0 - k) cov_{t-k} + D^T D of the per-step recursion."""

    chol_A: np.ndarray
    log_tau: float
    mean: np.ndarray
    cov: np.ndarray
    deviations: np.ndarray  # (refresh_every, n)
    settings: MalaSettings
    t: int = 0

    @property
    def tau(self) -> float:
        return float(np.exp(self.log_tau))


def make_adapt_state(A_init: np.ndarray, mean_init: np.ndarray,
                     settings: MalaSettings) -> AdaptState:
    cov = np.asarray(A_init, dtype=float).copy()
    return AdaptState(chol_A=sla.cholesky(cov, lower=True),
                      log_tau=float(np.log(settings.tau_init)),
                      mean=np.asarray(mean_init, dtype=float).copy(), cov=cov,
                      deviations=np.empty((settings.refresh_every, cov.shape[0])),
                      settings=settings)


def mala_step(state: ChainState, adapt_state: AdaptState, target, rng,
              xi: np.ndarray | None = None):
    """One proposal/accept step.  target(m) -> (J, grad); an infinite J, a
    non-finite gradient or a non-finite acceptance ratio auto-rejects and is
    counted in state.n_invalid.  Returns the acceptance probability.

    With A = C C^T, u = sqrt(2 tau) xi and w = C^T grad J(m), the proposal is
    m' = m + C (u - tau w), the forward kernel term |C^{-1}(m' - m + tau A
    grad J(m))|^2 is exactly |u|^2 and the reverse term is
    |u - tau (w + C^T grad J(m'))|^2."""
    tau = adapt_state.tau
    C = adapt_state.chol_A
    if state.w_chol is not C:
        state.w, state.w_chol = state.grad @ C, C
    if xi is None:
        xi = rng.standard_normal(state.m.size)
    u = np.sqrt(2.0 * tau) * xi
    step = u - tau * state.w
    proposal = state.m + C @ step

    J_prop, grad_prop = target(proposal)
    state.n_steps += 1
    log_ratio = math.nan
    if math.isfinite(J_prop) and grad_prop is not None:
        # a non-finite gradient makes the reverse term and the ratio non-finite
        w_prop = grad_prop @ C
        r = step - tau * w_prop
        log_ratio = state.J - J_prop - (float(r @ r) - float(u @ u)) / (4.0 * tau)
    # a NaN ratio would make a NaN acceptance probability and step size
    if not math.isfinite(log_ratio):
        state.n_invalid += 1
        return 0.0
    accept_prob = 1.0 if log_ratio >= 0.0 else float(np.exp(log_ratio))

    # rng.random() is the value rng.uniform() draws, drawn at every valid
    # step; log(uniform) < 0 <= log_ratio accepts without the logarithm
    uniform = rng.random()
    if log_ratio >= 0.0 or np.log(uniform) < log_ratio:
        state.m = proposal
        state.J = J_prop
        state.grad = grad_prop
        state.w = w_prop
        state.n_accepted += 1
    return accept_prob


def adapt(adapt_state: AdaptState, sample: np.ndarray, accept_prob: float):
    """Recursive empirical-covariance update plus Robbins-Monro step tuning.

    The covariance uses running-average (1/t) weights, so it converges to the
    empirical covariance of the whole history; the offset acts as pseudo
    observations of the initial proposal covariance.  The step size uses the
    faster diminishing t^(-adapt_exponent) weights.  The covariance is brought
    up to date only at a refresh (see AdaptState)."""
    settings = adapt_state.settings
    row = adapt_state.t % settings.refresh_every
    adapt_state.t += 1
    t_eff = adapt_state.t + _T_OFFSET
    adapt_state.mean += (1.0 / t_eff) * (sample - adapt_state.mean)
    np.subtract(sample, adapt_state.mean, out=adapt_state.deviations[row])
    adapt_state.log_tau += t_eff ** (-settings.adapt_exponent) * (
        accept_prob - settings.target_accept)
    if row + 1 == settings.refresh_every:
        D = adapt_state.deviations
        adapt_state.cov = ((t_eff - settings.refresh_every) * adapt_state.cov
                           + D.T @ D) / t_eff
        refresh_proposal(adapt_state)
    return adapt_state


def refresh_proposal(adapt_state: AdaptState):
    n = adapt_state.cov.shape[0]
    eps = 1e-10 * np.trace(adapt_state.cov) / n
    while True:
        try:
            adapt_state.chol_A = sla.cholesky(adapt_state.cov + eps * np.eye(n), lower=True)
            return
        except sla.LinAlgError:
            eps *= 100.0


def mcse_batch_means(samples: np.ndarray) -> np.ndarray:
    """Per-coordinate MCSE from floor(sqrt(n)) non-overlapping batches."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n = samples.shape[0]
    if n < 100:
        raise ValueError("need at least 100 samples for batch-means MCSE")
    n_b = int(np.floor(np.sqrt(n)))
    b = n // n_b
    means = samples[:n_b * b].reshape(n_b, b, -1).mean(axis=1)
    return means.std(axis=0, ddof=1) / np.sqrt(n_b)


def mcse_halfwidth(samples: np.ndarray) -> np.ndarray:
    """Confidence halfwidth t_{1-(1-c)/2, n_b - 1} * MCSE per coordinate at
    confidence c = _CONFIDENCE."""
    n = samples.shape[0]
    n_b = int(np.floor(np.sqrt(n)))
    # stdtrit(df, q) is the Student-t quantile that scipy.stats.t.ppf calls
    tcrit = stdtrit(n_b - 1, 1.0 - (1.0 - _CONFIDENCE) / 2.0)
    return tcrit * mcse_batch_means(samples)


def skewness(samples: np.ndarray) -> np.ndarray:
    """Biased sample skewness m3 / m2^1.5 per coordinate, NaN where the
    coordinate is constant to rounding: the arithmetic of scipy.stats.skew,
    written out so that the library does not import scipy.stats."""
    mean = samples.mean(axis=0)
    d = samples - mean
    m2 = (d ** 2).mean(axis=0)
    m3 = (d ** 2 * d).mean(axis=0)
    with np.errstate(all="ignore"):
        zero = m2 <= (np.finfo(m2.dtype).eps * mean) ** 2
        return np.where(zero, np.nan, m3 / m2 ** 1.5)


def stopping_rule(samples: np.ndarray, threshold: float) -> bool:
    """True iff every coordinate's MCSE halfwidth is below threshold times the
    (empirical) posterior standard deviation."""
    hw = mcse_halfwidth(samples)
    std = samples.std(axis=0, ddof=1)
    return bool(np.all(hw < threshold * std))


def gelman_rubin(chains: list) -> np.ndarray:
    """Classical potential-scale-reduction factor per coordinate."""
    if len(chains) < 2:
        raise ValueError("Gelman-Rubin needs at least 2 chains")
    X = np.stack([np.asarray(c, dtype=float) for c in chains])  # (m, n, d)
    n = X.shape[1]
    within = X.var(axis=1, ddof=1).mean(axis=0)
    between_over_n = X.mean(axis=1).var(axis=0, ddof=1)
    var_plus = (n - 1) / n * within + between_over_n
    return np.sqrt(var_plus / within)


@dataclass
class ChainOutput:
    samples: np.ndarray          # (recorded, n)
    J_trace: np.ndarray
    accept_flags: np.ndarray
    acceptance_rate_trace: list
    mcse: np.ndarray
    converged: bool
    n_burn_in: int
    n_recorded: int
    final_tau: float
    n_invalid: int  # proposals auto-rejected as invalid, burn-in included

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accept_flags)) if self.accept_flags.size else 0.0


def run_chain(m_init: np.ndarray, A_init: np.ndarray, target, rng,
              **settings) -> ChainOutput:
    """Burn-in with adaptation, then record every state until the batch-means
    MCSE stopping rule fires (checked every check_interval recorded steps) or
    max_steps recorded steps are reached.  The keyword arguments are the
    fields of MalaSettings."""
    s = MalaSettings(**settings)
    m0 = np.asarray(m_init, dtype=float).copy()
    J0, g0 = target(m0)
    if not np.isfinite(J0):
        raise ValueError("initial chain state has infinite potential")
    state = ChainState(m=m0, J=J0, grad=g0)
    ad = make_adapt_state(A_init, m0, s)

    for _ in range(s.burn_in):
        ap = mala_step(state, ad, target, rng)
        adapt(ad, state.m, ap)

    n = m0.size
    samples = np.empty((s.max_steps, n))
    J_trace = np.empty(s.max_steps)
    accept_flags = np.zeros(s.max_steps, dtype=bool)
    rate_trace = []
    converged = False
    recorded = 0
    accepted_before = state.n_accepted

    while recorded < s.max_steps:
        ap = mala_step(state, ad, target, rng)
        adapt(ad, state.m, ap)
        samples[recorded] = state.m
        J_trace[recorded] = state.J
        accept_flags[recorded] = state.n_accepted > accepted_before
        accepted_before = state.n_accepted
        recorded += 1
        if recorded % s.check_interval == 0:
            window = samples[:recorded]
            rate_trace.append((recorded, float(np.mean(accept_flags[:recorded]))))
            if recorded >= 100 and stopping_rule(window, threshold=s.mcse_threshold):
                converged = True
                break

    samples = samples[:recorded]
    return ChainOutput(samples=samples, J_trace=J_trace[:recorded],
                       accept_flags=accept_flags[:recorded],
                       acceptance_rate_trace=rate_trace,
                       mcse=mcse_batch_means(samples), converged=converged,
                       n_burn_in=s.burn_in, n_recorded=recorded, final_tau=ad.tau,
                       n_invalid=state.n_invalid)
