"""Fourier boundary parameterisation and push-forward coefficient machinery.

The unknown top boundary sits at height H*f(x1) with f a truncated Fourier
series.  The diffeomorphism (x1, x2) -> (x1, x2/f(x1)) maps the deformed
domain onto the reference slab; solving there requires the anisotropic
conductivity tensor and the transformed boundary-admittance factor.  Both
are pointwise functions of the profile values f and df/dx1, and so are their
derivatives with respect to those profile values, provided here; the chain
rule through a shape basis belongs to the caller.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidShapeError(Exception):
    """The height profile f is not finite and positive where it is evaluated."""


def fourier_basis(p: int, L: float, x):
    """Values and x-derivatives of the 2p+1 Fourier basis functions at x.

    Ordering: [1, sin(2*pi*x/L), cos(2*pi*x/L), sin(4*pi*x/L), cos(4*pi*x/L), ...],
    i.e. index 2n-1 is the frequency-n sine and index 2n the frequency-n cosine.
    Returns (vals, dvals), each with shape x.shape + (2p+1,).
    """
    x = np.asarray(x, dtype=float)
    vals = np.empty(x.shape + (2 * p + 1,))
    dvals = np.empty_like(vals)
    vals[..., 0] = 1.0
    dvals[..., 0] = 0.0
    if p > 0:
        w = 2.0 * np.pi * np.arange(1, p + 1) / L
        phase = x[..., None] * w
        sin, cos = np.sin(phase), np.cos(phase)
        vals[..., 1::2] = sin
        vals[..., 2::2] = cos
        dvals[..., 1::2] = w * cos
        dvals[..., 2::2] = -w * sin
    return vals, dvals


@dataclass(frozen=True)
class SampledProfile:
    """Piecewise-linear height profile given by samples on a grid.

    Used for analytic truth shapes that are not in the Fourier span; the
    derivative is the piecewise-constant slope of the interpolant.
    """

    x: np.ndarray
    values: np.ndarray

    def eval(self, x1):
        x1 = np.asarray(x1, dtype=float)
        f = np.interp(x1, self.x, self.values)
        slopes = np.diff(self.values) / np.diff(self.x)
        idx = np.clip(np.searchsorted(self.x, x1, side="right") - 1, 0, len(slopes) - 1)
        return f, slopes[idx]


def pushforward_entries_from(f, df, x2):
    """Entries (s11, s12, s22) of the symmetric push-forward conductivity at
    reference points of height coordinate x2, from the profile values f and
    df/dx1 at their x1; the physical height coordinate is x2 * f(x1)."""
    if np.any(f <= 0.0):
        raise InvalidShapeError("height profile f is not positive at evaluation points")
    return f, -x2 * df, 1.0 / f + x2 ** 2 * df ** 2 / f


def pushforward_alpha_entries_from(f, df, x2):
    """Pointwise derivatives (ds22/df, ds22/d(df)) of the tensor entry s22
    at reference height coordinate x2.  The other entries, s11 = f and
    s12 = -x2 * df, have the constant partials 1 and -x2."""
    return -(1.0 + x2 ** 2 * df ** 2) / f ** 2, 2.0 * x2 ** 2 * df / f


def admittance_factor_from(df, H):
    """Arc-length factor sqrt(1 + (df/ds)^2 H^2) multiplying exp(beta)."""
    return np.sqrt(1.0 + df ** 2 * H ** 2)


def admittance_alpha_entries_from(df, H):
    """Derivative of the admittance factor with respect to the slope df."""
    return H ** 2 * df / admittance_factor_from(df, H)
