"""Synthetic data generators used by the benchmarks and tests."""

from __future__ import annotations

import numpy as np

SIGNAL_NAMES = ("doppler", "heavisine", "blocks", "bumps")

# Knot positions and coefficients of the piecewise test signals (the classic
# 11-knot tables); frozen here so benchmark CSVs are stable across versions.
_KNOTS = np.array([0.10, 0.13, 0.15, 0.23, 0.25, 0.40,
                   0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2,
                      2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2,
                     2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03,
                     0.01, 0.01, 0.005, 0.008, 0.005])


def make_toy_classification(n: int, seed: int = 0):
    """Two overlapping Gaussian blobs in the plane, labels fair coin flips.

    Class 1 sits at (+0.75, +0.75) and class 0 at the mirror point, both with
    isotropic spread 1.5, so the Bayes boundary is the anti-diagonal and no
    classifier can be perfect.  Returns (X, y).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    centers = np.where(y[:, None] == 1, 0.75, -0.75)
    X = centers + rng.normal(0.0, 1.5, size=(n, 2))
    return X, y


def donoho_signal(name: str, t) -> np.ndarray:
    """Evaluate one of the classic benchmark signals on t in [0, 1]."""
    t = np.asarray(t, dtype=np.float64)
    if name == "doppler":
        return np.sqrt(t * (1.0 - t)) * np.sin(2.1 * np.pi / (t + 0.05))
    if name == "heavisine":
        return 4.0 * np.sin(4.0 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)
    if name == "blocks":
        steps = 0.5 * (1.0 + np.sign(t[..., None] - _KNOTS))
        return steps @ _BLOCKS_H
    if name == "bumps":
        u = (t[..., None] - _KNOTS) / _BUMPS_W
        return ((1.0 + np.abs(u)) ** -4) @ _BUMPS_H
    raise ValueError(f"unknown signal {name!r}, expected one of {SIGNAL_NAMES}")


def signal_grid(name: str, n: int):
    """Sample a signal on the uniform grid t_i = (i - 1/2) / n.

    The half-offset keeps t strictly inside (0, 1), away from the endpoint
    behavior of doppler.  Returns (t, values).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = (np.arange(n) + 0.5) / n
    return t, donoho_signal(name, t)


def add_noise(values, snr: float, seed: int = 0) -> np.ndarray:
    """Add white Gaussian noise scaled so sd(signal) / sd(noise) = snr."""
    values = np.asarray(values, dtype=np.float64)
    # NaN fails every comparison, so the check asks for the good case.
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    if snr == float("inf"):
        raise ValueError("snr must be finite, got inf")
    sd = float(values.std())
    if sd == 0.0:
        raise ValueError("signal is constant; snr is undefined")
    rng = np.random.default_rng(seed)
    return values + (sd / snr) * rng.standard_normal(values.shape)
