"""Synthetic data generators: frozen signal values and noise calibration."""

import numpy as np
import pytest

from aggforest.datasets import (
    add_noise,
    donoho_signal,
    make_toy_classification,
    signal_grid,
)


def test_toy_classification_shape_balance_overlap():
    X, y = make_toy_classification(1000, seed=0)
    assert X.shape == (1000, 2) and y.shape == (1000,)
    assert np.isfinite(X).all()
    assert set(np.unique(y)) == {0, 1}
    assert abs(y.mean() - 0.5) <= 0.10
    # Classes overlap near the origin, so the task is not separable.
    near = (np.abs(X) < 0.75).all(axis=1)
    assert len(np.unique(y[near])) == 2


def test_toy_classification_deterministic_and_minimum_size():
    Xa, ya = make_toy_classification(50, seed=3)
    Xb, yb = make_toy_classification(50, seed=3)
    np.testing.assert_array_equal(Xa, Xb)
    np.testing.assert_array_equal(ya, yb)
    with pytest.raises(ValueError, match="n"):
        make_toy_classification(3)


def test_signal_endpoint_and_frozen_values():
    t = np.array([0.0, 0.5, 1.0])
    doppler = donoho_signal("doppler", t)
    assert doppler[0] == 0.0 and doppler[2] == pytest.approx(0.0, abs=1e-12)
    heavisine = donoho_signal("heavisine", t)
    assert heavisine[1] == pytest.approx(-2.0, abs=1e-12)
    assert (donoho_signal("bumps", np.linspace(0, 1, 101)) >= 0).all()


def test_blocks_is_piecewise_constant():
    # Knots all have two decimals, so points inside (0.45, 0.46) share a level.
    vals = donoho_signal("blocks", np.array([0.451, 0.455, 0.459]))
    assert vals[0] == vals[1] == vals[2]


def test_unknown_signal_name():
    with pytest.raises(ValueError, match="signal"):
        donoho_signal("sawtooth", np.array([0.5]))


def test_signal_grid_layout():
    t, values = signal_grid("doppler", 256)
    assert t.shape == (256,) and values.shape == (256,)
    assert 0 < t[0] and t[-1] < 1
    assert (np.diff(t) > 0).all()
    np.testing.assert_allclose(values, donoho_signal("doppler", t))
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        signal_grid("doppler", 0)


def test_add_noise_calibration():
    _, clean = signal_grid("heavisine", 10_000)
    for snr in (0.5, 1.0, 4.0):
        noisy = add_noise(clean, snr, seed=1)
        ratio = (noisy - clean).std() / clean.std()
        assert ratio == pytest.approx(1.0 / snr, rel=0.05)
    almost = add_noise(clean, 1e9, seed=2)
    assert np.abs(almost - clean).max() < 1e-6 * clean.std()
    np.testing.assert_array_equal(add_noise(clean, 1.0, seed=3),
                                  add_noise(clean, 1.0, seed=3))


def test_add_noise_rejects_bad_inputs():
    for snr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="snr"):
            add_noise(np.array([1.0, 2.0]), snr)
    with pytest.raises(ValueError, match="constant"):
        add_noise(np.array([2.0, 2.0]), 1.0)
