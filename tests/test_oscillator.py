"""Simulator unit tests: validation, determinism, readout and Lyapunov."""

import json

import numpy as np
import pytest

from softdyn import oscillator
from softdyn.errors import IntegrationDivergedError
from softdyn.oscillator import (DriveParams, OscillatorConfig, Trajectory,
                                default_step, drive_field, largest_lyapunov,
                                simulate, simulate_batch, tip_position)


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveParams(amplitude=-1.0, frequency=10.0)
    with pytest.raises(ValueError):
        DriveParams(amplitude=1.0, frequency=0.0)
    with pytest.raises(ValueError):
        DriveParams(amplitude=1.0, frequency=10.0, tilt=120.0)
    assert DriveParams(amplitude=1.0, frequency=8.0).period == pytest.approx(0.125)


def test_drive_field_waveform():
    drive = DriveParams(amplitude=2.0, frequency=4.0)
    t = np.linspace(0, 1, 101)
    b = drive_field(drive, t)
    assert b.shape == (101, 2)
    assert np.allclose(b[:, 0], 2.0 * np.sin(2 * np.pi * 4.0 * t))
    assert np.allclose(b[:, 1], 0.0)
    tilted = drive_field(DriveParams(amplitude=2.0, frequency=4.0, tilt=90.0), t)
    assert np.allclose(tilted[:, 0], 0.0, atol=1e-12)


def test_tip_position_small_angle(config):
    x, y = tip_position(0.0, 0.0, config)
    assert x == 0.0 and y == 0.0
    x, y = tip_position(1e-4, 0.0, config)
    assert x == pytest.approx(config.arm_length * 1e-4, rel=1e-6)
    assert y >= 0.0


def test_config_json_roundtrip(config, tmp_path):
    path = tmp_path / "config.json"
    config.to_json(path)
    assert OscillatorConfig.from_json(path) == config


def test_config_validation():
    with pytest.raises(ValueError):
        OscillatorConfig(omega1=-1, omega2=1, zeta1=0.1, zeta2=0.1, kappa1=0,
                         kappa2=0, chi=0, mu1=1, mu2=1, eta=0)


def test_simulate_deterministic(config):
    drive = DriveParams(amplitude=5.0, frequency=10.0)
    a = simulate(config, drive, 1.0, 1e-3)
    b = simulate(config, drive, 1.0, 1e-3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert len(a) == 1000
    assert a.sample_rate == pytest.approx(1000.0)


def test_simulate_step_validation(config):
    drive = DriveParams(amplitude=5.0, frequency=10.0)
    with pytest.raises(ValueError):
        simulate(config, drive, 1.0, 0.01)  # coarser than 1/(50 f)
    with pytest.raises(ValueError):
        simulate(config, drive, 0.1, 1e-3)  # under two periods


def test_simulate_batch_matches_single(config):
    drive = DriveParams(amplitude=5.0, frequency=10.0)
    states = np.array([[0.05, 0.0, 0.02, 0.0], [0.1, 0.0, 0.0, 0.0]])
    batch = simulate_batch(config, drive, 1.0, 1e-3, states)
    single = simulate(config, drive, 1.0, 1e-3, initial_state=states[1])
    assert np.allclose(batch[1].x, single.x)


def test_noise_is_seeded(config):
    drive = DriveParams(amplitude=5.0, frequency=10.0)
    a = simulate(config, drive, 1.0, 1e-3, noise_sigma=0.01, seed=5)
    b = simulate(config, drive, 1.0, 1e-3, noise_sigma=0.01, seed=5)
    c = simulate(config, drive, 1.0, 1e-3, noise_sigma=0.01, seed=6)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integration_divergence_reported():
    # unstable parameters: negative stiffness dominates immediately
    cfg = OscillatorConfig(omega1=1.0, omega2=1.0, zeta1=0.01, zeta2=0.01,
                           kappa1=-1e9, kappa2=-1e9, chi=0.0, mu1=1e6,
                           mu2=1e6, eta=0.0)
    drive = DriveParams(amplitude=9.0, frequency=10.0)
    with pytest.raises(IntegrationDivergedError):
        simulate(cfg, drive, 5.0, 1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", [3, oscillator._SCALAR_MAX_ROWS + 2])
def test_divergence_names_row_and_step(config, rows):
    # one row starts far up the cubic stiffness, where the step is unstable
    drive = DriveParams(amplitude=0.5, frequency=4.0)
    dt = 1e-3
    states = np.tile([0.05, 0.0, 0.02, 0.0], (rows, 1))
    states[rows - 2, 0] = 50.0
    with pytest.raises(IntegrationDivergedError) as err:
        simulate_batch(config, drive, 1.0, dt, states)
    assert err.value.row == rows - 2
    assert f"row {rows - 2}" in str(err.value)
    assert 0 < err.value.t <= 20 * dt


@pytest.mark.parametrize("modulated", [False, True])
def test_kernel_paths_agree(config, modulated):
    # on a periodic drive (4 Hz, 0.5 mT) round-off differences do not grow
    drive = DriveParams(amplitude=0.5, frequency=4.0)
    dt, n = default_step(config, drive), 6000
    rows = oscillator._SCALAR_MAX_ROWS + 1
    states = np.array([0.05, 0.0, 0.02, 0.0])[:, None] * np.linspace(0.5, 1.5, rows)
    if modulated:
        t = np.arange(n + 1) * dt
        start = 0.5 * (1 + 0.5 * np.sin(0.7 * t)) * np.sin(2 * np.pi * 4.0 * t)
        tm = t[:-1] + 0.5 * dt
        mid = 0.5 * (1 + 0.5 * np.sin(0.7 * tm)) * np.sin(2 * np.pi * 4.0 * tm)
        field = {"fields": (start, mid)}
    else:
        field = {"drive": drive}
    batch_state, batch_rec = oscillator._rk4_steps(config, states, n, dt,
                                                   record_every=7, **field)
    row_state, row_rec = oscillator._rk4_steps(config, states[:, :2], n, dt,
                                               record_every=7, **field)
    assert batch_rec.shape == (n // 7, 2, rows)
    assert np.max(np.abs(row_rec - batch_rec[:, :, :2])) <= 1e-12
    assert np.max(np.abs(row_state - batch_state[:, :2])) <= 1e-12
    assert np.ptp(row_rec[:, 0, 0]) > 1e-3


def test_trajectory_csv_roundtrip(config, tmp_path):
    drive = DriveParams(amplitude=5.0, frequency=10.0)
    traj = simulate(config, drive, 0.5, 1e-3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.x, traj.x)
    assert np.array_equal(back.t, traj.t)


def test_trajectory_requires_uniform_time():
    t = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        Trajectory(t=t, x=t, y=t, phase=t, sample_rate=10.0)


def test_lyapunov_signs(config):
    # chaotic cell: positive exponent well beyond its standard error
    chaotic = DriveParams(amplitude=9.0, frequency=18.0)
    lam, se = largest_lyapunov(config, chaotic, 250 / 18.0, 1 / (60 * 18.0),
                               with_stderr=True)
    assert lam > 3 * se > 0
    # low-drive cell: non-positive within tolerance
    periodic = DriveParams(amplitude=0.5, frequency=3.0)
    lam, se = largest_lyapunov(config, periodic, 250 / 3.0, 1 / (60 * 3.0),
                               with_stderr=True)
    assert lam <= 3 * se
