"""Simulator unit tests: validation, determinism, readout and Lyapunov."""

import json

import numpy as np
import pytest

from softdyn import oscillator
from softdyn.errors import IntegrationDivergedError
from softdyn.oscillator import (DriveParams, OscillatorConfig, Trajectory,
                                default_step, largest_lyapunov,
                                simulate, simulate_batch, tip_position)


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveParams(amplitude=-1.0, frequency=10.0)
    with pytest.raises(ValueError):
        DriveParams(amplitude=1.0, frequency=0.0)
    with pytest.raises(ValueError):
        DriveParams(amplitude=1.0, frequency=10.0, tilt=120.0)
    assert DriveParams(amplitude=1.0, frequency=8.0).period == pytest.approx(0.125)


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


@pytest.mark.parametrize("field", ["sine", "modulated", "per_row"])
def test_kernel_paths_agree(config, field):
    # on periodic drives (4 Hz, 0.5 mT; 3 Hz, 0.4 mT) round-off differences do not grow
    drive = DriveParams(amplitude=0.5, frequency=4.0)
    dt, n = default_step(config, drive), 6000
    rows = oscillator._SCALAR_MAX_ROWS + 1
    states = np.array([0.05, 0.0, 0.02, 0.0])[:, None] * np.linspace(0.5, 1.5, rows)
    steps, drives = np.full(rows, dt), [drive] * rows
    field_kw = {"drive": drive}
    if field == "modulated":
        t = np.arange(n + 1) * dt
        start = 0.5 * (1 + 0.5 * np.sin(0.7 * t)) * np.sin(2 * np.pi * 4.0 * t)
        tm = t[:-1] + 0.5 * dt
        mid = 0.5 * (1 + 0.5 * np.sin(0.7 * tm)) * np.sin(2 * np.pi * 4.0 * tm)
        field_kw = {"fields": (start, mid)}
    elif field == "per_row":
        # two drives in one batch, each row on its own step
        drives[rows // 2:] = [DriveParams(amplitude=0.4, frequency=3.0)] * (rows - rows // 2)
        steps *= np.linspace(0.9, 1.1, rows)
        field_kw = {"drive": drives}
    batch_state, batch_rec = oscillator._rk4_steps(
        config, states, n, steps if field == "per_row" else dt, record_every=7, **field_kw)
    assert batch_rec.shape == (n // 7, 2, rows)
    for j in (0, 1, rows - 1):  # each row alone, on the scalar path
        row_kw = field_kw if field == "modulated" else {"drive": drives[j]}
        row_state, row_rec = oscillator._rk4_steps(config, states[:, [j]], n, steps[j],
                                                   record_every=7, **row_kw)
        assert np.max(np.abs(row_rec[:, :, 0] - batch_rec[:, :, j])) <= 1e-12
        assert np.max(np.abs(row_state[:, 0] - batch_state[:, j])) <= 1e-12
        assert np.ptp(row_rec[:, 0, 0]) > 1e-3


def _reference_batch(c, state, dt, fields, record_every):
    """The batched RK4 loop as first written, with a fresh array per operation."""
    linear = np.array([[0.0, 1.0, 0.0, 0.0],
                       [-c.omega1**2, -2 * c.zeta1 * c.omega1, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [0.0, 0.0, -c.omega2**2, -2 * c.zeta2 * c.omega2]])
    cubic = np.array([[c.kappa1, c.chi], [c.chi, c.kappa2]])
    torque = np.array([[c.mu1, c.eta], [c.mu2, c.eta]])
    trig = np.empty((2, state.shape[1]))

    def rhs(s, b):
        q1, q = s[0], s[::2]
        np.cos(q1, out=trig[0])
        np.sin(2.0 * q1, out=trig[1])
        ds = np.dot(linear, s)
        ds[1::2] += np.dot(torque, trig) * b - q * np.dot(cubic, q * q)
        return ds

    h, sixth = 0.5 * dt, dt / 6.0
    records = []
    for i, (b1, bm, b2) in enumerate(zip(*fields), 1):
        k1 = rhs(state, b1)
        k2 = rhs(state + h * k1, bm)
        k3 = rhs(state + h * k2, bm)
        k4 = rhs(state + dt * k3, b2)
        state = state + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if i % record_every == 0:
            records.append(state[::2])
    return state, np.array(records)


@pytest.mark.parametrize("steps", ["per_drive", "per_row"])
def test_batch_kernel_matches_reference_bit_for_bit(config, steps):
    # chaotic drives, where any change in round-off would grow until the rows differ
    drives = [DriveParams(amplitude=9.0, frequency=18.0)] * 64 \
        + [DriveParams(amplitude=6.0, frequency=16.0)] * 64
    dts = np.array([1.0 / (60.0 * d.frequency) for d in drives])
    if steps == "per_row":
        dts *= np.linspace(0.95, 1.05, len(drives))
    rng = np.random.default_rng(3)
    states = np.array([0.05, 0.0, 0.02, 0.0])[:, None] + rng.normal(0.0, 0.3, (4, len(drives)))
    n = 600
    state, records = oscillator._rk4_steps(config, states, n, dts, drive=drives,
                                           record_every=60)
    amp = np.array([d.amplitude for d in drives])
    omega = np.array([2 * np.pi * d.frequency for d in drives])
    t = np.multiply.outer(np.arange(n), dts)
    fields = (amp * np.sin(omega * t), amp * np.sin(omega * (t + 0.5 * dts)),
              amp * np.sin(omega * (t + dts)))
    ref_state, ref_records = _reference_batch(config, states, dts, fields, 60)
    assert np.array_equal(state, ref_state)
    assert np.array_equal(records, ref_records)
    assert np.ptp(records[-1, 0]) > 0.1


def test_trajectory_csv_roundtrip(config, tmp_path):
    drive = DriveParams(amplitude=5.0, frequency=10.0)
    traj = simulate(config, drive, 0.5, 1e-3)
    path = tmp_path / "traj.csv"
    path.write_text(traj.to_csv())
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
