"""Reduced-order surrogate of the magnetic soft actuator.

Two coupled, damped, magnetically driven Duffing-type modal equations:

    q1'' = -2*z1*w1*q1' - w1^2*q1 - k1*q1^3 - chi*q1*q2^2 + mu1*B(t)*cos(q1) + eta*B(t)*sin(2*q1)
    q2'' = -2*z2*w2*q2' - w2^2*q2 - k2*q2^3 - chi*q2*q1^2 + mu2*B(t)*cos(q1) + eta*B(t)*sin(2*q1)

The cos(q1) factor models the torque of the drive field on a rotating
magnetic moment; the eta term models the actuator's interaction with its
own stray field.  Depending on drive amplitude and frequency the tip
motion is periodic, quasiperiodic or chaotic.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import IntegrationDivergedError

__all__ = [
    "DriveParams",
    "OscillatorConfig",
    "Trajectory",
    "tip_position",
    "default_step",
    "simulate",
    "simulate_batch",
    "largest_lyapunov",
]

_STATE_BLOWUP = 1.0e6


@dataclass(frozen=True)
class DriveParams:
    """Sinusoidal AC drive field: amplitude in mT, frequency in Hz, in-plane tilt in degrees."""

    amplitude: float
    frequency: float
    tilt: float = 0.0

    def __post_init__(self):
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not (self.frequency > 0 and math.isfinite(self.frequency)):
            raise ValueError(f"frequency must be > 0, got {self.frequency}")
        if not -90.0 <= self.tilt <= 90.0:
            raise ValueError(f"tilt must be in [-90, 90] degrees, got {self.tilt}")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency


@dataclass(frozen=True)
class OscillatorConfig:
    """Modal parameters of the two-mode actuator surrogate.

    omega1/omega2 are modal angular frequencies (rad/s), zeta1/zeta2 damping
    ratios, kappa1/kappa2 cubic stiffnesses, chi the inter-mode coupling,
    mu1/mu2 the magneto-mechanical couplings (rad s^-2 mT^-1), eta the
    self-field coefficient, arm_length the display length scale and
    mode_mix the readout mixing weight.
    """

    omega1: float
    omega2: float
    zeta1: float
    zeta2: float
    kappa1: float
    kappa2: float
    chi: float
    mu1: float
    mu2: float
    eta: float
    arm_length: float = 1.0
    mode_mix: float = 0.2

    def __post_init__(self):
        for name in ("omega1", "omega2", "zeta1", "zeta2", "arm_length"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @classmethod
    def calibrated_default(cls) -> "OscillatorConfig":
        """Default constants fixed by the scripted scan in scripts/calibrate.py.

        On the f in [1, 20] Hz x A in [0.5, 9] mT grid this set produces
        periodic response in the low-f/low-A corner and a chaotic band
        around 14-18 Hz at 4-9 mT.
        """
        return cls(
            omega1=2 * math.pi * 10.0,
            omega2=2 * math.pi * 16.2,
            zeta1=0.02,
            zeta2=0.02,
            kappa1=5.0e4,
            kappa2=5.0e4,
            chi=3.0e4,
            mu1=2500.0,
            mu2=900.0,
            eta=600.0,
        )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "OscillatorConfig":
        with open(path) as fh:
            return cls(**json.load(fh))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled tip trajectory; the common currency of all pipelines."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phase: np.ndarray
    sample_rate: float
    provenance: str = "simulated"

    def __post_init__(self):
        for name in ("t", "x", "y", "phase"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.phase) == n):
            raise ValueError("t, x, y, phase must have equal length")
        if n >= 2:
            steps = np.diff(self.t)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-12):
                raise ValueError("t must be strictly increasing with a constant step")

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self) -> str:
        # closed on exit: savetxt's writer keeps the buffer in a reference cycle
        with io.StringIO() as text:
            np.savetxt(text, np.column_stack([self.t, self.x, self.y, self.phase]),
                       fmt="%.17g", delimiter=",", header="t_s,x,y,phase", comments="")
            return text.getvalue()

    @classmethod
    def from_csv(cls, path, provenance: str = "recorded") -> "Trajectory":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t = data[:, 0]
        rate = 1.0 / (t[1] - t[0]) if len(t) >= 2 else 1.0
        return cls(t=t, x=data[:, 1], y=data[:, 2], phase=data[:, 3],
                   sample_rate=rate, provenance=provenance)


def tip_position(q1, q2, config: OscillatorConfig):
    """Map modal coordinates to marker coordinates on the arm arc."""
    angle = np.asarray(q1) + config.mode_mix * np.asarray(q2)
    return config.arm_length * np.sin(angle), config.arm_length * (1.0 - np.cos(angle))


def _axial_amplitude(drive: DriveParams) -> float:
    # Only the along-axis component torques the moment; tilt reduces it.
    return drive.amplitude * math.cos(math.radians(drive.tilt))


# Up to this many rows the per-row pure-Python loop is faster than the
# batched numpy loop, whose cost at small batches is call dispatch rather
# than arithmetic: about 40 us per step from 8 to 20 rows, against about
# 3.2 us per row-step in pure Python (best of 5 on a 2-core x86-64 host,
# where the two paths cross at 13 rows).
_SCALAR_MAX_ROWS = 13

# The numpy path evaluates a sine drive this many steps at a time, so a long
# many-row run never holds full-length per-row field arrays.
_FIELD_CHUNK = 2048


def _step_fields(amp, omega, dt, t0, j0, j1):
    """Sine field (mT) at the start, midpoint and end of steps j0..j1-1.

    amp, omega and dt are floats, or vectors with one entry per column.
    """
    t = t0 + np.multiply.outer(np.arange(j0, j1), dt)
    return (amp * np.sin(omega * t), amp * np.sin(omega * (t + 0.5 * dt)),
            amp * np.sin(omega * (t + dt)))


def _rk4_steps(config, state, n_steps, dt, *, drive=None, t0=0.0, fields=None,
               record_every=0):
    """Advance `state` (shape (4, B)) n_steps with classical RK4.

    The field is either the sine `drive` from time t0 or `fields` =
    (start, mid): the field at the n_steps + 1 step boundaries and at the
    n_steps step midpoints, shared by all rows.  `drive` is one DriveParams
    or a sequence of one per row, and `dt` one step or one per row.  With
    record_every = k > 0, q1 and q2 are recorded after every k-th step.
    Returns (state, records), records of shape (n_steps // k, 2, B).  Raises
    IntegrationDivergedError at the first step and row where a state
    component leaves |v| <= _STATE_BLOWUP or is NaN.
    """
    state = np.array(state, dtype=float, order="C")
    rows = state.shape[1]
    records = np.empty((n_steps // record_every if record_every else 0, 2, rows))
    dts = [float(dt)] * rows if np.ndim(dt) == 0 else np.asarray(dt, dtype=float).tolist()
    if len(dts) != rows:
        raise ValueError(f"need one step, or one per row ({rows}), got {len(dts)}")
    if fields is None:
        drives = [drive] * rows if isinstance(drive, DriveParams) else list(drive)
        if len(drives) != rows:
            raise ValueError(f"need one drive, or one per row ({rows}), got {len(drives)}")
        # (amplitude, angular frequency, step) of each row's sine field
        sines = [(_axial_amplitude(d), 2 * math.pi * d.frequency, h)
                 for d, h in zip(drives, dts)]
    else:
        start, mid = (np.ascontiguousarray(f, dtype=float) for f in fields)
        if len(start) != n_steps + 1 or len(mid) != n_steps:
            raise ValueError(f"need {n_steps + 1} step-boundary and {n_steps} midpoint field "
                             f"values, got {len(start)} and {len(mid)}")
        shared = (start[:-1], mid, start[1:])
    if rows <= _SCALAR_MAX_ROWS:
        for j, h in enumerate(dts):
            if fields is None and (j == 0 or sines[j] != sines[j - 1]):
                shared = _step_fields(*sines[j], t0, 0, n_steps)
            # memoryviews iterate as Python floats without copying the sequences
            state[:, j] = _rk4_row(config, state[:, j].tolist(), h,
                                   [memoryview(f) for f in shared], t0,
                                   records[:, :, j], record_every, j)
        return state, records
    if fields is None:
        # one field column per distinct (amplitude, frequency, step), expanded to the rows
        sine, inverse = np.unique(np.array(sines), axis=0, return_inverse=True)
        chunks = (tuple(np.take(f, inverse, axis=1)
                        for f in _step_fields(*sine.T, t0, j, min(j + _FIELD_CHUNK, n_steps)))
                  for j in range(0, n_steps, _FIELD_CHUNK))
    else:
        chunks = [tuple(f[:, None] for f in shared)]
    _rk4_batch(config, state, np.array(dts), chunks, t0, records, record_every)
    return state, records


def _rk4_batch(c, state, dt, chunks, t0, records, record_every):
    """Numpy path of _rk4_steps: all rows advance together, `state` in place.

    The linear part of the equations of motion is one 4x4 matrix product on
    the state; the cubic, coupling and drive terms act on (q1, q2) as one
    (2, B) array and are added to the accelerations.  `dt` has one step per
    row; `chunks` yields the field at step start, midpoint and end as arrays
    of shape (steps, 1 or B).  Every operation writes into buffers allocated
    once, since at these batch sizes numpy's per-call cost, not arithmetic,
    sets the step time.
    """
    linear = np.array([[0.0, 1.0, 0.0, 0.0],
                       [-c.omega1**2, -2 * c.zeta1 * c.omega1, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 1.0],
                       [0.0, 0.0, -c.omega2**2, -2 * c.zeta2 * c.omega2]])
    cubic = np.array([[c.kappa1, c.chi], [c.chi, c.kappa2]])
    torque = np.array([[c.mu1, c.eta], [c.mu2, c.eta]])
    rows = state.shape[1]
    k = k1, k2, k3, k4 = np.empty((4, 4, rows))  # stage slopes
    x, acc = np.empty((2, 4, rows))  # stage input, RK4 increment
    trig, drive, coupling, qq = np.empty((4, 2, rows))  # trig = cos(q1), sin(2 q1)
    trig0, trig1 = trig
    h, sixth = 0.5 * dt, dt / 6.0
    # per stage: its step weight and previous slope (stages 2-4 start from
    # state + weight * slope), its input's state, q1 and (q1, q2) views, and
    # its slope and acceleration rows
    stages = [(w, kp, s, s[0], s[::2], kj, kj[1::2])
              for w, kp, s, kj in zip((None, h, h, dt), (None, k1, k2, k3), (state, x, x, x), k)]
    # each call's last argument is its output
    dot, cos, sin, mul, add, sub = np.dot, np.cos, np.sin, np.multiply, np.add, np.subtract
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for start, mid, end in chunks:
            for step_fields in zip(start, mid, mid, end):
                i += 1
                for b, (w, kp, s, q1, q, kj, accel) in zip(step_fields, stages):
                    if kp is not None:
                        mul(w, kp, x)
                        add(state, x, x)
                    cos(q1, trig0)
                    mul(2.0, q1, trig1)
                    sin(trig1, trig1)
                    dot(linear, s, kj)
                    dot(torque, trig, drive)
                    mul(drive, b, drive)
                    mul(q, q, qq)
                    dot(cubic, qq, coupling)
                    mul(q, coupling, coupling)
                    sub(drive, coupling, drive)
                    add(accel, drive, accel)
                # state + sixth * (k1 + 2 * (k2 + k3) + k4)
                add(k2, k3, acc)
                mul(2.0, acc, acc)
                add(k1, acc, acc)
                add(acc, k4, acc)
                mul(sixth, acc, acc)
                add(state, acc, state)
                if not (np.abs(state, acc).max() <= _STATE_BLOWUP):  # NaN fails too
                    row = int(np.argmin((np.abs(state) <= _STATE_BLOWUP).all(axis=0)))
                    raise IntegrationDivergedError(t0 + i * float(dt[row]), row=row)
                if record_every and i % record_every == 0:
                    records[i // record_every - 1] = state[::2]


def _rk4_row(c, state, dt, steps, t0, records, record_every, row):
    """Per-row pure-Python path of _rk4_steps: the equations of motion on floats."""
    d1, d2 = -2 * c.zeta1 * c.omega1, -2 * c.zeta2 * c.omega2
    s1, s2 = c.omega1**2, c.omega2**2
    kap1, kap2, chi, mu1, mu2, eta = c.kappa1, c.kappa2, c.chi, c.mu1, c.mu2, c.eta
    cos, sin, limit = math.cos, math.sin, _STATE_BLOWUP
    h, sixth = 0.5 * dt, dt / 6.0
    every = record_every or len(steps[0]) + 1
    rec_q1, rec_q2 = memoryview(records[:, 0]), memoryview(records[:, 1])

    def acc(q1, u1, q2, u2, b):
        cos_q1 = cos(q1)
        self_field = sin(2.0 * q1)
        return (d1 * u1 - s1 * q1 - kap1 * q1**3 - chi * q1 * (q2 * q2)
                + mu1 * b * cos_q1 + eta * b * self_field,
                d2 * u2 - s2 * q2 - kap2 * q2**3 - chi * q2 * (q1 * q1)
                + mu2 * b * cos_q1 + eta * b * self_field)

    q1, u1, q2, u2 = state
    i = 1
    try:
        for i, (b1, bm, b2) in enumerate(zip(*steps), 1):
            a1, a2 = acc(q1, u1, q2, u2, b1)
            q1b, u1b, q2b, u2b = q1 + h * u1, u1 + h * a1, q2 + h * u2, u2 + h * a2
            a1b, a2b = acc(q1b, u1b, q2b, u2b, bm)
            q1c, u1c, q2c, u2c = q1 + h * u1b, u1 + h * a1b, q2 + h * u2b, u2 + h * a2b
            a1c, a2c = acc(q1c, u1c, q2c, u2c, bm)
            q1d, u1d, q2d, u2d = q1 + dt * u1c, u1 + dt * a1c, q2 + dt * u2c, u2 + dt * a2c
            a1d, a2d = acc(q1d, u1d, q2d, u2d, b2)
            q1 = q1 + sixth * (u1 + 2 * u1b + 2 * u1c + u1d)
            u1 = u1 + sixth * (a1 + 2 * a1b + 2 * a1c + a1d)
            q2 = q2 + sixth * (u2 + 2 * u2b + 2 * u2c + u2d)
            u2 = u2 + sixth * (a2 + 2 * a2b + 2 * a2c + a2d)
            if not (abs(q1) <= limit and abs(u1) <= limit
                    and abs(q2) <= limit and abs(u2) <= limit):
                raise IntegrationDivergedError(t0 + i * dt, row=row)
            if i % every == 0:
                rec_q1[i // every - 1] = q1
                rec_q2[i // every - 1] = q2
    except (OverflowError, ValueError):  # float overflow, or sin/cos of inf
        raise IntegrationDivergedError(t0 + i * dt, row=row) from None
    return q1, u1, q2, u2


def _validate_step(drive: DriveParams, duration: float, dt: float) -> None:
    if dt > 1.0 / (50.0 * drive.frequency) + 1e-15:
        raise ValueError(f"dt = {dt} too coarse; need dt <= 1/(50*f) = {1.0 / (50 * drive.frequency):.6g}")
    if duration < 2.0 * drive.period:
        raise ValueError(f"duration = {duration} shorter than 2 drive periods")


def simulate_batch(config: OscillatorConfig, drive: DriveParams, duration: float,
                   dt: float, initial_states: np.ndarray, noise_sigma: float = 0.0,
                   seed: int | None = None) -> list[Trajectory]:
    """Integrate a batch of initial states (B, 4) under one drive; returns one Trajectory per row."""
    _validate_step(drive, duration, dt)
    states = np.asarray(initial_states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValueError("initial_states must have shape (B, 4)")
    n = int(duration / dt)
    batch = states.shape[0]
    _, qs = _rk4_steps(config, states.T, n, dt, drive=drive, record_every=1)
    t = np.arange(1, n + 1) * dt
    phase = np.mod(2 * np.pi * drive.frequency * t, 2 * np.pi)
    x, y = tip_position(qs[:, 0], qs[:, 1], config)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_sigma, x.shape)
        y = y + rng.normal(0.0, noise_sigma, y.shape)
    return [Trajectory(t=t, x=x[:, j], y=y[:, j], phase=phase,
                       sample_rate=1.0 / dt, provenance="simulated")
            for j in range(batch)]


def default_step(config: OscillatorConfig, drive: DriveParams) -> float:
    """Step giving 60 substeps per period of the fastest timescale.

    At drive frequencies below the actuator's natural modes the step must
    resolve the free response, not just the drive, or the integrator goes
    unstable at large amplitudes.
    """
    f_fast = max(drive.frequency, config.omega1 / (2 * math.pi),
                 config.omega2 / (2 * math.pi))
    return 1.0 / (60.0 * f_fast)


def simulate(config: OscillatorConfig, drive: DriveParams, duration: float, dt: float,
             initial_state=(0.05, 0.0, 0.02, 0.0), noise_sigma: float = 0.0,
             seed: int | None = None) -> Trajectory:
    """Simulate the driven actuator and return the tip trajectory.

    Deterministic for identical inputs; optional seeded Gaussian position
    noise models measurement error (off by default).
    """
    return simulate_batch(config, drive, duration, dt,
                          np.asarray(initial_state, float)[None, :],
                          noise_sigma=noise_sigma, seed=seed)[0]


def largest_lyapunov(config: OscillatorConfig, drive: DriveParams, duration: float,
                     dt: float, d0: float = 1e-8, transient_periods: int = 50,
                     initial_state=(0.05, 0.0, 0.02, 0.0), with_stderr: bool = False):
    """Benettin two-trajectory estimate of the largest Lyapunov exponent (1/s).

    A reference and a perturbed trajectory are integrated together; the
    separation is renormalized to d0 once per drive period and the mean
    log stretching rate is returned.  With `with_stderr` the standard
    error of the per-period stretching rates is returned as well, which
    serves as the estimator tolerance for sign classification.
    """
    periods = int(duration * drive.frequency)
    if periods < 200:
        raise ValueError("duration must cover at least 200 drive periods")
    steps = max(1, int(round(drive.period / dt)))
    dt = drive.period / steps
    _validate_step(drive, duration, dt)

    state = np.asarray(initial_state, float)[:, None].repeat(2, axis=1)
    state, _ = _rk4_steps(config, state, transient_periods * steps, dt, drive=drive)
    state[:, 1] = state[:, 0]
    state[0, 1] += d0
    t = transient_periods * drive.period
    rates = np.empty(periods)
    for i in range(periods):
        state, _ = _rk4_steps(config, state, steps, dt, drive=drive, t0=t)
        t += drive.period
        delta = state[:, 1] - state[:, 0]
        dist = float(np.linalg.norm(delta))
        if dist == 0.0:
            dist = np.finfo(float).tiny
        rates[i] = math.log(dist / d0) / drive.period
        state[:, 1] = state[:, 0] + delta * (d0 / dist)
    exponent = float(rates.mean())
    if with_stderr:
        return exponent, float(rates.std(ddof=1) / math.sqrt(periods))
    return exponent
