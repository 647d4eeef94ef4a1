"""Physical-reservoir-computing harness around the simulated actuator.

An input series in [0, 1] amplitude-modulates a sinusoidal carrier
field; the actuator's tip trajectory is the reservoir state.  Lagged
readout samples feed a ridge-regression readout layer, evaluated on
waveform-transformation and Mackey-Glass prediction tasks against a
baseline that lag-embeds the raw input instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .oscillator import DriveParams, OscillatorConfig, _rk4_steps, tip_position
from .signals import MGParams, mackey_glass, waveform

__all__ = [
    "ReservoirDataset",
    "RidgeModel",
    "excite_reservoir",
    "lag_embed",
    "ridge_fit",
    "run_transform_task",
    "run_mg_task",
]

DEFAULT_CARRIER = DriveParams(amplitude=1.0, frequency=4.8)


@dataclass(frozen=True)
class ReservoirDataset:
    """Aligned input, readouts and target with the train/test boundary."""

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    split: int
    bounds: dict

    def __post_init__(self):
        n = len(self.u)
        if not (len(self.x) == len(self.y) == len(self.z) == n):
            raise ValueError("all series must have equal length")
        if not 0 < self.split < n:
            raise ValueError("split must fall inside the series")


@dataclass(frozen=True)
class RidgeModel:
    """Trained linear readout: weights (bias last), lag and look-ahead."""

    weights: np.ndarray
    lam: float
    lag: int
    tau_pred: int
    train_mse: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights


def _normalize(series):
    series = np.asarray(series, dtype=float)
    lo, hi = float(series.min()), float(series.max())
    if hi == lo:
        return np.zeros_like(series), (lo, hi)
    return (series - lo) / (hi - lo), (lo, hi)


def excite_reservoir(u: np.ndarray, field_scale: float,
                     carrier: DriveParams = DEFAULT_CARRIER,
                     config: OscillatorConfig | None = None,
                     steps_per_point: int = 60):
    """Drive the actuator with an amplitude-modulated carrier field.

    Each input point spans one carrier period; the drive field is
    B(t) = field_scale * u(t) * sin(2*pi*f_c*t) with u linearly
    interpolated between points.  Returns the tip coordinates sampled
    once per input point, normalized to [0, 1].
    """
    u = np.asarray(u, dtype=float)
    if len(u) < 2:
        raise ValueError("input series too short")
    if u.min() < -1e-9 or u.max() > 1 + 1e-9:
        raise ValueError("input must be normalized to [0, 1]")
    if field_scale <= 0:
        raise ValueError("field_scale must be > 0")
    cfg = config if config is not None else OscillatorConfig.calibrated_default()
    n = len(u)
    dt = carrier.period / steps_per_point
    w = 2 * np.pi * carrier.frequency
    n_steps = n * steps_per_point
    # envelope at step endpoints and midpoints
    t_pts = np.arange(n) * carrier.period
    t_sub = np.arange(n_steps + 1) * dt
    env = np.interp(t_sub, t_pts, u) * field_scale
    env_mid = np.interp(t_sub[:-1] + 0.5 * dt, t_pts, u) * field_scale
    b_sub = env * np.sin(w * t_sub)
    b_mid = env_mid * np.sin(w * (t_sub[:-1] + 0.5 * dt))

    _, q = _rk4_steps(cfg, np.zeros((4, 1)), n_steps, dt, fields=(b_sub, b_mid),
                      record_every=steps_per_point)
    xs, ys = tip_position(q[:, 0, 0], q[:, 1, 0], cfg)
    x_norm, xb = _normalize(xs)
    y_norm, yb = _normalize(ys)
    return x_norm, y_norm, {"x": xb, "y": yb}


def lag_embed(series_list, lag: int, tau_pred: int, target: np.ndarray):
    """Build lagged feature rows with a bias column and aligned targets.

    Row t holds the last `lag` samples of every series (inclusive of t)
    plus a constant 1; its target is target[t + tau_pred].
    """
    series_list = [np.asarray(s, dtype=float) for s in series_list]
    target = np.asarray(target, dtype=float)
    n = len(target)
    if any(len(s) != n for s in series_list):
        raise ValueError("series and target lengths differ")
    if lag < 1 or tau_pred < 0:
        raise ValueError("lag must be >= 1 and tau_pred >= 0")
    if n <= lag + tau_pred:
        raise ValueError("series too short for the requested lag and look-ahead")
    rows = np.arange(lag - 1, n - tau_pred)
    cols = []
    for s in series_list:
        windows = np.lib.stride_tricks.sliding_window_view(s, lag)
        cols.append(windows[rows - (lag - 1)])
    features = np.hstack(cols + [np.ones((len(rows), 1))])
    return features, target[rows + tau_pred], rows


def ridge_fit(features: np.ndarray, targets: np.ndarray,
              lam: float = 1e-4, lag: int = 1, tau_pred: int = 0) -> RidgeModel:
    """Ridge regression via the normal equations; bias unregularized."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.shape[0] < features.shape[1]:
        raise ValueError("need at least as many rows as features")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    gram = features.T @ features
    reg = lam * np.eye(features.shape[1])
    reg[-1, -1] = 0.0  # bias column carries no penalty
    try:
        weights = np.linalg.solve(gram + reg, features.T @ targets)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"normal matrix is singular: {exc}") from None
    train_mse = float(np.mean((features @ weights - targets) ** 2))
    return RidgeModel(weights=weights, lam=lam, lag=lag, tau_pred=tau_pred,
                      train_mse=train_mse)


def _evaluate(features, targets, lag, tau_pred, lam, train_frac=0.8):
    """Train on the leading fraction, test past a history-sized gap."""
    n = len(targets)
    split = int(n * train_frac)
    gap = max(lag, tau_pred)
    if split < features.shape[1] or split + gap >= n:
        raise ValueError("series too short for the requested split")
    model = ridge_fit(features[:split], targets[:split], lam, lag, tau_pred)
    pred = model.predict(features[split + gap:])
    mse = float(np.mean((pred - targets[split + gap:]) ** 2))
    return mse, pred, model


def run_transform_task(kind: str, n_points: int = 1000, lag: int = 35,
                       field_scale: float = 0.25, period: float = 25.0,
                       config: OscillatorConfig | None = None,
                       carrier: DriveParams = DEFAULT_CARRIER,
                       lam: float = 1e-4, tau_pred: int = 0):
    """Learn sine -> square/sawtooth through the reservoir and baseline.

    Returns (mse_rc, mse_baseline, predictions dict).
    """
    u = 0.5 * (waveform("sine", n_points, period) + 1.0)
    z = 0.5 * (waveform(kind, n_points, period) + 1.0)
    x, y, _ = excite_reservoir(u, field_scale, carrier, config)
    feats_rc, targ, _ = lag_embed([x, y], lag, tau_pred, z)
    feats_bl, targ_bl, _ = lag_embed([u], lag, tau_pred, z)
    mse_rc, pred_rc, _ = _evaluate(feats_rc, targ, lag, tau_pred, lam)
    mse_bl, pred_bl, _ = _evaluate(feats_bl, targ_bl, lag, tau_pred, lam)
    return mse_rc, mse_bl, {"rc": pred_rc, "baseline": pred_bl,
                            "input": u, "target": z}


def run_mg_task(lags, tau_preds, n_points: int = 3000,
                field_scale: float = 0.25,
                config: OscillatorConfig | None = None,
                carrier: DriveParams = DEFAULT_CARRIER,
                lam: float = 1e-4, mg_params: MGParams | None = None):
    """Mackey-Glass prediction MSE over a (lag, tau_pred) grid.

    The reservoir is excited once and its readouts reused for every grid
    cell; per-cell failures are recorded as NaN with the error message.
    """
    params = mg_params if mg_params is not None else MGParams(n_points=n_points)
    series, _ = _normalize(mackey_glass(params))
    x, y, _ = excite_reservoir(series, field_scale, carrier, config)
    lags = list(lags)
    tau_preds = list(tau_preds)
    mse_rc = np.full((len(lags), len(tau_preds)), np.nan)
    mse_bl = np.full_like(mse_rc, np.nan)
    errors = {}
    for i, lag in enumerate(lags):
        for j, tau in enumerate(tau_preds):
            try:
                feats, targ, _ = lag_embed([x, y], lag, tau, series)
                mse_rc[i, j] = _evaluate(feats, targ, lag, tau, lam)[0]
                feats, targ, _ = lag_embed([series], lag, tau, series)
                mse_bl[i, j] = _evaluate(feats, targ, lag, tau, lam)[0]
            except (ValueError, IntegrationDivergedError) as exc:
                errors[(lag, tau)] = str(exc)
    return mse_rc, mse_bl, {"lags": lags, "tau_preds": tau_preds,
                            "errors": errors}
