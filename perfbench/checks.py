"""Correctness checks on what the softdyn commands wrote.

Every check compares an output with a computation made here, apart from
the program, or with a property the method must have.  None compares with
a stored copy of an earlier output.  Each returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, stats

LABELS = ("Periodic", "Quasiperiodic", "Chaotic")

# p-values of the SP 800-22 battery on the first 1,000,000 bits of the
# binary expansion of e (integer part included), as listed in NIST SP 800-22
# Rev 1a (Rukhin et al., 2010), Appendix B.  Keys: (test name in the report,
# index into its p-value list).  random_excursions lists states -4..-1, 1..4,
# so x = +1 is index 4; the variant lists -9..-1, 1..9, so x = -1 is index 8.
E_KNOWN_ANSWERS = {
    ("frequency_monobit", 0): 0.953749,
    ("runs", 0): 0.561917,
    ("longest_run_of_ones", 0): 0.718945,
    ("binary_matrix_rank", 0): 0.306156,
    ("dft_spectral", 0): 0.847187,
    ("non_overlapping_template", 0): 0.078790,
    ("universal_statistical", 0): 0.282568,
    ("cumulative_sums", 0): 0.669887,
    ("cumulative_sums", 1): 0.724266,
    ("random_excursions", 4): 0.786868,
    ("random_excursions_variant", 8): 0.826009,
}
KNOWN_ANSWER_TOL = 1e-4

# The harvested-bit statistics run once per benchmark run, over many seeds
# and many runs.  At the single-run levels of the acceptance tests
# (p > 0.01 twice and |rho| < 3/sqrt(n) at 50 lags) an ideal source fails
# about one run in seven, so the three statistics share one family-wise
# false-alarm rate, split evenly (Bonferroni), with the 50 lags of the
# autocorrelation splitting their third again.
FAMILY_ALPHA = 1e-4
AUTOCORR_LAGS = 50


def _failed(ok: bool, message: str) -> list:
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# sweep

def parse_sweep_csv(text: str) -> dict:
    """Map (f, A) of each sweep.csv row to its label or error text."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("f_hz,A_mT,label"):
        raise ValueError("sweep.csv lacks its header")
    cells = {}
    for line in lines[1:]:
        fields = line.split(",")
        cells[(float(fields[0]), float(fields[1]))] = fields[2]
    return cells


def check_sweep(cells: dict, f_grid, a_grid, periodic_cell, chaotic_cell) -> list:
    """One labelled row per grid cell; the two reference cells carry their labels."""
    failures = []
    want = {(float(f), float(a)) for f in f_grid for a in a_grid}
    failures += _failed(len(cells) == len(want) and set(cells) == want,
                        f"sweep rows {sorted(cells)} do not match the grid {sorted(want)}")
    bad = {cell: label for cell, label in cells.items() if label not in LABELS}
    failures += _failed(not bad, f"unlabelled sweep cells: {bad}")
    failures += _failed(cells.get(periodic_cell) == "Periodic",
                        f"cell {periodic_cell} is {cells.get(periodic_cell)}, expected Periodic")
    failures += _failed(cells.get(chaotic_cell) == "Chaotic",
                        f"cell {chaotic_cell} is {cells.get(chaotic_cell)}, expected Chaotic")
    return failures


def check_lyapunov(label: str, exponent: float, stderr: float) -> list:
    """The sign of the largest Lyapunov exponent agrees with the regime label."""
    if label == "Chaotic":
        return _failed(exponent > 0, f"Chaotic cell has lambda = {exponent:.4g} <= 0")
    return _failed(exponent <= 3 * stderr,
                   f"{label} cell has lambda = {exponent:.4g} > 3 * stderr = {3 * stderr:.4g}")


# ---------------------------------------------------------------------------
# model equations, written out from the softdyn.oscillator module docstring

def actuator_rhs(config, field):
    """Right-hand side of the two-mode model for a field function B(t).

        q1'' = -2 z1 w1 q1' - w1^2 q1 - k1 q1^3 - chi q1 q2^2 + mu1 B cos q1 + eta B sin 2q1
        q2'' = -2 z2 w2 q2' - w2^2 q2 - k2 q2^3 - chi q2 q1^2 + mu2 B cos q1 + eta B sin 2q1
    """
    c = config

    def rhs(t, s):
        q1, u1, q2, u2 = s
        b = field(t)
        drive = c.eta * b * math.sin(2.0 * q1)
        a1 = (-2.0 * c.zeta1 * c.omega1 * u1 - c.omega1 ** 2 * q1 - c.kappa1 * q1 ** 3
              - c.chi * q1 * q2 ** 2 + c.mu1 * b * math.cos(q1) + drive)
        a2 = (-2.0 * c.zeta2 * c.omega2 * u2 - c.omega2 ** 2 * q2 - c.kappa2 * q2 ** 3
              - c.chi * q2 * q1 ** 2 + c.mu2 * b * math.cos(q1) + drive)
        return (u1, a1, u2, a2)

    return rhs


def tip(config, q1, q2):
    """Marker position on the arm arc: angle q1 + mode_mix * q2, radius arm_length."""
    angle = np.asarray(q1) + config.mode_mix * np.asarray(q2)
    return config.arm_length * np.sin(angle), config.arm_length * (1.0 - np.cos(angle))


def _solve(rhs, state, t0, t1, t_eval):
    sol = integrate.solve_ivp(rhs, (t0, t1), state, method="DOP853", t_eval=t_eval,
                              rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference solver failed: {sol.message}")
    return sol.y


def reference_tip_trajectory(config, amplitude, frequency, t, state=(0.05, 0.0, 0.02, 0.0)):
    """Tip positions at times t under B(t) = A sin(2 pi f t), from solve_ivp."""
    w = 2.0 * math.pi * frequency
    rhs = actuator_rhs(config, lambda s: amplitude * math.sin(w * s))
    y = _solve(rhs, list(state), 0.0, float(t[-1]), t)
    return tip(config, y[0], y[2])


def reference_reservoir(config, u, field_scale, carrier_freq):
    """Tip positions once per carrier period under the modulated field.

    B(t) = field_scale * u(t) * sin(2 pi f_c t), with u linear between the
    points t_k = k / f_c and held at its last value after the last point.
    Integrated one carrier period at a time, so that no step straddles a
    kink of the envelope, from rest.
    """
    period = 1.0 / carrier_freq
    w = 2.0 * math.pi * carrier_freq
    state = [0.0, 0.0, 0.0, 0.0]
    q1s, q2s = [], []
    for k in range(len(u)):
        t0 = k * period
        u0 = u[k]
        u1 = u[k + 1] if k + 1 < len(u) else u[k]

        def field(s, t0=t0, u0=u0, u1=u1):
            env = u0 + (u1 - u0) * (s - t0) / period
            return field_scale * env * math.sin(w * s)

        y = _solve(actuator_rhs(config, field), state, t0, t0 + period, None)
        state = list(y[:, -1])
        q1s.append(state[0])
        q2s.append(state[2])
    return tip(config, q1s, q2s)


def minmax(series) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    lo, hi = series.min(), series.max()
    return (series - lo) / (hi - lo) if hi > lo else np.zeros_like(series)


def check_against_reference(name, output, half, quarter, reference) -> list:
    """A fixed-step RK4 output agrees with a tight-tolerance reference solution.

    output is the program's result at step h; half and quarter are its
    results at h/2 and h/4, sampled at the same instants.  RK4's global
    error shrinks 16-fold when the step is halved, so (16/15) |half - quarter|
    estimates the error at h/2 (Richardson) and 16 times that the error at
    h.  The tolerance is twice the estimate at h, taken from runs apart from
    the output under test.  The estimate must be small beside the signal,
    or the comparison would show nothing.
    """
    output, half, quarter, reference = (np.asarray(v, dtype=float)
                                        for v in (output, half, quarter, reference))
    if not (output.shape == half.shape == quarter.shape == reference.shape):
        return [f"{name}: shapes differ {output.shape}, {half.shape}, {quarter.shape}, "
                f"{reference.shape}"]
    estimate = 16.0 * 16.0 / 15.0 * float(np.max(np.abs(half - quarter)))
    tol = 2.0 * estimate + 1e-12
    scale = float(np.ptp(reference))
    error = float(np.max(np.abs(output - reference)))
    failures = _failed(tol < 1e-2 * scale,
                       f"{name}: RK4 error estimate {estimate:.3g} is not small beside "
                       f"the signal range {scale:.3g}")
    failures += _failed(error <= tol, f"{name}: max |program - solve_ivp| = {error:.3g} "
                                      f"exceeds the RK4 tolerance {tol:.3g}")
    return failures


def parse_trajectory_csv(text: str) -> np.ndarray:
    """Columns t_s, x, y, phase of trajectory.csv."""
    lines = text.strip().splitlines()
    if lines[0] != "t_s,x,y,phase":
        raise ValueError("trajectory.csv lacks its header")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


# ---------------------------------------------------------------------------
# trng

def parse_bits(text: str) -> np.ndarray:
    """0/1 characters of an ASCII bit file; line breaks are ignored."""
    flat = "".join(text.split())
    raw = np.frombuffer(flat.encode(), dtype=np.uint8)
    if np.any((raw != ord("0")) & (raw != ord("1"))):
        raise ValueError("bit file holds characters other than 0 and 1")
    return raw - ord("0")


def integers_from_bits(bits, width: int = 7) -> np.ndarray:
    n = (len(bits) // width) * width
    weights = 1 << np.arange(width - 1, -1, -1)
    return np.asarray(bits[:n], dtype=np.int64).reshape(-1, width) @ weights


def bit_statistics(bits, width: int = 7) -> dict:
    """Chi-squared and KS p-values and the largest |autocorrelation| of the integers."""
    ints = integers_from_bits(bits, width)
    n, levels = len(ints), 1 << width
    counts = np.bincount(ints, minlength=levels)
    expected = n / levels
    chi2_p = float(stats.chi2.sf(np.sum((counts - expected) ** 2 / expected), levels - 1))
    ks_p = float(stats.kstest((ints + 0.5) / levels, "uniform").pvalue)
    x = ints - ints.mean()
    var = float(x @ x)
    rho = [float(x[:-k] @ x[k:]) / var for k in range(1, AUTOCORR_LAGS + 1)] if var else [1.0]
    return {"n_integers": n, "chi2_p": chi2_p, "ks_p": ks_p,
            "max_abs_rho": max(abs(r) for r in rho)}


def check_bits(bits, n_expected: int, width: int = 7) -> list:
    """Exact length, and uniform, uncorrelated width-bit integers."""
    failures = _failed(len(bits) == n_expected,
                       f"bit file holds {len(bits)} bits, {n_expected} were requested")
    s = bit_statistics(bits, width)
    alpha = FAMILY_ALPHA / 3.0
    z = float(stats.norm.isf(alpha / AUTOCORR_LAGS / 2.0))
    bound = z / math.sqrt(s["n_integers"])
    failures += _failed(s["chi2_p"] > alpha, f"chi-squared p = {s['chi2_p']:.3g} <= {alpha:.3g}")
    failures += _failed(s["ks_p"] > alpha, f"KS p = {s['ks_p']:.3g} <= {alpha:.3g}")
    failures += _failed(s["max_abs_rho"] < bound,
                        f"max |rho| = {s['max_abs_rho']:.4g} >= {bound:.4g} over lags 1-{AUTOCORR_LAGS}")
    return failures


def check_stochmul(payload: dict, x1: int, x2: int, width: int = 7) -> list:
    """The product estimate lies within 10% of full scale (2^(2 width)) of x1 * x2."""
    full_scale = float(1 << (2 * width))
    error = abs(payload["estimate"] - x1 * x2)
    return _failed(error <= 0.1 * full_scale,
                   f"stochmul estimate {payload['estimate']} is {error} from {x1 * x2}")


# ---------------------------------------------------------------------------
# battery

def p_values(report: dict) -> dict:
    return {r["name"]: r["p_values"] for r in report["results"]}


def check_known_answers(report: dict, known=E_KNOWN_ANSWERS, tol=KNOWN_ANSWER_TOL) -> list:
    """Battery p-values on e match the published values."""
    got = p_values(report)
    failures = []
    for (name, i), want in known.items():
        values = got.get(name, [])
        value = values[i] if i < len(values) else None
        failures += _failed(value is not None and abs(value - want) <= tol,
                            f"{name}[{i}] = {value}, published {want}")
    return failures


def check_prng_report(report: dict, min_applicable: int = 13) -> list:
    """A seeded PRNG stream passes every applicable test but at most one.

    The two random-excursion tests need 500 zero-crossing cycles, which an
    ideal 1 Mbit stream lacks about one time in three, so 13 of the 15 tests
    must be applicable.  A test passes when its smallest p-value clears the
    family-wise level spread over all the battery's p-values.
    """
    applicable = [r for r in report["results"] if r["applicable"]]
    alpha = FAMILY_ALPHA / sum(len(r["p_values"]) for r in applicable) if applicable else 0
    failed = [r["name"] for r in applicable if min(r["p_values"]) <= alpha]
    failures = _failed(len(applicable) >= min_applicable,
                       f"only {len(applicable)} battery tests applicable")
    failures += _failed(len(failed) <= 1, f"PRNG stream fails {failed} at alpha {alpha:.3g}")
    return failures


# ---------------------------------------------------------------------------
# reservoir

def parse_rc_mg_csv(text: str) -> dict:
    """Map (lag, tau) of rc_mg.csv to (mse_rc, mse_baseline)."""
    lines = text.strip().splitlines()
    if lines[0] != "lag,tau,mse_rc,mse_baseline":
        raise ValueError("rc_mg.csv lacks its header")
    grid = {}
    for line in lines[1:]:
        lag, tau, rc, bl = line.split(",")
        grid[(int(lag), int(tau))] = (float(rc), float(bl))
    return grid


def baseline_mse(series, lag: int, tau: int, lam: float = 1e-4, train_frac: float = 0.8) -> float:
    """Test MSE of the input-only ridge readout, computed apart from the program.

    Row t holds series[t-lag+1 .. t] and a bias 1, its target series[t+tau].
    The leading train_frac of rows trains; testing starts max(lag, tau) rows
    past the split.  The ridge problem with unpenalised bias is solved as
    least squares on the augmented system [X; sqrt(lam) [I 0]] w = [y; 0].
    """
    s = np.asarray(series, dtype=float)
    n = len(s)
    rows = np.arange(lag - 1, n - tau)
    windows = np.lib.stride_tricks.sliding_window_view(s, lag)[rows - lag + 1]
    features = np.hstack([windows, np.ones((len(rows), 1))])
    targets = s[rows + tau]
    split = int(len(rows) * train_frac)
    penalty = math.sqrt(lam) * np.eye(lag, lag + 1)
    a = np.vstack([features[:split], penalty])
    b = np.concatenate([targets[:split], np.zeros(lag)])
    weights = np.linalg.lstsq(a, b, rcond=None)[0]
    start = split + max(lag, tau)
    return float(np.mean((features[start:] @ weights - targets[start:]) ** 2))


def check_rc_mg(grid: dict, summary: dict, lags, taus, series,
                rel_tol=1e-8, abs_tol=1e-15) -> list:
    """Every cell computed, RC beats the baseline at (20, 10), baseline column recomputed.

    At tau = 0 the target is one of the features and the MSE sits near
    1e-10, set by the ridge penalty alone; there the program's normal
    equations, which square the condition number, keep about seven digits,
    so an absolute 1e-15 (2e-14 of the series' variance) is allowed too.
    """
    failures = _failed(set(grid) == {(lag, tau) for lag in lags for tau in taus},
                       f"rc_mg.csv cells {sorted(grid)} do not match the grid")
    failures += _failed(not summary.get("errors"), f"rc-mg cell errors: {summary.get('errors')}")
    failures += _failed(all(math.isfinite(v) for pair in grid.values() for v in pair),
                        "rc_mg.csv holds non-finite MSEs")
    rc, bl = grid.get((20, 10), (math.nan, math.nan))
    failures += _failed(rc < bl, f"at lag 20, tau 10 the RC MSE {rc:.4g} is not below "
                                 f"the baseline's {bl:.4g}")
    for (lag, tau), (_, bl) in sorted(grid.items()):
        want = baseline_mse(series, lag, tau)
        failures += _failed(abs(bl - want) <= rel_tol * abs(want) + abs_tol,
                            f"baseline MSE at lag {lag}, tau {tau}: {bl!r} vs recomputed {want!r}")
    return failures


def check_rc_transform(payload: dict) -> list:
    return _failed(payload["mse_rc"] <= 0.5 * payload["mse_baseline"],
                   f"rc-transform MSE {payload['mse_rc']:.4g} is not at most half the "
                   f"baseline's {payload['mse_baseline']:.4g}")


def check_fixed_point(series, tol=1e-6) -> list:
    """Mackey-Glass started on its fixed point x = 1 stays there."""
    dev = float(np.max(np.abs(np.asarray(series) - 1.0)))
    return _failed(dev <= tol, f"Mackey-Glass drifts {dev:.3g} from its fixed point")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
