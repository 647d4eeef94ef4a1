"""Each benchmark check passes a right output and rejects a deliberately wrong one.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
from softdyn import oscillator, signals  # noqa: E402

CONFIG = oscillator.OscillatorConfig.calibrated_default()


# --- sweep -----------------------------------------------------------------

SWEEP_HEADER = "f_hz,A_mT,label,cluster_count,clustered_fraction,flatness,harmonic_fraction\n"


def sweep_text(labels):
    rows = [f"{f:g},{a:g},{label},1,1.0,0.0,1.0\n" for (f, a), label in labels.items()]
    return SWEEP_HEADER + "".join(rows)


def sweep_failures(labels):
    cells = checks.parse_sweep_csv(sweep_text(labels))
    return checks.check_sweep(cells, (4.0, 17.3), (0.5, 8.7), (4.0, 0.5), (17.3, 8.7))


def test_sweep_accepts_right_labels():
    labels = {(4.0, 0.5): "Periodic", (4.0, 8.7): "Quasiperiodic",
              (17.3, 0.5): "Quasiperiodic", (17.3, 8.7): "Chaotic"}
    assert sweep_failures(labels) == []


def test_sweep_rejects_swapped_labels():
    labels = {(4.0, 0.5): "Chaotic", (4.0, 8.7): "Quasiperiodic",
              (17.3, 0.5): "Quasiperiodic", (17.3, 8.7): "Periodic"}
    assert len(sweep_failures(labels)) == 2


def test_sweep_rejects_missing_and_error_rows():
    labels = {(4.0, 0.5): "Periodic", (4.0, 8.7): "error: integration diverged",
              (17.3, 8.7): "Chaotic"}
    assert len(sweep_failures(labels)) == 2


def test_lyapunov_sign_must_match_label():
    assert checks.check_lyapunov("Chaotic", 7.2, 1.0) == []
    assert checks.check_lyapunov("Periodic", -1.2, 0.2) == []
    assert checks.check_lyapunov("Chaotic", -0.1, 1.0)
    assert checks.check_lyapunov("Periodic", 0.7, 0.2)


# --- trajectory against solve_ivp -------------------------------------------

def simulated(dt, drive=oscillator.DriveParams(amplitude=0.5, frequency=4.0), config=CONFIG):
    return oscillator.simulate(config, drive, 0.6, dt)


def step_ladder(config=CONFIG):
    """x at steps h, h/2 and h/4, sampled at the instants of the h run."""
    dt = 1.0 / 972.0
    runs = [simulated(dt / k, config=config).x for k in (1, 2, 4)]
    n = len(runs[0])
    return runs[0], runs[1][1::2][:n], runs[2][3::4][:n], simulated(dt).t


def test_trajectory_matches_reference_and_perturbation_is_rejected():
    output, half, quarter, t = step_ladder()
    ref_x, _ = checks.reference_tip_trajectory(CONFIG, 0.5, 4.0, t)
    assert checks.check_against_reference("x", output, half, quarter, ref_x) == []

    perturbed = output.copy()
    perturbed[len(perturbed) // 2] += 1e-4 * np.ptp(ref_x)
    assert checks.check_against_reference("x", perturbed, half, quarter, ref_x)


def test_trajectory_of_another_model_is_rejected():
    wrong = oscillator.OscillatorConfig(**{**CONFIG.__dict__, "eta": 0.99 * CONFIG.eta})
    output, half, quarter, t = step_ladder(wrong)
    ref_x, _ = checks.reference_tip_trajectory(CONFIG, 0.5, 4.0, t)
    assert checks.check_against_reference("x", output, half, quarter, ref_x)


# --- trng ------------------------------------------------------------------

def test_bits_accepts_uniform_and_rejects_biased():
    rng = np.random.default_rng(5)
    good = rng.integers(0, 2, 70_000)
    assert checks.check_bits(good, 70_000) == []
    biased = (rng.random(70_000) < 0.55).astype(np.uint8)
    assert any("chi-squared" in f for f in checks.check_bits(biased, 70_000))


def test_bits_rejects_wrong_length_and_correlation():
    rng = np.random.default_rng(6)
    assert checks.check_bits(rng.integers(0, 2, 70_000), 70_007)
    ints = rng.integers(0, 128, 10_000)
    ints[1::2] = ints[::2]  # every integer repeated once: lag-1 correlation 0.5
    bits = ((ints[:, None] >> np.arange(6, -1, -1)) & 1).ravel()
    assert any("rho" in f for f in checks.check_bits(bits, len(bits)))


def test_parse_bits_rejects_other_characters():
    assert list(checks.parse_bits("0110\n10\n")) == [0, 1, 1, 0, 1, 0]
    with pytest.raises(ValueError):
        checks.parse_bits("01x0\n")


def test_stochmul_estimate_must_be_near_product():
    assert checks.check_stochmul({"estimate": 2300}, 42, 54) == []
    assert checks.check_stochmul({"estimate": 0}, 42, 54)


# --- battery ---------------------------------------------------------------

def e_report(values):
    results = {}
    for (name, i), value in values.items():
        p = results.setdefault(name, [0.5] * 18)
        p[i] = value
    return {"results": [{"name": n, "p_values": p, "applicable": True} for n, p in results.items()]}


def test_known_answers_accept_published_values():
    assert checks.check_known_answers(e_report(checks.E_KNOWN_ANSWERS)) == []


@pytest.mark.parametrize("key", sorted(checks.E_KNOWN_ANSWERS))
def test_known_answer_off_by_1e3_is_rejected(key):
    values = dict(checks.E_KNOWN_ANSWERS)
    values[key] += 1e-3
    assert len(checks.check_known_answers(e_report(values))) == 1


def prng_report(mins, applicable=15):
    return {"results": [{"name": f"t{i}", "p_values": [p, 0.5], "applicable": i < applicable}
                        for i, p in enumerate(mins)]}


def test_prng_report_allows_one_failure_and_rejects_two():
    assert checks.check_prng_report(prng_report([0.3] * 15)) == []
    assert checks.check_prng_report(prng_report([1e-9] + [0.3] * 14)) == []
    assert checks.check_prng_report(prng_report([1e-9, 1e-9] + [0.3] * 13))
    assert checks.check_prng_report(prng_report([0.3] * 15, applicable=12))


# --- reservoir -------------------------------------------------------------

def test_baseline_column_recomputed_and_perturbation_rejected():
    series = checks.minmax(signals.mackey_glass(signals.MGParams(n_points=800)))
    bl = checks.baseline_mse(series, 20, 10)
    assert checks.check_rc_mg({(20, 10): (0.5 * bl, bl)}, {"errors": {}}, [20], [10], series) == []
    failures = checks.check_rc_mg({(20, 10): (0.5 * bl, bl * (1 + 1e-6))}, {"errors": {}},
                                  [20], [10], series)
    assert len(failures) == 1 and "baseline" in failures[0]
    assert checks.check_rc_mg({(20, 10): (2 * bl, bl)}, {"errors": {}}, [20], [10], series)
    assert checks.check_rc_mg({(20, 10): (0.5 * bl, bl)}, {"errors": {"20,10": "x"}},
                              [20], [10], series)


def test_baseline_mse_matches_normal_equations():
    rng = np.random.default_rng(3)
    series = rng.random(300)
    lag, tau = 4, 2
    rows = np.arange(lag - 1, len(series) - tau)
    x = np.array([np.append(series[t - lag + 1:t + 1], 1.0) for t in rows])
    y = series[rows + tau]
    split = int(len(rows) * 0.8)
    reg = 1e-4 * np.eye(lag + 1)
    reg[-1, -1] = 0.0
    w = np.linalg.solve(x[:split].T @ x[:split] + reg, x[:split].T @ y[:split])
    want = np.mean((x[split + lag:] @ w - y[split + lag:]) ** 2)
    assert checks.baseline_mse(series, lag, tau) == pytest.approx(want, rel=1e-10)


def test_rc_transform_needs_half_the_baseline():
    assert checks.check_rc_transform({"mse_rc": 0.005, "mse_baseline": 0.046}) == []
    assert checks.check_rc_transform({"mse_rc": 0.03, "mse_baseline": 0.046})


def test_fixed_point_drift_rejected():
    assert checks.check_fixed_point(np.ones(50)) == []
    assert checks.check_fixed_point(np.ones(50) + 1e-5)
