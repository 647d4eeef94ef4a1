"""Regime classifier: synthetic oracles, invariances and the sweep plumbing."""

import numpy as np
import pytest

from softdyn import regime
from softdyn.errors import SoftdynError
from softdyn.oscillator import DriveParams, Trajectory, simulate
from softdyn.regime import (CHAOTIC, PERIODIC, QUASIPERIODIC, RegimeLabel,
                            classify_regime, classify_trajectory,
                            harmonic_fraction, phase_diagram_sweep,
                            poincare_clusters, power_spectrum,
                            spectral_flatness, sweep_to_csv)
from softdyn.trajio import PoincareMap, poincare_sample

RATE = 600.0
F_DRIVE = 10.0


def synth_trajectory(x):
    n = len(x)
    t = np.arange(1, n + 1) / RATE
    phase = np.mod(2 * np.pi * F_DRIVE * t, 2 * np.pi)
    return Trajectory(t=t, x=x, y=0.1 * x, phase=phase, sample_rate=RATE)


def test_pure_tone_is_periodic():
    t = np.arange(1, 60001) / RATE
    traj = synth_trajectory(np.sin(2 * np.pi * F_DRIVE * t))
    label = classify_trajectory(traj, DriveParams(amplitude=1.0, frequency=F_DRIVE))
    assert label.label == PERIODIC
    assert label.harmonic_fraction > 0.99


def test_incommensurate_tones_are_quasiperiodic():
    t = np.arange(1, 60001) / RATE
    x = np.sin(2 * np.pi * F_DRIVE * t) + 0.8 * np.sin(2 * np.pi * F_DRIVE * np.sqrt(2) * t)
    traj = synth_trajectory(x)
    label = classify_trajectory(traj, DriveParams(amplitude=1.0, frequency=F_DRIVE))
    assert label.label == QUASIPERIODIC


def test_simulated_chaotic_cell_is_chaotic(config):
    drive = DriveParams(amplitude=9.0, frequency=18.0)
    traj = simulate(config, drive, 320 / 18.0, 1 / (60 * 18.0))
    label = classify_trajectory(traj, drive)
    assert label.label == CHAOTIC


def test_label_invariant_under_rescaling(config):
    drive = DriveParams(amplitude=9.0, frequency=18.0)
    traj = simulate(config, drive, 320 / 18.0, 1 / (60 * 18.0))
    scaled = Trajectory(t=traj.t, x=123.0 * traj.x, y=123.0 * traj.y,
                        phase=traj.phase, sample_rate=traj.sample_rate)
    a = classify_trajectory(traj, drive)
    b = classify_trajectory(scaled, drive)
    assert a.label == b.label


def test_power_spectrum_peak_location():
    t = np.arange(1, 20001) / RATE
    spec = power_spectrum(np.sin(2 * np.pi * 25.0 * t), RATE)
    peak = spec.freqs[np.argmax(spec.power)]
    assert abs(peak - 25.0) < 2 * spec.resolution


def test_power_spectrum_needs_data():
    with pytest.raises(SoftdynError):
        power_spectrum(np.zeros(100), RATE)


def test_flatness_separates_noise_from_tone():
    rng = np.random.default_rng(0)
    t = np.arange(1, 60001) / RATE
    tone = power_spectrum(np.sin(2 * np.pi * F_DRIVE * t), RATE)
    noise = power_spectrum(rng.normal(size=60000), RATE)
    assert spectral_flatness(noise) > 0.9
    assert spectral_flatness(tone, band_max=60.0) < 1e-3


def test_harmonic_fraction_of_square_wave():
    t = np.arange(1, 60001) / RATE
    square = np.sign(np.sin(2 * np.pi * F_DRIVE * t))
    spec = power_spectrum(square, RATE)
    assert harmonic_fraction(spec, F_DRIVE) > 0.95


def test_poincare_clusters_three_blobs():
    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = np.vstack([c + rng.normal(0, 1e-4, (40, 2)) for c in centers])
    clusters, frac = poincare_clusters(PoincareMap(points=pts, frequency=1.0))
    assert len(clusters) == 3
    assert frac == pytest.approx(1.0)


def test_poincare_clusters_minimum_points():
    pmap = PoincareMap(points=np.zeros((10, 2)), frequency=1.0)
    with pytest.raises(SoftdynError):
        poincare_clusters(pmap)


def test_sweep_records_failures_and_labels(config, tmp_path):
    results = phase_diagram_sweep(config, [3.0, 18.0], [0.5, 9.0], periods=120)
    assert len(results) == 4
    assert all(isinstance(r, (RegimeLabel, str)) for r in results.values())
    assert isinstance(results[(3.0, 0.5)], RegimeLabel)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(results, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("f_hz,A_mT,label")
    assert len(lines) == 5


def test_sweep_propagates_programming_errors(config, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("deliberate programming error")

    monkeypatch.setattr(regime, "classify_trajectory", broken)
    with pytest.raises(TypeError):
        phase_diagram_sweep(config, [18.0], [9.0], periods=30)


def test_sweep_deterministic(config):
    kwargs = dict(f_grid=[18.0], a_grid=[9.0], periods=120)
    a = phase_diagram_sweep(config, **kwargs)
    b = phase_diagram_sweep(config, **kwargs)
    la, lb = a[(18.0, 9.0)], b[(18.0, 9.0)]
    assert la.label == lb.label
    assert la.flatness == lb.flatness
