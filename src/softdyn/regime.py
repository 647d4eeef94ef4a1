"""Dynamic-regime classification from Poincare maps and Fourier spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import SoftdynError
from .oscillator import (DriveParams, OscillatorConfig, Trajectory,
                         default_step, simulate_batch)
from .trajio import PoincareMap, poincare_sample

__all__ = [
    "Spectrum",
    "RegimeThresholds",
    "RegimeLabel",
    "power_spectrum",
    "spectral_flatness",
    "harmonic_fraction",
    "poincare_clusters",
    "classify_regime",
    "classify_trajectory",
    "phase_diagram_sweep",
    "sweep_to_csv",
]

PERIODIC = "Periodic"
QUASIPERIODIC = "Quasiperiodic"
CHAOTIC = "Chaotic"


@dataclass(frozen=True)
class Spectrum:
    """One-sided averaged power spectral density of a single channel."""

    freqs: np.ndarray
    power: np.ndarray
    window: str
    resolution: float

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if np.any(self.power < 0):
            raise ValueError("power must be non-negative")


@dataclass(frozen=True)
class RegimeThresholds:
    """Config-exposed decision thresholds for the regime classifier."""

    harmonic_energy: float = 0.95
    max_periodic_clusters: int = 3
    min_clustered_fraction: float = 0.95
    # Discrete spectra of noise-free simulated motion sit at machine-level
    # flatness; any broadband floor pushes the band-limited flatness above
    # ~1e-3, so the chaos cut is far below the white-noise value of ~0.93.
    chaotic_flatness: float = 1e-3
    chaotic_max_cluster_fraction: float = 0.2
    cluster_radius_fraction: float = 0.02  # of the point-cloud bounding-box diagonal
    harmonic_halfwidth_bins: float = 1.5
    flatness_band_harmonics: float = 6.0  # flatness band = [0, this * drive f]


@dataclass(frozen=True)
class RegimeLabel:
    label: str
    cluster_count: int
    clustered_fraction: float
    largest_cluster_fraction: float
    flatness: float
    harmonic_fraction: float
    ambiguous: bool = False


def power_spectrum(x: np.ndarray, sample_rate: float, n_segments: int = 8) -> Spectrum:
    """Hann-windowed averaged periodogram (half-overlapping segments)."""
    x = np.asarray(x, dtype=float)
    if len(x) < 1024:
        raise SoftdynError("need at least 1024 samples for a spectrum")
    nperseg = int(2 * len(x) / (n_segments + 1))
    freqs, power = sp_signal.welch(x - x.mean(), fs=sample_rate, window="hann",
                                   nperseg=nperseg, noverlap=nperseg // 2,
                                   detrend=False)
    return Spectrum(freqs=freqs, power=power, window="hann",
                    resolution=sample_rate / nperseg)


def spectral_flatness(spec: Spectrum, band_max: float | None = None) -> float:
    """Geometric over arithmetic mean of the PSD, DC bin excluded.

    `band_max` restricts the estimate to frequencies <= band_max; without
    it the steep high-frequency rolloff of smooth signals dominates.
    """
    p = spec.power[1:]
    if band_max is not None:
        p = p[spec.freqs[1:] <= band_max]
    p = p[p > 0]
    if len(p) == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(p))) / np.mean(p))


def harmonic_fraction(spec: Spectrum, drive_freq: float,
                      halfwidth_bins: float = 1.5) -> float:
    """Fraction of spectral energy lying within +-halfwidth_bins of multiples of the drive frequency."""
    total = spec.power[1:].sum()
    if total == 0:
        return 1.0
    df = spec.freqs[1] - spec.freqs[0]
    k = np.round(spec.freqs / drive_freq)
    near = (k >= 1) & (np.abs(spec.freqs - k * drive_freq) <= halfwidth_bins * df)
    near[0] = False
    return float(spec.power[near].sum() / total)


def poincare_clusters(pmap: PoincareMap, radius: float | None = None,
                      radius_fraction: float = 0.02):
    """Density-linkage clustering: points within `radius` are linked.

    Returns (clusters, clustered_fraction) where clusters is a list of
    index arrays sorted by decreasing size and clustered_fraction is the
    fraction of points belonging to clusters of more than one point.
    """
    pts = pmap.points
    n = len(pts)
    if n < 30:
        raise SoftdynError("need at least 30 Poincare points")
    if radius is None:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        diag = float(np.linalg.norm(hi - lo))
        # Floor at machine-noise scale so a point cloud that is a single
        # fixed point (up to round-off) does not fragment.
        floor = 1e-9 * max(1.0, float(np.abs(pts).max()))
        radius = max(radius_fraction * diag, floor)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if len(pairs):
        adj = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    else:
        adj = csr_matrix((n, n))
    n_comp, labels = connected_components(adj, directed=False)
    clusters = [np.flatnonzero(labels == c) for c in range(n_comp)]
    clusters.sort(key=len, reverse=True)
    multi = [c for c in clusters if len(c) > 1]
    clustered = sum(len(c) for c in multi) / n
    return multi, float(clustered)


def classify_regime(pmap: PoincareMap, spec: Spectrum, drive_freq: float,
                    thresholds: RegimeThresholds = RegimeThresholds()) -> RegimeLabel:
    """Apply the threshold rule: Periodic, then Chaotic, else Quasiperiodic.

    When the Periodic and Chaotic criteria both fire the cell is labelled
    Quasiperiodic and flagged ambiguous.
    """
    th = thresholds
    clusters, clustered = poincare_clusters(pmap, radius_fraction=th.cluster_radius_fraction)
    largest = len(clusters[0]) / len(pmap) if clusters else 0.0
    flat = spectral_flatness(spec, band_max=th.flatness_band_harmonics * drive_freq)
    harm = harmonic_fraction(spec, drive_freq, th.harmonic_halfwidth_bins)
    diag = dict(cluster_count=len(clusters), clustered_fraction=clustered,
                largest_cluster_fraction=largest, flatness=flat, harmonic_fraction=harm)
    is_periodic = (harm >= th.harmonic_energy
                   and len(clusters) <= th.max_periodic_clusters
                   and clustered >= th.min_clustered_fraction)
    is_chaotic = flat >= th.chaotic_flatness or largest < th.chaotic_max_cluster_fraction
    if is_periodic and is_chaotic:
        return RegimeLabel(label=QUASIPERIODIC, ambiguous=True, **diag)
    if is_periodic:
        return RegimeLabel(label=PERIODIC, **diag)
    if is_chaotic:
        return RegimeLabel(label=CHAOTIC, **diag)
    return RegimeLabel(label=QUASIPERIODIC, **diag)


def classify_trajectory(traj: Trajectory, drive: DriveParams,
                        thresholds: RegimeThresholds = RegimeThresholds()) -> RegimeLabel:
    """Convenience wrapper: Poincare map + x spectrum + classification."""
    pmap = poincare_sample(traj, drive)
    spec = power_spectrum(traj.x, traj.sample_rate)
    return classify_regime(pmap, spec, drive.frequency, thresholds)


def _sweep_cell(config, f, amp, periods, thresholds):
    drive = DriveParams(amplitude=amp, frequency=f)
    dt = default_step(config, drive)
    duration = (periods + 20) / f
    traj = simulate_batch(config, drive, duration, dt,
                          np.array([[0.05, 0.0, 0.02, 0.0]]))[0]
    # drop the leading transient periods before classifying
    skip = int(20 / f * traj.sample_rate)
    steady = Trajectory(t=traj.t[skip:], x=traj.x[skip:], y=traj.y[skip:],
                        phase=traj.phase[skip:], sample_rate=traj.sample_rate)
    return classify_trajectory(steady, drive, thresholds)


def phase_diagram_sweep(config: OscillatorConfig, f_grid, a_grid, periods: int = 300,
                        thresholds: RegimeThresholds = RegimeThresholds()):
    """Classify every (frequency, amplitude) cell; per-cell failures are recorded, not raised.

    Returns a dict mapping (f, A) to RegimeLabel or to an error string.
    Only package errors and ValueError are recorded; any other exception
    is a programming error and propagates.
    """
    results = {}
    for f in f_grid:
        for a in a_grid:
            cell = (float(f), float(a))
            try:
                results[cell] = _sweep_cell(config, *cell, periods, thresholds)
            except (SoftdynError, ValueError) as exc:
                results[cell] = f"error: {exc}"
    return results


def sweep_to_csv(results: dict) -> str:
    lines = ["f_hz,A_mT,label,cluster_count,clustered_fraction,flatness,harmonic_fraction\n"]
    for (f, a) in sorted(results):
        r = results[(f, a)]
        if isinstance(r, RegimeLabel):
            lines.append(f"{f:g},{a:g},{r.label},{r.cluster_count},{r.clustered_fraction:.6f},"
                         f"{r.flatness:.6f},{r.harmonic_fraction:.6f}\n")
        else:
            lines.append(f"{f:g},{a:g},{r},,,,\n")
    return "".join(lines)
