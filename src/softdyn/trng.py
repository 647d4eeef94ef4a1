"""Whitening chain from chaotic Poincare coordinates to uniform integers and bits.

Chain per 1500-value block: strip constant runs, trim the 10 extreme
values at each end, min-max map to [0, 1], transform through the block's
empirical CDF; blocks are concatenated, decimated 5x and quantized to
7-bit integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sp_stats

from .errors import InsufficientDataError, SoftdynError
from .oscillator import DriveParams, OscillatorConfig, _rk4_steps, tip_position

__all__ = [
    "RawCoordinateStream",
    "UniformStream",
    "BitStream",
    "strip_constant_runs",
    "whiten_blocks",
    "decimate_quantize",
    "autocorrelation",
    "uniformity_diagnostics",
    "harvest_poincare_stream",
    "combine_bitstreams",
    "generate_bits",
]


@dataclass(frozen=True)
class RawCoordinateStream:
    """Merged Poincare x coordinates of an ensemble harvest."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("stream values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class UniformStream:
    """Whitened values in [0, 1] with per-value block provenance."""

    values: np.ndarray
    block_index: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if len(vals) and (vals.min() < 0 or vals.max() > 1):
            raise ValueError("uniform stream values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "block_index", np.asarray(self.block_index, dtype=int))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class BitStream:
    """Ordered bits with a width-k integer view (MSB first)."""

    bits: np.ndarray
    width: int = 7

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if len(bits) and bits.max() > 1:
            raise ValueError("bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    def __len__(self):
        return len(self.bits)

    @property
    def integers(self) -> np.ndarray:
        n = (len(self.bits) // self.width) * self.width
        chunks = self.bits[:n].reshape(-1, self.width).astype(np.int64)
        weights = 1 << np.arange(self.width - 1, -1, -1)
        return chunks @ weights

    @classmethod
    def from_integers(cls, integers, width: int = 7) -> "BitStream":
        ints = np.asarray(integers, dtype=np.int64)
        if len(ints) and (ints.min() < 0 or ints.max() >= (1 << width)):
            raise ValueError(f"integers must lie in [0, {(1 << width) - 1}]")
        shifts = np.arange(width - 1, -1, -1)
        bits = ((ints[:, None] >> shifts) & 1).astype(np.uint8).ravel()
        return cls(bits=bits, width=width)

    def to_ascii(self, line_width: int = 64) -> str:
        text = (self.bits + ord("0")).tobytes().decode()
        return "".join(text[i:i + line_width] + "\n" for i in range(0, len(text), line_width))

    @classmethod
    def from_ascii(cls, path, width: int = 7) -> "BitStream":
        with open(path) as fh:
            text = "".join(line.strip() for line in fh)
        return cls(bits=np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"), width=width)


def strip_constant_runs(values: np.ndarray) -> np.ndarray:
    """Collapse runs of >= 2 consecutive equal values to a single value."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return values
    keep = np.concatenate([[True], values[1:] != values[:-1]])
    return values[keep]


def whiten_blocks(stream: RawCoordinateStream, block: int = 1500, trim: int = 10) -> UniformStream:
    """Per-block whitening via trimming and the probability-integral transform.

    Output values are the rank/m grid of each block, in the block's
    original sample order; residual ties share the max rank.  The
    trailing partial block is dropped.
    """
    stripped = strip_constant_runs(stream.values)
    n_blocks = len(stripped) // block
    if n_blocks == 0:
        raise InsufficientDataError(
            f"need at least one full block of {block} values after run-stripping, "
            f"got {len(stripped)}")
    out_vals, out_blocks = [], []
    for b in range(n_blocks):
        chunk = stripped[b * block:(b + 1) * block]
        order = np.argsort(chunk, kind="stable")
        drop = np.zeros(block, dtype=bool)
        drop[order[:trim]] = True
        drop[order[block - trim:]] = True
        kept = chunk[~drop]
        m = len(kept)
        if m < block - 2 * trim:
            continue  # shortfall after trimming: drop the block
        lo, hi = kept.min(), kept.max()
        scaled = (kept - lo) / (hi - lo) if hi > lo else np.zeros(m)
        # empirical CDF of the block evaluated at each value: max-rank / m
        ranks = np.searchsorted(np.sort(scaled), scaled, side="right")
        out_vals.append(ranks / m)
        out_blocks.append(np.full(m, b))
    if not out_vals:
        raise InsufficientDataError("no usable blocks after trimming")
    return UniformStream(values=np.concatenate(out_vals),
                         block_index=np.concatenate(out_blocks))


def decimate_quantize(u: UniformStream, stride: int = 5, k: int = 7) -> BitStream:
    """Keep every stride-th value and quantize to width-k integers, MSB first."""
    if len(u) == 0:
        raise InsufficientDataError("empty uniform stream")
    vals = u.values[::stride]
    top = (1 << k) - 1
    ints = np.minimum(np.floor(vals * (1 << k)).astype(np.int64), top)
    return BitStream.from_integers(ints, width=k)


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation rho(0..max_lag); rho(0) = 1."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n <= max_lag + 1:
        raise ValueError("series shorter than max_lag + 2")
    x = x - x.mean()
    var = float(np.dot(x, x))
    if var == 0.0:
        raise SoftdynError("autocorrelation undefined for a constant series")
    rho = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        rho[lag] = np.dot(x[:n - lag], x[lag:]) / var
    return rho


def uniformity_diagnostics(u: UniformStream):
    """Q-Q points against Uniform[0,1] plus the one-sample KS statistic and p-value.

    Returns (theoretical_quantiles, sample_quantiles, ks_statistic, p_value).
    """
    if len(u) < 100:
        raise ValueError("need at least 100 values")
    sample = np.sort(u.values)
    n = len(sample)
    theoretical = (np.arange(1, n + 1) - 0.5) / n
    ks = sp_stats.kstest(u.values, "uniform")
    return theoretical, sample, float(ks.statistic), float(ks.pvalue)


# Integration steps per drive period in the harvest; q1 and q2 are recorded
# once per period, which samples the Poincare section at drive phase 0.
_STEPS_PER_PERIOD = 60


def harvest_poincare_stream(config: OscillatorConfig, drives: tuple[DriveParams, ...],
                            total_periods: float, n_runs: int = 64,
                            seed: int = 0) -> list[RawCoordinateStream]:
    """Simulate an ensemble of chaotic runs per drive and merge each ensemble's Poincare x.

    Drive i seeds its runs' initial perturbations, then their offsets, from
    `seed + 10 * i`, so the runs decorrelate and each discards a random
    number of leading periods to start at a staggered point on the
    attractor.  All drives' runs are integrated as one batch, each row at
    60 steps per period of its own drive for total_periods / n_runs
    periods.  Each ensemble's runs are merged round-robin, which removes
    the strong phase coherence a single run of the oscillator retains
    between successive drive periods.  Returns one stream per drive.
    """
    periods_per_run = total_periods / n_runs
    if periods_per_run < 200:
        raise ValueError("total_periods too short for the requested number of runs")
    n_steps = int(periods_per_run * _STEPS_PER_PERIOD)
    states, offsets = [], []
    for i in range(len(drives)):
        rng = np.random.default_rng(seed + 10 * i)
        states.append(np.tile([0.05, 0.0, 0.02, 0.0], (n_runs, 1))
                      + rng.normal(0.0, 0.3, (n_runs, 4)))
        offsets.append(rng.integers(0, n_runs, n_runs))
    rows = [d for d in drives for _ in range(n_runs)]
    dts = [1.0 / (_STEPS_PER_PERIOD * d.frequency) for d in rows]
    _, q = _rk4_steps(config, np.concatenate(states).T, n_steps, np.array(dts),
                      drive=rows, record_every=_STEPS_PER_PERIOD)
    x, _ = tip_position(q[:, 0], q[:, 1], config)
    skip = 100  # transient periods before the map settles onto the attractor
    streams = []
    for i, offset in enumerate(offsets):
        n = len(x) - skip - offset.max()
        # period index (n, n_runs) into each run's column, merged row by row
        idx = skip + offset + np.arange(n)[:, None]
        merged = x[idx, i * n_runs + np.arange(n_runs)].ravel()
        streams.append(RawCoordinateStream(values=merged))
    return streams


def combine_bitstreams(a: BitStream, b: BitStream) -> BitStream:
    """Combine two independent bit streams by modular addition of their integers.

    The correlation of the sum at any lag is roughly the product of the
    two input correlations, so combining two harvests with small residual
    phase memory yields a stream whose memory sits below the sampling
    floor.  Both streams must share the same integer width; the shorter
    one sets the output length.
    """
    if a.width != b.width:
        raise ValueError("bit streams must have the same width")
    ia, ib = a.integers, b.integers
    n = min(len(ia), len(ib))
    combined = (ia[:n] + ib[:n]) % (1 << a.width)
    return BitStream.from_integers(combined, width=a.width)


def generate_bits(config: OscillatorConfig, n_bits: int, seed: int = 11,
                  drives: tuple[DriveParams, DriveParams] = (
                      DriveParams(amplitude=9.0, frequency=18.0),
                      DriveParams(amplitude=6.0, frequency=16.0)),
                  n_runs: int = 64) -> BitStream:
    """Produce `n_bits` whitened bits from two independent chaotic harvests.

    Each drive setting feeds its own ensemble harvest through the full
    conditioning chain (run stripping, block whitening, decimation and
    7-bit quantisation); the two integer streams are then folded together
    with `combine_bitstreams`.
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    width = 7
    n_integers = -(-n_bits // width)
    # each kept integer consumes stride*width uniforms upstream, plus the
    # whitening trim and transient skip; pad generously.
    uniforms = 5 * (n_integers + 200)
    periods = uniforms * 1520 / 1480 + n_runs * (100 + n_runs + 30)
    raws = harvest_poincare_stream(config, drives, periods, n_runs=n_runs, seed=seed)
    streams = [decimate_quantize(whiten_blocks(raw)) for raw in raws]
    combined = combine_bitstreams(*streams)
    if len(combined) < n_bits:
        raise InsufficientDataError(
            f"harvest produced {len(combined)} bits, needed {n_bits}")
    return BitStream(bits=combined.bits[:n_bits], width=width)
