"""Unit tests for the bit-harvesting pipeline stages."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softdyn.errors import InsufficientDataError, SoftdynError
from softdyn import oscillator
from softdyn.oscillator import DriveParams, simulate_batch, tip_position
from softdyn.trajio import poincare_sample
from softdyn.trng import (BitStream, RawCoordinateStream, UniformStream,
                          autocorrelation, combine_bitstreams,
                          decimate_quantize, generate_bits,
                          harvest_poincare_stream, strip_constant_runs,
                          uniformity_diagnostics, whiten_blocks)


def test_strip_constant_runs():
    out = strip_constant_runs(np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 1.0]))
    assert out.tolist() == [1.0, 2.0, 3.0, 1.0]


def test_strip_constant_runs_empty():
    assert len(strip_constant_runs(np.array([]))) == 0


def test_whiten_blocks_produces_block_uniform_ranks():
    rng = np.random.default_rng(3)
    raw = RawCoordinateStream(values=rng.normal(size=3000))
    u = whiten_blocks(raw, block=1500, trim=10)
    assert len(u) == 2 * 1480
    # rank transform of distinct values covers the 1/m..1 grid exactly
    first = np.sort(u.values[u.block_index == 0])
    assert np.allclose(first, np.arange(1, 1481) / 1480)


def test_whiten_blocks_drops_partial_block():
    rng = np.random.default_rng(4)
    raw = RawCoordinateStream(values=rng.normal(size=2000))
    u = whiten_blocks(raw, block=1500, trim=10)
    assert len(u) == 1480


def test_whiten_blocks_insufficient():
    raw = RawCoordinateStream(values=np.arange(100.0))
    with pytest.raises(InsufficientDataError):
        whiten_blocks(raw, block=1500, trim=10)


def test_decimate_quantize_values_and_bits():
    vals = np.array([0.0, 0.9, 0.1, 0.9, 0.5, 0.9, 1.0, 0.9])
    u = UniformStream(values=vals, block_index=np.zeros(len(vals), dtype=int))
    bits = decimate_quantize(u, stride=2, k=7)
    # floor(v * 128), clamped to 127: 0.0 -> 0, 0.1 -> 12, 0.5 -> 64, 1.0 -> 127
    assert bits.integers.tolist() == [0, 12, 64, 127]
    assert len(bits) == 4 * 7
    assert bits.bits[:7].tolist() == [0] * 7
    assert bits.bits[-7:].tolist() == [1] * 7  # 127 is all ones, MSB first


def test_bitstream_integer_roundtrip():
    ints = np.array([0, 1, 63, 127, 64])
    bs = BitStream.from_integers(ints, width=7)
    assert bs.integers.tolist() == ints.tolist()


@given(width=st.integers(1, 16), data=st.data())
def test_bitstream_integers_roundtrip_property(width, data):
    ints = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=50))
    bs = BitStream.from_integers(ints, width=width)
    assert len(bs) == width * len(ints)
    assert bs.integers.tolist() == ints
    # and from bits: integers, back to bits, drops only the trailing partial integer
    bits = data.draw(st.lists(st.integers(0, 1), max_size=100))
    whole = len(bits) // width * width
    again = BitStream.from_integers(BitStream(bits=bits, width=width).integers, width=width)
    assert again.bits.tolist() == bits[:whole]


@settings(deadline=None)
@given(block=st.integers(3, 60), trim=st.integers(0, 10), n_blocks=st.integers(1, 4),
       levels=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
def test_whiten_blocks_lies_on_rank_grid(block, trim, n_blocks, levels, seed):
    assume(block > 2 * trim)
    # few levels make ties; constant runs are stripped before blocking
    values = np.random.default_rng(seed).integers(0, levels, n_blocks * block + 17) / 7.0
    assume(len(strip_constant_runs(values)) >= block)
    u = whiten_blocks(RawCoordinateStream(values=values), block=block, trim=trim)
    m = block - 2 * trim
    assert len(u) % m == 0
    assert np.all((u.values > 0) & (u.values <= 1))
    assert np.array_equal(np.round(u.values * m) / m, u.values)
    for b in np.unique(u.block_index):
        assert u.values[u.block_index == b].max() == 1.0  # the block's largest value has rank m


def test_bitstream_ascii_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    bs = BitStream.from_integers(rng.integers(0, 128, 50), width=7)
    path = tmp_path / "bits.txt"
    path.write_text(bs.to_ascii())
    back = BitStream.from_ascii(path, width=7)
    assert np.array_equal(back.bits, bs.bits)


def test_autocorrelation_of_periodic_signal():
    x = np.tile([1.0, -1.0], 200)
    rho = autocorrelation(x, 4)
    assert rho[0] == pytest.approx(1.0)
    assert rho[1] == pytest.approx(-1.0, abs=0.01)
    assert rho[2] == pytest.approx(1.0, abs=0.01)


def test_autocorrelation_rejects_constant():
    with pytest.raises(SoftdynError):
        autocorrelation(np.ones(100), 5)


def test_uniformity_diagnostics_uniform_sample():
    rng = np.random.default_rng(6)
    u = UniformStream(values=rng.uniform(size=5000),
                      block_index=np.zeros(5000, dtype=int))
    theo, sample, ks, p = uniformity_diagnostics(u)
    assert len(theo) == len(sample) == 5000
    assert p > 0.01


def test_combine_bitstreams_modular_add():
    a = BitStream.from_integers(np.array([100, 127, 0]), width=7)
    b = BitStream.from_integers(np.array([50, 1, 5]), width=7)
    c = combine_bitstreams(a, b)
    assert c.integers.tolist() == [(100 + 50) % 128, 0, 5]


def test_combine_bitstreams_width_mismatch():
    a = BitStream.from_integers(np.array([1]), width=7)
    b = BitStream.from_integers(np.array([1]), width=6)
    with pytest.raises(ValueError):
        combine_bitstreams(a, b)


def test_harvest_is_seed_deterministic(config):
    drive = DriveParams(amplitude=9.0, frequency=18.0)
    [a] = harvest_poincare_stream(config, (drive,), 860, n_runs=4, seed=2)
    [b] = harvest_poincare_stream(config, (drive,), 860, n_runs=4, seed=2)
    [c] = harvest_poincare_stream(config, (drive,), 860, n_runs=4, seed=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values[:len(c.values)], c.values[:len(a.values)])


@pytest.mark.parametrize("rows", [1, oscillator._SCALAR_MAX_ROWS + 1])
def test_poincare_stride_records_match_sampled_trajectory(config, rows):
    # the harvest's route: q1, q2 recorded every 60 steps, one drive period
    drive = DriveParams(amplitude=0.5, frequency=4.0)
    dt, periods = 1.0 / (60 * drive.frequency), 50
    states = np.tile([0.05, 0.0, 0.02, 0.0], (rows, 1)) * np.linspace(0.5, 1.5, rows)[:, None]
    _, q = oscillator._rk4_steps(config, states.T, 60 * periods, dt, drive=drive,
                                 record_every=60)
    x, _ = tip_position(q[:, 0], q[:, 1], config)
    trajs = simulate_batch(config, drive, periods * drive.period, dt, states)
    for j, traj in enumerate(trajs):
        sampled = poincare_sample(traj, drive).points[:, 0]
        n = min(len(sampled), periods)
        assert n >= periods - 1
        assert np.max(np.abs(x[:n, j] - sampled[:n])) <= 1e-12
    assert np.ptp(x[:, 0]) > 1e-3


def test_generate_bits_small(config):
    bits = generate_bits(config, 700, seed=11, n_runs=8)
    assert len(bits) >= 700
    ints = bits.integers
    assert ints.min() >= 0 and ints.max() <= 127
    # both halves of the range are populated
    assert (ints < 64).any() and (ints >= 64).any()
