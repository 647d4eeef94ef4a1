"""Physical-reservoir pipeline: embedding, ridge solver, excitation."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from softdyn.reservoir import (excite_reservoir, lag_embed, ridge_fit,
                               run_transform_task)


class TestLagEmbed:
    def test_row_count_and_alignment(self):
        s = np.arange(20.0)
        feats, targ, rows = lag_embed([s], lag=3, tau_pred=2, target=s)
        assert feats.shape == (20 - 3 + 1 - 2, 3 + 1)
        # row for t = 2 holds s[0..2] plus the bias
        assert feats[0].tolist() == [0.0, 1.0, 2.0, 1.0]
        assert targ[0] == 4.0  # s[2 + 2]
        assert rows[0] == 2

    def test_multiple_series_stack(self):
        a, b = np.arange(10.0), np.arange(10.0) * 2
        feats, _, _ = lag_embed([a, b], lag=2, tau_pred=0, target=a)
        assert feats.shape == (9, 5)
        assert feats[0].tolist() == [0.0, 1.0, 0.0, 2.0, 1.0]

    @given(n=st.integers(2, 60), lag=st.integers(1, 20), tau_pred=st.integers(0, 20),
           n_series=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_rows_align_with_targets(self, n, lag, tau_pred, n_series, seed):
        assume(n > lag + tau_pred)
        rng = np.random.default_rng(seed)
        series, target = rng.normal(size=(n_series, n)), rng.normal(size=n)
        feats, targ, rows = lag_embed(list(series), lag=lag, tau_pred=tau_pred, target=target)
        assert rows.tolist() == list(range(lag - 1, n - tau_pred))
        for r, t in enumerate(rows):
            # each series' window ends at t, oldest sample first; the target is tau_pred ahead
            expected = np.concatenate([s[t - lag + 1:t + 1] for s in series] + [[1.0]])
            assert np.array_equal(feats[r], expected)
            assert targ[r] == target[t + tau_pred]

    def test_validation(self):
        s = np.arange(10.0)
        with pytest.raises(ValueError):
            lag_embed([s], lag=0, tau_pred=0, target=s)
        with pytest.raises(ValueError):
            lag_embed([s], lag=2, tau_pred=-1, target=s)
        with pytest.raises(ValueError):
            lag_embed([s], lag=8, tau_pred=2, target=s)
        with pytest.raises(ValueError):
            lag_embed([s, np.arange(9.0)], lag=2, tau_pred=0, target=s)


class TestRidge:
    def test_recovers_known_weights(self):
        rng = np.random.default_rng(13)
        w_true = np.array([2.0, -1.0, 0.5, 3.0])
        feats = np.hstack([rng.normal(size=(100, 3)), np.ones((100, 1))])
        targ = feats @ w_true
        model = ridge_fit(feats, targ, lam=1e-10)
        assert np.allclose(model.weights, w_true, atol=1e-6)
        assert model.train_mse < 1e-12
        assert np.allclose(model.predict(feats), targ, atol=1e-6)

    def test_matches_direct_solution(self):
        rng = np.random.default_rng(14)
        feats = np.hstack([rng.normal(size=(200, 10)), np.ones((200, 1))])
        targ = rng.normal(size=200)
        lam = 1e-4
        model = ridge_fit(feats, targ, lam=lam)
        reg = lam * np.eye(11)
        reg[-1, -1] = 0.0
        expected = np.linalg.solve(feats.T @ feats + reg, feats.T @ targ)
        assert np.allclose(model.weights, expected, atol=1e-8)

    def test_large_lambda_shrinks_weights(self):
        rng = np.random.default_rng(15)
        feats = np.hstack([rng.normal(size=(100, 5)), np.ones((100, 1))])
        targ = rng.normal(size=100) + 2.0
        model = ridge_fit(feats, targ, lam=1e8)
        # non-bias weights collapse; the unpenalized bias keeps the mean
        assert np.all(np.abs(model.weights[:-1]) < 1e-4)
        assert model.weights[-1] == pytest.approx(targ.mean(), abs=0.01)

    def test_validation(self):
        feats = np.ones((3, 5))
        with pytest.raises(ValueError):
            ridge_fit(feats, np.ones(3))
        with pytest.raises(ValueError):
            ridge_fit(np.ones((10, 2)), np.ones(10), lam=0.0)


class TestExcitation:
    def test_readout_shape_and_range(self, config):
        u = 0.5 * (np.sin(2 * np.pi * np.arange(200) / 25.0) + 1.0)
        x, y, bounds = excite_reservoir(u, 0.25, config=config)
        assert x.shape == y.shape == (200,)
        assert 0.0 <= x.min() and x.max() <= 1.0
        assert set(bounds) == {"x", "y"}

    def test_deterministic(self, config):
        u = 0.5 * (np.sin(2 * np.pi * np.arange(100) / 25.0) + 1.0)
        x1, _, _ = excite_reservoir(u, 0.25, config=config)
        x2, _, _ = excite_reservoir(u, 0.25, config=config)
        assert np.array_equal(x1, x2)

    def test_nonlinear_distortion_present(self, config):
        # the readout must contain harmonics the input lacks, otherwise
        # the reservoir adds nothing over the linear baseline
        n, period = 400, 25.0
        u = 0.5 * (np.sin(2 * np.pi * np.arange(n) / period) + 1.0)
        x, _, _ = excite_reservoir(u, 0.25, config=config)
        spec = np.abs(np.fft.rfft(x[100:] - x[100:].mean())) ** 2
        k = round((n - 100) / period)
        fundamental = spec[k - 1:k + 2].sum()
        harmonics = sum(spec[m * k - 1:m * k + 2].sum() for m in (2, 3))
        assert harmonics / fundamental > 1e-4

    def test_input_validation(self, config):
        with pytest.raises(ValueError):
            excite_reservoir(np.array([0.5]), 0.25, config=config)
        with pytest.raises(ValueError):
            excite_reservoir(np.array([0.2, 1.5]), 0.25, config=config)
        with pytest.raises(ValueError):
            excite_reservoir(np.array([0.2, 0.4]), 0.0, config=config)


def test_transform_task_learns_square(config):
    mse_rc, mse_bl, preds = run_transform_task("square", n_points=600,
                                               config=config)
    assert mse_rc < mse_bl
    assert set(preds) == {"rc", "baseline", "input", "target"}
    assert np.all(np.isfinite(preds["rc"]))
