import numpy as np
import pytest

from polarexp.diagnostics import (
    _autocov,
    _geyer_truncation,
    ess,
    split_rhat,
    summarize,
)
from polarexp.distributions import Ar1Params, sample_ar1


class TestEss:
    def test_iid_near_nominal(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20_000)
        assert 0.9 * x.size <= ess(x) <= 1.1 * x.size

    @pytest.mark.parametrize("phi", [0.5, 0.95])
    def test_ar1_oracle(self, phi):
        # stationary AR(1) has ESS/N -> (1 - phi) / (1 + phi)
        rng = np.random.default_rng(1)
        n = 200_000
        x = sample_ar1(1, n, Ar1Params(phi=phi, sigma2=1.0), rng).ravel()
        target = (1 - phi) / (1 + phi)
        assert ess(x) / n == pytest.approx(target, rel=0.10)

    def test_antithetic_exceeds_n(self):
        # negative lag-1 correlation gives super-efficient chains; cap at 1.05N
        rng = np.random.default_rng(2)
        n = 50_000
        x = sample_ar1(1, n, Ar1Params(phi=-0.6, sigma2=1.0), rng).ravel()
        val = ess(x)
        assert val > n
        assert val <= 1.05 * n

    def test_constant_series_warns_zero(self):
        with pytest.warns(UserWarning):
            assert ess(np.ones(500)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            ess(np.arange(50, dtype=float))

    def test_geyer_pair_sums_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = sample_ar1(1, 5000, Ar1Params(phi=0.8, sigma2=1.0), rng).ravel()
            lag, pair = _geyer_truncation(_autocov(x))
            assert lag % 2 == 0
            assert np.all(np.diff(pair) <= 1e-12)
            assert np.all(pair > 0)


class TestSplitRhat:
    def test_identical_halves_unity(self):
        rng = np.random.default_rng(4)
        chains = [rng.standard_normal(1000) for _ in range(4)]
        assert split_rhat(chains) == pytest.approx(1.0, abs=0.02)

    def test_shifted_chains_flagged(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 3.0
        assert split_rhat([a, b]) > 1.5

    def test_single_chain_trend_detected(self):
        # splitting one trending chain in half exposes the drift
        x = np.linspace(0.0, 5.0, 1000) + np.random.default_rng(6).standard_normal(1000) * 0.1
        assert split_rhat([x]) > 1.5

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="unequal"):
            split_rhat([np.zeros(200), np.zeros(300)])

    def test_short_chains_raise(self):
        with pytest.raises(ValueError):
            split_rhat([np.zeros(50)])

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        chains = [rng.standard_normal(600) for _ in range(3)]
        base = split_rhat(chains)
        scaled = split_rhat([7.0 * c - 2.0 for c in chains])
        assert scaled == pytest.approx(base, abs=1e-10)


class TestSummarize:
    def test_known_moments(self):
        rng = np.random.default_rng(8)
        draws = rng.standard_normal((4, 2000, 2))
        draws[:, :, 1] = 5.0 + 2.0 * draws[:, :, 1]
        rows = summarize(draws, ["a", "b"])
        assert rows[0].name == "a"
        assert rows[0].mean == pytest.approx(0.0, abs=0.05)
        assert rows[1].mean == pytest.approx(5.0, abs=0.1)
        assert rows[1].sd == pytest.approx(2.0, abs=0.1)
        assert rows[1].q50 == pytest.approx(5.0, abs=0.1)
        assert rows[1].q5 == pytest.approx(5.0 - 2.0 * 1.6449, abs=0.2)
        for r in rows:
            assert r.rhat == pytest.approx(1.0, abs=0.02)
            assert 0.9 <= r.ess_per_iter <= 1.1

    def test_name_count_validated(self):
        with pytest.raises(ValueError):
            summarize(np.zeros((2, 200, 3)), ["only", "two"])

    def test_two_dim_input_promoted(self):
        rng = np.random.default_rng(9)
        rows = summarize(rng.standard_normal((500, 1)), ["x"])
        assert len(rows) == 1
        assert rows[0].ess > 100
