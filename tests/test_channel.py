import math

import numpy as np
import pytest

from corrcdma import channel
from corrcdma.channel import SpreadingMatrix, generate_spreading, transmit
from corrcdma.detectors import (
    correlated_mud_detect,
    correlated_sumf_detect,
    mud_detect,
    sumf_detect,
)
from corrcdma.harness import ExperimentConfig
from corrcdma.markov import generate_block, make_symmetric_matrix


class TestSpreading:
    def test_single_user_corr(self):
        s = generate_spreading(4, 1, np.random.default_rng(0))
        assert np.array_equal(s.corr, [[1.0]])

    def test_chip_values(self):
        s = generate_spreading(64, 10, np.random.default_rng(2))
        assert s.chips.shape == (64, 10)
        assert s.chips.dtype == np.int8
        assert np.all(np.abs(s.chips) == 1)

    def test_corr_matches_bruteforce(self):
        # oracle: per-pair dot products computed without matrix algebra
        s = generate_spreading(32, 6, np.random.default_rng(3))
        for k in range(6):
            for j in range(6):
                ref = sum(int(s.chips[mu, k]) * int(s.chips[mu, j]) for mu in range(32)) / 32
                assert s.corr[k, j] == ref

    def test_corr_is_exact_integer_gram(self):
        # sums of +-1 products are exact in float64 whatever the summation
        # order, so the float Gram equals the integer one bit for bit
        for n, k, seed in ((37, 23, 17), (1, 5, 18), (3, 1, 19), (101, 203, 20)):
            s = generate_spreading(n, k, np.random.default_rng(seed))
            want = (s.chips.astype(np.int64).T @ s.chips) / n
            assert s.corr.dtype == np.float64
            assert np.array_equal(s.corr.view(np.int64), want.view(np.int64))

    def test_corr_cached_and_read_only(self):
        s = generate_spreading(37, 23, np.random.default_rng(21))
        assert s.corr is s.corr
        assert not s.corr.flags.writeable
        assert not s.float_chips.flags.writeable
        assert np.array_equal(s.float_chips, s.chips)

    def test_corr_symmetric_unit_diagonal(self):
        s = generate_spreading(100, 30, np.random.default_rng(4))
        assert np.array_equal(s.corr, s.corr.T)
        np.testing.assert_allclose(np.diag(s.corr), 1.0, atol=0)

    def test_offdiag_spread(self):
        # off-diagonal entries are means of N fair +-1 products: sd = 1/sqrt(N)
        s = generate_spreading(1000, 800, np.random.default_rng(5))
        off = s.corr[~np.eye(800, dtype=bool)]
        assert abs(off.std() - 1 / math.sqrt(1000)) < 0.002
        assert abs(off.mean()) < 4 / math.sqrt(1000 * off.size)

    def test_chip_balance(self):
        s = generate_spreading(500, 400, np.random.default_rng(6))
        n = s.chips.size
        assert abs(float(np.mean(s.chips))) < 4 / math.sqrt(n)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            SpreadingMatrix(np.array([[1, 0], [-1, 1]]))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_spreading(0, 3, np.random.default_rng(0))


class TestConfig:
    # the channel parameters (N, K, sigma) are carried by ExperimentConfig;
    # the channel entry points validate them again on direct use

    def test_load(self):
        cfg = ExperimentConfig(spread_factor=1000, n_users=800, sigma=0.8)
        assert cfg.load == 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_spreading(10, 0, np.random.default_rng(0))
        s = generate_spreading(10, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            transmit(s, np.ones((5, 2), dtype=np.int8), -0.1,
                     np.random.default_rng(0))


class TestTransmit:
    def test_noiseless_single_user(self):
        s = generate_spreading(16, 1, np.random.default_rng(7))
        b = np.ones((1, 1), dtype=np.int8)
        y = transmit(s, b, 0.0, np.random.default_rng(8))
        np.testing.assert_array_equal(y[:, 0], s.chips[:, 0] / 4.0)

    def test_unit_energy(self):
        # exact when 1/sqrt(N) is a power of two, within eps otherwise
        s = generate_spreading(16, 1, np.random.default_rng(9))
        y = transmit(s, np.ones((1, 1), dtype=np.int8), 0.0, np.random.default_rng(0))
        assert float(np.sum(y**2)) == 1.0
        s = generate_spreading(25, 1, np.random.default_rng(9))
        y = transmit(s, np.ones((1, 1), dtype=np.int8), 0.0, np.random.default_rng(0))
        assert abs(float(np.sum(y**2)) - 1.0) < 1e-12

    def test_noiseless_matches_direct_sum(self):
        s = generate_spreading(8, 5, np.random.default_rng(10))
        b = np.ones((5, 3), dtype=np.int8)
        y = transmit(s, b, 0.0, np.random.default_rng(0))
        for mu in range(8):
            ref = sum(int(s.chips[mu, k]) for k in range(5)) / math.sqrt(8)
            for l in range(3):
                assert y[mu, l] == ref

    def test_noiseless_is_the_float64_product(self):
        s = generate_spreading(37, 23, np.random.default_rng(22))
        b = generate_block(make_symmetric_matrix(0.5), 23, 11,
                           np.random.default_rng(23))
        y = transmit(s, b, 0.0, np.random.default_rng(0))
        want = (s.chips.astype(np.float64) @ b.astype(np.float64)) / np.sqrt(37)
        assert np.array_equal(y.view(np.int64), want.view(np.int64))

    def test_noiseless_deterministic(self):
        s = generate_spreading(30, 12, np.random.default_rng(11))
        b = generate_block(make_symmetric_matrix(0.5), 12, 9, np.random.default_rng(12))
        y1 = transmit(s, b, 0.0, np.random.default_rng(1))
        y2 = transmit(s, b, 0.0, np.random.default_rng(99))
        assert np.array_equal(y1, y2)

    def test_noise_moments(self):
        s = generate_spreading(200, 50, np.random.default_rng(13))
        b = generate_block(make_symmetric_matrix(0.8), 50, 100, np.random.default_rng(14))
        sigma = 0.8
        noise = transmit(s, b, sigma, np.random.default_rng(15)) - transmit(s, b, 0.0, np.random.default_rng(0))
        n = noise.size
        assert abs(noise.mean()) < 4 * sigma / math.sqrt(n)
        # var of the sample variance of a gaussian is 2 sigma^4 / n
        assert abs(noise.var() - sigma**2) < 4 * math.sqrt(2 / n) * sigma**2

    def test_user_mismatch(self):
        s = generate_spreading(10, 4, np.random.default_rng(16))
        with pytest.raises(ValueError):
            transmit(s, np.ones((5, 2), dtype=np.int8), 0.1, np.random.default_rng(0))


class TestGramOnDemand:
    """Only the MUD step reads corr, so only the MUD detectors build it, and
    once per spreading matrix however often they run on it."""

    DETECTORS = {
        "plain_sumf": (lambda s, y, t: sumf_detect(s, y), 0),
        "correlated_sumf": (
            lambda s, y, t: correlated_sumf_detect(s, y, t, 0.6), 0),
        "plain_mud": (lambda s, y, t: mud_detect(s, y, 0.6), 1),
        "correlated_mud": (
            lambda s, y, t: correlated_mud_detect(s, y, t, 0.6), 1),
    }

    @pytest.mark.parametrize("variant", sorted(DETECTORS))
    def test_gram_builds(self, monkeypatch, variant):
        built = []
        gram = channel._gram

        def spy(float_chips):
            built.append(float_chips)
            return gram(float_chips)

        monkeypatch.setattr(channel, "_gram", spy)
        detect, expected = self.DETECTORS[variant]
        rng = np.random.default_rng(24)
        t = make_symmetric_matrix(0.7)
        for _ in range(2):  # each realization gets its own matrix
            b = generate_block(t, 20, 9, rng)
            s = generate_spreading(40, 20, rng)
            y = transmit(s, b, 0.6, rng)
            before = len(built)
            detect(s, y, t)
            detect(s, y, t)
            assert len(built) - before == expected
            assert all(f is s.float_chips for f in built[before:])
