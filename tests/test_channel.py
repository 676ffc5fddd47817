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
        assert not s.chips.flags.writeable
        assert s.chips.dtype == np.int8

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

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (7, 3), (13, 5),
                                      (60, 30), (250, 200), (1000, 800)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("advance", ["fresh", "random", "normal", "int8"])
    def test_chips_equal_bounded_int8_draw(self, n, k, seed, advance):
        # oracle: the per-byte bounded draw the chips were defined by; the
        # word draw must give the same chips and leave the generator where
        # the oracle leaves it, so every later draw of a run is unchanged.
        # PCG64 (numpy's default) gives its words as raw 64-bit outputs,
        # MT19937 and PCG64DXSM as 32-bit draws
        for bit_generator in (np.random.PCG64, np.random.MT19937,
                              np.random.PCG64DXSM):
            rngs = [np.random.Generator(bit_generator(seed))
                    for _ in range(2)]
            for rng in rngs:
                if advance == "random":
                    rng.random(3)
                elif advance == "normal":
                    rng.standard_normal(5)
                elif advance == "int8":
                    # ends mid-word, with half of a 64-bit output buffered
                    rng.integers(0, 2, size=3, dtype=np.int8)
            want = rngs[0].integers(0, 2, size=(n, k), dtype=np.int8) * 2 - 1
            got = generate_spreading(n, k, rngs[1]).chips
            assert got.dtype == np.int8 and got.shape == (n, k)
            assert not got.flags.writeable
            assert np.array_equal(got, want)
            old, new = rngs
            assert new.random() == old.random()
            assert new.standard_normal() == old.standard_normal()
            assert np.array_equal(
                new.integers(0, 2**32, size=3, dtype=np.uint32),
                old.integers(0, 2**32, size=3, dtype=np.uint32))
            assert new.integers(0, 2, dtype=np.int8) == old.integers(
                0, 2, dtype=np.int8)

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            SpreadingMatrix(np.array([[1, 0], [-1, 1]]))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_spreading(0, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_keeps_an_int8_copy(self, dtype):
        # the check reads the caller's array without writing to it, and
        # the matrix keeps its own read-only int8 copy
        given = np.array([[1, -1], [-1, -1], [1, 1]], dtype=dtype)
        was = given.copy()
        s = SpreadingMatrix(given)
        assert s.chips.dtype == np.int8 and not s.chips.flags.writeable
        assert np.array_equal(s.chips, was) and np.array_equal(given, was)
        assert not np.shares_memory(s.chips, given)

    def test_adopt_keeps_fresh_chips_after_the_same_checks(self):
        # generate_spreading's path: no copy, the same +-1 and shape checks
        chips = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        s = SpreadingMatrix._adopt(chips)
        assert s.chips is chips and not chips.flags.writeable
        for bad in (np.array([[1, 0]], dtype=np.int8),
                    np.ones(3, dtype=np.int8)):
            with pytest.raises(ValueError, match="chips must"):
                SpreadingMatrix._adopt(bad)


NON_UNIT = [pytest.param(value, dtype, id=f"{np.dtype(dtype).name}-{value}")
            for value, dtype in ((0, np.int8), (2, np.int8), (-128, np.int8),
                                 (127, np.int8), (1.5, np.float64),
                                 (np.nan, np.float64))]


@pytest.mark.parametrize("value,dtype", NON_UNIT)
def test_unit_checks_reject(value, dtype):
    # both +-1 checks, on the chips and on the block, refuse one stray
    # entry; in int8 |-128| wraps to -128
    chips = np.ones((4, 3), dtype=dtype)
    chips[2, 1] = value
    with pytest.raises(ValueError, match="chips must all be"):
        SpreadingMatrix(chips)
    s = generate_spreading(4, 3, np.random.default_rng(0))
    block = -np.ones((3, 2), dtype=dtype)
    block[1, 0] = value
    with pytest.raises(ValueError, match="symbols must all be"):
        transmit(s, block, 0.5, np.random.default_rng(0))


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
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma must be >= 0"):
                transmit(s, np.ones((5, 2), dtype=np.int8), sigma,
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
        # oracle: the exact integer product, which the float64 product of
        # the +-1 values equals; transmit takes neither path
        rng = np.random.default_rng(22)
        for n, k, l in ((1, 1, 1), (4, 3, 2), (37, 23, 11), (300, 200, 40),
                        (1000, 800, 100)):
            s = generate_spreading(n, k, rng)
            b = generate_block(make_symmetric_matrix(0.5), k, l, rng)
            y = transmit(s, b, 0.0, np.random.default_rng(0))
            want = (s.chips.astype(np.int64) @ b) / np.sqrt(n)
            as_float = (s.chips.astype(np.float64) @ b.astype(np.float64)) / np.sqrt(n)
            assert y.dtype == np.float64
            assert np.array_equal(y.view(np.int64), want.view(np.int64))
            assert np.array_equal(as_float.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("symbol", [0, 2, -128, 0.5, np.nan])
    def test_rejects_non_binary_symbols(self, symbol):
        # the exact float32 product holds for +-1 symbols only
        s = generate_spreading(8, 3, np.random.default_rng(0))
        b = np.ones((3, 2), dtype=np.int8 if symbol == -128 else np.float64)
        b[1, 1] = symbol
        with pytest.raises(ValueError, match="symbols must all be"):
            transmit(s, b, 0.5, np.random.default_rng(0))

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

        def spy(chips):
            built.append(chips)
            return gram(chips)

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
            assert all(c is s.chips for c in built[before:])
