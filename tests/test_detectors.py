import math
import warnings

import numpy as np
import pytest

from corrcdma import detectors
from corrcdma.channel import SpreadingMatrix, generate_spreading, transmit
from corrcdma.detectors import (
    DetectionResult,
    DetectorDivergence,
    DetectorOptions,
    SCHEDULES,
    correlated_mud_detect,
    correlated_sumf_detect,
    hard_decisions,
    local_bias,
    mud_detect,
    sumf,
    sumf_decisions,
    sumf_detect,
)
from corrcdma.markov import (
    TransitionMatrix,
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
)


def make_instance(seed, spread, users, word_len, sigma, lam=0.0):
    rng = np.random.default_rng(seed)
    t = make_symmetric_matrix(lam)
    block = generate_block(t, users, word_len, rng)
    s = generate_spreading(spread, users, rng)
    y = transmit(s, block, sigma, rng)
    return t, block, s, y


def single_user_fields(fields):
    """One user with all-plus chips over N = 4 and received samples whose
    matched-filter field is the given per-position values."""
    s = SpreadingMatrix(np.ones((4, 1), dtype=np.int8))
    y = np.tile(np.asarray(fields, dtype=float) / 2.0, (4, 1))
    return s, y


def scalar_reference_steps(h0, corr, load, sigma, n_steps):
    """Literal scalar transcription of the iterative update, used as an
    independent oracle against the vectorized implementation."""
    n = h0.shape[0]
    eta = np.tanh(np.asarray(h0, dtype=float))
    u_prev = np.zeros(n)
    r_prev = 0.0
    out = []
    for _ in range(n_steps):
        q = sum(eta[k] ** 2 for k in range(n)) / n
        a = 1.0 / (sigma**2 + load * (1.0 - q))
        u = np.empty(n)
        h_next = np.empty(n)
        r = a + a * load * (1.0 - q) * r_prev
        for k in range(n):
            u[k] = a * sum(corr[k, j] * eta[j] for j in range(n)) \
                + a * load * (1.0 - q) * u_prev[k]
        for k in range(n):
            h_next[k] = r * h0[k] - u[k] + a * eta[k]
        eta = np.tanh(h_next)
        out.append((h_next.copy(), eta.copy(), q, a, r, u.copy()))
        u_prev, r_prev = u, r
    return out


class TestHardDecisions:
    def test_tie_is_plus_one(self):
        # NaN compares false, so it maps to -1
        np.testing.assert_array_equal(
            hard_decisions(np.array([-0.5, 0.0, 0.5, -0.0, np.nan])),
            [-1, 1, 1, 1, -1])

    def test_dtype(self):
        bits = hard_decisions(np.zeros((3, 4)))
        assert bits.dtype == np.int8 and bits.flags.c_contiguous


class TestSumf:
    def test_single_user_noiseless_unit_field(self):
        rng = np.random.default_rng(0)
        s = generate_spreading(16, 1, rng)
        y = transmit(s, np.ones((1, 3), dtype=np.int8), 0.0, rng)
        field = sumf(s, y)
        assert np.all(field == 1.0)

    def test_decomposition_oracle(self):
        # noiseless field = own symbol + correlation-weighted interference
        t, block, s, y = make_instance(1, 32, 7, 5, 0.0)
        field = sumf(s, y)
        for k in range(7):
            for l in range(5):
                ref = block[k, l] + sum(
                    s.corr[k, j] * block[j, l] for j in range(7) if j != k)
                assert abs(field[k, l] - ref) < 1e-12

    def test_returns_the_field_array(self):
        _, _, s, y = make_instance(2, 64, 12, 8, 0.8)
        field = sumf(s, y)
        assert isinstance(field, np.ndarray)
        assert field.shape == (12, 8) and field.dtype == np.float64
        assert np.array_equal(sumf_detect(s, y).field, field)

    def test_shape_mismatch(self):
        _, _, s, _ = make_instance(3, 16, 4, 3, 0.5)
        with pytest.raises(ValueError):
            sumf(s, np.zeros((8, 3)))


class TestSumfDecisions:
    """sumf_decisions against its reference, hard_decisions(sumf(...)),
    with a spy on the float64 sumf telling whether the fallback ran."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        real = detectors.sumf
        monkeypatch.setattr(detectors, "sumf", lambda s, y: (
            calls.append(y.shape) or real(s, y)))
        return calls

    @staticmethod
    def decide(s, y):
        """The decisions and their reference, no warning allowed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sumf_decisions(s, y)
        want = hard_decisions(sumf(s, y))
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("seed", range(3))
    def test_c7_size_is_certified_in_float32(self, fallbacks, seed):
        # N 1000, K 800, L 100, sigma 0.8: a few dozen ties, all settled
        # by the float64 recheck
        self.decide(*make_instance(seed, 1000, 800, 100, 0.8)[2:])
        assert not fallbacks

    def test_zero_received_column_falls_back(self, fallbacks):
        _, _, s, y = make_instance(4, 32, 20, 5, 0.8)
        y[:, 2] = 0.0  # its field is zero: +1 for every user
        got = self.decide(s, y)
        assert fallbacks
        assert np.all(got[:, 2] == 1)

    def test_exactly_zero_field_falls_back(self, fallbacks):
        # sigma 0, N 4: some users' fields are exactly 0, ties that no
        # float64 recheck can settle
        _, _, s, y = make_instance(0, 4, 8, 1, 0.0)
        zeros = np.count_nonzero(sumf(s, y) == 0)
        assert 1 <= zeros <= s.n_users // 2  # so the recheck runs
        self.decide(s, y)
        assert fallbacks

    def test_value_beyond_float32_range_falls_back(self, fallbacks):
        # casting it to float32 would overflow (and warn)
        _, _, s, y = make_instance(5, 16, 6, 3, 0.8)
        y[3, 1] = -1e39
        self.decide(s, y)
        assert fallbacks

    def test_recheck_settles_a_float32_tie(self, fallbacks):
        # user 0 sums y = (1 + 0.6 ulp, -1 - 0.45 ulp, -0.3 ulp), ulp =
        # 2^-23: exactly -0.15 ulp, but float32 rounds the first two to 1 +
        # 1 ulp and -1, so its sum is +0.7 ulp, of the wrong sign and inside
        # the float32 bound (about 9 * 2^-24 * 3), far outside the float64
        # one (about 2^-53 * 6)
        ulp = 2.0**-23
        s = SpreadingMatrix(np.array([[1, 1], [1, -1], [1, 1]]))
        y = np.array([[1 + 0.6 * ulp], [-1 - 0.45 * ulp], [-0.3 * ulp]])
        float32 = s.chips.astype(np.float32).T @ y.astype(np.float32)
        assert float32[0, 0] > 0
        got = self.decide(s, y)
        assert not fallbacks
        assert got.tolist() == [[-1], [1]]

    def test_shape_mismatch(self):
        _, _, s, _ = make_instance(3, 16, 4, 3, 0.5)
        with pytest.raises(ValueError):
            sumf_decisions(s, np.zeros((8, 3)))


class TestLocalBias:
    # local_bias takes the (K, L) soft values of the block: a neighbor
    # certainly -1 or +1 has soft value -1 or +1, an uninformed one 0

    def test_iid_matrix_zero(self):
        rng = np.random.default_rng(4)
        soft = rng.uniform(-1.0, 1.0, (6, 9))
        for l in range(9):
            assert np.all(local_bias(soft, iid_matrix(), l) == 0.0)

    def test_hand_value_certain_neighbors(self):
        # lambda2 = 0.8, both neighbors certainly +1:
        # p(+1) = 0.9 * 0.9, p(-1) = 0.1 * 0.1, m = 2*81/82 - 1
        m = local_bias(np.ones((1, 3)), make_symmetric_matrix(0.8), 1)
        assert abs(m[0] - (2.0 * 0.81 / 0.82 - 1.0)) < 1e-12
        assert abs(m[0] - 0.97561) < 5e-6

    def test_uniform_neighbors_symmetric_zero(self):
        m = local_bias(np.zeros((3, 5)), make_symmetric_matrix(0.8), 2)
        assert np.all(np.abs(m) < 1e-12)

    def test_enumeration_oracle(self):
        # exact conditional mean of the middle of a 3-chain:
        # P(b | prev, next) prop. to T[prev, b] * T[b, next]
        rng = np.random.default_rng(5)
        idx = {-1: 0, 1: 1}
        for _ in range(20):
            a, b = rng.uniform(0.05, 0.95, 2)
            t = TransitionMatrix([[a, 1 - a], [1 - b, b]])
            for prev in (-1, 1):
                for nxt in (-1, 1):
                    soft = np.array([[prev, 0.0, nxt]])
                    w_plus = t.matrix[idx[prev], 1] * t.matrix[1, idx[nxt]]
                    w_minus = t.matrix[idx[prev], 0] * t.matrix[0, idx[nxt]]
                    exact = (w_plus - w_minus) / (w_plus + w_minus)
                    m = local_bias(soft, t, 1)[0]
                    assert abs(m - exact) < 1e-12

    def test_matches_belief_pair_formula(self):
        # the closed form against the belief-pair chain
        # p(b) = [sum_a q_prev(a) T_ab] * [sum_c T_bc q_next(c)]
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.uniform(0.05, 0.95, 2)
            t = TransitionMatrix([[a, 1 - a], [1 - b, b]])
            soft = rng.uniform(-1.0, 1.0, (5, 4))
            probs = np.stack(((1.0 - soft) / 2.0, (1.0 + soft) / 2.0), axis=-1)
            for l in (1, 2):
                p = (probs[:, l - 1] @ t.matrix) * (probs[:, l + 1] @ t.matrix.T)
                expected = (p[:, 1] - p[:, 0]) / p.sum(axis=1)
                np.testing.assert_allclose(local_bias(soft, t, l), expected,
                                           rtol=0, atol=1e-14)

    def test_boundary_uses_stationary(self):
        t = TransitionMatrix([[0.9, 0.1], [0.2, 0.8]])
        mu = t.stationary()
        soft = np.zeros((2, 4))
        soft[:, 1] = 0.4  # beliefs (0.3, 0.7)
        m_edge = local_bias(soft, t, 0)
        left = mu @ t.matrix
        right = np.array([0.3, 0.7]) @ t.matrix.T
        p = left * right
        expected = 2.0 * p[1] / p.sum() - 1.0
        np.testing.assert_allclose(m_edge, expected, atol=1e-12)
        m_last = local_bias(soft[:, ::-1], t, 3)
        p = (np.array([0.3, 0.7]) @ t.matrix) * (t.matrix @ mu)
        np.testing.assert_allclose(m_last, 2.0 * p[1] / p.sum() - 1.0,
                                   atol=1e-12)

    def test_degenerate_matrix_raises(self):
        # prev certainly -1, next certainly +1
        soft = np.array([[-1.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="neighbours impossible under "
                           "the assumed transition matrix"):
            local_bias(soft, make_symmetric_matrix(1.0), 1)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            local_bias(np.zeros((1, 3)), iid_matrix(), 3)
        with pytest.raises(ValueError):
            local_bias(np.zeros((1, 3, 2)), iid_matrix(), 1)
        # a bool would run column 0 or 1, a float fail inside numpy: both
        # are refused by name, as the run layer refuses them
        for position in (True, 1.0):
            with pytest.raises(ValueError, match="position must be an integer"):
                local_bias(np.zeros((1, 3)), iid_matrix(), position)
        assert local_bias(np.zeros((1, 3)), iid_matrix(), np.int64(1)) == 0.0


class TestBiasedDecision:
    # correlated SUMF decisions sign(field + (load + sigma^2) * atanh(m));
    # one user over N = 4 chips gives load 0.25, so with sigma = 0.8 the
    # correction scale is 0.89. Both neighbors certainly +1 at
    # lambda2 = 0.8 give m = 2*81/82 - 1.
    CORRECTION = (0.25 + 0.64) * math.atanh(2.0 * 0.81 / 0.82 - 1.0)

    def test_zero_bias_is_plain_sign(self):
        s, y = single_user_fields([-0.3, 0.2, 0.0])
        res = correlated_sumf_detect(s, y, iid_matrix(), 0.8)
        np.testing.assert_array_equal(res.bits, [[-1, 1, 1]])

    def test_strong_bias_overrides_weak_field(self):
        # correction 0.89 * atanh(0.97561) = 0.89 * 2.1972 = 1.956
        assert abs(self.CORRECTION - 1.956) < 1e-3
        s, y = single_user_fields([50.0, -0.1, 50.0])
        res = correlated_sumf_detect(s, y, make_symmetric_matrix(0.8), 0.8)
        assert res.bits[0, 1] == 1
        assert abs(res.field[0, 1] - (-0.1 + self.CORRECTION)) < 1e-12

    def test_weak_bias_keeps_strong_field(self):
        s, y = single_user_fields([50.0, -5.0, 50.0])
        res = correlated_sumf_detect(s, y, make_symmetric_matrix(0.8), 0.8)
        assert res.bits[0, 1] == -1
        assert abs(res.field[0, 1] - (-5.0 + self.CORRECTION)) < 1e-12

    def test_saturated_bias_clamped_finite(self):
        # frozen source and certain neighbors drive |m| to 1: the clamp keeps
        # the correction finite, so the strong field still decides
        s, y = single_user_fields([50.0, -50.0, 50.0])
        res = correlated_sumf_detect(s, y, make_symmetric_matrix(1.0), 0.8)
        assert np.all(np.isfinite(res.field))
        np.testing.assert_array_equal(res.bits, [[1, -1, 1]])

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_matrix_below_the_floor_keeps_the_clamp(self, schedule):
        # entries of 1e-13 put the neighbour products below CLAMP_FLOOR, so
        # the sweep clamps: certain neighbours round m to exactly 1, and the
        # middle column's correction is the clamped one, not atanh(1) = inf
        t = TransitionMatrix([[1 - 1e-13, 1e-13], [1e-13, 1 - 1e-13]])
        assert detectors._clamp_needed(detectors._neighbour_model(t))
        s, y = single_user_fields([50.0, -0.1, 50.0])
        res = correlated_sumf_detect(s, y, t, 0.8, schedule_opts(schedule))
        correction = 0.89 * math.atanh(1.0 - detectors.CLAMP_EPS)
        assert abs(res.field[0, 1] - (-0.1 + correction)) < 1e-12
        np.testing.assert_array_equal(res.bits, [[1, 1, 1]])

    def test_clamp_floor(self):
        # the clamp is skipped exactly where both neighbours' terms are at
        # least f and f_left f_right reaches CLAMP_FLOOR = 2^-30: the floor
        # of a model is the least entry of its matrix's columns (left) and
        # rows (right); the frozen chain and a 2^-16 entry keep the clamp
        def needed(*matrices):
            return detectors._clamp_needed(np.stack(
                [detectors._neighbour_model(t) for t in matrices], axis=1))

        edge = 2.0**-15
        assert not needed(make_symmetric_matrix(0.8))
        assert not needed(TransitionMatrix([[1 - edge, edge], [edge, 1 - edge]]))
        assert not needed(TransitionMatrix([[0.9, 0.1], [0.3, 0.7]]),
                          make_symmetric_matrix(-0.6), iid_matrix())
        for low in (make_symmetric_matrix(1.0), make_symmetric_matrix(-1.0),
                    TransitionMatrix([[1 - edge / 2, edge / 2], [0.5, 0.5]])):
            assert needed(low)
            assert needed(make_symmetric_matrix(0.8), low)
        model = detectors._neighbour_model(make_symmetric_matrix(0.8))
        model[0, 0] = np.nan
        assert detectors._clamp_needed(model)


class TestMudStep:
    # the synchronous update, checked through mud_detect against hand
    # arithmetic and the scalar transcription above

    def test_zero_soft_substitution(self):
        # zero matched field: soft power 0, precision 1 / (sigma^2 + load)
        s = generate_spreading(8, 4, np.random.default_rng(0))
        res = mud_detect(s, np.zeros((8, 1)), 0.8,
                         DetectorOptions(max_iters=1, track_bounds=True))
        q_lo, q_hi, a_lo, a_hi, _ = res.bounds[0]
        assert q_lo == q_hi == 0.0
        assert abs(a_lo - 1.0 / (0.64 + 0.5)) < 1e-15
        assert abs(a_hi - 1.0 / (0.64 + 0.5)) < 1e-15

    def test_two_hand_steps_single_user(self):
        # explicit arithmetic for K=1, corr [[1]], sigma 0.8, load 0.5, h0 = 1
        sigma, load = 0.8, 0.5
        eta0 = math.tanh(1.0)
        q0 = eta0**2
        a0 = 1.0 / (sigma**2 + load * (1 - q0))
        u0 = a0 * eta0
        r0 = a0
        h1 = r0 * 1.0 - u0 + a0 * eta0
        eta1 = math.tanh(h1)
        q1 = eta1**2
        a1 = 1.0 / (sigma**2 + load * (1 - q1))
        u1 = a1 * eta1 + a1 * load * (1 - q1) * u0
        r1 = a1 + a1 * load * (1 - q1) * r0
        h2 = r1 * 1.0 - u1 + a1 * eta1

        (h_1, _, _, _, r_0, _), (h_2, _, _, _, _, u_1) = scalar_reference_steps(
            np.array([1.0]), np.array([[1.0]]), load, sigma, 2)
        assert abs(h_1[0] - h1) < 1e-14
        assert abs(r_0 - r0) < 1e-14
        assert abs(h_2[0] - h2) < 1e-14
        assert abs(u_1[0] - u1) < 1e-14

        # the engine's first step on the same numbers (N = 2, one user)
        s = SpreadingMatrix(np.ones((2, 1), dtype=np.int8))
        y = np.full((2, 1), 1.0 / math.sqrt(2.0))
        res = mud_detect(s, y, sigma, DetectorOptions(max_iters=1))
        assert abs(res.field[0, 0] - h1) < 1e-14

    def test_matches_scalar_transcription(self):
        # per-iteration soft power and precision, final field and soft
        # decisions of single-column runs against the scalar oracle
        deepest = 0
        for seed in range(10):
            _, _, s, y = make_instance(20 + seed, 20, 16, 1, 0.7)
            h0 = sumf(s, y)[:, 0]
            res = mud_detect(s, y, 0.7, DetectorOptions(track_bounds=True))
            steps = int(res.iters[0])
            deepest = max(deepest, steps)
            ref = scalar_reference_steps(h0, s.corr, 16 / 20, 0.7, steps)
            for (q_lo, q_hi, a_lo, a_hi, _), step in zip(res.bounds, ref):
                assert q_lo == q_hi and a_lo == a_hi
                assert abs(q_lo - step[2]) < 1e-13
                assert abs(a_lo - step[3]) < 1e-13
            h_ref, eta_ref = ref[-1][:2]
            np.testing.assert_allclose(res.field[:, 0], h_ref,
                                       rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(np.tanh(res.field[:, 0]), eta_ref,
                                       rtol=1e-12, atol=1e-13)
        assert deepest >= 3

    def test_divergence_raises(self):
        # an infinite received sample makes the first update non-finite
        s = generate_spreading(4, 2, np.random.default_rng(0))
        y = np.zeros((4, 1))
        y[0, 0] = np.inf
        with pytest.raises(DetectorDivergence) as err:
            mud_detect(s, y, 0.5)
        assert err.value.iteration == 0

    def test_requires_positive_sigma(self):
        _, _, s, y = make_instance(21, 20, 5, 4, 0.5)
        with pytest.raises(ValueError):
            mud_detect(s, y, 0.0)

    @staticmethod
    def _check_soft_power(word_len, n_rows, slots):
        users = 64
        for seed in range(20):
            _, _, s, _ = make_instance(1100 + seed, 80, users, 2, 0.7)
            rng = np.random.default_rng(1120 + seed)
            soft, matched, field, interference, xi = (
                rng.standard_normal((word_len, users)) for _ in range(5))
            np.tanh(field + xi, out=soft)
            gain = rng.random(word_len)
            rows = np.sort(rng.choice(word_len, n_rows, replace=False))
            expected = []
            for row in soft[rows]:
                total = 0.0
                for value in row:
                    total += value * value
                expected.append(total / users)
            ends = [n_rows * (b + 1) // slots for b in range(slots)]
            q_pow, _, _ = detectors._mud_step(
                rows, ends, [s.corr] * slots, soft, matched, field,
                interference, gain, xi, 0.8, 0.7,
                np.empty((3, word_len, users)),
                np.empty((word_len, users), dtype=bool))
            assert q_pow.tolist() == expected

    @pytest.mark.parametrize("n_rows", [1, 2, 5])
    def test_soft_power_sums_users_in_index_order(self, n_rows):
        # the soft power of every gathered row is the sequential sum of its
        # users' squared soft values in index order, bit for bit, for one
        # row, two and several (a pairwise reduction differs in the last
        # bits)
        self._check_soft_power(6, n_rows, 1)

    @pytest.mark.parametrize("word_len,n_rows,slots", [(1, 1, 1), (6, 5, 2)],
                             ids=["one_column_word", "two_slots"])
    def test_soft_power_index_order_edge_shapes(self, word_len, n_rows,
                                                slots):
        # the same in-order sum for a one-row step of a one-column word,
        # which has only 3 K floats of scratch, and over two slots
        self._check_soft_power(word_len, n_rows, slots)


class TestMudDetect:
    def test_easy_point_error_free(self):
        bad = 0
        for seed in range(40):
            _, block, s, y = make_instance(100 + seed, 200, 40, 4, 0.05)
            res = mud_detect(s, y, 0.05)
            bad += int(np.any(res.bits != block))
        assert bad <= 1  # >= 99% of trials decode perfectly at this easy point

    def test_matches_per_column_steps(self):
        # engine processes columns in lockstep; must agree with the scalar
        # oracle iterated column by column under the same stop rule
        _, _, s, y = make_instance(7, 40, 8, 6, 0.6)
        res = mud_detect(s, y, 0.6, DetectorOptions(max_iters=50))
        h0 = sumf(s, y)
        load = 8 / 40
        for l in range(6):
            ref = scalar_reference_steps(h0[:, l], s.corr, load, 0.6, 50)
            prev = hard_decisions(np.tanh(h0[:, l]))
            for steps, (h_ref, eta_ref, *_) in enumerate(ref, start=1):
                dec = hard_decisions(eta_ref)
                if np.array_equal(dec, prev):
                    break
                prev = dec
            assert steps == res.iters[l]
            np.testing.assert_array_equal(dec, res.bits[:, l])
            np.testing.assert_allclose(h_ref, res.field[:, l],
                                       rtol=1e-10, atol=1e-12)

    def test_fixed_point_stable_one_extra_step(self):
        _, _, s, y = make_instance(8, 60, 12, 1, 0.5)
        h0 = sumf(s, y)[:, 0]
        res = mud_detect(s, y, 0.5)
        assert res.converged[0]
        steps = int(res.iters[0])
        ref = scalar_reference_steps(h0, s.corr, 0.2, 0.5, steps + 1)
        extra = hard_decisions(ref[steps][1])
        np.testing.assert_array_equal(extra, res.bits[:, 0])

    def test_iteration_reporting(self):
        _, _, s, y = make_instance(9, 80, 30, 10, 0.8)
        res = mud_detect(s, y, 0.8)
        assert res.iters.shape == (10,)
        assert np.all(res.iters >= 1)
        assert np.all(res.iters <= 50)
        assert res.converged.shape == (10,)

    def test_nonconvergence_flagged_not_raised(self):
        _, _, s, y = make_instance(10, 20, 16, 8, 0.8)
        res = mud_detect(s, y, 0.8, DetectorOptions(max_iters=1))
        assert res.bits.shape == (16, 8)
        assert np.all(res.iters == 1)

    def test_deterministic(self):
        _, _, s, y = make_instance(11, 50, 20, 5, 0.8)
        a = mud_detect(s, y, 0.8)
        b = mud_detect(s, y, 0.8)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.iters, b.iters)

    def test_bounds_invariants(self):
        # soft in [-1, 1], soft power in [0, 1], precision positive, always
        for seed in range(25):
            _, _, s, y = make_instance(200 + seed, 40, 24, 6, 0.6)
            res = mud_detect(s, y, 0.6, DetectorOptions(track_bounds=True))
            for q_lo, q_hi, a_lo, a_hi, eta_max in res.bounds:
                assert 0.0 <= q_lo <= q_hi <= 1.0
                assert 0.0 < a_lo <= a_hi
                assert eta_max <= 1.0

    def test_sign_equivariance_chips_and_samples(self):
        from corrcdma.channel import SpreadingMatrix
        _, _, s, y = make_instance(12, 40, 10, 4, 0.7)
        res = mud_detect(s, y, 0.7)
        flipped = mud_detect(SpreadingMatrix(-s.chips), -y, 0.7)
        np.testing.assert_array_equal(res.bits, flipped.bits)

    def test_sign_equivariance_source(self):
        _, _, s, y = make_instance(13, 40, 10, 4, 0.7)
        res = mud_detect(s, y, 0.7)
        flipped = mud_detect(s, -y, 0.7)
        np.testing.assert_array_equal(res.bits, -flipped.bits)


# (spread factor, users, word length): the C1 size and the edge shapes the
# column sweeps special-case (a one- or two-column word, a single user)
REDUCTION_SHAPES = [(50, 35, 12), (40, 20, 1), (40, 20, 2), (16, 1, 9)]


def schedule_opts(schedule, **kwargs):
    rng = np.random.default_rng(3) if schedule == "RSUS" else None
    return DetectorOptions(schedule=schedule, schedule_rng=rng, **kwargs)


def assert_same_detection(a, b):
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.field, b.field)
    assert np.array_equal(a.iters, b.iters)
    assert np.array_equal(a.converged, b.converged)


def reduction_instances(first_seed):
    for shape in REDUCTION_SHAPES:
        for seed in range(10 if shape == REDUCTION_SHAPES[0] else 4):
            yield make_instance(first_seed + seed, *shape, 0.8, lam=0.8)


class TestCorrelatedReduction:
    def test_mud_bit_identical_with_memoryless_matrix(self):
        for _, _, s, y in reduction_instances(300):
            plain = mud_detect(s, y, 0.8)
            for schedule in SCHEDULES:
                corr = correlated_mud_detect(s, y, iid_matrix(), 0.8,
                                             schedule_opts(schedule))
                assert_same_detection(plain, corr)

    def test_blind_first_iteration_is_memoryless(self):
        # blind mode starts from the memoryless matrix, so its first outer
        # iteration is the plain one, whatever matrix is passed in
        for _, _, s, y in reduction_instances(350):
            plain = mud_detect(s, y, 0.8, DetectorOptions(max_iters=1))
            for schedule in SCHEDULES:
                corr = correlated_mud_detect(
                    s, y, make_symmetric_matrix(0.8), 0.8,
                    schedule_opts(schedule, blind=True, max_iters=1))
                assert_same_detection(plain, corr)
                assert corr.estimated_matrix == iid_matrix()

    def test_sumf_identical_with_memoryless_matrix(self):
        # one sweep leaves every correction zero and so every decision as it
        # was: each column counts one iteration and converges on the
        # matched-filter decisions
        for _, _, s, y in reduction_instances(400):
            plain = sumf_detect(s, y)
            for schedule in SCHEDULES:
                for blind in (False, True):
                    corr = correlated_sumf_detect(
                        s, y, iid_matrix(), 0.8,
                        schedule_opts(schedule, blind=blind))
                    assert np.array_equal(plain.bits, corr.bits)
                    assert np.array_equal(plain.field, corr.field)
                    assert np.array_equal(plain.converged, corr.converged)
                    assert np.all(corr.iters == 1)


@pytest.mark.parametrize("variant, schedule, blind", [
    pytest.param(variant, schedule, blind,
                 id="-".join([variant, schedule] + ["blind"] * blind))
    for variant in ("plain_mud", "correlated_mud", "plain_sumf",
                    "correlated_sumf")
    for schedule in (SCHEDULES if variant.startswith("correlated_")
                     else ("SUS",))
    for blind in ((False, True) if variant == "correlated_mud" else (False,))])
def test_bits_are_the_decisions_of_the_soft_values(variant, schedule, blind):
    # a result stores only its field, and its bits are the field's signs:
    # those of the soft values tanh(field) the engine's stop rule reads, in
    # lone runs and in one group (the plain matched filter has no engine
    # run, so no group)
    matrix = make_symmetric_matrix(0.8)
    detect = {
        "plain_mud": lambda s, y, opts: mud_detect(s, y, 0.8, opts),
        "correlated_mud": lambda s, y, opts: correlated_mud_detect(
            s, y, matrix, 0.8, opts),
        "plain_sumf": lambda s, y, opts: sumf_detect(s, y),
        "correlated_sumf": lambda s, y, opts: correlated_sumf_detect(
            s, y, matrix, 0.8, opts),
    }[variant]
    fields, corrs, results = [], [], []
    for seed in range(3):
        _, _, s, y = make_instance(1800 + seed, 40, 32, 15, 0.8, lam=0.8)
        fields.append(sumf(s, y))
        corrs.append(s.corr)
        results.append(detect(s, y, schedule_opts(schedule, blind=blind)))
    if variant != "plain_sumf":
        results += detectors._run_engine(
            fields, corrs, 32 / 40, 0.8,
            DetectorOptions(schedule=schedule, blind=blind),
            None if variant == "plain_mud" else [matrix] * 3,
            variant.endswith("_mud"),
            [np.random.default_rng(1810 + b) for b in range(3)])
    assert "bits" not in DetectionResult.__dataclass_fields__
    assert len(results) == (3 if variant == "plain_sumf" else 6)
    for result in results:
        assert np.array_equal(result.bits,
                              hard_decisions(np.tanh(result.field)))


class TestFreezeAndCap:
    # A column steps in an outer iteration exactly when its hard decisions
    # changed in the previous one: the MUD step skips the others, so their
    # committed state stays as it was, and a column whose decisions the
    # sweep alone flips steps again. iters counts the steps a column took.

    DETECTORS = [("plain", None)] + [("mud", sch) for sch in SCHEDULES] \
        + [("sumf", sch) for sch in SCHEDULES]

    @staticmethod
    def run(kind, schedule, s, y, max_iters):
        t = make_symmetric_matrix(0.8)
        if kind == "plain":
            return mud_detect(s, y, 0.8, DetectorOptions(max_iters=max_iters))
        opts = schedule_opts(schedule, max_iters=max_iters)
        if kind == "mud":
            return correlated_mud_detect(s, y, t, 0.8, opts)
        return correlated_sumf_detect(s, y, t, 0.8, opts)

    @pytest.mark.parametrize("kind,schedule", DETECTORS)
    def test_flags_at_caps_one_and_two(self, kind, schedule):
        for seed in range(3):
            _, _, s, y = make_instance(1100 + seed, 40, 32, 15, 0.8, lam=0.8)
            first = self.run(kind, schedule, s, y, 1)
            second = self.run(kind, schedule, s, y, 2)
            start = hard_decisions(sumf(s, y))
            assert first.outer_iterations == 1
            assert np.all(first.iters == 1)
            # a column is converged exactly when its last two decision
            # vectors agree
            np.testing.assert_array_equal(
                first.converged, np.all(first.bits == start, axis=0))
            if second.outer_iterations == 1:
                assert np.all(first.converged)
                continue
            np.testing.assert_array_equal(
                second.converged, np.all(second.bits == first.bits, axis=0))
            np.testing.assert_array_equal(second.iters, 1 + ~first.converged)

    def test_plain_frozen_columns_keep_their_field(self):
        # plain MUD has no correction, so a column frozen after iteration n
        # keeps its field bitwise for the rest of the run
        for seed in range(3):
            _, _, s, y = make_instance(1200 + seed, 40, 32, 15, 0.8)
            full = mud_detect(s, y, 0.8)
            runs = [mud_detect(s, y, 0.8, DetectorOptions(max_iters=n))
                    for n in range(1, full.outer_iterations + 1)]
            assert runs[-1].outer_iterations == full.outer_iterations
            assert_same_detection(runs[-1], full)
            for now, after in zip(runs, runs[1:]):
                frozen = now.converged
                np.testing.assert_array_equal(after.iters,
                                              now.iters + ~frozen)
                assert np.all(after.converged[frozen])
                assert np.array_equal(after.field[:, frozen],
                                      now.field[:, frozen])

    @pytest.mark.parametrize("kind,schedule", [("plain", "SUS")] + [
        (kind, schedule) for kind in ("mud", "blind")
        for schedule in SCHEDULES])
    def test_a_column_steps_exactly_when_its_decisions_changed(
            self, kind, schedule, monkeypatch):
        # spy on every MUD step, in lone runs and in one engine call on a
        # group of three: at every step t >= 1 the columns a realization
        # steps are exactly those whose decisions (the signs of the soft
        # values the step reads) differ from those step t - 1 read; a step
        # leaves the field, interference and gain of every other row
        # bitwise as they were; iters counts each column's steps; and a
        # position is converged exactly when its final decisions repeat the
        # last step's. With a correction, some column steps again after an
        # iteration without a step, its decisions flipped by the sweep alone
        word_len = 15
        matrix = None if kind == "plain" else [make_symmetric_matrix(0.8)]
        opts = DetectorOptions(schedule=schedule, blind=kind == "blind")
        fields, corrs = [], []
        for seed in range(3):
            _, _, s, y = make_instance(1300 + seed, 40, 32, word_len, 0.8,
                                       lam=0.8)
            fields.append(sumf(s, y))
            corrs.append(s.corr)
        trial_of = {id(c): b for b, c in enumerate(corrs)}
        steps = [[] for _ in corrs]  # per trial: (columns, decisions)
        real_step = detectors._mud_step

        def step(rows, ends, step_corrs, soft, matched, field, interference,
                 gain, *rest):
            width = len(soft) // word_len
            decisions = soft.reshape(word_len, width, -1) >= 0.0
            before = (field.copy(), interference.copy(), gain.copy())
            out = real_step(rows, ends, step_corrs, soft, matched, field,
                            interference, gain, *rest)
            skipped = np.ones(len(field), dtype=bool)
            skipped[rows] = False
            for old, new in zip(before, (field, interference, gain)):
                assert np.array_equal(old[skipped], new[skipped])
            for slot, (start, end, corr) in enumerate(
                    zip([0, *ends], ends, step_corrs)):
                assert np.all(rows[start:end] % width == slot)
                steps[trial_of[id(corr)]].append(
                    (rows[start:end] // width, decisions[:, slot]))
            return out

        monkeypatch.setattr(detectors, "_mud_step", step)
        rngs = [np.random.default_rng(1310 + b) for b in range(6)]
        runs = [([b], lambda b=b: detectors._run_engine(
            [fields[b]], [corrs[b]], 0.8, 0.8, opts, matrix,
            rngs=rngs[b:b + 1])) for b in range(3)]
        runs.append(([0, 1, 2], lambda: detectors._run_engine(
            fields, corrs, 0.8, 0.8, opts, matrix and matrix * 3,
            rngs=rngs[3:])))
        resumed = 0
        for trials, run in runs:
            for record in steps:
                record.clear()
            for b, res in zip(trials, run()):
                record = steps[b]
                assert len(record) == res.outer_iterations
                taken = np.zeros(word_len, dtype=np.int64)
                for t, (cols, decisions) in enumerate(record):
                    taken[cols] += 1
                    if t == 0:
                        assert np.array_equal(cols, np.arange(word_len))
                        continue
                    was, before = record[t - 1]
                    np.testing.assert_array_equal(cols, np.flatnonzero(
                        np.any(decisions != before, axis=1)))
                    resumed += np.setdiff1d(cols, was).size
                np.testing.assert_array_equal(res.iters, taken)
                np.testing.assert_array_equal(res.converged, np.all(
                    (res.field >= 0.0).T == record[-1][1], axis=1))
        assert (resumed > 0) == (kind != "plain")


def poisoning_step(target, iteration):
    """A _mud_step that first writes a NaN into the first active row of the
    slot whose correlation matrix is target, in the step of that outer
    iteration (the engine steps once per iteration), so that slot diverges
    there."""
    real_step, calls = detectors._mud_step, []

    def step(rows, ends, corrs, soft, *rest):
        if len(calls) == iteration:
            for start, corr in zip([0, *ends], corrs):
                if corr is target:
                    soft[rows[start], 0] = np.nan
        calls.append(None)
        return real_step(rows, ends, corrs, soft, *rest)

    return step


class TestLockstep:
    # the engine runs a group of realizations side by side in one set of
    # arrays (the property tests check groups against lone runs)

    @pytest.mark.parametrize("schedule,forward", [
        ("SUS", True), ("BFUS", True), ("BFUS", False), ("RSUS", True),
        ("PUS", True)])
    @pytest.mark.parametrize("scale", [1.0, 1.39])
    def test_ordered_sweep_leaves_tanh_of_field(self, schedule, forward,
                                                scale):
        # every soft row an ordered sweep leaves, and every row after PUS,
        # is tanh(field + xi) bit for bit, so the engine does not recompute
        # it after the sweep; BFUS sweeps forward at even iterations
        model = detectors._neighbour_model(
            TransitionMatrix([[0.9, 0.1], [0.3, 0.7]]))
        trials = 1 if schedule == "RSUS" else 3
        for seed in range(5):
            rng = np.random.default_rng(1500 + seed)
            field = 2.0 * rng.standard_normal((12, trials, 10))
            xi = rng.standard_normal((12, trials, 10))
            padded = np.zeros((14, trials, 10))
            padded[1:-1] = np.tanh(field + xi)
            detectors._bias_sweep(padded, field, xi, model, schedule,
                                  0 if forward else 1, rng, scale,
                                  np.empty(4 * padded.size),
                                  detectors._clamp_needed(model))
            assert np.array_equal(padded[1:-1], np.tanh(field + xi))

    def test_mud_step_commits_only_its_rows(self):
        # a group step on some columns of one slot, the other slots having
        # no active column, commits what a step on that slot alone commits,
        # leaves every other row as it was, and leaves tanh(field + xi) in
        # the soft rows it committed, so the engine recomputes no soft row
        # after a step
        word_len, trials, users, slot = 12, 3, 10, 1
        _, _, s, _ = make_instance(1560, 20, users, word_len, 0.7)
        rng = np.random.default_rng(1561)
        soft, matched, field, interference, xi = (
            rng.standard_normal((word_len, trials, users)) for _ in range(5))
        np.tanh(field + xi, out=soft)
        gain = rng.random((word_len, trials))
        group = (soft, matched, field, interference, gain)
        before = [a.copy() for a in group]
        lone = [np.ascontiguousarray(a[:, slot]) for a in (*group, xi)]
        cols = np.array([0, 3, 4, 11])
        work = np.empty((3, word_len * trials, users))
        finite = np.empty((word_len * trials, users), dtype=bool)

        def rows(a):
            return a.reshape(word_len * trials, *a.shape[2:])

        ends = [0, cols.size, cols.size]
        assert detectors._mud_step(
            cols * trials + slot, ends, [s.corr] * trials, *map(rows, group),
            rows(xi), 0.5, 0.7, work, finite)[2] == []
        detectors._mud_step(cols, [cols.size], [s.corr], *lone[:5], lone[5],
                            0.5, 0.7, work, finite)
        others = np.ones((word_len, trials), dtype=bool)
        others[cols, slot] = False
        for a, alone, was in zip(group, lone, before):
            assert np.array_equal(a[:, slot], alone)
            assert np.array_equal(a[others], was[others])
        assert not np.array_equal(field, before[2])
        assert np.array_equal(soft, np.tanh(field + xi))

    def test_group_step_equals_lone_steps(self):
        # one step over slots with their own matrices and active sets, one
        # set empty and one slot going non-finite, commits what one step of
        # each slot alone commits, bit for bit, and returns the same soft
        # power and precision; the rows no slot selects stay as they were,
        # and only the non-finite slot is reported
        word_len, users = 9, 16
        active = [np.array([0, 3, 4, 8]), np.array([], dtype=np.intp),
                  np.arange(word_len), np.array([5, 7]), np.array([2])]
        trials, bad = len(active), 3
        corrs = [make_instance(1570 + b, 24, users, 2, 0.7)[2].corr
                 for b in range(trials)]
        rng = np.random.default_rng(1580)
        soft, matched, field, interference, xi = (
            rng.standard_normal((word_len, trials, users)) for _ in range(5))
        np.tanh(field + xi, out=soft)
        soft[active[bad][0], bad, 0] = np.nan
        gain = rng.random((word_len, trials))
        state = (soft, matched, field, interference, gain, xi)
        before = [a.copy() for a in state]
        lone = [[np.ascontiguousarray(a[:, b]) for a in state]
                for b in range(trials)]
        work = np.empty((3, word_len * trials, users))
        finite = np.empty((word_len * trials, users), dtype=bool)
        rows = np.concatenate([cols * trials + b
                               for b, cols in enumerate(active)])
        ends = np.cumsum([cols.size for cols in active]).tolist()
        q_pow, precision, diverged = detectors._mud_step(
            rows, ends, corrs,
            *(a.reshape(word_len * trials, *a.shape[2:]) for a in state),
            0.5, 0.7, work, finite)
        assert diverged == [bad]
        alone_q, alone_prec = [], []
        for b, cols in enumerate(active):
            q, prec, alone_diverged = detectors._mud_step(
                cols, [cols.size], [corrs[b]], *lone[b], 0.5, 0.7, work,
                finite)
            assert alone_diverged == ([0] if b == bad else [])
            alone_q.append(q)
            alone_prec.append(prec)
            for a, alone in zip(state, lone[b]):
                assert np.array_equal(a[:, b], alone, equal_nan=b == bad)
        assert np.array_equal(q_pow, np.concatenate(alone_q), equal_nan=True)
        assert np.array_equal(precision, np.concatenate(alone_prec),
                              equal_nan=True)
        untouched = np.ones((word_len, trials), dtype=bool)
        for b, cols in enumerate(active):
            untouched[cols, b] = False
        for a, was in zip(state, before):
            assert np.array_equal(a[untouched], was[untouched],
                                  equal_nan=True)
        assert np.isfinite(field[:, np.arange(trials) != bad]).all()
        assert not np.isfinite(field[active[bad], bad]).all()

    def test_divergence_leaves_the_others_running(self, monkeypatch):
        # a NaN written into one trial's soft values before its second step
        # makes that trial diverge; the rest of the group, whose slots move
        # as trials leave, still equals their lone runs
        t = make_symmetric_matrix(0.8)
        fields, corrs = [], []
        for seed in range(4):
            _, _, s, y = make_instance(1600 + seed, 40, 32, 15, 0.8, lam=0.8)
            fields.append(sumf(s, y))
            corrs.append(s.corr)
        opts = DetectorOptions(schedule="SUS")
        alone = [detectors._run_engine([f], [c], 0.8, 0.8, opts, [t])[0]
                 for f, c in zip(fields, corrs)]
        monkeypatch.setattr(detectors, "_mud_step",
                            poisoning_step(corrs[1], 1))
        together = detectors._run_engine(fields, corrs, 0.8, 0.8, opts,
                                         [t] * 4)
        assert isinstance(together[1], DetectorDivergence)
        assert together[1].iteration == 1
        for b in (0, 2, 3):
            assert_same_detection(together[b], alone[b])
            assert np.array_equal(together[b].converged, alone[b].converged)
            assert together[b].outer_iterations == alone[b].outer_iterations

    @pytest.mark.parametrize("schedule,iterate,blind", [
        pytest.param(schedule, iterate, blind, id="-".join(
            ["blind"] * blind + [schedule, "mud" if iterate else "sumf"]))
        for schedule in ("SUS", "PUS", "BFUS", "RSUS")
        for iterate, blind in ((True, False), (False, False), (True, True))
        if not blind or schedule in ("SUS", "RSUS")])
    def test_mixed_matrix_group_equals_lone_runs(self, monkeypatch, schedule,
                                                 iterate, blind):
        # every slot assumes its own matrix, one of them asymmetric (a blind
        # slot estimates its own); the first slot diverges at the second
        # step (or, for the SUMF, stops first), so the last slot, with
        # another matrix, moves into it. Each RSUS slot shuffles with its
        # own stream, so it runs alone
        matrices = [make_symmetric_matrix(0.8),
                    TransitionMatrix([[0.9, 0.1], [0.3, 0.7]]),
                    iid_matrix(), make_symmetric_matrix(0.5)]
        fields, corrs = [], []
        for seed in range(4):
            _, _, s, y = make_instance(1650 + seed, 40, 32, 15, 0.8, lam=0.8)
            fields.append(sumf(s, y))
            corrs.append(s.corr)
        if not iterate:
            fields[0] = np.where(fields[0] >= 0, 5.0, -5.0)  # settles at once
        opts = DetectorOptions(schedule=schedule, blind=blind)

        def streams():
            return [np.random.default_rng(1690 + b) for b in range(4)]

        alone = [detectors._run_engine([f], [c], 0.8, 0.8, opts, [m],
                                       iterate, [rng])[0]
                 for f, c, m, rng in zip(fields, corrs, matrices, streams())]
        monkeypatch.setattr(detectors, "_mud_step",
                            poisoning_step(corrs[0], 1))
        together = detectors._run_engine(fields, corrs, 0.8, 0.8, opts,
                                         matrices, iterate, streams())
        if iterate:
            assert isinstance(together[0], DetectorDivergence)
            left_at = 2
        else:
            assert_same_detection(together[0], alone[0])
            left_at = alone[0].outer_iterations
        assert alone[3].outer_iterations > left_at  # the last slot moved
        for b in (1, 2, 3):
            assert_same_detection(together[b], alone[b])
            assert together[b].outer_iterations == alone[b].outer_iterations
            if blind:
                assert np.array_equal(together[b].estimated_matrix.matrix,
                                      alone[b].estimated_matrix.matrix)
            else:
                assert together[b].estimated_matrix is None

    @pytest.mark.parametrize("group_users", [20, 64])
    @pytest.mark.parametrize("blind", [False, True], ids=["sus", "blind"])
    def test_fields_above_group_users_equal_lone_runs(self, monkeypatch,
                                                      group_users, blind):
        # five 32-user fields over 20 or 64 users per group run in groups of
        # one or two, each result still its lone run's
        t = make_symmetric_matrix(0.8)
        fields, corrs = [], []
        for seed in range(5):
            _, _, s, y = make_instance(1750 + seed, 40, 32, 15, 0.8, lam=0.8)
            fields.append(sumf(s, y))
            corrs.append(s.corr)
        opts = DetectorOptions(blind=blind)
        alone = [detectors._run_engine([f], [c], 0.8, 0.8, opts, [t])[0]
                 for f, c in zip(fields, corrs)]
        widths = []
        real_sweep = detectors._bias_sweep

        def sweep(padded, *rest):
            widths.append(padded.shape[1])
            real_sweep(padded, *rest)

        monkeypatch.setattr(detectors, "_bias_sweep", sweep)
        monkeypatch.setattr(detectors, "GROUP_USERS", group_users)
        together = detectors._run_engine(fields, corrs, 0.8, 0.8, opts,
                                         [t] * 5)
        assert max(widths) == max(1, group_users // 32)
        for a, b in zip(together, alone):
            assert_same_detection(a, b)
            assert a.outer_iterations == b.outer_iterations
            if blind:
                assert np.array_equal(a.estimated_matrix.matrix,
                                      b.estimated_matrix.matrix)


def reference_terms(s, w0, w1):
    """The (minus, plus) neighbour terms w0 + w1 s, on the last two axes."""
    return np.add(np.multiply(w1, s), w0)


def reference_message(own, other):
    """Posterior mean from the two neighbours' (minus, plus) terms, and the
    normaliser."""
    p = np.multiply(own, other)
    p0, p1 = p[..., 0, :], p[..., 1, :]
    total = np.add(p1, p0)
    return np.divide(np.subtract(p1, p0), total), total


def reference_correction(m, scale):
    cap = 1.0 - detectors.CLAMP_EPS
    x = np.arctanh(np.minimum(np.maximum(m, -cap), cap))
    return np.multiply(x, scale) if scale != 1.0 else x


def reference_sweep(padded, field, xi, model, schedule, t, rng, scale):
    """One bias sweep composed column by column from the neighbour terms,
    the message, the clamped atanh correction and the soft refresh, in the
    schedule's order; updates padded and xi in place as _bias_sweep
    does."""
    n_rows, n_trials, n_users = padded.shape
    word_len, width = n_rows - 2, n_trials * n_users
    model = model.reshape(len(model), -1)
    left, right = (model[0:2], model[2:4]), (model[4:6], model[6:8])
    soft = padded.reshape(n_rows, width)
    soft[0] = soft[-1] = model[8]
    field = field.reshape(word_len, width)
    xi_new = np.empty((word_len, width))
    if schedule == "PUS":
        for l in range(word_len):
            m, total = reference_message(reference_terms(soft[l], *left),
                                         reference_terms(soft[l + 2], *right))
            assert total.all()
            xi_new[l] = reference_correction(m, scale)
        soft[1:-1] = np.tanh(np.add(field, xi_new))
    else:
        if schedule == "RSUS":
            order = rng.permutation(word_len)
        elif schedule == "SUS" or t % 2 == 0:
            order = range(word_len)
        else:
            order = range(word_len - 1, -1, -1)
        for l in order:
            m, total = reference_message(reference_terms(soft[l], *left),
                                         reference_terms(soft[l + 2], *right))
            assert total.all()
            xi_new[l] = reference_correction(m, scale)
            soft[l + 1] = np.tanh(np.add(field[l], xi_new[l]))
    xi[:] = xi_new.reshape(xi.shape)


class TestColumnUpdate:
    # the one column update of every sweep against the column-by-column
    # composition it replaced

    @pytest.mark.parametrize("offset", [0, 1], ids=["aligned", "misaligned"])
    @pytest.mark.parametrize("scale", [1.0, 1.39])
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("schedule,t", [
        ("SUS", 0), ("PUS", 0), ("BFUS", 0), ("BFUS", 1), ("RSUS", 0)])
    def test_sweep_matches_the_column_composition(self, schedule, t, trials,
                                                  scale, offset):
        # the corrections and every soft row, bit for bit, with a model per
        # slot, over words of one, two and seven columns, on state carved
        # from a block that starts on a 64-byte boundary or one float past
        # it (16 users keep every row on the block's alignment)
        users = 16
        matrices = [TransitionMatrix([[0.9, 0.1], [0.3, 0.7]]),
                    make_symmetric_matrix(0.8), make_symmetric_matrix(-0.4)]
        for word_len in (1, 2, 7):
            rng = np.random.default_rng(1800 + 10 * word_len + trials)
            shape = (word_len, trials, users)
            size = (9 * word_len + 15) * trials * users
            raw = np.empty(size + 16)
            start = -raw.ctypes.data % 64 // 8 + offset
            block = raw[start:start + size].reshape(-1, trials, users)
            field, xi, padded, model, work = np.split(block, np.cumsum(
                [word_len, word_len, word_len + 2, 9]))
            work = work.reshape(-1)
            for b in range(trials):
                model[:, b] = detectors._neighbour_model(matrices[b])
            field[:] = 2.0 * rng.standard_normal(shape)
            xi[:] = rng.standard_normal(shape)
            padded[1:-1] = np.tanh(field + xi)

            want_padded, want_xi = padded.copy(), xi.copy()
            reference_sweep(want_padded, field, want_xi, model, schedule, t,
                            np.random.default_rng(1890), scale)
            assert detectors._bias_sweep(
                padded, field, xi, model, schedule, t,
                np.random.default_rng(1890), scale, work,
                detectors._clamp_needed(model)) is None
            assert np.array_equal(xi, want_xi)
            assert np.array_equal(padded, want_padded)

    @pytest.mark.parametrize("schedule,t", [
        ("SUS", 0), ("PUS", 0), ("BFUS", 0), ("BFUS", 1), ("RSUS", 0)])
    def test_impossible_neighbours_raise(self, schedule, t):
        # the frozen chain makes a column between neighbours certainly -1
        # and +1 impossible; every sweep raises the documented ValueError,
        # with no numpy warning on the way (the test run turns warnings
        # into errors)
        model = detectors._neighbour_model(make_symmetric_matrix(1.0))
        field = np.array([-40.0, 0.0, 40.0]).reshape(3, 1, 1)
        xi = np.zeros_like(field)
        padded = np.zeros((5, 1, 1))
        padded[1:-1] = np.tanh(field)
        with pytest.raises(ValueError, match="neighbours impossible under "
                           "the assumed transition matrix"):
            detectors._bias_sweep(padded, field, xi, model, schedule, t,
                                  np.random.default_rng(0), 1.0,
                                  np.empty(4 * padded.size),
                                  detectors._clamp_needed(model))

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_detector_refuses_impossible_neighbours(self, schedule):
        # the same through the correlated SUMF, whose field is the matched one
        s, y = single_user_fields([-40.0, 0.0, 40.0])
        with pytest.raises(ValueError, match="neighbours impossible"):
            correlated_sumf_detect(s, y, make_symmetric_matrix(1.0), 0.8,
                                   schedule_opts(schedule))


class TestCorrelatedMud:
    def test_correction_overrides_isolated_flip(self):
        # single user, clean channel, frozen source: one inverted field
        # column must be repaired by the neighbor prior
        rng = np.random.default_rng(14)
        s = generate_spreading(4, 1, rng)
        block = np.ones((1, 9), dtype=np.int8)
        y = transmit(s, block, 0.0, rng)
        y[:, 4] = -y[:, 4]
        plain = mud_detect(s, y, 0.8)
        assert plain.bits[0, 4] == -1  # the flip survives without the prior
        res = correlated_mud_detect(s, y, make_symmetric_matrix(1.0), 0.8)
        np.testing.assert_array_equal(res.bits, block)

    def test_improvement_on_paired_realizations(self):
        plain_errors = 0
        corr_errors = 0
        t = make_symmetric_matrix(0.8)
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            block = generate_block(t, 80, 50, rng)
            s = generate_spreading(100, 80, rng)
            y = transmit(s, block, 0.8, rng)
            plain_errors += int(np.sum(mud_detect(s, y, 0.8).bits != block))
            corr_errors += int(np.sum(
                correlated_mud_detect(s, y, t, 0.8).bits != block))
        assert corr_errors < plain_errors

    def test_iteration_counts_comparable(self):
        t = make_symmetric_matrix(0.8)
        plain_meds, corr_meds = [], []
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            block = generate_block(t, 40, 30, rng)
            s = generate_spreading(50, 40, rng)
            y = transmit(s, block, 0.8, rng)
            plain_meds.append(np.median(mud_detect(s, y, 0.8).iters))
            corr_meds.append(np.median(correlated_mud_detect(s, y, t, 0.8).iters))
        assert np.median(corr_meds) <= 3.0 * np.median(plain_meds)

    def test_schedules_differ_generically(self):
        t = make_symmetric_matrix(0.9)
        diffs = 0
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            block = generate_block(t, 30, 40, rng)
            s = generate_spreading(40, 30, rng)
            y = transmit(s, block, 0.8, rng)
            sus = correlated_mud_detect(s, y, t, 0.8,
                                        DetectorOptions(schedule="SUS"))
            pus = correlated_mud_detect(s, y, t, 0.8,
                                        DetectorOptions(schedule="PUS"))
            diffs += int(not np.array_equal(sus.field, pus.field))
        assert diffs > 0

    def test_rsus_uses_supplied_stream(self):
        t = make_symmetric_matrix(0.9)
        _, block, s, y = make_instance(15, 40, 30, 20, 0.8, lam=0.9)
        r1 = correlated_mud_detect(
            s, y, t, 0.8,
            opts=DetectorOptions(schedule="RSUS",
                                 schedule_rng=np.random.default_rng(1)))
        r2 = correlated_mud_detect(
            s, y, t, 0.8,
            opts=DetectorOptions(schedule="RSUS",
                                 schedule_rng=np.random.default_rng(1)))
        assert np.array_equal(r1.field, r2.field)

    def test_blind_estimates_matrix(self):
        t = make_symmetric_matrix(0.8)
        rng = np.random.default_rng(16)
        block = generate_block(t, 60, 100, rng)
        s = generate_spreading(200, 60, rng)
        y = transmit(s, block, 0.6, rng)
        res = correlated_mud_detect(s, y, t, 0.6, DetectorOptions(blind=True))
        assert res.estimated_matrix is not None
        assert abs(res.estimated_matrix.lambda2 - 0.8) < 0.15

    def test_blind_not_worse_than_plain(self):
        t = make_symmetric_matrix(0.8)
        plain_errors = 0
        blind_errors = 0
        for seed in range(15):
            rng = np.random.default_rng(800 + seed)
            block = generate_block(t, 48, 60, rng)
            s = generate_spreading(60, 48, rng)
            y = transmit(s, block, 0.8, rng)
            plain_errors += int(np.sum(mud_detect(s, y, 0.8).bits != block))
            blind_errors += int(np.sum(
                correlated_mud_detect(s, y, t, 0.8, DetectorOptions(blind=True)
                                      ).bits != block))
        assert blind_errors < plain_errors

    def test_requires_positive_sigma(self):
        _, _, s, y = make_instance(17, 20, 5, 4, 0.5)
        with pytest.raises(ValueError):
            correlated_mud_detect(s, y, iid_matrix(), 0.0)


class TestCorrelatedSumf:
    def test_single_user_high_correlation_improves(self):
        t = make_symmetric_matrix(0.95)
        plain_errors = 0
        corr_errors = 0
        for seed in range(60):
            rng = np.random.default_rng(900 + seed)
            block = generate_block(t, 1, 50, rng)
            s = generate_spreading(16, 1, rng)
            y = transmit(s, block, 0.8, rng)
            plain_errors += int(np.sum(sumf_detect(s, y).bits != block))
            corr_errors += int(np.sum(
                correlated_sumf_detect(s, y, t, 0.8).bits != block))
        assert corr_errors < plain_errors

    def test_accepts_zero_sigma(self):
        # the sigma > 0 requirement belongs to the MUD step only
        t = make_symmetric_matrix(0.8)
        _, block, s, y = make_instance(22, 64, 4, 10, 0.0, lam=0.8)
        res = correlated_sumf_detect(s, y, t, 0.0)
        assert res.bits.shape == block.shape
        assert np.all(np.isfinite(res.field))

    def test_pus_sweep_matches_local_bias(self):
        # one PUS sweep takes every column's correction from the matched
        # soft values through the same formula as the public local_bias
        # oracle, bit for bit
        t = TransitionMatrix([[0.9, 0.1], [0.3, 0.7]])
        mismatches = 0
        for seed in range(20):
            _, _, s, y = make_instance(1000 + seed, 40, 30, 12, 0.8, lam=0.8)
            res = correlated_sumf_detect(
                s, y, t, 0.8, DetectorOptions(schedule="PUS", max_iters=1))
            matched = sumf(s, y)
            soft = np.tanh(matched)
            scale = 30 / 40 + 0.8 * 0.8
            for l in range(12):
                xi = scale * np.arctanh(local_bias(soft, t, l))
                mismatches += int(np.count_nonzero(
                    matched[:, l] + xi != res.field[:, l]))
        assert mismatches == 0

    @pytest.mark.parametrize("schedule", ["SUS", "BFUS", "RSUS"])
    def test_sequential_sweeps_match_local_bias(self, schedule):
        # two sweeps (BFUS: forward, then backward) replayed column by
        # column with the local_bias oracle, each visited column's soft
        # value refreshed before the next is visited, bit for bit
        t = TransitionMatrix([[0.9, 0.1], [0.3, 0.7]])
        scale = 30 / 40 + 0.8 * 0.8
        for seed in range(5):
            _, _, s, y = make_instance(1400 + seed, 40, 30, 12, 0.8, lam=0.8)
            res = correlated_sumf_detect(s, y, t, 0.8,
                                         schedule_opts(schedule, max_iters=2))
            assert res.outer_iterations == 2
            field = sumf(s, y)
            xi = np.zeros_like(field)
            rng = np.random.default_rng(3)
            for sweep in range(2):
                soft = np.tanh(field + xi)
                if schedule == "RSUS":
                    order = rng.permutation(12)
                elif schedule == "BFUS" and sweep == 1:
                    order = range(11, -1, -1)
                else:
                    order = range(12)
                for l in order:
                    xi[:, l] = scale * np.arctanh(local_bias(soft, t, l))
                    soft[:, l] = np.tanh(field[:, l] + xi[:, l])
            assert np.array_equal(field + xi, res.field)

    def test_reports_convergence(self):
        t = make_symmetric_matrix(0.8)
        _, block, s, y = make_instance(18, 60, 20, 15, 0.8, lam=0.8)
        res = correlated_sumf_detect(s, y, t, 0.8)
        assert res.converged.all()
        assert res.outer_iterations >= 1


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorOptions(max_iters=0)
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            DetectorOptions(max_iters=5.0)
        with pytest.raises(ValueError, match="^blind must be a bool"):
            DetectorOptions(blind="false")
        with pytest.raises(ValueError):
            DetectorOptions(schedule="ZIGZAG")
        # a string flag would record bounds, an integer RSUS stream would
        # fail at the first sweep with an unnamed AttributeError
        for bad in ("false", 1, None):
            with pytest.raises(ValueError, match="^track_bounds must be a bool"):
                DetectorOptions(track_bounds=bad)
        for bad in (5, np.random.RandomState(5), np.random.PCG64(5)):
            with pytest.raises(ValueError, match="^schedule_rng must be None "
                                                 "or a numpy.random.Generator"):
                DetectorOptions(schedule="RSUS", schedule_rng=bad)
        assert DetectorOptions(track_bounds=np.True_).track_bounds
