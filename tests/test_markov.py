import math

import numpy as np
import pytest

from corrcdma.markov import (
    TransitionMatrix,
    estimate_transition,
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
    perturb_element,
    source_stats,
)


def random_matrix(rng):
    a, b = rng.random(2)
    return TransitionMatrix([[a, 1.0 - a], [b, 1.0 - b]])


class TestConstruction:
    def test_symmetric_entries(self):
        t = make_symmetric_matrix(0.8)
        np.testing.assert_allclose(t.matrix, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)

    def test_iid_entries(self):
        assert np.array_equal(iid_matrix().matrix, np.full((2, 2), 0.5))

    def test_frozen_is_identity(self):
        assert np.array_equal(make_symmetric_matrix(1.0).matrix, np.eye(2))

    def test_lambda2_out_of_range(self):
        with pytest.raises(ValueError):
            make_symmetric_matrix(1.2)
        with pytest.raises(ValueError):
            make_symmetric_matrix(-1.0001)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[0.9, 0.2], [0.1, 0.9]])
        with pytest.raises(ValueError):
            TransitionMatrix([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(ValueError):
            TransitionMatrix([[0.5, 0.5]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="outside"):
                TransitionMatrix([[bad, 0.5], [0.5, 0.5]])

    def test_lambda2_matches_eigendecomposition(self):
        # independent oracle: numpy eigenvalues of the same matrix
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = random_matrix(rng)
            eig = np.sort(np.linalg.eigvals(t.matrix).real)
            assert abs(eig[-1] - 1.0) < 1e-12
            assert abs(t.lambda2 - eig[0]) < 1e-12

    def test_lambda2_roundtrip(self):
        for lam in np.linspace(-1.0, 1.0, 41):
            assert abs(make_symmetric_matrix(lam).lambda2 - lam) < 1e-12

    def test_matrix_is_readonly(self):
        t = make_symmetric_matrix(0.5)
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 0.3

    def test_flat_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_matrix(rng)
            back = TransitionMatrix.from_flat(t.to_flat())
            assert np.array_equal(back.matrix, t.matrix)

    def test_flat_order_row_minus_first(self):
        t = TransitionMatrix([[0.9, 0.1], [0.25, 0.75]])
        assert [float(x) for x in t.to_flat().split(",")] == [0.9, 0.1, 0.25, 0.75]

    def test_from_flat_wrong_count(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_flat("0.5,0.5,0.5")


class TestStats:
    def test_stationary_symmetric(self):
        mu = make_symmetric_matrix(0.8).stationary()
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-15)

    def test_stationary_closed_form(self):
        # hand case: up-rate 0.1, down-rate 0.2 -> mu = (2/3, 1/3)
        t = TransitionMatrix([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(t.stationary(), [2 / 3, 1 / 3], atol=1e-15)

    def test_stationary_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            t = random_matrix(rng)
            mu = t.stationary()
            assert abs(mu.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(mu @ t.matrix, mu, atol=1e-12)

    def test_mirrored_matrix_has_the_mirrored_stationary_distribution(self):
        # swapping -1 and +1 swaps the distribution bit for bit, so the
        # detectors' edge value pi(+1) - pi(-1) is exactly negated
        rng = np.random.default_rng(29)
        for _ in range(1000):
            t = random_matrix(rng)
            mirrored = TransitionMatrix(t.matrix[::-1, ::-1])
            mu, nu = t.stationary(), mirrored.stationary()
            assert np.array_equal(nu, mu[::-1])
            assert nu[1] - nu[0] == -(mu[1] - mu[0])

    def test_stationary_identity_convention(self):
        np.testing.assert_allclose(make_symmetric_matrix(1.0).stationary(), [0.5, 0.5])

    def test_entropy_symmetric(self):
        # closed form: binary entropy of the flip probability 0.1
        expected = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        stats = source_stats(make_symmetric_matrix(0.8))
        assert abs(stats.entropy_bits - expected) < 1e-12
        assert abs(stats.entropy_bits - 0.46900) < 5e-5

    def test_entropy_iid_is_one(self):
        assert source_stats(iid_matrix()).entropy_bits == 1.0

    def test_entropy_frozen_is_zero(self):
        assert source_stats(make_symmetric_matrix(1.0)).entropy_bits == 0.0

    def test_entropy_general_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = random_matrix(rng)
            mu = t.stationary()
            acc = 0.0
            for i in range(2):
                for j in range(2):
                    p = t.matrix[i, j]
                    if p > 0.0:
                        acc -= mu[i] * p * math.log2(p)
            assert abs(source_stats(t).entropy_bits - acc) < 1e-12

    def test_correlation_length_at_08(self):
        # published value for the lambda2 = 0.8 source
        stats = source_stats(make_symmetric_matrix(0.8))
        assert abs(stats.correlation_length - 4.48) <= 0.01
        assert abs(stats.correlation_length - 1.0 / math.log(1.0 / 0.8)) < 1e-12

    def test_correlation_length_conventions(self):
        assert source_stats(iid_matrix()).correlation_length == 0.0
        assert source_stats(make_symmetric_matrix(-0.5)).correlation_length == 0.0
        assert source_stats(make_symmetric_matrix(1.0)).correlation_length == math.inf


class TestGeneration:
    def test_frozen_rows_constant(self):
        block = generate_block(make_symmetric_matrix(1.0), 40, 25, np.random.default_rng(0))
        assert np.all(block == block[:, :1])

    def test_values_and_shape(self):
        block = generate_block(make_symmetric_matrix(0.8), 13, 7, np.random.default_rng(1))
        assert block.shape == (13, 7)
        assert block.dtype == np.int8
        assert np.all(np.abs(block) == 1)

    def test_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_block(iid_matrix(), 0, 5, rng)
        with pytest.raises(ValueError):
            generate_block(iid_matrix(), 5, 0, rng)

    @staticmethod
    def per_symbol_sampler(t, n_users, word_len, rng):
        # oracle: one draw of n_users uniforms per symbol position, each
        # user's next symbol looked up from the row of its current one
        p_up_from = t.matrix[:, 1]
        block = np.empty((n_users, word_len), dtype=np.int8)
        state = np.where(rng.random(n_users) < t.stationary()[1], 1, -1)
        block[:, 0] = state
        for l in range(1, word_len):
            p_up = p_up_from[(state + 1) // 2]
            state = np.where(rng.random(n_users) < p_up, 1, -1)
            block[:, l] = state
        return block

    def test_matches_the_per_symbol_sampler(self):
        # bit for bit, and the generator ends at the same stream position
        grid = np.random.default_rng(5)
        matrices = [make_symmetric_matrix(lam)
                    for lam in (0.0, 0.6, -0.6, 0.8, 1.0, -1.0)]
        matrices += [random_matrix(grid) for _ in range(20)]
        matrices += [TransitionMatrix([[1.0, 0.0], [0.3, 0.7]]),
                     TransitionMatrix([[0.4, 0.6], [0.0, 1.0]])]
        for i, t in enumerate(matrices):
            for n_users, word_len in ((1, 1), (1, 7), (7, 1), (13, 9),
                                      (200, 40), (800, 100)):
                rng, oracle_rng = (np.random.default_rng(i) for _ in range(2))
                block = generate_block(t, n_users, word_len, rng)
                want = self.per_symbol_sampler(t, n_users, word_len, oracle_rng)
                assert block.flags.c_contiguous
                assert np.array_equal(block, want)
                assert rng.random() == oracle_rng.random()

    @staticmethod
    def masked_copy_sampler(t, n_users, word_len, rng):
        # oracle: the block-at-once sampler with one masked copy per symbol
        # row, symbol l taken from the +1 row's comparison wherever symbol
        # l - 1 is +1
        p_up_from = t.matrix[:, 1]
        u = rng.random((word_len, n_users))
        up = u < p_up_from[0]
        up_after_plus = u < p_up_from[1]
        np.less(u[0], t.stationary()[1], out=up[0])
        for l in range(1, word_len):
            np.copyto(up[l], up_after_plus[l], where=up[l - 1])
        return np.where(up.T, 1, -1).astype(np.int8)

    @pytest.mark.parametrize("word_len", [1, 2, 100])
    @pytest.mark.parametrize("t", [
        *(make_symmetric_matrix(lam) for lam in (0.0, 0.4, 0.8, 1.0)),
        TransitionMatrix([[0.2, 0.8], [0.7, 0.3]]),  # P(+|-) > P(+|+)
        TransitionMatrix([[0.95, 0.05], [0.4, 0.6]]),
    ], ids=["lam0", "lam0.4", "lam0.8", "lam1", "anti", "asymmetric"])
    def test_matches_the_masked_copy_sampler(self, t, word_len):
        # the XOR recurrence gives the masked copy's booleans bit for bit,
        # and the generator ends where the oracle leaves it
        for seed in (0, 1, 2):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            block = generate_block(t, 300, word_len, rng)
            want = self.masked_copy_sampler(t, 300, word_len, oracle_rng)
            assert np.array_equal(block, want)
            assert rng.random() == oracle_rng.random()

    @staticmethod
    def count_transitions(block):
        counts = np.zeros((2, 2))
        prev = block[:, :-1].ravel()
        nxt = block[:, 1:].ravel()
        for a in (-1, 1):
            for b in (-1, 1):
                counts[(a + 1) // 2, (b + 1) // 2] = np.sum((prev == a) & (nxt == b))
        return counts

    def check_frequencies(self, t, block, n_se=4.0):
        counts = self.count_transitions(block)
        totals = counts.sum(axis=1)
        for i in range(2):
            p = t.matrix[i, 1]
            se = math.sqrt(p * (1.0 - p) / totals[i])
            assert abs(counts[i, 1] / totals[i] - p) < n_se * se

    def test_iid_transition_frequencies(self):
        t = iid_matrix()
        block = generate_block(t, 1000, 100, np.random.default_rng(42))
        self.check_frequencies(t, block)

    def test_correlated_long_chain(self):
        t = make_symmetric_matrix(0.8)
        block = generate_block(t, 1, 10**5, np.random.default_rng(3))
        counts = self.count_transitions(block)
        t11 = counts[1, 1] / counts[1].sum()
        assert abs(t11 - 0.9) < 0.01
        self.check_frequencies(t, block)

    def test_asymmetric_frequencies_and_start(self):
        t = TransitionMatrix([[0.7, 0.3], [0.15, 0.85]])
        rng = np.random.default_rng(9)
        first = []
        for _ in range(40):
            block = generate_block(t, 500, 40, rng)
            first.append(block[:, 0])
        first = np.concatenate(first)
        mu_plus = t.stationary()[1]
        se = math.sqrt(mu_plus * (1.0 - mu_plus) / first.size)
        assert abs(np.mean(first == 1) - mu_plus) < 4.0 * se
        self.check_frequencies(t, block)


class TestEstimation:
    # a +-1 block is its own soft value: its belief pairs are indicators

    def test_hand_count_three_symbols(self):
        # single word +1 +1 -1: one stay in +1, one drop to -1, nothing from -1
        t_hat = estimate_transition(np.array([[1, 1, -1]], dtype=np.int8),
                                    pseudo_count=0.0)
        np.testing.assert_allclose(t_hat.matrix[1], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(t_hat.matrix[0], [0.5, 0.5], atol=1e-15)  # zero-row fallback

    def test_pseudocount_arithmetic(self):
        t_hat = estimate_transition(np.array([[1, 1, 1]], dtype=np.int8),
                                    pseudo_count=1.0)
        np.testing.assert_allclose(t_hat.matrix, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    def test_recovers_empirical_counts(self):
        rng = np.random.default_rng(17)
        t = TransitionMatrix([[0.8, 0.2], [0.35, 0.65]])
        block = generate_block(t, 200, 60, rng)
        counts = TestGeneration.count_transitions(block)
        expected = counts / counts.sum(axis=1, keepdims=True)
        t_hat = estimate_transition(block, pseudo_count=0.0)
        assert np.array_equal(t_hat.matrix, expected)

    def test_uniform_beliefs_give_iid(self):
        soft = np.zeros((5, 10))
        for c in (0.0, 1.0, 3.5):
            assert np.array_equal(estimate_transition(soft, pseudo_count=c).matrix,
                                  iid_matrix().matrix)

    def test_soft_value_pairs(self):
        # soft value s stands for the pair ((1 - s)/2, (1 + s)/2): the
        # counts equal those of the explicit pairs, summed symbol by symbol
        rng = np.random.default_rng(19)
        for _ in range(20):
            soft = rng.uniform(-1.0, 1.0, (4, 6))
            pairs = [[((1.0 - s) / 2.0, (1.0 + s) / 2.0) for s in word]
                     for word in soft]
            counts = np.full((2, 2), 0.5)
            for word in pairs:
                for prev, after in zip(word[:-1], word[1:]):
                    for a in range(2):
                        for b in range(2):
                            counts[a, b] += prev[a] * after[b]
            expected = counts / counts.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(
                estimate_transition(soft, pseudo_count=0.5).matrix, expected,
                rtol=0, atol=1e-14)

    def test_layout_does_not_change_the_estimate(self):
        # the blind detector passes a transposed view of its (L, K) state
        rng = np.random.default_rng(23)
        for _ in range(20):
            soft = np.tanh(rng.normal(0.0, 2.0, (30, 17))).T
            assert np.array_equal(
                estimate_transition(soft).matrix,
                estimate_transition(np.ascontiguousarray(soft)).matrix)

    def test_soft_beliefs_row_stochastic(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            soft = rng.uniform(-1.0, 1.0, (8, 12))
            rows = estimate_transition(soft).matrix.sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_no_transitions_raises(self):
        with pytest.raises(ValueError):
            estimate_transition(np.zeros((4, 1)))
        with pytest.raises(ValueError):
            estimate_transition(np.zeros((0, 4)))

    def test_rejects_belief_pairs_and_out_of_range_values(self):
        with pytest.raises(ValueError, match=r"shape \(K, L\)"):
            estimate_transition(np.full((3, 4, 2), 0.5))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            estimate_transition(np.array([[0.5, 1.5, -0.2]]))


class TestPerturbation:
    def test_arithmetic(self):
        t = perturb_element(make_symmetric_matrix(0.8), 0.10)
        np.testing.assert_allclose(t.matrix[0], [0.99, 0.01], atol=1e-12)
        np.testing.assert_allclose(t.matrix[1], [0.1, 0.9], atol=1e-15)

    def test_zero_delta_identity(self):
        t = make_symmetric_matrix(0.6)
        assert np.array_equal(perturb_element(t, 0.0).matrix, t.matrix)

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            perturb_element(make_symmetric_matrix(0.9), 0.10)

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            perturb_element(TransitionMatrix([[0.9, 0.1], [0.2, 0.8]]), 0.05)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            lam = rng.uniform(-0.9, 0.9)
            delta = rng.uniform(-0.1, 0.1)
            base = make_symmetric_matrix(lam)
            try:
                t = perturb_element(base, delta)
            except ValueError:
                continue
            np.testing.assert_allclose(t.matrix.sum(axis=1), 1.0, atol=1e-12)
            assert np.array_equal(t.matrix[1], base.matrix[1])
