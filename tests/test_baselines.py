"""Tests for the compression-baseline arithmetic and saturation metric."""

import math
from dataclasses import replace

import numpy as np
import pytest

from corrcdma.baselines import (
    DEFAULT_THRESHOLD_FACTOR,
    bandwidth_expansion_comparison,
    binary_entropy,
    bsc_residual_error,
    compression_point,
    fit_loglog_slope,
    fixed_load_comparison,
    inverse_binary_entropy,
    saturation_position,
)
from corrcdma.harness import ExperimentConfig, bandwidth_arms, bandwidth_plan
from corrcdma.markov import iid_matrix, make_symmetric_matrix, source_stats


# ---------------------------------------------------------------------------
# binary entropy


def test_binary_entropy_trivial_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_hand_value():
    # H2(0.1) = -0.1 log2 0.1 - 0.9 log2 0.9
    assert abs(binary_entropy(0.1) - 0.46900) < 1e-5


def test_binary_entropy_series_oracle():
    # Independent oracle: Taylor series about 0.5,
    # H2(0.5 + d) = 1 - sum_n (2d)^(2n) / (2n (2n-1) ln 2).
    for d in (0.05, 0.1):
        series = 1.0 - sum(
            (2.0 * d) ** (2 * n) / (2 * n * (2 * n - 1) * math.log(2))
            for n in range(1, 12)
        )
        assert abs(binary_entropy(0.5 + d) - series) < 1e-12


def test_binary_entropy_symmetry_and_concavity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = rng.uniform(0.0, 1.0)
        assert abs(binary_entropy(f) - binary_entropy(1.0 - f)) < 1e-12
    # midpoint concavity on random pairs
    for _ in range(200):
        a, b = rng.uniform(0.0, 1.0, size=2)
        mid = binary_entropy(0.5 * (a + b))
        assert mid >= 0.5 * (binary_entropy(a) + binary_entropy(b)) - 1e-12


def test_binary_entropy_array_matches_scalar():
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 1.0, size=17)
    h = binary_entropy(f)
    assert h.shape == f.shape
    for i in range(f.size):
        assert h[i] == binary_entropy(float(f[i]))


def test_binary_entropy_domain_errors():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.2, 1.2]))


def test_binary_entropy_refuses_nan():
    # NaN compares false with both bounds; it would read as entropy 0
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(float("nan"))
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(np.array([0.1, np.nan]))


def test_bsc_residual_error_names_a_nan_entropy():
    with pytest.raises(ValueError, match="entropy_bits must lie in"):
        bsc_residual_error(float("nan"), 0.1)


def test_inverse_binary_entropy_edges():
    assert inverse_binary_entropy(0.0) == 0.0
    assert inverse_binary_entropy(1.0) == 0.5
    with pytest.raises(ValueError):
        inverse_binary_entropy(1.5)


def test_inverse_binary_entropy_round_trip():
    assert abs(inverse_binary_entropy(binary_entropy(0.11)) - 0.11) < 1e-9
    rng = np.random.default_rng(5)
    for _ in range(1000):
        f = rng.uniform(0.0, 0.5)
        assert abs(inverse_binary_entropy(binary_entropy(f)) - f) < 1e-9


def test_inverse_binary_entropy_monotone():
    ys = np.linspace(0.0, 1.0, 101)
    fs = [inverse_binary_entropy(float(y)) for y in ys]
    assert all(b >= a for a, b in zip(fs, fs[1:]))


# ---------------------------------------------------------------------------
# BSC residual error


def _grid_inverse_entropy(y):
    # Independent inversion mechanism: dense-grid interpolation instead of
    # bisection.
    grid = np.linspace(0.0, 0.5, 2_000_001)
    values = binary_entropy(grid)
    return float(np.interp(y, values, grid))


def test_bsc_residual_matches_grid_oracle():
    for entropy_bits, crossover in [(0.5, 0.25), (0.469, 0.2), (0.9, 0.3),
                                    (0.7, 0.4), (0.3, 0.45)]:
        surviving = 1.0 - binary_entropy(crossover)
        if surviving >= entropy_bits:
            expected = 0.0
        else:
            expected = _grid_inverse_entropy(1.0 - surviving / entropy_bits)
        got = bsc_residual_error(entropy_bits, crossover)
        assert abs(got - expected) < 1e-5


def test_bsc_residual_identity_rate():
    # At rate 1 the decoder adds nothing: residual equals the crossover.
    for f in (0.0, 0.05, 0.11, 0.3, 0.49):
        assert abs(bsc_residual_error(1.0, f) - f) < 1e-9


def test_bsc_residual_error_free_branch():
    # Channel passes more information than the source carries.
    assert bsc_residual_error(0.469, 0.05) == 0.0
    assert bsc_residual_error(0.5, 0.0) == 0.0
    assert bsc_residual_error(1.0, 0.0) == 0.0


def test_bsc_residual_monotone():
    entropies = np.linspace(0.2, 1.0, 9)
    crossovers = np.linspace(0.0, 0.45, 10)
    table = np.array([[bsc_residual_error(float(h), float(f))
                       for f in crossovers] for h in entropies])
    assert np.all(np.diff(table, axis=1) >= -1e-12)  # worse channel
    assert np.all(np.diff(table, axis=0) >= -1e-12)  # less redundancy


def test_bsc_residual_domain_errors():
    with pytest.raises(ValueError):
        bsc_residual_error(0.0, 0.1)
    with pytest.raises(ValueError):
        bsc_residual_error(-0.2, 0.1)
    with pytest.raises(ValueError):
        bsc_residual_error(1.1, 0.1)
    for crossover in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="^crossover must lie in"):
            bsc_residual_error(0.5, crossover)
    # the capacity 1 - H2 is symmetric: a crossover of 1/2 carries nothing,
    # and p and 1 - p leave the same residual
    assert bsc_residual_error(0.5, 0.5) == 0.5
    for p in (0.125, 0.25, 0.375):
        assert (bsc_residual_error(0.5, 1.0 - p)
                == bsc_residual_error(0.5, p) > 0.0)
    assert bsc_residual_error(0.5, 1.0) == bsc_residual_error(0.5, 0.0) == 0.0


def test_bsc_residual_near_table_operating_point():
    # With the usual correlation setting (second eigenvalue 0.8 giving
    # per-symbol entropy 0.469) a plain-detector error rate in the 0.15-0.17
    # band maps to a residual a bit above 0.03-0.05.
    entropy_bits = source_stats(make_symmetric_matrix(0.8)).entropy_bits
    low = bsc_residual_error(entropy_bits, 0.15)
    high = bsc_residual_error(entropy_bits, 0.17)
    assert 0.02 < low < high < 0.06


# ---------------------------------------------------------------------------
# comparison protocols


def _bandwidth_config(spread_factor=500):
    return ExperimentConfig(spread_factor=spread_factor, n_users=7, sigma=0.8,
                            word_length=10, ensemble=3, seed=5)


def test_bandwidth_expansion_arithmetic():
    matrix = make_symmetric_matrix(0.8)
    entropy = source_stats(matrix).entropy_bits
    result = bandwidth_expansion_comparison(matrix, 0.0, 0.034, 0.09)
    assert result.protocol == "bandwidth_expansion"
    assert abs(result.rate - entropy) < 1e-12
    assert abs(result.p_comp - 0.09 / entropy) < 1e-12
    assert abs(result.ratio - entropy * 0.034 / 0.09) < 1e-12
    assert abs(result.ratio - result.p_corr / result.p_comp) < 1e-12
    # numerator arm: full load, correlated, the given matrix; everything
    # but the user count and the matrix is the config's
    corr, reduced = bandwidth_arms(_bandwidth_config(), matrix, 0.0, 0.8)
    assert corr == replace(_bandwidth_config(), matrix=matrix, n_users=400)
    # denominator arm: plain detector on memoryless bits at the rounded
    # reduced load
    assert reduced == replace(_bandwidth_config(), matrix=iid_matrix(),
                              variant="plain_mud",
                              n_users=int(round(400 * entropy)))  # 188


def test_bandwidth_expansion_rate_excess_rounds_users():
    matrix = make_symmetric_matrix(0.8)
    entropy = source_stats(matrix).entropy_bits
    result = bandwidth_expansion_comparison(matrix, 0.05, 0.034, 0.09)
    rate = 1.05 * entropy
    assert abs(result.rate - rate) < 1e-12
    corr, reduced = bandwidth_arms(_bandwidth_config(), matrix, 0.05, 0.8)
    assert reduced.n_users == int(round(400 * rate))  # 197
    # the correlated arm does not depend on the rate excess
    assert corr == bandwidth_arms(_bandwidth_config(), matrix, 0.0, 0.8)[0]
    # default amplification keeps the source's own redundancy factor
    assert abs(result.ratio - entropy * 0.034 / 0.09) < 1e-12


def test_bandwidth_expansion_rate_amplification_flag():
    matrix = make_symmetric_matrix(0.8)
    entropy = source_stats(matrix).entropy_bits
    rate = 1.05 * entropy
    result = bandwidth_expansion_comparison(matrix, 0.05, 0.034, 0.09,
                                            amplification="rate")
    assert abs(result.ratio - rate * 0.034 / 0.09) < 1e-12


def test_bandwidth_expansion_memoryless_degenerate():
    # Memoryless source at zero excess: rate 1, both arms at the same load.
    # Paired measurements then make the ratio exactly 1.
    corr, reduced = bandwidth_arms(_bandwidth_config(100), iid_matrix(),
                                   0.0, 0.5)
    assert corr.n_users == reduced.n_users == 50
    result = bandwidth_expansion_comparison(iid_matrix(), 0.0, 0.1234, 0.1234)
    assert result.ratio == 1.0


def test_bandwidth_expansion_domain_errors():
    matrix = make_symmetric_matrix(0.8)
    # entropy 0.993 at lambda2 = 0.1; five percent excess pushes past 1
    low = make_symmetric_matrix(0.1)
    with pytest.raises(ValueError, match="infeasible load"):
        bandwidth_arms(_bandwidth_config(4), matrix, 0.0, 0.25)
    with pytest.raises(ValueError, match="rate_excess must be >= 0"):
        bandwidth_arms(_bandwidth_config(), matrix, -0.01, 0.8)
    with pytest.raises(ValueError, match="rate_excess must be >= 0"):
        bandwidth_expansion_comparison(matrix, -0.01, 0.1, 0.1)
    with pytest.raises(ValueError, match="exceeds 1"):
        bandwidth_arms(_bandwidth_config(), low, 0.05, 0.8)
    with pytest.raises(ValueError, match="exceeds 1"):
        bandwidth_expansion_comparison(low, 0.05, 0.1, 0.1)
    with pytest.raises(ValueError, match="amplification must be one of"):
        bandwidth_expansion_comparison(matrix, 0.0, 0.1, 0.1,
                                       amplification="bogus")


def test_compression_point_quantities():
    matrix = make_symmetric_matrix(0.8)
    entropy = source_stats(matrix).entropy_bits
    assert compression_point(matrix) == (entropy, entropy)
    assert compression_point(matrix, 0.05) == (entropy, 1.05 * entropy)


@pytest.mark.parametrize("args, message", [
    ((make_symmetric_matrix(0.8), -0.01), "rate_excess must be >= 0"),
    ((make_symmetric_matrix(1.0),), "entropy is zero"),
    ((make_symmetric_matrix(-1.0),), "entropy is zero"),
    ((make_symmetric_matrix(0.1), 0.05), "exceeds 1"),
    ((make_symmetric_matrix(0.8), math.nan), "rate_excess must be >= 0"),
    ((make_symmetric_matrix(0.8), math.inf), "rate_excess must be >= 0"),
    # an int too large for a float is refused by name, not as OverflowError
    ((make_symmetric_matrix(0.8), 10**400), "rate_excess must be a real"),
])
def test_compression_point_rejects(args, message):
    with pytest.raises(ValueError, match=message):
        compression_point(*args)


def test_protocols_reject_a_non_finite_rate_excess():
    # the point's own check, not numpy, refuses it, in both protocol layers
    matrix = make_symmetric_matrix(0.8)
    with pytest.raises(ValueError, match="rate_excess must be >= 0"):
        bandwidth_expansion_comparison(matrix, math.nan, 0.05, 0.1)
    with pytest.raises(ValueError, match="rate_excess must be >= 0"):
        bandwidth_plan(_bandwidth_config(), [(0.8, matrix)], [math.nan], 0.5)


@pytest.mark.parametrize("spread_factor, base_beta, message", [
    (4, 0.25, "infeasible load"),
    (500, 0.0, "infeasible load"),
    (500, math.inf, "must be finite"),
    (500, math.nan, "must be finite"),
], ids=["no-user", "zero-load", "inf", "nan"])
def test_bandwidth_arms_reject_the_load(spread_factor, base_beta, message):
    # the user counts are the bandwidth protocol's: its arms check the load
    with pytest.raises(ValueError, match=message):
        bandwidth_arms(_bandwidth_config(spread_factor),
                       make_symmetric_matrix(0.8), 0.0, base_beta)


def test_protocols_check_the_point_before_running():
    # the bandwidth plan refuses the point before any arm exists, and both
    # protocols refuse it on their arithmetic too
    with pytest.raises(ValueError, match="exceeds 1"):
        bandwidth_arms(_bandwidth_config(), iid_matrix(), 0.1, 0.8)
    with pytest.raises(ValueError, match="exceeds 1"):
        bandwidth_expansion_comparison(iid_matrix(), 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match="entropy is zero"):
        bandwidth_arms(_bandwidth_config(), make_symmetric_matrix(1.0), 0.0,
                       0.8)
    with pytest.raises(ValueError, match="entropy is zero"):
        fixed_load_comparison(make_symmetric_matrix(1.0), 0.1, 0.1)
    # an error rate above 1 is no comparison
    with pytest.raises(ValueError, match="p_corr outside"):
        fixed_load_comparison(make_symmetric_matrix(0.8), 1.2, 0.1)


def test_fixed_load_comparison_arithmetic():
    matrix = make_symmetric_matrix(0.8)
    entropy = source_stats(matrix).entropy_bits
    result = fixed_load_comparison(matrix, 0.034, 0.16)
    expected = bsc_residual_error(entropy, 0.16)
    assert result.protocol == "fixed_load_bsc"
    assert abs(result.p_comp - expected) < 1e-12
    assert abs(result.ratio - 0.034 / expected) < 1e-12
    assert abs(result.rate - entropy) < 1e-12


def test_fixed_load_comparison_error_free_channel():
    matrix = make_symmetric_matrix(0.8)
    result = fixed_load_comparison(matrix, 0.01, 0.02)
    assert result.p_comp == 0.0
    assert math.isinf(result.ratio)
    both_zero = fixed_load_comparison(matrix, 0.0, 0.0)
    assert both_zero.ratio == 1.0


# ---------------------------------------------------------------------------
# saturation metric


def _crossing_oracle(ber, factor):
    # Direct restatement: first position at or under threshold.
    ber = np.asarray(ber, dtype=float)
    if not ber.any():
        return 0.0
    threshold = factor * ber.min()
    for start in range(ber.size):
        if ber[start] <= threshold:
            return start / ber.size
    raise AssertionError("minimum itself is under threshold by construction")


def test_saturation_hand_example():
    ber = [0.10, 0.05, 0.030, 0.024, 0.024, 0.024]
    assert saturation_position(ber, 1.2) == 0.5


def test_saturation_trivial_cases():
    assert saturation_position([0.07, 0.07, 0.07, 0.07], 1.2) == 0.0
    assert saturation_position([0.0, 0.0, 0.0], 1.2) == 0.0
    # a still-elevated last position does not move the crossing
    assert saturation_position([0.01, 0.01, 0.05], 1.2) == 0.0


def test_saturation_tail_elevated_curve():
    # Both word edges elevated: the crossing reads the head width and
    # ignores the elevated tail.
    ber = [0.10, 0.05, 0.030, 0.024, 0.024, 0.050]
    assert saturation_position(ber, 1.2) == 0.5


def test_saturation_matches_oracles_on_random_curves():
    rng = np.random.default_rng(17)
    for _ in range(300):
        size = int(rng.integers(2, 40))
        ber = rng.uniform(0.0, 0.2, size=size)
        factor = float(rng.uniform(1.05, 2.0))
        assert saturation_position(ber, factor) == _crossing_oracle(ber, factor)


def test_saturation_scaling_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        ber = rng.uniform(0.001, 0.2, size=25)
        base = saturation_position(ber, 1.2)
        assert saturation_position(7.3 * ber, 1.2) == base


def test_saturation_validation():
    with pytest.raises(ValueError):
        saturation_position([0.1], 1.2)
    with pytest.raises(ValueError):
        saturation_position([0.1, -0.1], 1.2)
    for factor in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold_factor"):
            saturation_position([0.1, 0.2], factor)
    for ber in ([0.1, math.nan, 0.2], [math.inf, math.inf], [0.1, math.inf]):
        with pytest.raises(ValueError, match="BER values must be >= 0 and "
                                             "finite"):
            saturation_position(ber, 1.2)


def test_saturation_default_factor_is_the_named_one():
    ber = [0.3, 0.13, 0.11, 0.1, 0.1]  # 0.11 <= 1.2 * 0.1 < 0.13
    assert saturation_position(ber) == 2 / 5
    assert DEFAULT_THRESHOLD_FACTOR == 1.2


# ---------------------------------------------------------------------------
# log-log slope fit


def test_loglog_slope_exact_power_law():
    lengths = np.array([10.0, 20.0, 40.0, 80.0])
    positions = 3.7 / lengths
    slope, intercept = fit_loglog_slope(lengths, positions)
    assert abs(slope - (-1.0)) < 1e-12
    assert abs(intercept - math.log(3.7)) < 1e-12


def test_loglog_slope_excludes_zeros_with_warning():
    lengths = np.array([10.0, 20.0, 40.0, 80.0])
    positions = np.array([0.4, 0.2, 0.1, 0.0])
    with pytest.warns(UserWarning):
        slope, _ = fit_loglog_slope(lengths, positions)
    assert abs(slope - (-1.0)) < 1e-12


def test_loglog_slope_needs_two_points():
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            fit_loglog_slope([10.0, 20.0], [0.1, 0.0])


@pytest.mark.parametrize("lengths, positions, name", [
    ([10.0, 20.0, 40.0], [0.4, math.nan, 0.1], "positions"),
    ([10.0, 20.0, 40.0], [0.4, math.inf, 0.1], "positions"),
    ([10.0, 20.0, 40.0], [0.4, -0.2, 0.1], "positions"),
    ([10.0, 0.0, 40.0], [0.4, 0.2, 0.1], "lengths"),
    ([10.0, -20.0, 40.0], [0.4, 0.2, 0.1], "lengths"),
    ([10.0, math.nan, 40.0], [0.4, 0.2, 0.1], "lengths"),
    ([10.0, math.inf, 40.0], [0.4, 0.2, 0.1], "lengths"),
    ([10.0, 20.0, 40.0], [0.4, 0.2], "lengths and positions"),
    ([[10.0, 20.0], [40.0, 80.0]], [[0.4, 0.2], [0.1, 0.05]],
     "lengths and positions"),
], ids=["nan-position", "inf-position", "negative-position", "zero-length",
        "negative-length", "nan-length", "inf-length", "unequal-size",
        "two-d"])
def test_loglog_slope_rejects_what_it_cannot_fit(lengths, positions, name):
    # refused by name, before numpy's log warns or a NaN counts as a zero
    with pytest.raises(ValueError, match=f"^{name} must be"):
        fit_loglog_slope(lengths, positions)
