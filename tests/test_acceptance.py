"""Acceptance gate: the ten binding reproduction criteria.

Every test prints exactly one `C<n> PASS/FAIL: ...` line with the measured
quantity and its pinned tolerance. The lines are also registered with the
conftest summary hook so they appear in the run report even when capture
is on and every test passes. Criteria are independent; a failure in one
never masks another.

Criterion 7 is a deliberate honest failure: at the documented correlation
(lambda2 = 0.8) the fixed-load recompression baseline outperforms the
one-hop-bias detector, so the required ratio < 1 is not reached. The
diagnostic rows printed with it show the protocol crossing below 1 only
for lambda2 <= 0.5. The threshold is asserted as stated rather than
weakened or re-targeted at a passing correlation.
"""

from dataclasses import replace

import numpy as np
import pytest

import conftest

from corrcdma.baselines import (
    binary_entropy,
    bsc_residual_error,
    inverse_binary_entropy,
)
from corrcdma.channel import generate_spreading, transmit
from corrcdma.cli import _bias_enumeration_error
from corrcdma.detectors import (
    DetectorDivergence,
    DetectorOptions,
    correlated_mud_detect,
    mud_detect,
)
from corrcdma.harness import (
    ExperimentConfig,
    bandwidth_plan,
    fixed_plan,
    length_scaling_study,
    mismatch_plan,
    monte_carlo,
    monte_carlo_arms,
    normalized_ber_sweep,
    write_ber_csv,
)
from corrcdma.markov import (
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
    source_stats,
)

pytestmark = pytest.mark.acceptance


def _report(criterion: str, passed: bool, detail: str) -> bool:
    line = f"{criterion} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    return passed


def _note(detail: str) -> None:
    line = f"     note: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)


def test_criterion_01_reduction_identity():
    """Correlated MUD with a memoryless matrix is bit-identical to the
    plain MUD on 100 paired trials (N=250, beta=0.8, sigma=0.8, L=30)."""
    matrix = iid_matrix()
    opts = DetectorOptions(max_iters=50)
    identical = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([101, trial, 0]))
        block = generate_block(matrix, 200, 30, rng)
        spreading = generate_spreading(250, 200, rng)
        received = transmit(spreading, block, 0.8, rng)
        plain = mud_detect(spreading, received, 0.8, opts)
        corr = correlated_mud_detect(spreading, received, matrix, 0.8, opts)
        identical += np.array_equal(plain.bits, corr.bits)
    ok = _report("C1", identical == trials,
                 f"{identical}/{trials} paired trials bit-identical "
                 f"(tolerance: exact)")
    assert ok


def test_criterion_02_bias_oracle():
    """local_bias with hard neighbors (soft values +-1) equals the enumerated
    conditional posterior mean for 4 neighbor configs x 20 matrices."""
    worst = _bias_enumeration_error(np.random.default_rng(102), 20)
    ok = _report("C2", worst < 1e-12,
                 f"max |bias - enumerated posterior| = {worst:.3e} "
                 f"(tolerance 1e-12)")
    assert ok


def test_criterion_03_small_instance_map_agreement():
    """Plain MUD matches exact marginal-posterior MAP (4-hypothesis
    enumeration) at K=2, N=4, fixed chips, sigma=0.8 on >= 95 % of 1e4
    realizations."""
    sigma, trials = 0.8, 10**4
    spreading = generate_spreading(4, 2, np.random.default_rng(303))
    assert not np.array_equal(spreading.chips[:, 0], spreading.chips[:, 1])
    rng = np.random.default_rng(304)
    block = generate_block(iid_matrix(), 2, trials, rng)
    received = transmit(spreading, block, sigma, rng)
    result = mud_detect(spreading, received, sigma,
                        DetectorOptions(max_iters=60))

    hyps = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=np.float64)
    signals = (spreading.chips.astype(np.float64) @ hyps.T) / np.sqrt(4.0)
    residual = received[:, None, :] - signals[:, :, None]
    loglik = -(residual ** 2).sum(axis=0) / (2.0 * sigma ** 2)
    weights = np.exp(loglik - loglik.max(axis=0, keepdims=True))
    map_bits = np.empty((2, trials), dtype=np.int8)
    for user in range(2):
        plus = weights[hyps[:, user] > 0].sum(axis=0)
        minus = weights[hyps[:, user] < 0].sum(axis=0)
        map_bits[user] = np.where(plus >= minus, 1, -1)

    per_realization = float((result.bits == map_bits).all(axis=0).mean())
    ok = _report("C3", per_realization >= 0.95,
                 f"MAP agreement on {per_realization:.2%} of {trials} "
                 f"realizations (threshold 95 %)")
    assert ok


def test_criterion_04_normalized_ber_improvement():
    """Paired correlated/plain BER ratio < 0.9 at lambda2=0.8, N=500,
    beta=0.8, sigma=0.8, L=100, ensemble 100."""
    config = ExperimentConfig(spread_factor=500, n_users=400, sigma=0.8,
                              word_length=100,
                              matrix=make_symmetric_matrix(0.8),
                              ensemble=100, seed=104)
    (point,) = normalized_ber_sweep(config, [0.8])
    ok = _report("C4", point.normalized < 0.9,
                 f"normalized BER {point.normalized:.4f} "
                 f"(corr {point.p_corr:.5f} / plain {point.p_plain:.5f}, "
                 f"threshold < 0.9)")
    assert ok


def test_criterion_05_edge_versus_interior_structure():
    """At lambda2=0.8, L=120, N=500, beta=0.8, ensemble 100: at least 90 %
    of word positions sit within 1.2x of the minimum-position BER."""
    config = ExperimentConfig(spread_factor=500, n_users=400, sigma=0.8,
                              word_length=120,
                              matrix=make_symmetric_matrix(0.8),
                              variant="correlated_mud", ensemble=100,
                              seed=105)
    report = monte_carlo(config)
    curve = report.per_position
    fraction = float((curve <= 1.2 * curve.min()).mean())
    ok = _report("C5", fraction >= 0.90,
                 f"{fraction:.2%} of {config.word_length} positions within "
                 f"1.2x the minimum BER {curve.min():.5f} (threshold 90 %)")
    assert ok


def test_criterion_06_inverse_length_saturation_scaling():
    """Log-log slope of saturation position over L in {10,20,40,80} at
    N=250, beta=0.8 lies in [-1.3, -0.7]."""
    config = ExperimentConfig(spread_factor=250, n_users=200, sigma=0.8,
                              word_length=10,
                              matrix=make_symmetric_matrix(0.8),
                              variant="correlated_mud", ensemble=300,
                              seed=106)
    result = length_scaling_study(config, [10, 20, 40, 80])
    ok = _report("C6", -1.3 <= result.slope <= -0.7,
                 f"fitted slope {result.slope:.4f} over positions "
                 f"{[round(p, 4) for p in result.positions]} "
                 f"(window [-1.3, -0.7])")
    assert ok


def test_criterion_07_fixed_load_compression_table():
    """Fixed-load protocol at sigma=0.8, beta=0.8, N=1000, ensemble 100,
    documented assumed lambda2 = 0.8 and L = 100: requires error ratio
    below the ideal-recompression baseline (ratio < 1).

    Expected to FAIL: the one-hop bias recipe's self-consistent fixed
    point measures ~1.7x the baseline at this correlation, and exact
    chain smoothing on its converged fields moves the BER by under 2 %,
    so the shortfall is structural rather than a convergence or decision
    artifact. Diagnostic rows below show the ratio dipping under 1 only
    for lambda2 <= 0.5. The assertion is kept as stated."""
    assumed_lambda2 = 0.8
    config = ExperimentConfig(spread_factor=1000, n_users=800, sigma=0.8,
                              word_length=100,
                              matrix=make_symmetric_matrix(assumed_lambda2),
                              ensemble=100, seed=107)
    plan = fixed_plan(config, [(assumed_lambda2, config.matrix)])
    reports = monte_carlo_arms(plan.runs)
    ((_, _, _, comparison),) = plan.reduce(reports)
    p_corr, crossover = (reports[arm].aggregate for arm in plan.runs)

    detail = (f"fixed-load ratio {comparison.ratio:.4f} at documented "
              f"lambda2={assumed_lambda2}, L={config.word_length} "
              f"(P_corr {p_corr:.5f}, P_comp {comparison.p_comp:.5f}, "
              f"plain crossover {crossover:.5f}, threshold < 1)")
    ok = _report("C7", comparison.ratio < 1.0, detail)

    # Where the protocol does cross below 1: the plain-detector crossover
    # is correlation-independent, so only the correlated arm is rerun.
    for lam in (0.3, 0.4, 0.5, 0.6):
        diag = monte_carlo(replace(config,
                                   matrix=make_symmetric_matrix(lam),
                                   ensemble=30))
        entropy = source_stats(make_symmetric_matrix(lam)).entropy_bits
        residual = bsc_residual_error(entropy, crossover)
        _note(f"C7 at lambda2 {lam:g}: ratio "
              f"{diag.aggregate / residual:.3f} "
              f"(corr {diag.aggregate:.5f} / baseline {residual:.5f}, "
              f"ensemble 30)")
    assert ok, detail


def test_criterion_08_bandwidth_expansion_comparison():
    """Bandwidth-expansion protocol at beta=0.8, sigma=0.8, N=500, L=30,
    ensemble 100: ratio < 1 at lambda2 in {0.5, 0.8}, and the 5 % rate
    excess strictly worsens the compression arm at matched seeds."""
    config = ExperimentConfig(spread_factor=500, n_users=400, sigma=0.8,
                              word_length=30,
                              matrix=make_symmetric_matrix(0.8),
                              ensemble=100, seed=108)
    rows = bandwidth_plan(
        config, [(lam, make_symmetric_matrix(lam)) for lam in (0.5, 0.8)],
        (0.0, 0.05), 0.8).run()
    comparisons = {(lam, eps): comparison
                   for lam, _, eps, comparison in rows}

    passed = True
    details = []
    for lam in (0.5, 0.8):
        exact, excess = comparisons[lam, 0.0], comparisons[lam, 0.05]
        passed &= exact.ratio < 1.0 and excess.ratio < 1.0
        passed &= excess.ratio < exact.ratio
        details.append(f"lambda2 {lam:g}: ratio {exact.ratio:.3f} (eps=0) / "
                       f"{excess.ratio:.3f} (eps=0.05)")
    ok = _report("C8", passed,
                 "; ".join(details) + " (both < 1, excess strictly below)")
    assert ok


def test_criterion_09_mismatch_robustness():
    """Detector-assumed matrix perturbed by +-10 % at lambda2=0.6, N=500,
    beta=0.8, L=100, ensemble 100: normalized BER stays below 1."""
    config = ExperimentConfig(spread_factor=500, n_users=400, sigma=0.8,
                              word_length=100,
                              matrix=make_symmetric_matrix(0.6),
                              ensemble=100, seed=109)
    points = mismatch_plan(config, [-0.10, 0.10], [0.6]).run()
    passed = all(p.feasible and p.normalized < 1.0 for p in points)
    detail = "; ".join(f"delta {p.rel_delta:+.2f} normalized "
                       f"{p.normalized:.4f}" for p in points)
    ok = _report("C9", passed, detail + " (threshold < 1)")
    assert ok


def test_criterion_10_numeric_and_property_suite(tmp_path):
    """Entropy inversion to 1e-9 over 1e3 points; matrix and iteration
    bounds on 1e3 random detector runs; byte-identical reports and CSV
    for 1 vs 3 workers."""
    rng = np.random.default_rng(110)
    points = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 0.5, size=998)])
    round_trip = max(abs(inverse_binary_entropy(binary_entropy(p)) - p)
                     for p in points)
    entropy_ok = round_trip < 1e-9

    bounds_ok = True
    divergences = 0
    for _ in range(1000):
        lam = float(rng.uniform(0.0, 0.95))
        matrix = make_symmetric_matrix(lam)
        rows = matrix.matrix.sum(axis=1)
        bounds_ok &= bool(np.all(np.abs(rows - 1.0) < 1e-12))
        mu = matrix.stationary()
        bounds_ok &= bool(np.max(np.abs(mu @ matrix.matrix - mu)) < 1e-12)

        n = int(rng.integers(8, 49))
        k = max(2, int(round(n * rng.uniform(0.2, 1.2))))
        length = int(rng.integers(2, 9))
        sigma = float(rng.uniform(0.3, 1.5))
        block = generate_block(matrix, k, length, rng)
        spreading = generate_spreading(n, k, rng)
        received = transmit(spreading, block, sigma, rng)
        try:
            result = correlated_mud_detect(
                spreading, received, matrix, sigma,
                DetectorOptions(max_iters=25, track_bounds=True))
        except DetectorDivergence:
            divergences += 1
            continue
        for q_min, q_max, a_min, a_max, eta_max in result.bounds:
            bounds_ok &= 0.0 <= q_min <= q_max <= 1.0
            bounds_ok &= 0.0 < a_min <= a_max
            bounds_ok &= eta_max <= 1.0

    config = ExperimentConfig(spread_factor=100, n_users=60, sigma=0.8,
                              word_length=16,
                              matrix=make_symmetric_matrix(0.8),
                              ensemble=12, seed=1010)
    serial = monte_carlo(config, workers=1)
    parallel = monte_carlo(config, workers=3)
    first, second = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_ber_csv(first, serial)
    write_ber_csv(second, parallel)
    workers_ok = (np.array_equal(serial.errors_by_position,
                                 parallel.errors_by_position)
                  and first.read_bytes() == second.read_bytes())

    ok = _report("C10", entropy_ok and bounds_ok and workers_ok,
                 f"entropy round-trip max err {round_trip:.2e} (tol 1e-9); "
                 f"1000 detector runs bounds ok={bounds_ok} "
                 f"(divergences {divergences}); reports byte-identical "
                 f"across 1 vs 3 workers: {workers_ok}")
    assert ok
