"""Determinism, pairing, and aggregation contracts of the experiment layer.

The harness promises that a report is a pure function of its config: the
oracle tests here re-aggregate raw trial counts by hand, rerun everything
with different worker counts, and check the exact count identities the
report claims.
"""

import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from corrcdma.harness import (
    BerReport,
    ExperimentConfig,
    default_workers,
    length_scaling_study,
    make_ber_runner,
    mismatch_study,
    monte_carlo,
    normalized_ber_sweep,
    read_csv_with_header,
    run_trial,
    write_ber_csv,
    write_comparison_csv,
    write_length_csv,
    write_mismatch_csv,
    write_sweep_csv,
)
from corrcdma.baselines import bandwidth_expansion_comparison
from corrcdma.markov import TransitionMatrix, make_symmetric_matrix, source_stats


def small_config(**overrides):
    """A seconds-scale operating point with a visibly nonzero error rate."""
    base = dict(spread_factor=60, n_users=30, sigma=0.8, word_length=12,
                matrix=make_symmetric_matrix(0.8), variant="correlated_mud",
                ensemble=6, seed=7, max_iters=30)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation and serialization


def test_config_rejects_out_of_range_fields():
    for bad in (dict(sigma=-0.1), dict(ensemble=0), dict(seed=-1),
                dict(max_iters=0), dict(word_length=0), dict(n_users=0),
                dict(variant="mf"), dict(schedule="diagonal"),
                dict(sigma=0.0), dict(sigma=0.0, variant="plain_mud"),
                dict(blind=True, word_length=1), dict(sigma=np.nan),
                dict(sigma=np.inf), dict(sigma=-np.inf),
                dict(sigma=np.nan, variant="plain_sumf")):
        with pytest.raises(ValueError):
            small_config(**bad)


@pytest.mark.parametrize("data, key", [
    ({"sigma": "nan"}, "sigma"),
    ({"load": "inf"}, "load"),
    ({"lambda2": "nan"}, "lambda2"),
    ({"seed": float("inf")}, "seed"),
    ({"ensemble": [3]}, "ensemble"),
], ids=["sigma-nan", "load-inf", "lambda2-nan", "seed-inf", "ensemble-list"])
def test_from_dict_names_the_key_of_a_value_it_cannot_cast(data, key):
    with pytest.raises(ValueError, match=f"config key {key}"):
        ExperimentConfig.from_dict(data)


def test_config_rejects_infeasible_mismatch_eagerly():
    # lambda2 = 0.9 puts the stay probability at 0.95; +10 % leaves [0, 1].
    with pytest.raises(ValueError):
        small_config(matrix=make_symmetric_matrix(0.9), mismatch=0.10)


def test_config_requires_transition_matrix_instance():
    with pytest.raises(ValueError):
        small_config(matrix=np.eye(2))


def test_from_dict_load_rounds_user_count():
    cfg = ExperimentConfig.from_dict({"spread_factor": 250, "load": 0.8,
                                      "ensemble": 1})
    assert cfg.n_users == 200
    assert cfg.load == pytest.approx(0.8)
    assert ExperimentConfig.from_dict({"spread_factor": 3, "load": 0.5,
                                       "ensemble": 1}).n_users == 2


def test_beta_above_one_is_supported():
    cfg = small_config(spread_factor=20, n_users=30, ensemble=2)
    assert cfg.load == 1.5
    report = monte_carlo(cfg)
    assert report.bits_total == 30 * 12 * 2


def test_config_dict_round_trip():
    cfg = small_config(blind=True, schedule="PUS", mismatch=0.05)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert isinstance(again.matrix, TransitionMatrix)


def test_from_dict_accepts_string_values():
    cfg = ExperimentConfig.from_dict({
        "spread_factor": "80", "n_users": "40", "sigma": "0.5",
        "word_length": "9", "lambda2": "0.6", "variant": "plain_mud",
        "schedule": "BFUS", "blind": "yes", "mismatch": "0.0",
        "ensemble": "3", "seed": "11", "max_iters": "25",
    })
    assert cfg.spread_factor == 80 and cfg.n_users == 40
    assert cfg.matrix == make_symmetric_matrix(0.6)
    assert cfg.blind is True and cfg.schedule == "BFUS"


def test_from_dict_load_shorthand():
    cfg = ExperimentConfig.from_dict({"spread_factor": 50, "load": "0.8",
                                      "ensemble": 1})
    assert cfg.n_users == 40


def test_from_dict_rejects_conflicting_shorthands():
    with pytest.raises(ValueError, match="lambda2 and matrix"):
        ExperimentConfig.from_dict({"lambda2": 0.5, "matrix": "1,0,0,1"})
    with pytest.raises(ValueError, match="load and n_users"):
        ExperimentConfig.from_dict({"load": 0.5, "n_users": 10})


def test_from_dict_names_the_unknown_key():
    with pytest.raises(ValueError, match="beta"):
        ExperimentConfig.from_dict({"beta": 0.8})


def test_from_dict_rejects_non_boolean_blind():
    with pytest.raises(ValueError, match="blind"):
        ExperimentConfig.from_dict({"blind": "maybe"})


# ---------------------------------------------------------------------------
# run_trial contracts


def test_trial_is_deterministic():
    cfg = small_config()
    first = run_trial(cfg, 3)
    second = run_trial(cfg, 3)
    assert np.array_equal(first.errors_by_position, second.errors_by_position)
    assert np.array_equal(first.iters, second.iters)
    assert first.unconverged_positions == second.unconverged_positions


def test_trials_differ_across_indices():
    cfg = small_config()
    outcomes = [run_trial(cfg, i).errors_by_position for i in range(4)]
    assert any(not np.array_equal(outcomes[0], other) for other in outcomes[1:])


def test_easy_operating_point_is_error_free():
    cfg = small_config(sigma=0.01, n_users=6, ensemble=3)
    for variant in ("plain_mud", "correlated_mud", "plain_sumf",
                    "correlated_sumf"):
        report = monte_carlo(replace(cfg, variant=variant))
        assert report.errors_total == 0, variant
        assert report.aggregate == 0.0


def test_zero_mismatch_matches_unperturbed_run():
    cfg = small_config(mismatch=0.0)
    base = run_trial(cfg, 0)
    same = run_trial(replace(cfg, mismatch=0.0), 0)
    assert np.array_equal(base.errors_by_position, same.errors_by_position)


def test_random_schedule_is_deterministic_and_distinct():
    cfg = small_config(schedule="RSUS", ensemble=4)
    assert np.array_equal(run_trial(cfg, 1).errors_by_position,
                          run_trial(cfg, 1).errors_by_position)
    # the shuffle stream must not disturb the channel realization: the
    # plain detector ignores schedules entirely
    plain = replace(cfg, variant="plain_mud")
    plain_sus = replace(cfg, variant="plain_mud", schedule="SUS")
    assert np.array_equal(run_trial(plain, 2).errors_by_position,
                          run_trial(plain_sus, 2).errors_by_position)


def test_divergent_trial_falls_back_to_matched_filter(monkeypatch):
    from corrcdma import detectors
    from corrcdma.detectors import DetectorDivergence, sumf_detect

    def blow_up(*args, **kwargs):
        raise DetectorDivergence("forced")

    monkeypatch.setattr(detectors, "_mud_step", blow_up)
    cfg = small_config(variant="plain_mud")
    outcome = run_trial(cfg, 0)
    assert outcome.diverged
    assert outcome.unconverged_positions == cfg.word_length

    # the counted errors are exactly the matched-filter fallback's
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 0]))
    from corrcdma.channel import generate_spreading, transmit
    from corrcdma.markov import generate_block
    block = generate_block(cfg.matrix, cfg.n_users, cfg.word_length, rng)
    spreading = generate_spreading(cfg.spread_factor, cfg.n_users, rng)
    received = transmit(spreading, block, cfg.sigma, rng)
    expected = (sumf_detect(spreading, received).bits != block).sum(axis=0)
    assert np.array_equal(outcome.errors_by_position, expected)

    report = monte_carlo(cfg)
    assert report.divergences == cfg.ensemble


def test_divergence_inside_a_group_falls_back_for_that_trial_only(
        monkeypatch):
    from corrcdma import detectors, harness
    from corrcdma.channel import generate_spreading, transmit
    from corrcdma.detectors import sumf_detect
    from corrcdma.markov import generate_block

    cfg = small_config(ensemble=3)
    assert harness.group_size(cfg) == 3
    alone = [run_trial(cfg, index) for index in range(3)]
    real_step = detectors._mud_step

    def step(cols, soft, *rest):
        # at the first step every column is active, so the rows of slot b
        # start at row b; slot 1 holds trial 1
        if rest[-1] == 0 and cols[0] == 1:
            soft[cols[0], 0] = np.nan
        return real_step(cols, soft, *rest)

    monkeypatch.setattr(detectors, "_mud_step", step)
    outcomes = harness.run_trials(cfg, range(3))
    assert outcomes[1].diverged
    assert outcomes[1].unconverged_positions == cfg.word_length
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, 0]))
    block = generate_block(cfg.matrix, cfg.n_users, cfg.word_length, rng)
    spreading = generate_spreading(cfg.spread_factor, cfg.n_users, rng)
    received = transmit(spreading, block, cfg.sigma, rng)
    expected = (sumf_detect(spreading, received).bits != block).sum(axis=0)
    assert np.array_equal(outcomes[1].errors_by_position, expected)
    for index in (0, 2):
        assert not outcomes[index].diverged
        assert np.array_equal(outcomes[index].errors_by_position,
                              alone[index].errors_by_position)
        assert np.array_equal(outcomes[index].iters, alone[index].iters)
        assert (outcomes[index].unconverged_positions
                == alone[index].unconverged_positions)
    assert monte_carlo(cfg).divergences == 1


def test_group_size_rule():
    from corrcdma.harness import group_size

    c6 = ExperimentConfig(spread_factor=250, n_users=200, word_length=10,
                          ensemble=8)
    assert group_size(c6, 2) == 4  # a worker's share of the ensemble
    assert group_size(c6) == 5     # about 1,000 users
    c7 = ExperimentConfig(spread_factor=1000, n_users=800, ensemble=100)
    assert group_size(c7) == group_size(c7, 2) == 1
    # an RSUS shuffle and a blind estimate belong to one realization
    assert group_size(replace(c6, schedule="RSUS"), 2) == 1
    assert group_size(replace(c6, blind=True), 2) == 1
    assert group_size(replace(c6, variant="plain_mud", schedule="RSUS"),
                      2) == 4


# ---------------------------------------------------------------------------
# monte_carlo aggregation


def test_report_matches_hand_aggregation():
    cfg = small_config()
    report = monte_carlo(cfg)
    counts = np.zeros(cfg.word_length, dtype=np.int64)
    for index in range(cfg.ensemble):
        counts += run_trial(cfg, index).errors_by_position
    bits_per_position = cfg.n_users * cfg.ensemble
    assert np.array_equal(report.errors_by_position, counts)
    assert report.errors_total == int(counts.sum())
    assert report.bits_total == bits_per_position * cfg.word_length
    assert report.aggregate == report.errors_total / report.bits_total
    assert np.array_equal(report.per_position, counts / bits_per_position)
    expected_se = np.sqrt(report.per_position * (1 - report.per_position)
                          / bits_per_position)
    assert np.allclose(report.std_err, expected_se, rtol=0, atol=0)


def test_single_sample_report_equals_its_trial():
    cfg = small_config(ensemble=1)
    report = monte_carlo(cfg)
    outcome = run_trial(cfg, 0)
    assert np.array_equal(report.errors_by_position,
                          outcome.errors_by_position)
    assert report.iters_max == int(outcome.iters.max())


def test_reports_are_read_only():
    report = monte_carlo(small_config(ensemble=2))
    with pytest.raises(ValueError):
        report.per_position[0] = 0.5
    with pytest.raises(ValueError):
        report.errors_by_position[0] = 1


def test_worker_count_does_not_change_the_report():
    cfg = small_config(ensemble=8)
    serial = monte_carlo(cfg, workers=1)
    parallel = monte_carlo(cfg, workers=3)
    assert np.array_equal(serial.errors_by_position,
                          parallel.errors_by_position)
    assert serial.aggregate == parallel.aggregate
    assert serial.iters_median == parallel.iters_median
    assert serial.iters_max == parallel.iters_max
    assert serial.unconverged_positions == parallel.unconverged_positions


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        monte_carlo(small_config(), workers=0)


def test_standard_errors_shrink_with_ensemble():
    cfg = small_config(ensemble=5, seed=19)
    bigger = replace(cfg, ensemble=20)
    se_small = monte_carlo(cfg).std_err.mean()
    se_big = monte_carlo(bigger).std_err.mean()
    # quadrupling the ensemble should halve the binomial standard error
    assert 0.4 < se_big / se_small < 0.6


# ---------------------------------------------------------------------------
# paired studies


def test_sweep_at_zero_correlation_is_exactly_one():
    cfg = small_config(ensemble=4)
    (point,) = normalized_ber_sweep(cfg, [0.0])
    assert point.normalized == 1.0
    assert point.errors_corr == point.errors_plain
    assert point.p_corr == point.p_plain


def test_sweep_validates_eigenvalue_range():
    # every value is checked before the first arm runs
    cfg = small_config(ensemble=1)
    ran = []
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match=f"got {bad}"):
            normalized_ber_sweep(cfg, [0.5, bad], run_report=ran.append)
    assert ran == []


def test_sweep_reports_correlation_length():
    cfg = small_config(ensemble=2)
    (point,) = normalized_ber_sweep(cfg, [0.8])
    expected = source_stats(make_symmetric_matrix(0.8)).correlation_length
    assert point.lambda2 == 0.8
    assert point.correlation_length == pytest.approx(expected)
    assert point.normalized == point.p_corr / point.p_plain


def test_error_free_pair_normalizes_to_one():
    cfg = small_config(sigma=0.01, n_users=6, ensemble=2)
    (point,) = normalized_ber_sweep(cfg, [0.5])
    assert point.p_plain == 0.0 and point.p_corr == 0.0
    assert point.normalized == 1.0


def test_length_study_recovers_injected_inverse_length_law():
    cfg = small_config(ensemble=1)

    def synthetic(cfg_for_length):
        length = cfg_for_length.word_length
        curve = np.full(length, 0.01)
        curve[:3] = 0.1  # fixed three-symbol head, crossing at position 3
        return SimpleNamespace(per_position=curve)

    result = length_scaling_study(cfg, [10, 20, 40, 80], run_report=synthetic)
    assert result.positions == tuple(3 / l for l in (10, 20, 40, 80))
    assert result.slope == pytest.approx(-1.0, abs=1e-12)
    assert result.intercept == pytest.approx(np.log(3.0), abs=1e-12)


@pytest.mark.parametrize("factor", [1.0, 0.5, np.nan, np.inf])
def test_length_study_checks_the_threshold_before_any_run(factor):
    ran = []
    with pytest.raises(ValueError, match="threshold_factor"):
        length_scaling_study(small_config(ensemble=1), [10, 20, 40], factor,
                             run_report=ran.append)
    assert ran == []


def test_length_study_aborts_on_flat_curves():
    cfg = small_config(ensemble=1)
    flat = lambda c: SimpleNamespace(per_position=np.zeros(c.word_length))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            length_scaling_study(cfg, [10, 20, 40], run_report=flat)


def test_length_study_needs_three_distinct_lengths():
    with pytest.raises(ValueError):
        length_scaling_study(small_config(), [10, 10, 10])


def test_length_study_checks_every_length_before_running():
    ran = []
    with pytest.raises(ValueError, match="word_length must be >= 1"):
        length_scaling_study(small_config(ensemble=1), [10, 20, 0],
                             run_report=ran.append)
    assert ran == []


def test_mismatch_study_records_infeasible_points():
    cfg = small_config(ensemble=2)
    points = mismatch_study(cfg, [0.10], [0.9])
    (point,) = points
    assert not point.feasible
    assert point.reason and "0.9" in point.reason or point.reason
    assert np.isnan(point.p_corr) and np.isnan(point.normalized)


def test_mismatch_study_checks_every_eigenvalue_before_running():
    ran = []
    with pytest.raises(ValueError, match="lambda2 must lie in"):
        mismatch_study(small_config(ensemble=1), [0.1], [0.5, 1.5],
                       run_report=ran.append)
    assert ran == []


def test_mismatch_study_runs_each_plain_arm_once_per_eigenvalue():
    # the plain arm runs at the first feasible delta, then serves the rest
    ran = []

    def record(cfg):
        ran.append((cfg.variant, cfg.matrix.lambda2, cfg.mismatch))
        return SimpleNamespace(aggregate=0.1)

    mismatch_study(small_config(ensemble=1), [0.1, -0.05, 0.05], [0.9, 0.3],
                   run_report=record)
    assert ran == [
        ("plain_mud", pytest.approx(0.9), 0.0),
        ("correlated_mud", pytest.approx(0.9), -0.05),
        ("correlated_mud", pytest.approx(0.9), 0.05),
        ("plain_mud", pytest.approx(0.3), 0.0),
        ("correlated_mud", pytest.approx(0.3), 0.1),
        ("correlated_mud", pytest.approx(0.3), -0.05),
        ("correlated_mud", pytest.approx(0.3), 0.05),
    ]


def test_mismatch_study_zero_delta_matches_sweep():
    cfg = small_config(ensemble=3)
    (sweep_point,) = normalized_ber_sweep(cfg, [0.6])
    (mis_point,) = mismatch_study(cfg, [0.0], [0.6])
    assert mis_point.feasible
    assert mis_point.normalized == sweep_point.normalized
    assert mis_point.p_corr == sweep_point.p_corr


def test_mismatch_study_orders_points_per_eigenvalue():
    cfg = small_config(ensemble=1)
    points = mismatch_study(cfg, [-0.05, 0.05], [0.3, 0.5])
    assert [(p.lambda2, p.rel_delta) for p in points] == [
        (0.3, -0.05), (0.3, 0.05), (0.5, -0.05), (0.5, 0.05)]


def test_ber_runner_pins_everything_but_the_arm():
    cfg = small_config(ensemble=2)
    run_ber = make_ber_runner(cfg)
    value = run_ber(cfg.matrix, cfg.n_users, cfg.sigma, True)
    assert value == monte_carlo(cfg).aggregate
    comparison = bandwidth_expansion_comparison(
        make_symmetric_matrix(0.8), cfg.spread_factor, 0.5, cfg.sigma,
        0.0, run_ber)
    assert comparison.protocol == "bandwidth_expansion"
    assert comparison.p_corr >= 0.0


# ---------------------------------------------------------------------------
# CSV persistence


def test_ber_csv_round_trip(tmp_path):
    cfg = small_config(ensemble=2)
    report = monte_carlo(cfg)
    path = tmp_path / "ber.csv"
    write_ber_csv(path, report)
    header, columns, rows = read_csv_with_header(path)
    assert header["corrcdma"]
    assert header["variant"] == cfg.variant
    assert int(header["errors_total"]) == report.errors_total
    assert columns == ["position", "relative_position", "errors", "bits",
                       "ber", "std_err"]
    assert len(rows) == cfg.word_length
    assert [int(r[0]) for r in rows] == list(range(cfg.word_length))
    # repr round-trip keeps rates exact
    assert [float(r[4]) for r in rows] == list(report.per_position)
    assert float(rows[0][1]) == pytest.approx(1 / cfg.word_length)


def test_ber_csv_rewrite_is_byte_identical(tmp_path):
    cfg = small_config(ensemble=2)
    report = monte_carlo(cfg)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_ber_csv(first, report)
    write_ber_csv(second, monte_carlo(cfg))
    assert first.read_bytes() == second.read_bytes()


def test_sweep_csv_round_trip(tmp_path):
    cfg = small_config(ensemble=2)
    points = normalized_ber_sweep(cfg, [0.0, 0.6])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, cfg, points)
    header, columns, rows = read_csv_with_header(path)
    assert columns[0] == "lambda2"
    assert [float(r[0]) for r in rows] == [0.0, 0.6]
    assert float(rows[0][4]) == 1.0  # the zero-correlation ratio survives
    assert int(header["ensemble"]) == cfg.ensemble


def test_length_csv_keeps_fit_in_header(tmp_path):
    cfg = small_config(ensemble=1)
    curve = lambda c: SimpleNamespace(
        per_position=np.r_[np.full(2, 0.2), np.full(c.word_length - 2, 0.02)])
    result = length_scaling_study(cfg, [8, 16, 32], run_report=curve)
    path = tmp_path / "lengths.csv"
    write_length_csv(path, cfg, result)
    header, columns, rows = read_csv_with_header(path)
    assert float(header["slope"]) == result.slope
    assert float(header["intercept"]) == result.intercept
    assert [int(r[0]) for r in rows] == [8, 16, 32]


def test_mismatch_csv_round_trip(tmp_path):
    cfg = small_config(ensemble=1)
    points = mismatch_study(cfg, [0.10], [0.5, 0.9])
    path = tmp_path / "mismatch.csv"
    write_mismatch_csv(path, cfg, points)
    _, columns, rows = read_csv_with_header(path)
    assert columns[2] == "feasible"
    assert rows[0][2] == "true" and rows[1][2] == "false"
    assert rows[1][3] != ""  # the infeasibility reason is recorded


def test_comparison_csv_round_trip(tmp_path):
    cfg = small_config(ensemble=2)
    run_ber = make_ber_runner(cfg)
    matrix = make_symmetric_matrix(0.8)
    comparison = bandwidth_expansion_comparison(
        matrix, cfg.spread_factor, 0.5, cfg.sigma, 0.0, run_ber)
    entropy = source_stats(matrix).entropy_bits
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, cfg, [(0.8, entropy, 0.0, comparison)])
    _, columns, rows = read_csv_with_header(path)
    assert columns == ["lambda2", "entropy_bits", "epsilon", "p_corr",
                       "p_comp", "ratio", "rate", "protocol", "ensemble",
                       "seed"]
    assert rows[0][7] == "bandwidth_expansion"
    assert float(rows[0][3]) == comparison.p_corr


def test_read_csv_rejects_headerless_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# corrcdma=0\n")
    with pytest.raises(ValueError):
        read_csv_with_header(path)


# ---------------------------------------------------------------------------
# worker environment variable


def test_default_workers_reads_environment(monkeypatch):
    monkeypatch.delenv("CORRCDMA_WORKERS", raising=False)
    assert default_workers() is None
    monkeypatch.setenv("CORRCDMA_WORKERS", "")
    assert default_workers() is None
    monkeypatch.setenv("CORRCDMA_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("CORRCDMA_WORKERS", "0")
    with pytest.raises(ValueError, match="CORRCDMA_WORKERS must be >= 1"):
        default_workers()
    monkeypatch.setenv("CORRCDMA_WORKERS", "abc")
    with pytest.raises(ValueError, match="CORRCDMA_WORKERS must be an integer"):
        default_workers()
