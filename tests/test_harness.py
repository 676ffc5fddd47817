"""Determinism, pairing, and aggregation contracts of the experiment layer.

The harness promises that a report is a pure function of its config: the
oracle tests here re-aggregate raw trial counts by hand, rerun everything
with different worker counts, and check the exact count identities the
report claims.
"""

import dataclasses
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from corrcdma import cli, harness
from corrcdma.harness import (
    BerReport,
    ExperimentConfig,
    default_workers,
    length_scaling_study,
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
from corrcdma.markov import (
    TransitionMatrix,
    iid_matrix,
    make_symmetric_matrix,
    source_stats,
)


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
    assert payload_sizes(cfg) == [3]
    alone = [run_trial(cfg, index) for index in range(3)]
    corr = harness._realization(cfg, 1, True)[2]  # trial 1's
    real_step = detectors._mud_step

    def step(cols, soft, *rest):
        if rest[-1] == 0 and np.array_equal(rest[4], corr):
            soft[cols[0], 0] = np.nan
        return real_step(cols, soft, *rest)

    monkeypatch.setattr(detectors, "_mud_step", step)
    outcomes = [outcome for (outcome,) in harness._detect_realizations(
        [(index, (cfg,)) for index in range(3)])]
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


def payload_sizes(*arms, workers=None):
    """Realizations per pool payload of a joint run of arms."""
    return [len(payload) for payload in harness._payloads(
        harness._realizations(arms), workers)]


def test_group_size_rule():
    c6 = ExperimentConfig(spread_factor=250, n_users=200, word_length=10,
                          ensemble=8)
    assert payload_sizes(c6, workers=2) == [4, 4]  # a worker's share
    assert payload_sizes(c6) == [5, 3]             # about 1,000 users
    c7 = ExperimentConfig(spread_factor=1000, n_users=800, ensemble=100)
    assert payload_sizes(c7) == payload_sizes(c7, workers=2) == [1] * 100
    # RSUS and blind realizations fill payloads like the others; the engine
    # takes a payload's correlated RSUS slots one at a time
    assert payload_sizes(replace(c6, schedule="RSUS"), workers=2) == [4, 4]
    assert payload_sizes(replace(c6, blind=True), workers=2) == [4, 4]
    assert payload_sizes(replace(c6, variant="plain_mud", schedule="RSUS"),
                         workers=2) == [4, 4]


def test_paired_arms_share_realizations_and_groups():
    # the C4 sweep: each realization carries a correlated and a plain arm,
    # one slot of each engine kind, so two 400-user realizations fill a
    # group whatever their eigenvalue
    c4 = small_config(spread_factor=500, n_users=400, word_length=100,
                      ensemble=1)
    arms = harness.lambda2_plan(c4, [0.0, 0.4, 0.8]).runs
    realizations = harness._realizations(arms)
    assert [len(cfgs) for _, cfgs in realizations] == [2, 2, 2]
    assert payload_sizes(*arms) == [2, 1]
    # arms of another size or length draw their own realizations
    assert len(harness._realizations(
        [c4, replace(c4, word_length=50), replace(c4, n_users=399)])) == 3
    # two correlated arms of one realization fill a 400-user group each
    mismatch = harness.mismatch_plan(
        replace(c4, ensemble=3), [0.05, -0.05], [0.5]).runs
    assert len(mismatch) == 3
    assert payload_sizes(*mismatch) == [1, 1, 1]
    # a longer ensemble shares the realizations of the shorter one
    shared = harness._realizations([c4, replace(c4, ensemble=3,
                                                variant="plain_mud")])
    assert [(index, len(cfgs)) for index, cfgs in shared] == [
        (0, 2), (1, 1), (2, 1)]


# One alternate value per config field. Arms that differ only in a field of
# SAME_REALIZATIONS detect the same realizations, and arms that differ only
# in a field of SAME_ENGINE share an engine kind; a difference in any other
# field splits them. ensemble is on both sides: it fixes only how many trial
# indices an arm runs. A new field needs its alternate and its place here.
ALTERNATES = {
    "spread_factor": 61, "n_users": 29, "sigma": 0.7, "word_length": 11,
    "matrix": make_symmetric_matrix(0.5), "variant": "plain_mud",
    "schedule": "PUS", "blind": True, "mismatch": 0.05, "ensemble": 3,
    "seed": 8, "max_iters": 29,
}
SAME_REALIZATIONS = {"variant", "schedule", "blind", "mismatch",
                     "max_iters", "ensemble"}
SAME_ENGINE = {"seed", "matrix", "mismatch", "ensemble"}


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_pairing_holds_for_every_config_field(name):
    assert name in ALTERNATES, f"field {name} has no alternate value"
    base = small_config(ensemble=2)
    other = replace(base, **{name: ALTERNATES[name]})
    assert getattr(other, name) != getattr(base, name)
    shared = [index for index, arms in harness._realizations([base, other])
              if arms == (base, other)]
    assert shared == ([0, 1] if name in SAME_REALIZATIONS else [])
    assert ((harness._engine_kind(base) == harness._engine_kind(other))
            == (name in SAME_ENGINE))


# ---------------------------------------------------------------------------
# joint runs: arms that share realizations


def joint_arms():
    """A lambda2 sweep's arms, a mismatch study's (one of its assumed
    matrices asymmetric), RSUS and blind correlated arms, and SUMF arms."""
    cfg = small_config(ensemble=4)
    sweep = list(harness.lambda2_plan(cfg, [0.0, 0.5, 0.8]).runs)
    mismatch = list(harness.mismatch_plan(cfg, [-0.1, 0.05], [0.6]).runs)
    others = [replace(cfg, schedule="RSUS"), replace(cfg, blind=True),
              replace(cfg, variant="correlated_sumf", schedule="BFUS"),
              replace(cfg, variant="plain_sumf")]
    return sweep + mismatch + others


@pytest.mark.parametrize("workers", [None, 1, 2], ids=["unset", "1", "2"])
def test_joint_run_equals_per_arm_runs(workers):
    arms = joint_arms()
    assert not arms[7].detector_matrix().is_symmetric  # delta -0.1
    joint = harness.monte_carlo_arms(arms, workers)
    assert list(joint) == arms
    for cfg, report in joint.items():
        assert report.config == cfg
        assert_same_report(report, monte_carlo(cfg))
        assert np.array_equal(report.per_position,
                              monte_carlo(cfg).per_position)
    # a config listed twice gets one entry, in its first place
    again = harness.monte_carlo_arms([arms[1], arms[0], arms[1]], workers)
    assert list(again) == [arms[1], arms[0]]
    assert_same_report(again[arms[1]], joint[arms[1]])


@pytest.mark.parametrize("workers", [None, 1, 2], ids=["unset", "1", "2"])
def test_studies_read_the_joint_run(workers):
    cfg = small_config(ensemble=3)
    per_arm = lambda c: monte_carlo(c)
    assert (normalized_ber_sweep(cfg, [0.0, 0.5, 0.8], workers)
            == normalized_ber_sweep(cfg, [0.0, 0.5, 0.8],
                                    run_report=per_arm))
    # 0.9 + 0.1 is infeasible; -0.1 assumes an asymmetric matrix
    joint = mismatch_study(cfg, [-0.1, 0.1], [0.5, 0.9], workers)
    alone = mismatch_study(cfg, [-0.1, 0.1], [0.5, 0.9], run_report=per_arm)
    assert [p.normalized for p in joint if p.feasible] == [
        p.normalized for p in alone if p.feasible]
    assert [p.reason for p in joint] == [p.reason for p in alone]


def test_divergence_in_one_arm_leaves_the_other_untouched(monkeypatch):
    # the correlated arm of trial 0 diverges in its second MUD step; the
    # plain arm detects the same realization, and both arms' other trials
    # share their groups with it
    from corrcdma import detectors

    corr, plain = harness.paired_arms(small_config(ensemble=3))
    alone = [run_trial(corr, index) for index in range(3)]
    plain_alone = monte_carlo(plain)
    real_sweep = detectors._bias_sweep
    calls = []

    def sweep(padded, *rest):
        changed = real_sweep(padded, *rest)
        if not calls:  # trial 0 is in slot 0 at the first sweep
            padded[1, 0, 0] = np.nan
        calls.append(padded.shape[1])
        return changed

    monkeypatch.setattr(detectors, "_bias_sweep", sweep)
    reports = harness.monte_carlo_arms([corr, plain])
    corr_report, plain_report = reports[corr], reports[plain]
    assert calls[0] == 3  # the three trials ran in one group
    assert_same_report(plain_report, plain_alone)
    assert corr_report.divergences == 1
    fallback = harness._outcome(
        corr, harness._realization(corr, 0, False), None)
    expected = fallback.errors_by_position + sum(
        outcome.errors_by_position for outcome in alone[1:])
    assert np.array_equal(corr_report.errors_by_position, expected)


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


# ---------------------------------------------------------------------------
# the worker pool: one per process, reused by every parallel call


def assert_same_report(a, b):
    assert np.array_equal(a.errors_by_position, b.errors_by_position)
    assert a.summary() == b.summary()


@pytest.fixture
def pools(monkeypatch):
    """Every pool monte_carlo makes during the test, in order; no pool is
    cached before the test or left after it."""
    made = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers):
            self.workers = max_workers
            self.closed = False
            # the earlier pools still open when this one is made
            self.others_open = [pool for pool in made if not pool.closed]
            made.append(self)
            super().__init__(max_workers)

        def shutdown(self, *args, **kwargs):
            self.closed = True
            super().shutdown(*args, **kwargs)

    harness.shutdown_pool()
    monkeypatch.setattr(harness, "ProcessPoolExecutor", Spy)
    yield made
    harness.shutdown_pool()


def test_parallel_calls_reuse_one_pool(pools):
    cfg = small_config()
    serial = monte_carlo(cfg)
    for _ in range(3):
        assert_same_report(serial, monte_carlo(cfg, workers=2))
    assert len(pools) == 1


def test_a_joint_run_without_trials_makes_no_pool(pools):
    # a mismatch study whose every perturbation is infeasible runs no arm
    assert harness.monte_carlo_arms([], workers=2) == {}
    (point,) = mismatch_study(small_config(), [0.2], [0.9], workers=2)
    assert not point.feasible
    assert pools == []


def test_every_arm_of_a_command_shares_one_pool(pools, tmp_path, capsys):
    assert cli.main(["sweep", "length", "--values", "8,10,12,16",
                     "--spread-factor", "60", "--n-users", "30",
                     "--ensemble", "4", "--seed", "3", "--workers", "2",
                     "--out-dir", str(tmp_path / "len")]) == 0
    assert len(pools) == 1


def test_switching_worker_count_shuts_the_old_pool_first(pools):
    cfg = small_config()
    serial = monte_carlo(cfg)
    for workers in (2, 3, 2):
        assert_same_report(serial, monte_carlo(cfg, workers=workers))
        assert len(multiprocessing.active_children()) <= workers
    assert [pool.workers for pool in pools] == [2, 3, 2]
    assert [pool.others_open for pool in pools] == [[], [], []]
    assert [pool.closed for pool in pools] == [True, True, False]


def test_broken_pool_is_dropped(pools):
    cfg = small_config()
    serial = monte_carlo(cfg)
    monte_carlo(cfg, workers=2)
    (broken,) = pools
    victim = min(broken._processes)
    os.kill(victim, signal.SIGKILL)
    # the pool has seen the death once it has reaped the dead worker
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.kill(victim, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    else:
        pytest.fail("the pool never reaped its killed worker")
    with pytest.raises(BrokenProcessPool):
        monte_carlo(cfg, workers=2)
    assert_same_report(serial, monte_carlo(cfg, workers=2))
    assert len(pools) == 2 and broken.closed and not pools[1].others_open


def test_pool_of_another_process_is_not_used(pools):
    class Foreign:
        def __getattr__(self, name):
            raise AssertionError(f"used the foreign pool's {name}")

    cfg = small_config()
    serial = monte_carlo(cfg)
    # what a child forked by this process would inherit
    harness._pool = (Foreign(), 2, os.getpid() + 1)
    assert_same_report(serial, monte_carlo(cfg, workers=2))
    assert len(pools) == 1 and harness._pool[0] is pools[0]


def test_shutdown_leaves_no_worker_processes(pools):
    monte_carlo(small_config(), workers=2)
    assert len(multiprocessing.active_children()) == 2
    harness.shutdown_pool()
    assert multiprocessing.active_children() == []
    harness.shutdown_pool()  # nothing left to shut down


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


def test_sweep_asks_for_each_distinct_arm_once():
    # a repeated eigenvalue repeats its point, not its arms
    cfg = small_config(ensemble=1)
    ran = []

    def record(arm):
        ran.append(arm)
        return SimpleNamespace(aggregate=0.1 * len(ran), errors_total=0,
                               bits_total=1)

    first, second = normalized_ber_sweep(cfg, [0.5, 0.5], run_report=record)
    assert [arm.variant for arm in ran] == ["correlated_mud", "plain_mud"]
    assert first == second
    assert (first.p_corr, first.p_plain) == (0.1, 0.2)


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


def test_plans_list_their_runs_in_run_order():
    cfg = small_config(ensemble=1)
    sym = make_symmetric_matrix
    # a sweep point runs its correlated arm, then its plain arm
    assert [(c.variant, c.matrix) for c in
            harness.lambda2_plan(cfg, [0.0, 0.5]).runs] == [
        ("correlated_mud", sym(0.0)), ("plain_mud", sym(0.0)),
        ("correlated_mud", sym(0.5)), ("plain_mud", sym(0.5))]
    # one config per length, in the order given
    assert [c.word_length for c in
            harness.length_plan(cfg, [20, 10, 40]).runs] == [20, 10, 40]
    # per eigenvalue the plain arm, then its feasible correlated arms; an
    # eigenvalue without one runs nothing, and its points are still rows
    plan = harness.mismatch_plan(cfg, [0.1, -0.05], [0.95, 0.3])
    assert [(c.variant, c.matrix, c.mismatch) for c in plan.runs] == [
        ("plain_mud", sym(0.95), 0.0), ("correlated_mud", sym(0.95), -0.05),
        ("plain_mud", sym(0.3), 0.0), ("correlated_mud", sym(0.3), 0.1),
        ("correlated_mud", sym(0.3), -0.05)]
    (infeasible,) = harness.mismatch_plan(cfg, [0.1], [0.95]).reduce({})
    assert not infeasible.feasible and "outside [0, 1]" in infeasible.reason
    # the fixed protocol runs each matrix's paired arms; the bandwidth
    # points of one matrix share its correlated arm
    matrix = sym(0.8)
    assert harness.compression_plan(cfg, "fixed", [(0.8, matrix)]).runs \
        == harness.paired_arms(replace(cfg, matrix=matrix))
    (corr, exact), (_, excess) = (harness.bandwidth_arms(cfg, matrix, eps, 0.5)
                                  for eps in (0.0, 0.05))
    assert harness.compression_plan(cfg, "bandwidth", [(0.8, matrix)],
                                    [0.0, 0.05], 0.5).runs == (
        corr, exact, excess)


@pytest.mark.parametrize("protocol, rate_excesses, amplification, message", [
    ("separate", (0.0,), "entropy", "unknown protocol"),
    ("bandwidth", (0.0,), "bits", "amplification must be one of"),
    ("fixed", (0.0,), "entropy", "source entropy is zero"),
    ("bandwidth", (0.0, -0.1), "entropy", "rate_excess must be >= 0"),
])
def test_compression_plan_checks_every_point_up_front(
        protocol, rate_excesses, amplification, message):
    # a bad protocol, amplification or point fails as the plan is built;
    # the fixed protocol's second matrix has no entropy
    cfg = small_config(ensemble=1)
    matrices = [(0.5, make_symmetric_matrix(0.5))]
    if protocol == "fixed":
        matrices.append((1.0, make_symmetric_matrix(1.0)))
    with pytest.raises(ValueError, match=message):
        harness.compression_plan(cfg, protocol, matrices, rate_excesses,
                                 amplification=amplification)


def test_bandwidth_arms_pin_everything_but_the_arm():
    cfg = small_config(ensemble=2)
    matrix = make_symmetric_matrix(0.8)
    rate = source_stats(matrix).entropy_bits
    corr, reduced = harness.bandwidth_arms(cfg, matrix, 0.0, cfg.load)
    assert corr == cfg
    assert reduced == replace(cfg, variant="plain_mud", matrix=iid_matrix(),
                              n_users=int(round(cfg.n_users * rate)))
    # the correlated arm carries the config's mismatch, the reduced arm none
    mismatched = replace(cfg, mismatch=0.1)
    corr, reduced = harness.bandwidth_arms(mismatched, matrix, 0.05, 0.5)
    assert corr == mismatched
    assert reduced.mismatch == 0.0
    with pytest.raises(ValueError, match="outside"):
        harness.bandwidth_arms(mismatched, make_symmetric_matrix(0.95), 0.0,
                               0.5)


def test_memoryless_bandwidth_point_has_ratio_one():
    # at lambda2 = 0 and no rate excess both arms share the load and so
    # the realizations, and the correlated detector reduces to the plain
    cfg = small_config(ensemble=2)
    arms = harness.bandwidth_arms(cfg, iid_matrix(), 0.0, cfg.load)
    corr, reduced = map(harness.monte_carlo_arms(arms).get, arms)
    assert corr.aggregate == reduced.aggregate > 0.0
    comparison = bandwidth_expansion_comparison(
        iid_matrix(), 0.0, corr.aggregate, reduced.aggregate)
    assert comparison.ratio == 1.0


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
    matrix = make_symmetric_matrix(0.8)
    arms = harness.bandwidth_arms(cfg, matrix, 0.0, 0.5)
    corr, reduced = map(harness.monte_carlo_arms(arms).get, arms)
    comparison = bandwidth_expansion_comparison(
        matrix, 0.0, corr.aggregate, reduced.aggregate)
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
