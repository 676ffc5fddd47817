"""Determinism, pairing, and aggregation contracts of the experiment layer.

The harness promises that a report is a pure function of its config: the
oracle tests here re-aggregate raw trial counts by hand, rerun everything
with different worker counts, and check the exact count identities the
report claims.
"""

import dataclasses
import json
import math
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
    VARIANTS,
    BerReport,
    ExperimentConfig,
    length_scaling_study,
    mismatch_plan,
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
from corrcdma.detectors import (
    DetectionResult,
    DetectorDivergence,
    hard_decisions,
)
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


@pytest.mark.parametrize("name, value", [
    ("spread_factor", 30.0), ("n_users", 20.0), ("n_users", True),
    ("word_length", 8.0), ("ensemble", 2.0), ("max_iters", 5.0),
    ("seed", 1.5), ("blind", "false"), ("sigma", True), ("sigma", np.True_),
    ("sigma", "0.8"), ("sigma", None), ("sigma", 1 + 0j),
    ("mismatch", "0.1"), ("mismatch", False), ("mismatch", None),
])
def test_config_refuses_ill_typed_fields_when_built(name, value):
    # a float count would build and fail mid-run with an unnamed TypeError,
    # a bool count would count as 1, a string blind flag would run blind,
    # a bool sigma would run as 1 and be recorded as true, and a string,
    # None or complex float field would fail unnamed; numpy's integers,
    # bools and floats build, each stored as the Python value that runs,
    # so the config's dict is JSON as a manifest writes it
    with pytest.raises(ValueError, match=f"^{name} must be an? "):
        small_config(**{name: value})
    if name == "blind":
        typed, kind = np.bool_(False), bool
    elif name in ("sigma", "mismatch"):
        typed, kind = np.float32(0.05), float
    else:
        typed, kind = np.int64(getattr(small_config(), name)), int
    config = small_config(**{name: typed})
    assert getattr(config, name) == typed
    assert type(getattr(config, name)) is kind
    json.dumps(config.to_dict())


M08 = make_symmetric_matrix(0.8)


# (id, call on small_config(), argument the refusal names): each entry
# point reads its values as the config reads its fields; a bare cast would
# run a string eigenvalue or perturbation, write a bool label or rate
# excess as "true", run a worker budget of True serially and a length of
# 4.7 as 4, or fail unnamed with a TypeError
ILL_TYPED_ENTRIES = [
    ("lambda2_plan-str", lambda cfg: harness.lambda2_plan(cfg, ["0.5"]),
     "lambda2_values"),
    ("lambda2_plan-bool", lambda cfg: harness.lambda2_plan(cfg, [False]),
     "lambda2_values"),
    ("lambda2_plan-None", lambda cfg: harness.lambda2_plan(cfg, [None]),
     "lambda2_values"),
    ("lambda2_plan-complex",
     lambda cfg: harness.lambda2_plan(cfg, [0.5 + 0j]), "lambda2_values"),
    ("mismatch_plan-delta-str",
     lambda cfg: mismatch_plan(cfg, ["0.1"], [0.5]), "rel_deltas"),
    ("mismatch_plan-delta-bool",
     lambda cfg: mismatch_plan(cfg, [True], [0.5]), "rel_deltas"),
    ("mismatch_plan-value-str",
     lambda cfg: mismatch_plan(cfg, [0.1], ["0.5"]), "lambda2_values"),
    ("mismatch_plan-value-None",
     lambda cfg: mismatch_plan(cfg, [0.1], [None]), "lambda2_values"),
    ("length_plan-4.7",
     lambda cfg: harness.length_plan(cfg, [4.7, 8, 12]), "lengths"),
    ("length_plan-bool",
     lambda cfg: harness.length_plan(cfg, [True, 8, 12]), "lengths"),
    ("length_plan-threshold-str",
     lambda cfg: harness.length_plan(cfg, [4, 8, 12], "1.5"),
     "threshold_factor"),
    ("length_plan-threshold-bool",
     lambda cfg: harness.length_plan(cfg, [4, 8, 12], True),
     "threshold_factor"),
    ("fixed_plan-label-bool",
     lambda cfg: harness.fixed_plan(cfg, [(True, M08)]), "matrices label"),
    ("fixed_plan-label-str",
     lambda cfg: harness.fixed_plan(cfg, [("0.8", M08)]), "matrices label"),
    ("bandwidth_plan-label-None",
     lambda cfg: harness.bandwidth_plan(cfg, [(None, M08)], [0.0], 0.5),
     "matrices label"),
    ("bandwidth_plan-excess-bool",
     lambda cfg: harness.bandwidth_plan(cfg, [(0.8, M08)], [True], 0.5),
     "rate_excesses"),
    ("bandwidth_plan-excess-str",
     lambda cfg: harness.bandwidth_plan(cfg, [(0.8, M08)], ["0.1"], 0.5),
     "rate_excesses"),
    ("bandwidth_plan-base_beta-bool",
     lambda cfg: harness.bandwidth_plan(cfg, [(0.8, M08)], [0.0], True),
     "base_beta"),
    ("bandwidth_plan-base_beta-complex",
     lambda cfg: harness.bandwidth_plan(cfg, [(0.8, M08)], [0.0], 0.5 + 0j),
     "base_beta"),
    ("workers-2.5", lambda cfg: monte_carlo(cfg, 2.5), "workers"),
    ("workers-1.0", lambda cfg: monte_carlo(cfg, 1.0), "workers"),
    ("workers-bool", lambda cfg: monte_carlo(cfg, True), "workers"),
    ("workers-str", lambda cfg: monte_carlo(cfg, "2"), "workers"),
]


@pytest.mark.parametrize("call, name", [case[1:] for case in ILL_TYPED_ENTRIES],
                         ids=[case[0] for case in ILL_TYPED_ENTRIES])
def test_plans_and_worker_budget_refuse_ill_typed_values_when_built(
        monkeypatch, call, name):
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_detect_realizations", no_trial)
    with pytest.raises(ValueError,
                       match=f"^{name} must be (a real number|an integer), "):
        call(small_config())


def test_plans_and_worker_budget_read_numpy_values_as_they_run():
    # numpy's numbers are read as the Python numbers a plan would cast them
    # to, so a plan of numpy values is the plan of their Python values
    cfg = small_config()
    assert harness.check_workers(np.int64(2)) == 2
    assert type(harness.check_workers(np.int64(2))) is int
    lengths = harness.length_plan(cfg, np.array([4, 8, 12]),
                                  np.float64(1.5))
    assert lengths.runs == harness.length_plan(cfg, [4, 8, 12], 1.5).runs
    assert (harness.lambda2_plan(cfg, np.array([0.0, 0.5])).runs
            == harness.lambda2_plan(cfg, [0.0, 0.5]).runs)
    assert (mismatch_plan(cfg, np.array([0.05]), [np.float32(0.5)]).runs
            == mismatch_plan(cfg, [0.05], [0.5]).runs)


def test_plans_read_a_one_pass_value_list_for_every_eigenvalue():
    # the perturbations and rate excesses are read once, so an iterator
    # covers every eigenvalue, not only the first
    cfg = small_config(ensemble=1)
    assert (mismatch_plan(cfg, iter([0.05]), [0.5, 0.8]).runs
            == mismatch_plan(cfg, [0.05], [0.5, 0.8]).runs)
    matrices = [(0.5, make_symmetric_matrix(0.5)), (0.8, M08)]
    assert (harness.bandwidth_plan(cfg, matrices, iter([0.0]), 0.5).runs
            == harness.bandwidth_plan(cfg, matrices, [0.0], 0.5).runs)


def test_a_numpy_float_sigma_is_recorded_as_the_value_that_runs(tmp_path):
    # float32 0.8 scales the noise by 0.800000011920929, which the header
    # records, so the config read back from it is the config that ran;
    # an int sigma is recorded as a float
    cfg = small_config(sigma=np.float32(0.8))
    assert cfg.sigma == float(np.float32(0.8)) != 0.8
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, cfg, [])
    header, _, _ = read_csv_with_header(path)
    assert header["sigma"] == "0.800000011920929"
    del header["corrcdma"]
    assert ExperimentConfig.from_dict(header) == cfg
    write_sweep_csv(path, small_config(sigma=1), [])
    assert read_csv_with_header(path)[0]["sigma"] == "1.0"


@pytest.mark.parametrize("variant", VARIANTS)
def test_config_refuses_settings_its_variant_never_reads(variant):
    # only the correlated MUD runs blind, and only a correlated variant
    # assumes a matrix that a mismatch could perturb
    for unread, readers in ((dict(blind=True), ("correlated_mud",)),
                            (dict(mismatch=0.05), ("correlated_mud",
                                                   "correlated_sumf"))):
        if variant in readers:
            small_config(variant=variant, **unread)
        else:
            with pytest.raises(ValueError, match=f"got {variant}"):
                small_config(variant=variant, **unread)


@pytest.mark.parametrize("data, key", [
    ({"sigma": "nan"}, "sigma"),
    ({"load": "inf"}, "load"),
    ({"lambda2": "nan"}, "lambda2"),
    ({"seed": float("inf")}, "seed"),
    ({"ensemble": [3]}, "ensemble"),
    # int() would truncate a float or take a bool, float() take a bool
    ({"seed": 1.7}, "seed"),
    ({"spread_factor": 100.9}, "spread_factor"),
    ({"n_users": "1.7"}, "n_users"),
    ({"ensemble": True}, "ensemble"),
    ({"sigma": True}, "sigma"),
    ({"lambda2": False}, "lambda2"),
], ids=["sigma-nan", "load-inf", "lambda2-nan", "seed-inf", "ensemble-list",
        "seed-float", "spread-factor-float", "n-users-float-text",
        "ensemble-bool", "sigma-bool", "lambda2-bool"])
def test_from_dict_names_the_key_of_a_value_it_cannot_cast(data, key):
    with pytest.raises(ValueError, match=f"config key {key}"):
        ExperimentConfig.from_dict(data)


def test_config_rejects_infeasible_mismatch_eagerly():
    # lambda2 = 0.9 puts the stay probability at 0.95; +10 % leaves [0, 1].
    with pytest.raises(ValueError):
        small_config(matrix=make_symmetric_matrix(0.9), mismatch=0.10)


def test_blind_mode_refuses_a_mismatch_it_never_reads():
    # blind mode starts from the memoryless matrix and re-estimates it
    with pytest.raises(ValueError, match="mismatch does not apply to blind"):
        small_config(blind=True, mismatch=0.05)
    small_config(blind=True, mismatch=0.0)
    # the mismatch surface refuses a blind base before any delta, rather
    # than filing every nonzero delta as infeasible
    for deltas in ([0.0], [-0.1, 0.0, 0.1]):
        with pytest.raises(ValueError, match="blind mode re-estimates it"):
            mismatch_plan(small_config(blind=True), deltas, [0.6])


@pytest.mark.parametrize("variant", VARIANTS)
def test_config_refuses_an_assumed_matrix_with_a_zero_entry(variant):
    # once a neighbour's belief saturates, a zero entry leaves a symbol no
    # possible hypothesis; only the correlated variants assume a matrix
    assumes = variant.startswith("correlated_")
    for matrix in (make_symmetric_matrix(1.0), make_symmetric_matrix(-1.0),
                   TransitionMatrix([[1.0, 0.0], [0.3, 0.7]])):
        if assumes:
            with pytest.raises(ValueError, match="a zero entry"):
                small_config(variant=variant, matrix=matrix)
        else:
            small_config(variant=variant, matrix=matrix)
    if assumes:
        # lambda2 = 0.8 stays with 0.9, which 1 + 1/9 scales to exactly 1.0
        with pytest.raises(ValueError, match="matrix 1.0,0.0,"):
            small_config(variant=variant, mismatch=0.1111111111111111)


def test_blind_mode_runs_on_a_generator_with_a_zero_entry():
    # blind mode never reads the assumed matrix, and its estimates carry a
    # pseudo-count, so the frozen chain runs
    cfg = small_config(blind=True, matrix=make_symmetric_matrix(1.0),
                       ensemble=2)
    assert monte_carlo(cfg).bits_total == 30 * 12 * 2


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


@pytest.mark.parametrize("workers", [None, 2], ids=["unset", "2"])
def test_high_load_point_pins_the_oscillating_regime(workers):
    # beta 1.2 at sigma 0.4: columns oscillate, so positions end at the cap
    # unconverged and the decisions of the last iteration set the result
    corr, plain = harness.paired_arms(ExperimentConfig(
        spread_factor=100, n_users=120, sigma=0.4, word_length=100,
        matrix=make_symmetric_matrix(0.8), ensemble=4, seed=11))
    reports = harness.monte_carlo_arms([corr, plain], workers)
    assert (reports[corr].errors_total, reports[corr].unconverged_positions,
            reports[corr].iters_max) == (5269, 193, 50)
    assert (reports[plain].errors_total,
            reports[plain].unconverged_positions) == (1919, 38)
    # ROADMAP item 12's documented fault, not a threshold: at this load the
    # correlated MUD reads worse than the plain MUD it should beat (2.75)
    assert reports[corr].aggregate / reports[plain].aggregate > 1.0


# (errors_total, unconverged_positions, iters_max) of each correlated arm at
# one sub-second point, recorded before the certified clamp skip, the
# row-wise neighbour terms and the in-order soft-power reduce went in; the
# same under the Haswell, SkylakeX and Prescott OpenBLAS kernels
EXACT_ENGINE_COUNTS = {
    ("correlated_mud", "SUS", False): (893, 0, 16),
    ("correlated_mud", "PUS", False): (944, 24, 50),
    ("correlated_mud", "BFUS", False): (906, 0, 15),
    ("correlated_mud", "RSUS", False): (931, 0, 12),
    ("correlated_mud", "SUS", True): (923, 0, 17),
    ("correlated_sumf", "SUS", False): (2854, 0, 9),
    ("correlated_sumf", "PUS", False): (2820, 179, 50),
}


def test_correlated_engine_counts_are_pinned():
    # an exactness guard for changes to the engine's inner loops: a change
    # that keeps every field bit for bit keeps these integers
    base = ExperimentConfig(
        spread_factor=100, n_users=80, sigma=0.8, word_length=50,
        matrix=make_symmetric_matrix(0.8), ensemble=4, seed=33, max_iters=50)
    arms = {key: replace(base, variant=key[0], schedule=key[1], blind=key[2])
            for key in EXACT_ENGINE_COUNTS}
    reports = harness.monte_carlo_arms(list(arms.values()))
    counts = {key: (reports[cfg].errors_total,
                    reports[cfg].unconverged_positions, reports[cfg].iters_max)
              for key, cfg in arms.items()}
    assert counts == EXACT_ENGINE_COUNTS


def test_config_dict_round_trip():
    for cfg in (small_config(blind=True, schedule="PUS"),
                small_config(schedule="PUS", mismatch=0.05)):
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert isinstance(again.matrix, TransitionMatrix)


def test_from_dict_accepts_string_values():
    cfg = ExperimentConfig.from_dict({
        "spread_factor": "80", "n_users": "40", "sigma": "0.5",
        "word_length": "9", "lambda2": "0.6", "variant": "correlated_mud",
        "schedule": "BFUS", "blind": "yes", "mismatch": "0.0",
        "ensemble": "3", "seed": "11", "max_iters": "25",
    })
    assert cfg.spread_factor == 80 and cfg.n_users == 40
    assert cfg.matrix == make_symmetric_matrix(0.6)
    assert cfg.blind is True and cfg.schedule == "BFUS"
    assert cfg.variant == "correlated_mud"


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
    from corrcdma.detectors import DetectorDivergence, mud_detect, sumf_detect

    real_step = detectors._mud_step

    def blow_up(rows, ends, corrs, soft, *rest):
        # every slot's field goes non-finite in the first step
        soft[rows] = np.nan
        return real_step(rows, ends, corrs, soft, *rest)

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
    # the public detector raises the divergence, at the first step
    with pytest.raises(DetectorDivergence) as err:
        mud_detect(spreading, received, cfg.sigma)
    assert err.value.iteration == 0

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
    corr = harness._realization((cfg,), 1)[2]  # trial 1's
    real_step = detectors._mud_step
    calls = []

    def step(rows, ends, corrs, soft, *rest):
        # NaN in trial 1's first active row, in the run's first step
        if not calls:
            for start, slot_corr in zip([0, *ends], corrs):
                if np.array_equal(slot_corr, corr):
                    soft[rows[start], 0] = np.nan
        calls.append(None)
        return real_step(rows, ends, corrs, soft, *rest)

    monkeypatch.setattr(detectors, "_mud_step", step)
    outcomes = [outcome for _, outcome in harness._detect_realizations(
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
    calls.clear()  # a new run, whose first step poisons trial 1 again
    assert monte_carlo(cfg).divergences == 1


def payload_sizes(*arms, workers=None):
    """Realizations per pool payload of a joint run of arms, each arm run
    as monte_carlo_arms aliases it."""
    runs = dict.fromkeys(map(harness._runs_as, arms))
    return [len(payload) for payload in harness._payloads(runs, workers)]


def realizations(*runs):
    """The (trial index, runs) realizations the runs make, unaliased: the
    serial payloads flattened."""
    return [realization for payload in harness._payloads(runs)
            for realization in payload]


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


def test_benchmark_workload_payloads_are_pinned():
    # the four benchmark workloads' shapes, at their worker counts; a
    # packing change that moves one shows here first
    corr = ExperimentConfig(spread_factor=1000, n_users=800, word_length=100,
                            ensemble=3, schedule="SUS", max_iters=50)
    assert payload_sizes(corr, workers=1) == [1] * 3  # large_corr_mud
    assert payload_sizes(*harness.lambda2_plan(corr, [0.8]).runs,
                         workers=1) == [1] * 3
    assert payload_sizes(replace(corr, variant="plain_sumf", ensemble=16),
                         workers=1) == [1] * 16  # matched_filter_large
    sweep = ExperimentConfig(spread_factor=500, n_users=400, word_length=100,
                             ensemble=1)  # paired_sweep_cli
    assert payload_sizes(*harness.lambda2_plan(sweep, [0.0, 0.4, 0.8]).runs,
                         workers=1) == [1, 2]
    short = ExperimentConfig(spread_factor=250, n_users=200, ensemble=8)
    for length in (10, 20, 40, 80):  # short_words_pool, one arm at a time
        assert payload_sizes(replace(short, word_length=length),
                             workers=2) == [4, 4]


@pytest.mark.parametrize("workers", [None, 2], ids=["unset", "2"])
def test_realizations_of_one_kind_set_pack_by_their_slot_counts(workers):
    # lambda2 0.5 carries two correlated slots per realization and 0.9, its
    # delta 0.2 infeasible, one: the same engine kinds in other counts, so
    # each eigenvalue's realizations fill payloads of their own
    base = ExperimentConfig(spread_factor=100, n_users=60, word_length=10,
                            ensemble=6, seed=5)
    arms = harness.mismatch_plan(base, [0.05, 0.2], [0.5, 0.9]).runs
    assert len(arms) == 5
    assert payload_sizes(*arms, workers=workers) == (
        [6, 6] if workers is None else [3, 3, 3, 3])
    joint = harness.monte_carlo_arms(arms, workers)
    for arm in arms:
        assert_same_report(joint[arm], monte_carlo(arm))


def test_paired_arms_share_realizations_and_groups():
    # the C4 sweep: each realization carries a correlated and a plain arm;
    # at lambda2 = 0 both detect as the plain MUD, one slot, and the other
    # two realizations hold one slot of each engine kind, so their
    # correlated slots fill one 800-user group
    c4 = small_config(spread_factor=500, n_users=400, word_length=100,
                      ensemble=1)
    arms = harness.lambda2_plan(c4, [0.0, 0.4, 0.8]).runs
    assert [len(cfgs) for _, cfgs in realizations(*arms)] == [2, 2, 2]
    assert payload_sizes(*arms) == [1, 2]
    # arms of another size or length draw their own realizations
    assert len(realizations(
        c4, replace(c4, word_length=50), replace(c4, n_users=399))) == 3
    # two correlated arms of one realization fill a 400-user group each
    mismatch = harness.mismatch_plan(
        replace(c4, ensemble=3), [0.05, -0.05], [0.5]).runs
    assert len(mismatch) == 3
    assert payload_sizes(*mismatch) == [1, 1, 1]
    # a longer ensemble shares the realizations of the shorter one
    shared = realizations(c4, replace(c4, ensemble=3, variant="plain_mud"))
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
    shared = [index for index, arms in realizations(base, other)
              if arms == (base, other)]
    assert shared == ([0, 1] if name in SAME_REALIZATIONS else [])
    assert ((harness._engine_kind(base) == harness._engine_kind(other))
            == (name in SAME_ENGINE))


# ---------------------------------------------------------------------------
# distinct detections: a memoryless correlated MUD arm rides on the plain one


def spy_slots(monkeypatch):
    """The (variant, generator matrix, blind flag, assumed matrix) of every
    slot harness._detect is sent, in order; it detects none, so every
    slot counts the matched-filter decisions."""
    sent = []

    def detect(slots):
        sent.extend((cfg.variant, cfg.matrix, cfg.blind,
                     cfg.detector_matrix()) for cfg, _, _ in slots)
        return [None] * len(slots)

    monkeypatch.setattr(harness, "_detect", detect)
    return sent


def test_each_distinct_detection_of_a_realization_runs_once(monkeypatch):
    # the C4 sweep at ensemble 1 sends 5 slots, not 6: the lambda2 = 0
    # correlated arm detects as its plain arm, and gets its outcomes
    sent = spy_slots(monkeypatch)
    c4 = small_config(spread_factor=500, n_users=400, word_length=100,
                      ensemble=1)
    arms = harness.lambda2_plan(c4, [0.0, 0.4, 0.8]).runs
    reports = harness.monte_carlo_arms(arms)
    lam = {value: make_symmetric_matrix(value) for value in (0.0, 0.4, 0.8)}
    assert sent == [("plain_mud", lam[0.0], False, lam[0.0]),
                    ("correlated_mud", lam[0.4], False, lam[0.4]),
                    ("correlated_mud", lam[0.8], False, lam[0.8]),
                    ("plain_mud", lam[0.4], False, lam[0.4]),
                    ("plain_mud", lam[0.8], False, lam[0.8])]
    assert_same_report(reports[arms[0]], reports[arms[1]])


def test_arms_unlike_the_plain_mud_keep_their_own_slot(monkeypatch):
    # a blind arm re-estimates its matrix, the correlated matched filter
    # counts a sweep the plain one does not, and a mismatched arm assumes a
    # matrix that is not memoryless; only the last arm rides on the first
    cfg = small_config(matrix=iid_matrix(), ensemble=1)
    sumf = replace(cfg, variant="correlated_sumf")
    assert monte_carlo(sumf).iters_max == 1
    assert monte_carlo(replace(sumf, variant="plain_sumf")).iters_max == 0
    sent = spy_slots(monkeypatch)
    mismatched = replace(cfg, mismatch=0.05)
    harness.monte_carlo_arms([replace(cfg, variant="plain_mud"),
                              replace(cfg, blind=True), sumf, mismatched,
                              cfg])
    iid = iid_matrix()
    assert sent == [("plain_mud", iid, False, iid),
                    ("correlated_mud", iid, True, iid),
                    ("correlated_sumf", iid, False, iid),
                    ("correlated_mud", iid, False,
                     mismatched.detector_matrix())]
    assert mismatched.detector_matrix() != iid


@pytest.mark.parametrize("mismatch", [0.0, 0.05])
def test_a_mismatched_lambda2_zero_arm_keeps_its_own_slot(monkeypatch,
                                                          mismatch):
    # at lambda2 = 0 the correlated arm runs as the plain one only when it
    # assumes the memoryless matrix; a mismatch perturbs that assumption,
    # so the arm detects as itself and the point's ratio need not be 1
    sent = spy_slots(monkeypatch)
    corr, plain = harness.lambda2_plan(small_config(ensemble=1,
                                                    mismatch=mismatch),
                                       [0.0]).runs
    harness.monte_carlo_arms([corr, plain])
    iid = iid_matrix()
    plain_slot = ("plain_mud", iid, False, iid)
    corr_slot = ("correlated_mud", iid, False, corr.detector_matrix())
    assert sent == ([corr_slot, plain_slot] if mismatch else [plain_slot])


@pytest.mark.parametrize("variant, unread", [
    ("plain_sumf", dict(schedule="PUS", max_iters=7)),
    ("plain_mud", dict(schedule="RSUS")),
], ids=["plain_sumf", "plain_mud"])
def test_plain_arms_share_a_run_across_fields_they_never_read(
        monkeypatch, variant, unread):
    # the matched filter never reads schedule or max_iters, the plain MUD
    # never schedule: an arm that sets them runs as the default arm, one
    # draw and one slot per realization, and each reports under its own
    # config
    drawn, slots = [], []
    realization, detect = harness._realization, harness._detect
    monkeypatch.setattr(harness, "_realization", lambda runs, index: (
        drawn.append(index) or realization(runs, index)))
    monkeypatch.setattr(harness, "_detect", lambda sent: (
        slots.extend(sent) or detect(sent)))
    default = small_config(variant=variant, ensemble=3)
    odd = replace(default, **unread)
    reports = harness.monte_carlo_arms([odd, default])
    assert drawn == [0, 1, 2]
    assert len(slots) == 3
    assert reports[odd].config == odd
    assert reports[default].config == default
    assert_same_report(reports[odd], reports[default])
    assert harness.run_trial(odd, 1).errors_by_position.tolist() == (
        harness.run_trial(default, 1).errors_by_position.tolist())


def test_only_a_field_reading_run_builds_the_float64_field(monkeypatch):
    # a realization of plain matched filter runs only holds the matched
    # filter's decisions from sumf_decisions, which settles them without
    # the float64 sumf here; a correlated matched filter on the same
    # realizations reads the field, so sumf builds it once per realization
    from corrcdma import detectors
    calls = []
    for module in (harness, detectors):
        monkeypatch.setattr(module, "sumf", lambda s, y, name=module.__name__,
                            real=module.sumf: calls.append(name) or real(s, y))
    plain = small_config(variant="plain_sumf", ensemble=3)
    alone = monte_carlo(plain)
    assert calls == []
    corr = replace(plain, variant="correlated_sumf")
    joint = harness.monte_carlo_arms([plain, corr])
    assert calls == ["corrcdma.harness"] * plain.ensemble
    assert_same_report(joint[plain], alone)


@pytest.mark.parametrize("workers", [None, 1, 2], ids=["unset", "1", "2"])
@pytest.mark.parametrize("ensemble", [1, 3])
def test_memoryless_arms_in_a_joint_run_equal_lone_runs(workers, ensemble):
    # channels that differ only in eigenvalue or seed share their trial
    # indices and their payloads; every memoryless correlated arm, whatever
    # its ensemble or schedule, rides on a plain slot of its own channel
    cfg = small_config(ensemble=ensemble)
    arms = [*harness.lambda2_plan(cfg, [0.0, 0.4, 0.8]).runs,
            *harness.lambda2_plan(replace(cfg, seed=8), [0.0, 0.8]).runs,
            *harness.lambda2_plan(replace(cfg, schedule="RSUS"),
                                  [0.0, 0.6]).runs,
            *harness.mismatch_plan(cfg, [-0.1, 0.1], [0.0]).runs,
            replace(cfg, matrix=iid_matrix(), ensemble=ensemble + 1),
            replace(cfg, matrix=iid_matrix(), blind=True),
            replace(cfg, matrix=iid_matrix(), variant="correlated_sumf")]
    joint = harness.monte_carlo_arms(arms, workers)
    assert list(joint) == list(dict.fromkeys(arms))
    for cfg, report in joint.items():
        alone = monte_carlo(cfg)
        assert_same_report(report, alone)
        assert np.array_equal(report.per_position, alone.per_position)
        assert np.array_equal(report.std_err, alone.std_err)


def is_memoryless_correlated_mud(cfg):
    return (cfg.variant == "correlated_mud" and not cfg.blind
            and cfg.detector_matrix() == iid_matrix())


def test_no_payload_holds_a_memoryless_correlated_mud_run(monkeypatch):
    # monte_carlo_arms aliases every arm before it builds payloads, so the
    # workers see runs only, each once per realization; a memoryless
    # bandwidth point sends one slot per realization, its correlated arm
    # running as its plain reduced arm
    sent = []
    detect_realizations = harness._detect_realizations

    def spy(payload):
        sent.append(payload)
        return detect_realizations(payload)

    monkeypatch.setattr(harness, "_detect_realizations", spy)
    cfg = small_config(ensemble=2)
    bandwidth = harness.bandwidth_plan(cfg, [(0.0, iid_matrix())], [0.0],
                                       cfg.load)
    arms = [arm for plan in (
        harness.lambda2_plan(cfg, [0.0, 0.5]),
        harness.mismatch_plan(cfg, [-0.1, 0.0, 0.1], [0.0, 0.6]),
        harness.length_plan(replace(cfg, matrix=iid_matrix()), [4, 6, 8]),
        harness.fixed_plan(cfg, [(0.8, make_symmetric_matrix(0.8))]),
        bandwidth) for arm in plan.runs]
    arms.append(replace(cfg, matrix=iid_matrix(), blind=True))
    assert sum(map(is_memoryless_correlated_mud, arms)) == 6
    reports = harness.monte_carlo_arms(arms)
    assert [report.config for report in reports.values()] == list(
        dict.fromkeys(arms))
    realizations = [runs for payload in sent for _, runs in payload]
    assert not any(map(is_memoryless_correlated_mud,
                       (run for runs in realizations for run in runs)))
    assert all(len(set(runs)) == len(runs) for runs in realizations)
    assert any(run.blind for runs in realizations for run in runs)
    sent.clear()
    harness.monte_carlo_arms(bandwidth.runs)
    assert [runs for payload in sent for _, runs in payload] == [
        (bandwidth.runs[1],)] * 2


@pytest.mark.parametrize("schedule", ["SUS", "PUS", "BFUS", "RSUS"])
def test_run_trial_of_a_memoryless_correlated_arm_is_its_plain_twins(
        monkeypatch, schedule):
    sent = []
    detect = harness._detect

    def spy(slots):
        sent.extend(cfg.variant for cfg, _, _ in slots)
        return detect(slots)

    monkeypatch.setattr(harness, "_detect", spy)
    cfg = small_config(matrix=iid_matrix(), schedule=schedule)
    twin = replace(cfg, variant="plain_mud")
    for index in range(3):
        corr, plain = run_trial(cfg, index), run_trial(twin, index)
        assert np.array_equal(corr.errors_by_position,
                              plain.errors_by_position)
        assert np.array_equal(corr.iters, plain.iters)
        assert corr.unconverged_positions == plain.unconverged_positions
        assert corr.diverged == plain.diverged
    assert sent == ["plain_mud"] * 6


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
    plan = mismatch_plan(cfg, [-0.1, 0.1], [0.5, 0.9])
    joint = plan.run(workers)
    alone = plan.run(run_report=per_arm)
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
        real_sweep(padded, *rest)
        if not calls:  # trial 0 is in slot 0 at the first sweep
            padded[1, 0, 0] = np.nan
        calls.append(padded.shape[1])

    monkeypatch.setattr(detectors, "_bias_sweep", sweep)
    reports = harness.monte_carlo_arms([corr, plain])
    corr_report, plain_report = reports[corr], reports[plain]
    assert calls[0] == 3  # the three trials ran in one group
    assert_same_report(plain_report, plain_alone)
    assert corr_report.divergences == 1
    fallback = harness._outcome(
        corr, harness._realization((corr,), 0), None)
    expected = fallback.errors_by_position + sum(
        outcome.errors_by_position for outcome in alone[1:])
    assert np.array_equal(corr_report.errors_by_position, expected)


@pytest.mark.parametrize("kind", ["plain", "diverged", "iterated"])
def test_sign_count_equals_the_decisions_it_skips(kind):
    # every trial is counted from a field's sign test, the matched field's
    # for plain and diverged trials, the result's for an iterated one; the
    # oracle builds hard_decisions and compares them, also where the field
    # holds +0.0, -0.0 and NaN
    rng = np.random.default_rng(11)
    cfg = small_config(variant="plain_sumf", n_users=40, word_length=9)
    block = np.where(rng.random((40, 9)) < 0.5, 1, -1).astype(np.int8)
    field = rng.standard_normal((40, 9))
    special = rng.integers(0, 4, size=field.shape)
    field[special == 1] = 0.0
    field[special == 2] = -0.0
    field[special == 3] = np.nan
    matched, result = field, None
    if kind == "diverged":
        result = DetectorDivergence(3)
    elif kind == "iterated":
        matched = -field  # the matched field must not be the one counted
        result = DetectionResult(
            field=field, iters=np.ones(9, dtype=np.int64),
            converged=np.ones(9, dtype=bool), outer_iterations=1)
    outcome = harness._outcome(cfg, (block, matched, None), result)
    want = (hard_decisions(field) != block).sum(axis=0)
    assert outcome.errors_by_position.dtype == np.int64
    assert np.array_equal(outcome.errors_by_position, want)
    assert outcome.diverged == (kind == "diverged")


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


def test_reports_compare_by_value():
    # arrays inside make generated dataclass equality raise; a report
    # compares its config, per-position counts and summary instead
    cfg = small_config(ensemble=2)
    report = monte_carlo(cfg)
    assert report == monte_carlo(cfg)
    assert report != monte_carlo(replace(cfg, seed=8))
    assert report != report.summary()
    # the per-trial records compare by identity
    outcome = run_trial(cfg, 0)
    assert outcome == outcome and outcome != run_trial(cfg, 0)


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


def test_many_payloads_run_in_parallel_as_serially(pools):
    # K > GROUP_USERS / 2 puts each realization in a payload of its own, so
    # the pool gets more than 4 x workers payloads, one per task
    cfg = ExperimentConfig(spread_factor=640, n_users=510, word_length=4,
                           ensemble=18, seed=3)
    arms = [cfg, replace(cfg, variant="plain_mud")]
    assert payload_sizes(*arms, workers=2) == [1] * 18
    serial = harness.monte_carlo_arms(arms)
    parallel = harness.monte_carlo_arms(arms, workers=2)
    assert list(parallel) == arms
    for arm in arms:
        assert_same_report(parallel[arm], serial[arm])
        for name in ("per_position", "std_err"):
            assert np.array_equal(getattr(parallel[arm], name),
                                  getattr(serial[arm], name))
    assert len(pools) == 1


def test_a_joint_run_without_trials_makes_no_pool(pools):
    # a mismatch study whose every perturbation is infeasible runs no arm
    assert harness.monte_carlo_arms([], workers=2) == {}
    (point,) = mismatch_plan(small_config(), [0.2], [0.9]).run(workers=2)
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


def test_length_study_reports_an_undefined_fit_as_nan():
    # flat curves saturate at position 0, which a log-log fit cannot use:
    # the study keeps its positions and reports the fit as nan, warning
    # why (fit_loglog_slope itself still refuses)
    cfg = small_config(ensemble=1)
    flat = lambda c: SimpleNamespace(per_position=np.zeros(c.word_length))
    with pytest.warns(UserWarning) as caught:
        result = length_scaling_study(cfg, [10, 20, 40], run_report=flat)
    assert [str(w.message) for w in caught] == [
        "excluding 3 zero position(s) from the log-log fit",
        "log-log fit needs at least two nonzero positions; slope and "
        "intercept are nan"]
    assert result.positions == (0.0, 0.0, 0.0)
    assert math.isnan(result.slope) and math.isnan(result.intercept)


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
    points = mismatch_plan(cfg, [0.10], [0.9]).run()
    (point,) = points
    assert not point.feasible
    assert point.reason and "0.9" in point.reason or point.reason
    assert np.isnan(point.p_corr) and np.isnan(point.normalized)


def test_mismatch_study_records_a_zero_entry_as_infeasible():
    # 0.9 * (1 + 1/9) is exactly 1.0: the config refuses that assumed
    # matrix, so its point runs nothing and records why, and the zero
    # delta still runs
    ran = []

    def record(cfg):
        ran.append((cfg.variant, cfg.mismatch))
        return monte_carlo(cfg)

    zero, saturated = mismatch_plan(small_config(ensemble=2),
                                    [0.0, 0.1111111111111111],
                                    [0.8]).run(run_report=record)
    assert zero.feasible and not saturated.feasible
    assert "a zero entry" in saturated.reason
    assert np.isnan(saturated.p_corr) and not np.isnan(zero.p_corr)
    assert ran == [("plain_mud", 0.0), ("correlated_mud", 0.0)]


def test_mismatch_study_checks_every_eigenvalue_before_running():
    ran = []
    with pytest.raises(ValueError, match="lambda2 must lie in"):
        mismatch_plan(small_config(ensemble=1), [0.1], [0.5, 1.5]).run(
            run_report=ran.append)
    assert ran == []


def test_mismatch_study_runs_each_plain_arm_once_per_eigenvalue():
    # the plain arm runs at the first feasible delta, then serves the rest
    ran = []

    def record(cfg):
        ran.append((cfg.variant, cfg.matrix.lambda2, cfg.mismatch))
        return SimpleNamespace(aggregate=0.1)

    mismatch_plan(small_config(ensemble=1), [0.1, -0.05, 0.05],
                  [0.9, 0.3]).run(run_report=record)
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
    (mis_point,) = mismatch_plan(cfg, [0.0], [0.6]).run()
    assert mis_point.feasible
    assert mis_point.normalized == sweep_point.normalized
    assert mis_point.p_corr == sweep_point.p_corr


def test_mismatch_study_orders_points_per_eigenvalue():
    cfg = small_config(ensemble=1)
    points = mismatch_plan(cfg, [-0.05, 0.05], [0.3, 0.5]).run()
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
    # the fixed plan runs each matrix's paired arms; the bandwidth points
    # of one matrix share its correlated arm
    matrix = sym(0.8)
    assert harness.fixed_plan(cfg, [(0.8, matrix)]).runs \
        == harness.paired_arms(replace(cfg, matrix=matrix))
    (corr, exact), (_, excess) = (harness.bandwidth_arms(cfg, matrix, eps, 0.5)
                                  for eps in (0.0, 0.05))
    assert harness.bandwidth_plan(cfg, [(0.8, matrix)], [0.0, 0.05],
                                  0.5).runs == (corr, exact, excess)


def test_paired_plans_run_a_repeated_point_once_and_keep_its_rows():
    # a point repeated through the library lists its arms once, in point
    # order, and still reduces to one row per point given
    cfg = small_config(ensemble=1)
    sym = make_symmetric_matrix
    run = lambda c: SimpleNamespace(aggregate=0.1 if c.variant == "plain_mud"
                                    else 0.05, errors_total=1, bits_total=20)
    sweep = harness.lambda2_plan(cfg, [0.5, 0.0, 0.5])
    assert [(c.variant, c.matrix) for c in sweep.runs] == [
        ("correlated_mud", sym(0.5)), ("plain_mud", sym(0.5)),
        ("correlated_mud", sym(0.0)), ("plain_mud", sym(0.0))]
    assert [p.lambda2 for p in sweep.run(run_report=run)] == [0.5, 0.0, 0.5]
    mismatch = harness.mismatch_plan(cfg, [0.1, 0.1, -0.05], [0.3, 0.3])
    assert [(c.variant, c.mismatch) for c in mismatch.runs] == [
        ("plain_mud", 0.0), ("correlated_mud", 0.1),
        ("correlated_mud", -0.05)]
    assert [(p.lambda2, p.rel_delta, p.normalized)
            for p in mismatch.run(run_report=run)] == [
        (lam, delta, 0.5) for lam in (0.3, 0.3) for delta in (0.1, 0.1, -0.05)]
    matrix = sym(0.8)
    bandwidth = harness.bandwidth_plan(cfg, [(0.8, matrix)] * 2, [0.0, 0.0],
                                       0.5)
    assert bandwidth.runs == harness.bandwidth_arms(cfg, matrix, 0.0, 0.5)
    rows = bandwidth.run(run_report=run)
    assert rows == [rows[0]] * 4


@pytest.mark.parametrize(
    "protocol, rate_excesses, amplification, message", [
        ("bandwidth", (0.0,), "bits", "amplification must be one of"),
        ("fixed", (0.0,), "entropy", "source entropy is zero"),
        ("bandwidth", (0.0, -0.1), "entropy", "rate_excess must be >= 0"),
    ],
    # the ids these cases had beside a removed fourth one
    ids=["bandwidth-rate_excesses1-bits-amplification must be one of",
         "fixed-rate_excesses2-entropy-source entropy is zero",
         "bandwidth-rate_excesses3-entropy-rate_excess must be >= 0"])
def test_compression_plan_checks_every_point_up_front(
        protocol, rate_excesses, amplification, message):
    # a bad amplification or point fails as the plan is built; the fixed
    # plan's second matrix has no entropy
    cfg = small_config(ensemble=1)
    matrices = [(0.5, make_symmetric_matrix(0.5))]
    with pytest.raises(ValueError, match=message):
        if protocol == "fixed":
            harness.fixed_plan(cfg, [*matrices,
                                     (1.0, make_symmetric_matrix(1.0))])
        else:
            harness.bandwidth_plan(cfg, matrices, rate_excesses, cfg.load,
                                   amplification)


@pytest.mark.parametrize("args, kwargs", [
    (((0.05, 0.1),), {}),
    ((), {"rate_excesses": (0.05,)}),
    ((), {"base_beta": 0.3}),
    ((), {"base_beta": math.inf}),
    ((), {"amplification": "rate"}),
], ids=["rate-excesses", "rate-excesses-keyword", "base-beta",
        "base-beta-inf", "amplification"])
def test_fixed_plan_takes_no_bandwidth_setting(args, kwargs):
    # the fixed protocol reads none of the bandwidth protocol's settings,
    # so passing one is an error rather than a setting silently dropped
    cfg = small_config(ensemble=1)
    matrices = [(0.5, make_symmetric_matrix(0.5))]
    with pytest.raises(TypeError):
        harness.fixed_plan(cfg, matrices, *args, **kwargs)


def test_bandwidth_plan_has_no_default_base_load():
    # the base load is the bandwidth protocol's own setting: a caller names
    # it, and the config's load is not read in its place
    cfg = small_config(ensemble=1)
    matrices = [(0.5, make_symmetric_matrix(0.5))]
    with pytest.raises(TypeError, match="base_beta"):
        harness.bandwidth_plan(cfg, matrices, (0.0,))
    with pytest.raises(TypeError, match="base_beta"):
        harness.bandwidth_plan(cfg, matrices, (0.0,), amplification="rate")


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


def test_ber_csv_of_numpy_typed_config_is_byte_identical(tmp_path):
    # a config of numpy scalars equals its Python-typed twin, so its file
    # must too: no np.float64(...) or True in a header line
    cfg = small_config(ensemble=2, blind=True)
    typed = replace(cfg, sigma=np.float64(cfg.sigma), blind=np.True_,
                    ensemble=np.int64(cfg.ensemble))
    assert typed == cfg
    report = monte_carlo(cfg)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_ber_csv(first, report)
    write_ber_csv(second, dataclasses.replace(report, config=typed))
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


def test_paired_families_keep_their_column_rows():
    # the columns come from the point fields; the plot-data reader
    # recognises each paired family by this column row
    assert harness.CSV_COLUMNS["normalized_sweep"] == (
        "lambda2", "correlation_length", "p_corr", "p_plain", "normalized",
        "errors_corr", "errors_plain", "bits_total")
    assert harness.CSV_COLUMNS["mismatch_surface"] == (
        "lambda2", "rel_delta", "feasible", "reason", "p_corr", "p_plain",
        "normalized")


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
    points = mismatch_plan(cfg, [0.10], [0.5, 0.9]).run()
    path = tmp_path / "mismatch.csv"
    write_mismatch_csv(path, cfg, points)
    _, columns, rows = read_csv_with_header(path)
    assert columns[2] == "feasible"
    assert rows[0][2] == "true" and rows[1][2] == "false"
    assert rows[0][3] == ""  # a feasible point has no reason
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
