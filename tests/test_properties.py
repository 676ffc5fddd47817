"""Property tests of the detectors on small random instances.

Hypothesis draws the instance (sizes, noise, source correlation, seed) and
the detector settings; the runs are derandomized, so every test run checks
the same examples.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcdma import detectors, harness
from corrcdma.channel import generate_spreading, transmit
from corrcdma.detectors import (
    SCHEDULES,
    DetectorDivergence,
    DetectorOptions,
    _run_engine,
    correlated_mud_detect,
    correlated_sumf_detect,
    hard_decisions,
    mud_detect,
    sumf,
    sumf_decisions,
    sumf_detect,
)
from corrcdma.harness import VARIANTS, ExperimentConfig, monte_carlo, run_trial
from corrcdma.markov import (
    TransitionMatrix,
    estimate_transition,
    generate_block,
    iid_matrix,
    make_symmetric_matrix,
    perturb_element,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=100)


@st.composite
def instances(draw):
    """(spreading, received, sigma) of one toy transmission."""
    spread = draw(st.integers(2, 24))
    users = draw(st.integers(1, 24))
    word_len = draw(st.integers(1, 8))
    sigma = draw(st.sampled_from((0.3, 0.8, 1.5)))
    lam = draw(st.sampled_from((0.0, 0.5, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = generate_block(make_symmetric_matrix(lam), users, word_len, rng)
    spreading = generate_spreading(spread, users, rng)
    return spreading, transmit(spreading, block, sigma, rng), sigma


def options(schedule, blind, seed, max_iters=50):
    return DetectorOptions(max_iters=max_iters, schedule=schedule, blind=blind,
                           schedule_rng=np.random.default_rng(seed))


def assert_same(a, b):
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.field, b.field)
    assert np.array_equal(a.iters, b.iters)


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(SCHEDULES), st.integers(1, 50))
def test_memoryless_correlated_mud_is_plain_mud(instance, schedule, cap):
    spreading, received, sigma = instance
    plain = mud_detect(spreading, received, sigma,
                       DetectorOptions(max_iters=cap))
    corr = correlated_mud_detect(spreading, received, iid_matrix(), sigma,
                                 options(schedule, False, 0, cap))
    assert_same(plain, corr)


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(SCHEDULES), st.booleans())
def test_memoryless_correlated_sumf_is_plain_sumf(instance, schedule, blind):
    # sumf_detect counts no iteration; the correlated SUMF counts the one
    # sweep, whose zero corrections leave every decision as it was
    spreading, received, sigma = instance
    plain = sumf_detect(spreading, received)
    corr = correlated_sumf_detect(spreading, received, iid_matrix(), sigma,
                                  options(schedule, blind, 0))
    assert np.array_equal(plain.bits, corr.bits)
    assert np.array_equal(plain.field, corr.field)
    assert np.all(plain.iters == 0) and np.all(corr.iters == 1)


def detect(variant, spreading, received, sigma, matrix, schedule, seed,
           blind=False):
    opts = options(schedule, blind, seed)
    if variant == "plain_mud":
        return mud_detect(spreading, received, sigma, opts)
    if variant == "correlated_mud":
        return correlated_mud_detect(spreading, received, matrix, sigma, opts)
    if variant == "correlated_sumf":
        return correlated_sumf_detect(spreading, received, matrix, sigma,
                                      opts)
    return sumf_detect(spreading, received)


@PROPERTY_SETTINGS
@given(instances(),
       st.sampled_from((("plain_mud", False), ("correlated_mud", False),
                        ("correlated_mud", True), ("plain_sumf", False),
                        ("correlated_sumf", False))),
       st.sampled_from((-0.6, 0.0, 0.5, 0.9)), st.sampled_from(SCHEDULES),
       st.integers(0, 2**16))
def test_negated_signal_negates_the_detection(instance, arm, lam, schedule,
                                              seed):
    # a symmetric matrix treats -1 and +1 alike, so every detector is odd in
    # the received signal; in blind mode the negated signal's estimates are
    # the mirrored matrices, whose neighbour terms and stationary edge value
    # are exactly mirrored
    spreading, received, sigma = instance
    variant, blind = arm
    blind = blind and received.shape[1] >= 2
    matrix = make_symmetric_matrix(lam)
    run = [detect(variant, spreading, y, sigma, matrix, schedule, seed, blind)
           for y in (received, -received)]
    assert np.array_equal(run[1].field, -run[0].field)
    assert np.array_equal(run[1].bits, -run[0].bits)
    assert np.array_equal(run[1].iters, run[0].iters)
    if blind:
        assert np.array_equal(run[1].estimated_matrix.matrix,
                              run[0].estimated_matrix.matrix[::-1, ::-1])


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 8),
       st.one_of(st.just(0.0), st.floats(0.05, 2.0)), st.floats(-30, 30),
       st.integers(0, 2**32 - 1))
def test_sumf_decisions_are_the_matched_filter_decisions(
        spread, users, word_len, sigma, exponent, seed):
    # the float32 certificate, its float64 recheck and its fallback
    # together give the float64 field's decisions bit for bit, at any
    # scale of the received samples (sigma 0 makes exact zeros)
    rng = np.random.default_rng(seed)
    block = generate_block(iid_matrix(), users, word_len, rng)
    spreading = generate_spreading(spread, users, rng)
    received = transmit(spreading, block, sigma, rng) * 10.0**exponent
    got = sumf_decisions(spreading, received)
    assert got.dtype == np.int8
    assert np.array_equal(got, hard_decisions(sumf(spreading, received)))


# ---------------------------------------------------------------------------
# trials in lockstep: a group of realizations shares the engine's arrays
# only, so every trial's result is the one it has alone


@st.composite
def groups(draw):
    """(kind, fields, corrs, load, sigma, matrix, options, seed) of a group
    of same-size toy realizations, seed being the schedule streams'."""
    kind = draw(st.sampled_from(("plain", "mud", "sumf")))
    schedule = draw(st.sampled_from(SCHEDULES))
    blind = kind == "mud" and draw(st.booleans())
    spread = draw(st.integers(2, 24))
    users = draw(st.integers(1, 24))  # K > N included: overloaded instances
    word_len = draw(st.integers(2 if blind else 1, 8))
    sigma = draw(st.sampled_from((0.3, 0.8, 1.5)))
    matrix = make_symmetric_matrix(draw(st.sampled_from((0.0, 0.5, 0.9))))
    opts = DetectorOptions(max_iters=draw(st.integers(1, 50)),
                           schedule=schedule, blind=blind, track_bounds=True)
    seed = draw(st.integers(0, 2**16))
    fields, corrs = [], []
    for _ in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        block = generate_block(matrix, users, word_len, rng)
        spreading = generate_spreading(spread, users, rng)
        fields.append(sumf(spreading, transmit(spreading, block, sigma, rng)))
        corrs.append(spreading.corr)
    return kind, fields, corrs, users / spread, sigma, matrix, opts, seed


def engine_runs(kind, fields, corrs, load, sigma, matrix, opts, seed):
    # every realization shuffles with a fresh stream of the drawn seed
    assumed = None if kind == "plain" else [matrix] * len(fields)
    return _run_engine(fields, corrs, load, sigma, opts, assumed,
                       iterate=kind != "sumf",
                       rngs=[np.random.default_rng(seed) for _ in fields])


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(groups())
def test_grouped_engine_equals_single_runs(group):
    kind, fields, corrs, load, sigma, matrix, opts, seed = group
    together = engine_runs(*group)
    for field, corr, result in zip(fields, corrs, together):
        (alone,) = engine_runs(kind, [field], [corr], load, sigma, matrix,
                               opts, seed)
        if isinstance(alone, DetectorDivergence):
            assert isinstance(result, DetectorDivergence)
            assert result.iteration == alone.iteration
            continue
        assert_same(result, alone)
        # the bits, the signs of the field the run returns, are those of
        # its soft values
        assert np.array_equal(result.bits,
                              hard_decisions(np.tanh(result.field)))
        assert np.array_equal(result.converged, alone.converged)
        assert result.outer_iterations == alone.outer_iterations
        assert result.bounds == alone.bounds
        if alone.estimated_matrix is None:
            assert result.estimated_matrix is None
        else:
            assert np.array_equal(result.estimated_matrix.matrix,
                                  alone.estimated_matrix.matrix)


# every entry at least 4e-5 keeps each neighbour product above CLAMP_FLOOR
# (2^-30, about 9.3e-10), so a sweep under these matrices skips its clamp
ENTRY = 4e-5


@st.composite
def certified_matrices(draw):
    """An assumed matrix a sweep certifies: symmetric, asymmetric,
    mismatched (an element perturbed, as harness mismatch arms assume) or a
    blind estimate from soft values."""
    kind = draw(st.sampled_from(("symmetric", "asymmetric", "mismatched",
                                 "estimated")))
    if kind == "asymmetric":
        a, b = (draw(st.floats(ENTRY, 1 - ENTRY)) for _ in range(2))
        return TransitionMatrix([[a, 1 - a], [b, 1 - b]])
    if kind == "estimated":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return estimate_transition(np.tanh(3 * rng.standard_normal((4, 6))))
    t = make_symmetric_matrix(draw(st.floats(-0.9998, 0.9998)))
    if kind == "mismatched":
        t = perturb_element(t, draw(st.floats(-0.5, 0.5)))
        assert t.matrix.min() >= ENTRY
    return t


# soft values the sweep must treat alike with and without the clamp: hard,
# signed zero, NaN and, per slot, its matrix's stationary edge value
SPECIAL_SOFT = (1.0, -1.0, 0.0, -0.0, np.nan, "edge")


@PROPERTY_SETTINGS
@given(st.lists(certified_matrices(), min_size=1, max_size=3),
       st.integers(1, 6), st.integers(1, 5), st.sampled_from(SCHEDULES),
       st.integers(0, 1), st.sampled_from((1.0, 0.8 + 0.8**2)), st.data())
def test_certified_sweep_equals_the_clamped_one(matrices, word_len, users,
                                                schedule, t, scale, data):
    # a sweep whose models certify the clamp idle skips it and the totals
    # check, and leaves every correction and soft row bit for bit as the
    # clamped sweep does: the per-column tuples of SUS, BFUS (t even and
    # odd) and RSUS and the whole-block tuple of PUS, at the unit scale of
    # the MUD and the correlated SUMF's load + sigma^2
    trials = len(matrices)
    shape = (word_len, trials, users)
    model = np.repeat(np.stack([detectors._neighbour_model(m)
                                for m in matrices], axis=1), users, axis=2)
    assert not detectors._clamp_needed(model)
    values = data.draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_SOFT), st.floats(-1.0, 1.0)),
        min_size=model[8].size * word_len, max_size=model[8].size * word_len))
    edges = np.broadcast_to(model[8], shape).reshape(-1)
    soft = np.array([edges[i] if v == "edge" else v
                     for i, v in enumerate(values)]).reshape(shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    field = 3.0 * rng.standard_normal(shape)
    seed = data.draw(st.integers(0, 2**16))
    runs = []
    for clamp in (True, False):
        padded = np.zeros((word_len + 2, trials, users))
        padded[1:-1] = soft
        xi = np.zeros(shape)
        detectors._bias_sweep(padded, field, xi, model, schedule, t,
                              np.random.default_rng(seed), scale,
                              np.empty(4 * padded.size), clamp)
        runs.append((padded.view(np.int64), xi.view(np.int64)))
    (padded_clamped, xi_clamped), (padded_certified, xi_certified) = runs
    assert np.array_equal(xi_certified, xi_clamped)
    assert np.array_equal(padded_certified, padded_clamped)


@st.composite
def configs(draw):
    """A toy ExperimentConfig of any variant and schedule, blind or not
    where the variant reads the flag."""
    variant = draw(st.sampled_from(VARIANTS))
    blind = variant == "correlated_mud" and draw(st.booleans())
    return ExperimentConfig(
        spread_factor=draw(st.integers(2, 20)),
        n_users=draw(st.integers(1, 16)),
        sigma=draw(st.sampled_from((0.3, 0.8, 1.5))),
        word_length=draw(st.integers(2 if blind else 1, 8)),
        matrix=make_symmetric_matrix(draw(st.sampled_from((0.0, 0.5, 0.9)))),
        variant=variant, schedule=draw(st.sampled_from(SCHEDULES)),
        blind=blind,
        ensemble=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**16)),
        max_iters=draw(st.integers(1, 30)))


def assert_same_outcome(a, b):
    assert np.array_equal(a.errors_by_position, b.errors_by_position)
    assert np.array_equal(a.iters, b.iters)
    assert a.unconverged_positions == b.unconverged_positions
    assert a.diverged == b.diverged


@PROPERTY_SETTINGS
@given(configs(), st.lists(st.integers(0, 50), min_size=1, max_size=5))
def test_run_trials_equals_run_trial(config, indices):
    # trials detected in lockstep equal each trial run alone
    outcomes = harness._detect_realizations(
        [(index, (config,)) for index in indices])
    assert len(outcomes) == len(indices)
    for index, (_, outcome) in zip(indices, outcomes):
        assert_same_outcome(outcome, run_trial(config, index))


def assert_same_report(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(configs(), st.sampled_from((1, 20, 50)))
def test_report_independent_of_workers_and_groups(config, group_users):
    serial = monte_carlo(config)
    assert_same_report(serial, monte_carlo(config, workers=1))
    assert_same_report(serial, monte_carlo(config, workers=2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detectors, "GROUP_USERS", group_users)
        assert_same_report(serial, monte_carlo(config))


@st.composite
def joint_runs(draw):
    """Arms of any variant, schedule, blind flag, assumed-matrix mismatch
    (the last two where the variant reads them) and ensemble on one or two
    channels, so that some arms share their realizations, with a
    permutation of the arms and a split point."""
    channels = [dict(
        spread_factor=draw(st.integers(2, 20)),
        n_users=draw(st.integers(1, 16)),
        sigma=draw(st.sampled_from((0.3, 0.8))),
        word_length=draw(st.integers(2, 8)),
        matrix=make_symmetric_matrix(draw(st.sampled_from((0.0, 0.5, 0.9)))),
        seed=draw(st.integers(0, 2**16)))
        for _ in range(draw(st.integers(1, 2)))]
    arms = []
    for _ in range(draw(st.integers(1, 5))):
        variant = draw(st.sampled_from(VARIANTS))
        arms.append(ExperimentConfig(
            **draw(st.sampled_from(channels)), variant=variant,
            schedule=draw(st.sampled_from(SCHEDULES)),
            blind=variant == "correlated_mud" and draw(st.booleans()),
            mismatch=(draw(st.sampled_from((0.0, -0.05)))
                      if variant.startswith("correlated_") else 0.0),
            ensemble=draw(st.integers(1, 4)),
            max_iters=draw(st.integers(1, 30))))
    order = draw(st.permutations(range(len(arms))))
    return arms, order, draw(st.integers(0, len(arms)))


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(joint_runs(), st.sampled_from((1, 20, 50)))
def test_reports_independent_of_arm_order_and_grouping(run, group_users):
    arms, order, split = run
    alone = [monte_carlo(cfg) for cfg in arms]
    shuffled = harness.monte_carlo_arms([arms[i] for i in order])
    assert list(shuffled) == list(dict.fromkeys(arms[i] for i in order))
    parts = {**harness.monte_carlo_arms(arms[:split]),
             **harness.monte_carlo_arms(arms[split:])}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detectors, "GROUP_USERS", group_users)
        regrouped = harness.monte_carlo_arms(arms)
    for cfg, want in zip(arms, alone):
        for reports in (shuffled, parts, regrouped):
            assert_same_report(reports[cfg], want)


FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports a module that warns on import; with
    # this repo's warnings-as-errors setting that warning must not abort the
    # session before the next test runs
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ini), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
