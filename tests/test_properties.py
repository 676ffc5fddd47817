"""Property tests of the detectors on small random instances.

Hypothesis draws the instance (sizes, noise, source correlation, seed) and
the detector settings; the runs are derandomized, so every test run checks
the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcdma.channel import generate_spreading, transmit
from corrcdma.detectors import (
    SCHEDULES,
    DetectorOptions,
    correlated_mud_detect,
    correlated_sumf_detect,
    mud_detect,
    sumf_detect,
)
from corrcdma.markov import generate_block, iid_matrix, make_symmetric_matrix

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
    # sweep that finds every correction unchanged
    spreading, received, sigma = instance
    plain = sumf_detect(spreading, received)
    corr = correlated_sumf_detect(spreading, received, iid_matrix(), sigma,
                                  options(schedule, blind, 0))
    assert np.array_equal(plain.bits, corr.bits)
    assert np.array_equal(plain.field, corr.field)
    assert np.all(plain.iters == 0) and np.all(corr.iters == 1)


def detect(variant, spreading, received, sigma, matrix, schedule, seed):
    opts = options(schedule, False, seed)
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
       st.sampled_from(("plain_mud", "correlated_mud", "plain_sumf",
                        "correlated_sumf")),
       st.sampled_from((-0.6, 0.0, 0.5, 0.9)), st.sampled_from(SCHEDULES),
       st.integers(0, 2**16))
def test_negated_signal_negates_the_detection(instance, variant, lam,
                                              schedule, seed):
    # a symmetric matrix treats -1 and +1 alike, so every detector is odd in
    # the received signal (blind mode is left out: its estimates need not be
    # symmetric, and the stationary edge value of a mirrored matrix is
    # negated only up to rounding)
    spreading, received, sigma = instance
    matrix = make_symmetric_matrix(lam)
    run = [detect(variant, spreading, y, sigma, matrix, schedule, seed)
           for y in (received, -received)]
    assert np.array_equal(run[1].field, -run[0].field)
    assert np.array_equal(run[1].bits, -run[0].bits)
    assert np.array_equal(run[1].iters, run[0].iters)
