"""Compression-baseline arithmetic and per-position BER shape metrics.

The detection scheme for correlated sources competes against classic
separation: compress the source to i.i.d. bits, transmit, detect, decompress.
Two protocols quantify that comparison, each as arithmetic on measured
error rates; harness.fixed_plan and harness.bandwidth_plan plan the arms
that measure them. The bandwidth-expansion protocol lets the compressed
stream spend the spare bandwidth on longer spreading codes (equivalently a
lower load) and charges each compressed-bit error a multiplicative factor
for the errors it smears over the reconstructed source. The fixed-load
protocol keeps the channel identical, treats the detector's error rate as
the crossover probability of a binary symmetric channel, and asks what
residual error an ideal source decoder leaves. compression_point checks a
point and gives its entropy and rate.

Also here: the word-position saturation metric (how far into a word the
per-position BER settles to its floor) and its log-log slope fit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detectors import _check_real
from .markov import TransitionMatrix, source_stats

AMPLIFICATIONS = ("entropy", "rate")

# How far above the minimum BER a word position counts as saturated, unless
# a study asks for another factor.
DEFAULT_THRESHOLD_FACTOR = 1.2


def binary_entropy(f):
    """H2(f) = -f log2 f - (1-f) log2 (1-f), elementwise, with 0 log 0 = 0."""
    x = np.asarray(f, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("binary_entropy argument outside [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0) \
            - np.where(x < 1.0, (1.0 - x) * np.log2(np.where(x < 1.0, 1.0 - x, 1.0)), 0.0)
    return float(h) if np.isscalar(f) or np.ndim(f) == 0 else h


def inverse_binary_entropy(y: float) -> float:
    """The unique f in [0, 0.5] with H2(f) = y, by bisection to 1e-12."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("inverse_binary_entropy argument outside [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def bsc_residual_error(entropy_bits: float, crossover: float) -> float:
    """Residual per-bit error of ideal source decoding after a BSC.

    A source of entropy_bits per symbol is compressed at its entropy,
    sent through a channel that flips each bit with probability crossover,
    and decoded by an ideal decoder. The residual error p solves
    entropy_bits = (1 - H2(crossover)) / (1 - H2(p)). When the channel's
    surviving information 1 - H2(crossover) already reaches entropy_bits,
    decoding is error-free and 0.0 is returned. Any crossover in [0, 1] is
    taken: the capacity 1 - H2 is symmetric, so crossover and 1 -
    crossover leave the same residual, and a crossover of 0.5, a channel
    that carries nothing, leaves 0.5.
    """
    if entropy_bits <= 0.0 or entropy_bits > 1.0:
        raise ValueError(f"entropy_bits must lie in (0, 1], got {entropy_bits}")
    if not 0.0 <= crossover <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {crossover}")
    surviving = 1.0 - binary_entropy(crossover)
    if surviving >= entropy_bits:
        return 0.0
    return inverse_binary_entropy(1.0 - surviving / entropy_bits)


@dataclass(frozen=True)
class CompressionComparison:
    """Head-to-head of direct correlated detection vs compress-then-send.

    p_corr is the measured BER of the correlated scheme, p_comp the per
    source bit error attributed to the compression alternative, rate the
    compression rate assumed, protocol the comparison recipe used.
    """

    p_corr: float
    p_comp: float
    rate: float
    protocol: str

    def __post_init__(self):
        for name, value in (("p_corr", self.p_corr), ("p_comp", self.p_comp)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} outside [0, 1]: {value}")

    @property
    def ratio(self) -> float:
        """p_corr over p_comp, zero-safe: below 1 means direct detection
        wins."""
        return error_ratio(self.p_corr, self.p_comp)


def error_ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator of two error rates, zero-safe: two error-free
    arms tie at 1, and errors against an error-free arm give inf."""
    if denominator == 0.0:
        return 1.0 if numerator == 0.0 else math.inf
    return numerator / denominator


def compression_point(matrix: TransitionMatrix, rate_excess: float = 0.0):
    """Check one comparison point; returns (entropy_bits, rate).

    rate is (1 + rate_excess) * H_b. Raises ValueError for a rate_excess
    that is not a real number (a bool or a string), negative or not
    finite, a source of zero entropy or a rate above 1.
    """
    rate_excess = _check_real(rate_excess, "rate_excess")
    if not 0.0 <= rate_excess < math.inf:
        raise ValueError(f"rate_excess must be >= 0 and finite, got "
                         f"{rate_excess}")
    entropy = source_stats(matrix).entropy_bits
    if entropy <= 0.0:
        raise ValueError("source entropy is zero: nothing to transmit after compression")
    rate = (1.0 + rate_excess) * entropy
    if rate > 1.0:
        raise ValueError(f"effective rate (1+eps)*H_b = {rate:.4f} exceeds 1")
    return entropy, rate


def bandwidth_expansion_comparison(matrix: TransitionMatrix,
                                   rate_excess: float, p_corr: float,
                                   p_reduced: float,
                                   amplification: str = "entropy"
                                   ) -> CompressionComparison:
    """Compare against compression that reinvests its bandwidth in spreading.

    Compressing at rate r = (1 + rate_excess) * H_b shortens the stream r
    times, so the compressed bits ride at the reduced load base_beta * r
    (harness.bandwidth_arms builds both arms). p_corr is the measured BER of
    the correlated scheme at the full load, p_reduced that of the plain
    detector on memoryless bits at the reduced load.

    The reported comparison divides out the error amplification of
    decompression: with amplification="entropy" each compressed-bit error
    is charged 1/H_b reconstructed-source errors (set by the source's
    actual redundancy, also when the coder is suboptimal); "rate" charges
    1/r instead. In both cases
    ratio = amplification_factor * p_corr / p_reduced.
    """
    if amplification not in AMPLIFICATIONS:
        raise ValueError(f"amplification must be one of {AMPLIFICATIONS}")
    entropy, rate = compression_point(matrix, rate_excess)
    amp = entropy if amplification == "entropy" else rate
    p_comp = min(p_reduced / amp, 1.0)
    return CompressionComparison(p_corr, p_comp, rate, "bandwidth_expansion")


def fixed_load_comparison(matrix: TransitionMatrix, p_corr: float,
                          p_plain: float) -> CompressionComparison:
    """Compare against compression at identical load and noise.

    p_corr and p_plain are the BERs of the correlated scheme and the plain
    detector on the very same transmissions. The plain detector's error
    rate becomes the crossover probability of a binary symmetric channel
    feeding an ideal source decoder; the decoder's residual error is the
    compression alternative's cost.
    """
    entropy, _ = compression_point(matrix)
    p_comp = bsc_residual_error(entropy, p_plain)
    return CompressionComparison(p_corr, p_comp, entropy, "fixed_load_bsc")


def check_threshold_factor(threshold_factor: float) -> float:
    """threshold_factor as a float, else ValueError naming it: a real number
    (no bool or string), finite and above 1 (NaN fails)."""
    threshold_factor = _check_real(threshold_factor, "threshold_factor")
    if not 1.0 < threshold_factor < math.inf:
        raise ValueError("threshold_factor must be finite and exceed 1, got "
                         f"{threshold_factor}")
    return threshold_factor


def saturation_position(ber_by_position,
                        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR
                        ) -> float:
    """Relative word position where the per-position BER settles.

    Returns the first position (0-based, scanning from the word start)
    whose BER is at or below threshold_factor times the minimum BER,
    divided by the word length: the point where the elevated word-start
    region has decayed to the floor. Converged curves are elevated near
    BOTH word edges (each boundary symbol has a single neighbor), so the
    scan deliberately ignores the word tail; demanding every later position
    under the threshold would report 1.0 on such curves. 0 means saturated
    from the start; an all-zero curve returns 0.
    """
    ber = np.asarray(ber_by_position, dtype=np.float64)
    if ber.ndim != 1 or ber.size < 2:
        raise ValueError("need a 1-d array of at least 2 per-position values")
    if not np.all((ber >= 0.0) & (ber < math.inf)):
        raise ValueError("BER values must be >= 0 and finite")
    threshold_factor = check_threshold_factor(threshold_factor)
    if not ber.any():
        return 0.0
    threshold = threshold_factor * float(ber.min())
    return int(np.nonzero(ber <= threshold)[0][0]) / ber.size


def fit_loglog_slope(lengths, positions):
    """Least-squares slope of log(position) against log(length).

    Lengths must be finite and positive, positions finite and >= 0, else
    ValueError naming the argument. Zero positions carry no log-domain
    information; they are dropped with a warning. Fewer than two usable
    points abort the fit with ValueError. Returns (slope, intercept).
    """
    x = np.asarray(lengths, dtype=np.float64)
    y = np.asarray(positions, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("lengths and positions must be 1-d arrays of equal size")
    if not np.all((x > 0.0) & (x < math.inf)):
        raise ValueError("lengths must be > 0 and finite")
    if not np.all((y >= 0.0) & (y < math.inf)):
        raise ValueError("positions must be >= 0 and finite")
    keep = y > 0.0
    if not keep.all():
        warnings.warn(f"excluding {int((~keep).sum())} zero position(s) from the "
                      "log-log fit", stacklevel=2)
    if keep.sum() < 2:
        raise ValueError("log-log fit needs at least two nonzero positions")
    slope, intercept = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(slope), float(intercept)
