"""Multiuser detectors for randomly spread synchronous CDMA.

Three detector families live here:

* the single-user matched filter (SUMF), which ignores multiple-access
  interference entirely;
* an iterative belief-propagation multiuser detector that cancels
  interference through the code correlation matrix with an Onsager
  retraction term, one independent run per symbol position;
* correlation-aware variants of both, which exploit temporal memory in each
  user's symbol stream: neighbor symbol beliefs are funneled through the
  assumed transition matrix into a per-symbol prior field that is either
  added to the matched-filter statistic before slicing (SUMF variant) or
  injected inside the tanh of every MUD iteration (MUD variant).

The bias field is exactly zero when the assumed source is memoryless, so
the correlation-aware detectors reduce bit-for-bit to their plain
counterparts in that case; the reduction is load-bearing for tests and is
preserved by running all iterative detectors through the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SpreadingMatrix
from .markov import TransitionMatrix, estimate_transition, iid_matrix

SCHEDULES = ("PUS", "SUS", "BFUS", "RSUS")

# Biases are clamped to |m| <= 1 - CLAMP_EPS before atanh, so a saturated
# neighbor prior yields a large but finite correction.
CLAMP_EPS = 1e-12
# Additive smoothing of the blind transition estimator.
PSEUDO_COUNT = 1.0


class DetectorDivergence(RuntimeError):
    """Non-finite value inside the iteration; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"detector produced non-finite values at iteration {iteration}")
        self.iteration = iteration


def hard_decisions(x: np.ndarray) -> np.ndarray:
    """Signum with the fixed tie rule sign(0) = +1, as int8."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int8)


def soft_to_probs(soft: np.ndarray) -> np.ndarray:
    """Probability pairs (..., 2) from soft decisions in [-1, 1]:
    index 0 holds P(-1) = (1 - soft)/2, index 1 holds P(+1)."""
    s = np.asarray(soft, dtype=np.float64)
    return np.stack(((1.0 - s) / 2.0, (1.0 + s) / 2.0), axis=-1)


@dataclass(frozen=True)
class SoftField:
    """Per-symbol real fields and the symbol beliefs they induce.

    probs[..., 0] is the belief in -1, probs[..., 1] in +1; the pair sums
    to 1 by construction.
    """

    field: np.ndarray   # (K, L)
    probs: np.ndarray   # (K, L, 2)

    @classmethod
    def from_field(cls, field: np.ndarray) -> "SoftField":
        f = np.asarray(field, dtype=np.float64)
        return cls(f, soft_to_probs(np.tanh(f)))


@dataclass(frozen=True)
class DetectorOptions:
    """Knobs shared by all iterative detectors.

    max_iters caps both the per-position iteration count of the plain MUD
    and the outer-iteration count of the correlated variants. blind applies
    to the correlated MUD only. schedule_rng feeds the RSUS shuffle only.
    """

    max_iters: int = 50
    schedule: str = "SUS"
    blind: bool = False
    schedule_rng: np.random.Generator | None = None
    track_bounds: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")


@dataclass(frozen=True)
class DetectionResult:
    """Joint output of a detector run.

    bits is K x L of +-1; soft carries the final effective field (matched
    or iterated field plus any bias) and the beliefs it induces. iters and
    converged are per symbol position. estimated_matrix is the last blind
    estimate when blind mode ran, else None. bounds holds per-iteration
    (Q_min, Q_max, A_min, A_max, max|eta|) rows when tracking was requested
    for a MUD variant.
    """

    bits: np.ndarray
    soft: SoftField
    iters: np.ndarray
    converged: np.ndarray
    outer_iterations: int
    estimated_matrix: TransitionMatrix | None = None
    bounds: list | None = None


def sumf(spreading: SpreadingMatrix, received: np.ndarray) -> SoftField:
    """Matched-filter front end.

    Correlates every received symbol column with each user's chip sequence:
    field[k, l] = (1/sqrt(N)) sum_mu received[mu, l] * chips[mu, k]. With
    unit-energy signatures the field decomposes as the own symbol plus
    code-correlation-weighted interference plus filtered noise.
    """
    y = np.asarray(received, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != spreading.spread_factor:
        raise ValueError(
            f"received shape {y.shape} incompatible with spreading factor "
            f"{spreading.spread_factor}")
    h = (spreading.chips.astype(np.float64).T @ y) / np.sqrt(spreading.spread_factor)
    return SoftField.from_field(h)


def _bias_from_neighbors(q_prev: np.ndarray, q_next: np.ndarray,
                         matrix: TransitionMatrix) -> np.ndarray:
    """Posterior mean of a symbol given its two neighbors' beliefs.

    Chains the left belief forward and the right belief backward through
    the transition matrix: p(b) proportional to
    [sum_a q_prev(a) T_ab] * [sum_c T_bc q_next(c)], then returns
    m = 2 p(+1)/(p(+1) + p(-1)) - 1. Inputs are (..., 2) belief pairs.
    """
    t = matrix.matrix
    left = q_prev @ t          # entry b: sum_a q_prev(a) T_ab
    right = q_next @ t.T       # entry b: sum_c T_bc q_next(c)
    p = left * right
    total = p.sum(axis=-1)
    if np.any(total == 0.0):
        raise ValueError("degenerate transition matrix: both symbol hypotheses "
                         "have zero probability (zero row in the matrix)")
    return 2.0 * p[..., 1] / total - 1.0


def _pad_with_stationary(probs: np.ndarray, matrix: TransitionMatrix) -> np.ndarray:
    """(K, L + 2, 2) copy of the beliefs with the stationary distribution of
    the matrix standing in for the missing neighbor at either word edge.
    Column l of the block is column l + 1 of the result."""
    n_users, word_len = probs.shape[:2]
    padded = np.empty((n_users, word_len + 2, 2))
    padded[:, 0] = padded[:, -1] = matrix.stationary()
    padded[:, 1:-1] = probs
    return padded


def local_bias(probs: np.ndarray, matrix: TransitionMatrix, position: int) -> np.ndarray:
    """Local bias of one symbol column from its neighbors' beliefs.

    probs is the (K, L, 2) belief array of the whole block; position is the
    0-based column. A missing neighbor at either word edge is replaced by
    the stationary distribution of the assumed matrix. Returns the (K,)
    vector of biases in [-1, 1].
    """
    q = np.asarray(probs, dtype=np.float64)
    if q.ndim != 3 or q.shape[2] != 2:
        raise ValueError(f"probs must have shape (K, L, 2), got {q.shape}")
    word_len = q.shape[1]
    if not 0 <= position < word_len:
        raise ValueError(f"position {position} outside word of length {word_len}")
    padded = _pad_with_stationary(q, matrix)
    return _bias_from_neighbors(padded[:, position], padded[:, position + 2],
                                matrix)


def _step_arrays(soft, matched, interference, gain, corr, load, sigma):
    """One synchronous MUD update for a batch of independent columns.

    soft, matched, interference are (K, M); gain is (M,). Returns the new
    field, interference, gain and the per-column soft power and precision.
    The interference sum runs over all users including the self term (unit
    diagonal of corr); the final + precision * soft adds the own tentative
    estimate back, leaving the cavity field. Without that retraction the
    update subtracts each user's own signal and the iteration oscillates
    instead of converging.
    """
    q_pow = np.mean(soft * soft, axis=0)                 # (M,)
    precision = 1.0 / (sigma * sigma + load * (1.0 - q_pow))
    carry = load * (1.0 - q_pow) * precision
    interference_new = precision * (corr @ soft) + carry * interference
    gain_new = precision + carry * gain
    field_new = gain_new * matched - interference_new + precision * soft
    return field_new, interference_new, gain_new, q_pow, precision


def _sweep_order(word_len, schedule, forward, rng):
    if schedule == "SUS" or (schedule == "BFUS" and forward):
        return range(word_len)
    if schedule == "BFUS":
        return range(word_len - 1, -1, -1)
    return rng.permutation(word_len)


def _bias_sweep(probs, xi, field, assumed, schedule, forward, rng, scale):
    """Recompute the bias correction over the block, in schedule order.

    Updates xi in place. PUS computes every column from the same belief
    snapshot; the other schedules refresh each visited column's beliefs
    from field + xi, so columns visited later in a sweep see the new
    beliefs of earlier columns (that is the whole difference between the
    schedules). Returns a boolean (L,) mask of columns whose correction
    changed bitwise.
    """
    cap = 1.0 - CLAMP_EPS
    padded = _pad_with_stationary(probs, assumed)
    if schedule == "PUS":
        m = _bias_from_neighbors(padded[:, :-2], padded[:, 2:], assumed)
        xi_new = scale * np.arctanh(np.clip(m, -cap, cap))
        changed = np.any(xi_new != xi, axis=0)
        xi[:] = xi_new
        return changed
    word_len = probs.shape[1]
    changed = np.zeros(word_len, dtype=bool)
    for l in _sweep_order(word_len, schedule, forward, rng):
        m = _bias_from_neighbors(padded[:, l], padded[:, l + 2], assumed)
        xi_col = scale * np.arctanh(np.clip(m, -cap, cap))
        if np.any(xi_col != xi[:, l]):
            changed[l] = True
            xi[:, l] = xi_col
        s = np.tanh(field[:, l] + xi[:, l])
        padded[:, l + 1, 0] = (1.0 - s) / 2.0
        padded[:, l + 1, 1] = (1.0 + s) / 2.0
    return changed


def _run_engine(spreading, received, sigma, opts, assumed=None, iterate=True):
    """Lockstep detection of all symbol columns.

    With iterate=True every outer iteration starts with a synchronous MUD
    step; with iterate=False the matched-filter field is never updated and
    only the bias correction is refined (the correlated SUMF), scaled by
    the matched filter's interference-plus-noise variance load + sigma^2.
    Plain mode (assumed is None) iterates every column independently until
    its hard decisions repeat; the bias field stays identically zero.
    Correlated mode runs a bias sweep in every outer iteration and stops
    at a global hard-decision fixed point. Columns whose decisions repeated
    are frozen (their state stops being committed) and thaw again if a
    later sweep changes their correction; with a memoryless assumed matrix
    no correction ever changes, which makes the two modes produce bitwise
    identical results.
    """
    if iterate and sigma <= 0.0:
        raise ValueError("iterative detection requires sigma > 0")
    opts = opts or DetectorOptions()
    corr = spreading.corr
    load = spreading.n_users / spreading.spread_factor
    h0 = sumf(spreading, received).field
    word_len = h0.shape[1]

    correlated = assumed is not None
    blind = correlated and iterate and opts.blind
    assumed_now = iid_matrix() if blind else assumed
    scale = 1.0 if iterate else load + sigma * sigma
    rng = opts.schedule_rng
    if rng is None and opts.schedule == "RSUS":
        rng = np.random.default_rng(0)

    h = h0.copy()
    xi = np.zeros_like(h)
    interference = np.zeros_like(h)
    gain = np.zeros(word_len)
    soft = np.tanh(h + xi)
    prev_dec = hard_decisions(soft)
    active = np.ones(word_len, dtype=bool)
    iters = np.zeros(word_len, dtype=np.int64)
    converged = np.zeros(word_len, dtype=bool)
    forward = True
    bounds = [] if opts.track_bounds and iterate else None
    outer = 0

    for t in range(opts.max_iters):
        if iterate:
            h_new, u_new, g_new, q_pow, prec = _step_arrays(
                soft, h0, interference, gain, corr, load, sigma)
            if not np.all(np.isfinite(h_new[:, active])):
                raise DetectorDivergence(t)
            h[:, active] = h_new[:, active]
            interference[:, active] = u_new[:, active]
            gain[active] = g_new[active]
        iters[active] += 1
        outer = t + 1

        if correlated:
            probs = soft_to_probs(np.tanh(h + xi))
            if blind and t > 0:
                assumed_now = estimate_transition(probs, PSEUDO_COUNT)
            changed = _bias_sweep(probs, xi, h, assumed_now, opts.schedule,
                                  forward, rng, scale)
            if opts.schedule == "BFUS":
                forward = not forward
            thawed = changed & ~active
            if np.any(thawed):
                active |= thawed
                converged &= ~thawed

        soft = np.tanh(h + xi)
        if bounds is not None:
            bounds.append((float(q_pow.min()), float(q_pow.max()),
                           float(prec.min()), float(prec.max()),
                           float(np.abs(soft).max())))
        dec = hard_decisions(soft)
        same = np.all(dec == prev_dec, axis=0)
        newly = active & same
        converged |= newly
        active &= ~newly
        prev_dec = dec
        if same.all() or not active.any():
            break

    return DetectionResult(
        bits=prev_dec, soft=SoftField(h + xi, soft_to_probs(soft)),
        iters=iters, converged=converged, outer_iterations=outer,
        estimated_matrix=assumed_now if blind else None,
        bounds=bounds)


def mud_detect(spreading: SpreadingMatrix, received: np.ndarray, sigma: float,
               opts: DetectorOptions | None = None) -> DetectionResult:
    """Iterative multiuser detection, every symbol position independently.

    Each position starts from the matched-filter field and iterates until
    its hard decisions repeat between consecutive iterations or max_iters
    is hit; non-convergence is flagged per position, never raised.
    """
    return _run_engine(spreading, received, sigma, opts)


def correlated_mud_detect(spreading: SpreadingMatrix, received: np.ndarray,
                          matrix: TransitionMatrix, sigma: float,
                          opts: DetectorOptions | None = None) -> DetectionResult:
    """Iterative multiuser detection with the neighbor-prior correction.

    After every synchronous iteration the per-symbol beliefs are refreshed
    and the correction field is recomputed from each symbol's word
    neighbors through the assumed transition matrix, in the order given by
    the schedule; the correction rides inside the tanh of the next
    iteration. In blind mode the matrix is re-estimated from the current
    beliefs each outer iteration, starting from the memoryless matrix.
    Terminates at a global hard-decision fixed point or max_iters.
    """
    return _run_engine(spreading, received, sigma, opts, assumed=matrix)


def correlated_sumf_detect(spreading: SpreadingMatrix, received: np.ndarray,
                           matrix: TransitionMatrix, sigma: float,
                           opts: DetectorOptions | None = None) -> DetectionResult:
    """Matched-filter detection with the neighbor-prior correction.

    The matched-filter field is computed once and never iterated; only the
    bias field is refined. Each sweep recomputes the correction
    (load + sigma^2) * atanh(m) in schedule order, refreshing each column's
    beliefs from the biased field as it goes, and decisions are
    sign(field + correction). Sweeps repeat until the hard decisions reach
    a fixed point or max_iters; iters and converged are per position, as
    for the MUD variants. Blind mode does not apply, and sigma = 0 is
    allowed.
    """
    return _run_engine(spreading, received, sigma, opts, assumed=matrix,
                       iterate=False)


def sumf_detect(spreading: SpreadingMatrix, received: np.ndarray) -> DetectionResult:
    """Plain matched-filter hard decisions, position by position."""
    matched = sumf(spreading, received)
    word_len = matched.field.shape[1]
    return DetectionResult(
        bits=hard_decisions(matched.field), soft=matched,
        iters=np.zeros(word_len, dtype=np.int64),
        converged=np.ones(word_len, dtype=bool), outer_iterations=0)
