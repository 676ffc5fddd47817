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
    probs = np.empty(s.shape + (2,))
    np.subtract(1.0, s, out=probs[..., 0])
    np.add(1.0, s, out=probs[..., 1])
    probs /= 2.0
    return probs


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
    for a MUD variant: the soft power Q and precision A range over the
    columns the MUD step updated in that iteration (frozen columns are
    skipped), max|eta| over the whole block.
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
    h = (spreading.float_chips.T @ y) / np.sqrt(spreading.spread_factor)
    return SoftField.from_field(h)


def _neighbour_model(matrix: TransitionMatrix):
    """Closed-form neighbour terms of the assumed matrix.

    With beliefs q(s) = ((1 - s)/2, (1 + s)/2) of a neighbour whose soft
    value is s, the left term of hypothesis b, sum_a q_a(s) T_ab, and the
    right term, sum_c T_bc q_c(s), are both affine in s:
    w[b, 0] + w[b, 1] * s. Returns the (2, 2, 1) weights w of the left and
    of the right term (b = 0 for -1, 1 for +1; the trailing axis
    broadcasts over users) and the soft value pi(+1) - pi(-1) of the
    stationary distribution, which stands in for the missing neighbour at
    either word edge.
    """
    t = matrix.matrix
    left = np.stack(((t[0] + t[1]) / 2.0, (t[1] - t[0]) / 2.0), axis=1)
    right = np.stack(((t[:, 0] + t[:, 1]) / 2.0,
                      (t[:, 1] - t[:, 0]) / 2.0), axis=1)
    pi = matrix.stationary()
    return left[:, :, None], right[:, :, None], pi[1] - pi[0]


def _terms(s, weights, out):
    """The (minus, plus) neighbour terms of the soft values s (a scalar or
    a 1-D array), written to the (2, n) array out."""
    np.multiply(weights[:, 1], s, out=out)
    return np.add(out, weights[:, 0], out=out)


def _message(left, right, total):
    """Posterior mean of a symbol given its two neighbours' terms.

    p(b) = left(b) * right(b) and m = (p(+1) - p(-1)) / (p(+1) + p(-1)).
    The normaliser goes to total, which the caller checks for zeros with
    _check_totals; m is written over left[1] and returned, and left[0] is
    clobbered.
    """
    p = np.multiply(left, right, out=left)
    np.add(p[1], p[0], out=total)
    np.subtract(p[1], p[0], out=p[1])
    return np.divide(p[1], total, out=p[1])


def _check_totals(total):
    if not total.all():
        raise ValueError("degenerate transition matrix: both symbol hypotheses "
                         "have zero probability (zero row in the matrix)")


def _correction(m, scale, out):
    """scale * atanh(m) with m clamped to |m| <= 1 - CLAMP_EPS, into out."""
    cap = 1.0 - CLAMP_EPS
    np.maximum(m, -cap, out=out)
    np.minimum(out, cap, out=out)
    np.arctanh(out, out=out)
    if scale != 1.0:
        np.multiply(out, scale, out=out)


def local_bias(soft: np.ndarray, matrix: TransitionMatrix, position: int) -> np.ndarray:
    """Local bias of one symbol column from its neighbors' soft values.

    soft is the (K, L) array of soft decisions in [-1, 1] of the whole
    block (a hard neighbor is +-1, an uninformed one 0); position is the
    0-based column. A missing neighbor at either word edge is replaced by
    the stationary distribution of the assumed matrix. Returns the (K,)
    vector of biases in [-1, 1], computed by the same message function as
    the detectors' bias sweeps.
    """
    s = np.asarray(soft, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"soft must have shape (K, L), got {s.shape}")
    n_users, word_len = s.shape
    if not 0 <= position < word_len:
        raise ValueError(f"position {position} outside word of length {word_len}")
    left_w, right_w, edge = _neighbour_model(matrix)
    prev = s[:, position - 1] if position > 0 else edge
    after = s[:, position + 1] if position < word_len - 1 else edge
    work = np.empty((5, n_users))
    with np.errstate(invalid="ignore"):  # 0/0 only where _check_totals raises
        m = _message(_terms(prev, left_w, work[0:2]),
                     _terms(after, right_w, work[2:4]), work[4])
    _check_totals(work[4])
    return m


def _bias_sweep(padded, field, xi, model, schedule, forward, rng, scale,
                work, row):
    """Recompute the bias correction over the block, in schedule order.

    Arrays are column-major: row l of the (L, K) arrays is symbol column
    l, and padded is (L + 2, K) with the current soft values in rows
    1..L. Updates xi in place. PUS computes every column from the same
    soft snapshot in whole-block operations. The other schedules refresh
    each visited column's soft value in padded from field + correction,
    so columns visited later in a sweep see the new values of earlier
    columns (that is the whole difference between the schedules). In an
    ordered sweep the neighbour not yet visited still holds its snapshot
    value, so that side is computed for all columns at once; RSUS
    computes both sides per column. work is two (2, L, K) scratch pairs
    for neighbour terms, the second of which also takes the normalisers
    and the new correction; row is two (2, K) pairs. Returns a boolean
    (L,) mask of columns whose correction changed bitwise.
    """
    left_w, right_w, edge = model
    padded[0] = padded[-1] = edge
    word_len = field.shape[0]

    def every_column(neighbours, weights, out):
        size = neighbours.size
        return _terms(neighbours.reshape(size), weights,
                      out.reshape(2, size)).reshape(out.shape)

    pair, spare = work
    totals, xi_new = spare
    if schedule == "PUS":
        # the right terms are spent once multiplied in, so their buffers
        # take the normalisers and the new correction
        m = _message(every_column(padded[:-2], left_w, pair),
                     every_column(padded[2:], right_w, spare), totals)
        _check_totals(totals)
        _correction(m, scale, xi_new)
        return _commit(xi, xi_new)
    far_left = far_right = None
    if schedule == "RSUS":
        order = rng.permutation(word_len)
    elif forward:
        order = range(word_len)
        far_right = every_column(padded[2:], right_w, pair)
    else:
        order = range(word_len - 1, -1, -1)
        far_left = every_column(padded[:-2], left_w, pair)
    for l in order:
        left = (_terms(padded[l], left_w, row[0]) if far_left is None
                else far_left[:, l])
        right = (_terms(padded[l + 2], right_w, row[1]) if far_right is None
                 else far_right[:, l])
        _correction(_message(left, right, totals[l]), scale, xi_new[l])
        np.add(field[l], xi_new[l], out=padded[l + 1])
        np.tanh(padded[l + 1], out=padded[l + 1])
    _check_totals(totals)
    return _commit(xi, xi_new)


def _commit(xi, xi_new):
    """Copy the new correction into xi; the mask of columns it changed."""
    changed = np.any(xi_new != xi, axis=1)
    np.copyto(xi, xi_new)
    return changed


def _mud_step(cols, soft, matched, field, interference, gain, corr, load,
              sigma, work, finite, iteration):
    """One synchronous MUD update of the symbol columns cols, committed in
    place.

    The (L, K) arrays hold one symbol column per row; the columns are
    gathered into the work buffers, so only they pay for the K x K
    product. The interference sum runs over all users including the self
    term (unit diagonal of corr); the final + precision * soft adds the
    own tentative estimate back, leaving the cavity field. Without that
    retraction the update subtracts each user's own signal and the
    iteration oscillates instead of converging. Returns the per-column
    soft power and precision.
    """
    n = cols.size
    # mode="clip" writes straight into the work buffer ("raise" would stage
    # the gather in a fresh array); cols are valid row indices
    pair, spare = work
    s = np.take(soft, cols, axis=0, out=pair[0, :n], mode="clip")
    u_new = pair[1, :n]
    # a running sum adds the users in index order, the order a reduction
    # over the users axis of a (K, L) array takes, so the soft power does
    # not depend on the layout
    np.multiply(s, s, out=u_new)
    q_pow = np.add.accumulate(u_new, axis=1, out=u_new)[:, -1] / s.shape[1]
    precision = 1.0 / (sigma * sigma + load * (1.0 - q_pow))
    carry = load * (1.0 - q_pow) * precision
    np.matmul(corr, s.T, out=u_new.T)
    u_new *= precision[:, None]
    u_old = np.take(interference, cols, axis=0, out=spare[0, :n], mode="clip")
    u_old *= carry[:, None]
    u_new += u_old
    gain_new = precision + carry * gain[cols]
    h_new = np.take(matched, cols, axis=0, out=spare[0, :n], mode="clip")
    h_new *= gain_new[:, None]
    h_new -= u_new
    s *= precision[:, None]
    h_new += s
    if not np.isfinite(h_new, out=finite[:n]).all():
        raise DetectorDivergence(iteration)
    field[cols] = h_new
    interference[cols] = u_new
    gain[cols] = gain_new
    return q_pow, precision


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
    are frozen (the step skips them, so their state stays as committed)
    and thaw again if a later sweep changes their correction; with a
    memoryless assumed matrix no correction ever changes, which makes the
    two modes produce bitwise identical results.

    The state is held column-major, one (K,) row per symbol column, in
    arrays allocated once per call; results are transposed back to (K, L).
    """
    if iterate and sigma <= 0.0:
        raise ValueError("iterative detection requires sigma > 0")
    opts = opts or DetectorOptions()
    # only the MUD step reads the correlation matrix, which is built on first
    # access; the correlated SUMF never builds it
    corr = spreading.corr if iterate else None
    load = spreading.n_users / spreading.spread_factor
    matched = sumf(spreading, received).field
    n_users, word_len = matched.shape

    correlated = assumed is not None
    blind = correlated and iterate and opts.blind
    assumed_now = iid_matrix() if blind else assumed
    model = _neighbour_model(assumed_now) if correlated else None
    scale = 1.0 if iterate else load + sigma * sigma
    rng = opts.schedule_rng
    if rng is None and opts.schedule == "RSUS":
        rng = np.random.default_rng(0)

    # Every (L, K) array of the run is carved from one block: nothing that
    # grows with L * K is allocated inside the loop, and the single block
    # keeps the heap from fragmenting across trials (separate buffers raised
    # the peak resident memory of a C7 ensemble by one Gram matrix, 5 MB).
    block = np.empty((9 * word_len + 2, n_users))
    h0, h, xi, interference, pair, spare, padded = np.split(
        block, np.cumsum([1, 1, 1, 1, 2, 2]) * word_len)
    h0[:] = matched.T
    h[:] = h0
    xi[:] = 0.0
    interference[:] = 0.0
    work = (pair.reshape(2, word_len, n_users),
            spare.reshape(2, word_len, n_users))
    soft = padded[1:-1]
    gain = np.zeros(word_len)
    row = np.empty((2, 2, n_users))
    finite = np.empty((word_len, n_users), dtype=bool)
    np.tanh(np.add(h, xi, out=soft), out=soft)
    prev_dec = soft >= 0.0
    dec = np.empty_like(prev_dec)
    active = np.ones(word_len, dtype=bool)
    iters = np.zeros(word_len, dtype=np.int64)
    converged = np.zeros(word_len, dtype=bool)
    forward = True
    bounds = [] if opts.track_bounds and iterate else None
    outer = 0

    for t in range(opts.max_iters):
        if iterate:
            q_pow, prec = _mud_step(np.flatnonzero(active), soft, h0, h,
                                    interference, gain, corr, load, sigma,
                                    work, finite, t)
        iters[active] += 1
        outer = t + 1

        if correlated:
            np.tanh(np.add(h, xi, out=soft), out=soft)
            if blind and t > 0:
                assumed_now = estimate_transition(soft_to_probs(soft.T),
                                                  PSEUDO_COUNT)
                model = _neighbour_model(assumed_now)
            changed = _bias_sweep(padded, h, xi, model, opts.schedule,
                                  forward, rng, scale, work, row)
            if opts.schedule == "BFUS":
                forward = not forward
            thawed = changed & ~active
            if np.any(thawed):
                active |= thawed
                converged &= ~thawed

        np.tanh(np.add(h, xi, out=soft), out=soft)
        if bounds is not None:
            bounds.append((float(q_pow.min()), float(q_pow.max()),
                           float(prec.min()), float(prec.max()),
                           float(np.abs(soft).max())))
        np.greater_equal(soft, 0.0, out=dec)
        same = np.all(dec == prev_dec, axis=1)
        newly = active & same
        converged |= newly
        active &= ~newly
        prev_dec, dec = dec, prev_dec
        if same.all() or not active.any():
            break

    return DetectionResult(
        bits=np.ascontiguousarray(hard_decisions(soft.T)),
        soft=SoftField(np.add(h, xi, out=work[0][0]).T.copy(),
                       soft_to_probs(soft.T)),
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
