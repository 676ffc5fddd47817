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
# Users per lockstep group of the engine. On a 2-core x86-64 machine
# (AVX-512, numpy 2.4) an SUS bias sweep over 80 columns of W users cost
# about 60, 45, 32, 27 and 25 ns per user and column at W = 200, 400, 800,
# 1,000 and 1,600: below about 1,000 users the numpy call overhead
# dominates, above it a larger group only adds memory (a 1,200-user group of
# three C4 arms raised the peak resident memory of a sweep by 9.6 MB).
GROUP_USERS = 1000


class DetectorDivergence(RuntimeError):
    """Non-finite value inside the iteration; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"detector produced non-finite values at iteration {iteration}")
        self.iteration = iteration


def hard_decisions(x: np.ndarray) -> np.ndarray:
    """Signum with the fixed tie rule sign(0) = +1, as int8."""
    return np.where(np.asarray(x) >= 0, 1, -1).astype(np.int8)


@dataclass(frozen=True)
class DetectorOptions:
    """Knobs shared by all iterative detectors.

    max_iters caps both the per-position iteration count of the plain MUD
    and the outer-iteration count of the correlated variants. blind applies
    to the correlated MUD only. schedule_rng feeds RSUS (seed 0 if None).
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

    bits is K x L of +-1; field is the K x L final effective field (matched
    or iterated field plus any bias): bits are its signs and its tanh the
    soft values. iters and converged are per symbol position.
    estimated_matrix is the last blind estimate when blind mode ran, else
    None. bounds holds per-iteration (Q_min, Q_max, A_min, A_max, max|eta|)
    rows when tracking was requested for a MUD variant: the soft power Q
    and precision A range over the columns the MUD step updated in that
    iteration (frozen columns are skipped), max|eta| over the whole block.
    """

    bits: np.ndarray
    field: np.ndarray
    iters: np.ndarray
    converged: np.ndarray
    outer_iterations: int
    estimated_matrix: TransitionMatrix | None = None
    bounds: list | None = None


def sumf(spreading: SpreadingMatrix, received: np.ndarray) -> np.ndarray:
    """Matched-filter front end: the (K, L) field.

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
    return (spreading.float_chips.T @ y) / np.sqrt(spreading.spread_factor)


def _neighbour_model(matrix: TransitionMatrix) -> np.ndarray:
    """Closed-form neighbour terms of the assumed matrix, as a (9, 1) array.

    With beliefs q(s) = ((1 - s)/2, (1 + s)/2) of a neighbour whose soft
    value is s, the left term of hypothesis b, sum_a q_a(s) T_ab, and the
    right term, sum_c T_bc q_c(s), are both affine in s:
    w0[b] + w1[b] * s. Rows 0-1 hold w0 and rows 2-3 w1 of the left term
    (b = 0 for -1, 1 for +1), rows 4-7 the same of the right term, and row
    8 the soft value pi(+1) - pi(-1) of the stationary distribution, which
    stands in for the missing neighbour at either word edge. The trailing
    axis broadcasts over users; _model_terms splits the rows.
    """
    t = matrix.matrix
    pi = matrix.stationary()
    return np.concatenate([(t[0] + t[1]) / 2.0, (t[1] - t[0]) / 2.0,
                           (t[:, 0] + t[:, 1]) / 2.0,
                           (t[:, 1] - t[:, 0]) / 2.0,
                           [pi[1] - pi[0]]])[:, None]


def _model_terms(model):
    """The (w0, w1) weights of the left and of the right term and the edge
    value of a (9, W) neighbour model, W being 1 or one column per user."""
    return (model[0:2], model[2:4]), (model[4:6], model[6:8]), model[8]


def _terms(s, weights, out):
    """The (minus, plus) neighbour terms of the soft values s, written to
    out: (2, n) for a scalar or an (n,) s, (L, 2, n) for an (L, 1, n) s."""
    w0, w1 = weights
    np.multiply(w1, s, out=out)
    return np.add(out, w0, out=out)


def _message(own, other, total, rows=None):
    """Posterior mean of a symbol given its two neighbours' terms.

    p(b) = own(b) * other(b) and m = (p(+1) - p(-1)) / (p(+1) + p(-1)).
    own and other are the left and right terms in either order, each
    (..., 2, n) with the pair on the second-to-last axis. The normaliser
    goes to total, which the caller checks for zeros with _check_totals; m
    is written over the plus row of own and returned, and the minus row is
    clobbered. rows may hold the (minus, plus) views of own, taken once by
    a caller that reuses own for every column.
    """
    p = np.multiply(own, other, out=own)
    p0, p1 = (p[..., 0, :], p[..., 1, :]) if rows is None else rows
    np.add(p1, p0, out=total)
    np.subtract(p1, p0, out=p1)
    return np.divide(p1, total, out=p1)


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
    left_w, right_w, edge = _model_terms(_neighbour_model(matrix))
    prev = s[:, position - 1] if position > 0 else edge
    after = s[:, position + 1] if position < word_len - 1 else edge
    work = np.empty((5, n_users))
    with np.errstate(invalid="ignore"):  # 0/0 only where _check_totals raises
        m = _message(_terms(prev, left_w, work[0:2]),
                     _terms(after, right_w, work[2:4]), work[4])
    _check_totals(work[4])
    return m


def _bias_sweep(padded, field, xi, model, schedule, forward, rng, scale,
                work):
    """Recompute the bias correction over the block, in schedule order.

    Arrays are column-major and hold a group of realizations side by
    side: padded[l + 1], field[l] and xi[l] are the (B, K) users of symbol
    column l of every trial, padded is (L + 2, B, K) with the current soft
    values in rows 1..L, and a trial's users never meet another trial's,
    so the trials of a group are independent. Updates xi in place. PUS
    computes every column from the same soft snapshot in whole-block
    operations. The other schedules refresh each visited column's soft
    value in padded to tanh(field + correction), so columns visited later
    in a sweep see the new values of earlier columns (that is the whole
    difference between the schedules); after one of them every row of
    padded holds tanh(field + xi). In an ordered sweep the neighbour not
    yet visited still holds its snapshot value, so that side is computed
    for all columns at once, into an (L, 2, W) array whose row l is the
    (minus, plus) pair of column l; RSUS computes both sides per column.
    model is one (9, 1) _neighbour_model for every trial, or a (9, B, K)
    array holding each trial's own. work is scratch of at least 4 L W
    floats, W = B K. Returns the boolean (L, B) mask of the columns whose
    correction changed bitwise, per trial.
    """
    n_rows, n_trials, n_users = padded.shape
    word_len, width = n_rows - 2, n_trials * n_users
    left_w, right_w, edge = _model_terms(model.reshape(len(model), -1))
    padded = padded.reshape(n_rows, width)
    padded[0] = padded[-1] = edge
    field = field.reshape(word_len, width)
    block = word_len * width
    pairs = work[:2 * block].reshape(word_len, 2, width)
    if schedule == "PUS":
        # the right terms are spent once multiplied in, so their rows take
        # the normalisers and the new correction
        right = work[2 * block:4 * block].reshape(word_len, 2, width)
        totals, xi_new = right[:, 0], right[:, 1]
        m = _message(_terms(padded[:-2, None], left_w, pairs),
                     _terms(padded[2:, None], right_w, right), totals)
        _check_totals(totals)
        _correction(m, scale, xi_new)
        return _commit(xi, xi_new)
    totals = work[2 * block:3 * block].reshape(word_len, width)
    xi_new = work[3 * block:4 * block].reshape(word_len, width)
    # near is the side visited last (rows padded[l + offset], read fresh
    # per column) and far the side not yet visited (all columns at once);
    # RSUS reads both sides fresh, the left one into left
    near, left = np.empty((2, 2, width))
    if schedule == "RSUS":
        order, near_w, offset = rng.permutation(word_len), right_w, 2
        far = None
    elif forward:
        order, near_w, offset = range(word_len), left_w, 0
        far = _terms(padded[2:, None], right_w, pairs)
    else:
        order, near_w, offset = range(word_len - 1, -1, -1), right_w, 2
        far = _terms(padded[:-2, None], left_w, pairs)
    rows = near[0], near[1]
    for l in order:
        other = _terms(padded[l], left_w, left) if far is None else far[l]
        m = _message(_terms(padded[l + offset], near_w, near), other,
                     totals[l], rows)
        x, s = xi_new[l], padded[l + 1]
        _correction(m, scale, x)
        np.tanh(np.add(field[l], x, out=s), out=s)
    _check_totals(totals)
    return _commit(xi, xi_new)


def _commit(xi, xi_new):
    """Copy the new (L, W) correction into the (L, B, K) xi; the (L, B)
    mask of the columns it changed, per trial."""
    xi_new = xi_new.reshape(xi.shape)
    changed = np.any(xi_new != xi, axis=2)
    np.copyto(xi, xi_new)
    return changed


def _mud_step(cols, soft, matched, field, interference, gain, corr, load,
              sigma, work, finite, iteration):
    """One synchronous MUD update of the symbol columns cols of one
    realization, committed in place.

    The arrays are (L, K) views of the realization's state, one row per
    symbol column (gain is (L,)), and corr is its correlation matrix. The
    rows cols are gathered into the (3, L, K) work buffer, so only they
    pay for the K x K product. The interference sum runs over all users
    including the self term (unit diagonal of corr); the final
    + precision * soft adds the own tentative estimate back, leaving the
    cavity field. Without that retraction the update subtracts each user's
    own signal and the iteration oscillates instead of converging. Returns
    the per-column soft power and precision.
    """
    n = cols.size
    # mode="clip" writes straight into the work buffer ("raise" would stage
    # the gather in a fresh array); cols are valid row indices
    s = np.take(soft, cols, axis=0, out=work[0, :n], mode="clip")
    u_new = work[1, :n]
    # a running sum adds the users in index order, the order a reduction
    # over the users axis of a (K, L) array takes, so the soft power does
    # not depend on the layout
    np.multiply(s, s, out=u_new)
    q_pow = np.add.accumulate(u_new, axis=1, out=u_new)[:, -1] / s.shape[1]
    precision = 1.0 / (sigma * sigma + load * (1.0 - q_pow))
    carry = load * (1.0 - q_pow) * precision
    np.matmul(corr, s.T, out=u_new.T)
    u_new *= precision[:, None]
    u_old = np.take(interference, cols, axis=0, out=work[2, :n], mode="clip")
    u_old *= carry[:, None]
    u_new += u_old
    gain_new = precision + carry * gain[cols]
    h_new = np.take(matched, cols, axis=0, out=work[2, :n], mode="clip")
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


def _run_engine(fields, corrs, load, sigma, opts, assumed=None, iterate=True,
                rngs=None):
    """Lockstep detection of every symbol column of a set of realizations.

    fields holds the (K, L) matched-filter fields of realizations of one
    size, corrs their code correlation matrices (read only when iterate),
    assumed, in correlated mode, the transition matrix each realization's
    detector assumes, so arms that assume different matrices share one
    run, and rngs one schedule generator per realization, which a
    correlated RSUS run requires. With iterate=True every outer iteration
    starts with a synchronous MUD step of each realization; with
    iterate=False the matched-filter field is never updated and only the
    bias correction is refined (the correlated SUMF), scaled by the matched
    filter's interference-plus-noise variance load + sigma^2. Plain mode
    (assumed is None) iterates every column independently until its hard
    decisions repeat; the bias field stays identically zero. Correlated
    mode runs a bias sweep in every outer iteration and stops at a global
    hard-decision fixed point. Columns whose decisions repeated are frozen
    (the step skips them, so their state stays as committed) and thaw
    again if a later sweep changes their correction; with a memoryless
    assumed matrix no correction ever changes, which makes the two modes
    produce bitwise identical results. In blind mode each realization's
    detector starts from the memoryless matrix and re-estimates it from its
    own beliefs in every outer iteration.

    The realizations run in consecutive lockstep groups of B: one for a
    correlated RSUS run, as each realization shuffles its own columns,
    else as many as GROUP_USERS users hold, at least one. A group's state
    is held in (L, B, K) arrays, each slot with its own matrix's neighbour
    weights and edge value, one copy per user, so every element sees the
    scalars a lone run of its realization would. Each realization keeps its
    own active columns, counts and stop rule: one that stops, or diverges,
    leaves the group, and the group's last one moves into its slot. So
    every result, a DetectionResult or the DetectorDivergence its MUD step
    raised, is its realization's lone run's, bit for bit.
    """
    if iterate and sigma <= 0.0:
        raise ValueError("iterative detection requires sigma > 0")
    opts = opts or DetectorOptions()
    correlated = assumed is not None
    rsus = correlated and opts.schedule == "RSUS"
    n_trials = len(fields)
    n_users, word_len = fields[0].shape
    width = 1 if rsus else max(1, GROUP_USERS // n_users)
    if n_trials > width:  # one run per group
        return [result for s in range(0, n_trials, width)
                for result in _run_engine(
                    fields[s:s + width], corrs[s:s + width], load, sigma,
                    opts, assumed and assumed[s:s + width], iterate,
                    rngs and rngs[s:s + width])]
    blind = correlated and iterate and opts.blind
    estimates = [iid_matrix()] * n_trials if blind else None  # by trial
    scale = 1.0 if iterate else load + sigma * sigma
    rng = rngs[0] if rsus else None

    # Every (L, B, K) array of the run is carved from one block: nothing
    # that grows with L * K is allocated inside the loop, and the single
    # block keeps the heap from fragmenting across trials (separate buffers
    # raised the peak resident memory of a C7 ensemble by one Gram matrix,
    # 5 MB).
    block = np.empty((9 * word_len + 11, n_trials, n_users))
    h0, h, xi, interference, work, padded, model = np.split(
        block, [*np.cumsum([1, 1, 1, 1, 4]) * word_len, 9 * word_len + 2])
    work = work.reshape(-1)
    step_work = work[:3 * word_len * n_users].reshape(3, word_len, n_users)
    soft = padded[1:-1]
    for b, field in enumerate(fields):
        h0[:, b] = field.T
    h[:] = h0
    xi[:] = 0.0
    interference[:] = 0.0
    gain = np.zeros((word_len, n_trials))
    for b, matrix in enumerate(assumed if correlated else ()):
        model[:, b] = _neighbour_model(estimates[b] if blind else matrix)
    finite = np.empty((word_len, n_users), dtype=bool)
    np.tanh(np.add(h, xi, out=soft), out=soft)
    prev_dec = soft >= 0.0
    dec = np.empty_like(prev_dec)
    active = np.ones((word_len, n_trials), dtype=bool)
    iters = np.zeros((word_len, n_trials), dtype=np.int64)
    converged = np.zeros((word_len, n_trials), dtype=bool)
    trials = list(range(n_trials))  # the trial in each slot
    bounds = ([[] for _ in range(n_trials)]
              if opts.track_bounds and iterate else None)
    results = [None] * n_trials
    forward = True

    def leave(slot, outcome):
        # record the trial in slot and move the group's last trial into it
        results[trials[slot]] = outcome
        last = len(trials) - 1
        if slot != last:
            for a in (h0, h, xi, interference, padded, model, prev_dec,
                      gain, active, iters, converged):
                a[:, slot] = a[:, last]
            trials[slot] = trials[last]
        trials.pop()

    for t in range(opts.max_iters):
        if iterate:
            stats = {}
            # from the last slot down, so a trial that diverges leaves
            # without moving one not yet stepped
            for slot in range(len(trials) - 1, -1, -1):
                try:
                    stats[trials[slot]] = _mud_step(
                        np.flatnonzero(active[:, slot]), soft[:, slot],
                        h0[:, slot], h[:, slot], interference[:, slot],
                        gain[:, slot], corrs[trials[slot]], load, sigma,
                        step_work, finite, t)
                except DetectorDivergence as exc:
                    leave(slot, exc)
            if not trials:
                break
        n = len(trials)
        sl = np.s_[:, :n]
        iters[sl] += active[sl]

        if correlated:
            np.tanh(np.add(h[sl], xi[sl], out=soft[sl]), out=soft[sl])
            if blind and t > 0:
                for slot, trial in enumerate(trials):
                    estimates[trial] = estimate_transition(soft[:, slot].T,
                                                           PSEUDO_COUNT)
                    model[:, slot] = _neighbour_model(estimates[trial])
            changed = _bias_sweep(padded[sl], h[sl], xi[sl], model[sl],
                                  opts.schedule, forward, rng, scale, work)
            if opts.schedule == "BFUS":
                forward = not forward
            thawed = changed & ~active[sl]
            if np.any(thawed):
                active[sl] |= thawed
                converged[sl] &= ~thawed
        if not correlated or opts.schedule == "PUS":
            # an ordered sweep has already left tanh(h + xi) in every row
            np.tanh(np.add(h[sl], xi[sl], out=soft[sl]), out=soft[sl])
        if bounds is not None:
            for slot, trial in enumerate(trials):
                q_pow, prec = stats[trial]
                bounds[trial].append((float(q_pow.min()), float(q_pow.max()),
                                      float(prec.min()), float(prec.max()),
                                      float(np.abs(soft[:, slot]).max())))
        np.greater_equal(soft[sl], 0.0, out=dec[sl])
        same = np.all(dec[sl] == prev_dec[sl], axis=2)
        newly = active[sl] & same
        converged[sl] |= newly
        active[sl] &= ~newly
        prev_dec, dec = dec, prev_dec
        done = same.all(axis=0) | ~active[sl].any(axis=0)
        if t == opts.max_iters - 1:
            done[:] = True
        for slot in np.flatnonzero(done)[::-1]:
            trial = trials[slot]
            leave(slot, DetectionResult(
                bits=np.ascontiguousarray(hard_decisions(soft[:, slot].T)),
                field=np.add(h[:, slot], xi[:, slot]).T.copy(),
                iters=iters[:, slot].copy(),
                converged=converged[:, slot].copy(), outer_iterations=t + 1,
                estimated_matrix=estimates[trial] if blind else None,
                bounds=None if bounds is None else bounds[trial]))
        if not trials:
            break
    return results


def _detect_one(spreading, received, sigma, opts, assumed=None, iterate=True):
    """The engine on one realization; raises its DetectorDivergence."""
    # only the MUD step reads the correlation matrix, which is built on first
    # access; the correlated SUMF never builds it
    corr = spreading.corr if iterate else None
    load = spreading.n_users / spreading.spread_factor
    opts = opts or DetectorOptions()
    rngs = [opts.schedule_rng or np.random.default_rng(0)]
    (result,) = _run_engine([sumf(spreading, received)], [corr], load, sigma,
                            opts, None if assumed is None else [assumed],
                            iterate, rngs)
    if isinstance(result, DetectorDivergence):
        raise result
    return result


def mud_detect(spreading: SpreadingMatrix, received: np.ndarray, sigma: float,
               opts: DetectorOptions | None = None) -> DetectionResult:
    """Iterative multiuser detection, every symbol position independently.

    Each position starts from the matched-filter field and iterates until
    its hard decisions repeat between consecutive iterations or max_iters
    is hit; non-convergence is flagged per position, never raised.
    """
    return _detect_one(spreading, received, sigma, opts)


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
    return _detect_one(spreading, received, sigma, opts, assumed=matrix)


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
    return _detect_one(spreading, received, sigma, opts, assumed=matrix,
                       iterate=False)


def sumf_detect(spreading: SpreadingMatrix, received: np.ndarray) -> DetectionResult:
    """Plain matched-filter hard decisions, position by position."""
    matched = sumf(spreading, received)
    word_len = matched.shape[1]
    return DetectionResult(
        bits=hard_decisions(matched), field=matched,
        iters=np.zeros(word_len, dtype=np.int64),
        converged=np.ones(word_len, dtype=bool), outer_iterations=0)
