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

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .channel import SpreadingMatrix
from .markov import (TransitionMatrix, _soft_block, estimate_transition,
                     iid_matrix)

SCHEDULES = ("PUS", "SUS", "BFUS", "RSUS")

# Biases are clamped to |m| <= 1 - CLAMP_EPS before atanh, so a saturated
# neighbor prior yields a large but finite correction. A sweep skips the
# clamp, and the check of its totals, when _clamp_needed proves both idle for
# the assumed matrices: when each neighbour product is at least CLAMP_FLOOR.
CLAMP_EPS = 1e-12
CLAMP_FLOOR = 2.0**-30
# Users per lockstep group of the engine, whose bias sweep and MUD step
# (all but its per-realization K x K product) each run once over the whole
# group. On a 2-core x86-64 machine (AVX-512, numpy 2.4) an SUS bias sweep
# over 80 columns of W users, on 64-byte-aligned rows, cost about 25, 18,
# 15, 14 and 13 ns per user and column at W = 200, 400, 800, 1,000 and
# 1,600 (medians of five runs, two interpreters): below about 1,000 users
# the numpy call overhead dominates, above it a larger group only adds
# memory (a 1,200-user group of three C4 arms raised the peak resident
# memory of a sweep by 9.6 MB).
GROUP_USERS = 1000


def _lockstep_width(users: int) -> int:
    """The realizations per lockstep group when each carries users users:
    as many as GROUP_USERS users hold, and at least one."""
    return max(1, GROUP_USERS // users)


class DetectorDivergence(RuntimeError):
    """Non-finite value inside the iteration; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"detector produced non-finite values at iteration {iteration}")
        self.iteration = iteration


def hard_decisions(x: np.ndarray) -> np.ndarray:
    """The decisions on a field, as int8: +1 where x >= 0, so sign(0) =
    sign(-0.0) = +1, and -1 elsewhere, NaN (which compares false) too.

    Built in place on the bytes of the comparison (0 or 1, doubled, less
    one): np.where on two scalars took about 25 times as long at K 800, L
    100 on a 2-core x86-64 machine (numpy 2.4).
    """
    decisions = np.asarray(np.asarray(x) >= 0).view(np.int8)
    decisions += decisions
    decisions -= 1
    return decisions


def decision_errors(field: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The int64 count, per symbol position, of the users whose decision
    on the (K, L) field, hard_decisions(field), differs from their +-1
    symbol in block: where field >= 0 (-0.0 included, NaN not) disagrees
    with block > 0, counted without building the +-1 decisions."""
    errors = np.count_nonzero((field >= 0) != (block > 0), axis=0)
    return errors.astype(np.int64, copy=False)


# The readers of a caller's typed value, shared by the whole run layer: each
# returns the Python value that runs, else raises a ValueError naming name.
def _check_int(value, name: str) -> int:
    """value as an int: an integer, numpy's included (operator.index takes
    it), but no bool, which would count as 0 or 1, and no float, which a
    cast would truncate."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(value, name: str) -> float:
    """value as a float: a real number, numpy's included, but no bool,
    which would run as 0 or 1 and be recorded as a flag, no string and no
    number too large for a float (an int of 10**400, say)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number, got a value too "
                         f"large for a float") from None


def _check_bool(value, name: str) -> bool:
    """value as a bool: a bool, numpy's included; a string such as "false"
    would otherwise be read as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class DetectorOptions:
    """Knobs shared by all iterative detectors.

    max_iters caps both the per-position iteration count of the plain MUD
    and the outer-iteration count of the correlated variants. blind applies
    to the correlated MUD only. schedule_rng feeds RSUS (seed 0 if None):
    None or a numpy.random.Generator. Each of the four fields is checked
    as the options are built, a bad one a ValueError naming it.
    """

    max_iters: int = 50
    schedule: str = "SUS"
    blind: bool = False
    schedule_rng: np.random.Generator | None = None

    def __post_init__(self):
        _check_int(self.max_iters, "max_iters")
        _check_bool(self.blind, "blind")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if not (self.schedule_rng is None
                or isinstance(self.schedule_rng, np.random.Generator)):
            raise ValueError(f"schedule_rng must be None or a numpy.random."
                             f"Generator, got {self.schedule_rng!r}")


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Joint output of a detector run, whose decisions are its field's.

    field is the K x L final effective field (matched or iterated field
    plus any bias correction): its signs are the decisions, bits, and its
    tanh the soft values, which keep those signs. iters and converged are
    per symbol position. estimated_matrix is the last blind estimate when
    blind mode ran, else None. Results compare by identity.
    """

    field: np.ndarray
    iters: np.ndarray
    converged: np.ndarray
    outer_iterations: int
    estimated_matrix: TransitionMatrix | None = None

    @property
    def bits(self) -> np.ndarray:
        """The K x L +-1 decisions, hard_decisions(field), as int8."""
        return hard_decisions(self.field)


def _received(spreading: SpreadingMatrix, received) -> np.ndarray:
    y = np.asarray(received, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != spreading.spread_factor:
        raise ValueError(
            f"received shape {y.shape} incompatible with spreading factor "
            f"{spreading.spread_factor}")
    return y


def sumf(spreading: SpreadingMatrix, received: np.ndarray) -> np.ndarray:
    """Matched-filter front end: the (K, L) field, in float64.

    Correlates every received symbol column with each user's chip sequence:
    field[k, l] = (1/sqrt(N)) sum_mu received[mu, l] * chips[mu, k]. With
    unit-energy signatures the field decomposes as the own symbol plus
    code-correlation-weighted interference plus filtered noise. Every
    detector that iterates or biases the field starts from it; a caller
    that needs only its signs takes sumf_decisions, which equals
    hard_decisions of it without building it.
    """
    y = _received(spreading, received)
    field = spreading.chips.astype(np.float64).T @ y
    field /= np.sqrt(spreading.spread_factor)
    return field


# Unit roundoffs of float32 and float64.
_U32, _U64 = 2.0**-24, 2.0**-53


def sumf_decisions(spreading: SpreadingMatrix,
                   received: np.ndarray) -> np.ndarray:
    """The matched filter's int8 decisions, hard_decisions(sumf(spreading,
    received)) bit for bit, mostly from a float32 product.

    The chips are exact in float32, so each term +-y32 of f = chips.T @ y32
    is exact and only the N - 1 additions round, in whatever order BLAS
    takes them. For any order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2) f lies within tau32 = (gamma(N-1)(1 + u)
    + u) s of the exact product chips.T @ y, where s = sum_mu |y[mu, l]|
    for its column, u = 2^-24 and gamma(n) = n u / (1 - n u), the last u
    for the cast of y. sumf's float64 product lies within tau64 =
    gamma(N-1) s, with u = 2^-53. Each bound carries an absolute term that
    covers subnormals, flushed or not, and keeps a settled float64 value
    too large to vanish when sumf divides it by sqrt(N). So where |f| >
    tau32 + tau64, f has the sign of sumf's field, which is nonzero. The
    entries inside that band, the ties (about 70 of 80,000 at N 1000, K
    800, L 100, sigma 0.8), are summed again in float64, which settles
    each one whose value lies beyond 2 tau64. If a tie stays unsettled (an
    exactly zero field, say), the ties outnumber K / 2 (their gathered
    columns would outgrow sumf's float64 chip copy), a column's s reaches
    2^126 (float32 could overflow, so nothing is cast), N exceeds 2^20 or
    y is not finite, the decisions come from sumf itself. No warning is
    emitted but those sumf itself emits (a float64 overflow).
    """
    y = _received(spreading, received)
    n = spreading.spread_factor
    with np.errstate(over="ignore"):
        s = np.abs(y).sum(axis=0)
    if n > 2**20 or not np.all(s < 2.0**126):
        return hard_decisions(sumf(spreading, y))
    gamma32 = (n - 1) * _U32 / (1 - (n - 1) * _U32)
    gamma64 = (n - 1) * _U64 / (1 - (n - 1) * _U64)
    # the slack covers the rounding of s and of the bounds themselves
    s *= 1 + 2.0**-20
    tau64 = gamma64 * s + n * 2.0**-1020
    band = (gamma32 * (1 + _U32) + _U32) * s + n * 2.0**-124 + tau64
    band = np.nextafter(band.astype(np.float32), np.float32(np.inf))
    f = spreading.chips.astype(np.float32).T @ y.astype(np.float32)
    decisions = hard_decisions(f)
    # the flat search of the fresh C-ordered mask gives np.nonzero's (k, l)
    # pairs in its order; the 2-D search took about 9 times as long (220
    # against 24 us at K 800, L 100, 2-core x86-64, numpy 2.4)
    ks, ls = np.divmod(np.flatnonzero(np.abs(f, out=f) <= band), f.shape[1])
    if ks.size > spreading.n_users // 2:
        return hard_decisions(sumf(spreading, y))
    rechecked = (spreading.chips[:, ks] * y[:, ls]).sum(axis=0)
    if not np.all(np.abs(rechecked) > 2 * tau64[ls]):
        return hard_decisions(sumf(spreading, y))
    decisions[ks, ls] = hard_decisions(rechecked)
    return decisions


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


def _update_columns(columns, weights, near, scale, clamp):
    """The column update of every bias sweep and of local_bias.

    columns yields (s, other, total, x, field, soft) views, one tuple per
    column in visiting order, or one for the whole block: s is the soft
    value of the neighbour on the side of weights, (n,) per column, (L, n)
    per block, and other the (minus, plus) terms of the other neighbour,
    (2, n) per column, (L, 2, n) per block. Each update writes the terms
    w0 + w1 s to near, one row product per hypothesis, and the products
    p(b) = near(b) * other(b) over them, the normaliser p(+1) + p(-1) to
    total, m = (p(+1) - p(-1)) / total over the plus row of near, the
    correction scale * atanh(m) to x, and tanh(field + x) to soft, which a
    later column reads. With clamp, m is clamped to |m| <= 1 - CLAMP_EPS
    first; without, the caller has proved the clamp idle (_clamp_needed).
    Returns the plus row (the last m). The caller checks the totals with
    _check_totals where it clamps.
    """
    w0, (w1_minus, w1_plus) = weights
    minus, plus = near[..., 0, :], near[..., 1, :]
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    maximum, minimum, arctanh, tanh = np.maximum, np.minimum, np.arctanh, np.tanh
    # a row costs as much in call overhead as in arithmetic: positional
    # outputs (maximum and minimum take only the keyword), array bounds and
    # two contiguous row products in place of one that broadcasts s over
    # the pair (0.8 against 1.8 us at 800 users) trim it
    cap = np.array(1.0 - CLAMP_EPS)
    low, scaled = -cap, scale != 1.0
    with np.errstate(invalid="ignore"):  # 0/0 only where _check_totals raises
        for s, other, total, x, field, soft in columns:
            multiply(w1_minus, s, minus)
            multiply(w1_plus, s, plus)
            add(near, w0, near)
            multiply(near, other, near)
            add(plus, minus, total)
            subtract(plus, minus, plus)
            divide(plus, total, plus)
            if clamp:
                maximum(plus, low, out=x)
                minimum(x, cap, out=x)
                arctanh(x, x)
            else:
                arctanh(plus, x)
            if scaled:
                multiply(x, scale, x)
            add(field, x, soft)
            tanh(soft, soft)
    return plus


def _check_totals(total):
    if not total.all():
        raise ValueError("neighbours impossible under the assumed transition "
                         "matrix: both symbol hypotheses have zero probability")


def _clamp_needed(model) -> bool:
    """Whether a sweep over the (9, ...) neighbour models must clamp m and
    check its totals: False only where a rounding bound proves both idle.

    Each model is a row-stochastic matrix's, so on the soft range [-1, 1]
    a neighbour term w0 + w1 s is a convex combination of two entries: at
    most 1 and at least f = w0 - |w1| (min(T0b, T1b) on the left,
    min(Tb0, Tb1) on the right). So each product p(b) lies in [p_min, 1],
    p_min = f_left f_right, the totals are positive and |m| = |p(+1) -
    p(-1)| / (p(+1) + p(-1)) <= 1 - p_min. In floating point every
    operation of the update errs by at most the unit roundoff u = 2^-53
    relative (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 2.2), the product w1 s by at most u / 2 absolute (|w1| <= 1/2,
    and s is a tanh or the edge value), and the floors by a few u
    relative, so the computed |m| stays below 1 - p_min + 16 u.
    Where every slot's p_min reaches CLAMP_FLOOR = 2^-30, that is below
    the cap 1 - CLAMP_EPS, every total exceeds 2^-31, and the clamp and
    _check_totals change nothing: a NaN soft value gives a NaN m either
    way (maximum and minimum keep it, and a NaN total passes the check). A
    floor that is NaN, not positive or below CLAMP_FLOOR keeps both.
    """
    left, right = (np.min(model[r:r + 2] - np.abs(model[r + 2:r + 4]))
                   for r in (0, 4))
    return not (left > 0 and right > 0 and left * right >= CLAMP_FLOOR)


def local_bias(soft: np.ndarray, matrix: TransitionMatrix, position: int) -> np.ndarray:
    """Local bias of one symbol column from its neighbors' soft values.

    soft is the (K, L) array of soft decisions in [-1, 1] of the whole
    block (a hard neighbor is +-1, an uninformed one 0); position is the
    0-based column. A missing neighbor at either word edge is replaced by
    the stationary distribution of the assumed matrix. Returns the (K,)
    vector of biases in [-1, 1], computed by the same column update as the
    detectors' bias sweeps. A soft value outside [-1, 1], NaN included, is
    refused: the bias would leave that range, which _clamp_needed assumes.
    """
    s = _soft_block(soft)
    n_users, word_len = s.shape
    position = _check_int(position, "position")
    if not 0 <= position < word_len:
        raise ValueError(f"position {position} outside word of length {word_len}")
    model = _neighbour_model(matrix)
    clamp = _clamp_needed(model)
    left_w, right_w, edge = _model_terms(model)
    prev = s[:, position - 1] if position > 0 else edge
    after = s[:, position + 1] if position < word_len - 1 else edge
    work = np.empty((7, n_users))
    # the correction and soft value the update also leaves go to scratch
    m = _update_columns([(prev, _terms(after, right_w, work[2:4]), work[4],
                          work[5], 0.0, work[6])], left_w, work[0:2], 1.0,
                        clamp)
    if clamp:
        _check_totals(work[4])
    return m


def _shuffled_columns(padded, weights, pair, totals, xi, field, order):
    """An RSUS sweep's column tuples in order, each column's left terms
    written to the (2, W) pair as it is reached, by the two contiguous row
    products of _update_columns (a broadcast multiply: a 5 % slower sweep)."""
    w0, (w1_minus, w1_plus) = weights
    minus, plus = pair
    for l in order:
        s = padded[l]
        np.multiply(w1_minus, s, minus)
        np.multiply(w1_plus, s, plus)
        np.add(pair, w0, pair)
        yield padded[l + 2], pair, totals[l], xi[l], field[l], padded[l + 1]


def _bias_sweep(padded, field, xi, model, schedule, t, rng, scale, work,
                clamp):
    """Recompute the bias correction over the block, in schedule order.

    Arrays are column-major and hold a group of realizations side by
    side: padded[l + 1], field[l] and xi[l] are the (B, K) users of symbol
    column l of every trial, padded is (L + 2, B, K) with the current soft
    values in rows 1..L, and a trial's users never meet another trial's,
    so the trials of a group are independent. Updates xi in place and
    leaves tanh(field + xi) in every soft row: PUS computes every column
    from one soft snapshot in whole-block operations, then refreshes them
    all; the ordered schedules refresh each column as they visit it, so
    later columns see the new values of earlier ones. SUS visits the
    columns forward, BFUS forward at an even outer iteration t and
    backward at an odd one, RSUS in an order drawn from rng. Every schedule
    runs _update_columns, PUS on one tuple of whole-block views. In an
    ordered sweep the neighbour not yet visited still holds its snapshot
    value, so that side is computed for all columns at once, into an
    (L, 2, W) array whose row l is the (minus, plus) pair of column l; RSUS
    computes each column's left side as it visits it (_shuffled_columns).
    model is one (9, 1) _neighbour_model for every trial, or a (9, B, K)
    array holding each trial's own. work is scratch of at least
    4 (L + 1) W floats, W = B K: two (L, 2, W) arrays, the first for the
    left terms of PUS or the far side of an ordered sweep, the second for
    the right terms of PUS, whose first rows then take the normaliser of
    each column, and the (2, W) near and left pairs of an ordered sweep.
    clamp is _clamp_needed of the models: with it the sweep clamps m and
    checks its totals. Each column's correction goes straight into xi;
    returns nothing.
    """
    n_rows, n_trials, n_users = padded.shape
    word_len, width = n_rows - 2, n_trials * n_users
    left_w, right_w, edge = _model_terms(model.reshape(len(model), -1))
    padded = padded.reshape(n_rows, width)
    padded[0] = padded[-1] = edge
    field = field.reshape(word_len, width)
    xi = xi.reshape(word_len, width)
    soft = padded[1:-1]
    block = word_len * width
    pairs = work[:2 * block].reshape(word_len, 2, width)
    # the update writes a column's normaliser only after it has multiplied
    # in the terms these rows hold for PUS
    rest = work[2 * block:4 * block].reshape(word_len, 2, width)
    totals = rest[:, 0]
    near, left = work[4 * block:4 * (block + width)].reshape(2, 2, width)
    if schedule == "PUS":
        near, near_w = pairs, left_w
        columns = [(padded[:-2], _terms(padded[2:, None], right_w, rest),
                    totals, xi, field, soft)]
    elif schedule == "RSUS":
        near_w = right_w
        columns = _shuffled_columns(padded, left_w, left, totals, xi, field,
                                    rng.permutation(word_len))
    elif schedule == "SUS" or t % 2 == 0:
        near_w = left_w
        columns = zip(padded[:-2], _terms(padded[2:, None], right_w, pairs),
                      totals, xi, field, soft)
    else:
        near_w = right_w
        columns = zip(*(a[::-1] for a in (
            padded[2:], _terms(padded[:-2, None], left_w, pairs), totals,
            xi, field, soft)))
    _update_columns(columns, near_w, near, scale, clamp)
    if clamp:
        _check_totals(totals)


def _mud_step(rows, ends, corrs, soft, matched, field, interference, gain,
              xi, load, sigma, work, finite):
    """One synchronous MUD update of the active symbol columns of a group,
    committed in place.

    The arrays are contiguous (L B, K) views of the group's state, row
    l B + b holding symbol column l of slot b (gain is (L B,)), and xi is
    the bias correction. rows lists the rows to update slot by slot: slot
    b's are rows[ends[b - 1]:ends[b]] (from 0 for b = 0), and corrs[b] is
    its correlation matrix. Every row is gathered once into the (3, L B, K)
    work buffer, so only the active columns pay for the K x K product, which
    runs once per slot on that slot's contiguous slice; every other
    operation runs once over all rows and treats each row on its own, so a
    slot's rows get what a step of that slot alone gives them, bit for bit.
    The interference sum runs over all users including the self term (unit
    diagonal of corr); the final + precision * soft adds the own tentative
    estimate back, leaving the cavity field. Without that retraction the
    update subtracts each user's own signal and the iteration oscillates
    instead of converging. The committed rows' soft values become
    tanh(field + xi), so every row keeps soft = tanh(field + xi). Returns
    the soft power Q and precision A of each updated row, which only tests
    read (through a spy on this function), and the list, ascending, of the
    slots whose new field has a non-finite value: those have diverged.
    """
    n, n_users = rows.size, soft.shape[1]
    # mode="clip" writes straight into the work buffer ("raise" would stage
    # the gather in a fresh array); rows are valid row indices
    s = np.take(soft, rows, axis=0, out=work[0, :n], mode="clip")
    # the soft power adds each row's users in index order, the order a
    # reduction over the users axis of a (K, L) array takes, so it does not
    # depend on the layout: a reduction over the leading axis of a C-ordered
    # (K, n) block of squares adds its rows one by one, vectorised across
    # the columns, where a running sum along each row is serial. numpy sums
    # a lone contiguous column pairwise, so one row is padded to two columns
    squares = work[1:].reshape(-1)[:n_users * max(n, 2)].reshape(n_users, -1)
    np.copyto(squares[:, :n], s.T)
    squares[:, n:] = 0.0
    np.multiply(squares, squares, out=squares)
    q_pow = np.add.reduce(squares, axis=0)[:n] / n_users
    u_new = work[1, :n]
    precision = 1.0 / (sigma * sigma + load * (1.0 - q_pow))
    carry = load * (1.0 - q_pow) * precision
    start = 0
    for end, corr in zip(ends, corrs):
        np.matmul(corr, s[start:end].T, out=u_new[start:end].T)
        start = end
    u_new *= precision[:, None]
    u_old = np.take(interference, rows, axis=0, out=work[2, :n], mode="clip")
    u_old *= carry[:, None]
    u_new += u_old
    gain_new = precision + carry * gain[rows]
    h_new = np.take(matched, rows, axis=0, out=work[2, :n], mode="clip")
    h_new *= gain_new[:, None]
    h_new -= u_new
    s *= precision[:, None]
    h_new += s
    diverged = []
    if not np.isfinite(h_new, out=finite[:n]).all():
        bad = np.flatnonzero(~finite[:n].all(axis=1))
        diverged = np.unique(np.searchsorted(ends, bad, side="right")).tolist()
    field[rows] = h_new
    interference[rows] = u_new
    gain[rows] = gain_new
    s = np.take(xi, rows, axis=0, out=work[0, :n], mode="clip")
    s += h_new
    soft[rows] = np.tanh(s, out=s)
    return q_pow, precision, diverged


def _run_engine(fields, corrs, load, sigma, opts, assumed=None, iterate=True,
                rngs=None):
    """Lockstep detection of every symbol column of a set of realizations.

    fields holds the (K, L) matched-filter fields of realizations of one
    size, corrs their code correlation matrices (read only when iterate),
    assumed, in correlated mode, the transition matrix each realization's
    detector assumes, so arms that assume different matrices share one
    run, and rngs one schedule generator per realization, which a
    correlated RSUS run requires. With iterate=True every outer iteration
    starts with a synchronous MUD step of every realization; with
    iterate=False the matched-filter field is never updated and only the
    bias correction is refined (the correlated SUMF), scaled by the matched
    filter's interference-plus-noise variance load + sigma^2. Plain mode
    (assumed is None) keeps the bias field zero; correlated mode sweeps it
    in every outer iteration. The one stop rule reads the hard decisions: a
    column steps in an outer iteration exactly when its decisions changed
    in the previous one (every column steps in the first), a realization
    stops when none changed, and a position is converged exactly when its
    decisions repeated in the last iteration. Step and sweep both leave
    soft = tanh(field + xi), so a skipped column's decisions change only
    when the sweep changes its correction. With a memoryless assumed matrix
    every correction stays zero, which makes the two modes produce bitwise
    identical results. In blind mode each realization's detector
    re-estimates its matrix, from the memoryless one, in every iteration.

    The realizations run in consecutive lockstep groups of B: one for a
    correlated RSUS run, as each realization shuffles its own columns,
    else _lockstep_width(K), as many as GROUP_USERS users hold. A group's state
    is held in (L, B, K) arrays, each slot with its own matrix's neighbour
    weights and edge value, one copy per user, so every element sees the
    scalars a lone run of its realization would. The MUD step and the bias
    sweep each run once per outer iteration over the whole group. Each
    realization keeps its own active columns, counts and stop rule: one
    that stops, or whose MUD step leaves a non-finite field, leaves the
    group, and the group's last one moves into its slot. So every result,
    a DetectionResult or a DetectorDivergence carrying the iteration of
    that step, is its realization's lone run's, bit for bit.
    """
    if iterate and sigma <= 0.0:
        raise ValueError("iterative detection requires sigma > 0")
    correlated = assumed is not None
    rsus = correlated and opts.schedule == "RSUS"
    n_trials = len(fields)
    n_users, word_len = fields[0].shape
    width = 1 if rsus else _lockstep_width(n_users)
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
    # 5 MB). It starts at a 64-byte boundary (np.empty's data may sit 16 or
    # 48 bytes past one, as the heap's history falls), so with B K a
    # multiple of 8 every row the sweep and the MUD step visit is aligned.
    size = (9 * word_len + 15) * n_trials * n_users
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    block = raw[start:start + size].reshape(-1, n_trials, n_users)
    h0, h, xi, interference, work, padded, model = np.split(
        block, np.cumsum([word_len] * 4 + [4 * word_len + 4, word_len + 2]))
    work = work.reshape(-1)
    soft = padded[1:-1]
    for b, field in enumerate(fields):
        h0[:, b] = field.T
    h[:] = h0
    xi[:] = 0.0
    interference[:] = 0.0
    gain = np.zeros((word_len, n_trials))
    # the state as contiguous (L B, K) rows, row l B + b holding column l of
    # slot b: the MUD step gathers a slot's rows from these views
    n_rows = word_len * n_trials
    step_work = work[:3 * n_rows * n_users].reshape(3, n_rows, n_users)
    flat = [a.reshape(n_rows, n_users) for a in (soft, h0, h, interference)]
    flat.append(gain.reshape(n_rows))
    xi_rows = xi.reshape(n_rows, n_users)
    for b, matrix in enumerate(assumed if correlated else ()):
        model[:, b] = _neighbour_model(estimates[b] if blind else matrix)
    # a trial that leaves only drops its slot's model, so the floor over
    # every slot holds for the run; blind mode takes it with each estimate
    clamp = correlated and _clamp_needed(model)
    finite = np.empty((n_rows, n_users), dtype=bool)
    np.tanh(np.add(h, xi, out=soft), out=soft)
    prev_dec = soft >= 0.0
    dec = np.empty_like(prev_dec)
    active = np.ones((word_len, n_trials), dtype=bool)
    iters = np.zeros((word_len, n_trials), dtype=np.int64)
    trials = list(range(n_trials))  # the trial in each slot
    results = [None] * n_trials

    def leave(slot, outcome):
        # record the trial in slot and move the group's last trial into it
        results[trials[slot]] = outcome
        last = len(trials) - 1
        if slot != last:
            for a in (h0, h, xi, interference, padded, model, prev_dec,
                      gain, active, iters):
                a[:, slot] = a[:, last]
            trials[slot] = trials[last]
        trials.pop()

    for t in range(opts.max_iters):
        if iterate:
            # the active rows slot by slot, each slot's in column order
            on = active[:, :len(trials)]
            slot_of, rows = np.nonzero(on.T)
            rows *= n_trials
            rows += slot_of
            ends = np.count_nonzero(on, axis=0).cumsum().tolist()
            _, _, diverged = _mud_step(
                rows, ends, [corrs[trial] for trial in trials], *flat,
                xi_rows, load, sigma, step_work, finite)
            # from the last slot down, so a trial that leaves moves one that
            # did not diverge into its slot
            for slot in reversed(diverged):
                leave(slot, DetectorDivergence(t))
            if not trials:
                break
        n = len(trials)
        sl = np.s_[:, :n]
        iters[sl] += active[sl]

        if correlated:
            if blind and t > 0:
                for slot, trial in enumerate(trials):
                    estimates[trial] = estimate_transition(soft[:, slot].T)
                    model[:, slot] = _neighbour_model(estimates[trial])
                clamp = _clamp_needed(model[sl])
            # step and sweep both leave tanh(h + xi) in the rows they change
            _bias_sweep(padded[sl], h[sl], xi[sl], model[sl], opts.schedule,
                        t, rng, scale, work, clamp)
        np.greater_equal(soft[sl], 0.0, out=dec[sl])
        np.any(dec[sl] != prev_dec[sl], axis=2, out=active[sl])
        prev_dec, dec = dec, prev_dec
        done = ~active[sl].any(axis=0)
        if t == opts.max_iters - 1:
            done[:] = True
        for slot in np.flatnonzero(done)[::-1]:
            trial = trials[slot]
            leave(slot, DetectionResult(
                field=np.add(h[:, slot], xi[:, slot]).T.copy(),
                iters=iters[:, slot].copy(),
                converged=~active[:, slot], outer_iterations=t + 1,
                estimated_matrix=estimates[trial] if blind else None))
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
    """Plain matched-filter detection: the result's field is the matched
    field, so its bits are the matched filter's hard decisions."""
    matched = sumf(spreading, received)
    word_len = matched.shape[1]
    return DetectionResult(
        field=matched,
        iters=np.zeros(word_len, dtype=np.int64),
        converged=np.ones(word_len, dtype=bool), outer_iterations=0)
