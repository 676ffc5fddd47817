"""Two-state Markov sources: transition matrices, their derived statistics,
word generation, soft-count estimation, and single-element mismatch.

Symbols take values in {-1, +1}. A transition matrix is stored as a 2x2
row-stochastic array whose rows/columns are ordered (-1, +1): entry (a, b)
is the probability of emitting symbol b right after symbol a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12

# array index for each symbol value
_IDX = {-1: 0, +1: 1}


class TransitionMatrix:
    """Validated, immutable 2x2 row-stochastic transition matrix.

    Rows must sum to 1 within ``ROW_SUM_TOL`` and entries must lie in [0, 1].
    The second eigenvalue (trace - 1 for a 2x2 stochastic matrix) controls
    the correlation strength of the generated symbol stream.
    """

    __slots__ = ("_t",)

    def __init__(self, probs):
        t = np.array(probs, dtype=np.float64)
        if t.shape != (2, 2):
            raise ValueError(f"transition matrix must be 2x2, got shape {t.shape}")
        # written so that NaN entries fail
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise ValueError(f"transition probabilities outside [0, 1]: {t.tolist()}")
        rows = t.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, got {rows.tolist()}")
        t.flags.writeable = False
        self._t = t

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (2, 2) array, row -1 first."""
        return self._t

    @property
    def lambda2(self) -> float:
        """Second eigenvalue; the first is always 1 for a stochastic matrix."""
        return float(self._t[0, 0] + self._t[1, 1] - 1.0)

    @property
    def is_symmetric(self) -> bool:
        return abs(float(self._t[0, 0] - self._t[1, 1])) <= ROW_SUM_TOL

    def prob(self, a: int, b: int) -> float:
        """P(next = b | current = a) for a, b in {-1, +1}."""
        return float(self._t[_IDX[a], _IDX[b]])

    def stationary(self) -> np.ndarray:
        """Stationary distribution (mu_minus, mu_plus) solving mu @ T = mu.

        Unique whenever |lambda2| < 1; for the frozen chain (identity matrix)
        the convention (0.5, 0.5) is returned. Both entries are divided out
        of the same total, so mirroring the matrix (swapping -1 and +1)
        mirrors the distribution exactly.
        """
        up = float(self._t[0, 1])    # P(-1 -> +1)
        down = float(self._t[1, 0])  # P(+1 -> -1)
        if up + down == 0.0:
            return np.array([0.5, 0.5])
        return np.array([down / (up + down), up / (up + down)])

    def to_flat(self) -> str:
        """Serialize as four decimal numbers, row-major, row -1 first."""
        return ",".join(repr(float(x)) for x in self._t.ravel())

    @classmethod
    def from_flat(cls, text: str) -> "TransitionMatrix":
        values = [float(x) for x in text.split(",")]
        if len(values) != 4:
            raise ValueError(f"expected 4 comma-separated numbers, got {len(values)}")
        return cls(np.array(values).reshape(2, 2))

    def __repr__(self) -> str:
        return f"TransitionMatrix({self._t.tolist()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionMatrix) and np.array_equal(self._t, other._t)

    def __hash__(self) -> int:
        # Python floats hash -0.0 and 0.0 alike, as array_equal compares them
        return hash(tuple(self._t.ravel().tolist()))


@dataclass(frozen=True)
class SourceStats:
    """Derived quantities of a stationary two-state Markov source."""

    entropy_bits: float
    correlation_length: float


def make_symmetric_matrix(lambda2: float) -> TransitionMatrix:
    """Symmetric matrix with eigenvalues (1, lambda2): both diagonals (1 + lambda2)/2."""
    if not -1.0 <= lambda2 <= 1.0:
        raise ValueError(f"lambda2 must lie in [-1, 1], got {lambda2}")
    stay = (1.0 + lambda2) / 2.0
    move = 1.0 - stay
    return TransitionMatrix([[stay, move], [move, stay]])


def iid_matrix() -> TransitionMatrix:
    """The memoryless unbiased matrix: all entries 1/2."""
    return make_symmetric_matrix(0.0)


def _plogp(x):
    """x log2 x elementwise for x >= 0, with 0 log 0 = 0: log2 reads 1
    where x is 0, so it never divides by zero."""
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def source_stats(t: TransitionMatrix) -> SourceStats:
    """Per-symbol entropy (bits) and correlation length.

    The entropy is H = -sum_a mu_a sum_b T_ab log2 T_ab with 0*log 0 = 0.
    The correlation length is 1/ln(1/lambda2) for lambda2 in (0, 1); by
    convention it is 0 for lambda2 <= 0 and infinite for lambda2 = 1.
    """
    mu = t.stationary()
    entropy = float(-(mu[:, None] * _plogp(t.matrix)).sum())
    lam2 = t.lambda2
    if lam2 >= 1.0:
        corr_len = math.inf
    elif lam2 <= 0.0:
        corr_len = 0.0
    else:
        corr_len = 1.0 / math.log(1.0 / lam2)
    return SourceStats(entropy, corr_len)


def generate_block(t: TransitionMatrix, n_users: int, word_len: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample an (n_users, word_len) array of +-1 symbols, one independent
    Markov word per user.

    The first symbol of each word is drawn from the stationary distribution;
    every later symbol is drawn from the row of the current symbol: symbol
    l is +1 when its uniform u falls below P(+1 | symbol l - 1). As
    booleans, with a = u < P(+1 | -1) and b = u < P(+1 | +1), that is
    a ^ (prev & (a ^ b)) for any matrix, so the only per-symbol work is one
    AND and one XOR over the users.
    """
    if n_users < 1 or word_len < 1:
        raise ValueError("n_users and word_len must be >= 1")
    p_up_from = t.matrix[:, 1]  # P(next = +1 | current), indexed 0:-1, 1:+1
    mu_plus = float(t.stationary()[1])
    # one draw for the whole block: row l holds the uniforms of symbol l of
    # every user, the values (and the generator position) of one call per
    # symbol of n_users draws each
    u = rng.random((word_len, n_users))
    # up[l] is whether symbol l is +1: first as if symbol l - 1 were -1,
    # then flipped where symbol l - 1 is +1 and the two rows disagree
    up = u < p_up_from[0]
    differ = u < p_up_from[1]
    differ ^= up
    np.less(u[0], mu_plus, out=up[0])
    for prev, row, flip in zip(up, up[1:], differ[1:]):
        flip &= prev
        row ^= flip
    block = up.T.astype(np.int8, order="C")
    block *= 2
    block -= 1
    block.flags.writeable = False
    return block


def _soft_block(soft) -> np.ndarray:
    """soft as a float64 (K, L) array of values in [-1, 1], else ValueError."""
    s = np.asarray(soft, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"soft must have shape (K, L), got {s.shape}")
    if not np.all(np.abs(s) <= 1.0):  # written so that NaN fails
        raise ValueError("soft values must lie in [-1, 1]")
    return s


def estimate_transition(soft: np.ndarray, pseudo_count: float = 1.0) -> TransitionMatrix:
    """Estimate a transition matrix from per-symbol soft values.

    ``soft`` has shape (n_users, word_len) with entries in [-1, 1]; a soft
    value s stands for the beliefs P(-1) = (1 - s)/2 and P(+1) = (1 + s)/2,
    so a hard +-1 block counts its own transitions. Expected transition
    counts are accumulated over all adjacent symbol pairs of every word and
    row-normalized after adding ``pseudo_count`` to each of the four cells.
    A row with zero total count (possible only at pseudo_count = 0) falls
    back to (0.5, 0.5).
    """
    s = _soft_block(soft)
    if s.shape[0] * (s.shape[1] - 1) == 0:
        raise ValueError("no transitions observable: need K >= 1 and L >= 2")
    # a fresh C-ordered array whatever the layout of soft: one einsum order
    q = np.empty(s.shape + (2,))
    np.subtract(1.0, s, out=q[..., 0])
    np.add(1.0, s, out=q[..., 1])
    q /= 2.0
    counts = np.einsum("kla,klb->ab", q[:, :-1, :], q[:, 1:, :]) + pseudo_count
    totals = counts.sum(axis=1, keepdims=True)
    t_hat = np.where(totals > 0.0, counts / np.where(totals > 0.0, totals, 1.0), 0.5)
    return TransitionMatrix(t_hat)


def perturb_element(t: TransitionMatrix, rel_delta: float) -> TransitionMatrix:
    """Scale the (-1, -1) element by (1 + rel_delta) and renormalize row -1.

    Models a receiver that mis-estimates the persistence of the -1 state;
    row +1 is left untouched. Requires a symmetric input matrix and raises
    if the scaled element leaves [0, 1].
    """
    if not t.is_symmetric:
        raise ValueError("mismatch perturbation is defined for symmetric matrices only")
    stay = float(t.matrix[0, 0]) * (1.0 + rel_delta)
    if not 0.0 <= stay <= 1.0:
        raise ValueError(
            f"perturbed element {stay:.6g} outside [0, 1] (rel_delta={rel_delta})")
    m = np.array(t.matrix, copy=True)
    m[0, 0] = stay
    m[0, 1] = 1.0 - stay
    return TransitionMatrix(m)
