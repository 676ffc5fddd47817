"""Random binary spreading and the synchronous AWGN multiple-access channel.

Each of K users spreads every symbol over the same N unit-energy chips drawn
once per word, so a whole word of L symbols shares one N x K chip matrix.
The receiver sees the chip-rate superposition of all users plus white
Gaussian noise.
"""

from __future__ import annotations

import numpy as np


class SpreadingMatrix:
    """N x K matrix of +-1 chips with its code correlation matrix.

    chips is the int8 matrix and float_chips the same chips as float64: the
    one conversion that transmit, the matched filter and the correlation
    matrix all read. corr[k, j] = (1/N) sum_mu chips[mu, k] * chips[mu, j]
    (unit diagonal) is the O(K^2) operand of the iterative detectors only,
    so it is computed on first access and cached: matched-filter runs never
    build it. Its entries are sums of +-1 products, exact in any summation
    order.
    """

    __slots__ = ("chips", "float_chips", "_corr")

    def __init__(self, chips):
        c = np.asarray(chips)
        if c.ndim != 2:
            raise ValueError(f"chips must be 2-d, got shape {c.shape}")
        if not np.all(np.abs(c) == 1):
            raise ValueError("chips must all be +-1")
        c = c.astype(np.int8, copy=True)
        c.flags.writeable = False
        self.chips = c
        self.float_chips = c.astype(np.float64)
        self.float_chips.flags.writeable = False
        self._corr = None

    @property
    def corr(self) -> np.ndarray:
        if self._corr is None:
            self._corr = _gram(self.float_chips)
        return self._corr

    @property
    def spread_factor(self) -> int:
        return self.chips.shape[0]

    @property
    def n_users(self) -> int:
        return self.chips.shape[1]


def _gram(float_chips: np.ndarray) -> np.ndarray:
    """(1/N) float_chips.T @ float_chips, read-only.

    Both operands are views of one buffer, so numpy computes the symmetric
    product (half the flops of a general one).
    """
    w = (float_chips.T @ float_chips) / float_chips.shape[0]
    w.flags.writeable = False
    return w


def generate_spreading(spread_factor: int, n_users: int,
                       rng: np.random.Generator) -> SpreadingMatrix:
    """Draw independent fair +-1 chips for every (chip, user) slot."""
    if spread_factor < 1 or n_users < 1:
        raise ValueError("spread_factor and n_users must be >= 1")
    chips = rng.integers(0, 2, size=(spread_factor, n_users), dtype=np.int8) * 2 - 1
    return SpreadingMatrix(chips)


def transmit(spreading: SpreadingMatrix, block: np.ndarray, sigma: float,
             rng: np.random.Generator) -> np.ndarray:
    """Received N x L samples: (1/sqrt(N)) * chips @ block plus N(0, sigma^2) noise.

    The 1/sqrt(N) factor keeps each user's per-symbol energy at 1 regardless
    of the spreading factor. Noise is independent across chips and symbol
    slots; sigma = 0 is exact and deterministic.
    """
    b = np.asarray(block)
    if b.ndim != 2 or b.shape[0] != spreading.n_users:
        raise ValueError(
            f"block shape {b.shape} incompatible with {spreading.n_users} users")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    n = spreading.spread_factor
    signal = (spreading.float_chips @ b.astype(np.float64)) / np.sqrt(n)
    if sigma == 0.0:
        return signal
    return signal + sigma * rng.standard_normal(signal.shape)
