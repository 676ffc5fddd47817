"""Random binary spreading and the synchronous AWGN multiple-access channel.

Each of K users spreads every symbol over the same N unit-energy chips drawn
once per word, so a whole word of L symbols shares one N x K chip matrix.
The receiver sees the chip-rate superposition of all users plus white
Gaussian noise.
"""

from __future__ import annotations

import numpy as np


class SpreadingMatrix:
    """N x K matrix of +-1 chips with its cached code correlation matrix.

    corr[k, j] = (1/N) sum_mu chips[mu, k] * chips[mu, j]; unit diagonal by
    construction. corr is the O(K^2) operand of the iterative detector, so it
    is computed once here.
    """

    __slots__ = ("chips", "corr")

    def __init__(self, chips):
        c = np.asarray(chips)
        if c.ndim != 2:
            raise ValueError(f"chips must be 2-d, got shape {c.shape}")
        if not np.all(np.abs(c) == 1):
            raise ValueError("chips must all be +-1")
        c = c.astype(np.int8, copy=True)
        c.flags.writeable = False
        self.chips = c
        w = (c.astype(np.float64).T @ c.astype(np.float64)) / c.shape[0]
        w.flags.writeable = False
        self.corr = w

    @property
    def spread_factor(self) -> int:
        return self.chips.shape[0]

    @property
    def n_users(self) -> int:
        return self.chips.shape[1]


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
    signal = (spreading.chips.astype(np.float64) @ b.astype(np.float64)) / np.sqrt(n)
    if sigma == 0.0:
        return signal
    return signal + sigma * rng.standard_normal(signal.shape)
