"""Random binary spreading and the synchronous AWGN multiple-access channel.

Each of K users spreads every symbol over the same N unit-energy chips drawn
once per word, so a whole word of L symbols shares one N x K chip matrix.
The receiver sees the chip-rate superposition of all users plus white
Gaussian noise.
"""

from __future__ import annotations

import math

import numpy as np


class SpreadingMatrix:
    """N x K matrix of +-1 chips with its code correlation matrix.

    chips is the int8 matrix, the only copy kept: transmit, the matched
    filter and the correlation matrix each convert it for their own product.
    The constructor checks the chips and keeps a read-only int8 copy of
    them; generate_spreading hands over its freshly drawn chips through
    _adopt, which runs the same checks and keeps that array itself.
    corr[k, j] = (1/N) sum_mu chips[mu, k] * chips[mu, j] (unit diagonal) is
    the O(K^2) operand of the iterative detectors only, so it is computed on
    first access and cached: matched-filter runs never build it. Its entries
    are sums of +-1 products, exact in any summation order.
    """

    __slots__ = ("chips", "_corr")

    def __init__(self, chips):
        self._keep(np.asarray(chips), copy=True)

    @classmethod
    def _adopt(cls, chips: np.ndarray) -> "SpreadingMatrix":
        """A SpreadingMatrix of int8 chips that no one else holds, kept
        without a copy (and made read-only)."""
        spreading = cls.__new__(cls)
        spreading._keep(chips, copy=False)
        return spreading

    def _keep(self, c: np.ndarray, copy: bool):
        if c.ndim != 2:
            raise ValueError(f"chips must be 2-d, got shape {c.shape}")
        if not _all_unit(c):
            raise ValueError("chips must all be +-1")
        c = c.astype(np.int8, copy=copy)
        c.flags.writeable = False
        self.chips = c
        self._corr = None

    @property
    def corr(self) -> np.ndarray:
        if self._corr is None:
            self._corr = _gram(self.chips)
        return self._corr

    @property
    def spread_factor(self) -> int:
        return self.chips.shape[0]

    @property
    def n_users(self) -> int:
        return self.chips.shape[1]


def _all_unit(a: np.ndarray) -> bool:
    """Whether every entry of a is +1 or -1.

    The one temporary is |a|, tested in place: a one-byte |a| (int8, uint8,
    bool) takes its verdicts over its own bytes, a wider one is lowered by
    1 and must be all zero (a NaN stays nonzero). In int8 |-128| wraps to
    -128, so -128 fails like every other value but +-1.
    """
    t = np.abs(a)
    if t.itemsize == 1:
        return bool(np.equal(t, 1, out=t.view(np.bool_)).all())
    t -= 1
    return not t.any()


def _gram(chips: np.ndarray) -> np.ndarray:
    """(1/N) chips.T @ chips in float64, read-only.

    Both operands are views of one float64 copy of the chips, so numpy
    computes the symmetric product (half the flops of a general one). The
    division is in place, so no second K x K array exists even briefly.
    """
    c = chips.astype(np.float64)
    w = c.T @ c
    w /= chips.shape[0]
    w.flags.writeable = False
    return w


def generate_spreading(spread_factor: int, n_users: int,
                       rng: np.random.Generator) -> SpreadingMatrix:
    """Draw independent fair +-1 chips for every (chip, user) slot.

    The chips equal rng.integers(0, 2, size=(N, K), dtype=np.int8) * 2 - 1
    bit for bit, and leave rng where that draw leaves it, without its
    per-byte loop. numpy's bounded int8 draw takes one byte at a time, low
    byte first, from the generator's 32-bit outputs and maps it to
    (byte * 2) >> 8 (Lemire's multiply-shift, which never rejects a byte on
    a range of 2), so its value is the byte's top bit. The ceil(N K / 4)
    32-bit outputs of _words, read as little-endian bytes, hold those bytes
    in that order; each becomes +1 exactly when its top bit is set.
    """
    if spread_factor < 1 or n_users < 1:
        raise ValueError("spread_factor and n_users must be >= 1")
    size = spread_factor * n_users
    chips = _words(rng, -(-size // 4)).view(np.int8)[:size]
    # in place on the int8 bytes: ~b >> 7 is 0 where the top bit of b is
    # set and -1 where it is clear, and | 1 makes those +1 and -1
    np.invert(chips, out=chips)
    chips >>= 7
    chips |= 1
    return SpreadingMatrix._adopt(chips.reshape(spread_factor, n_users))


def _words(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next count 32-bit outputs of rng, as little-endian uint32: the
    values of rng.integers(0, 2**32, size=count, dtype=np.uint32), and rng
    left where that draw leaves it.

    numpy's PCG64 makes its 32-bit outputs by splitting each 64-bit output
    into its low half, returned first, and its high half, buffered for the
    next 32-bit draw. So while no half is buffered, its raw 64-bit outputs
    read as little-endian bytes are those words, two per output, without a
    call per word. A buffered half and an odd last word each take one
    32-bit draw, which also leaves the buffer as that draw would. Every
    other bit generator takes the 32-bit draw throughout: MT19937's raw
    outputs, for one, are 32-bit.
    """
    def draw(n):
        return rng.integers(0, 2**32, size=n, dtype=np.uint32).astype(
            "<u4", copy=False)

    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return draw(count)
    parts = [draw(1)] if bit_generator.state["has_uint32"] else []
    pairs, odd = divmod(count - len(parts), 2)
    parts.append(bit_generator.random_raw(pairs).astype(
        "<u8", copy=False).view("<u4"))
    if odd:
        parts.append(draw(1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def transmit(spreading: SpreadingMatrix, block: np.ndarray, sigma: float,
             rng: np.random.Generator) -> np.ndarray:
    """Received N x L samples: (1/sqrt(N)) * chips @ block plus N(0, sigma^2) noise.

    The 1/sqrt(N) factor keeps each user's per-symbol energy at 1 regardless
    of the spreading factor. Noise is independent across chips and symbol
    slots; sigma = 0 is exact and deterministic. The block must be +-1: then
    every entry of chips @ block is a sum of K terms +-1, an integer that
    float32 holds exactly for K <= 2^24, so up to that many users the
    product runs in float32 and equals the float64 one bit for bit.
    """
    b = np.asarray(block)
    if b.ndim != 2 or b.shape[0] != spreading.n_users:
        raise ValueError(
            f"block shape {b.shape} incompatible with {spreading.n_users} users")
    if not _all_unit(b):
        raise ValueError("block symbols must all be +-1")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    exact = np.float32 if spreading.n_users <= 2**24 else np.float64
    signal = (spreading.chips.astype(exact) @ b.astype(exact)).astype(np.float64)
    signal /= np.sqrt(spreading.spread_factor)
    if sigma == 0.0:
        return signal
    noise = rng.standard_normal(signal.shape)
    noise *= sigma
    noise += signal
    return noise
