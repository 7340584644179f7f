"""Deterministic sampling helpers.

All randomized checks in this package draw from the counter-based Philox
bit generator keyed by a 64-bit seed, so identical (seed, sample-count)
configurations reproduce bit-identical streams across platforms and runs.
The optimizer's start points come from :func:`sobol`, a scrambled Sobol
sequence that reproduces ``scipy.stats.qmc.Sobol`` without importing scipy.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["make_rng", "sobol", "SamplingError"]

_SOBOL_BITS = 30

# Joe & Kuo, "Constructing Sobol sequences with better two-dimensional
# projections" (SIAM J. Sci. Comput. 30, 2008), dimensions 2-32: each
# primitive polynomial (with its leading and constant bits) and its initial
# direction numbers m_1 ... m_deg.  Dimension 1 is the van der Corput sequence.
_SOBOL_POLY = (
    3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103,
    109, 115, 131, 137, 143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213,
)
_SOBOL_VINIT = (
    (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53),
    (1, 3, 1, 13, 9, 35, 107), (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17),
)


class SamplingError(RuntimeError):
    """Raised when rejection sampling cannot find the requested points."""


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(np.uint64(seed))))


@functools.cache
def _sobol_direction_bits() -> np.ndarray:
    """The unscrambled direction numbers' bits, shape (32, bits, bits), as floats.

    Entry [d, j, i] is bit i, most significant first, of the left-aligned
    v_j of dimension d + 1 (Bratley & Fox's recurrence).
    """
    rows = [[1] * _SOBOL_BITS]
    for poly, vinit in zip(_SOBOL_POLY, _SOBOL_VINIT):
        deg, v = len(vinit), list(vinit)
        for j in range(deg, _SOBOL_BITS):
            new = v[j - deg]
            for k in range(1, deg + 1):
                if poly >> (deg - k) & 1:
                    new ^= v[j - k] << k
            v.append(new)
        rows.append(v)
    msb_first = np.arange(_SOBOL_BITS - 1, -1, -1)
    left_aligned = np.array(rows, dtype=np.int64) << msb_first
    return (left_aligned[:, :, None] >> msb_first & 1).astype(float)


def sobol(d: int, seed):
    """Scrambled Sobol points in [0, 1)^d: a function ``draw(n)`` of the next n points.

    The points are those of ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=seed)`` bit for bit, and successive draws continue the sequence as
    successive ``random(n)`` calls of that engine do: 30 bits, linear
    matrix scrambling and a digital shift drawn from
    ``np.random.default_rng(seed)`` in scipy's order, then the shift as the
    first point and Gray-code order after it.  At most 32 dimensions and
    2**30 points.
    """
    if not 1 <= d <= len(_SOBOL_POLY) + 1:
        raise ValueError(f"Sobol points need 1 to {len(_SOBOL_POLY) + 1} dimensions, not {d}")
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    # the draws keep scipy's shapes, dtype and order, so the stream stays the same
    shift_bits = rng.integers(2, size=(d, bits), dtype=np.uint32)
    shift = shift_bits @ (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    # lower-triangular with a unit diagonal
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32), -1) + np.eye(bits)
    # linear matrix scrambling: each direction number's bits times the matrix,
    # modulo 2; the sums of at most 30 products are exact in floats
    scrambled = _sobol_direction_bits()[:d] @ ltm.transpose(0, 2, 1) % 2
    directions = (scrambled @ 2.0 ** np.arange(bits - 1, -1, -1)).astype(np.uint32).T
    quasi, drawn = np.zeros(d, dtype=np.uint32), 0

    def draw(n: int) -> np.ndarray:
        nonlocal quasi, drawn
        if drawn + n > 1 << bits:
            raise ValueError(f"at most 2**{bits} Sobol points can be drawn")
        # point 0 is the shift; point k > 0 flips the direction of k's lowest set bit
        k = np.arange(drawn, drawn + n)
        steps = directions[np.frexp(k & -k)[1] - 1]
        steps[k == 0] = shift
        pts = np.bitwise_xor.accumulate(steps, axis=0) ^ quasi
        quasi, drawn = (pts[-1] if n else quasi), drawn + n
        return pts * 2.0**-bits

    return draw
