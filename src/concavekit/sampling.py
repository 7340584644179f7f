"""Deterministic sampling helpers.

All randomized checks in this package draw from the counter-based Philox
bit generator keyed by a 64-bit seed, so identical (seed, sample-count)
configurations reproduce bit-identical streams across platforms and runs.
The optimizer's start points come from :func:`sobol`, a scrambled Sobol
sequence that reproduces ``scipy.stats.qmc.Sobol`` without importing scipy.
It packs each column of a scrambling matrix into one integer and makes a
direction number only when a draw first reaches it, so eight points cost
the seed's random draws and little more.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import xor

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
    """Philox generator keyed by a 64-bit seed; refuses one outside [0, 2**64) (ValueError)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 1 << 64:
        raise ValueError(f"a seed must be an integer in [0, 2**64), not {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


@cache
def _sobol_tables():
    """(set bits, LSB-first weights, MSB-first weights), built on first use.

    Set bits [d][j] are the bit positions, most significant first, of the
    left-aligned v_j of dimension d + 1 (Bratley & Fox's recurrence).
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
    # m_j < 2**(j + 1), left-aligned by bits - 1 - j places
    set_bits = tuple(
        tuple(tuple(i for i in range(j + 1) if m >> (j - i) & 1) for j, m in enumerate(v)) for v in rows
    )
    lsb_first = np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32)
    return set_bits, lsb_first, lsb_first[::-1].copy()


def sobol(d: int, seed):
    """Scrambled Sobol points in [0, 1)^d: a function ``draw(n)`` of the next n points.

    The points are those of ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=seed)`` bit for bit, and successive draws continue the sequence as
    successive ``random(n)`` calls of that engine do: 30 bits, linear
    matrix scrambling and a digital shift drawn from
    ``np.random.default_rng(seed)`` in scipy's order, then the shift as the
    first point and Gray-code order after it.  At most 32 dimensions and
    2**30 points.
    Scrambled direction j is the XOR of the packed matrix columns at the set
    bits of v_j, made when a draw first reaches point 2**j.
    """
    if not 1 <= d <= len(_SOBOL_POLY) + 1:
        raise ValueError(f"Sobol points need 1 to {len(_SOBOL_POLY) + 1} dimensions, not {d}")
    bits = _SOBOL_BITS
    set_bits, lsb_first, msb_first = _sobol_tables()
    rng = np.random.default_rng(seed)
    # the draws keep scipy's shapes, dtype and order, so the stream stays the same
    quasi = rng.integers(2, size=(d, bits), dtype=np.uint32) @ lsb_first  # the shift
    # column i, row r as bit bits - 1 - r: the strictly lower part of the
    # draw, which scipy keeps with np.tril, and the unit diagonal
    packed = msb_first @ rng.integers(2, size=(d, bits, bits), dtype=np.uint32)
    columns = (packed & (msb_first - 1) | msb_first).tolist()
    # row 0 is point 0's step from the shift; row j + 1 is direction j
    table, quasi, drawn = [[0] * d], quasi.tolist(), 0

    def draw(n: int) -> np.ndarray:
        nonlocal quasi, drawn
        if n < 0 or drawn + n > 1 << bits:
            raise ValueError(f"cannot draw {n} more Sobol points after {drawn}: at most 2**{bits} in all")
        for j in range(len(table) - 1, (drawn + n - 1).bit_length()):
            # zip stops at the d columns
            table.append([reduce(xor, map(c.__getitem__, b[j]), 0) for c, b in zip(columns, set_bits)])
        pts = []
        for k in range(drawn, drawn + n):
            # point k > 0 flips the direction of k's lowest set bit
            quasi = list(map(xor, quasi, table[(k & -k).bit_length()]))
            pts.append(quasi)
        drawn += n
        return np.array(pts, dtype=float).reshape(n, d) * 2.0**-bits

    return draw
