"""Randomized concavity verdicts.

The checkers sample pairs plus mixing weights from a seeded Philox stream
and compare the value at the combined point against the power mean of the
endpoint values.  Both draw their pairs by one rule: a tenth are close
pairs, the second point a random step of 1e-4 times the domain's diameter
from the first, in x for the spatial checks and in (x, t) for the space-time
ones.  Strict modes demand a genuine margin away from the diagonal; the
almost-strict space-time mode tolerates equality exactly on the rays
x/t^alpha = const, which is where kernels like the heat kernel are flat.
The space-time checker puts another tenth of its partners exactly on those
rays.
"""

import math

import numpy as np

from concavekit import (
    CheckConfig,
    GaussWeierstrassKernel,
    GaussWeierstrassSlice,
    IndicatorField,
    PoissonKernel,
    PoissonSlice,
    SpaceTimeBox,
    check_p_concavity,
    check_parabolic_p_concavity,
    check_quasi_concavity_superlevel,
    classify_equality,
    radialize,
    RadialProfile,
)
from concavekit.geometry import Box, Interval

print("spatial checks:")
cfg = CheckConfig(samples=3000, seed=11, domain=Box([-2, -2], [2, 2]))
g = GaussWeierstrassSlice(2, 1.0)
print("  gaussian slice, p=0 strict:", check_p_concavity(g, 0.0, cfg, strict=True).verdict)

ind = IndicatorField(Box([0, 0], [1, 1]))
cfg_ind = CheckConfig(samples=3000, seed=12, domain=Box([-0.2, -0.2], [1.2, 1.2]))
print("  indicator, p=inf plain:", check_p_concavity(ind, math.inf, cfg_ind).verdict)
print(
    "  indicator, p=inf strict:",
    check_p_concavity(ind, math.inf, cfg_ind, strict=True).verdict,
    "(constant on its support)",
)

prof = RadialProfile(lambda r: np.exp(-r), strictly_decreasing=True)
cfg_r = CheckConfig(samples=3000, seed=13, domain=Box([-2, -2], [2, 2]))
print(
    "  strictly decreasing radial profile, super-level sets:",
    check_quasi_concavity_superlevel(radialize(prof, 2), cfg_r).verdict,
)

print("\nspace-time checks over x in [-2,2], t in [0.5,4]:")
stb = SpaceTimeBox(Interval(-2, 2), 0.5, 4.0)
cfg_st = CheckConfig(samples=4000, seed=14, domain=stb)
gw = GaussWeierstrassKernel(1)
rep = check_parabolic_p_concavity(gw, 0.5, -1.0, cfg_st, mode="almost_strict")
print("  heat kernel, alpha=1/2, p=-1, almost-strict:", rep.verdict)
pk = PoissonKernel(1)
rep = check_parabolic_p_concavity(pk, 1.0, -1.0, cfg_st, mode="almost_strict")
print("  Poisson kernel, alpha=1, p=-1, almost-strict:", rep.verdict)

print("\nwhy only almost-strict: equality on a ray of the heat kernel")
c = classify_equality(gw, 0.5, -1.0, [1.0], 1.0, [2.0], 4.0, 0.5, eps_eq=1e-12)
print(f"  pair (1,1) vs (2,4): {c.labels}, both sides = {c.lhs:.12f}")
c = classify_equality(gw, 0.5, -1.0, [1.0], 1.0, [2.1], 4.0, 0.5, eps_eq=1e-12)
print(f"  nudging x1 to 2.1: {c.labels}, margin = {c.margin:.3e}")

print("\nPoisson slices are strictly -1/(n+1)-concave in space (n=1 -> -1/2):")
cfg_s = CheckConfig(samples=3000, seed=15, domain=Interval(-3, 3))
print("  ", check_p_concavity(PoissonSlice(1, 1.0), -0.5, cfg_s, strict=True).verdict)
