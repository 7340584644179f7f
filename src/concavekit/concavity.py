"""Randomized, seed-deterministic checkers for power-concavity notions.

Each checker samples point pairs and mixing weights from a Philox stream,
evaluates the defining inequality

    value(combined point)  >=  M_p(value0, value1; lam),

and reports the worst normalized margin together with a witness.  A checker
can only falsify or accumulate evidence; a "pass" is a statement about the
sampled pairs, never a proof.  Quasi-concavity (convex super-level sets) is
the p = -inf case, M_-inf = min, and goes through the same verdict path.

Tolerances are fixed and relative to the local value scale: a margin below
``-_TOL`` (1e-9) times that scale is a violation, and strictness demands a
margin above ``_EPS_STRICT`` (1e-7) times it whenever the endpoints are
separated.  Since the attainable margin of a strictly concave function
shrinks linearly in lam (1 - lam) toward the endpoints, the strictness
floor is modulated by 4 lam (1 - lam) so that mixing weights near 0 or 1 do
not produce false alarms.  Samples where either value is 0 satisfy the
inequality trivially and are excluded from strictness statistics.

Both checkers draw a pair as two rows z0, z1 of the domain: x for a body,
(x, t) in space-time.  For the first tenth of the pairs z1 is a Gaussian
step of 1e-4 times the domain's diameter from z0, so close pairs probe every
direction, the equality rays x / f(t) = const included.  The space-time
checker also moves its last tenth of partners onto z0's ray.  Rays take
f = t^alpha (log t at alpha = 0) from :func:`concavekit.geometry.time_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody, ParabolicRegion, Record, SpaceTimeBox, row_norm, time_factor
from .means import mean_p
from .sampling import SamplingError, make_rng

__all__ = [
    "PASS",
    "VIOLATION",
    "EQUALITY_OFF_SPEC",
    "ConcavityReport",
    "CheckConfig",
    "check_p_concavity",
    "check_quasi_concavity_superlevel",
    "check_parabolic_p_concavity",
    "EqualityClassification",
    "classify_equality",
]

PASS = "pass"
VIOLATION = "violation"
EQUALITY_OFF_SPEC = "equality_off_spec"

_TOL = 1e-9  # violation slack, relative to the value scale
_EPS_STRICT = 1e-7  # strictness floor at full separation and lam = 1/2, relative
_RAY_TOL = 1e-9  # classify_equality's ray residual, relative to the ray scale
_SEP_FRAC = 1e-3  # closer pairs, relative to the domain or ray scale, skip strictness
_DIAG_FRAC = 0.1  # share of pairs forced near the diagonal
_RAY_FRAC = 0.1  # share of space-time pairs forced onto rays


@dataclass
class ConcavityReport(Record):
    """Outcome of a randomized concavity check."""

    verdict: str
    worst_margin: float
    witness: dict | None
    samples: int
    tolerance: float
    seed: int
    mode: str = "plain"
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


@dataclass
class CheckConfig:
    """Sampling plan for the concavity checkers.

    ``domain`` is a :class:`ConvexBody` for spatial checks, or a
    :class:`SpaceTimeBox` / :class:`ParabolicRegion` for space-time checks.
    ``samples`` pairs are drawn from it by ``seed``'s stream, a tenth of them
    near-diagonal (a random step of 1e-4 diameters in x, or in (x, t)).  The
    tolerances are module constants: the plain-inequality slack is
    ``_TOL`` (1e-9) times the local value scale, and strictness requires
    margins above ``_EPS_STRICT`` (1e-7) times it (at lam = 1/2).
    """

    samples: int = 2000
    seed: int = 0
    domain: object = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be positive")


def _report(cfg, p, lam, mode, sep_rel, pairs, evals) -> ConcavityReport:
    """Fold sampled pairs into a verdict, its worst margin and a witness.

    ``pairs`` maps witness names to the sampled endpoint arrays, in witness
    order; ``evals`` maps the names of the two endpoint values and of the
    combined value to their (values, error bounds).  ``sep_rel`` is each
    pair's separation relative to the domain.

    The strictness floor of a C^2 strictly concave function vanishes like
    lam (1 - lam) times the squared separation, so the required margin is
    _EPS_STRICT * scale at the reference point (full separation, lam = 1/2)
    and scales down with 4 lam (1 - lam) * sep_rel^2 elsewhere; a flat floor
    would flag genuinely strict fields just past the separation gate.

    Separated pairs whose endpoint values and combined value all vanish
    realize the inequality as an equality at distinct points, so they fail
    strictness even though the margin statistics exclude zero-valued means.
    """
    (f0, e0), (f1, e1), (fl, el) = (
        (np.asarray(v), np.asarray(e)) for v, e in evals.values()
    )
    noise = e0 + e1 + el
    rhs = mean_p(p, f0, f1, lam)
    margin = fl - rhs
    scale = np.maximum(fl, rhs)
    trivial = scale == 0
    positive = (f0 > 0) & (f1 > 0)
    strict = mode != "plain"
    if strict and not positive.any():
        raise SamplingError(
            "strictness demands positive values, but no sampled pair had them"
        )

    rel = np.where(trivial, 0.0, margin / np.where(trivial, 1.0, scale))
    viol = margin < -(_TOL * scale + 3.0 * noise)
    strict_fail = np.zeros_like(viol)
    if strict:
        mult = 4.0 * lam * (1.0 - lam) * np.clip(sep_rel, _SEP_FRAC, 1.0) ** 2
        floor = _EPS_STRICT * mult
        thin = positive & ~trivial & (margin <= floor * scale + 3.0 * noise)
        zero_eq = (f0 == 0) & (f1 == 0) & (fl == 0)
        strict_fail = (sep_rel >= _SEP_FRAC) & (thin | zero_eq)

    if viol.any():
        verdict, i = VIOLATION, int(np.argmax(viol))
    elif strict_fail.any():
        verdict, i = EQUALITY_OFF_SPEC, int(np.argmin(np.where(strict_fail, rel, np.inf)))
    elif trivial.all():
        verdict, i = PASS, None
    else:
        verdict, i = PASS, int(np.argmin(np.where(trivial, np.inf, rel)))

    witness = None
    if i is not None:
        witness = {k: a[i].tolist() for k, a in pairs.items()}
        witness["lambda"] = float(lam[i])
        witness.update({k: float(v[i]) for k, v in zip(evals, (f0, f1, fl))})
        witness["rhs"] = float(rhs[i])
    return ConcavityReport(
        verdict=verdict,
        worst_margin=0.0 if i is None else float(rel[i]),
        witness=witness,
        samples=cfg.samples,
        tolerance=_TOL,
        seed=cfg.seed,
        mode=mode,
    )


def _sample_pairs(domain, cfg: CheckConfig, sample, inside):
    """(z0, z1, lam): ``cfg.samples`` pairs of rows drawn by ``sample(rng, k)``,
    the first tenth's z1 moved to z0 plus 1e-4 diameters times a standard
    normal vector where ``inside`` holds that row."""
    rng = make_rng(cfg.seed)
    n = cfg.samples
    z0 = sample(rng, n)
    z1 = sample(rng, n)
    k = int(_DIAG_FRAC * n)
    if k:
        cand = z0[:k] + 1e-4 * domain.diameter() * rng.normal(size=(k, z0.shape[1]))
        ok = inside(cand)
        z1[:k][ok] = cand[ok]
    return z0, z1, rng.uniform(0.0, 1.0, size=n)


def check_p_concavity(
    f, p, cfg: CheckConfig, strict: bool = False
) -> ConcavityReport:
    """Sampled check that f is (strictly) p-concave on the configured body.

    Evaluates f(x_lam) - M_p(f(x0), f(x1); lam) on random pairs.  A margin
    below -_TOL (relative) is a violation.  With ``strict`` the margin must
    also clear the strictness floor whenever |x0 - x1| exceeds
    ``_SEP_FRAC * diameter`` and both endpoint values are positive; a
    too-small margin there yields the ``equality_off_spec`` verdict.
    """
    body = cfg.domain if cfg.domain is not None else f.support
    if not isinstance(body, ConvexBody):
        raise ValueError("this check needs a ConvexBody domain in the config")
    x0, x1, lam = _sample_pairs(body, cfg, body.sample, body.contains_many)
    xl = (1 - lam)[:, None] * x0 + lam[:, None] * x1
    sep_rel = row_norm(x0 - x1) / body.diameter()
    return _report(
        cfg, p, lam, "strict" if strict else "plain", sep_rel,
        {"x0": x0, "x1": x1},
        {"f0": f.eval_with_error(x0), "f1": f.eval_with_error(x1),
         "f_comb": f.eval_with_error(xl)},
    )


def check_quasi_concavity_superlevel(f, cfg: CheckConfig) -> ConcavityReport:
    """Sampled quasi-concavity check: every super-level set of f is convex.

    That is f(x_lam) >= min(f(x0), f(x1)), the p = -inf case of
    :func:`check_p_concavity`, whose pairs, verdict and report it returns.
    """
    return check_p_concavity(f, -np.inf, cfg)


def _force_rays(z0, z1, alpha, inside):
    """Move the partners of the last tenth of the pairs exactly onto z0's ray:
    x1 = x0 f(t1) / f(t0), where ``inside`` holds the moved rows."""
    n = len(z0)
    k = int(_RAY_FRAC * n)
    if k == 0:
        return
    z0, z1 = z0[n - k :], z1[n - k :]
    cand = z1.copy()
    scale = time_factor(z1[:, -1], alpha) / time_factor(z0[:, -1], alpha)
    cand[:, :-1] = z0[:, :-1] * scale[:, None]
    ok = inside(cand)
    z1[ok] = cand[ok]


def check_parabolic_p_concavity(
    phi, alpha: float, p, cfg: CheckConfig, mode: str = "plain"
) -> ConcavityReport:
    """Sampled alpha-parabolic p-concavity check on a space-time domain.

    The combined point is (x_lam, M_alpha(t0, t1; lam)).  ``mode``:

    - ``plain``: inequality only.
    - ``strict``: positive margin for every separated pair.
    - ``almost_strict``: positive margin only off the rays x / f(t) = const,
      f = :func:`~concavekit.geometry.time_factor`; equality is tolerated on
      rays.

    Evaluation noise (for quadrature-backed fields) enters the thresholds as
    three times the summed error bounds of the three evaluations, so
    strictness is never certified inside the noise floor.
    """
    if mode not in ("plain", "strict", "almost_strict"):
        raise ValueError(f"unknown mode: {mode!r}")
    domain = cfg.domain
    if not isinstance(domain, (SpaceTimeBox, ParabolicRegion)):
        raise ValueError("space-time checks need a SpaceTimeBox or ParabolicRegion domain")
    if mode == "almost_strict" and alpha == 0.0 and domain.t_lo <= 1.0:
        raise ValueError("almost-strict alpha = 0 checks need times > 1")

    def inside(Z):
        return domain.contains_many(Z[:, :-1], Z[:, -1])

    z0, z1, lam = _sample_pairs(
        domain, cfg, lambda rng, k: np.column_stack(domain.sample(rng, k)), inside
    )
    if alpha != 0.0 or domain.t_lo > 1.0:
        # probe the equality set directly; random pairs almost never land
        # on a ray, so without this a strict check of an almost-strict
        # field would pass or fail by sampling luck
        _force_rays(z0, z1, alpha, inside)
    X0, T0 = z0[:, :-1], z0[:, -1]
    X1, T1 = z1[:, :-1], z1[:, -1]

    t_comb = mean_p(alpha, T0, T1, lam)
    x_comb = (1 - lam)[:, None] * X0 + lam[:, None] * X1
    if mode == "almost_strict":
        # equality lives on rays, and the margin vanishes with the squared
        # distance from the ray set, so the residual replaces the spatial
        # separation in both the gate and the floor modulation
        r0 = X0 / time_factor(T0, alpha)[:, None]
        r1 = X1 / time_factor(T1, alpha)[:, None]
        ray_scale = 1.0 + np.maximum(row_norm(r0), row_norm(r1))
        sep_rel = row_norm(r0 - r1) / ray_scale
    else:
        sep_rel = row_norm(z0 - z1) / domain.diameter()
    return _report(
        cfg, p, lam, mode, sep_rel,
        {"x0": X0, "t0": T0, "x1": X1, "t1": T1},
        {"phi0": phi.eval_with_error(X0, T0), "phi1": phi.eval_with_error(X1, T1),
         "phi_comb": phi.eval_with_error(x_comb, t_comb)},
    )


@dataclass(frozen=True)
class EqualityClassification:
    """Ray/equality diagnosis of one parabolic combination."""

    ray: str  # "on_ray" | "off_ray"
    equality: str  # "equal" | "strict"
    lhs: float
    rhs: float
    margin: float
    ray_residual: float

    @property
    def labels(self):
        return (self.ray, self.equality)


def classify_equality(
    phi,
    alpha: float,
    p,
    x0,
    t0,
    x1,
    t1,
    lam: float,
    eps_eq: float = 1e-9,
) -> EqualityClassification:
    """Diagnose one pair: is it ray-aligned, and is the inequality an equality?

    The ray condition is x0 / f(t0) = x1 / f(t1), with f from
    :func:`~concavekit.geometry.time_factor` (which refuses times <= 1 at
    alpha = 0).  Equality means the two sides agree to
    ``eps_eq`` relative.  At lam in {0, 1} the two sides coincide for finite
    p by the endpoint identity.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    r0 = x0 / time_factor(t0, alpha)
    r1 = x1 / time_factor(t1, alpha)
    residual = float(np.linalg.norm(r0 - r1))
    on_ray = residual <= _RAY_TOL * (
        1.0 + max(np.linalg.norm(r0), np.linalg.norm(r1))
    )

    t_comb = mean_p(alpha, t0, t1, lam)
    x_comb = (1 - lam) * x0 + lam * x1
    lhs = phi(x_comb, float(t_comb))
    rhs = mean_p(p, phi(x0, t0), phi(x1, t1), lam)
    margin = lhs - rhs
    equal = abs(margin) <= eps_eq * max(lhs, rhs, 1e-300)
    return EqualityClassification(
        ray="on_ray" if on_ray else "off_ray",
        equality="equal" if equal else "strict",
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        ray_residual=residual,
    )
