"""Extended-real exponents and two-point power means.

Exponents live in R extended by +/-inf and are represented as IEEE floats
(``math.inf`` and ``-math.inf`` are genuine tags of the float format, never
encoded as large finite values).  The two-point mean ``mean_p`` follows the
five-case convention: it is 0 whenever either operand is 0, the max/min for
p = +/-inf, the geometric mean for p = 0, and the usual power mean otherwise.

Finite nonzero exponents are evaluated in the log domain using 80-bit
extended precision internally, so that order relations between means
(monotonicity in p, the Holder product inequality) hold to within a few
double-precision ulps even for extreme exponents.

A single exponent's class (+/-inf, geometric, general) is decided once per
call, and its formula runs on all operands at once; an array of exponents
runs the same formulas on the elements of each class.  Each operand is
validated by one min/max pass; the detailed checks run only to choose the
error message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INF",
    "NEG_INF",
    "as_exponent",
    "exponent_str",
    "mean_p",
    "holder_exponent",
    "bbl_exponent",
    "product_inequality_margin",
    "check_product_inequality",
    "ProductCheck",
]

INF = math.inf
NEG_INF = -math.inf

# below this magnitude a finite exponent is evaluated as the geometric mean
_P_GEOMETRIC = 1e-12


def as_exponent(value) -> float:
    """Parse an extended-real exponent from a number or "inf"/"-inf" string."""
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity", "+infinity"):
            return INF
        if s in ("-inf", "-infinity"):
            return NEG_INF
        value = float(s)
    if isinstance(value, bool):
        raise ValueError(f"an exponent is a number or 'inf'/'-inf', not {value!r}")
    try:
        p = float(value)
    except OverflowError:  # an integer beyond the float range, read as 1e999 is
        p = INF if value > 0 else NEG_INF
    if math.isnan(p):
        raise ValueError("exponent must not be NaN")
    return p


def exponent_str(p: float) -> str:
    """Serialize an extended-real exponent ("inf"/"-inf" for the infinite tags)."""
    if math.isinf(p):
        return "inf" if p > 0 else "-inf"
    return repr(float(p))


def _range(v):
    """(min, max) of an array, NaN if it holds a NaN; (0, 0) if it is empty."""
    if v.ndim == 0:
        return float(v), float(v)
    return (v.min(), v.max()) if v.size else (0.0, 0.0)


def _validate_query(a, b, lam):
    # one min/max pass per array, which NaN fails; the tests below only
    # choose the message
    (a0, a1), (b0, b1), (l0, l1) = _range(a), _range(b), _range(lam)
    if a0 >= 0 and b0 >= 0 and a1 < INF and b1 < INF and l0 >= 0 and l1 <= 1:
        return
    if np.isnan(a).any() or np.isnan(b).any() or (a < 0).any() or (b < 0).any():
        raise ValueError("mean operands must be nonnegative reals")
    if np.isinf(a).any() or np.isinf(b).any():
        raise ValueError("mean operands must be finite")
    raise ValueError("lambda must lie in [0, 1]")


def _max(p, a, b, lam):
    return np.maximum(a, b)


def _min(p, a, b, lam):
    return np.minimum(a, b)


def _geometric(p, a, b, lam):
    return np.exp((1 - lam) * np.log(a) + lam * np.log(b))


def _part(x, m):
    """x on the elements m, or x itself if it is one exponent for all."""
    return x[m] if np.ndim(x) else x


def _general(p, a, b, lam):
    la = np.log(a)
    lb = np.log(b)
    diff = la - lb
    u = p * lam * diff
    v = -p * (1 - lam) * diff
    small = np.maximum(np.abs(u), np.abs(v)) <= 30.0
    if small.all():
        return _centred(p, la, lb, lam, u, v)
    big = ~small
    if big.all():
        return _anchored(p, la, lb, lam)
    r = np.empty(la.shape, dtype=np.longdouble)
    r[small] = _centred(_part(p, small), la[small], lb[small], lam[small], u[small], v[small])
    r[big] = _anchored(_part(p, big), la[big], lb[big], lam[big])
    return r


def _centred(p, la, lb, lam, u, v):
    # center on the geometric mean: log M = mu + log1p(w)/p with
    # w = (1-lam) expm1(u) + lam expm1(v), u + weighted v = 0, so the
    # small-p cancellation happens inside expm1 at full precision
    mu = (1 - lam) * la + lam * lb
    w = (1 - lam) * np.expm1(u) + lam * np.expm1(v)
    return np.exp(mu + np.log1p(w) / p)


def _anchored(p, la, lb, lam):
    # wide-exponent fallback: max-anchored weighted log-sum-exp
    with np.errstate(divide="ignore"):
        t0 = np.log1p(-lam) + p * la
        t1 = np.log(lam) + p * lb
    hi = np.maximum(t0, t1)
    s = np.exp(t0 - hi) + np.exp(t1 - hi)
    return np.exp((hi + np.log(s)) / p)


def _formula(p: float):
    """The formula of one exponent's class."""
    if math.isinf(p):
        return _max if p > 0 else _min
    return _geometric if abs(p) < _P_GEOMETRIC else _general


def _mean_ld(p, a, b, lam):
    """Power mean on validated longdouble operands of one shape.

    ``p`` is a float, whose class then holds for every element, or a
    longdouble array of the operands' shape.  The mean is 0 where an operand
    is; the formulas see only the other elements.
    """
    pos = np.minimum(a, b) > 0
    if np.ndim(p) == 0:
        formula = _formula(float(p))
        if pos.all():
            return formula(p, a, b, lam)
        parts = [(pos, formula)]
    else:
        geo = np.abs(p) < _P_GEOMETRIC
        parts = [
            (pos & np.isposinf(p), _max),
            (pos & np.isneginf(p), _min),
            (pos & geo, _geometric),
            (pos & np.isfinite(p) & ~geo, _general),
        ]
    out = np.zeros(a.shape, dtype=np.longdouble)
    for m, formula in parts:
        if m.any():
            out[m] = formula(_part(p, m), a[m], b[m], lam[m])
    return out


def _ld(v, shape):
    """v broadcast to shape, as a new longdouble array."""
    out = np.empty(shape, dtype=np.longdouble)
    out[...] = v
    return out


def mean_p(p, a, b, lam):
    """Two-point power mean M_p(a, b; lam).

    Parameters
    ----------
    p : float, str or array_like
        Extended-real exponent(s); ``math.inf`` / ``-math.inf`` (or the
        strings "inf"/"-inf") select the max/min cases.
    a, b : float or array_like
        Nonnegative operands.  The mean is 0 wherever ``a * b == 0``.
    lam : float or array_like
        Weight in [0, 1] attached to ``b``.

    Returns
    -------
    float or ndarray
        M_p value(s); scalar when every input is scalar.
    """
    scalar = all(np.isscalar(v) or isinstance(v, str) for v in (p, a, b, lam))
    if isinstance(p, str):
        p = as_exponent(p)
    p, a, b, lam = (np.asarray(v, dtype=float) for v in (p, a, b, lam))
    if np.isnan(p).any():
        raise ValueError("exponent must not be NaN")
    _validate_query(a, b, lam)
    # at least 1-d, as if every input were
    shape = np.broadcast(p, a, b, lam).shape or (1,)
    # one exponent is passed as a float, so its class is decided once
    p = float(p) if p.ndim == 0 else _ld(p, shape)
    out = _mean_ld(p, _ld(a, shape), _ld(b, shape), _ld(lam, shape)).astype(float)
    return float(out[0]) if scalar else out


def _holder_exponent_arr(p, q):
    """Vectorized combined exponent for the product inequality."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p, q = np.broadcast_arrays(p, q)
    if np.isnan(p).any() or np.isnan(q).any():
        raise ValueError("exponent must not be NaN")
    p_inf, q_inf = np.isposinf(p), np.isposinf(q)
    p_ninf, q_ninf = np.isneginf(p), np.isneginf(q)
    with np.errstate(invalid="ignore"):
        psum = p + q
    # opposite infinities add to 0 by convention
    psum = np.where((p_inf & q_ninf) | (p_ninf & q_inf), 0.0, psum)
    if (psum < 0).any():
        raise ValueError("holder_exponent requires p + q >= 0")
    ell = np.full(p.shape, np.nan)
    zero_pair = (p == 0) & (q == 0)
    ell[zero_pair] = 0.0
    sum_zero = (psum == 0) & ~zero_pair
    ell[sum_zero] = NEG_INF
    both_inf = p_inf & q_inf
    ell[both_inf] = INF
    m = p_inf & np.isfinite(q) & ~sum_zero
    ell[m] = q[m]
    m = q_inf & np.isfinite(p) & ~sum_zero
    ell[m] = p[m]
    fin = np.isfinite(p) & np.isfinite(q) & (psum > 0)
    with np.errstate(invalid="ignore"):
        ell[fin] = p[fin] * q[fin] / psum[fin]
    return ell


def holder_exponent(p, q) -> float:
    """Exponent ell with M_p(a,b;lam) * M_q(c,d;lam) >= M_ell(ac,bd;lam).

    Follows the convention +inf + (-inf) = 0: the result is ell = pq/(p+q)
    when p+q != 0, -inf when p+q = 0 with (p,q) != (0,0), and 0 at (0,0).
    A single infinite operand resolves by the limit of pq/(p+q): ell(p,+inf)
    is p for finite p != 0, ell(0,+inf) = 0, ell(+inf,+inf) = +inf.  The
    limit-based extension is a documented choice; only the three displayed
    cases are forced by the inequality itself.

    Raises
    ------
    ValueError
        If p + q < 0 under the convention.
    """
    p = as_exponent(p)
    q = as_exponent(q)
    return float(_holder_exponent_arr(p, q)[0])


def bbl_exponent(ell, n: int) -> float:
    """Marginal-integral exponent ell/(1 + n*ell) from the BBL inequality.

    The boundary conventions are: -inf at ell = -1/n, and 1/n at ell = +inf.
    Values of ell within 4 ulp below -1/n are treated as the boundary case
    (they arise from rounding in ``holder_exponent``); anything lower is a
    domain error.
    """
    ell = as_exponent(ell)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("dimension n must be a positive integer")
    lo = -1.0 / n
    band = 4 * np.finfo(float).eps * abs(lo)
    if ell < lo - band:
        raise ValueError(f"bbl_exponent requires ell >= -1/n = {lo}")
    if ell <= lo:
        return NEG_INF
    if math.isinf(ell):
        return 1.0 / n
    den = 1.0 + n * ell
    if den <= 0:
        return NEG_INF
    return ell / den


def product_inequality_margin(p, q, a, b, c, d, lam, with_parts: bool = False):
    """Margin M_p(a,b;lam)*M_q(c,d;lam) - M_ell(ac,bd;lam), vectorized.

    Nonnegative up to a few ulps for every valid input with p + q >= 0.
    Computed in extended precision and rounded once at the end.  With
    ``with_parts`` the return value is (margin, lhs, rhs).
    """
    scalar = all(np.isscalar(v) for v in (p, q, a, b, c, d, lam))
    arrs = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (p, q, a, b, c, d, lam)]
    p, q, a, b, c, d, lam = np.broadcast_arrays(*arrs)
    _validate_query(a, b, lam)
    _validate_query(c, d, lam)
    ell = _holder_exponent_arr(p, q)
    shape = p.shape
    ld = [v.reshape(-1).astype(np.longdouble) for v in (p, q, ell, a, b, c, d, lam)]
    pf, qf, ellf, af, bf, cf, df, lf = ld
    lhs = _mean_ld(pf, af, bf, lf) * _mean_ld(qf, cf, df, lf)
    rhs = _mean_ld(ellf, af * cf, bf * df, lf)
    margin = (lhs - rhs).astype(float).reshape(shape)
    if scalar:
        return (
            (float(margin[0]), float(lhs[0]), float(rhs[0]))
            if with_parts
            else float(margin[0])
        )
    if with_parts:
        return margin, lhs.astype(float).reshape(shape), rhs.astype(float).reshape(shape)
    return margin


@dataclass(frozen=True)
class ProductCheck:
    """Scalar product-inequality report."""

    margin: float
    lhs: float
    rhs: float
    ell: float

    @property
    def ok(self) -> bool:
        scale = max(self.lhs, self.rhs, 1.0)
        return self.margin >= -4 * np.finfo(float).eps * scale


def check_product_inequality(p, q, a, b, c, d, lam) -> ProductCheck:
    """Evaluate the Holder product inequality at one query point."""
    p = as_exponent(p)
    q = as_exponent(q)
    margin, lhs, rhs = product_inequality_margin(p, q, a, b, c, d, lam, with_parts=True)
    return ProductCheck(margin=margin, lhs=lhs, rhs=rhs, ell=holder_exponent(p, q))
