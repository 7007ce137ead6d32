"""Closed-form limiting laws: CDFs and the standard normal quantile.

The laws that appear as limits in this problem family:

=========  =========================================================
tag        CDF
=========  =========================================================
n01        Phi(x)                                      (standard normal)
n02        Phi(x / sqrt(2))                            (variance-2 normal)
expnorm    Phi(log x) for x > 0, else 0                (law of e^Z)
expsqrt2   Phi(log x / sqrt(2)) for x > 0, else 0      (law of e^(sqrt(2) Z))
point      step at mu                                  (point mass)
=========  =========================================================

Phi is implemented here via the complementary error function using
W. J. Cody's rational Chebyshev approximations (Math. Comp. 23, 1969;
the coefficients below are the published ones from the netlib CALERF
routine), giving relative error around 1e-16 without any dependency on
platform special functions.  The quantile inverts this one CDF by
bisection followed by a secant polish, so there is a single source of
truth for normal probabilities.

:func:`normal_cdf` and :func:`limit_cdf` take a float, which picks its branch
of the rational forms with ``if``, or an array, which picks them with masks
and runs the same arithmetic in the same order.  The array form maps
``math.exp`` and ``math.log`` over its elements, as numpy's SIMD exp and log
can differ from libm in the last bits, so the two forms agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LAW_TAGS",
    "LimitLaw",
    "normal_cdf",
    "normal_quantile",
    "limit_cdf",
]

LAW_TAGS = ("n01", "n02", "expnorm", "expsqrt2", "point")

_SQRT2 = math.sqrt(2.0)

# Cody 1969 rational coefficients, |x| <= 0.46875: erf(x) = x * P(x^2)/Q(x^2)
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
# 0.46875 <= x <= 4: erfc(x) = exp(-x^2) * P(x)/Q(x)
_ERFC_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERFC_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
# x > 4: erfc(x) = exp(-x^2)/x * (1/sqrt(pi) - R(1/x^2)/x^2)
_ERFC_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERFC_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _mapped(f):
    """``f`` from :mod:`math` applied to each element of a 1-D array."""
    return lambda a: np.fromiter(map(f, a.tolist()), float, a.size)


def _exp_neg_sq(y, exp):
    # exp(-y^2) with the argument split to avoid losing low bits of y^2
    ysq = y * 16.0 // 1.0 / 16.0
    return exp(-ysq * ysq) * exp(-(y - ysq) * (y + ysq))


# Cody's three rational forms, each plain arithmetic on a float or an array
def _erfc_small(x):  # |x| <= 0.46875: 1 - erf(x)
    z = x * x
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return 1.0 - x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid(y, exp):  # 0.46875 < y <= 4: erfc(y)
    num = _ERFC_C[8] * y
    den = y
    for i in range(7):
        num = (num + _ERFC_C[i]) * y
        den = (den + _ERFC_D[i]) * y
    return _exp_neg_sq(y, exp) * (num + _ERFC_C[7]) / (den + _ERFC_D[7])


def _erfc_tail(y, exp):  # 4 < y < 26.7: erfc(y); beyond, it underflows to 0
    z = 1.0 / (y * y)
    num = _ERFC_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERFC_P[i]) * z
        den = (den + _ERFC_Q[i]) * z
    r = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
    return _exp_neg_sq(y, exp) * (_INV_SQRT_PI - r) / y


def _erfc(x: float) -> float:
    y = abs(x)
    if y <= 0.46875:
        return _erfc_small(x)
    r = _erfc_mid(y, math.exp) if y <= 4.0 else _erfc_tail(y, math.exp) if y < 26.7 else 0.0
    return 2.0 - r if x < 0.0 else r


def _erfc_array(x: np.ndarray) -> np.ndarray:
    """:func:`_erfc` of each element, the branches picked by masks."""
    y = np.abs(x)
    r = np.where(np.isnan(x), math.nan, 0.0)
    mid = (y > 0.46875) & (y <= 4.0)
    tail = (y > 4.0) & (y < 26.7)
    exp = _mapped(math.exp)
    r[mid] = _erfc_mid(y[mid], exp)
    r[tail] = _erfc_tail(y[tail], exp)
    np.subtract(2.0, r, out=r, where=x < 0.0)
    small = y <= 0.46875
    r[small] = _erfc_small(x[small])
    return r


def normal_cdf(x: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF Phi(x) of a float or each element of an array,
    accurate to well under 1e-12."""
    if isinstance(x, np.ndarray):
        z = -np.asarray(x, dtype=float).reshape(-1) / _SQRT2
        return (0.5 * _erfc_array(z)).reshape(x.shape)
    if math.isnan(x):
        return math.nan
    return 0.5 * _erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1).

    Bisection narrows a bracket around the root, then a few secant steps
    polish it; the residual |normal_cdf(q) - p| ends up at the rounding
    floor, far below 1e-10.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    lo, hi = -8.0, 8.0
    while normal_cdf(lo) > p:
        lo *= 2.0
    while normal_cdf(hi) < p:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    # secant polish inside the bracket
    x0, x1 = lo, hi
    f0, f1 = normal_cdf(x0) - p, normal_cdf(x1) - p
    for _ in range(4):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo <= x2 <= hi:
            break
        x0, f0, x1 = x1, f1, x2
        f1 = normal_cdf(x1) - p
    return x1 if abs(f1) <= abs(f0) else x0


@dataclass(frozen=True)
class LimitLaw:
    """One of the closed-form limit laws, identified by CLI tag.

    ``mu`` locates the point mass; the other laws drop it.
    """

    tag: str
    mu: float = math.nan

    def __post_init__(self):
        if self.tag not in LAW_TAGS:
            raise ValueError(
                f"unknown law tag {self.tag!r}; expected one of {', '.join(LAW_TAGS)}"
            )
        if self.tag != "point":
            object.__setattr__(self, "mu", math.nan)
        elif not math.isfinite(self.mu):
            raise ValueError("point-mass law needs a finite location mu")

    def cdf(self, x: float) -> float:
        return limit_cdf(self, x)


def limit_cdf(law: LimitLaw, x: float | np.ndarray) -> float | np.ndarray:
    """CDF of a limit law at a float x, or at each element of an array x.
    NaN gives NaN under every law."""
    if law.tag in ("n01", "n02"):
        return normal_cdf(x if law.tag == "n01" else x / _SQRT2)
    scale = 1.0 if law.tag == "expnorm" else _SQRT2
    if isinstance(x, np.ndarray):
        if law.tag == "point":
            return np.where(x >= law.mu, 1.0, np.where(x < law.mu, 0.0, math.nan))
        f = np.zeros(x.shape)
        up = ~(x <= 0.0)  # NaN included
        f[up] = normal_cdf(_mapped(math.log)(x[up]) / scale)
        return f
    if law.tag == "point":
        return 1.0 if x >= law.mu else 0.0 if x < law.mu else math.nan
    return 0.0 if x <= 0.0 else normal_cdf(math.log(x) / scale)
