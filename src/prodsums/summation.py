"""Accurate floating-point summation at numpy speed.

:func:`row_sums` sums every row of a 2-D array to within about one
rounding of its exact total, whatever the order of the terms, in a few
whole-array numpy passes.  numpy's pairwise ``sum`` alone errs by
O(eps * log n * sum |x|) (Higham, SIAM J. Sci. Comput. 1993): small, but
it depends on the order of the terms, so permuting a path would move a
statistic in its last digits.

Running sums that must be updated one value at a time use
:class:`NeumaierSum`, Neumaier's variant of Kahan summation, whose error
after any number of updates stays O(eps) relative to the exact sum
instead of growing linearly with the number of terms.
:func:`exact_running_sums`, the one running-sum form, gives every
prefix total of a block of values at numpy speed, each within about one
rounding, continuing a :class:`NeumaierSum` from one block to the next.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NeumaierSum", "row_sums", "exact_running_sums"]


def row_sums(t: np.ndarray, top: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Sums of the rows of a 2-D array, each within about one rounding.

    Each term splits exactly into a high part on a grid coarse enough
    that the high parts of a row sum without error in any order, and a
    low part below the grid's spacing (the first step of Rump, Ogita &
    Oishi's AccSum, SIAM J. Sci. Comput. 2008).  The error is one
    rounding of the total plus that of the low parts' pairwise sum,
    about log(n) * n^2 * eps^2 * max|t|, so the result depends on the
    order of the terms only when that tiny error straddles a rounding
    boundary.

    A caller that already has each row's largest ``|t|`` passes it as
    ``top``; ``out``, an array of t's shape and order, takes the
    temporaries in place of new arrays.
    """
    if top is None:
        top = np.abs(t, out=out).max(axis=1)
    high = _high_parts(t, np.frexp(top)[1][:, np.newaxis], out)
    total = high.sum(axis=1)
    return total + np.subtract(t, high, out=high).sum(axis=1)


def _high_parts(t: np.ndarray, e, out: np.ndarray | None = None) -> np.ndarray:
    """The high parts of :func:`row_sums`' split of t, whose sums of
    ``t.shape[-1]`` terms below 2**e are exact: t rounded to the grid of
    2**(e + 1 + bit length of the count); ``t - high`` is exact too."""
    grid = np.ldexp(1.0, np.minimum(e + t.shape[-1].bit_length() + 1, 1023))
    high = np.add(t, grid, out=out)
    high -= grid
    return high


def exact_running_sums(x: np.ndarray, carry: "NeumaierSum", top: float) -> np.ndarray:
    """Every prefix total ``carry + x[0] + ... + x[k]``, each within one
    rounding and a far smaller error, continuing ``carry``; ``top`` is at
    least the largest ``|x|``.

    The high parts of :func:`row_sums`' split have an exact cumsum, and
    the low parts' cumsum errs by about n^2 * eps^2 * top, as in
    :func:`row_sums`: far less than a rounding of a prefix near ``top``,
    but not relative to a prefix far below it.
    The carry and each high prefix add as an exact pair (Knuth's
    TwoSum), whose error joins the low prefix: each total is rounded once.
    """
    s = carry._s
    parts = np.empty((2, x.size))  # the high and the low parts
    _high_parts(x, math.frexp(top)[1], parts[0])
    np.subtract(x, parts[0], out=parts[1])
    parts[1, 0] += carry._c
    np.cumsum(parts, axis=1, out=parts)
    total = parts[0] + s
    back = total - parts[0]
    parts[0] -= total - back
    parts[0] += s - back
    parts[1] += parts[0]
    carry._s, carry._c = float(total[-1]), float(parts[1, -1])
    total += parts[1]
    return total


class NeumaierSum:
    """Running compensated sum supporting O(1) incremental updates."""

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0):
        self._s = float(value)
        self._c = 0.0

    def add(self, x: float) -> "NeumaierSum":
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t
        return self

    @property
    def value(self) -> float:
        return self._s + self._c

    def __repr__(self) -> str:
        return f"NeumaierSum({self.value!r})"
