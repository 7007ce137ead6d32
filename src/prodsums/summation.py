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
prefix total of a block of values at numpy speed, continuing a
:class:`NeumaierSum` from one block to the next; a prefix of k terms is
within one rounding plus about k^2 * eps^2 times the sum of its own |x|.
:func:`two_sum` is the one error-free addition that both build on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeumaierSum", "row_sums", "two_sum", "exact_running_sums"]


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
    e = np.frexp(top)[1][:, np.newaxis] + (t.shape[-1].bit_length() + 1)
    grid = np.ldexp(1.0, np.minimum(e, 1023))
    high = np.add(t, grid, out=out)
    high -= grid
    total = high.sum(axis=1)
    return total + np.subtract(t, high, out=high).sum(axis=1)


def two_sum(a, b, s):
    """The exact error ``a + b - s`` of ``s = a + b`` (Knuth's TwoSum), for
    floats or arrays, whatever the order of size of a and b, if s is finite."""
    back = s - a
    return (a - (s - back)) + (b - back)


def exact_running_sums(x: np.ndarray, carry: "NeumaierSum") -> np.ndarray:
    """Every prefix total ``carry + x[0] + ... + x[k]``, continuing ``carry``.

    Ogita, Rump & Oishi's Sum2 (SIAM J. Sci. Comput. 2005) on numpy's
    sequential cumsum: the :func:`two_sum` error of each step, with the
    carry's, has a cumsum of its own, which each plain prefix adds once.
    A prefix depends on its own terms only: a prefix of x gives the bits
    of x, and so does x split into blocks through one carry.
    """
    plain = np.append(carry._s, x)
    np.cumsum(plain, out=plain)
    err = two_sum(plain[:-1], x, plain[1:])
    err[0] += carry._c
    np.cumsum(err, out=err)
    carry._s, carry._c = float(plain[-1]), float(err[-1])
    return plain[1:] + err


class NeumaierSum:
    """Running compensated sum supporting O(1) incremental updates."""

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0):
        self._s = float(value)
        self._c = 0.0

    def add(self, x: float) -> "NeumaierSum":
        t = self._s + x
        self._c += two_sum(self._s, x, t)
        self._s = t
        return self

    @property
    def value(self) -> float:
        return self._s + self._c

    def __repr__(self) -> str:
        return f"NeumaierSum({self.value!r})"
