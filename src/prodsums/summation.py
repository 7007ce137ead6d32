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
:func:`running_sums` gives every prefix total of a block of values at
numpy speed, continuing a :class:`NeumaierSum` from one block to the next.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeumaierSum", "row_sums", "running_sums"]

# plain cumsum error grows with the row length; the Neumaier carry keeps
# it from growing with the number of rows
_ROW = 256


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
    _, e = np.frexp(top)
    grid = np.ldexp(1.0, np.minimum(e + t.shape[1].bit_length() + 1, 1023))[:, np.newaxis]
    high = np.add(t, grid, out=out)
    high -= grid
    total = high.sum(axis=1)
    return total + np.subtract(t, high, out=high).sum(axis=1)


def _prefix_totals(x: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The totals of ``x[:n]``, x positive and n over the nondecreasing ns.

    Prefixes whose largest term has one binary exponent share the split of
    :func:`row_sums`: the cumsum of their high parts is exact, and that of
    the low parts errs by far less than a rounding of the total.
    """
    _, e = np.frexp(np.maximum.accumulate(x[: ns[-1]])[ns - 1])
    out = np.empty(ns.size)
    lo = 0
    while lo < ns.size:  # e is nondecreasing: one run of ns per exponent
        hi = int(np.searchsorted(e, e[lo], side="right"))
        t = x[: ns[hi - 1]]
        grid = np.ldexp(1.0, min(e[lo] + t.size.bit_length() + 1, 1023))
        high = (t + grid) - grid
        k = ns[lo:hi] - 1
        out[lo:hi] = np.cumsum(high)[k] + np.cumsum(t - high)[k]
        lo = hi
    return out


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


def running_sums(values, carry: NeumaierSum) -> np.ndarray:
    """Every prefix total ``carry + values[0] + ... + values[k]``.

    The values are cut into rows of 256 and summed by ``np.cumsum``
    within each row; the row totals are added to ``carry`` one by one,
    so the carry ends holding the total of everything it has seen and
    the error stays that of one row, however long the run.
    """
    x = np.asarray(values, dtype=float)
    rows = -(-x.size // _ROW)
    padded = np.zeros(rows * _ROW)
    padded[: x.size] = x
    local = np.cumsum(padded.reshape(rows, _ROW), axis=1)
    # NeumaierSum.add on local floats, stored back once
    s, c = carry._s, carry._c
    base = []
    for row_total in local[:, -1].tolist():
        base.append(s + c)
        t = s + row_total
        if abs(s) >= abs(row_total):
            c += (s - t) + row_total
        else:
            c += (row_total - t) + s
        s = t
    carry._s, carry._c = s, c
    return (local + np.array(base)[:, np.newaxis]).reshape(-1)[: x.size]
