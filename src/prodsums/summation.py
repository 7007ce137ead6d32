"""Compensated floating-point accumulation.

One-shot sums go through :func:`math.fsum` (Shewchuk's exact algorithm);
running sums that must be updated one value at a time use
:class:`NeumaierSum`, Neumaier's variant of Kahan summation, whose error
after any number of updates stays O(eps) relative to the exact sum
instead of growing linearly with the number of terms.
:func:`running_sums` gives every prefix total of a block of values at
numpy speed, continuing a :class:`NeumaierSum` from one block to the next.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeumaierSum", "running_sums"]

# plain cumsum error grows with the row length; the Neumaier carry keeps
# it from growing with the number of rows
_ROW = 256


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
    base = np.empty((rows, 1))
    for r, row_total in enumerate(local[:, -1].tolist()):
        base[r, 0] = carry.value
        carry.add(row_total)
    return (local + base).reshape(-1)[: x.size]
