"""Compensated floating-point accumulation.

One-shot sums go through :func:`math.fsum` (Shewchuk's exact algorithm);
running sums that must be updated one value at a time use
:class:`NeumaierSum`, Neumaier's variant of Kahan summation, whose error
after any number of updates stays O(eps) relative to the exact sum
instead of growing linearly with the number of terms.
"""

from __future__ import annotations

__all__ = ["NeumaierSum"]


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
