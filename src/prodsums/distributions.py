"""Positive-support random variate generation with exact analytic moments.

Five families are supported, all with support contained in (0, inf) and
strictly positive variance, so the coefficient of variation sigma/mu is
always defined and positive:

======================= ======================== =========================
family                  parameters               analytic moments
======================= ======================== =========================
``exponential``         rate > 0                 mu = sigma = 1/rate
``gamma``               shape > 0, scale > 0     mu = k*theta, var = k*theta^2
``lognormal``           log_mean, log_sd > 0     mu = exp(m + s^2/2)
``uniform``             0 < a < b                mu = (a+b)/2, sd = (b-a)/sqrt(12)
``twopoint``            0 < low < high,          mu = p*low + (1-p)*high,
                        0 < p_low < 1            sd = (high-low)*sqrt(p*(1-p))
======================= ======================== =========================

Sampling is deterministic and splittable.  A path is addressed by a
``(base_seed, stream_index)`` pair of 64-bit integers; the pair is mixed
into a single Philox key by :func:`derive_stream_seed`, so replicate ``r``
of an experiment can simply use ``stream_index = r`` and the draws never
depend on evaluation order or worker count.  :func:`sample_rows` is the
one sampler: it keys a batch of streams in one pass, re-keys one
generator to the start of each stream and draws each row in place.
:func:`sample` is its one-row call.  :func:`sample_chunks` gives the
draws of one :func:`sample` call in consecutive chunks, bit for bit, in
the memory of one chunk, as often as it is read; it is also the one
place of the zero-redraw rule, which :func:`sample_rows` applies to a
row holding a zero by drawing that row again as one chunk.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "FAMILIES",
    "DistributionSpec",
    "SamplePath",
    "make_distribution",
    "moments",
    "sample",
    "sample_chunks",
    "sample_rows",
    "derive_stream_seed",
]

# the parameter count of each family
_ARITY = {"exponential": 1, "gamma": 2, "lognormal": 2, "uniform": 2, "twopoint": 3}
FAMILIES = tuple(_ARITY)

# a spec that underflows to 0 with probability q leaves a draw unfixed
# after k redraw rounds with probability q^k: for q <= 1/2, 100 rounds
# leave any path up to 1e20 draws unfixed with probability below 1e-10
_MAX_REDRAW_ROUNDS = 100

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class DistributionSpec:
    """A validated positive-support distribution family.

    Construct through :func:`make_distribution`, which checks the support
    and positivity invariants.
    """

    family: str
    params: tuple[float, ...]

    def __str__(self) -> str:
        return self.family + ":" + ":".join(repr(p) for p in self.params)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """An ordered sequence of positive draws with full seed provenance."""

    values: np.ndarray
    spec: DistributionSpec
    base_seed: int
    stream_index: int

    def __len__(self) -> int:
        return self.values.size


def make_distribution(family: str, params) -> DistributionSpec:
    """Build a validated spec from a family name and parameter list.

    Raises ``ValueError`` for an unknown family, wrong arity,
    parameters that violate the positive-support / positive-variance
    invariants, or parameters whose (mu, sigma, gamma) are not finite
    and positive in double precision (for example ``lognormal:0:30``,
    whose variance factor exp(s^2) - 1 overflows).
    """
    name = str(family).lower()
    if name not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}"
        )
    p = tuple(float(x) for x in params)
    if len(p) != _ARITY[name]:
        raise ValueError(
            f"{name} takes {_ARITY[name]} parameter(s), got {len(p)}"
        )
    if not all(math.isfinite(x) for x in p):
        raise ValueError(f"{name} parameters must be finite, got {p}")
    if name == "exponential":
        if p[0] <= 0:
            raise ValueError(f"exponential rate must be > 0, got {p[0]}")
    elif name == "gamma":
        if p[0] <= 0 or p[1] <= 0:
            raise ValueError(f"gamma requires shape > 0 and scale > 0, got {p}")
    elif name == "lognormal":
        if p[1] <= 0:
            raise ValueError(f"lognormal log-sd must be > 0, got {p[1]}")
    elif name == "uniform":
        if not 0 < p[0] < p[1]:
            raise ValueError(f"uniform requires 0 < a < b, got a={p[0]}, b={p[1]}")
    else:  # twopoint
        low, high, p_low = p
        if not 0 < low < high:
            raise ValueError(f"twopoint requires 0 < low < high, got {p[:2]}")
        if not 0 < p_low < 1:
            raise ValueError(f"twopoint requires 0 < p_low < 1, got {p_low}")
    spec = DistributionSpec(name, p)
    try:
        finite = all(0.0 < x < math.inf for x in moments(spec))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ValueError(f"{spec} has no finite positive (mu, sigma, gamma) in double precision")
    return spec


def moments(spec: DistributionSpec) -> tuple[float, float, float]:
    """Exact analytic (mu, sigma, gamma) of a spec, gamma = sigma/mu."""
    p = spec.params
    if spec.family == "exponential":
        mu = sigma = 1.0 / p[0]
    elif spec.family == "gamma":
        shape, scale = p
        mu = shape * scale
        sigma = scale * math.sqrt(shape)
    elif spec.family == "lognormal":
        m, s = p
        mu = math.exp(m + 0.5 * s * s)
        sigma = mu * math.sqrt(math.expm1(s * s))
    elif spec.family == "uniform":
        a, b = p
        mu = 0.5 * (a + b)
        sigma = (b - a) / math.sqrt(12.0)
    else:  # twopoint
        low, high, p_low = p
        mu = p_low * low + (1.0 - p_low) * high
        sigma = (high - low) * math.sqrt(p_low * (1.0 - p_low))
    return mu, sigma, sigma / mu


def _integer(value) -> int:
    """Strict integer coercer: an int, an integral float or a digit string."""
    if isinstance(value, (bool, np.bool_)) or (hasattr(value, "is_integer") and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _stream_keys(base_seed: int, indices) -> np.ndarray:
    """The :func:`derive_stream_seed` keys of many streams, in one numpy pass,
    and the one check of seeds and stream indices: integers in [0, 2**64)."""
    base_seed, indices = _integer(base_seed), list(indices)
    if not 0 <= base_seed <= _MASK64:
        raise ValueError("base_seed must fit in 64 unsigned bits")
    streams = np.asarray(indices)
    # numpy reads a bool among ints as 0 or 1, and an int past 63 bits among them as a float
    if streams.dtype.kind not in "iu" or not {bool, np.bool_}.isdisjoint(map(type, indices)):
        streams = np.array([_integer(i) for i in indices], dtype=object)
    if streams.size and not (0 <= streams.min() and streams.max() <= _MASK64):
        raise ValueError("stream_index must fit in 64 unsigned bits")
    # uint64 array arithmetic wraps modulo 2**64, as SplitMix64 needs;
    # (i + 1) * golden + base is folded into i * golden + (golden + base)
    z = streams.astype(np.uint64) * _GOLDEN + ((_GOLDEN + base_seed) & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def derive_stream_seed(base_seed: int, stream_index: int) -> int:
    """Mix (base_seed, stream_index) into one 64-bit generator key.

    The base seed is advanced by ``stream_index + 1`` increments of the
    64-bit golden-ratio constant 0x9E3779B97F4A7C15 and then passed
    through the SplitMix64 finalizer (xor-shift / multiply rounds with
    constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Distinct
    stream indices therefore key statistically independent Philox
    streams, and the mapping is reproducible across platforms.
    """
    return int(_stream_keys(base_seed, [stream_index])[0])


def _rekey(gen: np.random.Generator, state: dict, key: int) -> np.random.Generator:
    """gen at the start of the stream keyed by key; state is :func:`_fresh_state`'s."""
    state["state"]["key"][0] = key
    gen.bit_generator.state = state
    return gen


def _fresh_state() -> dict:
    """The state of a fresh ``Philox(key=0)`` in plain ints and lists,
    which set in less than half the time of ``bit_generator.state``'s arrays."""
    return {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _raw(spec: DistributionSpec, gen: np.random.Generator):
    """The call of gen that fills a contiguous ``out=`` with untransformed draws."""
    if spec.family == "gamma":
        return partial(gen.standard_gamma, spec.params[0])
    return gen.standard_normal if spec.family == "lognormal" else gen.random


def _transform(spec: DistributionSpec, out: np.ndarray) -> np.ndarray:
    """Map raw draws (of any shape) to the spec's draws, in place."""
    p = spec.params
    if spec.family == "exponential":
        # inverse CDF with U = 1 - random() in (0, 1]; log1p keeps the
        # small-u tail exact
        np.log1p(np.negative(out, out=out), out=out)
        out /= -p[0]
    elif spec.family == "gamma":
        out *= p[1]
    elif spec.family == "lognormal":
        out *= p[1]
        out += p[0]
        np.exp(out, out=out)
    elif spec.family == "uniform":
        a, b = p
        out *= b - a
        out += a
    else:
        low, high, p_low = p
        is_low = out < p_low
        out.fill(high)
        out[is_low] = low
    return out


def _draw(spec: DistributionSpec, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous 1-D out with draws, in place."""
    _raw(spec, gen)(out=out)
    return _transform(spec, out)


def _zeros(spec: DistributionSpec, gen: np.random.Generator, count: int, chunk: int) -> int:
    """The number of zeros among gen's next count draws, drawn chunk at a time."""
    return sum(int(np.count_nonzero(_draw(spec, gen, np.empty(min(chunk, count - lo))) <= 0.0))
               for lo in range(0, count, chunk))


def _unfixed(spec: DistributionSpec, zeros: int, n: int) -> ValueError:
    return ValueError(f"{spec}: {zeros} of {n} draws still underflow to 0 "
                      f"after {_MAX_REDRAW_ROUNDS} redraw rounds")


def _redraw_rounds(spec: DistributionSpec, key: int, n: int, chunk: int) -> list:
    """Generators at the start of each redraw round of the path of n
    draws of the stream keyed by key.

    Round r draws one value for each zero left after round r - 1, from
    the stream after the path and the earlier rounds, so a round starts
    where the count of the zeros before it says.
    """
    gen = np.random.Generator(np.random.Philox(key=key))
    zeros, rounds = _zeros(spec, gen, n, chunk), []
    while zeros:
        if len(rounds) == _MAX_REDRAW_ROUNDS:
            raise _unfixed(spec, zeros, n)
        rounds.append(copy.deepcopy(gen))
        zeros = _zeros(spec, gen, zeros, chunk)
    return rounds


class _ChunkedPath:
    """The re-readable path of :func:`sample_chunks`."""

    def __init__(self, spec: DistributionSpec, n: int, key: int, chunk: int):
        self._path = (spec, n, key, chunk)
        self._starts = None  # the redraw rounds' starts, once a pass meets a zero

    def draws(self, gen=None):
        """One pass over the chunks, drawn by gen, re-keyed, if one is given."""
        spec, n, key, chunk = self._path
        gen = np.random.Generator(np.random.Philox(key=key)) if gen is None else _rekey(
            gen, _fresh_state(), key)
        rounds = None
        for lo in range(0, n, chunk):
            x = _draw(spec, gen, np.empty(min(chunk, n - lo)))
            bad = np.flatnonzero(x <= 0.0)
            if bad.size and rounds is None:
                # a path drawn whole has its rounds next on gen; else a second
                # generator finds where each round starts, once per path
                if x.size == n:
                    rounds = [gen] * _MAX_REDRAW_ROUNDS
                else:
                    if self._starts is None:
                        self._starts = _redraw_rounds(spec, key, n, chunk)
                    rounds = copy.deepcopy(self._starts)
            # the zeros left after each round take the next draws of the
            # next round's stream, in index order
            for g in rounds or ():
                if not bad.size:
                    break
                x[bad] = _draw(spec, g, np.empty(bad.size))
                bad = bad[x[bad] <= 0.0]
            if bad.size:
                raise _unfixed(spec, bad.size, n)
            yield x

    __iter__ = draws


def sample_chunks(spec: DistributionSpec, n: int, base_seed: int, stream_index: int = 0,
                  chunk: int = 4096):
    """The draws of ``sample(spec, n, base_seed, stream_index)`` in
    consecutive arrays of ``chunk`` (the last one shorter), bit for bit,
    the same on every pass over the result.

    Consecutive fills of one generator draw what one fill would, so a
    pass holds one chunk, whatever n.  A zero draw is replaced by the
    redraw rule of :func:`sample`, whose redraws come from the stream
    after draw n: at the path's first zero a second generator runs once
    through the n draws and the redraw rounds, and keeps a generator at
    the start of each round; each pass takes its zeros' redraws from
    copies of them, in index order.  That costs one more pass over the
    stream per path, and O(chunk + rounds) memory.  A spec whose zeros
    outlast 100 rounds raises the ``ValueError`` of :func:`sample` at its
    first zero.
    """
    n, chunk = _integer(n), _integer(chunk)
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return _ChunkedPath(spec, n, int(_stream_keys(base_seed, [stream_index])[0]), chunk)


def sample(spec: DistributionSpec, n: int, base_seed: int, stream_index: int = 0) -> SamplePath:
    """Draw a path of ``n`` strictly positive values.

    Pure function of its arguments: the same (spec, n, base_seed,
    stream_index) always yields bit-identical values.  Zero draws (for
    example an exponential inverse CDF hitting U = 1, or an extreme
    small-shape gamma underflowing) are redrawn from the same stream, so
    every returned value is > 0.  A spec that still yields zeros after
    100 redraw rounds (say ``gamma:1e-9:1``, whose draws almost all
    underflow) raises ``ValueError``.
    """
    values = sample_rows(spec, n, base_seed, [stream_index])[0]
    values.setflags(write=False)
    return SamplePath(values, spec, _integer(base_seed), _integer(stream_index))


def sample_rows(spec: DistributionSpec, n: int, base_seed: int, stream_indices,
                out: np.ndarray | None = None) -> np.ndarray:
    """A ``(len(stream_indices), n)`` array of paths, one stream per row.

    Row i has the bits of ``sample(spec, n, base_seed,
    stream_indices[i]).values``.  One generator, re-keyed to the start of
    each stream, draws every row in place; the family's transform then
    runs once over the whole batch, and a row holding a zero draw is
    drawn again as one chunk of :func:`sample_chunks`, whose redraw rule
    is the one of :func:`sample`.  Pass a C-ordered
    float array of that shape as ``out`` to fill and return it instead
    of a new array.
    """
    n = _integer(n)
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    keys = _stream_keys(base_seed, stream_indices).tolist()
    if out is None:
        out = np.empty((len(keys), n))
    elif out.shape != (len(keys), n) or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered float array of shape {(len(keys), n)}")
    gen = np.random.Generator(np.random.Philox(key=0))
    state, fill = _fresh_state(), _raw(spec, gen)
    for row, key in zip(out, keys):
        _rekey(gen, state, key)
        fill(out=row)
    _transform(spec, out)
    for i in np.nonzero(out.min(axis=1) <= 0.0)[0]:
        out[i] = next(_ChunkedPath(spec, n, keys[i], n).draws(gen))
    return out
