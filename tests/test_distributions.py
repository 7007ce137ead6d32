import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import prodsums.distributions as distributions_module
from prodsums import (
    FAMILIES,
    ExperimentConfig,
    derive_stream_seed,
    make_distribution,
    moments,
    run_asclt_path,
    run_slln_experiment,
    sample,
    sample_chunks,
    sample_rows,
)

# one representative valid spec per family, used by several suites
SHOWCASE = [
    ("exponential", [1.0]),
    ("gamma", [4.0, 0.5]),
    ("lognormal", [0.0, 0.5]),
    ("uniform", [0.5, 1.5]),
    ("twopoint", [0.5, 2.0, 0.5]),
]

# streams past 2**32 belong to later rows of a clt experiment
EDGE_STREAMS = [5, 0, 2**32 + 7, 2**64 - 1]

MASK64 = (1 << 64) - 1


def splitmix64(base_seed, stream_index):
    """The documented key mixing, in plain Python integers."""
    z = (base_seed + (stream_index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_draw(spec, gen, n):
    p = spec.params
    if spec.family == "exponential":
        return -np.log1p(-gen.random(n)) / p[0]
    if spec.family == "gamma":
        return gen.standard_gamma(p[0], n) * p[1]
    if spec.family == "lognormal":
        return np.exp(p[0] + p[1] * gen.standard_normal(n))
    if spec.family == "uniform":
        return p[0] + (p[1] - p[0]) * gen.random(n)
    low, high, p_low = p
    return np.where(gen.random(n) < p_low, low, high)


def reference_path(spec, n, base_seed, stream_index):
    """One stream from its own fresh Philox, by the documented redraw rule:
    every zero draw is replaced, round after round, by the stream's next
    draws, in order."""
    gen = np.random.Generator(np.random.Philox(key=derive_stream_seed(base_seed, stream_index)))
    values = reference_draw(spec, gen, n)
    while np.any(values <= 0.0):
        bad = values <= 0.0
        values[bad] = reference_draw(spec, gen, int(bad.sum()))
    return values


class TestMakeDistribution:
    def test_exponential_unit(self):
        spec = make_distribution("exponential", [1.0])
        assert spec.family == "exponential"
        assert spec.params == (1.0,)

    def test_gamma_valid(self):
        spec = make_distribution("gamma", [4.0, 0.5])
        assert spec.params == (4.0, 0.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_distribution("zeta", [1.0])

    def test_normal_family_rejected(self):
        # near-gaussian positive inputs go through lognormal instead
        with pytest.raises(ValueError, match="unknown family"):
            make_distribution("normal", [0.0, 1.0])

    def test_uniform_zero_lower_bound(self):
        with pytest.raises(ValueError, match="0 < a < b"):
            make_distribution("uniform", [0.0, 1.0])

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            make_distribution("exponential", [1.0, 2.0])

    @pytest.mark.parametrize(
        "family,params",
        [
            ("exponential", [0.0]),
            ("exponential", [-1.0]),
            ("gamma", [0.0, 1.0]),
            ("gamma", [1.0, -2.0]),
            ("lognormal", [0.0, 0.0]),
            ("uniform", [1.5, 0.5]),
            ("twopoint", [2.0, 0.5, 0.5]),
            ("twopoint", [0.5, 2.0, 0.0]),
            ("twopoint", [0.5, 2.0, 1.0]),
        ],
    )
    def test_invalid_params(self, family, params):
        with pytest.raises(ValueError):
            make_distribution(family, params)

    def test_nonfinite_params(self):
        with pytest.raises(ValueError, match="finite"):
            make_distribution("exponential", [math.inf])

    @pytest.mark.parametrize("family,params", [
        ("lognormal", [0.0, 30.0]),  # exp(s^2) - 1 overflows
        ("lognormal", [710.0, 1.0]),  # the mean overflows
        ("exponential", [1e-320]),  # 1/rate is infinite
        ("gamma", [1e-320, 1e-10]),  # the mean underflows to 0
    ])
    def test_nonfinite_moments(self, family, params):
        with pytest.raises(ValueError, match="no finite positive"):
            make_distribution(family, params)


class TestMoments:
    def test_exponential_unit(self):
        assert moments(make_distribution("exponential", [1.0])) == (1.0, 1.0, 1.0)

    def test_gamma(self):
        mu, sigma, gam = moments(make_distribution("gamma", [4.0, 0.5]))
        assert (mu, sigma, gam) == (2.0, 1.0, 0.5)

    def test_uniform(self):
        mu, sigma, gam = moments(make_distribution("uniform", [0.5, 1.5]))
        assert mu == 1.0
        assert sigma == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)
        assert gam == pytest.approx(sigma, rel=1e-15)

    def test_lognormal(self):
        m, s = 0.25, 0.75
        mu, sigma, gam = moments(make_distribution("lognormal", [m, s]))
        assert mu == pytest.approx(math.exp(m + s * s / 2), rel=1e-15)
        assert sigma**2 == pytest.approx(
            (math.exp(s * s) - 1) * math.exp(2 * m + s * s), rel=1e-12
        )
        assert gam == pytest.approx(math.sqrt(math.exp(s * s) - 1), rel=1e-12)

    def test_twopoint(self):
        mu, sigma, gam = moments(make_distribution("twopoint", [0.5, 2.0, 0.5]))
        assert mu == 1.25
        assert sigma == pytest.approx(1.5 * 0.5, rel=1e-15)

    def test_variance_always_positive(self):
        for family, params in SHOWCASE:
            _, sigma, gam = moments(make_distribution(family, params))
            assert sigma > 0 and gam > 0


class TestSample:
    def test_deterministic_replay(self):
        spec = make_distribution("gamma", [4.0, 0.5])
        a = sample(spec, 1000, base_seed=42, stream_index=7)
        b = sample(spec, 1000, base_seed=42, stream_index=7)
        assert np.array_equal(a.values, b.values)

    def test_distinct_streams_differ(self):
        spec = make_distribution("exponential", [1.0])
        a = sample(spec, 100, 42, 0)
        b = sample(spec, 100, 42, 1)
        assert not np.array_equal(a.values, b.values)

    def test_zero_length_rejected(self):
        spec = make_distribution("exponential", [1.0])
        with pytest.raises(ValueError, match=">= 1"):
            sample(spec, 0, 0, 0)

    def test_provenance_recorded(self):
        spec = make_distribution("uniform", [0.5, 1.5])
        p = sample(spec, 5, base_seed=9, stream_index=3)
        assert (p.base_seed, p.stream_index, p.spec) == (9, 3, spec)
        assert len(p) == 5

    def test_values_read_only(self):
        p = sample(make_distribution("exponential", [1.0]), 10, 0, 0)
        with pytest.raises(ValueError):
            p.values[0] = -1.0

    @pytest.mark.parametrize("family,params", SHOWCASE)
    def test_all_draws_positive_stress(self, family, params):
        spec = make_distribution(family, params)
        p = sample(spec, 1_000_000, base_seed=0, stream_index=0)
        assert float(np.min(p.values)) > 0.0

    def test_small_shape_gamma_positive(self):
        # shape < 1 exercises the boosting branch where underflow to 0
        # is actually reachable
        spec = make_distribution("gamma", [0.05, 1.0])
        p = sample(spec, 200_000, base_seed=1, stream_index=0)
        assert float(np.min(p.values)) > 0.0

    def test_redraws_keep_their_bits(self):
        # about a quarter of these draws underflow and are redrawn over
        # several rounds; digest of the values drawn before the redraw
        # loop was bounded
        p = sample(make_distribution("gamma", [0.002, 1.0]), 1000, base_seed=3)
        assert float(np.min(p.values)) > 0.0
        assert hashlib.sha256(p.values.tobytes()).hexdigest() == (
            "4c02d13c38139095a428b2d573a24eea17fe42fed5903fc9facd86b2ce7252f3"
        )

    @pytest.mark.parametrize("family,params", [*SHOWCASE, ("gamma", [0.002, 1.0])])
    def test_rows_match_sample(self, family, params):
        # one re-keyed generator per call against one fresh generator per
        # stream; a repeated stream must restart from its first draw
        spec = make_distribution(family, params)
        streams = [*EDGE_STREAMS, 5]
        rows = sample_rows(spec, 300, 17, streams)
        assert rows.shape == (5, 300)
        for row, stream in zip(rows, streams):
            want = reference_path(spec, 300, 17, stream)
            assert np.array_equal(row, want)
            assert np.array_equal(sample(spec, 300, 17, stream).values, want)

    @pytest.mark.parametrize("family,params", [*SHOWCASE, ("gamma", [0.002, 1.0])])
    def test_out_matches_a_fresh_call(self, family, params):
        # a dirty view into a larger buffer, as the clt batch loop passes it;
        # gamma:0.002:1 redraws rows in place
        spec = make_distribution(family, params)
        buffer = np.full((2, 8, 300), np.nan)
        for streams in ([*EDGE_STREAMS, 5], [9, 3]):
            out = buffer[0, : len(streams)]
            got = sample_rows(spec, 300, 17, streams, out=out)
            assert got is out
            assert got.tobytes() == sample_rows(spec, 300, 17, streams).tobytes()

    def test_out_must_fit(self):
        spec = make_distribution("exponential", [1.0])
        for out in (np.empty((2, 4)), np.empty((3, 4), dtype=np.float32), np.empty((4, 3)).T):
            with pytest.raises(ValueError, match="C-ordered float array of shape"):
                sample_rows(spec, 4, 0, [0, 1, 2], out=out)

    @pytest.mark.parametrize("family,params,digest", [
        ("exponential", [1.0], "94e20ad77696475476fb0f0e3d844e20dc1de451caf4b5314068e958bb7e1e96"),
        ("gamma", [4.0, 0.5], "86c223463906080de3cc026a10de1ea215e6777a9f13618424071d6d71849012"),
        ("lognormal", [0.0, 0.5], "bf6d9dd1c4d4d47ac6af242ac3affe2c9b980f2ec9f9c6ac27f4d11ff1609edc"),
        ("uniform", [0.5, 1.5], "68ccb86b4dec156e5b3d6ae2aee5eeb880cb5c3bb509bb591decc8dc8491e0f8"),
        ("twopoint", [0.5, 2.0, 0.5], "441d7f27642714802a2b9980595190edd49efe09c517eb0ba2436aac86b78cdb"),
        ("gamma", [0.002, 1.0], "269d8d5b355cf198979b6dd1990859d006f1a6963a935099cb35f63e1ff370e1"),
    ])
    def test_family_digests(self, family, params, digest):
        # sha256 of the rows of the edge streams, recorded from the
        # generator-per-stream sampler this one replaced
        rows = sample_rows(make_distribution(family, params), 300, 17, EDGE_STREAMS)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_no_rows(self):
        assert sample_rows(make_distribution("exponential", [1.0]), 4, 0, []).shape == (0, 4)

    def test_rows_reject_bad_arguments(self):
        spec = make_distribution("exponential", [1.0])
        with pytest.raises(ValueError, match=">= 1"):
            sample_rows(spec, 0, 0, [0])
        with pytest.raises(ValueError, match="64 unsigned bits"):
            sample_rows(spec, 3, 0, [2**64])
        with pytest.raises(ValueError, match="10 of 10 draws still underflow"):
            sample_rows(make_distribution("gamma", [1e-9, 1.0]), 10, 0, [0])

    def test_underflowing_spec_raises(self):
        # nearly every gamma(1e-9) draw is 0.0 in double precision
        with pytest.raises(ValueError, match=r"gamma:1e-09:1\.0: 10 of 10 draws still underflow"):
            sample(make_distribution("gamma", [1e-9, 1.0]), 10, 0, 0)

    @staticmethod
    def _central_m4(family, params, mu, sigma):
        # analytic fourth central moments, used as the oracle for the
        # sampling error of the sample variance
        if family == "exponential":
            return 9.0 * sigma**4
        if family == "gamma":
            k, theta = params
            return 3.0 * k * (k + 2.0) * theta**4
        if family == "lognormal":
            m, s = params
            raw = [math.exp(k * m + k * k * s * s / 2.0) for k in (1, 2, 3, 4)]
            return raw[3] - 4 * raw[2] * mu + 6 * raw[1] * mu**2 - 3 * mu**4
        if family == "uniform":
            a, b = params
            return (b - a) ** 4 / 80.0
        low, high, p = params
        w = high - low
        return w**4 * p * (1 - p) * ((1 - p) ** 3 + p**3)

    @pytest.mark.parametrize("family,params", SHOWCASE)
    def test_moments_match_analytic(self, family, params):
        spec = make_distribution(family, params)
        mu, sigma, _ = moments(spec)
        v = sample(spec, 1_000_000, base_seed=3, stream_index=0).values
        n = v.size
        se_mean = sigma / math.sqrt(n)
        assert abs(np.mean(v) - mu) <= 5 * se_mean
        s2 = np.var(v, ddof=1)
        m4 = self._central_m4(family, params, mu, sigma)
        # exact iid sampling variance of s^2: (mu4 - sigma^4 (n-3)/(n-1))/n
        se_var = math.sqrt((m4 - sigma**4 * (n - 3) / (n - 1)) / n)
        assert abs(s2 - sigma * sigma) <= 5 * se_var

    def test_exponential_mean_tight(self):
        v = sample(make_distribution("exponential", [1.0]), 1_000_000, 5, 0).values
        assert abs(float(np.mean(v)) - 1.0) <= 0.01

    def test_stream_independence_correlation(self):
        spec = make_distribution("exponential", [1.0])
        a = sample(spec, 100_000, 42, 0).values
        b = sample(spec, 100_000, 42, 1).values
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01


class TestSampleChunks:
    """The chunk source against sample(), which draws the path at once."""

    # the last two draw about 23% and 28% zeros, redrawn over several rounds
    SPECS = [*SHOWCASE, ("gamma", [0.002, 1.0]), ("gamma", [0.001, 1.0])]

    @pytest.mark.parametrize("chunk", [1, 4095, 4096, 9000])
    @pytest.mark.parametrize("family,params", SPECS)
    def test_chunks_concatenate_to_sample(self, family, params, chunk):
        spec = make_distribution(family, params)
        for stream in (0, 2**64 - 1):
            chunks = list(sample_chunks(spec, 9000, 11, stream, chunk))
            assert [c.size for c in chunks] == [min(chunk, 9000 - lo) for lo in range(0, 9000, chunk)]
            want = sample(spec, 9000, 11, stream).values
            assert np.concatenate(chunks).tobytes() == want.tobytes()

    def test_a_zero_in_a_later_chunk(self):
        # the first zero lies past the first chunk, so the redraw rounds are
        # counted by a second pass while the first chunk is already out
        spec = make_distribution("gamma", [0.01, 1.0])
        gen = np.random.Generator(np.random.Philox(key=derive_stream_seed(0, 1)))
        zeros = np.flatnonzero(reference_draw(spec, gen, 20_000) <= 0.0)
        assert 512 < zeros[0] and zeros.size > 1
        chunks = sample_chunks(spec, 20_000, 0, 1, 512)
        got = np.concatenate(list(chunks))
        assert got.tobytes() == sample(spec, 20_000, 0, 1).values.tobytes()

    def test_two_passes_give_the_same_bits(self, monkeypatch):
        # the redraw rounds are found by the first pass and copied by the
        # second, which draws the same chunks; gamma:0.002:1's first zero
        # lies in the first chunk
        found = []
        rounds = distributions_module._redraw_rounds
        monkeypatch.setattr(distributions_module, "_redraw_rounds",
                            lambda *args: found.append(args) or rounds(*args))
        spec = make_distribution("gamma", [0.002, 1.0])
        path = sample_chunks(spec, 20_000, 0, 0)
        first, second = (b"".join(x.tobytes() for x in path) for _ in range(2))
        assert len(found) == 1
        assert first == second == sample(spec, 20_000, 0, 0).values.tobytes()

    @pytest.mark.parametrize("chunk", [3, 10])
    def test_underflowing_spec_raises_at_its_first_zero(self, chunk):
        spec = make_distribution("gamma", [1e-9, 1.0])
        with pytest.raises(ValueError) as raised:
            next(iter(sample_chunks(spec, 10, 0, 0, chunk)))
        with pytest.raises(ValueError) as whole:
            sample(spec, 10, 0, 0)
        assert str(raised.value) == str(whole.value) == (
            "gamma:1e-09:1.0: 10 of 10 draws still underflow to 0 after 100 redraw rounds")

    def test_memory_is_one_chunk(self):
        # 2e5 draws are 1.6 MB; the zeros' redraws read the stream again
        spec = make_distribution("gamma", [0.002, 1.0])
        tracemalloc.start()
        try:
            zeros = sum(int(np.count_nonzero(x <= 0.0)) for x in sample_chunks(spec, 200_000, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zeros == 0 and peak <= 2**18

    def test_rejects_bad_arguments(self):
        spec = make_distribution("exponential", [1.0])
        with pytest.raises(ValueError, match="path length must be >= 1"):
            sample_chunks(spec, 0, 0)
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            sample_chunks(spec, 10, 0, 0, 0)
        with pytest.raises(ValueError, match="64 unsigned bits"):
            sample_chunks(spec, 10, 0, 2**64)


class TestStreamSeedMixing:
    def test_deterministic(self):
        assert derive_stream_seed(42, 7) == derive_stream_seed(42, 7)

    def test_sensitivity(self):
        seeds = {
            derive_stream_seed(0, 0),
            derive_stream_seed(0, 1),
            derive_stream_seed(1, 0),
            derive_stream_seed(1, 1),
        }
        assert len(seeds) == 4

    def test_range_validation(self):
        with pytest.raises(ValueError):
            derive_stream_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_stream_seed(0, 1 << 64)

    def test_64_bit_output(self):
        for i in range(100):
            z = derive_stream_seed(12345, i)
            assert 0 <= z < (1 << 64)

    @pytest.mark.parametrize("base_seed", [0, 17, 2**64 - 1])
    def test_matches_plain_splitmix64(self, base_seed):
        for stream in [*EDGE_STREAMS, 1, 2**63]:
            assert derive_stream_seed(base_seed, stream) == splitmix64(base_seed, stream)


EXP1 = make_distribution("exponential", [1.0])


def _asclt(**kwargs):
    r = run_asclt_path(EXP1, **{"kind": "rw", "n_max": 100, "base_seed": 0, **kwargs})
    return repr((r.n_max, r.base_seed, r.exact_cutoff, r.a_values.tobytes()))


def _sample(n=10, base_seed=0, stream_index=0):
    p = sample(EXP1, n, base_seed, stream_index)
    return repr((p.base_seed, p.stream_index, p.values.tobytes()))


# each call passes the value under test as one integer argument of the API
# and returns what it made, types included, as a string
INTEGER_ARGUMENTS = {
    "config-n_list": lambda v: repr(ExperimentConfig(EXP1, "std", (v,), 5, 0)),
    "config-reps": lambda v: repr(ExperimentConfig(EXP1, "std", (10,), v, 0)),
    "config-base_seed": lambda v: repr(ExperimentConfig(EXP1, "std", (10,), 5, v)),
    "config-workers": lambda v: repr(ExperimentConfig(EXP1, "std", (10,), 5, 0, workers=v)),
    "asclt-n_max": lambda v: _asclt(n_max=v),
    "asclt-base_seed": lambda v: _asclt(base_seed=v),
    "asclt-exact_cutoff": lambda v: _asclt(exact_cutoff=v),
    "asclt-stream_index": lambda v: _asclt(stream_index=v),
    "slln-n_list": lambda v: repr(run_slln_experiment(EXP1, [v], 0)),
    "slln-base_seed": lambda v: repr(run_slln_experiment(EXP1, [10], v)),
    "sample-n": lambda v: _sample(n=v),
    "sample-base_seed": lambda v: _sample(base_seed=v),
    "sample-stream_index": lambda v: _sample(stream_index=v),
    "sample_rows-n": lambda v: repr(sample_rows(EXP1, v, 0, [0, 1]).tobytes()),
    "sample_rows-base_seed": lambda v: repr(sample_rows(EXP1, 10, v, [0, 1]).tobytes()),
    "sample_rows-stream_indices": lambda v: repr(sample_rows(EXP1, 10, 0, [0, v]).tobytes()),
    "sample_chunks-n": lambda v: repr([c.tobytes() for c in sample_chunks(EXP1, v, 0)]),
    "sample_chunks-base_seed": lambda v: repr([c.tobytes() for c in sample_chunks(EXP1, 10, v)]),
    "sample_chunks-stream_index": lambda v: repr([c.tobytes() for c in sample_chunks(EXP1, 10, 0, v)]),
    "derive_stream_seed-base_seed": lambda v: repr(derive_stream_seed(v, 0)),
    "derive_stream_seed-stream_index": lambda v: repr(derive_stream_seed(0, v)),
}


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=list(INTEGER_ARGUMENTS))
def test_integer_arguments_are_strict(call):
    for bad in (10.5, np.float32(10.5), True, np.True_):  # neither truncated nor read as 1
        with pytest.raises(ValueError, match="expected an integer"):
            call(bad)
    assert call(1e4) == call(10_000)
