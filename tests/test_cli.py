import json
import math

import mpmath
import numpy as np
import pytest

import prodsums.asclt as asclt_module
import prodsums.montecarlo as montecarlo_module
from prodsums import (
    LogAvgAccumulator,
    linearized_statistic,
    loo_log_statistic,
    moments,
    sample,
    sample_rows,
    standardized_sum,
)
from prodsums.cli import IDENTITY_TOLERANCE, main, parse_dist


def run_cli(args):
    return main(args)


class TestParseDist:
    def test_exponential(self):
        spec = parse_dist("exponential:1")
        assert spec.family == "exponential" and spec.params == (1.0,)

    def test_three_params(self):
        spec = parse_dist("twopoint:0.5:2:0.25")
        assert spec.params == (0.5, 2.0, 0.25)

    def test_malformed(self):
        with pytest.raises(ValueError, match="must be numbers"):
            parse_dist("gamma:a:b")

    def test_invalid_params_propagate(self):
        with pytest.raises(ValueError, match="0 < a < b"):
            parse_dist("uniform:0:1")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_bogus_stat_names_valid_choices(self, capsys):
        code = run_cli(["clt", "--stat", "bogus"])
        err = capsys.readouterr().err
        assert code == 2
        for kind in ("loo", "rw", "lin", "std", "gm-prefix", "gm-loo"):
            assert kind in err

    def test_unknown_flag(self):
        assert run_cli(["clt", "--dist", "exponential:1", "--frob", "1"]) == 2

    def test_missing_required_value(self, capsys):
        code = run_cli(["clt", "--dist", "exponential:1", "--stat", "loo"])
        assert code == 2
        assert "nList" in capsys.readouterr().err

    def test_runtime_error_is_exit_1(self, capsys):
        code = run_cli(
            ["clt", "--dist", "uniform:0:1", "--stat", "std", "--n", "10", "--reps", "2"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dist,stat,message", [
        # moments overflow: rejected with the other bad specs
        ("lognormal:0:30", "rw", "error: invalid 'spec': lognormal:0.0:30.0 has no finite"),
        # every draw underflows: the bounded redraw loop gives up
        ("gamma:1e-9:1", "loo", "error: gamma:1e-09:1.0: 100 of 100 draws still underflow"),
    ])
    def test_degenerate_spec_is_exit_1(self, capsys, dist, stat, message):
        assert run_cli(["asclt", "--dist", dist, "--stat", stat, "--N", "100"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def rw_oracle(values, mu, gam):
    """The rw statistic of every prefix of a path, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        s, log_sum, out = mpmath.mpf(0), mpmath.mpf(0), []
        for k, x in enumerate(values, start=1):
            s += mpmath.mpf(float(x))
            log_sum += mpmath.log(s / (k * mpmath.mpf(mu)))
            out.append(float(log_sum / (mpmath.mpf(gam) * mpmath.sqrt(k))))
    return np.array(out)


class TestHeavySpecRw:
    """Specs whose draws sit far below mu, so S_k/(k mu) is tiny.

    log1p of the centred increment rounds such ratios to -1 and gives
    -inf; the statistic must stay finite and accurate.
    """

    HEAVY = ["lognormal:0:20", "gamma:0.001:1"]

    @pytest.mark.parametrize("dist", HEAVY)
    def test_asclt_finite_and_exact(self, dist, tmp_path, monkeypatch):
        seen = []

        class Recording(LogAvgAccumulator):
            def accumulate(self, n, t):
                seen.append(np.atleast_1d(np.array(t, dtype=float)))
                return super().accumulate(n, t)

        monkeypatch.setattr(asclt_module, "LogAvgAccumulator", Recording)
        out = tmp_path / "a.csv"
        assert run_cli(["asclt", "--dist", dist, "--stat", "rw", "--N", "200",
                        "--seed", "3", "--out", str(out)]) == 0
        a_n = [float(line.split(",")[1]) for line in out.read_text().split("\n")[1:-1]]
        assert len(a_n) == 19 and all(math.isfinite(a) for a in a_n)
        spec = parse_dist(dist)
        mu, _, gam = moments(spec)
        want = rw_oracle(sample(spec, 200, 3, 0).values, mu, gam)[1:]
        got = np.concatenate(seen)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("dist", HEAVY)
    def test_clt_finite_and_exact(self, dist, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(["clt", "--dist", dist, "--stat", "rw", "--n", "5,60",
                        "--reps", "12", "--seed", "4", "--out", str(out)]) == 0
        spec = parse_dist(dist)
        mu, _, gam = moments(spec)
        for i, line in enumerate(out.read_text().split("\n")[1:-1]):
            n, _, ks, mean, sd = line.split(",")[:5]
            assert all(math.isfinite(float(x)) for x in (ks, mean, sd))
            want = math.fsum(
                rw_oracle(sample(spec, int(n), 4, (i << 32) + r).values, mu, gam)[-1]
                for r in range(12)
            ) / 12
            assert abs(float(mean) - want) <= 1e-12 * abs(want)


class TestCltCommand:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(
            ["clt", "--dist", "exponential:1", "--stat", "loo",
             "--n", "10,30,90", "--reps", "40", "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,M,ks,mean,sd,mean_remainder,mean_maxdev,seconds"
        assert len(lines) == 4
        err = capsys.readouterr().err
        assert "clt config:" in err and '"baseSeed": 42' in err

    def test_default_seed_documented_constant(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["clt", "--dist", "exponential:1", "--stat", "std",
                "--n", "10", "--reps", "20"]
        assert run_cli(base + ["--out", str(a)]) == 0
        assert run_cli(base + ["--seed", "0", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_emit_config_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(
            ["clt", "--dist", "gamma:4:0.5", "--stat", "rw", "--n", "5,20",
             "--reps", "30", "--seed", "9", "--out", str(a),
             "--emit-config", str(cfg)]
        ) == 0
        saved = json.loads(cfg.read_text())
        assert saved["spec"] == "gamma:4:0.5" and saved["baseSeed"] == 9
        assert run_cli(["clt", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "spec": "exponential:1", "kind": "std", "nList": "10",
            "M": 50, "baseSeed": 1, "compareLaw": None, "workers": 1,
        }))
        out = tmp_path / "o.csv"
        assert run_cli(["clt", "--config", str(cfg), "--reps", "7",
                        "--out", str(out)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[1] == "7"

    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli(["clt", "--config", str(cfg)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command,config,key", [
        ("clt", {"spec": 5, "kind": "std", "nList": "10"}, "spec"),
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": 10}, "nList"),
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": "10", "M": [3]}, "M"),
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": [10],
                 "workers": {"n": 2}}, "workers"),
        ("slln", {"spec": ["exponential", 1], "nList": "10"}, "spec"),
        ("slln", {"spec": "exponential:1", "nList": 100}, "nList"),
        ("slln", {"spec": "exponential:1", "nList": "10", "baseSeed": [1]}, "baseSeed"),
        ("asclt", {"spec": "exponential:1", "kind": "std", "N": [100]}, "N"),
        ("asclt", {"spec": "exponential:1", "kind": "std", "N": 100, "grid": 0.5},
         "grid"),
        # integer fields refuse bools and non-integral numbers
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": "10", "M": True}, "M"),
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": "10", "M": 2.7}, "M"),
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": [10, 20.5]}, "nList"),
        ("clt", {"spec": "exponential:1", "kind": "std", "nList": "10",
                 "workers": 1.5}, "workers"),
        ("slln", {"spec": "exponential:1", "nList": "10", "baseSeed": False}, "baseSeed"),
        ("asclt", {"spec": "exponential:1", "kind": "std", "N": 100.5}, "N"),
        ("asclt", {"spec": "exponential:1", "kind": "loo", "N": 100,
                   "exactCutoff": True}, "exactCutoff"),
    ])
    def test_wrong_typed_config_value(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"error: invalid {key!r}" in captured.err
        assert captured.out == ""

    def test_integral_float_config_value_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"spec": "exponential:1", "kind": "std", "nList": [10.0], "M": 7.0}
        ))
        out = tmp_path / "o.csv"
        assert run_cli(["clt", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].startswith("10,7,")

    def test_law_override(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli(
            ["clt", "--dist", "exponential:1", "--stat", "loo", "--n", "20",
             "--reps", "30", "--law", "expnorm", "--out", str(out)]
        ) == 0

    def test_plot_script(self, tmp_path):
        out, gp = tmp_path / "o.csv", tmp_path / "o.gp"
        assert run_cli(
            ["clt", "--dist", "exponential:1", "--stat", "std", "--n", "10,20",
             "--reps", "10", "--out", str(out), "--plot", str(gp)]
        ) == 0
        script = gp.read_text()
        assert "logscale" in script and str(out) in script

    def test_plot_needs_out(self, capsys):
        # refused before any work: nothing is computed or printed
        assert run_cli(
            ["clt", "--dist", "exponential:1", "--stat", "std", "--n", "10",
             "--reps", "5", "--plot", "x.gp"]
        ) == 2
        assert run_cli(
            ["asclt", "--dist", "exponential:1", "--stat", "std", "--N", "100",
             "--plot", "x.gp"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--plot needs --out" in captured.err

    def test_plot_refuses_empty_report(self, tmp_path):
        from prodsums import ExperimentConfig, LimitLaw, make_distribution
        from prodsums.cli import emit_plot_script
        from prodsums.montecarlo import ConvergenceReport

        cfg = ExperimentConfig(
            make_distribution("exponential", [1.0]), "std", (10,), 1, 0
        )
        empty = ConvergenceReport(config=cfg, law=LimitLaw("n01"), rows=())
        with pytest.raises(ValueError, match="empty report"):
            emit_plot_script(empty, "r.csv", str(tmp_path / "r.gp"))


class TestAscltCommand:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = run_cli(
            ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "500",
             "--seed", "7", "--exact-cutoff", "100", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,A_N,F_limit,gap"
        assert len(lines) == 20  # 19-point default grid
        assert "sup-gap=" in capsys.readouterr().err

    def test_workers_flag_below_one_is_exit_1(self, capsys):
        assert run_cli(["asclt", "--dist", "exponential:1", "--stat", "std", "--N", "100",
                        "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert "error: workers must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["clt", "asclt"])
    def test_workers_config_below_one_fails_alike(self, tmp_path, capsys, command):
        # one config file serves both commands and fails the same way under each
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": "exponential:1", "kind": "std", "nList": [10],
                                   "N": 100, "workers": -3}))
        assert run_cli([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "error: workers must be >= 1" in captured.err
        assert captured.out == ""

    def test_custom_grid(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run_cli(
            ["asclt", "--dist", "exponential:1", "--stat", "std", "--N", "100",
             "--grid=-1,0,1", "--out", str(out)]
        ) == 0
        assert len(out.read_text().strip().split("\n")) == 4

    def test_negative_grid_needs_the_equals_form(self, tmp_path, capsys):
        # argparse reads "-1,0,1" as an option, so the help names the = form
        out = tmp_path / "a.csv"
        assert run_cli(["asclt", "--dist", "exponential:1", "--stat", "std", "--N", "100",
                        "--grid", "-1,0,1", "--out", str(out)]) == 2
        assert "argument --grid: expected one argument" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["asclt", "--help"]) == 0
        assert "--grid=-1,0,1" in capsys.readouterr().out

    def test_round_trip(self, tmp_path):
        cfg, a, b = tmp_path / "c.json", tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(
            ["asclt", "--dist", "exponential:1", "--stat", "rw", "--N", "300",
             "--seed", "3", "--out", str(a), "--emit-config", str(cfg)]
        ) == 0
        assert run_cli(["asclt", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_overflowing_series_falls_back(self, tmp_path, capsys):
        # the centred draws of this spec square past the double range, but
        # the series reads the sums of (X - mu)/mu, so no step falls back
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["asclt", "--dist", "twopoint:1:1e300:0.5", "--stat", "loo", "--N", "3000"]
        assert run_cli([*args, "--out", str(a)]) == 0
        err = capsys.readouterr().err
        assert "sup-gap=0.620078" in err and "fallbacks=0" in err
        assert run_cli([*args, "--exact-cutoff", "3000", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_mode_line_counts_the_exact_steps(self, tmp_path, capsys):
        # a grid point on the value of step 1500 sends that step to the
        # exact kernel; the benchmark parses the line up to "fallbacks="
        on_grid = loo_log_statistic(sample(parse_dist("exponential:1"), 1500, 5, 0), 1.0, 1.0)
        args = ["asclt", "--dist", "exponential:1", "--N", "3000", "--seed", "5",
                "--exact-cutoff", "100", f"--grid=-1,{on_grid!r},1", "--out", str(tmp_path / "a.csv")]
        assert run_cli([*args, "--stat", "loo"]) == 0
        assert "series from n=101 fallbacks=1 exact=1\n" in capsys.readouterr().err
        assert run_cli([*args, "--exact-cutoff", "3000", "--stat", "loo"]) == 0
        assert "series from n=None fallbacks=0 exact=1\n" in capsys.readouterr().err
        assert run_cli([*args, "--stat", "rw"]) == 0
        assert "series from n=None fallbacks=0 exact=0\n" in capsys.readouterr().err

    def test_nan_grid_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        args = ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "100", "--out", str(out)]
        for grid in ("nan", "-1,nan,1"):
            assert run_cli([*args, f"--grid={grid}"]) == 1
            assert "error: grid must be strictly increasing, with no NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 728. TiB for an array"), "error: Unable to allocate 728. TiB"),
        (MemoryError(), "error: MemoryError"),
    ])
    def test_memory_error_is_exit_1(self, monkeypatch, capsys, exc, message):
        # the walk holds one chunk at a time, so the chunk source raises
        def sample_chunks(*args):
            raise exc

        monkeypatch.setattr(asclt_module, "sample_chunks", sample_chunks)
        args = ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "100"]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_absurd_n_is_exit_1(self, capsys):
        # with bounded memory such a run would not fail: it would run for months
        args = ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "100000000000000"]
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert f"error: n_max must be from 2 to {asclt_module.MAX_N}, got 100000000000000" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_plot_script(self, tmp_path):
        out, gp = tmp_path / "a.csv", tmp_path / "a.gp"
        assert run_cli(
            ["asclt", "--dist", "exponential:1", "--stat", "std", "--N", "100",
             "--out", str(out), "--plot", str(gp)]
        ) == 0
        script = gp.read_text()
        assert "A_N" in script and str(out) in script


class TestSllnCommand:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["slln", "--dist", "exponential:1", "--n", "100,1000", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,gm_prefix,err_prefix,gm_loo,err_loo"
        assert len(lines) == 3

    def test_absurd_n_is_exit_1(self, capsys):
        # with bounded memory such a run would not fail: it would run for hours
        assert run_cli(["slln", "--dist", "exponential:1", "--n", "1000,20000000000"]) == 1
        captured = capsys.readouterr()
        assert f"error: n_max must be from 2 to {asclt_module.MAX_N}, got 20000000000" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err


class TestRunnerSeam:
    def test_commands_call_runners_through_module_globals(self, monkeypatch, tmp_path):
        # the CLI looks the runners up at call time, so wrapping the module
        # attributes (as the benchmark's tracer does) sees every call
        import prodsums.cli as cli

        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "run_clt_experiment",
                            spy("clt", cli.run_clt_experiment))
        monkeypatch.setattr(cli, "run_asclt_path", spy("asclt", cli.run_asclt_path))
        out = str(tmp_path / "o.csv")
        assert main(["clt", "--dist", "exponential:1", "--stat", "std", "--n", "10",
                     "--reps", "5", "--out", out]) == 0
        assert main(["asclt", "--dist", "exponential:1", "--stat", "std",
                     "--N", "50", "--out", out]) == 0
        assert calls == ["clt", "asclt"]


class TestIdentityCommand:
    def test_reps_must_be_positive(self, capsys):
        code = run_cli(
            ["identity", "--dist", "exponential:1", "--n", "100", "--reps", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--reps must be >= 1" in captured.err
        assert captured.out == ""

    def test_out_is_refused(self, tmp_path, capsys):
        # the command prints one line; an --out it would ignore is a usage error
        out = tmp_path / "x.csv"
        code = run_cli(["identity", "--dist", "exponential:1", "--n", "10", "--reps", "3",
                        "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and "unrecognized arguments: --out" in captured.err
        assert captured.out == "" and not out.exists()

    def test_exponential_passes(self, capsys):
        code = run_cli(
            ["identity", "--dist", "exponential:1", "--n", "1000", "--reps", "100"]
        )
        assert code == 0
        assert "max |linearized - standardized|" in capsys.readouterr().out

    def test_gamma_passes(self):
        assert run_cli(
            ["identity", "--dist", "gamma:4:0.5", "--n", "10000", "--reps", "100"]
        ) == 0

    def test_mu_override_fails(self, capsys):
        code = run_cli(
            ["identity", "--dist", "exponential:1", "--n", "500", "--reps", "20",
             "--mu-override", "1.1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        printed = float(out.strip().split("=")[1].split("over")[0])
        assert printed > 1e-10

    @pytest.mark.parametrize("override", ["0", "-1"])
    def test_nonpositive_mu_override(self, capsys, override):
        code = run_cli(["identity", "--dist", "exponential:1", "--n", "10", "--reps", "3",
                        "--mu-override", override])
        assert code == 1
        assert "error: mu and gamma must be positive" in capsys.readouterr().err


    @pytest.mark.parametrize("args", [
        ["--dist", "exponential:1"],
        ["--dist", "gamma:4:0.5", "--seed", "7"],
        ["--dist", "exponential:1", "--mu-override", "1.1"],
    ])
    def test_matches_per_path_loop(self, capsys, monkeypatch, args):
        # the per-replicate loop the batched command replaced; 700 paths
        # of n = 100 span three batches
        n, reps = 100, 700
        streams = []

        def recording(spec, n, base_seed, indices, out=None):
            streams.append(list(indices))
            return sample_rows(spec, n, base_seed, indices, out)

        # identity batches through the clt sampler loop
        monkeypatch.setattr(montecarlo_module, "sample_rows", recording)
        code = run_cli(["identity", *args, "--n", str(n), "--reps", str(reps)])
        assert len(streams) == 3 and sum(streams, []) == list(range(reps))
        opts = dict(zip(args[::2], args[1::2]))
        spec = parse_dist(opts["--dist"])
        mu, sigma, gam = moments(spec)
        lin_mu = float(opts.get("--mu-override", mu))
        lin_gam = gam if "--mu-override" not in opts else sigma / lin_mu
        worst = 0.0
        for r in range(reps):
            path = sample(spec, n, int(opts.get("--seed", 0)), r)
            gap = linearized_statistic(path, lin_mu, lin_gam) - standardized_sum(path, mu, sigma)
            worst = max(worst, abs(gap))
        assert capsys.readouterr().out == (
            f"max |linearized - standardized| = {worst:.3e} over {reps} paths\n")
        assert code == (0 if worst <= IDENTITY_TOLERANCE else 1)


class TestDistTable:
    def test_default_showcase(self, capsys):
        assert run_cli(["dist-table"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "family,params,mu,sigma,gamma"
        assert len(lines) == 6

    def test_explicit_dists(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(
            ["dist-table", "--dist", "exponential:2", "--dist", "uniform:1:3",
             "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1].startswith("exponential,2.0,0.5,0.5,1.0")
        assert lines[2].startswith("uniform,1.0:3.0,2.0,")

    def test_invalid_dist_exit_1(self):
        assert run_cli(["dist-table", "--dist", "uniform:3:1"]) == 1

    def test_bad_later_dist_writes_no_file(self, tmp_path, capsys):
        # every spec is parsed before --out is opened, so nothing is created
        # or truncated
        out, kept = tmp_path / "f.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        for path in (out, kept):
            assert run_cli(["dist-table", "--dist", "exponential:1", "--dist", "twopoint:1:2:1",
                            "--out", str(path)]) == 1
            assert "error: twopoint requires 0 < p_low < 1" in capsys.readouterr().err
        assert not out.exists() and kept.read_text() == "old\n"
