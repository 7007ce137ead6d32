"""Command-line interface.

Subcommands::

    clt         many-replication convergence experiment -> CSV report
    asclt       single-trajectory logarithmic-average run -> grid CSV
    slln        geometric means of one path at checkpoints -> CSV
    identity    linearized-vs-standardized agreement check
    dist-table  analytic moments of one or more distributions

Distributions are written ``family:param1[:param2[:param3]]``, for
example ``exponential:1`` or ``gamma:4:0.5``.  Every run echoes its
fully resolved configuration as JSON on stderr so results can be
reproduced exactly; seeds default to a fixed constant rather than the
clock.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

import numpy as np

from .asclt import ASCLT_KINDS, MAX_N, AscltReport, run_asclt_path, run_slln_experiment
from .distributions import DistributionSpec, _integer, make_distribution, moments
from .limits import LAW_TAGS, LimitLaw
from .montecarlo import (
    ConvergenceReport,
    ExperimentConfig,
    _sample_batches,
    run_clt_experiment,
)
from .statistics import STATISTIC_KINDS

__all__ = ["main", "entrypoint", "parse_dist", "emit_plot_script"]

DEFAULT_SEED = 0  # fixed, documented; reproducibility by default
IDENTITY_TOLERANCE = 1e-10


def parse_dist(text: str) -> DistributionSpec:
    """Parse the ``family:p1[:p2[:p3]]`` grammar into a validated spec."""
    if not isinstance(text, str):
        raise TypeError(f"expected a distribution like 'exponential:1', got {text!r}")
    parts = text.split(":")
    family, raw = parts[0], parts[1:]
    try:
        params = [float(p) for p in raw]
    except ValueError:
        raise ValueError(f"malformed distribution {text!r}: parameters must be numbers")
    return make_distribution(family, params)


def _split(cast):
    """Coercer for a comma-separated flag string or a config-file list."""
    def coerce(value) -> tuple:
        items = value.split(",") if isinstance(value, str) else value
        return tuple(cast(p) for p in items)

    return coerce


_REQUIRED = object()  # field default: the value must come from a flag or the config

# per command: (flag attribute, config key, default, coercer); a coercer
# takes a flag value or a config-file value and raises TypeError or
# ValueError on anything it cannot turn into the typed value
_CLT_FIELDS = (
    ("dist", "spec", _REQUIRED, parse_dist),
    ("stat", "kind", _REQUIRED, str),
    ("n", "nList", _REQUIRED, _split(_integer)),
    ("reps", "M", 1000, _integer),
    ("seed", "baseSeed", DEFAULT_SEED, _integer),
    ("law", "compareLaw", None, str),
    ("workers", "workers", 1, _integer),
)
_ASCLT_FIELDS = (
    ("dist", "spec", _REQUIRED, parse_dist),
    ("stat", "kind", _REQUIRED, str),
    ("N", "N", _REQUIRED, _integer),
    ("seed", "baseSeed", DEFAULT_SEED, _integer),
    ("exact_cutoff", "exactCutoff", 2000, _integer),
    ("grid", "grid", None, _split(float)),
    ("workers", "workers", 1, _integer),  # accepted for symmetry; a single path is sequential
)
_SLLN_FIELDS = (
    ("dist", "spec", _REQUIRED, parse_dist),
    ("n", "nList", _REQUIRED, _split(_integer)),
    ("seed", "baseSeed", DEFAULT_SEED, _integer),
)


def emit_plot_script(report, csv_path: str, out_path: str) -> None:
    """Write a gnuplot script plotting a report's CSV.

    The script is plain text referencing the CSV by path; nothing is
    rendered here.
    """
    if isinstance(report, AscltReport):
        if report.grid.size == 0:
            raise ValueError("cannot plot an empty report")
        body = (
            "set datafile separator ','\n"
            "set key left top\n"
            "set xlabel 'x'\n"
            "set ylabel 'CDF'\n"
            f"plot '{csv_path}' every ::1 using 1:2 with linespoints title 'A_N', \\\n"
            f"     '{csv_path}' every ::1 using 1:3 with lines title 'limit CDF'\n"
        )
    elif isinstance(report, ConvergenceReport):
        if not report.rows:
            raise ValueError("cannot plot an empty report")
        body = (
            "set datafile separator ','\n"
            "set logscale xy\n"
            "set xlabel 'n'\n"
            "set ylabel 'KS distance'\n"
            f"plot '{csv_path}' every ::1 using 1:3 with linespoints title 'KS'\n"
        )
    else:
        raise ValueError(f"cannot plot a report of type {type(report).__name__}")
    with open(out_path, "w") as fh:
        fh.write(body)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON config {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path!r} must contain a JSON object")
    return cfg


def _echo_config(name: str, resolved: dict) -> None:
    print(f"{name} config: {json.dumps(resolved, sort_keys=True)}", file=sys.stderr)


def _resolve(args, parser: argparse.ArgumentParser, fields) -> dict:
    """Merge config-file values under explicit flags (flags win).

    Fills defaults, echoes the resolved config (and writes it for
    ``--emit-config``), then returns each value coerced, by config key.
    Usage errors surface here, before any work is done; a value its
    coercer rejects becomes a ValueError naming the key.
    """
    if getattr(args, "plot", None) and not args.out:
        parser.error("--plot needs --out so the script can reference the CSV")
    cfg = _load_config(args.config) if args.config else {}
    resolved = {}
    for attr, key, default, _ in fields:
        value = getattr(args, attr)
        if value is None:
            value = cfg.get(key)
        if value is None and default is _REQUIRED:
            parser.error(f"missing required value {key!r} (flag or config file)")
        resolved[key] = default if value is None else value
    _echo_config(args.command, resolved)
    if args.emit_config:
        with open(args.emit_config, "w") as fh:
            json.dump(resolved, fh, indent=2, sort_keys=True)
            fh.write("\n")
    values = {}
    for _, key, _, coerce in fields:
        try:
            values[key] = None if resolved[key] is None else coerce(resolved[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid {key!r}: {exc}") from None
    return values


def _open_out(path):
    return open(path, "w") if path else nullcontext(sys.stdout)


def _write_report(args, report, **csv_options) -> None:
    """Write the report's CSV to --out (default stdout), then any --plot script."""
    with _open_out(args.out) as out:
        report.to_csv(out, **csv_options)
    if getattr(args, "plot", None):
        emit_plot_script(report, args.out, args.plot)


def _cmd_clt(args, parser) -> int:
    v = _resolve(args, parser, _CLT_FIELDS)
    tag = v["compareLaw"]
    config = ExperimentConfig(
        spec=v["spec"],
        kind=v["kind"],
        n_list=v["nList"],
        reps=v["M"],
        base_seed=v["baseSeed"],
        compare_law=LimitLaw(tag, moments(v["spec"])[0]) if tag else None,
        workers=v["workers"],
    )
    report = run_clt_experiment(config)
    _write_report(args, report, timing=args.timing)
    for row in report.rows:
        print(
            f"n={row.n} ks={row.ks:.6f} ({row.seconds:.2f}s)",
            file=sys.stderr,
        )
    return 0


def _cmd_asclt(args, parser) -> int:
    v = _resolve(args, parser, _ASCLT_FIELDS)
    if v["workers"] < 1:  # the check clt makes, so one config fails alike in both
        raise ValueError("workers must be >= 1")
    report = run_asclt_path(
        v["spec"],
        v["kind"],
        v["N"],
        v["baseSeed"],
        grid=v["grid"],
        exact_cutoff=v["exactCutoff"],
    )
    _write_report(args, report)
    print(
        f"sup-gap={report.sup_gap:.6f} (logN normalization: {report.sup_gap_logn:.6f}) "
        f"series from n={report.mode_switch_n} fallbacks={report.fallback_count} "
        f"exact={report.exact_steps}",
        file=sys.stderr,
    )
    return 0


def _cmd_slln(args, parser) -> int:
    v = _resolve(args, parser, _SLLN_FIELDS)
    _write_report(args, run_slln_experiment(v["spec"], v["nList"], v["baseSeed"]))
    return 0


def _cmd_identity(args, parser) -> int:
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    resolved = {
        "spec": args.dist, "n": args.n, "reps": args.reps,
        "baseSeed": args.seed if args.seed is not None else DEFAULT_SEED,
        "muOverride": args.mu_override,
    }
    _echo_config("identity", resolved)
    spec = parse_dist(args.dist)
    mu, sigma, gam = moments(spec)
    # a zero override fails the kernel's positivity check like a negative one
    lin_mu, lin_gam = (mu, gam) if args.mu_override is None else (
        args.mu_override, sigma / args.mu_override if args.mu_override else np.nan)
    lin, std = STATISTIC_KINDS["lin"].evaluate, STATISTIC_KINDS["std"].evaluate
    # the largest gap of each batch; a NaN gap makes the check fail
    batches = _sample_batches(spec, args.n, resolved["baseSeed"], range(args.reps))
    gaps = [np.max(np.abs(lin(paths, lin_mu, sigma, lin_gam, work)[0]
                          - std(paths, mu, sigma, gam, work)[0])) for paths, work in batches]
    worst = float(np.max(gaps))
    print(f"max |linearized - standardized| = {worst:.3e} over {args.reps} paths")
    return 0 if worst <= IDENTITY_TOLERANCE else 1


def _cmd_dist_table(args, parser) -> int:
    dists = args.dist or [
        "exponential:1", "gamma:4:0.5", "lognormal:0:0.5",
        "uniform:0.5:1.5", "twopoint:0.5:2:0.5",
    ]
    _echo_config("dist-table", {"dists": dists})
    rows = [(spec, *moments(spec)) for spec in map(parse_dist, dists)]  # before --out is opened
    with _open_out(args.out) as out:
        out.write("family,params,mu,sigma,gamma\n")
        for spec, mu, sigma, gam in rows:
            params = ":".join(repr(p) for p in spec.params)
            out.write(f"{spec.family},{params},{mu!r},{sigma!r},{gam!r}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodsums",
        description="Limit-theorem experiments for products of partial sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_files=True):
        p.add_argument("--seed", type=int, default=None,
                       help=f"base seed (default {DEFAULT_SEED})")
        if with_files:  # identity prints one line and reads no config
            p.add_argument("--out", default=None, help="output CSV path (default stdout)")
            p.add_argument("--config", default=None, help="JSON config file")
            p.add_argument("--emit-config", default=None,
                           help="write the resolved config as JSON to this path")

    p = sub.add_parser("clt", help="many-replication convergence experiment")
    p.add_argument("--dist", default=None, help="family:params, e.g. exponential:1")
    p.add_argument("--stat", default=None, choices=STATISTIC_KINDS)
    p.add_argument("--n", default=None, help="comma-separated path lengths")
    p.add_argument("--reps", type=int, default=None, help="replications per n (default 1000)")
    p.add_argument("--law", default=None, choices=LAW_TAGS,
                   help="comparison law override")
    p.add_argument("--workers", type=int, default=None,
                   help=">= 1; processes, this one included")
    p.add_argument("--timing", action="store_true",
                   help="write each row's replicate wall time, summed over its tasks, into the "
                        "seconds column (default writes 0 so reports are byte-reproducible)")
    p.add_argument("--plot", default=None, help="write a gnuplot script here")
    add_common(p)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("asclt", help="single-trajectory logarithmic average")
    p.add_argument("--dist", default=None)
    p.add_argument("--stat", default=None, choices=ASCLT_KINDS)
    p.add_argument("--N", type=int, default=None, help=f"trajectory length, 2 to {MAX_N:,}")
    p.add_argument("--exact-cutoff", type=int, default=None,
                   help="the n past which loo counts its steps sent to the exact kernel "
                        "(fallbacks); no output depends on it (default 2000)")
    p.add_argument("--grid", default=None,
                   help="comma-separated grid points (default: 19 normal quantiles); "
                        "write --grid=-1,0,1 when the first point is negative")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for config symmetry, >= 1; a single path runs sequentially")
    p.add_argument("--plot", default=None, help="write a gnuplot script here")
    add_common(p)
    p.set_defaults(func=_cmd_asclt)

    p = sub.add_parser("slln", help="geometric means along one path")
    p.add_argument("--dist", default=None)
    p.add_argument("--n", default=None, help="comma-separated checkpoints")
    add_common(p)
    p.set_defaults(func=_cmd_slln)

    p = sub.add_parser("identity", help="linearized-vs-standardized check")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--mu-override", type=float, default=None,
                   help="deliberately wrong mu, to demonstrate failure")
    add_common(p, with_files=False)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("dist-table", help="analytic moments table")
    p.add_argument("--dist", action="append", default=None,
                   help="repeatable; defaults to a showcase of all families")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dist_table)

    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:  # usage errors, from parsing or inside a command
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
