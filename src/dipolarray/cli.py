"""Command-line entry points: run, sweep, verify, spectrum-scan, fit.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 solver or fit
failure (partial outputs preserved on disk), 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

import numpy as np

from .analysis import DecayTrace, fit_stretched
from .config import ConfigError, RunConfig, SweepConfig
from .couplings import SCAN_RETRIES, spectrum_scan
from .geometry import DisorderSpec, EmptyRealizationError, LatticeSpec
from .runner import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    PLOT_PRESETS,
    MissingOutputsError,
    SolverFailure,
    VerificationError,
    emit_plot_data,
    run,
    sweep,
    verify,
)
from .tableio import read_table, write_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolarray",
        description="Collective-emission simulator for 2d sub-wavelength atom arrays.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log solver progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one configured run")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--outdir", help="write outputs here instead of the config outdir")
    p.add_argument("--seed", type=int,
                   help="replace the master seed (recorded in the bundle config)")
    p.add_argument("--plots", default="",
                   help="comma-separated plot presets to emit; choices: "
                        + ", ".join(PLOT_PRESETS))

    p = sub.add_parser("sweep", help="run a family of configs along one axis")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--outdir", help="write outputs here instead of the config outdir")
    p.add_argument("--workers", type=int, help="concurrent sweep points")
    p.add_argument("--plots", default="",
                   help="comma-separated plot presets to emit; choices: "
                        + ", ".join(PLOT_PRESETS))

    p = sub.add_parser("verify", help="check a bundle: hashes, then a re-run")
    p.add_argument("outdir", help="bundle directory containing manifest.json")
    p.add_argument("--no-rerun", action="store_true",
                   help="only recompute file hashes, skip the re-run")

    p = sub.add_parser("spectrum-scan",
                       help="jump-spectrum statistics versus lattice spacing")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--spacing-min", type=float, required=True,
                   help="first spacing, in wavelengths")
    p.add_argument("--spacing-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True, help="spacing increment")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="positional disorder width, in wavelengths")
    p.add_argument("--in-plane-only", action="store_true",
                   help="suppress out-of-plane disorder")
    p.add_argument("--fill", type=float, default=1.0, help="site filling probability")
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output table path")

    p = sub.add_parser("fit", help="fit stretched exponentials to a decay trace")
    p.add_argument("trace", help="trace table with columns t and n_excited")
    p.add_argument("--terms", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--window", type=float, help="fit only times <= window")
    p.add_argument("--resamples", type=int, default=500,
                   help="bootstrap resamples (0 disables)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the fitted curve to this table")
    return parser


def _parse_presets(arg: str, kind: str, axis: str | None = None) -> list:
    """The `--plots` presets, each refused unless the `kind` bundle the
    command writes (a sweep's along `axis`) holds what it reads."""
    presets = [s.strip() for s in arg.split(",") if s.strip()]
    for preset in presets:
        if preset not in PLOT_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choices: "
                              + ", ".join(PLOT_PRESETS), "--plots")
        want_kind, want_axis = PLOT_PRESETS[preset]
        if want_kind != kind:
            raise ConfigError(f"preset {preset!r} reads a {want_kind} bundle, "
                              f"not a {kind} bundle", "--plots")
        if want_axis != axis:
            raise ConfigError(f"preset {preset!r} reads a sweep over {want_axis}, "
                              f"not over {axis}", "--plots")
    return presets


def _cmd_run(args) -> int:
    presets = _parse_presets(args.plots, "run")
    config = RunConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    bundle = run(config, outdir=args.outdir)
    for preset in presets:
        emit_plot_data(bundle.outdir, preset)
    status = bundle.manifest["status"]
    print(f"run '{config.label}' -> {bundle.outdir} (status: {status})")
    if bundle.manifest["failures"]:
        for line in bundle.manifest["failures"]:
            print(f"  failed realization {line}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sweep_config = SweepConfig.load(args.config)
    presets = _parse_presets(args.plots, "sweep", sweep_config.axis)
    bundle = sweep(sweep_config, outdir=args.outdir, workers=args.workers)
    for preset in presets:
        emit_plot_data(bundle.outdir, preset)
    failed = bundle.analysis["failed_points"]
    status = bundle.manifest["status"]
    print(f"sweep over {sweep_config.axis} -> {bundle.outdir} (status: {status})")
    if failed:
        for i in failed:
            print(f"  point {i} failed: {bundle.analysis['errors'][str(i)]}",
                  file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = verify(args.outdir, rerun=not args.no_rerun)
    note = "re-run reproduced every file" if result["rerun"] else "re-run skipped"
    print(f"verified {result['files_checked']} files in {args.outdir}; {note}")
    return EXIT_OK


def _cmd_spectrum_scan(args) -> int:
    if args.spacing_min <= 0 or args.step <= 0:
        raise ConfigError("spacing-min and step must be positive", "spectrum-scan")
    if args.spacing_max < args.spacing_min:
        raise ConfigError("spacing-max must be >= spacing-min", "spectrum-scan")
    spacings = np.arange(args.spacing_min, args.spacing_max + args.step / 2, args.step)
    spec = LatticeSpec(rows=args.rows, cols=args.cols, spacing=float(spacings[0]),
                       fill_probability=args.fill)
    disorder = DisorderSpec(sigma=args.sigma, in_plane_only=args.in_plane_only)
    try:
        scan = spectrum_scan(spec, spacings, disorder, realizations=args.realizations,
                             master_seed=args.seed)
    except EmptyRealizationError:
        print(f"solver failure: none of {SCAN_RETRIES + 1} loading draws placed an "
              f"atom (fill {args.fill:g})", file=sys.stderr)
        return EXIT_SOLVER
    write_table(args.out, scan,
                {"rows": args.rows, "cols": args.cols, "sigma": args.sigma,
                 "fill": args.fill, "realizations": args.realizations,
                 "seed": args.seed})
    print(f"spectrum scan ({spacings.size} spacings) -> {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    cols, _ = read_table(args.trace)
    for name in ("t", "n_excited"):
        if name not in cols:
            raise ConfigError(f"trace table lacks a {name!r} column", args.trace)
    trace = DecayTrace(times=cols["t"], n_excited=cols["n_excited"])
    try:  # a start whose cost overflows is discarded, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            fit = fit_stretched(trace, args.terms, window=args.window,
                                n_resamples=args.resamples, seed=args.seed)
    except RuntimeError as exc:  # no fit start reached a finite cost
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(fit.report())
    if args.out:
        write_table(args.out, fit.to_columns(), {"source": args.trace, "terms": args.terms})
        print(f"fitted curve -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "spectrum-scan": _cmd_spectrum_scan,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    # ConfigError is a ValueError; plain ValueError covers bad analysis
    # inputs (too few points for a fit, malformed tables, ...).
    except (ValueError, MissingOutputsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VerificationError as exc:
        print("verification failed:", file=sys.stderr)
        for line in exc.mismatches:
            print(f"  {line}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
