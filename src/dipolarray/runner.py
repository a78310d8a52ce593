"""Run orchestration: solve, persist, verify, sweep, and emit plot data.

Every output is plain text with deterministic formatting; the manifest
records a sha256 per file and no timestamps, so re-running a persisted
config on the same build reproduces the bundle byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DecayTrace,
    analytic_independent_spin,
    connected_correlations,
    fit_stretched,
    instantaneous_rate,
    resonance_deviation,
    subradiant_tail,
)
from .config import ConfigError, RunConfig, SweepConfig
from .couplings import coupling_matrices, spectrum_percentiles
from .couplings import spectrum_scan  # rebound by perfbench/tracing.py
from .cumulant import ClosureBlowupError, evolve_cumulant
from .exact import IntegrationFailureError, ObservableTrace, evolve_exact
from .geometry import EmptyRealizationError, build_array
from .seeding import STREAM_BOOTSTRAP, STREAM_ENSEMBLE, STREAM_MOTION, derive_seed, rng_for
from .tableio import read_table, write_table

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Each plot preset's bundle kind and, for a sweep bundle, the axis it reads.
PLOT_PRESETS = {"decay": ("run", None), "rate": ("run", None),
                "correlations": ("run", None), "scaling": ("sweep", "atom_number"),
                "spacing": ("sweep", "spacing"), "spin_ssz": ("run", None)}
# Correlation outputs use the contract's default central region.
CORRELATION_CENTER_FRACTION = 0.5

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_SOLVER",
    "EXIT_VERIFY",
    "PLOT_PRESETS",
    "OutputBundle",
    "SolverFailure",
    "VerificationError",
    "MissingOutputsError",
    "ensemble_run",
    "run",
    "sweep",
    "verify",
    "emit_plot_data",
]


class SolverFailure(RuntimeError):
    """Dynamics could not be produced; partial outputs were preserved."""


class VerificationError(RuntimeError):
    def __init__(self, mismatches):
        self.mismatches = list(mismatches)
        super().__init__("; ".join(self.mismatches))


class MissingOutputsError(RuntimeError):
    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__("missing prerequisite outputs: " + ", ".join(self.missing))


@dataclass
class OutputBundle:
    outdir: Path
    manifest: dict
    trace: ObservableTrace | None = None
    analysis: dict | None = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bundle_files(outdir: Path) -> dict:
    """Hash every file in the bundle except the bundle's own manifest.

    Nested manifests (per-point manifests inside a sweep) are included; only
    the top-level one is excluded because it cannot record its own hash.
    """
    files = {}
    for p in sorted(outdir.rglob("*")):
        rel = p.relative_to(outdir).as_posix()
        if p.is_file() and rel != "manifest.json":
            files[rel] = _sha256(p)
    return files


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _new_manifest(kind: str, config, base: RunConfig, **fields) -> dict:
    """Manifest header of a `kind` bundle persisting `config`, whose run
    settings (label, seed, solver) are those of `base`."""
    return {"schema_version": config.schema_version, "package_version": __version__,
            "kind": kind, "label": base.label, "config_sha256": config.config_hash,
            "master_seed": base.master_seed, "solver": base.solver,
            "status": "ok", "error": None, **fields}


def _fresh_outdir(outdir) -> Path:
    """Create `outdir`, refused with ConfigError when it is a file or already
    holds files: the manifest hashes the whole directory, so leftovers would
    be recorded."""
    out = Path(outdir)
    if out.exists() and not out.is_dir():
        raise ConfigError("is not a directory", "outdir")
    if out.is_dir() and any(out.iterdir()):
        raise ConfigError("already holds files; a bundle needs a new or empty directory",
                          "outdir")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(outdir: Path, manifest: dict) -> None:
    manifest["files"] = _bundle_files(outdir)
    _write_json(outdir / "manifest.json", manifest)


def _realization_seeds(config: RunConfig) -> list:
    """The seed of each loading, disorder and motion realization of `config`."""
    return [derive_seed(config.master_seed, STREAM_ENSEMBLE, r)
            for r in range(config.realizations)]


def ensemble_run(config: RunConfig) -> ObservableTrace:
    """Solve every realization of `config` with its solver; returns the trace.

    Realization r draws occupancy and disorder from the seed derived from
    (master_seed, ensemble stream, r) and reseeds the motional sampler from
    it, so results are deterministic in master_seed and independent of any
    execution order.  With one realization the solver's own trace is
    returned: it keeps its snapshots and populations, and its `stderr` is
    None.  Otherwise the trace holds the mean and standard error over the
    successful realizations (NaN when only one succeeds, since one draw
    measures no spread) and their `jump_rates`; failed ones (closure
    blow-up, integrator failure, empty loading draws) are recorded in
    `failures` and excluded.
    Having no successful realization raises RuntimeError.
    """
    times = config.times()
    lattice, disorder, motion = (config.lattice_spec(), config.disorder_spec(),
                                 config.motion_spec())
    drive, init, order = config.drive(), config.initial_state_spec(), config.closure_order()
    solve = dict(rtol=config.rtol, atol=config.atol,
                 snapshot_times=config.correlation_times)
    traces, failures = [], []
    for r, seed in enumerate(_realization_seeds(config)):
        try:
            array = build_array(lattice, disorder=disorder, drive=drive, seed=seed)
            motion_r = None if motion is None else dataclasses.replace(
                motion, seed=derive_seed(seed, STREAM_MOTION))
            cpl = coupling_matrices(array, motion=motion_r)
            if config.solver == "exact":
                traces.append(evolve_exact(init, array, cpl, times, **solve))
            else:
                traces.append(evolve_cumulant(init, array, cpl, order, times, **solve))
        except (ClosureBlowupError, IntegrationFailureError, EmptyRealizationError) as err:
            failures.append((r, f"{type(err).__name__}: {err}"))
    if not traces:
        raise RuntimeError(
            f"all {config.realizations} realizations failed; first: {failures[0][1]}")
    if config.realizations == 1:
        return traces[0]

    k = len(traces)
    stacks = {key: np.stack([getattr(trace, key) for trace in traces])
              for key in ("n_excited", "emission_rate", "s_z", "m_perp_sq")}
    errs = {key: stack.std(axis=0, ddof=1) / np.sqrt(k) if k > 1
            else np.full_like(stack[0], np.nan) for key, stack in stacks.items()}
    means = {key: stack.mean(axis=0) for key, stack in stacks.items()}
    return ObservableTrace(times=times, **means,
                           n_atoms=float(np.mean([trace.n_atoms for trace in traces])),
                           n_realizations=k, stderr=errs, failures=tuple(failures),
                           clamped_points=sum(trace.clamped_points for trace in traces),
                           jump_rates=sum((trace.jump_rates for trace in traces), ()))


def _analysis_summary(trace) -> dict:
    t = trace.times
    n_e = trace.n_excited
    gamma = trace.gamma_normalized
    summary: dict = {
        "initial_gamma_normalized": float(gamma[0]) if np.isfinite(gamma[0]) else None,
        "final_fraction": float(n_e[-1] / n_e[0]) if n_e[0] > 0 else None,
    }
    if np.any(np.isfinite(gamma)):
        k = int(np.nanargmax(gamma))
        summary["peak_gamma_normalized"] = float(gamma[k])
        summary["t_peak"] = float(t[k])
    else:
        summary["peak_gamma_normalized"] = None
        summary["t_peak"] = None
    if n_e[0] > 0 and n_e[1] > 0:
        summary["initial_rate_estimate"] = instantaneous_rate(n_e[0], n_e[1], t[1] - t[0])
    else:
        summary["initial_rate_estimate"] = None
    try:
        summary["tail_rate"] = subradiant_tail(DecayTrace.from_run(trace))
    except ValueError as exc:
        summary["tail_rate"] = None
        summary["tail_rate_error"] = str(exc)
    return summary


def run(config: RunConfig, outdir=None) -> OutputBundle:
    """Execute one run and persist the bundle under a new or empty `outdir`.

    Writes config.json, trace.csv, spin.csv, optional correlations.csv and
    fit outputs, analysis.json, and a manifest with sha256 hashes of every
    file.  Solver failures still write config and manifest (status
    "solver_failure") before raising SolverFailure.  A fit or correlation map
    that cannot be formed is left out, its error recorded in analysis.json,
    and the status set to "partial".
    """
    out = _fresh_outdir(outdir if outdir is not None else config.outdir)
    config.save(out / "config.json")
    manifest = _new_manifest("run", config, config, failures=[], clamped_points=0,
                             realization_seeds=[], n_atoms=None)
    logger.info("run %s: %s solver", config.label, config.solver)
    start = time.perf_counter()
    try:
        trace = ensemble_run(config)
    except RuntimeError as exc:
        # Every realization failed (closure blow-up, integrator collapse or an
        # empty loading draw); partial outputs stay on disk with the reason.
        manifest["status"] = "solver_failure"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write_manifest(out, manifest)
        raise SolverFailure(manifest["error"]) from exc

    logger.info("run %s: solved %g atoms in %.3f s", config.label, trace.n_atoms,
                time.perf_counter() - start)
    manifest["realization_seeds"] = _realization_seeds(config)
    manifest["n_atoms"] = float(trace.n_atoms)
    manifest["failures"] = [f"{r}: {msg}" for r, msg in trace.failures]
    manifest["clamped_points"] = int(trace.clamped_points)
    if manifest["failures"]:
        manifest["status"] = "partial"

    meta = {
        "label": config.label, "solver": config.solver,
        "closure_alpha": config.closure_alpha, "n_atoms": float(trace.n_atoms),
        "realizations": config.realizations, "time_unit": "tau",
        "rate_unit": "gamma0", "wavelength_nm": config.wavelength_nm,
        "lifetime_us": config.lifetime_us,
    }
    cols = {"t": trace.times, "n_excited": trace.n_excited,
            "emission_rate": trace.emission_rate,
            "gamma_normalized": trace.gamma_normalized,
            "s_z": trace.s_z, "m_perp_sq": trace.m_perp_sq}
    if trace.stderr is not None:
        for key, err in trace.stderr.items():
            cols[f"stderr_{key}"] = err
    write_table(out / "trace.csv", cols, meta)
    s_tot = np.sqrt(np.maximum(cols["m_perp_sq"], 0.0) + cols["s_z"] ** 2)
    write_table(out / "spin.csv",
                {"t": cols["t"], "s_z": cols["s_z"], "m_perp_sq": cols["m_perp_sq"],
                 "s_tot": s_tot},
                {"label": config.label, "n_atoms": float(trace.n_atoms)})

    analysis = _analysis_summary(trace)
    if trace.snapshots:
        try:
            parts = []
            for t, snap in sorted(trace.snapshots.items()):
                cmap = connected_correlations(snap["sites"], snap["pair_populations"],
                                              snap["populations"],
                                              center_fraction=CORRELATION_CENTER_FRACTION)
                parts.append(dict(time=np.full(len(cmap.values), t), **cmap.to_columns()))
        except ValueError as exc:
            # e.g. a sparse loading that leaves the central region empty
            analysis["correlations_error"] = str(exc)
            manifest["status"] = "partial"
            logger.info("run %s: correlations failed: %s", config.label, exc)
        else:
            write_table(out / "correlations.csv",
                        {key: np.concatenate([part[key] for part in parts])
                         for key in parts[0]},
                        {"center_fraction": CORRELATION_CENTER_FRACTION,
                         "label": config.label})

    if config.fit_terms:
        start = time.perf_counter()
        try:
            fit = fit_stretched(DecayTrace.from_run(trace), config.fit_terms,
                                window=config.fit_window,
                                n_resamples=config.fit_resamples,
                                seed=config.master_seed)
            (out / "fit_report.txt").write_text(fit.report() + "\n")
            write_table(out / "fit_curve.csv", fit.to_columns(), {"label": config.label})
            analysis["fit"] = {
                "terms": [list(term) for term in fit.model.terms],
                "rms_residual": fit.rms_residual,
                "n_resamples": fit.n_resamples,
            }
            logger.info("run %s: fitted %d term(s) with %d resamples (%d converged) "
                        "in %.3f s", config.label, config.fit_terms, fit.n_resamples,
                        fit.n_converged, time.perf_counter() - start)
        except (RuntimeError, ValueError) as exc:
            analysis["fit"] = None
            analysis["fit_error"] = str(exc)
            manifest["status"] = "partial"
            logger.info("run %s: fit failed: %s", config.label, exc)
    _write_json(out / "analysis.json", analysis)

    _write_manifest(out, manifest)
    logger.info("run %s: wrote %d files to %s (status %s)", config.label,
                len(manifest["files"]), out, manifest["status"])
    return OutputBundle(outdir=out, manifest=manifest, trace=trace, analysis=analysis)


# ------------------------------------------------------------------ sweep

# sweep.csv columns every axis has; spacing sweeps add resonance_deviation,
# disorder sweeps the spectrum percentiles, and each row ends with its status.
_SWEEP_COLUMNS = ("value", "n_atoms", "peak_gamma_normalized", "t_peak",
                  "initial_gamma_normalized", "initial_rate_estimate", "tail_rate",
                  "final_fraction", "peak_rate_per_atom")
_SPECTRUM_COLUMNS = ("var_rate_median", "var_rate_p25", "var_rate_p75",
                     "max_rate_median", "max_rate_p25", "max_rate_p75")


def _sweep_point(args) -> dict:
    """Run one sweep point in isolation; never raises (status in the row).

    The row status is the point bundle's ("ok" or "partial"), or "failed"
    when the point raised.  The point config is built here, inside the
    worker, so that a value the per-run validation rejects still only fails
    its own row.
    """
    sweep_json, index, point_dir, axis, value = args
    row = dict.fromkeys(_SWEEP_COLUMNS + ("resonance_deviation",) + _SPECTRUM_COLUMNS)
    row.update(value=value, status="ok", error=None)
    try:
        # The persisted point config records a bundle-relative outdir so a
        # verification re-run in another directory is byte-identical.
        config = SweepConfig.from_json(sweep_json).point_config(
            index, f"points/{index:03d}")
        bundle = run(config, outdir=point_dir)
        row["status"] = bundle.manifest["status"]
        trace = bundle.trace
        row["n_atoms"] = float(trace.n_atoms)
        # the run's analysis summary fills the headline columns
        row.update((key, bundle.analysis[key]) for key in row.keys() & bundle.analysis.keys())
        row["peak_rate_per_atom"] = float(np.max(trace.emission_rate) / trace.n_atoms)
        if axis == "spacing":
            row["resonance_deviation"] = resonance_deviation(DecayTrace.from_run(trace))
        elif axis == "disorder_sigma":
            row.update(spectrum_percentiles(trace.jump_rates))
    except Exception as exc:  # isolation: one bad point must not sink the sweep
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _loglog_exponent(x, y, master_seed: int, resamples: int = 1000) -> dict:
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    slope = float(np.polyfit(lx, ly, 1)[0])
    rng = rng_for(master_seed, STREAM_BOOTSTRAP)
    boot = []
    for _ in range(resamples):
        idx = rng.integers(0, len(lx), size=len(lx))
        if np.unique(lx[idx]).size < 2:
            continue
        boot.append(np.polyfit(lx[idx], ly[idx], 1)[0])
    lo, hi = np.percentile(boot, [16, 84]) if boot else (math.nan, math.nan)
    return {"exponent": slope, "ci16": float(lo), "ci84": float(hi),
            "n_points": int(len(lx))}


def sweep(sweep_config: SweepConfig, outdir=None, workers: int | None = None) -> OutputBundle:
    """Run every sweep point, post-process along the axis, persist the table.

    Points run in isolation (a failing point is recorded, not propagated) and
    concurrently when `workers` > 1; `workers` < 1 or an `outdir` that holds
    files raises ConfigError before anything is written.  The sweep's status
    is "partial" when any point is "partial" or "failed"; `failed_points`
    lists the failed ones.  Post-processing, on the points that did not fail:
    atom_number fits the log-log scaling exponents of the peak normalized rate
    and the peak per-atom rate (needs >= 4 successful points); spacing
    attaches a resonance deviation per point; disorder_sigma adds the
    `spectrum_percentiles` of the couplings each point's realizations were
    solved with (motionally averaged when the point has motion; NaN on a
    failed point); excitation_fraction reports initial rate and surviving tail
    fraction per point.
    """
    base = sweep_config.base
    workers = sweep_config.workers if workers is None else workers
    if workers < 1:
        raise ConfigError("must be >= 1", "workers")
    out = _fresh_outdir(outdir if outdir is not None else base.outdir)
    sweep_config.save(out / "sweep_config.json")

    sweep_json = sweep_config.to_json()
    tasks = [(sweep_json, i, str(out / "points" / f"{i:03d}"), sweep_config.axis,
              float(value)) for i, value in enumerate(sweep_config.values)]

    def logged(results):
        for i, row in enumerate(results):
            logger.info("sweep %s: point %d/%d, %s = %r: %s", base.label, i + 1,
                        len(tasks), sweep_config.axis, row["value"], row["status"])
            yield row

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(logged(pool.map(_sweep_point, tasks)))
    else:
        rows = list(logged(map(_sweep_point, tasks)))

    summary: dict = {"axis": sweep_config.axis, "values": list(sweep_config.values),
                     "failed_points": [i for i, r in enumerate(rows)
                                       if r["status"] == "failed"],
                     "errors": {str(i): r["error"] for i, r in enumerate(rows)
                                if r["error"]}}
    good = [r for r in rows if r["status"] != "failed"]
    col_names = list(_SWEEP_COLUMNS)

    if sweep_config.axis == "atom_number":
        if len(good) >= 4:
            n_vals = [r["value"] for r in good]
            summary["exponent_peak_gamma"] = _loglog_exponent(
                n_vals, [r["peak_gamma_normalized"] for r in good], base.master_seed)
            summary["exponent_peak_rate_per_atom"] = _loglog_exponent(
                n_vals, [r["peak_rate_per_atom"] for r in good], base.master_seed)
        else:
            summary["error"] = (f"scaling-exponent fit needs >= 4 successful points, "
                                f"got {len(good)}")
    elif sweep_config.axis == "spacing":
        col_names.append("resonance_deviation")
    elif sweep_config.axis == "disorder_sigma":
        col_names += _SPECTRUM_COLUMNS
        summary["spectrum_percentiles"] = {
            key: [math.nan if row[key] is None else row[key] for row in rows]
            for key in _SPECTRUM_COLUMNS}

    # Failure messages live in sweep_summary.json; the table format is
    # whitespace-separated and must stay free of free-form text.
    table = {name: [row.get(name) if row.get(name) is not None else math.nan
                    for row in rows] for name in col_names}
    table["status"] = [row["status"] for row in rows]
    write_table(out / "sweep.csv", table,
                {"axis": sweep_config.axis, "label": base.label,
                 "seed_policy": sweep_config.seed_policy})
    _write_json(out / "sweep_summary.json", summary)

    manifest = _new_manifest("sweep", sweep_config, base, axis=sweep_config.axis,
                             status="ok" if all(r["status"] == "ok" for r in rows)
                             else "partial")
    _write_manifest(out, manifest)
    return OutputBundle(outdir=out, manifest=manifest, analysis=summary)


# ----------------------------------------------------------------- verify

def verify(outdir, rerun: bool = True) -> dict:
    """Check a persisted bundle: file hashes, and optionally a re-run.

    The tamper check recomputes the sha256 of every file in the manifest; a
    recorded path that is absolute or leads outside `outdir` is a mismatch.
    With `rerun`, the persisted config is executed again into a temporary
    directory, with the bundle's plot presets: it must write exactly the
    recorded files, each byte for byte, and the recorded manifest outside
    `files`.  That holds for a bundle recorded as a solver failure too: its
    re-run must fail alike, with the same status and error.  Raises
    VerificationError with the list of mismatches; returns the count of
    recorded files and whether the re-run was made.
    """
    out = Path(outdir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError("no manifest.json found", str(out))
    manifest = json.loads(manifest_path.read_text())
    recorded = manifest.get("files", {})
    mismatches = []
    for rel, expect in recorded.items():
        p = out / rel
        if Path(rel).is_absolute() or not p.resolve().is_relative_to(out.resolve()):
            mismatches.append(f"recorded path outside the bundle: {rel}")
        elif not p.exists():
            mismatches.append(f"missing file: {rel}")
        elif _sha256(p) != expect:
            mismatches.append(f"hash mismatch: {rel}")

    if rerun:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                if manifest.get("kind") == "sweep":
                    sweep(SweepConfig.load(out / "sweep_config.json"), outdir=tmp, workers=1)
                else:
                    run(RunConfig.load(out / "config.json"), outdir=tmp)
                failure = None
            except SolverFailure as exc:
                failure = exc
            if failure is not None and manifest.get("status") != "solver_failure":
                mismatches.append(f"re-run failed: {failure}")
            else:
                # plot data is written after the run: replay each preset that wrote
                # plots/<preset>.csv or plots/<preset>_* (correlations_00,
                # spin_ssz_reference); one whose inputs the re-run lacks writes nothing
                for preset in PLOT_PRESETS:
                    if any(rel == f"plots/{preset}.csv" or rel.startswith(f"plots/{preset}_")
                           for rel in recorded):
                        with contextlib.suppress(MissingOutputsError):
                            emit_plot_data(tmp, preset)
                fresh = json.loads((Path(tmp) / "manifest.json").read_text())
                produced = fresh.pop("files")
                mismatches += [f"re-run produced unrecorded file: {rel}" if rel not in recorded
                               else f"re-run differs: {rel}"
                               for rel, digest in produced.items() if recorded.get(rel) != digest]
                mismatches += [f"re-run did not produce recorded file: {rel}"
                               for rel in recorded if rel not in produced]
                if fresh != {key: value for key, value in manifest.items() if key != "files"}:
                    mismatches.append("re-run differs: manifest.json")
    if mismatches:
        raise VerificationError(mismatches)
    return {"files_checked": len(recorded), "rerun": rerun}


# ------------------------------------------------------------- plot data

def _read_outputs(outdir: Path, *names) -> list:
    """Read bundle outputs, tables as (columns, meta) and JSON files as dicts;
    MissingOutputsError names every one that is absent."""
    missing = [name for name in names if not (outdir / name).exists()]
    if missing:
        raise MissingOutputsError(missing)
    return [json.loads((outdir / name).read_text()) if name.endswith(".json")
            else read_table(outdir / name) for name in names]


def emit_plot_data(outdir, preset: str) -> list:
    """Write plot-ready columnar files for one phenomenon preset.

    Presets: decay (population vs time), rate (normalized rate vs time),
    correlations (one displacement grid per snapshot time), scaling
    (peak rate vs atom number with fitted exponent), spacing (resonance
    deviation vs lattice constant), spin_ssz (collective-spin trajectory
    plus the analytic independent-decay reference).  Nothing is written
    unless every table of the preset could be derived.  Returns the written
    paths; plot files are appended to the bundle manifest.
    """
    out = Path(outdir)
    if preset not in PLOT_PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {tuple(PLOT_PRESETS)}",
                          "preset")
    kind, axis = PLOT_PRESETS[preset]
    tables = {}  # file name under plots/ -> (columns, meta)

    if preset in ("decay", "rate"):
        [(cols, meta)] = _read_outputs(out, "trace.csv")
        meta = {"xlabel": "t/tau", "label": meta.get("label", "")}
        if preset == "decay":
            data = {"t": cols["t"], "n_excited": cols["n_excited"]}
            if "stderr_n_excited" in cols:
                data["stderr"] = cols["stderr_n_excited"]
            tables["decay.csv"] = (data, {**meta, "ylabel": "n_excited"})
        else:
            tables["rate.csv"] = ({"t": cols["t"], "gamma_normalized": cols["gamma_normalized"]},
                                  {**meta, "ylabel": "gamma/gamma0"})

    elif preset == "correlations":
        [(cols, _)] = _read_outputs(out, "correlations.csv")
        times = np.unique(cols["time"])
        for k, t in enumerate(times):
            sel = cols["time"] == t
            dr = cols["dr"][sel].astype(int)
            dc = cols["dc"][sel].astype(int)
            val = cols["c_d"][sel]
            dr_axis = np.unique(dr)
            dc_axis = np.unique(dc)
            grid = np.full((dr_axis.size, dc_axis.size), np.nan)
            grid[np.searchsorted(dr_axis, dr), np.searchsorted(dc_axis, dc)] = val
            data = {"dr": dr_axis}
            for j, dcol in enumerate(dc_axis):
                data[f"c[{dcol}]"] = grid[:, j]
            tables[f"correlations_{k:02d}.csv"] = (
                data, {"time": float(t), "xlabel": "dc", "ylabel": "dr"})

    elif kind == "sweep":
        (cols, _), summary = _read_outputs(out, "sweep.csv", "sweep_summary.json")
        if summary.get("axis") != axis:
            raise MissingOutputsError([f"sweep over {axis} (bundle has {summary.get('axis')})"])
        if preset == "scaling":
            meta = {"xlabel": "n_atoms", "ylabel": "peak rate"}
            for key in ("exponent_peak_gamma", "exponent_peak_rate_per_atom"):
                if key in summary:
                    meta[key] = summary[key]["exponent"]
                    meta[key + "_ci16"] = summary[key]["ci16"]
                    meta[key + "_ci84"] = summary[key]["ci84"]
            tables["scaling.csv"] = ({"n_atoms": cols["value"],
                                      "peak_gamma_normalized": cols["peak_gamma_normalized"],
                                      "peak_rate_per_atom": cols["peak_rate_per_atom"]}, meta)
        else:
            tables["spacing.csv"] = ({"spacing": cols["value"],
                                      "resonance_deviation": cols["resonance_deviation"],
                                      "peak_gamma_normalized": cols["peak_gamma_normalized"]},
                                     {"xlabel": "spacing/lambda", "ylabel": "max (g - n)/g"})

    else:  # spin_ssz
        [(cols, meta)] = _read_outputs(out, "spin.csv")
        n = float(meta["n_atoms"])
        tables["spin_ssz.csv"] = ({"t": cols["t"], "s_z_over_n": cols["s_z"] / n,
                                   "s_tot_over_n": cols["s_tot"] / n},
                                  {"xlabel": "S_z/N", "ylabel": "S_tot/N", "n_atoms": n})
        # the start's excitation probability and summed pair coherence,
        # read off the t = 0 row: S_z = N (p - 1/2), M^2 = N/2 + x0
        p = 0.5 + cols["s_z"][0] / n
        x0 = cols["m_perp_sq"][0] - n / 2
        t_grid = np.linspace(0.0, 1.0, 101)
        n_ref = max(int(round(n)), 1)
        s_z_ref, s_tot_sq_ref = analytic_independent_spin(p, x0, n_ref, t_grid)
        tables["spin_ssz_reference.csv"] = (
            {"transmitted": t_grid, "s_z_over_n": s_z_ref / n_ref,
             "s_tot_over_n": np.sqrt(s_tot_sq_ref) / n_ref},
            {"note": "independent-decay reference; s_tot is the full "
                     "second moment sqrt(<S^2>)",
             "excitation_probability": p, "pair_coherence": x0, "n_atoms": n_ref})

    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    for name, (columns, meta) in tables.items():
        write_table(plots / name, columns, meta)
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        _write_manifest(out, manifest)
    return [plots / name for name in tables]
