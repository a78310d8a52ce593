"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --outdir DIR --result FILE
                             [--setup-only] [--trace]

Run from the root of a checkout; `run.py` starts it.  Set-up is importing
`dipolarray` from the checkout's `src/` and validating the workload's
configs; it ends just before the first solve.  The timed window runs the
configs through the public `run()` / `sweep()` entry points and ends when
the last manifest is written.  The bundles are then checked and counted.
With --trace the tracer's wrappers are installed before the window and the
per-layer metrics are measured after it.  The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()

HEADLINE = ("peak_gamma_normalized", "t_peak", "final_fraction", "tail_rate")
# Reference values must agree to TOLERANCE_FACTOR * (rtol*|ref| + atol) with
# the bundle's own rtol/atol: room for a kernel that sums in another order or
# an integrator that takes other steps, far below any change of physics.
TOLERANCE_FACTOR = 1000.0
# Emission-rate floor per atom for inverted starts, the solver's own guard.
RATE_FLOOR_PER_ATOM = -1e-6
# Post-run micro-measurements repeat a call until this much time has passed.
MICRO_SECONDS = 0.3


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def step_configs(steps, seed):
    """Validated (label, config) pairs; `seed` becomes every master_seed."""
    from dipolarray import RunConfig, SweepConfig

    out = []
    for step in steps:
        label = step["label"]
        if "sweep" in step:
            data = json.loads(json.dumps(step["sweep"]))
            data["base"].update(master_seed=seed, label=label)
            out.append((label, SweepConfig.from_dict(data, where=label)))
        else:
            data = dict(step["run"], master_seed=seed, label=label)
            out.append((label, RunConfig.from_dict(data, where=label)))
    return out


def execute(configs, outdir: Path) -> None:
    from dipolarray import runner

    for label, config in configs:
        try:
            if hasattr(config, "axis"):
                runner.sweep(config, outdir=outdir / label, workers=1)
            else:
                runner.run(config, outdir=outdir / label)
        except runner.SolverFailure:
            pass  # the bundle's manifest records it; accounting counts it


# ---------------------------------------------------------------- checks

def _read_json(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def _tolerance(ref: float, config: dict) -> float:
    return TOLERANCE_FACTOR * (config["rtol"] * abs(ref) + config["atol"])


def check_run_bundle(path: Path, reference) -> tuple:
    """(attempted, failed, files, errors) for one run bundle.

    Operations are the bundle itself plus each ensemble realization.  A
    solver failure fails them all.  Otherwise the bundle fails on a fit
    error or a missed correctness check, and each realization listed in the
    manifest's failures counts once.
    """
    manifest = _read_json(path / "manifest.json")
    config = _read_json(path / "config.json")
    if manifest is None or config is None:
        return 1, 1, None, [f"{path.name}: no manifest or config"]
    realizations = config["realizations"]
    attempted = 1 + (realizations if realizations > 1 else 0)
    realization_failures = len(manifest["failures"])
    analysis = _read_json(path / "analysis.json")
    if manifest["status"] == "solver_failure" or analysis is None:
        return attempted, attempted, manifest["files"], [
            f"status {manifest['status']}: {manifest['error']}"]
    errors = [f"fit_error: {analysis['fit_error']}"] if "fit_error" in analysis else []
    errors += _invariants(path, manifest, config)
    if reference is not None:
        errors += _against_reference(analysis, reference, config)
    failed = (1 if errors else 0) + realization_failures
    return attempted, failed, manifest["files"], errors


def _invariants(path: Path, manifest: dict, config: dict) -> list:
    """Seed-independent checks: N_exc(0) is the loaded atom number, and an
    inverted start never absorbs (emission rate >= the solver's floor)."""
    from dipolarray.tableio import read_table

    cols, _ = read_table(path / "trace.csv")
    n_atoms = manifest["n_atoms"]
    errors = []
    if abs(cols["n_excited"][0] - n_atoms) > 1e-9 * max(1.0, n_atoms):
        errors.append(f"N_exc(0) = {cols['n_excited'][0]!r} but {n_atoms!r} atoms loaded")
    if config["initial_state"] == "inverted":
        low = float(cols["emission_rate"].min())
        if low < RATE_FLOOR_PER_ATOM * n_atoms:
            errors.append(f"emission rate {low!r} < 0 for an inverted start")
    return errors


def _against_reference(analysis: dict, reference: dict, config: dict) -> list:
    errors = []
    for key in HEADLINE:
        if key not in reference:
            continue
        got, want = analysis.get(key), reference[key]
        if want is None or got is None:
            if got != want:
                errors.append(f"{key} = {got!r}, reference {want!r}")
        elif abs(got - want) > _tolerance(want, config):
            errors.append(f"{key} = {got!r}, reference {want!r}")
    return errors


def check_bundles(spec_w, configs, outdir: Path, seed: int) -> dict:
    """Per-bundle accounting and correctness; keys are bundle paths."""
    references = spec_w["references"]
    use_refs = spec_w["seed_independent"] or seed == references["seed"]
    refs = references["bundles"] if use_refs else {}
    out = {}
    for label, config in configs:
        if hasattr(config, "axis"):
            summary = _read_json(outdir / label / "sweep_summary.json")
            failed_points = set() if summary is None else set(summary["failed_points"])
            for i in range(len(config.values)):
                rel = f"{label}/points/{i:03d}"
                a, f, files, errors = check_run_bundle(outdir / rel, refs.get(rel))
                if i in failed_points and not f:
                    f, errors = 1, errors + [f"sweep lists point {i} as failed"]
                out[rel] = {"attempted": a, "failed": f, "files": files, "errors": errors}
            # The sweep's own files join the reproducibility gate; its
            # operations are its points.
            manifest = _read_json(outdir / label / "manifest.json")
            missing = summary is None or manifest is None
            out[label] = {"attempted": 0, "failed": int(missing),
                          "files": None if missing else manifest["files"],
                          "errors": ["no sweep summary or manifest"] if missing else []}
        else:
            a, f, files, errors = check_run_bundle(outdir / label, refs.get(label))
            out[label] = {"attempted": a, "failed": f, "files": files, "errors": errors}
    return out


def closure_errors(spec, workload: str, outdir: Path, seed: int) -> tuple:
    """closure_err_a{1,2,3}: max over the grid of |N_exc(closure) - N_exc(exact)|
    on the clean 2x4 array, and the errors found while checking them.

    closure_ladder reads its own bundles.  The other workloads run the three
    small closures after their timed window (about 0.3 s) and compare with
    the exact trace recorded in spec.json, so every workload reports them.
    """
    from dipolarray.tableio import read_table

    closure = spec["closure"]
    reference = closure["exact_n_excited"]
    errors = []
    if workload == "closure_ladder":
        base = outdir
        exact = read_table(base / closure["exact"] / "trace.csv")[0]["n_excited"]
        bad = [k for k, (a, b) in enumerate(zip(exact, reference))
               if abs(a - b) > _tolerance(b, closure)]
        if len(exact) != len(reference) or bad:
            errors.append(f"exact N_exc departs from the reference at grid points {bad[:5]}")
    else:
        base = outdir / "closure_check"
        ladder = {s["label"]: s for s in spec["workloads"]["closure_ladder"]["steps"]}
        execute(step_configs([ladder[label] for label in closure["alpha"].values()], seed),
                base)
        exact = reference
    values = {}
    scale = _tolerance(closure["n_atoms"], closure)
    for alpha, label in closure["alpha"].items():
        cols, _ = read_table(base / label / "trace.csv")
        err = max(abs(a - b) for a, b in zip(cols["n_excited"], exact))
        name = f"closure_err_a{alpha}"
        values[name] = float(err)
        if abs(err - closure["reference_err"][name]) > scale:
            errors.append(f"{name} = {err!r}, reference {closure['reference_err'][name]!r}")
    return values, errors


# ----------------------------------------------------------- trace extras

def _mean_call_ms(fn, *args) -> float:
    calls, start = 0, time.perf_counter()
    while calls < 3 or time.perf_counter() - start < MICRO_SECONDS:
        fn(*args)
        calls += 1
    return 1e3 * (time.perf_counter() - start) / calls


def layer_metrics(tracer, wall: float, outdir: Path, share_check: dict) -> dict:
    """Per-layer metrics from the spans, counts and post-run re-measurements."""
    from dipolarray import analysis, cumulant, exact

    out = tracer.metric_self_times()
    layers = tracer.layer_self_times()
    out["analysis.self_s"] = layers["analysis"]
    out["bench.glue_s"] = layers["bench"]
    for name in ("cumulant", "exact", "couplings", "analysis"):
        out[f"{name}.share"] = layers[name] / wall
    for name in ("couplings.atoms", "couplings.pairs", "couplings.motion_pair_samples",
                 "cumulant.state_len", "cumulant.nfev", "cumulant.steps",
                 "exact.dim", "exact.nfev", "exact.steps", "analysis.resamples"):
        out[name] = tracer.counts[name]

    out["cumulant.rhs_ms"] = 0.0
    if tracer.largest_cumulant is not None:
        _, init, array, couplings, order = tracer.largest_cumulant
        state = cumulant.initial_cumulant_state(init, array, order)
        out["cumulant.rhs_ms"] = _mean_call_ms(cumulant.cumulant_rhs, state, couplings)
    out["exact.rhs_ms"] = 0.0
    if tracer.exact_calls:
        init, array, couplings = max(tracer.exact_calls, key=lambda c: c[1].n_atoms)
        rho = exact.initial_density_matrix(init, array)
        out["exact.rhs_ms"] = _mean_call_ms(exact.lindblad_rhs, rho, couplings)

    multistart = 0.0
    for bound in tracer.fit_calls:
        start = time.perf_counter()
        analysis.fit_stretched(**dict(bound, n_resamples=0))
        multistart += time.perf_counter() - start
    out["analysis.multistart_s"] = multistart
    out["analysis.bootstrap_s"] = out["analysis.fit_s"] - multistart

    out["runner.bundle_bytes"] = sum(p.stat().st_size for p in outdir.rglob("*")
                                     if p.is_file())
    out["trace.accounted_s"] = sum(layers.values())
    runs = tracer.run_durations()
    share = sum(layers[term[6:]] if term.startswith("layer:") else runs[term[4:]]
                for term in share_check["terms"])
    out["trace.predicted_share"] = share / wall
    return out


# ------------------------------------------------------------------ main

def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dipolarray

    if not Path(dipolarray.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dipolarray imported from {dipolarray.__file__}, not {src}")
    spec = load_spec()
    spec_w = spec["workloads"][args.workload]
    configs = step_configs(spec_w["steps"], args.seed)
    setup_end = time.perf_counter()

    result = {"setup_end": setup_end}
    if not args.setup_only:
        outdir = Path(args.outdir)
        tracer = None
        if args.trace:
            sys.path.insert(0, str(HERE))
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        if tracer is None:
            execute(configs, outdir)
        else:
            with tracer.span("bench.workload"):
                execute(configs, outdir)
        wall = time.perf_counter() - start
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
        result["bundles"] = check_bundles(spec_w, configs, outdir, args.seed)
        if tracer is None:
            values, errors = closure_errors(spec, args.workload, outdir, args.seed)
            result["closure_err"] = values
            result["check_errors"] = errors
        else:
            tracer.uninstall()
            result["layer"] = layer_metrics(tracer, wall, outdir, spec_w["share_check"])
            tracer.write(Path(args.result).with_suffix(".spans.json"))
    Path(args.result).write_text(json.dumps(result, indent=1, default=_json_default) + "\n")
    return 0


def _json_default(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {value!r}")


if __name__ == "__main__":
    sys.exit(main())
