"""dipolarray benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/dipolarray`.  Workloads,
configs, reference values and the layer-to-metric map are in
`perfbench/spec.json`; metric names and units are in `BENCHMARK.json`.

Every repetition runs in a fresh interpreter (`rep.py`) with one BLAS
thread and no worker pool.  --trace 0 repeats
the workload while the next repetition still fits in S seconds (at least
once), adds set-up-only interpreters until SETUP_SAMPLES set-up times
exist, and reports medians of the end-to-end metrics.  --trace 1 runs one
untraced and one traced repetition and reports the per-layer metrics and
the tracing overhead.

Every repetition must reproduce the first one's manifest hashes byte for
byte.  A failed operation (run bundle, sweep point or ensemble realization)
or a missed check makes the result `correct: false` and the exit code 1.
The last line of stdout is the JSON result; a copy with an environment
stamp is written under `.perfbench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# Set for every repetition.  BLAS threads are pinned to one: with two threads
# on a shared two-core machine the same run measured 12 s and 36 s.
CHILD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RepFailed(RuntimeError):
    pass


def spawn_rep(root: Path, rundir: Path, tag: str, args, deadline: float,
              setup_only=False, trace=False) -> dict:
    """Run rep.py in a fresh interpreter; returns its result with setup_s."""
    result_path = rundir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--outdir", str(rundir / tag),
           "--result", str(result_path)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    env = dict(os.environ, **CHILD_ENV)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RepFailed(f"{tag}: no time left before the deadline")
    # perf_counter is CLOCK_MONOTONIC, shared by every process on Linux, so
    # the child's set-up end can be subtracted from this start.
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{tag}: timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"{tag}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["setup_end"] - start
    return result


def source_stamp(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # an exported checkout is not a git repository
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def account(reps: list) -> tuple:
    """(attempted, failed, errors) over all repetitions.

    The bundles' own counts come first.  The reproducibility gate makes a
    bundle whose manifest hashes differ from the first repetition's a failed
    operation.  Each untraced repetition's closure_err check is one more
    operation.
    """
    attempted = failed = 0
    errors = []
    first = reps[0]["bundles"]
    for k, rep in enumerate(reps):
        if "closure_err" in rep:
            attempted += 1
            failed += 1 if rep["check_errors"] else 0
            errors += [f"rep {k}: {e}" for e in rep["check_errors"]]
        for rel, info in rep["bundles"].items():
            attempted += info["attempted"]
            bad = info["failed"]
            errors += [f"rep {k} {rel}: {e}" for e in info["errors"]]
            if k and not bad and info["files"] != first[rel]["files"]:
                bad = 1
                errors.append(f"rep {k} {rel}: manifest hashes differ from rep 0")
            failed += bad
    return attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    root = Path.cwd().resolve()
    if not (root / "src" / "dipolarray" / "__init__.py").is_file():
        print(f"error: {root} has no src/dipolarray to benchmark", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2

    rundir = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    reps, setups, failure = [], [], None
    try:
        if args.trace:
            reps.append(spawn_rep(root, rundir, "rep0", args, deadline))
            reps.append(spawn_rep(root, rundir, "traced", args, deadline, trace=True))
        else:
            while True:
                reps.append(spawn_rep(root, rundir, f"rep{len(reps)}", args, deadline))
                spent = time.perf_counter() - started
                if spent + spent / len(reps) > args.seconds:
                    break
            while len(reps) + len(setups) < SETUP_SAMPLES:
                setups.append(spawn_rep(root, rundir, f"setup{len(setups)}", args,
                                        deadline, setup_only=True)["setup_s"])
    except RepFailed as exc:
        failure = str(exc)

    attempted, failed, errors = account(reps) if reps else (1, 1, [])
    if failure:
        errors.append(failure)
        failed = max(failed, 1)
    metrics = {}
    if reps and not failure:
        if args.trace:
            untraced, traced = reps
            values = dict(traced["layer"], **{
                "trace.wall_s": traced["wall_s"],
                "trace.untraced_wall_s": untraced["wall_s"],
                "trace.overhead_s": traced["wall_s"] - untraced["wall_s"]})
            declared = bench["per_layer"]
        else:
            values = {"setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
                      "wall_s": statistics.median(r["wall_s"] for r in reps),
                      "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
            for name in reps[0]["closure_err"]:
                values[name] = statistics.median(r["closure_err"][name] for r in reps)
            declared = bench["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}

    correct = failed == 0 and not errors
    stamp = dict(source_stamp(root), nproc=os.cpu_count(),
                 affinity=len(os.sched_getaffinity(0)),
                 child_env=CHILD_ENV,
                 **(reps[0]["env"] if reps else {}))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "repetitions": len(reps),
              "setup_samples": len(setups) + (0 if args.trace else len(reps)),
              "environment": stamp, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "errors": errors, "metrics": metrics}
    (rundir / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    for error in errors:
        print(f"FAILED {error}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetition(s), environment {json.dumps(stamp, sort_keys=True)}")
    print(f"fail_frac = {failed / attempted} ratio ({failed}/{attempted} operations)")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
