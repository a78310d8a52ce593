"""Write the canonical bundle set from two checkouts and compare it file by file.

    python3 tools/compare_bundles.py PARENT CHANGE OUTDIR

PARENT and CHANGE are the roots of two checkouts of this repository.  The
set is written from PARENT into OUTDIR/bundles and moved to OUTDIR/parent,
then written from CHANGE and moved to OUTDIR/change.  Both trees thus write
to the same absolute paths, so nothing that records a path can differ.  The
set is:

- every benchmark workload of the tree's `perfbench/spec.json` at seed 0,
  through `perfbench/rep.py`;
- an exact run with `correlation_times` and a fit, with its plot data;
- one cumulant run each at closure_alpha 1, 2 and 3, and alpha 2 runs
  with a two-term and a three-term fit, so multi-term fits are compared too;
- an alpha 2 and a 4x4 alpha 3 run from a half-excited incoherent start,
  where 2n - 1 crosses zero and <n_i n_j> departs from n_i n_j early;
  the alpha 2 one with its spin_ssz plot data;
- an inverted 4x5 alpha 2 run with snapshots and a fit: an even atom
  count on a clean lattice, so the solve takes the inversion-reduced layout;
- a coherent-pulse run with each solver, and one at closure_alpha 1, each
  with its spin_ssz plot data;
- an exact run from an incoherent start at the non-dyadic p = 0.3, with its
  spin_ssz plot data, an exact full (area pi) pulse, whose amplitudes
  vanish, and a 2x4 exact coherent run with snapshots, a fit and its
  spin_ssz plot data (every exact solve tracks the offset-0 blocks alone);
- an inverted 2x5 exact run to t = 1 with a snapshot: its sectors pass 128
  states, so its generator multiplies zero-padded copies of its blocks;
- a `realizations=3` ensemble run;
- a single-realization run whose loading comes up empty (a `solver_failure`
  bundle);
- a `realizations=2` ensemble run with motional averaging, whose
  realizations reseed the motional sampler;
- a 3x3 motional run at spacing 0.5 with first-band probability 0.5,
  whose samples straddle u = k r = pi and 2 pi;
- a spacing sweep, an atom-number sweep with its scaling plot data, and
  a `realizations=2` disorder_sigma sweep without motion;
- a `workers=2` disorder_sigma sweep with per-point seeds, whose points
  cross the process pool, one of them (sigma < 0) failing its own row;
- a `dipolarray spectrum-scan` table of a disordered 6x6 array.

Every process runs from its checkout's `src/` with one BLAS thread: it
pins the same six thread variables to 1 as the test suite's conftest and
the benchmark's children do.  A checkout whose integrator sums its
step-size norms with numpy writes the same bundle under any thread count,
but PARENT may predate that, so the pin stays.  For each file of either
set the script prints "identical", or else the largest absolute deviation
of each table column or JSON key, also relative to the largest magnitude
in that column or key (and the keys or lines that differ as text); tables
are parsed with the checkout's own `dipolarray.tableio.read_table`.  It
exits 1 when any file differs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from dipolarray.tableio import read_table  # noqa: E402

RUNS = {
    "exact_corr_fit": (dict(rows=2, cols=2, spacing=0.4, solver="exact",
                            grid_kind="linear", t_end=3.0, linear_points=31,
                            correlation_times=[0.0, 1.0], fit_terms=1,
                            fit_resamples=25),
                       "decay,rate,correlations,spin_ssz"),
    "alpha1": (dict(rows=3, cols=3, spacing=0.3, closure_alpha=1, t_end=5.0), ""),
    "alpha2": (dict(rows=3, cols=3, spacing=0.3, closure_alpha=2, t_end=5.0,
                    correlation_times=[0.5, 1.0], fit_terms=1, fit_resamples=20), ""),
    "alpha2_two_terms": (dict(rows=3, cols=3, spacing=0.3, closure_alpha=2, t_end=5.0,
                              fit_terms=2, fit_resamples=50), ""),
    "alpha2_three_terms": (dict(rows=3, cols=3, spacing=0.3, closure_alpha=2, t_end=5.0,
                                fit_terms=3, fit_resamples=50), ""),
    "alpha2_incoherent": (dict(rows=4, cols=4, spacing=0.3, initial_state="incoherent",
                               excitation_fraction=0.5, closure_alpha=2, t_end=5.0),
                          "spin_ssz"),
    "alpha2_even": (dict(rows=4, cols=5, spacing=0.3, closure_alpha=2, t_end=5.0,
                         correlation_times=[0.5, 1.0], fit_terms=1, fit_resamples=20), ""),
    "alpha3": (dict(rows=2, cols=3, spacing=0.3, closure_alpha=3, t_end=3.0,
                    correlation_times=[0.5]), ""),
    "alpha3_incoherent": (dict(rows=4, cols=4, spacing=0.3, initial_state="incoherent",
                               excitation_fraction=0.5, closure_alpha=3, t_end=3.0,
                               correlation_times=[0.5]), ""),
    "coherent": (dict(rows=3, cols=3, spacing=0.3, initial_state="coherent",
                      excitation_fraction=0.5, closure_alpha=2, t_end=5.0,
                      correlation_times=[0.5]), "spin_ssz"),
    "alpha1_coherent": (dict(rows=3, cols=3, spacing=0.3, initial_state="coherent",
                             excitation_fraction=0.5, closure_alpha=1, t_end=5.0),
                        "spin_ssz"),
    "exact_coherent": (dict(rows=2, cols=3, spacing=0.3, solver="exact",
                            initial_state="coherent", excitation_fraction=0.5,
                            t_end=3.0, correlation_times=[0.5]), "spin_ssz"),
    "exact_incoherent": (dict(rows=2, cols=3, spacing=0.3, solver="exact",
                              initial_state="incoherent", excitation_fraction=0.3,
                              t_end=3.0, correlation_times=[0.5]), "spin_ssz"),
    "exact_full_pulse": (dict(rows=2, cols=3, spacing=0.3, solver="exact",
                              initial_state="coherent", excitation_fraction=1.0,
                              t_end=3.0), ""),
    "exact_coherent_2x4": (dict(rows=2, cols=4, spacing=0.3, solver="exact",
                                initial_state="coherent", excitation_fraction=0.3,
                                phase_offset=0.4, t_end=3.0, correlation_times=[0.5, 1.0],
                                fit_terms=1, fit_resamples=20), "spin_ssz"),
    "exact_inverted_2x5": (dict(rows=2, cols=5, spacing=0.3, solver="exact", t_end=1.0,
                                correlation_times=[0.5]), ""),
    "ensemble": (dict(rows=3, cols=3, spacing=0.3, fill_probability=0.8,
                      realizations=3, t_end=5.0, fit_terms=1, fit_resamples=20), ""),
    "empty_loading": (dict(rows=1, cols=2, spacing=0.4, fill_probability=0.0,
                           t_end=2.0), ""),
    "ensemble_motion": (dict(rows=2, cols=2, spacing=0.4, motion_enabled=True,
                             motion_samples=2000, realizations=2, t_end=3.0), ""),
    "motion_band": (dict(rows=3, cols=3, spacing=0.5, motion_enabled=True,
                         motion_excited_band_probability=0.5, motion_samples=4000,
                         t_end=3.0), ""),
}
SWEEPS = {
    "spacing_sweep": (dict(axis="spacing", values=[0.3, 0.4, 0.5], workers=1,
                           base=dict(rows=1, cols=4, solver="exact", grid_kind="linear",
                                     t_end=3.0, linear_points=31)),
                      "spacing"),
    "atom_number_sweep": (dict(axis="atom_number", values=[1, 4, 9, 16], workers=1,
                               base=dict(spacing=0.3, closure_alpha=2, grid_kind="linear",
                                         t_end=3.0, linear_points=31)),
                          "scaling"),
    "disorder_sigma_sweep": (dict(axis="disorder_sigma", values=[0.0, 0.02], workers=1,
                                  base=dict(rows=3, cols=3, spacing=0.3, realizations=2,
                                            t_end=3.0)),
                             ""),
    "pooled_sweep": (dict(axis="disorder_sigma", values=[0.04, 0.02, 0.0, -0.01],
                          workers=2, seed_policy="per_point",
                          base=dict(rows=2, cols=3, spacing=0.3, realizations=2,
                                    t_end=3.0)),
                     ""),
}
SCAN = ["--rows", 6, "--cols", 6, "--spacing-min", 0.3, "--spacing-max", 0.8,
        "--step", 0.05, "--sigma", 0.02, "--realizations", 3]
ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}


def _call(cmd, tree: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ENV)
    proc = subprocess.run([str(c) for c in cmd], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        print(f"note: exit {proc.returncode} from {' '.join(map(str, cmd[1:4]))} "
              f"in {tree}: {proc.stderr.strip()[-300:]}")


def write_set(tree: Path, outdir: Path, side: str) -> None:
    """Write the canonical set from `tree` and move it to outdir/side."""
    work, inputs = outdir / "bundles", outdir / "work"
    for path in (work, inputs, outdir / side):
        shutil.rmtree(path, ignore_errors=True)
    work.mkdir(parents=True)
    inputs.mkdir(parents=True)
    spec = json.loads((tree / "perfbench" / "spec.json").read_text())
    for workload in spec["workloads"]:
        _call([sys.executable, tree / "perfbench" / "rep.py", "--workload", workload,
               "--seed", "0", "--outdir", work / workload,
               "--result", inputs / f"{workload}.json"], tree)
    jobs = [("run", label, dict(fields, label=label), plots)
            for label, (fields, plots) in RUNS.items()]
    jobs += [("sweep", label, dict(fields, base=dict(fields["base"], label=label)), plots)
             for label, (fields, plots) in SWEEPS.items()]
    for command, label, config, plots in jobs:
        path = inputs / f"{label}.json"
        path.write_text(json.dumps(config, indent=1))
        cmd = [sys.executable, "-m", "dipolarray.cli", command, "--config", path,
               "--outdir", work / label]
        _call(cmd + (["--plots", plots] if plots else []), tree)
    (work / "spectrum_scan").mkdir()
    _call([sys.executable, "-m", "dipolarray.cli", "spectrum-scan", *SCAN,
           "--out", work / "spectrum_scan" / "scan.csv"], tree)
    shutil.move(work, outdir / side)
    shutil.rmtree(inputs)


# ------------------------------------------------------------- comparison

def _number(value):
    """`value` as a float when it is a number (bools excluded), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _deviation(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


def _flatten(value, prefix=""):
    """The leaves of nested dicts and lists, keyed by their dotted path."""
    if not isinstance(value, (dict, list)):
        return {prefix.rstrip("."): value}
    out = {}
    for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
        out.update(_flatten(item, f"{prefix}{key}."))
    return out


def _compare_values(name: str, a: list, b: list):
    """One line for a column or key that differs (None when it does not): the
    largest deviation of its numeric entries, absolute and relative to the
    largest finite magnitude in the column, and how many other entries differ.
    Scaling by the column keeps entries near zero from reading large."""
    if len(a) != len(b):
        return f"{name}: {len(a)} vs {len(b)} entries"
    worst = scale = 0.0
    numeric = text = 0
    for x, y in zip(a, b):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            text += x != y
            continue
        dev = _deviation(fx, fy)
        numeric += dev > 0
        worst = max(worst, dev)
        scale = max([scale] + [abs(v) for v in (fx, fy) if math.isfinite(v)])
    rel = worst / scale if scale else math.inf
    parts = [f"max abs {worst:.3g}, max rel {rel:.3g}"] if numeric else []
    parts += [f"{text} of {len(a)} text entries differ"] if text else []
    return f"{name}: " + ", ".join(parts) if parts else None


def file_deviations(a: Path, b: Path) -> list:
    """Per-column (tables) or per-key (JSON) deviation lines for two files."""
    if a.suffix == ".json":
        fa, fb = _flatten(json.loads(a.read_text())), _flatten(json.loads(b.read_text()))
        lines = [_compare_values(key, [fa.get(key)], [fb.get(key)])
                 for key in sorted(set(fa) | set(fb))]
    else:
        try:
            (cols_a, meta_a), (cols_b, meta_b) = read_table(a), read_table(b)
        except ValueError:
            la, lb = a.read_text().splitlines(), b.read_text().splitlines()
            diff = [k + 1 for k, (x, y) in enumerate(zip(la, lb)) if x != y]
            return [f"text differs at lines {diff[:10]}, {len(la)} vs {len(lb)} lines"]
        names = list(cols_a) + [n for n in cols_b if n not in cols_a]
        lines = [_compare_values(f"column {name}", cols_a.get(name, []),
                                 cols_b.get(name, [])) for name in names]
        lines += [_compare_values(f"meta {key}", [meta_a.get(key)], [meta_b.get(key)])
                  for key in sorted(set(meta_a) | set(meta_b))]
    return [line for line in lines if line] or ["bytes differ, values equal"]


def compare_dirs(parent: Path, change: Path) -> int:
    """Print one verdict per file of either tree; returns the count that differ."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    differ = 0
    for rel in names:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            differ += 1
            print(f"{rel}: only in {'parent' if a.is_file() else 'change'}")
        elif a.read_bytes() == b.read_bytes():
            print(f"{rel}: identical")
        else:
            differ += 1
            for line in file_deviations(a, b):
                print(f"{rel}: {line}")
    print(f"{len(names)} files, {len(names) - differ} identical, {differ} differ")
    return differ


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change, outdir = (Path(arg).resolve() for arg in argv)
    for tree in (parent, change):
        if not (tree / "src" / "dipolarray").is_dir():
            print(f"error: {tree} has no src/dipolarray", file=sys.stderr)
            return 2
    write_set(parent, outdir, "parent")
    write_set(change, outdir, "change")
    return 1 if compare_dirs(outdir / "parent", outdir / "change") else 0


if __name__ == "__main__":
    sys.exit(main())
