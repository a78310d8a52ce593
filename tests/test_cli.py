"""Runner and CLI: bundle contents, reproducibility, sweeps, exit codes."""

import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dipolarray import exact, runner
from dipolarray.cli import main
from dipolarray.config import ConfigError, RunConfig, SweepConfig
from dipolarray.couplings import coupling_matrices, spectrum_scan
from dipolarray.exact import initial_density_matrix
from dipolarray.geometry import DisorderSpec, build_array
from dipolarray.runner import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    MissingOutputsError,
    SolverFailure,
    VerificationError,
    emit_plot_data,
    run,
    sweep,
    verify,
)
from dipolarray.seeding import STREAM_MOTION, derive_seed
from dipolarray.tableio import json_text, read_table, write_table

from readout import observables_exact


def exact_config(tmp_path, **kw):
    fields = dict(rows=2, cols=2, spacing=0.4, solver="exact", grid_kind="linear",
                  t_end=3.0, linear_points=31, label="t",
                  outdir=str(tmp_path / "out"))
    fields.update(kw)
    return RunConfig(**fields)


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def write_manifest(outdir, manifest):
    (outdir / "manifest.json").write_text(json_text(manifest))


# ---- single runs


def test_run_bundle_is_complete_and_hashed(tmp_path):
    bundle = run(exact_config(tmp_path))
    out = bundle.outdir
    for name in ("config.json", "trace.csv", "spin.csv", "analysis.json",
                 "manifest.json"):
        assert (out / name).exists()
    manifest = read_manifest(out)
    assert manifest["status"] == "ok"
    assert manifest["kind"] == "run"
    assert manifest["config_sha256"] == exact_config(tmp_path).config_hash
    on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    assert set(manifest["files"]) == on_disk
    for rel, digest in manifest["files"].items():
        assert len(digest) == 64

    cols, meta = read_table(out / "trace.csv")
    assert set(cols) >= {"t", "n_excited", "emission_rate", "gamma_normalized",
                         "s_z", "m_perp_sq"}
    assert float(meta["n_atoms"]) == 4.0
    assert cols["n_excited"][0] == pytest.approx(4.0)


def test_single_atom_run_decays_exponentially(tmp_path):
    bundle = run(exact_config(tmp_path, rows=1, cols=1, t_end=2.0,
                              linear_points=21))
    trace = bundle.trace
    np.testing.assert_allclose(trace.n_excited, np.exp(-trace.times), atol=1e-7)
    assert bundle.analysis["initial_gamma_normalized"] == pytest.approx(1.0, abs=1e-7)


def test_rerun_is_byte_identical(tmp_path):
    cfg = exact_config(tmp_path, fit_terms=1, fit_resamples=25,
                       correlation_times=(0.0, 1.0))
    a = run(cfg, outdir=tmp_path / "a")
    b = run(cfg, outdir=tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    assert a.manifest == b.manifest


def test_outdir_override_never_leaks_into_config(tmp_path):
    cfg = exact_config(tmp_path)
    run(cfg, outdir=tmp_path / "elsewhere")
    persisted = RunConfig.load(tmp_path / "elsewhere" / "config.json")
    assert persisted == cfg
    assert persisted.outdir == str(tmp_path / "out")


def test_verify_roundtrip_and_tamper_detection(tmp_path):
    bundle = run(exact_config(tmp_path))
    out = bundle.outdir
    result = verify(out)
    assert result["rerun"] and result["files_checked"] >= 4

    (out / "trace.csv").write_text("# corrupted\n")
    with pytest.raises(VerificationError) as err:
        verify(out, rerun=False)
    assert any("trace.csv" in m for m in err.value.mismatches)

    (out / "trace.csv").unlink()
    with pytest.raises(VerificationError, match="missing file"):
        verify(out, rerun=False)


def test_verify_reports_recorded_files_the_rerun_did_not_produce(tmp_path, capsys):
    """Both directions: a file the manifest records must come back from the
    re-run, with the verify exit code when it does not."""
    out = run(exact_config(tmp_path, rows=1, cols=1, t_end=1.0, linear_points=11)).outdir
    (out / "extra.csv").write_text("# t\n0.0\n")
    manifest = read_manifest(out)
    manifest["files"]["extra.csv"] = runner._sha256(out / "extra.csv")
    write_manifest(out, manifest)
    assert not verify(out, rerun=False)["rerun"]  # the hashes all hold
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == ["re-run did not produce recorded file: extra.csv"]
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "extra.csv" in capsys.readouterr().err


def test_verify_reports_a_rerun_that_differs(tmp_path, capsys):
    """A changed trace value whose hash the manifest was updated to passes
    the hash check; only the re-run catches it, with the verify exit code."""
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    row = lines[-1].split(" ")
    row[1] = repr(float(row[1]) + 1e-3)
    lines[-1] = " ".join(row)
    (out / "trace.csv").write_text("".join(lines))
    manifest = read_manifest(out)
    manifest["files"]["trace.csv"] = runner._sha256(out / "trace.csv")
    write_manifest(out, manifest)
    assert not verify(out, rerun=False)["rerun"]  # the hashes all hold
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == ["re-run differs: trace.csv"]
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "re-run differs: trace.csv" in capsys.readouterr().err


def test_verify_refuses_recorded_paths_outside_the_bundle(tmp_path, capsys):
    """A manifest path that leads out of the bundle, relative or absolute, is
    a mismatch: verify never hashes a file outside the bundle."""
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir
    outside = tmp_path / "outside.txt"
    outside.write_text("not part of the bundle\n")
    manifest = read_manifest(out)
    recorded = len(manifest["files"])
    for rel in ("../outside.txt", str(outside)):
        manifest["files"][rel] = runner._sha256(outside)
    write_manifest(out, manifest)
    with pytest.raises(VerificationError) as err:
        verify(out, rerun=False)
    assert err.value.mismatches == ["recorded path outside the bundle: ../outside.txt",
                                    f"recorded path outside the bundle: {outside}"]
    assert main(["verify", "--no-rerun", str(out)]) == EXIT_VERIFY
    assert "outside the bundle" in capsys.readouterr().err
    del manifest["files"]["../outside.txt"], manifest["files"][str(outside)]
    write_manifest(out, manifest)
    assert verify(out, rerun=False)["files_checked"] == recorded


def edit_manifest(out, **fields):
    manifest = read_manifest(out)
    manifest.update(fields)
    write_manifest(out, manifest)


def test_verify_checks_the_manifest_record(tmp_path, capsys):
    """The manifest's own record (status, failures, clamp count, ...) must
    come back from the re-run too: an edit to it passes the hash check and
    is reported as a differing manifest."""
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir
    original = read_manifest(out)
    for key, value in (("clamped_points", 3), ("status", "partial"),
                       ("failures", ["0: EmptyRealizationError: edited"])):
        edit_manifest(out, **{key: value})
        assert verify(out, rerun=False) == {"files_checked": 4, "rerun": False}
        with pytest.raises(VerificationError) as err:
            verify(out)
        assert err.value.mismatches == ["re-run differs: manifest.json"], key
        edit_manifest(out, **{key: original[key]})
    assert main(["verify", str(out)]) == EXIT_OK
    edit_manifest(out, clamped_points=3)
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "re-run differs: manifest.json" in capsys.readouterr().err


def test_verify_reports_a_file_the_manifest_does_not_record(tmp_path, capsys):
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir
    manifest = read_manifest(out)
    del manifest["files"]["spin.csv"]
    write_manifest(out, manifest)
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == ["re-run produced unrecorded file: spin.csv"]
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "unrecorded file: spin.csv" in capsys.readouterr().err


def test_verify_reports_a_rerun_that_fails(tmp_path, monkeypatch, capsys):
    """A bundle whose re-run fails (here: every realization) is reported with
    the re-run's error; the recorded files themselves still hash."""
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir

    def fails(_config):
        raise RuntimeError("all 1 realizations failed; first: forced")

    monkeypatch.setattr(runner, "ensemble_run", fails)
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == [
        "re-run failed: RuntimeError: all 1 realizations failed; first: forced"]
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "re-run failed" in capsys.readouterr().err
    assert verify(out, rerun=False)["files_checked"] == 4


def test_run_with_a_failed_fit_is_partial(tmp_path, monkeypatch):
    """A fit that raises leaves the run's other outputs in place, records the
    error in analysis.json and marks the bundle partial; the re-run fails the
    same way, so the bundle verifies."""
    def fails(*_args, **_kwargs):
        raise RuntimeError("no converged start")

    monkeypatch.setattr(runner, "fit_stretched", fails)
    bundle = run(exact_config(tmp_path, rows=1, cols=2, fit_terms=1, fit_resamples=5))
    out = bundle.outdir
    assert bundle.manifest["status"] == "partial"
    analysis = json.loads((out / "analysis.json").read_text())
    assert analysis["fit"] is None
    assert analysis["fit_error"] == "no converged start"
    assert not (out / "fit_report.txt").exists()
    assert sorted(bundle.manifest["files"]) == ["analysis.json", "config.json",
                                                "spin.csv", "trace.csv"]
    assert verify(out)["rerun"]


def test_run_without_excitations_has_no_headline_numbers(tmp_path):
    """An exact start with p = 0 never emits: every headline of the analysis
    summary is None, and the tail rate says why."""
    bundle = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11,
                              initial_state="incoherent", excitation_fraction=0.0))
    analysis = json.loads((bundle.outdir / "analysis.json").read_text())
    assert analysis == {
        "initial_gamma_normalized": None, "final_fraction": None,
        "peak_gamma_normalized": None, "t_peak": None, "initial_rate_estimate": None,
        "tail_rate": None, "tail_rate_error": "non-positive populations in the tail window"}
    assert bundle.manifest["status"] == "ok"
    verify(bundle.outdir)


def test_run_and_sweep_refuse_an_outdir_that_holds_files(tmp_path, capsys):
    """The manifest hashes the whole directory, so a bundle written over an
    earlier one would record its leftovers (here the correlation and fit
    files): run and sweep refuse such a directory before writing anything,
    and take an empty one."""
    out = tmp_path / "out"
    run(exact_config(tmp_path, correlation_times=(0.0, 1.0), fit_terms=1, fit_resamples=10))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    cfg_path = tmp_path / "plain.json"
    exact_config(tmp_path).save(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "outdir" in capsys.readouterr().err
    sweep_path = tmp_path / "sweep.json"
    SweepConfig(base=exact_config(tmp_path), axis="spacing", values=(0.4, 0.5)).save(sweep_path)
    assert main(["sweep", "--config", str(sweep_path)]) == EXIT_CONFIG
    assert "outdir" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    (tmp_path / "empty").mkdir()
    verify(run(exact_config(tmp_path), outdir=tmp_path / "empty").outdir)


def test_verify_needs_a_manifest(tmp_path):
    with pytest.raises(ConfigError, match="manifest"):
        verify(tmp_path)


def test_solver_failure_preserves_partial_bundle(tmp_path):
    cfg = exact_config(tmp_path, fill_probability=0.0, label="doomed")
    with pytest.raises(SolverFailure, match="no occupied sites"):
        run(cfg)
    out = tmp_path / "out"
    manifest = read_manifest(out)
    assert manifest["status"] == "solver_failure"
    assert "EmptyRealizationError" in manifest["error"]
    assert (out / "config.json").exists()
    assert "config.json" in manifest["files"]
    # the re-run fails alike, with the recorded status and error
    assert verify(out) == {"files_checked": 1, "rerun": True}
    edit_manifest(out, error="EmptyRealizationError: edited")
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == ["re-run differs: manifest.json"]


def test_verify_reruns_a_bundle_recorded_as_failed(tmp_path, capsys):
    """A bundle whose manifest is edited to read `solver_failure` is re-run
    all the same: the re-run solves, so its manifest record differs."""
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir
    edit_manifest(out, status="solver_failure", error="EmptyRealizationError: edited")
    assert verify(out, rerun=False)["files_checked"] == 4  # the hashes all hold
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == ["re-run differs: manifest.json"]
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "re-run differs: manifest.json" in capsys.readouterr().err


def test_correlation_and_fit_outputs(tmp_path):
    cfg = exact_config(tmp_path, correlation_times=(0.0, 1.0), fit_terms=1,
                       fit_resamples=25)
    bundle = run(cfg)
    out = bundle.outdir
    cols, meta = read_table(out / "correlations.csv")
    assert set(cols) == {"time", "dr", "dc", "c_d", "pairs"}
    assert set(np.unique(cols["time"])) == {0.0, 1.0}
    assert (out / "fit_report.txt").exists()
    assert len(bundle.analysis["fit"]["terms"]) == 1

    zero = cols["time"] == 0.0
    on_site = zero & (cols["dr"] == 0) & (cols["dc"] == 0)
    assert np.all(np.abs(cols["c_d"][zero & ~on_site]) < 1e-9)


def test_cumulant_run_records_ensemble_seeds(tmp_path):
    cfg = exact_config(tmp_path, solver="cumulant", closure_alpha=2,
                       fill_probability=0.5, realizations=3, master_seed=5)
    bundle = run(cfg)
    assert len(bundle.manifest["realization_seeds"]) == 3
    assert len(set(bundle.manifest["realization_seeds"])) == 3
    cols, _ = read_table(bundle.outdir / "trace.csv")
    assert "stderr_n_excited" in cols
    # the decay preset carries the ensemble standard error along
    (path,) = emit_plot_data(bundle.outdir, "decay")
    plot, _ = read_table(path)
    assert set(plot) == {"t", "n_excited", "stderr"}
    np.testing.assert_array_equal(plot["stderr"], cols["stderr_n_excited"])


def test_single_realization_run_has_no_stderr_columns(tmp_path):
    cfg = exact_config(tmp_path, solver="cumulant", closure_alpha=2,
                       fill_probability=0.5, realizations=1, master_seed=5)
    bundle = run(cfg)
    assert len(bundle.manifest["realization_seeds"]) == 1
    cols, _ = read_table(bundle.outdir / "trace.csv")
    assert not [name for name in cols if name.startswith("stderr_")]


def test_single_surviving_realization_has_nan_stderr(tmp_path):
    # seed 2 leaves realizations 0 and 2 of the 1x1 site empty
    cfg = RunConfig(rows=1, cols=1, fill_probability=0.3, realizations=3, master_seed=2,
                    t_end=1.0, outdir=str(tmp_path / "out"))
    bundle = run(cfg)
    assert bundle.trace.n_realizations == 1
    assert [r for r, _ in bundle.trace.failures] == [0, 2]
    assert all(np.isnan(err).all() for err in bundle.trace.stderr.values())
    cols, _ = read_table(bundle.outdir / "trace.csv")
    stderr_cols = [name for name in cols if name.startswith("stderr_")]
    assert len(stderr_cols) == 4
    assert all(np.isnan(cols[name]).all() for name in stderr_cols)
    assert verify(bundle.outdir)["rerun"]


def test_run_and_sweep_log_progress_outside_the_bundle(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="dipolarray")
    cfg = exact_config(tmp_path, label="logged", fit_terms=1, fit_resamples=5)
    bundle = run(cfg)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert "run logged: exact solver" in lines
    assert any(line.startswith("run logged: solved 4 atoms in ") for line in lines)
    assert any(line.startswith("run logged: fitted 1 term(s) with 5 resamples")
               for line in lines)
    assert any(line.startswith("run logged: wrote ") for line in lines)
    assert not any("solved" in p.read_text() for p in bundle.outdir.rglob("*")
                   if p.is_file())
    verify(bundle.outdir)

    caplog.clear()
    sweep(SweepConfig(base=cfg, axis="spacing", values=(0.35, 0.45)),
          outdir=tmp_path / "sw", workers=1)
    points = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("sweep logged: point")]
    assert points == ["sweep logged: point 1/2, spacing = 0.35: ok",
                      "sweep logged: point 2/2, spacing = 0.45: ok"]


# ---- sweeps


def test_sweep_isolates_a_failing_point(tmp_path):
    base = exact_config(tmp_path, label="sp", outdir=str(tmp_path / "sw"))
    sc = SweepConfig(base=base, axis="spacing", values=(-0.1, 0.35, 0.45))
    bundle = sweep(sc)
    assert bundle.manifest["status"] == "partial"
    assert bundle.analysis["failed_points"] == [0]
    assert "spacing" in bundle.analysis["errors"]["0"]

    cols, _ = read_table(tmp_path / "sw" / "sweep.csv")
    assert list(cols["status"]) == ["failed", "ok", "ok"]
    assert np.isnan(cols["peak_gamma_normalized"][0])
    assert np.all(np.isfinite(cols["resonance_deviation"][1:]))
    assert not (tmp_path / "sw" / "points" / "000").exists()
    assert (tmp_path / "sw" / "points" / "001" / "trace.csv").exists()
    verify(tmp_path / "sw", rerun=False)


def test_sweep_reports_its_partial_points(tmp_path, capsys):
    """Both points load their two atoms outside the central region, so each
    bundle is partial (no correlation map): the rows and the sweep say so,
    while `failed_points` and the exit code keep to points that raised."""
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "sw"
    base = RunConfig(rows=1, cols=10, spacing=0.3, atom_number_target=2, closure_alpha=2,
                     grid_kind="linear", t_end=2.0, linear_points=21,
                     correlation_times=(0.5,), label="sparse", outdir=str(out))
    SweepConfig(base=base, axis="spacing", values=(0.3, 0.35)).save(cfg_path)
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
    assert "(status: partial)" in capsys.readouterr().out
    for i in range(2):
        assert read_manifest(out / "points" / f"{i:03d}")["status"] == "partial"
    cols, _ = read_table(out / "sweep.csv")
    assert list(cols["status"]) == ["partial", "partial"]
    assert np.all(np.isfinite(cols["resonance_deviation"]))
    assert read_manifest(out)["status"] == "partial"
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["failed_points"] == [] and summary["errors"] == {}
    assert main(["verify", str(out)]) == EXIT_OK


def test_sweep_parallel_matches_serial_and_verifies(tmp_path):
    base = RunConfig(spacing=0.3, solver="cumulant", closure_alpha=1,
                     grid_kind="linear", t_end=1.0, linear_points=11,
                     label="par", outdir=str(tmp_path / "x"))
    values = (1, 4, 9, 16)
    serial = sweep(SweepConfig(base=base, axis="atom_number", values=values),
                   outdir=tmp_path / "s1", workers=1)
    parallel = sweep(SweepConfig(base=base, axis="atom_number", values=values),
                     outdir=tmp_path / "s2", workers=3)
    assert serial.manifest["files"] == parallel.manifest["files"]
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
        (tmp_path / "s2" / "sweep.csv").read_bytes()
    result = verify(tmp_path / "s1")
    assert result["rerun"]


def test_atom_number_sweep_fits_scaling_exponents(tmp_path):
    base = RunConfig(spacing=0.3, solver="cumulant", closure_alpha=2,
                     grid_kind="linear", t_end=2.0, linear_points=41,
                     label="scal", outdir=str(tmp_path / "sw"))
    sc = SweepConfig(base=base, axis="atom_number", values=(4, 9, 16, 25))
    bundle = sweep(sc)
    assert bundle.manifest["status"] == "ok"
    fit = bundle.analysis["exponent_peak_gamma"]
    assert fit["n_points"] == 4
    assert np.isfinite(fit["exponent"])
    assert fit["ci16"] <= fit["ci84"]
    assert "exponent_peak_rate_per_atom" in bundle.analysis


def test_atom_number_sweep_reports_missing_points(tmp_path):
    base = RunConfig(spacing=0.3, solver="cumulant", closure_alpha=1,
                     fill_probability=0.0, grid_kind="linear", t_end=1.0,
                     linear_points=11, label="none", outdir=str(tmp_path / "sw"))
    bundle = sweep(SweepConfig(base=base, axis="atom_number",
                               values=(4, 9, 16, 25)))
    assert bundle.analysis["failed_points"] == [0, 1, 2, 3]
    assert "needs >= 4 successful points" in bundle.analysis["error"]


def test_disorder_sweep_attaches_spectrum_statistics(tmp_path):
    base = exact_config(tmp_path, spacing=0.45, realizations=1,
                        solver="cumulant", closure_alpha=1,
                        outdir=str(tmp_path / "sw"))
    bundle = sweep(SweepConfig(base=base, axis="disorder_sigma",
                               values=(0.0, 0.05)))
    cols, _ = read_table(tmp_path / "sw" / "sweep.csv")
    assert list(cols)[-7:] == ["var_rate_median", "var_rate_p25", "var_rate_p75",
                               "max_rate_median", "max_rate_p25", "max_rate_p75", "status"]
    assert np.all(np.isfinite(cols["var_rate_median"]))
    assert cols["var_rate_median"][1] > cols["var_rate_median"][0]
    assert bundle.analysis["spectrum_percentiles"]["max_rate_median"][0] > 0


def test_disorder_sweep_spectrum_uses_the_point_drive(tmp_path):
    base = RunConfig(rows=2, cols=3, spacing=0.3, quantization_deg=90.0, solver="exact",
                     grid_kind="linear", t_end=1.0, linear_points=11,
                     outdir=str(tmp_path / "sw"))
    bundle = sweep(SweepConfig(base=base, axis="disorder_sigma", values=(0.0, 0.02)))
    clean = coupling_matrices(build_array(base.lattice_spec(), drive=base.drive())).jump_rates
    # the sigma = 0 percentiles are those of the clean 90-degree array
    # (2.2619), not of the default 30-degree drive (2.1362)
    assert bundle.analysis["spectrum_percentiles"]["max_rate_median"][0] == pytest.approx(
        clean[0], rel=1e-12)


def test_disorder_sweep_spectrum_follows_per_point_seeds(tmp_path):
    base = exact_config(tmp_path, rows=2, cols=3, spacing=0.3, t_end=1.0,
                        linear_points=11, outdir=str(tmp_path / "sw"))
    sc = SweepConfig(base=base, axis="disorder_sigma", values=(0.01, 0.02),
                     seed_policy="per_point")
    spectra = sweep(sc).analysis["spectrum_percentiles"]
    for i, sigma in enumerate(sc.values):
        point = sc.point_config(i, "p")
        scan = spectrum_scan(point.lattice_spec(), [point.spacing], DisorderSpec(sigma=sigma),
                             realizations=1, master_seed=point.master_seed)
        assert spectra["var_rate_median"][i] == scan["var_rate_median"][0]


def test_disorder_sweep_spectrum_is_that_of_the_solved_motional_couplings(tmp_path):
    from dipolarray.couplings import spectrum_percentiles

    base = exact_config(tmp_path, rows=2, cols=2, spacing=0.3, solver="cumulant",
                        closure_alpha=1, t_end=1.0, linear_points=11,
                        motion_enabled=True, motion_samples=300, realizations=2,
                        outdir=str(tmp_path / "sw"))
    sc = SweepConfig(base=base, axis="disorder_sigma", values=(0.0, 0.02))
    spectra = sweep(sc).analysis["spectrum_percentiles"]
    for i in range(len(sc.values)):
        point = sc.point_config(i, "p")
        rate_sets = []
        for seed in runner._realization_seeds(point):
            array = build_array(point.lattice_spec(), disorder=point.disorder_spec(),
                                drive=point.drive(), seed=seed)
            motion = dataclasses.replace(point.motion_spec(),
                                         seed=derive_seed(seed, STREAM_MOTION))
            rate_sets.append(coupling_matrices(array, motion=motion).jump_rates)
        want = spectrum_percentiles(rate_sets)
        assert {key: spectra[key][i] for key in want} == want


def test_cli_sweep_rejects_mistyped_values(tmp_path, capsys):
    data = {"base": exact_config(tmp_path).to_dict(), "axis": "spacing", "values": 0.5}
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(sweep_path)]) == EXIT_CONFIG
    assert "values: expected a list of numbers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_cli_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    sweep_path = tmp_path / "sweep.json"
    SweepConfig(base=exact_config(tmp_path), axis="spacing", values=(0.4,)).save(sweep_path)
    assert main(["sweep", "--config", str(sweep_path), "--workers", workers]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "workers: must be >= 1" in err
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("sweep.csv"))


def test_excitation_fraction_sweep(tmp_path):
    base = RunConfig(rows=2, cols=2, spacing=0.4, solver="cumulant",
                     closure_alpha=2, initial_state="coherent",
                     grid_kind="linear", t_end=2.0, linear_points=41,
                     label="frac", outdir=str(tmp_path / "sw"))
    bundle = sweep(SweepConfig(base=base, axis="excitation_fraction",
                               values=(0.25, 0.75)))
    cols, _ = read_table(tmp_path / "sw" / "sweep.csv")
    assert list(cols["status"]) == ["ok", "ok"]
    assert np.all(np.isfinite(cols["initial_gamma_normalized"]))
    assert np.all(np.isfinite(cols["final_fraction"]))
    points = tmp_path / "sw" / "points"
    frac = RunConfig.load(points / "000" / "config.json").excitation_fraction
    assert frac == 0.25


# ---- plot data


def test_plot_presets_for_runs(tmp_path):
    cfg = exact_config(tmp_path, correlation_times=(0.0, 1.0))
    bundle = run(cfg)
    out = bundle.outdir
    for preset in ("decay", "rate", "correlations", "spin_ssz"):
        paths = emit_plot_data(out, preset)
        assert paths and all(p.exists() for p in paths)
    cols, _ = read_table(out / "plots" / "decay.csv")
    assert set(cols) == {"t", "n_excited"}
    grid_cols, grid_meta = read_table(out / "plots" / "correlations_00.csv")
    assert "dr" in grid_cols and float(grid_meta["time"]) == 0.0
    ref_cols, _ = read_table(out / "plots" / "spin_ssz_reference.csv")
    assert ref_cols["s_z_over_n"][0] == pytest.approx(-0.5)
    assert ref_cols["s_z_over_n"][-1] == pytest.approx(0.5)

    # the manifest absorbs plot files, so the tamper check still passes
    manifest = read_manifest(out)
    assert any(rel.startswith("plots/") for rel in manifest["files"])
    verify(out, rerun=False)


def test_spin_reference_starts_at_the_state_the_run_starts_in(tmp_path):
    """The spin_ssz reference reads its start off the bundle: at T = 1 an
    incoherent p = 0.5 run's reference has the <S^2> and S_z of rho(0)."""
    cfg = exact_config(tmp_path, initial_state="incoherent", excitation_fraction=0.5)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    assert main(["run", "--config", str(cfg_path), "--plots", "spin_ssz"]) == EXIT_OK
    ref, _ = read_table(tmp_path / "out" / "plots" / "spin_ssz_reference.csv")
    assert ref["transmitted"][-1] == 1.0
    array = build_array(cfg.lattice_spec(), drive=cfg.drive())
    start = observables_exact(initial_density_matrix(cfg.initial_state_spec(), array),
                              coupling_matrices(array))
    n = array.n_atoms
    assert ref["s_z_over_n"][-1] == pytest.approx(start["s_z"] / n, abs=1e-12)
    assert ref["s_tot_over_n"][-1] == pytest.approx(
        np.sqrt(start["m_perp_sq"] + start["s_z_sq"]) / n, rel=1e-12)


def test_plot_presets_for_sweeps(tmp_path):
    base = exact_config(tmp_path, label="sp")
    spacing_dir = tmp_path / "spacing"
    sweep(SweepConfig(base=base, axis="spacing", values=(0.4,)),
          outdir=spacing_dir)
    paths = emit_plot_data(spacing_dir, "spacing")
    cols, _ = read_table(paths[0])
    assert set(cols) == {"spacing", "resonance_deviation", "peak_gamma_normalized"}

    with pytest.raises(MissingOutputsError, match="atom_number"):
        emit_plot_data(spacing_dir, "scaling")

    scaling_base = RunConfig(spacing=0.3, solver="cumulant", closure_alpha=1,
                             grid_kind="linear", t_end=1.0, linear_points=21,
                             label="sc", outdir=str(tmp_path / "x"))
    scaling_dir = tmp_path / "scaling"
    sweep(SweepConfig(base=scaling_base, axis="atom_number",
                      values=(4, 9, 16, 25)), outdir=scaling_dir)
    paths = emit_plot_data(scaling_dir, "scaling")
    _, meta = read_table(paths[0])
    assert "exponent_peak_gamma" in meta


def test_spacing_sweep_reads_resonance_deviation_off_the_point_trace(tmp_path):
    out = tmp_path / "spacing"
    sweep(SweepConfig(base=exact_config(tmp_path), axis="spacing", values=(0.3,)),
          outdir=out)
    rows, _ = read_table(out / "sweep.csv")
    trace, _ = read_table(out / "points" / "000" / "trace.csv")
    window = trace["t"] <= 1.75
    n = trace["n_excited"][window]
    g = n[0] * np.exp(-trace["t"][window])
    assert rows["resonance_deviation"][0] == np.max((g - n) / g) > 0
    _, meta = read_table(emit_plot_data(out, "spacing")[0])
    assert meta["ylabel"] == "max (g - n)/g"


def test_plot_preset_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        emit_plot_data(tmp_path, "sideways")
    with pytest.raises(MissingOutputsError, match="trace.csv"):
        emit_plot_data(tmp_path, "decay")


def record_file(out, rel, text):
    (out / rel).parent.mkdir(exist_ok=True)
    (out / rel).write_text(text)
    manifest = read_manifest(out)
    manifest["files"][rel] = runner._sha256(out / rel)
    write_manifest(out, manifest)


def test_verify_replays_the_plot_presets_of_a_run(tmp_path, capsys):
    """verify emits the bundle's plot presets after the re-run, so every
    plot file must come back byte for byte: one edited together with its
    manifest hash is a differing re-run."""
    cfg_path = tmp_path / "cfg.json"
    exact_config(tmp_path, correlation_times=(0.0, 1.0), fit_terms=1,
                 fit_resamples=10).save(cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path),
                 "--plots", "decay,rate,correlations,spin_ssz"]) == EXIT_OK
    assert sorted(rel for rel in read_manifest(out)["files"] if rel.startswith("plots/")) == [
        "plots/correlations_00.csv", "plots/correlations_01.csv", "plots/decay.csv",
        "plots/rate.csv", "plots/spin_ssz.csv", "plots/spin_ssz_reference.csv"]
    assert verify(out) == {"files_checked": 13, "rerun": True}

    lines = (out / "plots" / "decay.csv").read_text().splitlines(keepends=True)
    record_file(out, "plots/decay.csv", "".join(lines[:-1]))
    assert not verify(out, rerun=False)["rerun"]  # the hashes all hold
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == ["re-run differs: plots/decay.csv"]
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "re-run differs: plots/decay.csv" in capsys.readouterr().err


def test_verify_reports_recorded_plot_files_no_preset_writes(tmp_path):
    """A recorded plot file that no preset writes (a hand-added one), or that
    a preset writes only from inputs the re-run lacks (a sweep preset in a
    run bundle), is not produced: a mismatch, not an error."""
    out = run(exact_config(tmp_path, rows=1, cols=2, t_end=1.0, linear_points=11)).outdir
    record_file(out, "plots/extra.csv", "# t\n0.0\n")
    record_file(out, "plots/scaling.csv", "# n_atoms\n2.0\n")
    assert not verify(out, rerun=False)["rerun"]  # the hashes all hold
    with pytest.raises(VerificationError) as err:
        verify(out)
    assert err.value.mismatches == [
        "re-run did not produce recorded file: plots/extra.csv",
        "re-run did not produce recorded file: plots/scaling.csv"]


def test_verify_replays_the_plot_preset_of_a_sweep(tmp_path, capsys):
    base = RunConfig(spacing=0.3, solver="cumulant", closure_alpha=1, grid_kind="linear",
                     t_end=1.0, linear_points=21, label="sc", outdir=str(tmp_path / "x"))
    sweep_path = tmp_path / "sweep.json"
    SweepConfig(base=base, axis="atom_number", values=(4, 9, 16, 25)).save(sweep_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(sweep_path), "--outdir", str(out),
                 "--plots", "scaling"]) == EXIT_OK
    assert "plots/scaling.csv" in read_manifest(out)["files"]
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == (
        f"verified 24 files in {out}; re-run reproduced every file")


# ---- command line


def test_cli_run_verify_fit_cycle(tmp_path, capsys):
    """Plot data is written after the run; verify replays its presets, so the
    re-run reproduces every recorded file, plot files included."""
    cfg_path = tmp_path / "cfg.json"
    exact_config(tmp_path, fit_terms=1, fit_resamples=10).save(cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--plots", "decay,rate"]) == EXIT_OK
    assert (out / "plots" / "rate.csv").exists()
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == (
        f"verified 8 files in {out}; re-run reproduced every file")
    assert verify(out) == {"files_checked": 8, "rerun": True}
    assert main(["fit", str(out / "trace.csv"), "--terms", "1",
                 "--resamples", "5", "--out", str(tmp_path / "fc.csv")]) == EXIT_OK
    assert (tmp_path / "fc.csv").exists()


def test_unknown_plot_preset_fails_before_any_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    exact_config(tmp_path).save(cfg_path)
    assert main(["run", "--config", str(cfg_path), "--plots", "decay,nope"]) == EXIT_CONFIG
    assert "--plots" in capsys.readouterr().err
    sweep_path = tmp_path / "sweep.json"
    SweepConfig(base=exact_config(tmp_path), axis="spacing", values=(0.4,)).save(sweep_path)
    assert main(["sweep", "--config", str(sweep_path), "--plots", "nope"]) == EXIT_CONFIG
    assert "--plots" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plot_preset_for_another_bundle_fails_before_any_output(tmp_path, capsys):
    """A preset whose inputs the command's bundle cannot hold (a sweep preset
    on a run, a run preset on a sweep, or a sweep over another axis) is
    refused before anything is solved or written."""
    cfg_path = tmp_path / "cfg.json"
    exact_config(tmp_path).save(cfg_path)
    assert main(["run", "--config", str(cfg_path), "--plots", "decay,scaling"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: --plots: preset 'scaling' reads a sweep bundle, not a run bundle\n")
    sweep_path = tmp_path / "sweep.json"
    SweepConfig(base=exact_config(tmp_path), axis="spacing", values=(0.4,)).save(sweep_path)
    assert main(["sweep", "--config", str(sweep_path), "--plots", "decay"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: --plots: preset 'decay' reads a run bundle, not a sweep bundle\n")
    assert main(["sweep", "--config", str(sweep_path), "--plots", "spacing,scaling"]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: --plots: preset 'scaling' reads a sweep over atom_number, "
        "not over spacing\n")
    assert not (tmp_path / "out").exists()


def test_cli_seed_override_is_persisted_and_reproducible(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    exact_config(tmp_path).save(cfg_path)
    out = tmp_path / "seeded"
    assert main(["run", "--config", str(cfg_path), "--outdir", str(out),
                 "--seed", "123"]) == EXIT_OK
    assert RunConfig.load(out / "config.json").master_seed == 123
    assert main(["verify", str(out)]) == EXIT_OK


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": \n}')
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert "line" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == EXIT_CONFIG

    cfg_path = tmp_path / "doomed.json"
    exact_config(tmp_path, fill_probability=0.0).save(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_SOLVER

    ok_path = tmp_path / "ok.json"
    exact_config(tmp_path, outdir=str(tmp_path / "ok")).save(ok_path)
    assert main(["run", "--config", str(ok_path)]) == EXIT_OK
    (tmp_path / "ok" / "trace.csv").write_text("tampered\n")
    assert main(["verify", str(tmp_path / "ok"), "--no-rerun"]) == EXIT_VERIFY
    assert "trace.csv" in capsys.readouterr().err

    assert main(["run", "--config", str(ok_path), "--plots", "nope"]) == EXIT_CONFIG

    nan_trace = tmp_path / "nan_trace.csv"
    nan_trace.write_text("# t n_excited\n0.0 4.0\n0.5 2.4\nnan 1.5\n1.5 0.9\n2.0 0.5\n"
                         "2.5 0.3\n3.0 0.2\n")
    assert main(["fit", str(nan_trace), "--terms", "1", "--resamples", "0"]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_cli_fit_that_no_start_can_fit_exits_with_the_solver_code(tmp_path, capsys,
                                                                     recwarn):
    """A trace of 1e200 e^-t overflows every start's cost.  `fit` exits with
    the solver code and one stderr line, warns of no overflow and writes no
    fitted curve (`run` records the same failure as `fit_error`)."""
    t = np.linspace(0.0, 3.0, 31)
    trace = tmp_path / "huge.csv"
    write_table(trace, {"t": t, "n_excited": 1e200 * np.exp(-t)})
    curve = tmp_path / "fc.csv"
    assert main(["fit", str(trace), "--terms", "1", "--resamples", "0",
                 "--out", str(curve)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == ("fit failure: all fit starts failed: none of 16 reached "
                            "a finite cost\n")
    assert captured.out == ""
    assert not curve.exists()
    assert not [str(w.message) for w in recwarn]


def test_cli_run_reports_an_integrator_collapse(tmp_path, monkeypatch, capsys):
    """A right-hand side that turns NaN collapses DOP853's step size: the run
    exits with the solver code and its bundle records why."""
    calls, derivative = [], exact._Generator.__call__

    def turns_nan(self, y):
        # the first two calls choose the initial step and stay finite (a NaN
        # there raises "non-finite derivative at t = 0" instead), so the failure
        # reached is the step-size collapse; every later call is NaN
        calls.append(1)
        return derivative(self, y) if len(calls) <= 2 else np.full_like(y, np.nan)

    monkeypatch.setattr(exact._Generator, "__call__", turns_nan)
    cfg_path = tmp_path / "nan.json"
    exact_config(tmp_path, rows=1, cols=2).save(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_SOLVER
    manifest = read_manifest(tmp_path / "out")
    assert manifest["status"] == "solver_failure"
    assert ("IntegrationFailureError: integrator failed (step-size collapse)"
            in manifest["error"])
    assert list(manifest["files"]) == ["config.json"]
    assert "step-size collapse" in capsys.readouterr().err


def test_cli_run_with_some_empty_loadings_is_partial(tmp_path, capsys):
    # seed 2 leaves realizations 0 and 2 of the 1x1 site empty
    cfg_path = tmp_path / "partial.json"
    RunConfig(rows=1, cols=1, fill_probability=0.3, realizations=3, master_seed=2,
              t_end=1.0, outdir=str(tmp_path / "out")).save(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_SOLVER
    manifest = read_manifest(tmp_path / "out")
    assert manifest["status"] == "partial"
    assert [line.split(":")[0] for line in manifest["failures"]] == ["0", "2"]
    assert all("EmptyRealizationError" in line for line in manifest["failures"])
    err = capsys.readouterr().err
    assert all(f"failed realization {line}" in err for line in manifest["failures"])


def test_run_whose_loading_leaves_the_correlation_region_empty_is_partial(tmp_path, capsys):
    """Seed 0 loads the two atoms at columns 0 and 9, outside the central
    half-region: the run writes no correlations.csv, records why in
    analysis.json, and its partial bundle verifies."""
    cfg_path, out = tmp_path / "sparse.json", tmp_path / "out"
    RunConfig(rows=1, cols=10, spacing=0.3, atom_number_target=2, closure_alpha=2,
              grid_kind="linear", t_end=1.0, linear_points=11, correlation_times=(0.5,),
              master_seed=0, outdir=str(out)).save(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    manifest = read_manifest(out)
    assert manifest["status"] == "partial"
    assert sorted(manifest["files"]) == ["analysis.json", "config.json", "spin.csv",
                                         "trace.csv"]
    analysis = json.loads((out / "analysis.json").read_text())
    assert analysis["correlations_error"] == "correlation region is empty"
    assert main(["verify", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_cli_path_mistakes_exit_with_the_config_code(tmp_path, capsys):
    """A file where a directory belongs, or a directory where a file belongs,
    is a configuration error reported on one line, not a traceback."""
    cfg_path, sweep_path = tmp_path / "cfg.json", tmp_path / "sweep.json"
    exact_config(tmp_path).save(cfg_path)
    SweepConfig(base=exact_config(tmp_path), axis="spacing", values=(0.4,)).save(sweep_path)
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("")
    a_dir.mkdir()
    for argv in (["run", "--config", str(cfg_path), "--outdir", str(a_file)],
                 ["run", "--config", str(cfg_path), "--outdir", str(a_file / "sub")],
                 ["sweep", "--config", str(sweep_path), "--outdir", str(a_file)],
                 ["run", "--config", str(a_dir)],
                 ["sweep", "--config", str(a_dir)],
                 ["fit", str(a_dir)]):
        assert main(argv) == EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert a_file.read_text() == "" and not any(a_dir.iterdir())
    assert not (tmp_path / "out").exists()


def test_off_grid_correlation_time_fails_before_any_output(tmp_path, capsys):
    data = exact_config(tmp_path).to_dict()
    data["correlation_times"] = [0.123]
    cfg_path = tmp_path / "off_grid.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "not on the time grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overfull_loading_target_fails_before_any_output(tmp_path, capsys):
    data = exact_config(tmp_path).to_dict()
    data["atom_number_target"] = 5
    cfg_path = tmp_path / "overfull.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "atom_number_target" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_short_fit_window_fails_before_any_output(tmp_path, capsys):
    data = exact_config(tmp_path).to_dict()
    data.update(fit_terms=1, fit_window=0.3)  # 4 grid points; the fit needs 6
    cfg_path = tmp_path / "short_window.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "fit_window" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_reports_partial_failures(tmp_path, capsys):
    sweep_path = tmp_path / "sweep.json"
    base = exact_config(tmp_path, outdir=str(tmp_path / "sw"))
    SweepConfig(base=base, axis="spacing", values=(-0.1, 0.4)).save(sweep_path)
    assert main(["sweep", "--config", str(sweep_path)]) == EXIT_SOLVER
    assert "point 0 failed" in capsys.readouterr().err
    assert main(["verify", str(tmp_path / "sw"), "--no-rerun"]) == EXIT_OK


def test_cli_spectrum_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["spectrum-scan", "--rows", "2", "--cols", "2",
                 "--spacing-min", "0.45", "--spacing-max", "0.55",
                 "--step", "0.05", "--sigma", "0.02", "--realizations", "2",
                 "--out", str(out)]) == EXIT_OK
    cols, meta = read_table(out)
    assert cols["spacing"].size == 3
    assert {"var_rate_median", "max_rate_median"} <= set(cols)
    assert meta["realizations"] == "2"

    assert main(["spectrum-scan", "--rows", "2", "--cols", "2",
                 "--spacing-min", "0.5", "--spacing-max", "0.4",
                 "--step", "0.05", "--out", str(out)]) == EXIT_CONFIG

    capsys.readouterr()

    # no loading draw holds an atom: a solver failure, not a traceback
    empty = tmp_path / "empty.csv"
    assert main(["spectrum-scan", "--rows", "2", "--cols", "2",
                 "--spacing-min", "0.3", "--spacing-max", "0.3",
                 "--step", "0.1", "--fill", "0.0", "--out", str(empty)]) == EXIT_SOLVER
    assert capsys.readouterr().err.count("\n") == 1
    assert not empty.exists()


def test_bundle_written_under_one_blas_thread_verifies_under_two(tmp_path):
    """The integrator's step-size norms are summed by numpy, not by a BLAS
    dot whose bits follow the thread count, so a bundle written under one
    BLAS thread re-runs byte for byte under two.  Only a machine with at
    least two cores tells the two apart."""
    cfg_path = tmp_path / "cfg.json"
    RunConfig(rows=2, cols=4, spacing=0.2, solver="exact", t_end=3.0,
              label="threads").save(cfg_path)
    src = Path(runner.__file__).resolve().parents[1]
    out = tmp_path / "out"
    for threads, args in (("1", ["run", "--config", str(cfg_path), "--outdir", str(out)]),
                          ("2", ["verify", str(out)])):
        proc = subprocess.run([sys.executable, "-m", "dipolarray.cli", *args],
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
