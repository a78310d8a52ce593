"""The benchmark's traced mode: every name its tracer rebinds must still exist
and be called through, so a refactor cannot silently break `--trace 1`."""

import importlib.util
from pathlib import Path

from dipolarray import cumulant, exact, runner
from dipolarray.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

REBOUND = {
    runner: ("build_array", "coupling_matrices", "evolve_cumulant", "ensemble_run",
             "evolve_exact", "spectrum_scan", "fit_stretched", "connected_correlations",
             "subradiant_tail", "instantaneous_rate", "resonance_deviation",
             "write_table", "run", "sweep"),
    cumulant: ("build_array", "coupling_matrices", "evolve_cumulant", "DOP853"),
    exact: ("DOP853",),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def tiny_config(tmp_path, label, **kw):
    fields = dict(rows=1, cols=2, spacing=0.4, grid_kind="linear", t_end=0.5,
                  linear_points=6, label=label, outdir=str(tmp_path / label))
    fields.update(kw)
    return RunConfig(**fields)


def test_tracer_counts_both_solvers_and_restores_every_name(tmp_path):
    originals = {(module, name): getattr(module, name)
                 for module, names in REBOUND.items() for name in names}
    tracer = load_tracer()
    tracer.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
        runner.run(tiny_config(tmp_path, "exact", solver="exact"))
        runner.run(tiny_config(tmp_path, "cumulant", solver="cumulant",
                               closure_alpha=2, correlation_times=(0.5,)))
    finally:
        tracer.uninstall()

    assert tracer.counts["exact.nfev"] > 0
    assert tracer.counts["exact.steps"] > 0
    assert tracer.counts["cumulant.nfev"] > 0
    assert tracer.counts["cumulant.steps"] > 0
    # 2 populations + 2 for the one coherence + 1 pair population
    assert tracer.counts["cumulant.state_len"] == 5
    spans = {span[0] for span in tracer.spans}
    assert {"runner.run", "geometry.build_array", "couplings.coupling_matrices",
            "exact.evolve_exact", "cumulant.evolve_cumulant", "cumulant.pack_cold",
            "analysis.connected_correlations", "tableio.write_table"} <= spans
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, f"{module.__name__}.{name}"
