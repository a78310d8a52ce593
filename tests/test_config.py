"""Config schema: validation diagnostics, serialization, sweep point configs."""

import json

import numpy as np
import pytest

from dipolarray.config import ConfigError, RunConfig, SweepConfig
from dipolarray.cumulant import make_time_grid
from dipolarray.seeding import STREAM_SWEEP, derive_seed


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.solver == "cumulant"
    assert cfg.wavelength_nm == 841.0
    assert cfg.lifetime_us == 20.0


def test_json_roundtrip_preserves_everything():
    cfg = RunConfig(rows=3, cols=5, spacing=0.25, fill_probability=0.6,
                    atom_number_target=9, disorder_sigma=0.02,
                    motion_enabled=True, initial_state="coherent",
                    excitation_fraction=0.4, closure_alpha=2,
                    correlation_times=(0.0, 1.0), fit_terms=2, fit_window=8.0,
                    master_seed=77, label="rt")
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash == cfg.config_hash


def test_save_load(tmp_path):
    cfg = RunConfig(rows=2, cols=2, label="disk")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_hash_tracks_content():
    a = RunConfig(master_seed=1)
    b = RunConfig(master_seed=2)
    assert a.config_hash != b.config_hash
    assert a.config_hash == RunConfig(master_seed=1).config_hash


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(solver="magic"), "solver"),
    (dict(rows=0), "rows"),
    (dict(spacing=-0.1), "spacing"),
    (dict(fill_probability=1.5), "fill_probability"),
    (dict(initial_state="odd"), "initial_state"),
    (dict(excitation_fraction=1.2), "excitation_fraction"),
    (dict(closure_alpha=4), "closure_alpha"),
    (dict(solver="exact", rows=4, cols=4), "exceed"),
    (dict(solver="exact", rows=2, cols=2, realizations=3), "realizations"),
    (dict(closure_alpha=3, initial_state="coherent"), "incoherent sector"),
    (dict(grid_kind="weird"), "grid_kind"),
    (dict(t_end=0.0), "t_end"),
    (dict(linear_points=1, grid_kind="linear"), "linear_points"),
    (dict(correlation_times=(25.0,)), "correlation_times"),
    (dict(correlation_times=(1.0,), realizations=4), "correlation_times"),
    (dict(fit_terms=5), "fit_terms"),
    (dict(label=""), "label"),
    (dict(schema_version=99), "schema_version"),
    (dict(solver="exact", rows=2, cols=2, grid_kind="linear", t_end=3.0,
          linear_points=31, correlation_times=(0.123,)), "not on the time grid"),
    (dict(closure_alpha=1, correlation_times=(1.0,)), "pair populations"),
    (dict(rows=5, cols=5, atom_number_target=30), "atom_number_target"),
    (dict(motion_enabled=True, motion_widths=(0.05, 0.05)), "motion_widths"),
    (dict(motion_enabled=True, motion_excited_band_probability=1.5),
     "motion_excited_band_probability"),
    (dict(motion_enabled=True, motion_samples=0), "motion_samples"),
    (dict(fit_window=-1.0), "fit_window"),
    # 4 grid points up to t = 0.3 where a one-term fit needs 6
    (dict(rows=1, cols=2, grid_kind="linear", t_end=1.0, linear_points=11,
          fit_terms=1, fit_window=0.3), "fit_window"),
    (dict(disorder_sigma=-0.1), "disorder_sigma"),
    (dict(polarization="pi"), "polarization"),
    (dict(rows=2, cols=2, atom_number_target=2.5), "atom_number_target"),
    (dict(fit_resamples=1), "fit_resamples"),
    (dict(cols=True), "cols"),
    (dict(master_seed=-3), "master_seed"),
    (dict(initial_state="inverted", excitation_fraction=0.5), "excitation_fraction"),
    (dict(initial_state="incoherent", excitation_fraction=0.5, phase_offset=0.4),
     "phase_offset"),
    (dict(phase_offset=0.4), "phase_offset"),
    (dict(initial_state="incoherent", excitation_fraction=0.5, phase_from_beam=False),
     "phase_from_beam"),
])
def test_validation_names_the_field(kwargs, fragment):
    with pytest.raises(ConfigError) as err:
        RunConfig(**kwargs)
    assert fragment in str(err.value)


def test_unknown_field_is_rejected():
    with pytest.raises(ConfigError, match="unknown fields.*spacng"):
        RunConfig.from_dict({"spacng": 0.3})


def test_wrong_type_names_the_field():
    with pytest.raises(ConfigError, match="rows: expected an integer"):
        RunConfig.from_dict({"rows": "two"})
    with pytest.raises(ConfigError, match="motion_enabled: expected true/false"):
        RunConfig.from_dict({"motion_enabled": 1})
    with pytest.raises(ConfigError, match="spacing: expected a number"):
        RunConfig.from_dict({"spacing": True})


def test_malformed_json_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line 2, column"):
        RunConfig.from_json('{\n "rows": ,\n}')


def test_times_linear_grid():
    cfg = RunConfig(grid_kind="linear", t_end=4.0, linear_points=9)
    t = cfg.times()
    assert t[0] == 0.0 and t[-1] == 4.0 and t.size == 9


def test_times_standard_grid_matches_builder():
    cfg = RunConfig(t_end=20.0, dense_until=5.0, dense_step=0.05, log_points=40)
    np.testing.assert_array_equal(cfg.times(), make_time_grid(5.0, 20.0, 0.05, 40))


def test_standard_grid_short_run_caps_dense_block():
    t = RunConfig(t_end=2.0, dense_until=5.0).times()
    assert t[-1] == 2.0 and np.all(np.diff(t) > 0)


@pytest.mark.parametrize("kwargs", [
    dict(dense_until=4.99, t_end=5.0),  # dense part ends at 5.0, the tail starts at 4.99
    dict(t_end=3.02),                   # the dense part stops at 3.0
    dict(t_end=4.99),                   # the dense part runs on to 5.0
])
def test_standard_grid_must_rise_strictly_to_t_end(kwargs):
    with pytest.raises(ConfigError, match="grid: .*dense_step") as err:
        RunConfig(**kwargs)
    assert "dense_until" in str(err.value)


def test_initial_state_spec_coherent_phase_options():
    cfg = RunConfig(initial_state="coherent", excitation_fraction=0.5)
    spec = cfg.initial_state_spec()
    assert spec.coherent
    assert spec.phase_gradient is not None
    flat = RunConfig(initial_state="coherent", excitation_fraction=0.5,
                     phase_from_beam=False)
    assert flat.initial_state_spec().phase_gradient is None


def test_coherent_rotation_reproduces_excitation_fraction():
    for p in (0.1, 0.5, 0.96):
        spec = RunConfig(initial_state="coherent",
                         excitation_fraction=p).initial_state_spec()
        assert spec.excitation_probability == pytest.approx(p, rel=1e-12)


# ---- sweeps


def base_for(axis):
    if axis == "excitation_fraction":
        return RunConfig(initial_state="coherent", label="b")
    return RunConfig(label="b")


def test_sweep_roundtrip(tmp_path):
    sc = SweepConfig(base=base_for("spacing"), axis="spacing",
                     values=(0.2, 0.3, 0.4), seed_policy="per_point", workers=2)
    path = tmp_path / "sweep.json"
    sc.save(path)
    assert SweepConfig.load(path) == sc


@pytest.mark.parametrize("axis, values, fragment", [
    ("spacing", (), "non-empty"),
    ("spacing", (0.3, 0.2, 0.4), "monotone"),
    ("spacing", (0.3, 0.3), "monotone"),
    ("atom_number", (4, 9, 15, 25), "perfect square"),
    ("atom_number", (4, 9, 16), "at least 4"),
    ("excitation_fraction", (0.0, 0.5), r"\(0, 1\]"),
    ("invented", (1.0,), "axis"),
])
def test_sweep_validation(axis, values, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SweepConfig(base=base_for(axis), axis=axis, values=values)


@pytest.mark.parametrize("field, value", [
    ("workers", 2.5),
    ("workers", True),
    ("schema_version", "1"),
    ("values", 0.5),
    ("values", [None]),
])
def test_sweep_from_dict_names_the_mistyped_field(field, value):
    data = {"base": RunConfig(label="b").to_dict(), "axis": "spacing",
            "values": [0.3, 0.4], field: value}
    with pytest.raises(ConfigError, match=f"sweep config: {field}: expected"):
        SweepConfig.from_dict(data)


def test_excitation_sweep_requires_coherent_base():
    with pytest.raises(ConfigError, match="coherent"):
        SweepConfig(base=RunConfig(initial_state="inverted"),
                    axis="excitation_fraction", values=(0.25, 0.5))


def test_atom_number_sweep_rejects_a_loading_target():
    # exact-N loading would put the same atom count at every point
    with pytest.raises(ConfigError, match="base.atom_number_target"):
        SweepConfig(base=RunConfig(atom_number_target=3), axis="atom_number",
                    values=(4, 9, 16, 25))


def test_spacing_sweep_requires_window_coverage():
    with pytest.raises(ConfigError, match="t_end"):
        SweepConfig(base=RunConfig(t_end=1.0), axis="spacing", values=(0.3, 0.4))


def test_point_config_applies_axis_value():
    sc = SweepConfig(base=base_for("atom_number"), axis="atom_number",
                     values=(4, 9, 16, 25))
    cfg = sc.point_config(2, "points/002")
    assert (cfg.rows, cfg.cols) == (4, 4)
    assert cfg.outdir == "points/002"
    assert cfg.label == "b_atom_number_002"

    sigma = SweepConfig(base=base_for("disorder_sigma"), axis="disorder_sigma",
                        values=(0.0, 0.02)).point_config(1, "p")
    assert sigma.disorder_sigma == 0.02

    frac = SweepConfig(base=base_for("excitation_fraction"),
                       axis="excitation_fraction",
                       values=(0.25, 0.75)).point_config(0, "p")
    assert frac.initial_state == "coherent"
    assert frac.excitation_fraction == 0.25


def test_seed_policy_shared_vs_per_point():
    shared = SweepConfig(base=base_for("spacing"), axis="spacing",
                         values=(0.2, 0.3), seed_policy="shared")
    assert {shared.point_config(i, "p").master_seed for i in range(2)} == \
        {shared.base.master_seed}
    per = SweepConfig(base=base_for("spacing"), axis="spacing",
                      values=(0.2, 0.3), seed_policy="per_point")
    seeds = [per.point_config(i, "p").master_seed for i in range(2)]
    assert seeds == [derive_seed(per.base.master_seed, STREAM_SWEEP, i)
                     for i in range(2)]
    assert seeds[0] != seeds[1]


def test_sweep_json_is_deterministic():
    sc = SweepConfig(base=base_for("spacing"), axis="spacing", values=(0.2, 0.3))
    assert sc.to_json() == SweepConfig.from_json(sc.to_json()).to_json()
    parsed = json.loads(sc.to_json())
    assert parsed["axis"] == "spacing"
    assert parsed["base"]["label"] == "b"
