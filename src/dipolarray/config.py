"""Run and sweep configuration: versioned, human-editable JSON.

A config file captures everything a run depends on, so a persisted config
re-runs to byte-identical outputs.  All dynamical quantities are expressed
in simulation units (lengths in wavelengths, times in single-atom lifetimes,
rates in gamma0); the physical constants stored alongside are conversion
factors for presentation and default to the experimental values 841 nm and
20 us.  Serialization is plain JSON with sorted keys and repr-roundtrip
floats (`tableio.json_text`), which makes the on-disk form deterministic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import RESONANCE_WINDOW_FACTOR, fit_window_mask
from .couplings import MotionSpec
from .cumulant import ClosureOrder, make_time_grid
from .exact import DEFAULT_ATOM_CAP, InitialStateSpec, grid_index
from .geometry import DisorderSpec, DriveGeometry, LatticeSpec
from .tableio import json_text

SCHEMA_VERSION = 1

SOLVERS = ("exact", "cumulant")
INITIAL_STATES = ("inverted", "incoherent", "coherent")
GRID_KINDS = ("standard", "linear")
SWEEP_AXES = ("atom_number", "spacing", "disorder_sigma", "excitation_fraction")
SEED_POLICIES = ("shared", "per_point")

__all__ = [
    "SCHEMA_VERSION",
    "SWEEP_AXES",
    "ConfigError",
    "RunConfig",
    "SweepConfig",
]


class ConfigError(ValueError):
    """Invalid configuration; `where` names the offending field or file spot."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _require(condition: bool, message: str, where: str):
    if not condition:
        raise ConfigError(message, where)


def _check_field_types(config) -> None:
    """Per-field type checks so a bad value is reported by name.

    Expected types are inferred from the field defaults; fields defaulting
    to None accept numbers or None, and fields without a default are left
    to their class.
    """
    for f in dataclasses.fields(config):
        value, default = getattr(config, f.name), f.default
        if default is dataclasses.MISSING:
            continue
        if isinstance(default, bool):
            ok = isinstance(value, bool)
            expected = "true/false"
        elif isinstance(default, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
            expected = "an integer"
        elif isinstance(default, float):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            expected = "a number"
        elif isinstance(default, str):
            ok = isinstance(value, str)
            expected = "a string"
        elif isinstance(default, tuple):
            ok = isinstance(value, (list, tuple))
            expected = "a list"
        else:  # fields defaulting to None hold optional numbers
            ok = value is None or (isinstance(value, (int, float))
                                   and not isinstance(value, bool))
            expected = "a number or null"
        if not ok:
            raise ConfigError(f"expected {expected}, got {value!r}", f.name)


class _JsonConfig:
    """Serialization shared by the config classes: JSON of every field (a
    nested config as an object), its sha256, and file round trips through
    `from_dict`.  Subclasses name themselves in error messages by `_where`."""

    @classmethod
    def _check_keys(cls, data, where: str) -> None:
        """`data` must be a JSON object naming only fields of `cls`."""
        if not isinstance(data, dict):
            raise ConfigError("expected a JSON object", where)
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown fields {unknown}", where)

    @classmethod
    def from_dict(cls, data: dict, where: str | None = None):
        where = where or cls._where
        cls._check_keys(data, where)
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:  # ConfigError included
            raise ConfigError(str(exc), where) from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json_text(self.to_dict())

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str, where: str | None = None):
        where = where or cls._where
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}", where) from None
        return cls.from_dict(data, where)

    @classmethod
    def load(cls, path):
        return cls.from_json(Path(path).read_text(), where=str(path))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


@dataclass(frozen=True)
class RunConfig(_JsonConfig):
    """One solver run: geometry, initial state, solver, grid, seeds, outputs."""

    # presentation constants (SI conversion factors, not used by solvers)
    wavelength_nm: float = 841.0
    lifetime_us: float = 20.0
    # lattice
    rows: int = 4
    cols: int = 4
    spacing: float = 0.316
    fill_probability: float = 1.0
    atom_number_target: int | None = None
    # drive / dipole orientation, in-plane angles from +x in degrees
    quantization_deg: float = 30.0
    beam_deg: float = 15.0
    polarization: str = "sigma_minus"
    # positional disorder (sigma in wavelengths; 0 disables)
    disorder_sigma: float = 0.0
    disorder_in_plane_only: bool = False
    # motional averaging (enabled flag keeps the defaults visible in files)
    motion_enabled: bool = False
    motion_widths: tuple = (0.05, 0.05, 0.1)
    motion_excited_band_probability: float = 0.06
    motion_samples: int = 20_000
    # initial state
    initial_state: str = "inverted"
    excitation_fraction: float = 1.0
    phase_from_beam: bool = True
    phase_offset: float = 0.0
    # solver
    solver: str = "cumulant"
    closure_alpha: int = 2
    rtol: float = 1e-7
    atol: float = 1e-9
    # time grid (units of tau)
    grid_kind: str = "standard"
    t_end: float = 20.0
    dense_until: float = 5.0
    dense_step: float = 0.05
    log_points: int = 40
    linear_points: int = 201
    # sampling
    realizations: int = 1
    master_seed: int = 0
    # analysis outputs
    fit_terms: int = 0
    fit_window: float | None = None
    fit_resamples: int = 500
    correlation_times: tuple = ()
    # bookkeeping
    label: str = "run"
    outdir: str = "out"
    schema_version: int = SCHEMA_VERSION

    _where = "run config"

    def __post_init__(self):
        _check_field_types(self)
        object.__setattr__(self, "motion_widths", tuple(float(w) for w in self.motion_widths))
        object.__setattr__(self, "correlation_times",
                           tuple(float(t) for t in self.correlation_times))
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version}", "schema_version")
        _require(self.wavelength_nm > 0, "must be positive", "wavelength_nm")
        _require(self.lifetime_us > 0, "must be positive", "lifetime_us")
        # the solver-facing specs hold the lattice, drive, disorder, motion and
        # closure rules; their messages lead with the spec's field name
        for build, prefix in ((self.lattice_spec, ""), (self.drive, ""),
                              (self.disorder_spec, "disorder_"),
                              (self.motion_spec, "motion_"),
                              (self.closure_order, "closure_")):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(str(exc), prefix + str(exc).split()[0]) from None
        _require(self.initial_state in INITIAL_STATES,
                 f"must be one of {INITIAL_STATES}", "initial_state")
        _require(0.0 <= self.excitation_fraction <= 1.0,
                 "must lie in [0, 1]", "excitation_fraction")
        # start fields the initial state would ignore are refused, not recorded
        _require(self.initial_state != "inverted" or self.excitation_fraction == 1.0,
                 "must be 1 for the inverted start", "excitation_fraction")
        _require(self.initial_state == "coherent" or self.phase_offset == 0.0,
                 "phases only apply to the coherent start", "phase_offset")
        _require(self.initial_state == "coherent" or self.phase_from_beam,
                 "phases only apply to the coherent start", "phase_from_beam")
        _require(self.solver in SOLVERS, f"must be one of {SOLVERS}", "solver")
        if self.solver == "exact":
            n_max = self.atom_number_target or self.rows * self.cols
            _require(n_max <= DEFAULT_ATOM_CAP,
                     f"{n_max} atoms exceed the exact-solver cap {DEFAULT_ATOM_CAP}",
                     "solver")
            _require(self.realizations == 1,
                     "exact solver supports a single realization per run", "realizations")
        _require(self.grid_kind in GRID_KINDS, f"must be one of {GRID_KINDS}", "grid_kind")
        _require(self.t_end > 0, "must be positive", "t_end")
        if self.grid_kind == "standard":
            _require(self.log_points >= 1, "must be >= 1", "log_points")
        else:
            _require(self.linear_points >= 2, "must be >= 2", "linear_points")
        _require(self.realizations >= 1, "must be >= 1", "realizations")
        _require(self.master_seed >= 0, "must be >= 0", "master_seed")
        _require(self.rtol > 0 and self.atol > 0, "tolerances must be positive", "rtol/atol")
        _require(self.fit_terms in (0, 1, 2, 3), "must be 0 (skip) to 3", "fit_terms")
        _require(self.fit_resamples == 0 or self.fit_resamples >= 2,
                 "must be 0 (skip) or at least 2", "fit_resamples")
        _require(self.fit_window is None or self.fit_window > 0,
                 "must be positive", "fit_window")
        try:
            times = self.times()
        except ValueError as exc:
            raise ConfigError(str(exc), "grid") from None
        if self.fit_terms:
            try:
                fit_window_mask(times, self.fit_terms, self.fit_window)
            except ValueError as exc:
                raise ConfigError(str(exc), "fit_window") from None
        if self.correlation_times:
            for t in self.correlation_times:
                try:
                    grid_index(times, t)
                except ValueError as exc:
                    raise ConfigError(f"correlation {exc}", "correlation_times") from None
            _require(self.realizations == 1,
                     "correlation snapshots need realizations = 1", "correlation_times")
            _require(self.solver == "exact" or self.closure_alpha >= 2,
                     "correlation snapshots need pair populations; use "
                     "closure_alpha >= 2 or the exact solver", "correlation_times")
        _require(bool(self.label), "must be non-empty", "label")

    # ---- builders for the solver-facing spec objects

    def lattice_spec(self) -> LatticeSpec:
        return LatticeSpec(rows=self.rows, cols=self.cols, spacing=self.spacing,
                           fill_probability=self.fill_probability,
                           atom_number_target=self.atom_number_target)

    def drive(self) -> DriveGeometry:
        return DriveGeometry.from_angles(quantization_deg=self.quantization_deg,
                                         beam_deg=self.beam_deg,
                                         polarization=self.polarization)

    def disorder_spec(self) -> DisorderSpec | None:
        if self.disorder_sigma == 0:
            return None
        return DisorderSpec(sigma=self.disorder_sigma,
                            in_plane_only=self.disorder_in_plane_only)

    def motion_spec(self) -> MotionSpec | None:
        if not self.motion_enabled:
            return None
        return MotionSpec(widths=self.motion_widths,
                          excited_band_probability=self.motion_excited_band_probability,
                          samples=self.motion_samples)

    def closure_order(self) -> ClosureOrder:
        """The cumulant closure; its alpha is checked for either solver."""
        coherent = self.solver == "cumulant" and self.initial_state == "coherent"
        return ClosureOrder(alpha=self.closure_alpha, coherent_sector=coherent)

    def initial_state_spec(self) -> InitialStateSpec:
        coherent = self.initial_state == "coherent"  # inverted: excitation_fraction 1
        beam = coherent and self.phase_from_beam
        return InitialStateSpec(
            excitation_probability=self.excitation_fraction, coherent=coherent,
            phase_gradient=tuple(float(c) for c in self.drive().beam_axis) if beam else None,
            phase_offset=self.phase_offset)

    def times(self):
        if self.grid_kind == "linear":
            return np.linspace(0.0, self.t_end, self.linear_points)
        return make_time_grid(dense_until=self.dense_until, end=self.t_end,
                              dense_step=self.dense_step, log_points=self.log_points)


@dataclass(frozen=True)
class SweepConfig(_JsonConfig):
    """A family of runs along one axis, plus the per-axis post-processing.

    `seed_policy` controls the master seed of point i: "shared" reuses the
    base seed everywhere (common random numbers, smoother trends along the
    axis), "per_point" derives an independent seed per point.
    """

    base: RunConfig
    axis: str
    values: tuple
    seed_policy: str = "shared"
    workers: int = 1
    schema_version: int = SCHEMA_VERSION

    _where = "sweep config"

    def __post_init__(self):
        _check_field_types(self)
        _require(isinstance(self.base, RunConfig), "expected a run config", "base")
        _require(isinstance(self.values, (list, tuple)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in self.values),
            f"expected a list of numbers, got {self.values!r}", "values")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version}", "schema_version")
        _require(self.axis in SWEEP_AXES, f"must be one of {SWEEP_AXES}", "axis")
        _require(len(self.values) >= 1, "must be non-empty", "values")
        _require(self.seed_policy in SEED_POLICIES,
                 f"must be one of {SEED_POLICIES}", "seed_policy")
        _require(self.workers >= 1, "must be >= 1", "workers")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        _require(all(d > 0 for d in diffs) or all(d < 0 for d in diffs) or not diffs,
                 "values must be strictly monotone", "values")
        if self.axis == "atom_number":
            for v in self.values:
                n = int(v)
                _require(n == v and n >= 1, "atom numbers must be positive integers",
                         "values")
                _require(math.isqrt(n) ** 2 == n,
                         f"{n} is not a perfect square (points are square arrays)",
                         "values")
            _require(len(self.values) >= 4,
                     "scaling-exponent fit needs at least 4 atom numbers", "values")
            _require(self.base.atom_number_target is None,
                     "exact-N loading would give every point the same atom number; "
                     "leave it unset on atom_number sweeps", "base.atom_number_target")
        if self.axis == "spacing":
            _require(self.base.t_end >= RESONANCE_WINDOW_FACTOR,
                     f"resonance deviation reads the first {RESONANCE_WINDOW_FACTOR} "
                     "tau; raise t_end", "base.t_end")
        if self.axis == "excitation_fraction":
            for v in self.values:
                _require(0 < v <= 1, "fractions must lie in (0, 1]", "values")
            _require(self.base.initial_state == "coherent",
                     "excitation_fraction sweeps drive the coherent initial state",
                     "base.initial_state")

    def point_config(self, index: int, outdir: str) -> RunConfig:
        from .seeding import STREAM_SWEEP, derive_seed
        value = self.values[index]
        seed = (self.base.master_seed if self.seed_policy == "shared"
                else derive_seed(self.base.master_seed, STREAM_SWEEP, index))
        changes = dict(master_seed=seed, outdir=outdir,
                      label=f"{self.base.label}_{self.axis}_{index:03d}")
        if self.axis == "atom_number":
            side = math.isqrt(int(value))
            changes.update(rows=side, cols=side)
        else:  # the other axes name the RunConfig field they set
            changes[self.axis] = float(value)
        return dataclasses.replace(self.base, **changes)

    @classmethod
    def from_dict(cls, data: dict, where: str = "sweep config") -> "SweepConfig":
        cls._check_keys(data, where)
        if "base" not in data or "axis" not in data or "values" not in data:
            raise ConfigError("sweep config needs base, axis, and values", where)
        base = RunConfig.from_dict(data["base"], where=f"{where}: base")
        return super().from_dict({**data, "base": base}, where)
