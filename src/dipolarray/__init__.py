"""Collective spontaneous emission in ordered sub-wavelength emitter arrays.

Exact Lindblad dynamics for small systems, cumulant-expansion closures for
large ones, and the decay-trace analysis used to compare them.
"""

__version__ = "0.1.0"

from .analysis import (
    CorrelationMap,
    DecayTrace,
    FitResult,
    StretchedExpModel,
    analytic_independent_spin,
    connected_correlations,
    fit_stretched,
    instantaneous_rate,
    resonance_deviation,
    subradiant_tail,
)
from .couplings import (
    CouplingMatrices,
    MotionSpec,
    coupling_matrices,
    spectrum_scan,
)
from .cumulant import (
    ClosureBlowupError,
    ClosureOrder,
    ObservableTrace,
    evolve_cumulant,
    make_time_grid,
)
from .exact import (
    InitialStateSpec,
    IntegrationFailureError,
    evolve_exact,
)
from .config import ConfigError, RunConfig, SweepConfig
from .geometry import (
    AtomArray,
    DisorderSpec,
    DriveGeometry,
    EmptyRealizationError,
    LatticeSpec,
    build_array,
    dipole_vector,
)
from .runner import (
    OutputBundle,
    SolverFailure,
    VerificationError,
    emit_plot_data,
    ensemble_run,
    run,
    sweep,
    verify,
)

__all__ = [
    "AtomArray",
    "ClosureBlowupError",
    "ClosureOrder",
    "ConfigError",
    "CorrelationMap",
    "CouplingMatrices",
    "DecayTrace",
    "DisorderSpec",
    "DriveGeometry",
    "EmptyRealizationError",
    "FitResult",
    "InitialStateSpec",
    "IntegrationFailureError",
    "LatticeSpec",
    "MotionSpec",
    "ObservableTrace",
    "OutputBundle",
    "RunConfig",
    "SolverFailure",
    "StretchedExpModel",
    "SweepConfig",
    "VerificationError",
    "analytic_independent_spin",
    "build_array",
    "connected_correlations",
    "coupling_matrices",
    "dipole_vector",
    "emit_plot_data",
    "ensemble_run",
    "evolve_cumulant",
    "evolve_exact",
    "fit_stretched",
    "instantaneous_rate",
    "make_time_grid",
    "resonance_deviation",
    "run",
    "spectrum_scan",
    "subradiant_tail",
    "sweep",
    "verify",
    "__version__",
]
