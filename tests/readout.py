"""Site-resolved readout emulation and state checks for the tests.

The pipeline reads correlations off solver moments only; these helpers
emulate the experiment's projective snapshots of a density matrix so the
tests can hold the moment path against sampled shots, rebuild the density
matrices the exact solver integrates (its snapshots keep only moments), read
correlation maps by displacement, and check full density matrices and the
collective-spin proxy built from a trace.
"""

import math
from dataclasses import dataclass

import numpy as np

from dipolarray.exact import (
    DOP853,
    _block_moments,
    _Generator,
    _Layout,
    _product_start,
    integrate_on_grid,
    observation,
)
from dipolarray.seeding import STREAM_SHOTS, rng_for


def shot_sample(rho: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Projective occupancy measurements: (shots, N) 0/1 array, atom 0 first.

    Samples the diagonal of rho in the occupation basis, emulating
    site-resolved imaging of the excited-state population.
    """
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    probs = np.clip(np.real(np.diagonal(rho)), 0.0, None)
    probs = probs / probs.sum()
    rng = rng_for(seed, STREAM_SHOTS)
    draws = rng.choice(dim, size=int(shots), p=probs)
    return ((draws[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def shot_moments(shots) -> tuple:
    """The (pair_populations, populations) moments of (S, N) occupancy shots:
    s^T s / S and the per-site mean."""
    s = np.asarray(shots, dtype=float)
    if s.ndim != 2 or s.shape[0] < 2:
        raise ValueError("shots must be (S, N) with at least two shots")
    return s.T @ s / s.shape[0], s.mean(axis=0)


def correlation_at(cmap, displacement) -> float:
    """A CorrelationMap's value at one (row, col) displacement; KeyError when
    no pair was observed there."""
    hit = np.flatnonzero(np.all(cmap.displacements == np.asarray(displacement, dtype=int),
                                axis=1))
    if not hit.size:
        raise KeyError(f"no pairs observed at displacement {tuple(displacement)}")
    return float(cmap.values[hit[0]])


def nearest_neighbor_mean(cmap) -> float:
    """A CorrelationMap's mean over the |d| = 1 shell."""
    d = cmap.displacements
    shell = (d[:, 0] ** 2 + d[:, 1] ** 2) == 1
    if not np.any(shell):
        raise ValueError("no nearest-neighbor displacements in map")
    return float(cmap.values[shell].mean())


def magnetization_from_counts(measured_counts, loading_counts) -> float | None:
    """Shot-variance estimate of the transverse spin scale from atom counts.

        M = sqrt( Var(N_measured) / (2 <N_measured>^2)
                  - Var(N_loading) / <N_measured> )

    The loading-variance term removes shot-to-shot atom-number noise scaled
    by the expected uncorrelated loss.  Returns None when the subtraction
    leaves a negative radicand (signal below the noise floor); callers
    decide how to present that, it is never clamped to zero silently.
    """
    m = np.asarray(measured_counts, dtype=float).ravel()
    ld = np.asarray(loading_counts, dtype=float).ravel()
    if m.size < 2 or ld.size < 2:
        raise ValueError("need at least two measured and two loading counts")
    mean_m = m.mean()
    if mean_m <= 0:
        raise ValueError("mean measured count must be positive")
    radicand = m.var(ddof=1) / (2.0 * mean_m ** 2) - ld.var(ddof=1) / mean_m
    if radicand < 0:
        return None
    return math.sqrt(radicand)


@dataclass(frozen=True)
class SpinTrajectory:
    """Collective-spin proxy built from mean inversion and transverse spread.

    `s_tot` combines the mean longitudinal component with the transverse
    second moment, so it is a reconstruction proxy rather than the operator
    expectation sqrt(<S^2>); the two differ by Var(S_z).
    """

    times: np.ndarray
    s_z: np.ndarray
    m_perp_sq: np.ndarray
    n_atoms: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        sz = np.asarray(self.s_z, dtype=float)
        m2 = np.asarray(self.m_perp_sq, dtype=float)
        if not (t.shape == sz.shape == m2.shape) or t.ndim != 1:
            raise ValueError("times, s_z, m_perp_sq must be 1-d arrays of equal length")
        if np.any(m2 < -1e-9):
            raise ValueError("negative transverse second moment")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "s_z", sz)
        object.__setattr__(self, "m_perp_sq", np.maximum(m2, 0.0))

    @property
    def s_tot(self) -> np.ndarray:
        return np.sqrt(self.m_perp_sq + self.s_z ** 2)


def spin_trajectory(trace) -> SpinTrajectory:
    """Assemble the collective-spin proxy from a solver observable stream."""
    return SpinTrajectory(times=np.asarray(trace.times, dtype=float),
                          s_z=np.asarray(trace.s_z, dtype=float),
                          m_perp_sq=np.asarray(trace.m_perp_sq, dtype=float),
                          n_atoms=int(trace.n_atoms))


def validate_density_matrix(rho: np.ndarray, check_positivity: bool = True) -> None:
    """Raise if rho is not Hermitian / unit trace / (optionally) positive."""
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("density matrix not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise ValueError("density matrix trace differs from 1 beyond 1e-9")
    if check_positivity and np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("density matrix has eigenvalue below -1e-8")


def s_z_sq(populations, pair_populations) -> float:
    """<S_z^2> = sum_ij <n_i n_j> - N <N_e> + N^2/4 from a snapshot's moments
    (the pair populations carry <n_i> on their diagonal)."""
    n = len(populations)
    return pair_populations.sum() - n * populations.sum() + n**2 / 4


def snapshot_series(trace, key) -> np.ndarray:
    """One snapshot moment of `trace` stacked over its snapshot times."""
    return np.array([snap[key] for _, snap in sorted(trace.snapshots.items())])


def snapshot_s_z_sq(trace) -> np.ndarray:
    """<S_z^2> at each snapshot time of `trace`, in time order."""
    return np.array([s_z_sq(snap["populations"], snap["pair_populations"])
                     for _, snap in sorted(trace.snapshots.items())])


def observables_exact(rho: np.ndarray, couplings) -> dict:
    """The collective observables, the populations, coherences and pair
    populations, and <S_z^2> of one full density matrix."""
    layout = _Layout(couplings.n_atoms, (0,))
    pops, coh, nn = _block_moments(layout.pack(rho), layout)
    row, _ = observation(pops, coh, nn, couplings.Gamma, None, False)
    return dict(row, coherences=coh, pair_populations=nn, s_z_sq=s_z_sq(pops, nn))


def exact_density_matrices(init, array, couplings, times, snapshot_times,
                           rtol=1e-8, atol=1e-10) -> dict:
    """The offset-0 part of rho(t) at `snapshot_times`, keyed by grid time,
    from the solve that `evolve_exact` runs at these tolerances: the same
    start, offset-0 layout, generator, DOP853 and grid driver, with the
    tracked blocks unpacked at the snapshot times.  That is all of rho(t)
    for a start without amplitudes, the only kind the callers pass."""
    layout = _Layout(array.n_atoms, (0,))
    y0 = _product_start(init, array, layout)
    rhs = _Generator(layout, couplings)

    def observe(_t, y, snapshot):
        return {}, layout.unpack(y.view(complex)) if snapshot else None

    _, _, rhos = integrate_on_grid(
        DOP853, lambda _t, v: rhs(v.view(complex)).view(np.float64), y0.view(np.float64),
        times, observe, rtol=rtol, atol=atol, snapshot_times=snapshot_times)
    return rhos
