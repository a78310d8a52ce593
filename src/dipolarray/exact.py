"""Exact Lindblad master-equation integrator on the full 2^N Hilbert space.

Ground truth for every approximate solver in this package.  Works in the
rotating frame at the transition frequency (the fast optical term is dropped;
dynamics depend only on J and Gamma):

    drho/dt = -i[H, rho] + sum_ij (Gamma_ij/2) (2 s_j rho s_i^dag
                                                - {s_i^dag s_j, rho}),
    H = sum_{i != j} J_ij s_i^dag s_j,

with s_i the lowering operator of atom i.  Basis ordering: computational index
x encodes occupations bitwise, atom 0 in the least significant bit, bit 1
meaning excited.  The RHS is evaluated as -i(A rho - (A rho)^dag) + recycle
with A = H - (i/2) sum_ij Gamma_ij s_i^dag s_j, which keeps rho Hermitian
through every Runge-Kutta stage; the recycle term is applied through strided
tensor views, so no superoperator matrix is ever materialized.

This module also holds what both solvers share: the ObservableTrace they
return and `integrate_on_grid`, the loop that steps a solver across the
output time grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.integrate import DOP853
from scipy.sparse import csr_matrix

from .couplings import CouplingMatrices
from .geometry import AtomArray
from .seeding import STREAM_SHOTS, rng_for

DEFAULT_ATOM_CAP = 12


class IntegrationFailureError(RuntimeError):
    """Integrator step failure (step-size collapse), with the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class InitialStateSpec:
    """Product initial state, either an incoherent mixture or a pulsed pure state.

    coherent=False: each atom is excited independently with probability
    `excitation_probability`; no coherences.
    coherent=True: each atom is in cos(theta/2)|g> + e^{i phi_i} sin(theta/2)|e>
    with phi_i = 2*pi * phase_gradient . r_i + phase_offset (phase_gradient in
    units of 2*pi/lambda, i.e. a unit vector is a resonant photon momentum).
    """

    coherent: bool = False
    excitation_probability: float | None = None
    rotation_angle: float | None = None
    phase_gradient: tuple[float, float, float] | None = None
    phase_offset: float = 0.0

    def __post_init__(self):
        if self.coherent:
            if self.rotation_angle is None:
                raise ValueError("coherent state needs rotation_angle")
            if self.excitation_probability is not None:
                implied = np.sin(self.rotation_angle / 2) ** 2
                if abs(self.excitation_probability - implied) > 1e-12:
                    raise ValueError(
                        "excitation_probability inconsistent with rotation_angle; "
                        "leave it unset for coherent states")
        else:
            p = self.excitation_probability
            if p is None or not 0.0 <= p <= 1.0:
                raise ValueError("incoherent state needs excitation_probability in [0, 1]")
            if self.rotation_angle is not None:
                raise ValueError("rotation_angle only applies to coherent states")
            if self.phase_gradient is not None or self.phase_offset != 0.0:
                raise ValueError("phases only apply to coherent states")

    @property
    def p_excited(self) -> float:
        if self.coherent:
            return float(np.sin(self.rotation_angle / 2) ** 2)
        return float(self.excitation_probability)

    @classmethod
    def fully_inverted(cls) -> "InitialStateSpec":
        return cls(excitation_probability=1.0)

    @classmethod
    def incoherent(cls, p: float) -> "InitialStateSpec":
        return cls(excitation_probability=float(p))

    @classmethod
    def coherent_pulse(cls, theta: float, k_laser=None,
                       phase_offset: float = 0.0) -> "InitialStateSpec":
        kl = None if k_laser is None else tuple(float(c) for c in k_laser)
        return cls(coherent=True, rotation_angle=float(theta),
                   phase_gradient=kl, phase_offset=float(phase_offset))


@dataclass
class ObservableTrace:
    """Observable stream from either solver, one run or an ensemble average.

    `snapshots` maps the grid time of each requested snapshot to a dict with
    the "populations", "coherences" and "pair_populations" at that time (the
    last is None at closure order 1) and the "sites", the (N, 2) lattice
    row/col of each atom; exact runs add the "density_matrix".
    """

    times: np.ndarray
    n_excited: np.ndarray
    emission_rate: np.ndarray
    s_z: np.ndarray
    m_perp_sq: np.ndarray
    n_atoms: float
    populations: np.ndarray | None = None      # (T, N), single runs only
    coherences: np.ndarray | None = None       # (T, N, N) <s_i^dag s_j>, exact only
    pair_populations: np.ndarray | None = None  # (T, N, N) <n_i n_j>, exact only
    s_z_sq: np.ndarray | None = None           # (T,) <S_z^2>, exact only
    snapshots: dict = field(default_factory=dict)
    n_realizations: int = 1
    stderr: dict | None = None                 # per-time standard errors
    failures: tuple = ()
    clamped_points: int = 0

    @property
    def gamma_normalized(self) -> np.ndarray:
        """Emission rate per remaining excitation, gamma(t) in units of gamma0."""
        out = np.full_like(self.emission_rate, np.nan)
        ok = self.n_excited > 1e-12
        out[ok] = self.emission_rate[ok] / self.n_excited[ok]
        return out


@lru_cache(maxsize=8)
class _Operators:
    """Index machinery for N atoms: bit table and coherence gather lists."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 1 << n
        x = np.arange(self.dim)
        self.bits = ((x[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        # <s_i^dag s_j> = sum over x with bit_i = 1, bit_j = 0 of rho[x - 2^i + 2^j, x]
        self.coh_cols = {}
        self.coh_rows = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                sel = x[((x >> i) & 1 == 1) & ((x >> j) & 1 == 0)]
                self.coh_cols[i, j] = sel
                self.coh_rows[i, j] = sel - (1 << i) + (1 << j)

    def effective_hamiltonian(self, couplings: CouplingMatrices) -> csr_matrix:
        """A = H - (i/2) K as a sparse matrix (see module docstring)."""
        g = couplings.J - 0.5j * couplings.Gamma
        rows, cols, vals = [], [], []
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                c = self.coh_cols[j, i]  # bit_j = 1, bit_i = 0: s_i^dag s_j acts
                rows.append(c - (1 << j) + (1 << i))
                cols.append(c)
                vals.append(np.full(len(c), g[i, j]))
        x = np.arange(self.dim)
        rows.append(x)
        cols.append(x)
        diag = self.bits @ (-0.5j * np.diag(couplings.Gamma))
        vals.append(diag)
        return csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim))

    def coherence_matrix(self, rho: np.ndarray) -> np.ndarray:
        c = np.empty((self.n, self.n), dtype=complex)
        diag = np.real(np.diagonal(rho))
        pops = self.bits.T @ diag
        for i in range(self.n):
            c[i, i] = pops[i]
            for j in range(self.n):
                if i != j:
                    c[i, j] = rho[self.coh_rows[i, j], self.coh_cols[i, j]].sum()
        return c

    def pair_population_matrix(self, rho: np.ndarray) -> np.ndarray:
        diag = np.real(np.diagonal(rho))
        return (self.bits * diag[:, None]).T @ self.bits


def _recycle_add(out_t: np.ndarray, rho_t: np.ndarray, gamma: np.ndarray, n: int):
    """out += sum_ij Gamma_ij s_j rho s_i^dag via strided tensor views."""
    full = [slice(None)] * (2 * n)
    for i in range(n):
        for j in range(n):
            if gamma[i, j] == 0.0:
                continue
            src = list(full)
            dst = list(full)
            src[n - 1 - j], src[2 * n - 1 - i] = 1, 1
            dst[n - 1 - j], dst[2 * n - 1 - i] = 0, 0
            out_t[tuple(dst)] += gamma[i, j] * rho_t[tuple(src)]


def _lindblad(rho: np.ndarray, a: csr_matrix, gamma: np.ndarray, n: int) -> np.ndarray:
    """-i(A rho - (A rho)^dag) + recycle term, for A from effective_hamiltonian."""
    p = a @ rho
    out = -1j * (p - p.conj().T)
    tshape = (2,) * (2 * n)
    _recycle_add(out.reshape(tshape), rho.reshape(tshape), gamma, n)
    return out


def lindblad_rhs(rho: np.ndarray, couplings: CouplingMatrices) -> np.ndarray:
    """drho/dt for one density matrix (reference entry point; see module doc)."""
    n = couplings.n_atoms
    ops = _Operators(n)
    if rho.shape != (ops.dim, ops.dim):
        raise ValueError(f"density matrix must be {ops.dim}x{ops.dim} for {n} atoms")
    return _lindblad(rho, ops.effective_hamiltonian(couplings), couplings.Gamma, n)


def initial_density_matrix(init: InitialStateSpec, array: AtomArray) -> np.ndarray:
    n = array.n_atoms
    if init.coherent:
        theta = init.rotation_angle
        pos = array.atom_positions
        if init.phase_gradient is None:
            phases = np.full(n, init.phase_offset)
        else:
            k = 2 * np.pi * np.asarray(init.phase_gradient, dtype=float)
            phases = pos @ k + init.phase_offset
        amps = [np.array([np.cos(theta / 2),
                          np.exp(1j * phi) * np.sin(theta / 2)]) for phi in phases]
        psi = reduce(np.kron, reversed(amps))  # atom 0 least significant
        return np.outer(psi, psi.conj())
    p = init.excitation_probability
    weights = reduce(np.kron, [np.array([1 - p, p])] * n)
    return np.diag(weights.astype(complex))


def validate_density_matrix(rho: np.ndarray, check_positivity: bool = True) -> None:
    """Raise if rho is not Hermitian / unit trace / (optionally) positive."""
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("density matrix not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise ValueError("density matrix trace differs from 1 beyond 1e-9")
    if check_positivity and np.linalg.eigvalsh(rho).min() < -1e-8:
        raise ValueError("density matrix has eigenvalue below -1e-8")


def collective_observables(populations: np.ndarray, coherences: np.ndarray,
                           gamma: np.ndarray) -> dict:
    """The collective set both solvers record at every grid time.

    From the populations <n_i> and the coherence matrix <s_i^dag s_j>:
    the excitation number, the emission rate sum_ij Gamma_ij Re<s_i^dag s_j>,
    S_z, and the transverse second moment N/2 + sum_{i != j} Re<s_i^dag s_j>.
    """
    n = len(populations)
    n_excited = populations.sum()
    re = coherences.real
    return {"n_excited": n_excited,
            "emission_rate": float((gamma * re).sum()),
            "s_z": n_excited - n / 2,
            "m_perp_sq": n / 2 + re.sum() - np.trace(re)}


def observables_exact(rho: np.ndarray, couplings: CouplingMatrices) -> dict:
    """Standard observable set from one density matrix."""
    n = couplings.n_atoms
    ops = _Operators(n)
    coh = ops.coherence_matrix(rho)
    nn = ops.pair_population_matrix(rho)
    pops = np.real(np.diagonal(coh)).copy()
    obs = collective_observables(pops, coh, couplings.Gamma)
    return dict(obs, populations=pops, coherences=coh, pair_populations=nn,
                s_z_sq=nn.sum() - n * obs["n_excited"] + n**2 / 4)


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid point a requested time names.

    `t` names the nearest point of `times` when it lies within
    1e-9 * max(1, |t|) of it; otherwise this raises ValueError.
    """
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the time grid")
    return k


def integrate_on_grid(start, y0: np.ndarray, times, record,
                      snapshot_times=None) -> np.ndarray:
    """Step an ODE solver across a time grid, recording at every grid point.

    `start(t0, y0, t_bound)` builds the solver; each caller passes its own
    DOP853.  `record(t, y, snapshot)` sees the state at every grid time, read
    off the dense output of the step that reached it, with `snapshot` true
    at the grid points that `snapshot_times` name (see `grid_index`).
    Returns the grid as a float array.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    snap_idx = set() if snapshot_times is None else {
        grid_index(times, float(t)) for t in snapshot_times}

    nt = len(times)
    record(float(times[0]), y0, 0 in snap_idx)
    if nt > 1:
        solver = start(times[0], y0, times[-1])
        idx = 1
        while idx < nt:
            solver.step()
            if solver.status == "failed":
                raise IntegrationFailureError(
                    f"integrator failed (step-size collapse) at t = {solver.t:.6g}",
                    solver.t)
            interp = solver.dense_output()
            t_reach = solver.t + 1e-12 * max(1.0, abs(solver.t))
            while idx < nt and times[idx] <= t_reach:
                record(float(times[idx]),
                       np.ascontiguousarray(interp(min(times[idx], solver.t))),
                       idx in snap_idx)
                idx += 1
            if solver.status == "finished" and idx < nt:
                raise IntegrationFailureError(
                    f"integration ended at t = {solver.t:.6g} before the grid end",
                    solver.t)
    return times


def evolve_exact(init: InitialStateSpec, array: AtomArray,
                 couplings: CouplingMatrices, times, *, rtol: float = 1e-8,
                 atol: float = 1e-10, snapshot_times=None) -> ObservableTrace:
    """Integrate the master equation, streaming observables at `times`.

    Snapshots (with the full density matrix) are kept only at
    `snapshot_times`; everything else is reduced on the fly, so memory stays
    at O(4^N) regardless of the grid length.
    """
    n = array.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("array and couplings disagree on atom count")
    if n > DEFAULT_ATOM_CAP:
        raise ValueError(f"{n} atoms exceeds the exact-solver cap of {DEFAULT_ATOM_CAP}")

    ops = _Operators(n)
    dim = ops.dim
    a = ops.effective_hamiltonian(couplings)
    gamma = couplings.Gamma

    def fun(_t, y):
        return _lindblad(y.view(complex).reshape(dim, dim), a, gamma, n).ravel().view(np.float64)

    series = {key: [] for key in ("populations", "coherences", "pair_populations",
                                  "n_excited", "emission_rate", "s_z", "m_perp_sq",
                                  "s_z_sq")}
    snapshots: dict = {}

    def record(t: float, y: np.ndarray, snapshot: bool):
        rho = y.view(complex).reshape(dim, dim)
        obs = observables_exact(rho, couplings)
        for key, values in series.items():
            values.append(obs[key])
        if snapshot:
            snapshots[t] = {"populations": obs["populations"],
                            "coherences": obs["coherences"],
                            "pair_populations": obs["pair_populations"],
                            "density_matrix": rho.copy(), "sites": array.atom_rc}

    y0 = np.ascontiguousarray(initial_density_matrix(init, array),
                              dtype=complex).ravel().view(np.float64)
    times = integrate_on_grid(
        lambda t0, y, t_bound: DOP853(fun, t0, y, t_bound=t_bound, rtol=rtol, atol=atol),
        y0, times, record, snapshot_times)
    return ObservableTrace(times=times, n_atoms=float(n), snapshots=snapshots,
                           **{key: np.array(values) for key, values in series.items()})


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
