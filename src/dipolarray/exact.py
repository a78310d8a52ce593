"""Exact Lindblad master-equation integrator on excitation-number blocks.

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
through every Runge-Kutta stage.

The generator conserves excitation number, so rho is held as its blocks
rho_{k,k'} between the k- and k'-excitation sectors (`_Layout`).  A keeps
each block in place; the recycle term sum_ij Gamma_ij s_j rho s_i^dag feeds
block (k, k') from (k+1, k'+1) only.  The generator thus commutes with the
rotation rho -> e^{i phi N} rho e^{-i phi N} (a weak U(1) symmetry): each
offset k - k' evolves on its own.  Every recorded moment (<n_i>,
<s_i^dag s_j>, <n_i n_j>) lies on offset 0, so the solve integrates the
offset-0 blocks alone, C(2N, N) entries, for every start; the amplitudes of
a coherent start sit on offsets it never reads.  The recycle term is one
real GEMM of Gamma against the stacked rows s_j rho per block, no
superoperator matrix is ever materialized, and the solve never forms the
full density matrix: snapshots keep the moments read off the diagonal
blocks, as the cumulant solver's do.

This module also holds what both solvers share: the product start
(`InitialStateSpec`), what they record at a grid time (`observation`), the
ObservableTrace they return, `integrate_on_grid`, the loop that steps a
solver across the output time grid and stacks what it observes there, and
`DOP853`, the stepper both hand it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from .couplings import CouplingMatrices
from .geometry import AtomArray

logger = logging.getLogger(__name__)

DEFAULT_ATOM_CAP = 12


class IntegrationFailureError(RuntimeError):
    """Integrator step failure (step-size collapse), with the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


def padded_length(n: int) -> int:
    """`n`, rounded up to a multiple of 8 past 128.  OpenBLAS sums a product
    whose inner dimension (a GEMM's, or a long matrix-vector product's row
    count) passes 128 in pieces that follow the thread count, unless that
    length is a multiple of 8: measured on complex GEMMs of inner dimension
    2 to 517 and on DOP853's stage sums over 8 to 3e6 entries, under 1 to 4
    threads.  So both solvers pad such lengths with zeros to this one."""
    return n if n <= 128 else -(-n // 8) * 8


def _sum_sq(x: np.ndarray) -> float:
    """Sum of squares of a real vector, by numpy: the same bits under any
    BLAS thread count, unlike np.linalg.norm (an OpenBLAS ddot that splits
    long sums across threads)."""
    return float(np.einsum("i,i", x, x))


class DOP853(scipy.integrate.DOP853):
    """scipy's DOP853, stepping the same way under any BLAS thread count.

    scipy scores the first step (Hairer, Norsett and Wanner, Solving ODEs I,
    sec. II.4) and each step's error with np.linalg.norm, and forms its
    stages with BLAS matrix-vector products; the bits of both follow the
    thread count, and one ulp in a norm changes a step size.  This class
    takes scipy's first step and error norm with `_sum_sq` as the sum, and
    makes the same two RHS calls before its first step.  It integrates the
    state padded with zeros to `padded_length` entries, whose derivative is
    zero, and divides both norms by the unpadded size `n_state`, so the
    steps are scipy's; `y` and the dense output carry the padding.  A
    derivative at `t0` that is not finite raises IntegrationFailureError,
    where scipy would pick a NaN step and reject steps forever.  It relies
    on the scipy-private attributes E3, E5 and `_estimate_error_norm`.
    """

    def __init__(self, fun, t0, y0, t_bound, *, rtol, atol):
        self.n_state = n = len(y0)
        y_pad = np.zeros(padded_length(n), dtype=y0.dtype)
        y_pad[:n] = y0

        def padded(t, y):
            dy = np.empty_like(y)
            dy[:n], dy[n:] = fun(t, y[:n]), 0.0
            return dy

        interval = abs(t_bound - t0)
        # a given first step keeps scipy from choosing one; self.f = f(t0)
        super().__init__(padded if len(y_pad) > n else fun, t0, y_pad, t_bound=t_bound,
                         rtol=rtol, atol=atol, first_step=interval)
        if not np.all(np.isfinite(self.f)):
            raise IntegrationFailureError(f"non-finite derivative at t = {t0:.6g}", t0)
        scale = self.atol + np.abs(self.y) * self.rtol
        d0, d1 = (np.sqrt(_sum_sq(v / scale) / n) for v in (self.y, self.f))
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
        f1 = self.fun(self.t + h0 * self.direction, self.y + h0 * self.direction * self.f)
        d2 = np.sqrt(_sum_sq((f1 - self.f) / scale) / n) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (self.error_estimator_order + 1))
        self.h_abs = min(100 * h0, h1, interval, self.max_step)

    def _estimate_error_norm(self, K, h, scale):
        err5_norm_2 = _sum_sq(np.dot(K.T, self.E5) / scale)
        err3_norm_2 = _sum_sq(np.dot(K.T, self.E3) / scale)
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * self.n_state)


@dataclass(frozen=True)
class InitialStateSpec:
    """The product start of both solvers: atom i is excited with probability
    p = `excitation_probability` and has the amplitude b_i = <s_i>, both
    given by `single_atom_moments`.  coherent=False: b_i = 0 (a mixture).
    coherent=True: b_i = sqrt(p (1 - p)) e^{i phi_i}, with
    phi_i = 2*pi * phase_gradient . r_i + phase_offset (phase_gradient in
    units of 2*pi/lambda, i.e. a unit vector is a resonant photon momentum).
    A pulse of area theta leaves p = sin^2(theta/2).
    """

    excitation_probability: float | None = None
    coherent: bool = False
    phase_gradient: tuple[float, float, float] | None = None
    phase_offset: float = 0.0

    def __post_init__(self):
        p = self.excitation_probability
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("the start needs excitation_probability in [0, 1]")
        if not self.coherent and (self.phase_gradient is not None
                                  or self.phase_offset != 0.0):
            raise ValueError("phases only apply to coherent states")

    def single_atom_moments(self, array: AtomArray) -> tuple:
        """(p, b): each atom's excitation probability and amplitude <s_i>."""
        n, p, k = array.n_atoms, float(self.excitation_probability), self.phase_gradient
        phases = (np.zeros(n) if k is None
                  else 2 * np.pi * array.atom_positions @ np.asarray(k, dtype=float))
        amplitude = np.sqrt(p * (1 - p)) if self.coherent else 0.0
        return np.full(n, p), amplitude * np.exp(1j * (phases + self.phase_offset))


@dataclass
class ObservableTrace:
    """Observable stream from either solver, one run or an ensemble average.

    Both solvers fill the same fields.  The series are per grid time; the
    N x N moments are kept only in `snapshots`, which maps the grid time of
    each requested snapshot to the dict `observation` builds.
    `jump_rates` holds, per realization the trace covers, the eigenvalues
    of the Gamma that realization was solved with (`CouplingMatrices.jump_rates`).
    """

    times: np.ndarray
    n_excited: np.ndarray
    emission_rate: np.ndarray
    s_z: np.ndarray
    m_perp_sq: np.ndarray
    n_atoms: float
    populations: np.ndarray | None = None      # (T, N), single runs only
    snapshots: dict = field(default_factory=dict)
    n_realizations: int = 1
    stderr: dict | None = None                 # per-time standard errors
    failures: tuple = ()
    clamped_points: int = 0
    jump_rates: tuple = ()

    @property
    def gamma_normalized(self) -> np.ndarray:
        """Emission rate per remaining excitation, gamma(t) in units of gamma0."""
        out = np.full_like(self.emission_rate, np.nan)
        ok = self.n_excited > 1e-12
        out[ok] = self.emission_rate[ok] / self.n_excited[ok]
        return out


class _Layout:
    """Excitation-number blocks of rho for N atoms and a set of tracked offsets.

    Block (k, q) holds rho[x, y] over the states x with k excited atoms and
    y with q (each in increasing index order).  `blocks` lists the tracked
    blocks, those with k - q in `offsets`, in increasing k and then q; each
    is stored row-major at its own slice of the state vector, in that order.
    Offsets always include 0 and come in +/- pairs.

    `raise_rows[k][j, a]` is the position in sector k+1 of state a of sector
    k with atom j excited, or the sentinel C_{k+1} if it is excited already.
    It raises the rows and the columns of a block alike.
    """

    def __init__(self, n: int, offsets: tuple):
        self.n = n
        x = np.arange(1 << n)
        weight = np.bitwise_count(x).astype(np.intp)
        self.states = [np.flatnonzero(weight == k) for k in range(n + 1)]
        self.bits = [((s[:, None] >> np.arange(n)) & 1).astype(float)
                     for s in self.states]
        sizes = [len(s) for s in self.states]
        pos = np.empty(1 << n, dtype=np.intp)
        for s in self.states:
            pos[s] = np.arange(len(s))
        self.blocks = [(k, q) for k in range(n + 1) for q in range(n + 1) if k - q in offsets]
        self.start, self.size = {}, 0
        for k, q in self.blocks:
            self.start[k, q] = self.size
            self.size += sizes[k] * sizes[q]
        one = 1 << np.arange(n)[:, None]
        self.raise_rows = []
        for k in range(n):
            s = self.states[k]
            up = s | one
            self.raise_rows.append(np.where(up != s, pos[up], sizes[k + 1]))

    def block(self, y: np.ndarray, k: int, q: int) -> np.ndarray:
        shape = len(self.states[k]), len(self.states[q])
        start = self.start[k, q]
        return y[start:start + shape[0] * shape[1]].reshape(shape)

    def pack(self, rho: np.ndarray) -> np.ndarray:
        return np.concatenate([rho[np.ix_(self.states[k], self.states[q])].ravel()
                               for k, q in self.blocks])

    def unpack(self, y: np.ndarray) -> np.ndarray:
        rho = np.zeros((1 << self.n,) * 2, dtype=complex)
        for k, q in self.blocks:
            rho[np.ix_(self.states[k], self.states[q])] = self.block(y, k, q)
        return rho


def _product_start(init: InitialStateSpec, array: AtomArray, layout: _Layout) -> np.ndarray:
    """The product start `init` packed on `layout`, whatever offsets it tracks.

    Each tracked entry rho[x, y] is the product over the atoms, from the top
    atom down, of [[1 - p, conj b], [b, p]][x_i, y_i].  The solve passes the
    offset-0 layout for every start (see the module docstring).
    """
    p, b = init.single_atom_moments(array)
    atoms = np.array([[1 - p, b.conj()], [b, p]])
    y = np.empty(layout.size, dtype=complex)
    for k, q in layout.blocks:
        xs, ys = layout.states[k], layout.states[q]
        block = layout.block(y, k, q)
        block[...] = 1
        for i in reversed(range(layout.n)):
            block *= atoms[(xs[:, None] >> i) & 1, (ys >> i) & 1, i]
    return y


def _tracking_layout(rho: np.ndarray) -> _Layout:
    """The block layout holding exactly the offsets present in `rho`."""
    weight = np.bitwise_count(np.arange(rho.shape[0])).astype(np.intp)
    xs, ys = np.nonzero(rho)
    found = {int(d) for d in np.unique(weight[xs] - weight[ys])}
    offsets = found | {-d for d in found} | {0}
    return _Layout(rho.shape[0].bit_length() - 1, tuple(sorted(offsets)))


class _Generator:
    """drho/dt on the state vector of a `_Layout` (see module docstring)."""

    def __init__(self, layout: _Layout, couplings: CouplingMatrices):
        n = layout.n
        g = couplings.J - 0.5j * couplings.Gamma
        np.fill_diagonal(g, -0.5j * np.diag(couplings.Gamma))
        # A = sum_ij g_ij s_i^dag s_j, sector by sector: each state u of sector
        # k links row u + 2^i to column u + 2^j of sector k+1 (sentinels land
        # in the dropped last row and column; the diagonal sums one term per
        # atom).  Past 128 states, A's block has zero columns up to the length
        # `padded_length`, and acts on a block copy with as many rows.
        sizes = [len(s) for s in layout.states]
        self.a = [np.zeros((d, padded_length(d)), dtype=complex) for d in sizes]
        for k, up in enumerate(layout.raise_rows):
            a = np.zeros((sizes[k + 1] + 1,) * 2, dtype=complex)
            np.add.at(a, (up[:, None, :], up[None, :, :]), g[:, :, None])
            self.a[k + 1][:, :sizes[k + 1]] = a[:-1, :-1]
        self.layout = layout
        self.p = np.empty(layout.size, dtype=complex)  # P = A rho
        self.gamma = np.ascontiguousarray(couplings.Gamma)
        self.atoms = np.arange(n)[:, None]
        # per block (k, q): a copy of it padded with zero rows past its states
        # and one zero column, and the copy of block (k+1, q+1), the source of
        # its recycle term (None past the last sector)
        copies = {(k, q): np.zeros((max(padded_length(sizes[k]), sizes[k] + 1),
                                    sizes[q] + 1), dtype=complex)
                  for k, q in layout.blocks}
        self.terms = [(k, q, copies[k, q], copies.get((k + 1, q + 1)))
                      for k, q in layout.blocks]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        lay, n = self.layout, self.layout.n
        for k, q, copy, _ in self.terms:
            a = self.a[k]
            copy[:len(a), :-1] = lay.block(y, k, q)
            np.matmul(a, copy[:a.shape[1], :-1], out=lay.block(self.p, k, q))
        out = np.empty_like(y)
        for k, q, _, source in self.terms:
            # -i (P - P^dag), whose block (k, q) reads block (q, k) of P
            block = lay.block(out, k, q)
            np.subtract(lay.block(self.p, k, q), lay.block(self.p, q, k).T.conj(), out=block)
            block *= -1j
            if source is not None:
                # sum_ij Gamma_ij s_j rho s_i^dag: gather the rows s_j rho, mix
                # them with one real GEMM, then gather and sum the columns s_i^dag
                t = source[lay.raise_rows[k]]
                v = (self.gamma @ t.reshape(n, -1).view(np.float64)).view(complex)
                block += v.reshape(t.shape)[self.atoms, :, lay.raise_rows[q]].sum(axis=0).T
        return out


def lindblad_rhs(rho: np.ndarray, couplings: CouplingMatrices) -> np.ndarray:
    """drho/dt for one full density matrix (reference entry point).

    Packs the offset blocks `rho` holds (the generator conserves each
    offset), applies the block generator the solver integrates, and unpacks
    the result.
    """
    n = couplings.n_atoms
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"density matrix must be {1 << n}x{1 << n} for {n} atoms")
    layout = _tracking_layout(rho)
    return layout.unpack(_Generator(layout, couplings)(layout.pack(rho)))


def initial_density_matrix(init: InitialStateSpec, array: AtomArray) -> np.ndarray:
    """rho(0) as a full matrix: the product start on every offset, unpacked."""
    n = array.n_atoms
    layout = _Layout(n, tuple(range(-n, n + 1)))
    return layout.unpack(_product_start(init, array, layout))


def observation(populations, coherences, pair_populations, gamma, sites,
                snapshot: bool) -> tuple:
    """The (row, snapshot) both solvers record at a grid time.

    The row holds the populations <n_i>, the excitation number, the emission
    rate sum_ij Gamma_ij Re<s_i^dag s_j>, S_z, and the transverse second
    moment N/2 + sum_{i != j} Re<s_i^dag s_j>.  The snapshot (None unless
    `snapshot`) holds four keys and no other: copies of the populations, the
    coherences <s_i^dag s_j> and the pair populations <n_i n_j> (None at
    closure order 1), and the "sites", each atom's lattice row/col."""
    n = len(populations)
    n_excited = populations.sum()
    re = coherences.real
    row = {"n_excited": n_excited, "emission_rate": float((gamma * re).sum()),
           "s_z": n_excited - n / 2, "m_perp_sq": n / 2 + re.sum() - np.trace(re),
           "populations": populations}
    if not snapshot:
        return row, None
    return row, {"populations": populations.copy(), "coherences": coherences.copy(),
                 "pair_populations": None if pair_populations is None
                 else pair_populations.copy(), "sites": sites}


def _block_moments(y: np.ndarray, layout: _Layout) -> tuple:
    """Populations, coherences and pair populations from the diagonal blocks."""
    n = layout.n
    pops, nn = np.zeros(n), np.zeros((n, n))
    coh = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        block = layout.block(y, k, k)
        diag, bits = block.diagonal().real, layout.bits[k]
        pops += diag @ bits
        nn += (bits * diag[:, None]).T @ bits
        # <s_i^dag s_j> = sum_u rho[u + 2^j, u + 2^i] over u in block k-1
        pad = np.zeros((len(diag) + 1,) * 2, dtype=complex)
        pad[:-1, :-1] = block
        up = layout.raise_rows[k - 1]
        coh += pad[up[:, None, :], up[None, :, :]].sum(axis=2).T
    coh[np.diag_indices(n)] = pops
    return pops, coh, nn


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid point a requested time names.

    `t` names the nearest point of `times` when it lies within
    1e-9 * max(1, |t|) of it; otherwise this raises ValueError.
    """
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the time grid")
    return k


def integrate_on_grid(start, y0: np.ndarray, times, observe,
                      snapshot_times=None) -> tuple:
    """Step an ODE solver across a time grid, observing at every grid point.

    `start(t0, y0, t_bound)` builds the solver; each caller passes its own
    DOP853.  `observe(t, y, snapshot)` sees the state at every grid time,
    read off the dense output of the step that reached it (its first
    len(y0) entries: `DOP853` pads the state), with `snapshot`
    true at the grid points that `snapshot_times` name (see `grid_index`).
    It returns `(row, snapshot)`: a dict of the values to record at `t`, and
    the snapshot to keep there, or None.  Logs one INFO line as each tenth
    of the grid is reached and one at the end with the RHS evaluations and
    accepted steps.  Returns `(times, series, snapshots)`: the grid as a
    float array, each row key stacked over the grid, and the snapshots by
    grid time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    snap_idx = set() if snapshot_times is None else {
        grid_index(times, float(t)) for t in snapshot_times}
    rows, snapshots = [], {}

    def visit(idx: int, y: np.ndarray):
        t = float(times[idx])
        row, snapshot = observe(t, y, idx in snap_idx)
        rows.append(row)
        if snapshot is not None:
            snapshots[t] = snapshot

    nt = len(times)
    visit(0, y0)
    if nt > 1:
        solver = start(times[0], y0, times[-1])
        idx, steps, tenth = 1, 0, 1
        while idx < nt:
            solver.step()
            if solver.status == "failed":
                raise IntegrationFailureError(
                    f"integrator failed (step-size collapse) at t = {solver.t:.6g}",
                    solver.t)
            steps += 1
            interp = solver.dense_output()
            t_reach = solver.t + 1e-12 * max(1.0, abs(solver.t))
            while idx < nt and times[idx] <= t_reach:
                visit(idx, np.ascontiguousarray(interp(min(times[idx], solver.t))[:len(y0)]))
                idx += 1
            while tenth <= 10 and 10 * idx >= tenth * nt:
                logger.info("integrated to t = %.6g: %d of %d grid points (%d%%)",
                            times[idx - 1], idx, nt, 10 * tenth)
                tenth += 1
        logger.info("integration done at t = %.6g: %d RHS evaluations, "
                    "%d accepted steps", solver.t, solver.nfev, steps)
    series = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return times, series, snapshots


def evolve_exact(init: InitialStateSpec, array: AtomArray,
                 couplings: CouplingMatrices, times, *, rtol: float = 1e-8,
                 atol: float = 1e-10, snapshot_times=None) -> ObservableTrace:
    """Integrate the master equation, streaming observables at `times`.

    rho is integrated as its offset-0 blocks for every start, coherent or
    not, as no recorded moment reads another offset (see the module
    docstring); one INFO line gives their size.  Every grid point is reduced
    on the fly to its observables, snapshots included, so memory stays at
    the size of those blocks regardless of the grid length.
    """
    n = array.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("array and couplings disagree on atom count")
    if n > DEFAULT_ATOM_CAP:
        raise ValueError(f"{n} atoms exceeds the exact-solver cap of {DEFAULT_ATOM_CAP}")

    layout = _Layout(n, (0,))
    logger.info("exact solve on the offset-0 blocks, %d entries", layout.size)
    y0 = _product_start(init, array, layout)
    rhs = _Generator(layout, couplings)

    def fun(_t, y):
        return rhs(y.view(complex)).view(np.float64)

    def observe(_t: float, y: np.ndarray, snapshot: bool):
        return observation(*_block_moments(y.view(complex), layout), couplings.Gamma,
                           array.atom_rc, snapshot)

    times, series, snapshots = integrate_on_grid(
        lambda t0, y, t_bound: DOP853(fun, t0, y, t_bound=t_bound, rtol=rtol, atol=atol),
        y0.view(np.float64), times, observe, snapshot_times)
    return ObservableTrace(times=times, n_atoms=float(n), snapshots=snapshots,
                           jump_rates=(couplings.jump_rates,), **series)
