"""Cumulant-expansion dynamics for large arrays.

Closes the Heisenberg hierarchy generated by the photon-mediated Lindblad
equation at order alpha: joint cumulants of more than alpha atoms are set to
zero, and same-atom operator products are reduced to single factors before
anything is factorized, so only distinct-atom products are ever closed.

Tracked correlators (g = J + i Gamma/2, zero diagonal):

    incoherent sector: <n_i>, <s_i^dag s_j>, <n_i n_j> and, at alpha=3,
    <n_x s_i^dag s_j> and <n_x n_y n_z>.
    coherent sector (alpha <= 2) adds <s_i>, <n_i s_j>, <s_i s_j>.

Every equation implemented here is checked term by term against the symbolic
generator in the test suite's `tests/moment_algebra.py`, which is in turn
validated against the exact density-matrix solver.  Storage keeps only independent
entries (Hermitian i<j pairs, x<y<z triples), so symmetry is exact by
construction rather than numerically maintained.  Likewise dC, dNN, dS and dT
(over its last two indices) are each a term plus its adjoint or transpose: the
term is formed once and mirrored, which needs g = g^T (CouplingMatrices
enforces that only to 1e-12).

At alpha >= 2 every RHS call forms one complex N^3 product, P = g @ C with
C = <s_i^dag s_j>.  In the incoherent sector the alpha=2 pair level is then
closed-form real arithmetic on the i<j pairs (w = 2n - 1, M = NN - n n^T,
d = Im diag P):

    dn  = -Gamma_ii n - 2 d
    dCr = -Cr + w_i Im P_ij + w_j Im P_ji + 2 Gamma M
    dCi = -Ci - (w_i Re P_ij - w_j Re P_ji)
    dNN = -2 NN - 2 (d_i n_j + n_i d_j) + (n_i + n_j) Gamma Cr - 2 (n_j - n_i) J Ci

The coherent sector's amplitude terms and alpha=3's tracked triple are added
on top (`_t_contractions_closed`).  C, P and the scratch vectors live in a
workspace that `evolve_cumulant` allocates once per solve; the derivative a
call returns is always a fresh array, never a view of the workspace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import DOP853

from .couplings import CouplingMatrices
from .couplings import coupling_matrices  # rebound by perfbench/tracing.py
from .exact import InitialStateSpec, ObservableTrace, collective_observables, integrate_on_grid
from .geometry import AtomArray
from .geometry import build_array  # rebound by perfbench/tracing.py

logger = logging.getLogger(__name__)

POPULATION_SOFT_TOL = 1e-6   # outside [0,1] by less than this: clamp and log
POPULATION_HARD_TOL = 1e-3   # outside [0,1] by more than this: abort
CORRELATOR_LIMIT = 10.0      # any tracked |correlator| above this: abort
RATE_FLOOR_PER_ATOM = -1e-6  # tolerated fp negativity of the emission rate


class ClosureBlowupError(RuntimeError):
    """Unphysical state produced by the closure, with the diagnostic time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class ClosureOrder:
    """Truncation order and whether single-operator averages are tracked."""

    alpha: int = 2
    coherent_sector: bool = False

    def __post_init__(self):
        if self.alpha not in (1, 2, 3):
            raise ValueError("alpha must be 1, 2, or 3")
        if self.alpha == 3 and self.coherent_sector:
            raise ValueError("alpha 3 tracks the incoherent sector only")


@dataclass
class CumulantState:
    """Tracked correlators as full tensors with aliased slots kept consistent.

    coherences has the populations on its diagonal; triple tensors carry the
    two-atom values on coincident slots (e.g. triple_coherences[x, x, j] =
    coherences[x, j]).  Only the independent entries feed the integrator, so
    consistency of the aliases is structural.
    """

    order: ClosureOrder
    populations: np.ndarray                       # (N,) real
    coherences: np.ndarray | None = None          # (N, N) complex Hermitian
    pair_populations: np.ndarray | None = None    # (N, N) real symmetric
    amplitudes: np.ndarray | None = None          # (N,) complex <s_i>
    pop_amplitudes: np.ndarray | None = None      # (N, N) complex <n_i s_j>
    amp_pairs: np.ndarray | None = None           # (N, N) complex <s_i s_j>
    triple_coherences: np.ndarray | None = None   # (N, N, N) <n_x s_i^dag s_j>
    triple_populations: np.ndarray | None = None  # (N, N, N) <n_x n_y n_z>

    @property
    def n_atoms(self) -> int:
        return len(self.populations)

    def to_vector(self) -> np.ndarray:
        return _layout(self.n_atoms, self.order).pack(self)


class _Layout:
    """Index bookkeeping between full tensors and the packed real state."""

    def __init__(self, n: int, order: ClosureOrder):
        self.n = n
        self.order = order
        self.iu = np.triu_indices(n, 1)
        off = ~np.eye(n, dtype=bool)
        self.offdiag = np.where(off)

        npair = n * (n - 1) // 2
        blocks = [("populations", n)]
        if order.alpha >= 2:
            blocks += [("coherences", 2 * npair), ("pair_populations", npair)]
            # flat indices of the i<j entries, of their mirror images and of
            # the diagonal in a C-ordered (n, n) array
            self.ij = self.iu[0] * n + self.iu[1]
            self.ji = self.iu[1] * n + self.iu[0]
            self.diag = (n + 1) * np.arange(n)
        if order.alpha == 3:
            # <n_x s_i^dag s_j> canonical slots: the i < j pairs in triu order,
            # x ascending and distinct from both; triples x < y < z in
            # lexicographic order.  The packed vector depends on this order.
            tx = np.tile(np.arange(n), npair)
            ti, tj = (np.repeat(k, n) for k in self.iu)
            keep = (tx != ti) & (tx != tj)
            self.txyz = (tx[keep], ti[keep], tj[keep])
            ar = np.arange(n)
            self.xyz = np.nonzero((ar[:, None, None] < ar[None, :, None])
                                  & (ar[None, :, None] < ar[None, None, :]))
            blocks += [("triple_coherences", 2 * len(self.txyz[0])),
                       ("triple_populations", len(self.xyz[0]))]
        if order.coherent_sector:
            blocks += [("amplitudes", 2 * n)]
            if order.alpha >= 2:
                blocks += [("pop_amplitudes", 2 * n * (n - 1)),
                           ("amp_pairs", 2 * npair)]
        self.slices = {}
        at = 0
        for name, size in blocks:
            self.slices[name] = slice(at, at + size)
            at += size
        self.size = at

    def _halves(self, y, name):
        """Views of a complex block's real half and imaginary half in `y`."""
        sl = self.slices[name]
        half = sl.start + (sl.stop - sl.start) // 2
        return y[sl.start:half], y[half:sl.stop]

    def _put(self, y, name, values):
        """Write one block's independent entries into the packed vector `y`.

        Complex values fill the block's real half, then its imaginary half;
        a real or complex value count that does not fit the block raises.
        """
        if np.iscomplexobj(values):
            re, im = self._halves(y, name)
            re[...] = values.real
            im[...] = values.imag
        else:
            y[self.slices[name]] = values

    def _get_complex(self, y, name):
        re, im = self._halves(y, name)
        return re + 1j * im

    def fill_pair_level(self, y, c, pair, nn=None):
        """Write the pair level of the packed `y` into the C-ordered (n, n)
        arrays `c` (complex, made Hermitian) and `nn` (real, made symmetric),
        with the populations on both diagonals.  `pair` is a complex scratch
        vector with one entry per i<j pair."""
        pop = y[self.slices["populations"]]
        cr, ci = self._halves(y, "coherences")
        flat = c.reshape(-1)
        pair.real, pair.imag = cr, ci
        flat[self.ij] = pair
        np.negative(ci, out=pair.imag)
        flat[self.ji] = pair
        flat[self.diag] = pop
        if nn is not None:
            flat = nn.reshape(-1)
            flat[self.ij] = flat[self.ji] = y[self.slices["pair_populations"]]
            flat[self.diag] = pop

    def pack(self, state: CumulantState) -> np.ndarray:
        y = np.empty(self.size)
        self._put(y, "populations", state.populations)
        if self.order.alpha >= 2:
            self._put(y, "coherences", np.take(state.coherences, self.ij))
            self._put(y, "pair_populations", np.take(state.pair_populations.real, self.ij))
        if self.order.alpha == 3:
            self._put(y, "triple_coherences", state.triple_coherences[self.txyz])
            self._put(y, "triple_populations", state.triple_populations[self.xyz].real)
        if self.order.coherent_sector:
            self._put(y, "amplitudes", state.amplitudes)
            if self.order.alpha >= 2:
                self._put(y, "pop_amplitudes", state.pop_amplitudes[self.offdiag])
                self._put(y, "amp_pairs", state.amp_pairs[self.iu])
        return y

    def unpack(self, y: np.ndarray) -> CumulantState:
        n = self.n
        pop = y[self.slices["populations"]].copy()
        state = CumulantState(order=self.order, populations=pop)
        if self.order.alpha >= 2:
            c = np.empty((n, n), dtype=complex)
            nn = np.empty((n, n))
            self.fill_pair_level(y, c, np.empty(len(self.ij), dtype=complex), nn)
            state.coherences, state.pair_populations = c, nn
        if self.order.alpha == 3:
            state.triple_coherences = self._fill_triple_coherences(
                self._get_complex(y, "triple_coherences"), state)
            state.triple_populations = self._fill_triple_populations(
                y[self.slices["triple_populations"]], state)
        if self.order.coherent_sector:
            state.amplitudes = self._get_complex(y, "amplitudes")
            if self.order.alpha >= 2:
                w = np.zeros((n, n), dtype=complex)
                w[self.offdiag] = self._get_complex(y, "pop_amplitudes")
                s = np.zeros((n, n), dtype=complex)
                s[self.iu] = self._get_complex(y, "amp_pairs")
                s += s.T
                state.pop_amplitudes, state.amp_pairs = w, s
        return state

    def _fill_triple_coherences(self, values, state):
        """Scatter canonical entries and alias every coincident slot."""
        n = self.n
        t = np.zeros((n, n, n), dtype=complex)
        tx, ti, tj = self.txyz
        t[tx, ti, tj] = values
        t[tx, tj, ti] = values.conj()
        return fill_triple_coherence_slots(t, state.coherences,
                                           state.pair_populations,
                                           state.populations)

    def _fill_triple_populations(self, values, state):
        n = self.n
        t = np.zeros((n, n, n))
        x, y_, z = self.xyz
        for perm in ((x, y_, z), (x, z, y_), (y_, x, z),
                     (y_, z, x), (z, x, y_), (z, y_, x)):
            t[perm] = values
        return fill_triple_population_slots(t, state.pair_populations)


def fill_triple_coherence_slots(t, coherences, pair_populations, populations):
    """Enforce the aliases of <n_x s_i^dag s_j> on coincident indices:
    (x,x,j) -> <s_x^dag s_j>, (x,i,x) -> 0, (x,p,p) -> <n_x n_p>."""
    n = len(populations)
    ar = np.arange(n)
    t[ar, ar, :] = coherences
    t[ar, :, ar] = 0.0
    t[:, ar, ar] = pair_populations
    return t


def fill_triple_population_slots(t, pair_populations):
    """Enforce the aliases of <n_x n_y n_z> on coincident indices: two equal
    indices reduce the product to <n_p n_q> of the two distinct atoms."""
    ar = np.arange(len(pair_populations))
    t[ar, ar, :] = pair_populations
    t[ar, :, ar] = pair_populations
    t[:, ar, ar] = pair_populations
    return t


@lru_cache(maxsize=32)
def _layout(n: int, order: ClosureOrder) -> _Layout:
    return _Layout(n, order)


def initial_cumulant_state(init: InitialStateSpec, array: AtomArray,
                           order: ClosureOrder) -> CumulantState:
    """Product initial state: every joint cumulant starts at zero."""
    n = array.n_atoms
    if init.coherent and not order.coherent_sector:
        raise ValueError("coherent initial state requires coherent_sector=True; "
                         "the incoherent sector tracks no amplitudes")
    p = init.p_excited
    pop = np.full(n, p)
    if init.coherent:
        theta = init.rotation_angle
        phases = np.zeros(n)
        if init.phase_gradient is not None:
            phases = 2 * np.pi * array.atom_positions @ np.asarray(
                init.phase_gradient, dtype=float)
        b = np.cos(theta / 2) * np.sin(theta / 2) * np.exp(1j * (phases + init.phase_offset))
    else:
        b = np.zeros(n, dtype=complex)

    state = CumulantState(order=order, populations=pop)
    if order.alpha >= 2:
        c = _product_coherences(pop, b)
        nn = np.outer(pop, pop)
        np.fill_diagonal(nn, pop)
        state.coherences, state.pair_populations = c, nn
    if order.alpha == 3:
        t = pop[:, None, None] * state.coherences[None, :, :]
        state.triple_coherences = fill_triple_coherence_slots(
            t, state.coherences, state.pair_populations, pop)
        state.triple_populations = fill_triple_population_slots(
            pop[:, None, None] * state.pair_populations[None, :, :],
            state.pair_populations)
    if order.coherent_sector:
        state.amplitudes = b
        if order.alpha >= 2:
            w = np.outer(pop, b)
            np.fill_diagonal(w, 0)
            s = np.outer(b, b)
            np.fill_diagonal(s, 0)
            state.pop_amplitudes, state.amp_pairs = w, s
    return state


def _product_coherences(populations, amplitudes=None):
    """<s_i^dag s_j> of a product state: <s_i^dag><s_j> off the diagonal
    (zero without tracked amplitudes), the populations on it (also the
    alpha=1 closure of the pair level)."""
    if amplitudes is None:
        return np.diag(populations.astype(complex))
    c = np.outer(amplitudes.conj(), amplitudes)
    np.fill_diagonal(c, populations)
    return c


class _Workspace:
    """Buffers that one solve allocates once and every RHS call overwrites.

    It holds g = J + i Gamma/2 (zero diagonal) and, at alpha >= 2, C =
    <s_i^dag s_j> and P = g @ C as full complex matrices, the couplings on
    the i<j pairs, and real pair-length scratch vectors.  No result may
    alias them: `_rhs_vector` returns a freshly allocated dy on every call,
    since DOP853 keeps its stage vectors and its last derivative.
    """

    def __init__(self, layout: _Layout, couplings: CouplingMatrices):
        self.layout, self.couplings = layout, couplings
        n = layout.n
        self.g = np.empty((n, n), dtype=complex)
        self.g.real = couplings.J
        np.multiply(couplings.Gamma, 0.5, out=self.g.imag)
        np.fill_diagonal(self.g, 0)
        self.gc = self.g.conj() if layout.order.coherent_sector else None
        if layout.order.alpha == 1:
            return
        npair = len(layout.ij)
        self.c = np.empty((n, n), dtype=complex)
        self.p = np.empty((n, n), dtype=complex)
        self.p_ij, self.p_ji = np.empty((2, npair), dtype=complex)
        self.gamma_diag = np.diagonal(couplings.Gamma).copy()
        self.j_pair = np.take(couplings.J, layout.ij)
        self.gamma_pair = np.take(couplings.Gamma, layout.ij)
        (self.n_i, self.n_j, self.w_i, self.w_j, self.d_i, self.d_j,
         self.m, self.tmp) = np.empty((8, npair))

    def load(self, y: np.ndarray) -> np.ndarray:
        """Scatter the packed pair level of `y` into C; returns P = g @ C."""
        self.layout.fill_pair_level(y, self.c, self.p_ij)
        return np.matmul(self.g, self.c, out=self.p)


def _t_contractions_closed(ws: _Workspace, y, dy, ds1=None, df1i=None):
    """dn, dC and dNN from P = g @ C (after `ws.load(y)`), written into `dy`.

    dC and dNN contract the three-atom moment T[x,i,j] = <n_x s_i^dag s_j>:

        dC  = -C - i S1 + (-i S1)^dag,   S1[i,j] = sum_a g[i,a] (2 T[i,a,j] - C[a,j])
        dNN = -2 NN - 2 Im(F1 + F1^T) + 2 Gamma Cr,   F1[i,j] = sum_a g[i,a] T[j,a,i]

    with full sums over a and the coincident slots T[x,x,q] = C[x,q],
    T[x,p,p] = <n_x n_p>, T[x,p,x] = 0.  Closing T at order 2 in the
    incoherent sector gives S1 = w_i P_ij + 2 g_ij M_ij and
    Im F1 = d_i n_j + Im(g_ij C_ji) (1 - n_j), where C = Cr + i Ci,
    w = 2n - 1, M = NN - n n^T and d = Im diag P.  Given g = g^T, every
    block is then real arithmetic on P:

        dn  = -Gamma_ii n - 2 d
        dCr = -Cr + w_i Im P_ij + w_j Im P_ji + 2 Gamma M
        dCi = -Ci - (w_i Re P_ij - w_j Re P_ji)
        dNN = -2 NN - 2 (d_i n_j + n_i d_j) + (n_i + n_j) Gamma Cr
              - 2 (n_j - n_i) J Ci

    formed on the i<j pairs only, in the workspace's scratch vectors and
    straight into the blocks of `dy` (which must not alias the workspace).
    `ds1` and `df1i` are what the coherent sector's amplitude terms, or
    alpha=3's tracked triple, add to S1 and Im F1.  They are added on top,
    so zero amplitudes give exactly the incoherent sector's derivatives.
    """
    lay = ws.layout
    i, j = lay.iu
    sl = lay.slices
    n_pop, nn = y[sl["populations"]], y[sl["pair_populations"]]
    cr, ci = lay._halves(y, "coherences")
    dcr, dci = lay._halves(dy, "coherences")
    dnn = dy[sl["pair_populations"]]
    p_ij, p_ji, m, tmp = ws.p_ij, ws.p_ji, ws.m, ws.tmp
    n_i, n_j, w_i, w_j, d_i, d_j = ws.n_i, ws.n_j, ws.w_i, ws.w_j, ws.d_i, ws.d_j

    d = np.diagonal(ws.p).imag
    dn = dy[sl["populations"]]
    np.multiply(d, -2.0, out=dn)
    dn -= ws.gamma_diag * n_pop

    np.take(n_pop, i, out=n_i, mode="clip")
    np.take(n_pop, j, out=n_j, mode="clip")
    np.take(d, i, out=d_i, mode="clip")
    np.take(d, j, out=d_j, mode="clip")
    np.multiply(n_i, 2.0, out=w_i)
    w_i -= 1.0
    np.multiply(n_j, 2.0, out=w_j)
    w_j -= 1.0
    np.subtract(nn, np.multiply(n_i, n_j, out=m), out=m)
    np.take(ws.p, lay.ij, out=p_ij, mode="clip")
    np.take(ws.p, lay.ji, out=p_ji, mode="clip")

    # dCr = -Cr + w_i Im P_ij + w_j Im P_ji + 2 Gamma M
    np.multiply(p_ij.imag, w_i, out=dcr)
    dcr += np.multiply(p_ji.imag, w_j, out=tmp)
    np.multiply(ws.gamma_pair, m, out=tmp)
    tmp *= 2.0
    dcr += tmp
    dcr -= cr
    # dCi = -Ci - (w_i Re P_ij - w_j Re P_ji)
    np.multiply(p_ji.real, w_j, out=dci)
    dci -= np.multiply(p_ij.real, w_i, out=tmp)
    dci -= ci
    # dNN = -2 (NN + d_i n_j + n_i d_j) + (n_i + n_j) Gamma Cr - 2 (n_j - n_i) J Ci
    np.multiply(d_i, n_j, out=dnn)
    dnn += np.multiply(n_i, d_j, out=tmp)
    dnn += nn
    dnn *= -2.0
    np.add(n_i, n_j, out=tmp)
    tmp *= ws.gamma_pair
    tmp *= cr
    dnn += tmp
    np.subtract(n_j, n_i, out=tmp)
    tmp *= ws.j_pair
    tmp *= ci
    tmp *= 2.0
    dnn -= tmp

    if ds1 is not None:
        up, lo = ds1[i, j], ds1[j, i]
        dcr += up.imag + lo.imag
        dci += lo.real - up.real
    if df1i is not None:
        dnn -= 2.0 * (df1i[i, j] + df1i[j, i])


def _amplitude_contractions(n_pop, g, amp):
    """What the coherent sector's amplitude terms add to S1 and Im F1 of
    `_t_contractions_closed`, with the triple closed at order 2.  Every term
    carries an amplitude factor, so all are exact zeros at zero amplitudes."""
    b, bc, w, gbc, _, _ = amp
    wc = w.conj()
    # the amplitude part of the closure value of the pair slot T[i,j,j]
    pair_cf = (wc * b[None, :] + w * bc[None, :]
               - 2 * n_pop[:, None] * (np.abs(b) ** 2)[None, :])
    ds1 = 2 * (np.outer((g * wc).sum(axis=1), b) + w * gbc[:, None]
               - 2 * n_pop[:, None] * gbc[:, None] * b[None, :] - g * pair_cf)
    df1 = (b[:, None] * (g @ wc.T) + w.T * gbc[:, None]
           - 2 * np.outer(b * gbc, n_pop)
           + g * (2 * n_pop[None, :] * bc[None, :] * b[:, None] - w.T * bc[None, :]))
    return ds1, df1.imag


def _coherent_rhs(n_pop, c, nn, s, g, gc, gC, dg, amp):
    """dW, dS with three-atom moments closed at order 2."""
    b, bc, w, gbc, gcb, rw = amp
    wgcT = w @ gc.T
    gcS = gc @ s   # also (s @ gc.T).T, as s and g are symmetric
    # X1[i,j] = sum_a g[i,a] <s_a^dag s_i s_j>, closed
    x1 = (np.outer(dg, b) + gC * b[:, None]
          + (s - 2 * np.outer(b, b)) * gbc[:, None])
    x1c = g * (c.T * b[None, :] + np.outer(b, n_pop)
               + s * bc[None, :] - 2 * np.outer(b, np.abs(b) ** 2))
    # X2[i,j] = sum_a gc[i,a] <s_i^dag s_a s_j>, closed
    x2 = (np.outer(dg.conj(), b) + c * gcb[:, None]
          + bc[:, None] * gcS - 2 * np.outer(bc * gcb, b))
    x2c = gc * (2 * c * b[None, :] - 2 * np.outer(bc, b ** 2))
    # Y[i,j] = sum_a gc[j,a] (2 <n_i n_j s_a> - <n_i s_a>), closed
    y = (2 * (np.outer(n_pop, rw) + n_pop[None, :] * wgcT
              + (nn - 2 * np.outer(n_pop, n_pop)) * gcb[None, :])
         - wgcT)
    yc = gc.T * 2 * (n_pop[:, None] * w.T
                     + (nn - 2 * np.outer(n_pop, n_pop)) * b[:, None])
    dw = (-1.5 * w + 1j * g * w.T
          + 1j * (x1 - x1c) - 1j * (x2 - x2c) + 1j * (y - yc))

    # dS[i,j] = -S + i (Fs[i,j] + Fs[j,i]) with
    # Fs[i,j] = sum_a gc[i,a] (2 <n_i s_j s_a> - <s_j s_a>), closed
    fs = (2 * (n_pop[:, None] * gcS + gcb[:, None] * w
               + np.outer(rw, b) - 2 * np.outer(n_pop * gcb, b))
          - gcS - 4 * gc * (w * b[None, :] - n_pop[:, None] * (b ** 2)[None, :]))
    ds = -s + 1j * (fs + fs.T)
    return dw, ds


def _order3_rhs(state: CumulantState, layout: _Layout, g, gC, dg):
    """What the tracked (slot-filled) triple adds to the order-2 closure of S1
    and Im F1 in `_t_contractions_closed`, and dT and dNNN on the canonical
    index arrays (incoherent sector).

    dT[x,i,j] = h[x,i,j] + conj(h[x,j,i]): the equation is a term plus its
    adjoint, so only the half h is formed, densely over (x, i, j).  On
    distinct x, i, j the two halves are exact adjoints given g = g^T; the
    aliased slots T[x,x,j] = C[x,j] and T[x,j,x] = 0 that make them differ
    enter a1 and its coincident-slot correction equally and cancel.
    """
    n_pop = state.populations
    c = state.coherences
    nn = state.pair_populations
    t = state.triple_coherences
    t3 = state.triple_populations

    ar = np.arange(len(n_pop))
    a1 = g @ t                                    # sum_a g[i,a] T[x,a,j]
    a2 = a1[ar, ar]                               # sum_a g[i,a] T[i,a,j]
    f1 = a1[:, ar, ar].T                          # sum_a g[i,a] T[j,a,i]
    # axes (x, i, j); views of the pair-level quantities on them
    nx, ni, nj = n_pop[:, None, None], n_pop[None, :, None], n_pop[None, None, :]
    m = nn - 2 * n_pop[:, None] * n_pop[None, :]   # <n_p n_q> minus its closure
    mxi = m[:, :, None]
    c_ij, c_xj = c[None, :, :], c[:, None, :]
    c_ix, c_jx = c.T[:, :, None], c.T[:, None, :]
    t_ixj = t.transpose(1, 0, 2)                  # T[i,x,j]
    t_jix = t.transpose(2, 1, 0)                  # T[j,i,x]
    h = -t + 1j * (
        g[:, None, :] * (t_jix - c_jx * c_ij - nj * c_ix)
        + g[:, :, None] * (2 * (ni * c_xj + nx * t_ixj + mxi * c_xj - c_ix * c_ij) - c_xj)
        + 2 * g[None, :, :] * (ni * nn[:, None, :] + nx * nn[None, :, :] + mxi * nj - t3)
        + dg[:, None, None] * c_ij + gC[:, None, :] * c_ix
        + a1 - 2 * (ni * a1 + nx * a2[None, :, :] + mxi * gC[None, :, :]))
    dt = (h + h.conj().transpose(0, 2, 1))[layout.txyz]

    # dNNN[x,y,z] = -3 T3 - 2 (q[x,y,z] + q[y,x,z] + q[z,x,y]), where
    # q[u,p,r] is symmetric in its partners p, r: p's half plus r's half
    half = (nj * f1[:, :, None]
            - g[:, :, None] * (nj * c_ix + ni * t_jix + m[None, :, :] * c_ix)).imag
    q = half + half.transpose(0, 2, 1) + m[None, :, :] * dg.imag[:, None, None]
    dt3 = (-3 * t3 - 2 * (q + q.transpose(1, 0, 2) + q.transpose(1, 2, 0)))[layout.xyz]
    # what the tracked triple adds to the alpha=2 closure of S1 and Im F1
    ds1 = 2 * (a2 - n_pop[:, None] * gC - g * (nn - np.outer(n_pop, n_pop)))
    df1i = (f1 - np.outer(dg, n_pop) - g * (c.T - n_pop[None, :] * c.T)).imag
    return ds1, df1i, dt, dt3


def cumulant_rhs(state: CumulantState, couplings: CouplingMatrices) -> CumulantState:
    """Time derivative of every tracked correlator under the state's closure."""
    n = state.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("state and couplings disagree on atom count")
    layout = _layout(n, state.order)
    return layout.unpack(_rhs_vector(layout.pack(state), _Workspace(layout, couplings)))


def _rhs_vector(y: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Packed time derivative, in a freshly allocated vector.  The coupling
    contractions are formed once (P = g @ C in the workspace) and handed to
    the order-specific pieces; each block is written straight into its slice."""
    layout = ws.layout
    order = layout.order
    g, gc = ws.g, ws.gc
    n_pop = y[layout.slices["populations"]]
    dy = np.empty(layout.size)
    state = None
    if order.coherent_sector or order.alpha == 3:
        state = layout.unpack(y)

    if order.coherent_sector:
        b = state.amplitudes
        # at alpha=1 <n_i s_j> closes to <n_i><s_j>
        w = np.outer(n_pop, b) if order.alpha == 1 else state.pop_amplitudes
        gcb = gc @ b
        rw = (gc * w).sum(axis=1)
        layout._put(dy, "amplitudes", -0.5 * b + 1j * (2 * rw - gcb))
    if order.alpha == 1:
        # the closure of the pair level itself
        c = _product_coherences(n_pop, b if order.coherent_sector else None)
        dn = (2 * (ws.couplings.J * c.imag).sum(axis=1)
              - (ws.couplings.Gamma * c.real).sum(axis=1))
        layout._put(dy, "populations", dn)
        return dy

    p = ws.load(y)
    dg = np.diagonal(p)
    ds1 = df1i = None
    if order.coherent_sector:
        bc = b.conj()
        amp = (b, bc, w, g @ bc, gcb, rw)
        ds1, df1i = _amplitude_contractions(n_pop, g, amp)
        dw, ds = _coherent_rhs(n_pop, ws.c, state.pair_populations, state.amp_pairs,
                               g, gc, p, dg, amp)
        layout._put(dy, "pop_amplitudes", dw[layout.offdiag])
        layout._put(dy, "amp_pairs", ds[layout.iu])
    elif order.alpha == 3:
        ds1, df1i, dt, dt3 = _order3_rhs(state, layout, g, p, dg)
        layout._put(dy, "triple_coherences", dt)
        layout._put(dy, "triple_populations", dt3)
    _t_contractions_closed(ws, y, dy, ds1, df1i)
    return dy


def make_time_grid(dense_until: float = 5.0, end: float = 20.0,
                   dense_step: float = 0.05, log_points: int = 40) -> np.ndarray:
    """Uniform grid on [0, dense_until] plus a logarithmic tail to `end`."""
    if dense_until <= 0 or dense_step <= 0:
        raise ValueError("dense_until and dense_step must be positive")
    dense = np.arange(0.0, dense_until + dense_step / 2, dense_step)
    if end <= dense_until:
        return dense
    tail = np.geomspace(dense_until, end, log_points + 1)[1:]
    return np.concatenate([dense, tail])


def _checked_state(y: np.ndarray, layout: _Layout, t: float):
    """Unpack with the blow-up guards; returns (state, population excess).

    Raises ClosureBlowupError for non-finite values, correlator magnitudes
    above CORRELATOR_LIMIT, or populations outside [0, 1] by more than
    POPULATION_HARD_TOL.  Smaller excursions are the caller's to clamp.
    """
    if not np.all(np.isfinite(y)):
        raise ClosureBlowupError(f"non-finite correlator at t = {t:.6g}", t)
    worst = np.abs(y).max()
    if worst > CORRELATOR_LIMIT:
        raise ClosureBlowupError(
            f"correlator magnitude {worst:.3g} exceeds "
            f"{CORRELATOR_LIMIT} at t = {t:.6g}", t)
    state = layout.unpack(y)
    pop = state.populations
    excess = max(float(-pop.min()), float(pop.max() - 1.0))
    if excess > POPULATION_HARD_TOL:
        raise ClosureBlowupError(
            f"population outside [0, 1] by {excess:.3g} at t = {t:.6g}", t)
    return state, excess


def evolve_cumulant(init: InitialStateSpec, array: AtomArray,
                    couplings: CouplingMatrices, order: ClosureOrder, times,
                    *, rtol: float = 1e-7, atol: float = 1e-9,
                    snapshot_times=None) -> ObservableTrace:
    """Integrate the closed moment equations, streaming observables at `times`.

    Aborts with ClosureBlowupError when the closure leaves the physical
    region: any tracked |correlator| above CORRELATOR_LIMIT, a population
    outside [0, 1] by more than POPULATION_HARD_TOL, a negative emission rate
    beyond float tolerance for incoherent initial states, or non-finite
    values.  Populations outside [0, 1] by less than POPULATION_SOFT_TOL are
    clamped in the recorded output and counted (never fed back into the
    integrator state).
    """
    n = array.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("array and couplings disagree on atom count")
    layout = _layout(n, order)
    y0 = layout.pack(initial_cumulant_state(init, array, order))
    gamma = couplings.Gamma
    ws = _Workspace(layout, couplings)

    series = {key: [] for key in ("populations", "n_excited", "emission_rate",
                                  "s_z", "m_perp_sq")}
    snapshots: dict = {}
    clamped = 0
    rate_floor = RATE_FLOOR_PER_ATOM * n

    def record(t: float, y: np.ndarray, snapshot: bool):
        nonlocal clamped
        state, excess = _checked_state(y, layout, t)
        if excess > POPULATION_SOFT_TOL:
            clamped += 1
            logger.warning("clamping population excursion %.3g at t = %.6g",
                           excess, t)
        pop = np.clip(state.populations, 0.0, 1.0)
        if state.order.alpha == 1:
            c = _product_coherences(pop, state.amplitudes)
        else:
            c = state.coherences
        obs = collective_observables(pop, c, gamma)
        if not init.coherent and obs["emission_rate"] < rate_floor:
            raise ClosureBlowupError(
                f"negative emission rate {obs['emission_rate']:.3g} at t = {t:.6g} "
                "(closure breakdown)", t)
        obs["populations"] = pop
        for key, values in series.items():
            values.append(obs[key])
        if snapshot:
            snapshots[t] = {
                "populations": pop.copy(),
                "coherences": c.copy(),
                "pair_populations": None if state.pair_populations is None
                else state.pair_populations.copy(),
                "sites": array.atom_rc,
            }

    times = integrate_on_grid(
        lambda t0, y, t_bound: DOP853(
            lambda _t, v: _rhs_vector(v, ws),
            t0, y, t_bound=t_bound, rtol=rtol, atol=atol),
        y0, times, record, snapshot_times)
    return ObservableTrace(times=times, n_atoms=float(n), snapshots=snapshots,
                           clamped_points=clamped,
                           **{key: np.array(values) for key, values in series.items()})
