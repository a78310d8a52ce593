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
closed-form real arithmetic on P over the i<j pairs (`_t_contractions_closed`).

When the atom count is even and J and Gamma commute with the centre
inversion i -> N-1-i, as on every clean rectangle, the incoherent solve at
alpha = 2 and 3 integrates the inversion-reduced state (`_inversion_half`):
the same formulas over the pair tables of half the lattice (`_Layout`), with
P from two N/2 GEMMs (`_Workspace`), and at alpha=3 over the triple slots
(x; i<j) with x < N/2 and one triple of each image pair, so every N^3 array
of `_triple_terms` holds x < N/2 only.  The recorder expands the pair level
to all atoms.

The coherent sector's amplitude terms (`_coherent_terms`, which forms each
of its contractions once) and alpha=3's tracked triple are added on top.
C, P and the scratch vectors live in a workspace that `evolve_cumulant`
allocates once per solve; the derivative a call returns is always a fresh
array, never a view of the workspace.

At alpha=3 the workspace also holds the dense triple tensor T, refreshed in
place on every call from the packed state through source indices that
`_Layout` precomputes.  That index map is the one statement of the aliasing
rule for coincident slots (T[x,x,j] = C[x,j], T[x,j,x] = 0, T[x,p,p] =
NN[x,p]).  `_triple_terms` groups the terms of dT by index structure into
one N^3 buffer around a single GEMM and writes dT and dNNN straight into
the packed derivative.

The packed real vector is the only state representation: `CumulantState`
wraps it with its closure order and atom count, the initial state is packed
in closed form, and the recorder reads the populations and the pair level
straight from it.  The dense tensors of every tracked correlator (and the
pack/unpack between them and the vector) live in the test suite's
`tests/cumulant_reference.py`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .couplings import CouplingMatrices
from .couplings import coupling_matrices  # rebound by perfbench/tracing.py
from .exact import DOP853  # rebound by perfbench/tracing.py
from .exact import (InitialStateSpec, ObservableTrace, integrate_on_grid, observation,
                    padded_length)
from .geometry import AtomArray
from .geometry import build_array  # rebound by perfbench/tracing.py

logger = logging.getLogger(__name__)

POPULATION_SOFT_TOL = 1e-6   # outside [0,1] by more than this: count and log
POPULATION_HARD_TOL = 1e-3   # outside [0,1] by more than this: abort
CORRELATOR_LIMIT = 10.0      # any tracked |correlator| above this: abort
RATE_FLOOR_PER_ATOM = -1e-6  # tolerated fp negativity of the emission rate
INVERSION_TOL = 1e-12        # couplings inversion-symmetric to this of max|g|


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


@dataclass(frozen=True)
class CumulantState:
    """Tracked correlators of one closure as the packed real vector.

    Only independent entries are stored (Hermitian i<j pairs, canonical
    triple slots), block by block in the order `_Layout` fixes; complex
    blocks hold their real parts, then their imaginary parts.  This is the
    vector the integrator steps.
    """

    order: ClosureOrder
    n_atoms: int
    vector: np.ndarray

    def to_vector(self) -> np.ndarray:
        return self.vector


class _Layout:
    """Block and index bookkeeping of the packed real state.

    The pair level is held on pair tables: `iu` gives each tracked pair's two
    sites among the `sites` tracked populations, and `ij`, `ji` and `diag`
    are flat indices of the pair, its mirror and the populations in the
    C-ordered dense blocks (of shape `dense`) that the workspace and
    `fill_pair_level` use.  The full layout tracks the i<j pairs of all n
    sites in one (n, n) block.

    With `half` = h (n = 2h, incoherent sector at alpha >= 2, chosen by
    `_inversion_half`) the state is inversion-reduced: it tracks sites
    0..h-1 and the two Hermitian (h, h) blocks X = C[:h, :h] (pairs i<j) and
    Y[i,k] = C[i, n-1-k] (pairs i<=k; the partner site n-1-k has the
    population of k), stacked as one (2, h, h) array, and NN alike.  Every
    entry of the full C and NN is one of these or its conjugate, so the
    full state is `expand`ed from them.  At alpha=3 the inversion pairs each
    triple slot (x; i<j) with (n-1-x; n-1-j < n-1-i), which holds its
    conjugate, and each triple x<y<z with (n-1-z, n-1-y, n-1-x), with no
    fixed points: the layout tracks the slots with x < h and the triples
    that precede their image, half of each, indexed by all n sites.
    """

    def __init__(self, n: int, order: ClosureOrder, half: int | None = None):
        self.n = n
        self.order = order
        self.half = half
        self.sites = n if half is None else half
        off = ~np.eye(n, dtype=bool)
        self.offdiag = np.where(off)
        if half is None:
            self.iu = np.triu_indices(n, 1)
            self.dense = (n, n)
            block = 0
        else:
            xi, xj = np.triu_indices(half, 1)
            yi, yk = np.triu_indices(half)
            self.iu = (np.concatenate([xi, yi]), np.concatenate([xj, yk]))
            self.dense = (2, half, half)
            block = np.repeat([0, half * half], [len(xi), len(yi)])

        npair = len(self.iu[0])
        blocks = [("populations", self.sites)]
        if order.alpha >= 2:
            blocks += [("coherences", 2 * npair), ("pair_populations", npair)]
            # flat indices of the pairs, of their mirror images and of the
            # populations in the C-ordered dense blocks
            m = self.dense[-1]
            self.ij = block + self.iu[0] * m + self.iu[1]
            self.ji = block + self.iu[1] * m + self.iu[0]
            self.diag = (m + 1) * np.arange(self.sites)
        if order.alpha == 3:
            # <n_x s_i^dag s_j> canonical slots: the i < j pairs of all n sites
            # in triu order, x ascending, distinct from both and below `sites`;
            # triples x < y < z in lexicographic order, in the reduced layout
            # only those that precede their image (n-1-z, n-1-y, n-1-x).  The
            # packed vector depends on this order.
            pi, pj = np.triu_indices(n, 1)
            tx = np.tile(np.arange(n), len(pi))
            ti, tj = (np.repeat(k, n) for k in (pi, pj))
            keep = (tx != ti) & (tx != tj) & (tx < self.sites)
            self.txyz = (tx[keep], ti[keep], tj[keep])
            ar = np.arange(n)
            xyz = np.nonzero((ar[:, None, None] < ar[None, :, None])
                             & (ar[None, :, None] < ar[None, None, :]))
            if half is not None:
                a, b, c = xyz
                rep = (a * n + b) * n + c < ((n - 1 - c) * n + n - 1 - b) * n + n - 1 - a
                xyz = (a[rep], b[rep], c[rep])
            self.xyz = xyz
            blocks += [("triple_coherences", 2 * len(self.txyz[0])),
                       ("triple_populations", len(self.xyz[0]))]
            self._triple_sources()
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
        """Write the pair level of the packed `y` into the dense blocks `c`
        (complex, each made Hermitian) and `nn` (real, made symmetric), with
        the populations on the diagonal of C and NN (X in the reduced
        layout).  `pair` is a complex scratch vector with one entry per pair."""
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

    def blocks(self, m):
        """The dense blocks of a Pi-symmetric (n, n) matrix `m`: `m` itself in
        the full layout, its stacked X and Y blocks in the reduced one."""
        if self.half is None:
            return m
        h = self.half
        return np.stack([m[:h, :h], m[:h, :h - 1:-1]])

    def expand(self, a):
        """The full-size value of tracked populations (`sites`,) or dense
        blocks `dense`: `a` itself in the full layout.  In the reduced one
        the first h rows are [X, Y with its columns reversed] and the rest
        is their inversion image, a[n-1-i, n-1-j] = a[i, j]."""
        if self.half is None:
            return a
        if a.ndim == 1:
            return np.concatenate([a, a[::-1]])
        h = self.half
        out = np.empty((self.n, self.n), dtype=a.dtype)
        out[:h, :h] = a[0]
        out[:h, h:] = a[1][:, ::-1]
        out[h:] = out[:h][::-1, ::-1]
        return out

    def _triple_sources(self):
        """Where each slot of the dense triple tensor reads its value.

        T[x,i,j] = <n_x s_i^dag s_j> reads from [canonical values | their
        conjugates | C | NN | 0].  This is the one statement of the aliasing
        rule: the canonical slots and their mirrors T[x,j,i] = conj T[x,i,j],
        and on coincident indices T[x,x,j] = C[x,j], T[x,j,x] = 0 and
        T[x,p,p] = NN[x,p] (later rules win where they overlap, at x=i=j).
        T is held for x < `sites` only and filled pair-major, as V[i,j,x] =
        T[x,i,j], so the canonical slots read their sources in order.  Also
        precomputes the indices the alpha=3 kernel gathers at; <n_x n_y n_z>
        enters it on canonical slots only, through the x<y<z triple each slot
        is a permutation of.  In the reduced layout a triple or slot that is
        not tracked reads its inversion image: the triple (n-1-z, n-1-y,
        n-1-x), the slot (n-1-x; n-1-j, n-1-i).
        """
        n, w = self.n, self.sites
        tx, ti, tj = self.txyz
        slots = len(tx)

        def flat(a, b, c):
            return (a * n + b) * n + c

        x, q = np.repeat(np.arange(w), n), np.tile(np.arange(n), w)
        xq = x * n + q
        src = np.empty(w * n * n, dtype=np.intp)
        src[flat(tx, ti, tj)] = np.arange(slots)
        src[flat(tx, tj, ti)] = slots + np.arange(slots)
        src[flat(x, x, q)] = 2 * slots + xq
        src[flat(x, q, x)] = 2 * (slots + n * n)
        src[flat(x, q, q)] = 2 * slots + n * n + xq
        self.t_src = src.reshape(w, n, n).transpose(1, 2, 0).ravel()
        self.t_ext_size = 2 * (slots + n * n) + 1

        # lookups over every (x, i, j): the tracked slot holding (x; i, j) or
        # (x; j, i), and the tracked triple holding {x, i, j}, directly or as
        # its image
        triple, slot = np.empty((2, n ** 3), dtype=np.intp)
        images = [(tx, ti, tj)] + ([(n - 1 - tx, n - 1 - tj, n - 1 - ti)]
                                   if self.half is not None else [])
        for sx, si, sj in images:
            slot[flat(sx, si, sj)] = slot[flat(sx, sj, si)] = np.arange(slots)
        a, b, c = self.xyz
        images = [(a, b, c)] + ([(n - 1 - c, n - 1 - b, n - 1 - a)]
                                if self.half is not None else [])
        for u, v, z in images:
            for perm in ((u, v, z), (u, z, v), (v, u, z), (v, z, u), (z, u, v), (z, v, u)):
                triple[flat(*perm)] = np.arange(len(a))

        # the kernel's gathers: a pair-major (i, j, x < sites) tensor at each
        # slot and at its mirror, each slot's triple, each triple's three
        # slots (x; y,z), (y; x,z), (z; x,y), an (i, x) matrix at (p, u) and
        # (r, u) of each slot (u; p<r), and an (n, n) matrix at its pair
        self.t_ij, self.t_ji = (ti * n + tj) * w + tx, (tj * n + ti) * w + tx
        self.slot_triple = triple[flat(tx, ti, tj)]
        self.triple_slots = (slot[flat(a, b, c)], slot[flat(b, a, c)], slot[flat(c, a, b)])
        self.slot_xi, self.slot_xj = ti * n + tx, tj * n + tx
        self.slot_pair = ti * n + tj

    def fill_triple_coherences(self, y, c, nn, ext, out):
        """Refresh the dense (n, n, sites) complex `out` pair-major, out[i,j,x]
        = T[x,i,j], from the packed `y`, the full Hermitian C and symmetric NN
        and a complex scratch `ext` of t_ext_size entries; returns `out`."""
        slots, nsq = len(self.t_ij), self.n * self.n
        re, im = self._halves(y, "triple_coherences")
        canon, mirror = ext[:slots], ext[slots:2 * slots]
        canon.real, canon.imag = re, im
        np.conjugate(canon, out=mirror)
        ext[2 * slots:2 * slots + nsq] = c.reshape(-1)
        ext[2 * slots + nsq:-1] = nn.reshape(-1)
        ext[-1] = 0.0
        np.take(ext, self.t_src, out=out.reshape(-1), mode="clip")
        return out


def initial_cumulant_state(init: InitialStateSpec, array: AtomArray,
                           order: ClosureOrder) -> CumulantState:
    """The product initial state on the full layout (see `_product_start`)."""
    n = array.n_atoms
    return CumulantState(order, n, _product_start(init, array, _Layout(n, order)))


def _product_start(init: InitialStateSpec, array: AtomArray, layout: _Layout) -> np.ndarray:
    """The product initial state packed in closed form for `layout`, reduced
    or not: every joint cumulant starts at zero, so every tracked correlator
    is the product of its atoms' single-atom averages, the (p, b) of
    `InitialStateSpec.single_atom_moments`."""
    order = layout.order
    if init.coherent and not order.coherent_sector:
        raise ValueError("coherent initial state requires coherent_sector=True; "
                         "the incoherent sector tracks no amplitudes")
    # the reduced layout's pair level tracks sites 0..h-1 of an incoherent
    # start (b = 0); its triple tables index all n sites
    pop_n, b_n = init.single_atom_moments(array)
    pop, b = pop_n[:layout.sites], b_n[:layout.sites]

    y = np.empty(layout.size)
    layout._put(y, "populations", pop)
    if order.alpha >= 2:
        i, j = layout.iu
        layout._put(y, "coherences", b.conj()[i] * b[j])
        layout._put(y, "pair_populations", pop[i] * pop[j])
    if order.alpha == 3:
        tx, ti, tj = layout.txyz
        layout._put(y, "triple_coherences", pop_n[tx] * (b_n.conj()[ti] * b_n[tj]))
        x, y_, z = layout.xyz
        layout._put(y, "triple_populations", pop_n[x] * (pop_n[y_] * pop_n[z]))
    if order.coherent_sector:
        layout._put(y, "amplitudes", b)
        if order.alpha >= 2:
            r, col = layout.offdiag
            layout._put(y, "pop_amplitudes", pop[r] * b[col])
            layout._put(y, "amp_pairs", b[i] * b[j])
    return y


def _inversion_half(couplings: CouplingMatrices, order: ClosureOrder) -> int | None:
    """h = n/2 when the solve can run on the inversion-reduced layout, else None.

    That needs the incoherent sector at alpha = 2 or 3, an even atom count
    and J and Gamma that commute with the centre inversion i -> n-1-i (in
    row-major site order, a clean rectangle's point reflection) to
    INVERSION_TOL of max|g|.  The sector's product starts are then
    inversion-symmetric, and so the state stays.  Disorder, partial loading
    and per-atom motion draws break the symmetry and are refused through the
    couplings.
    """
    n = couplings.n_atoms
    if order.alpha == 1 or order.coherent_sector or n < 2 or n % 2:
        return None
    J, G = couplings.J, couplings.Gamma
    g = np.hypot(J, 0.5 * G)
    np.fill_diagonal(g, 0.0)
    worst = max(np.abs(J - J[::-1, ::-1]).max(), np.abs(G - G[::-1, ::-1]).max())
    return n // 2 if worst <= INVERSION_TOL * g.max() else None


class _Workspace:
    """Buffers that one solve allocates once and every RHS call overwrites.

    The state itself stays packed; the workspace holds what the kernels
    need in dense form.  That is g = J + i Gamma/2 (zero diagonal) and, at
    alpha >= 2, C = <s_i^dag s_j> and P = g @ C in the layout's dense blocks,
    the couplings on the layout's pairs, and real pair-length scratch
    vectors.  In the coherent sector and at alpha=3 it also holds NN as a
    real matrix in the layout's dense blocks.  At alpha=3 it holds the dense
    triple tensor T (every slot refreshed in place from the packed state
    through the layout's `t_src`, so coincident slots follow the layout's
    one aliasing rule), the complex N^3 accumulator K of `_triple_terms`
    with one N^3 scratch, and the couplings on the canonical (x, i<j) slots.
    In the reduced layout these tensors hold x < h only, (N, N, h), so the
    GEMM a1 = g @ T runs on half the columns.  T3 enters the kernel only on
    canonical slots, so no dense T3 is built.  No result may alias
    the workspace: `_rhs_vector` returns a freshly allocated dy on every
    call, since a caller may keep one past the next: `cumulant_rhs`
    returns it, and a scipy stepper in the stepper slot keeps its last.

    In the inversion-reduced layout C and P are held as their stacked
    (X, Y) blocks.  With g, C and hence P inversion-symmetric, the first h
    rows of P = g @ C give P_X = g_X X + g_Y Y and P_Y = g_X Y + g_Y X, so
    two h x h GEMMs form them: P+- = (g_X +- g_Y)(X +- Y) / 2, P_X = P+ + P-
    and P_Y = P+ - P- (the 1/2 is folded into the stored g_pm).
    """

    def __init__(self, layout: _Layout, couplings: CouplingMatrices):
        self.layout, self.couplings = layout, couplings
        n = layout.n
        self.g = np.empty((n, n), dtype=complex)
        self.g.real = couplings.J
        np.multiply(couplings.Gamma, 0.5, out=self.g.imag)
        np.fill_diagonal(self.g, 0)
        self.gc = self.g.conj() if layout.order.coherent_sector else None
        if layout.order.coherent_sector and layout.order.alpha == 2:
            self.gc_k = np.zeros((n, padded_length(n)), dtype=complex)
            self.gc_k[:, :n] = self.gc
            self.gct_k = np.zeros((padded_length(n), n), dtype=complex)
            self.gct_k[:n] = self.gc.T
        if layout.order.alpha == 1:
            return
        npair = len(layout.ij)
        self.p = np.empty(layout.dense, dtype=complex)
        # every GEMM runs on operands zero-padded to the inner dimension
        # `padded_length`; C is the top rows of its padded operand
        if layout.half is None or layout.order.alpha == 3:
            self.g_k = np.zeros((n, padded_length(n)), dtype=complex)
            self.g_k[:, :n] = self.g
        if layout.half is None:
            self.c_k = np.zeros((padded_length(n), n), dtype=complex)
            self.c = self.c_k[:n]
        else:
            h = layout.half
            self.c = np.empty(layout.dense, dtype=complex)
            g_x, g_y = layout.blocks(self.g)
            self.g_pm = np.zeros((2, h, padded_length(h)), dtype=complex)
            self.g_pm[..., :h] = 0.5 * np.stack([g_x + g_y, g_x - g_y])
            self.c_pm = np.zeros((2, padded_length(h), h), dtype=complex)
            self.p_pm = np.empty(layout.dense, dtype=complex)
        self.p_ij, self.p_ji = np.empty((2, npair), dtype=complex)
        self.gamma_diag = np.take(layout.blocks(couplings.Gamma), layout.diag)
        self.j_pair = np.take(layout.blocks(couplings.J), layout.ij)
        self.gamma_pair = np.take(layout.blocks(couplings.Gamma), layout.ij)
        (self.n_i, self.n_j, self.w_i, self.w_j, self.d_i, self.d_j,
         self.m, self.tmp) = np.empty((8, npair))
        self.nn = (np.empty(layout.dense) if layout.order.alpha == 3
                   or layout.order.coherent_sector else None)
        if layout.order.alpha < 3:
            return
        w = layout.sites
        self.t_k = np.zeros((padded_length(n), n, w), dtype=complex)
        self.t = self.t_k[:n]
        self.k, self.s = np.empty((2, n, n, w), dtype=complex)
        self.t_ext = np.empty(layout.t_ext_size, dtype=complex)
        self.ai, self.bi = np.empty((n, 3, w), dtype=complex), np.empty((n, n, 3), dtype=complex)
        self.gamma_slot = np.take(couplings.Gamma, layout.slot_pair)
        self.j_slot = np.take(couplings.J, layout.slot_pair)
        slots = len(layout.t_ij)
        self.k_ij, self.k_ji, self.e_xi, self.e_xj = np.empty((4, slots), dtype=complex)
        self.q, self.slot_scratch = np.empty((2, slots))

    def load(self, y: np.ndarray) -> np.ndarray:
        """Scatter the packed pair level of `y` into C (and NN where the
        workspace holds it); returns P = g @ C in the layout's dense blocks."""
        self.layout.fill_pair_level(y, self.c, self.p_ij, self.nn)
        if self.layout.half is None:
            return np.matmul(self.g_k, self.c_k, out=self.p)
        x, y_ = self.c
        h = self.layout.half
        np.add(x, y_, out=self.c_pm[0, :h])
        np.subtract(x, y_, out=self.c_pm[1, :h])
        p_plus, p_minus = np.matmul(self.g_pm, self.c_pm, out=self.p_pm)
        np.add(p_plus, p_minus, out=self.p[0])
        np.subtract(p_plus, p_minus, out=self.p[1])
        return self.p


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

    formed on the layout's pair tables only (the i<j pairs, or the X and Y
    pairs of the reduced layout, whose P_ij and P_ji sit in the stacked
    blocks), in the workspace's scratch vectors and straight into the
    blocks of `dy` (which must not alias the workspace).
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

    d = np.take(ws.p, lay.diag).imag
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
        ds1 = lay.blocks(ds1)
        up, lo = np.take(ds1, lay.ij), np.take(ds1, lay.ji)
        dcr += up.imag + lo.imag
        dci += lo.real - up.real
    if df1i is not None:
        df1i = lay.blocks(df1i)
        dnn -= 2.0 * (np.take(df1i, lay.ij) + np.take(df1i, lay.ji))


def _coherent_terms(ws: _Workspace, y, dy):
    """The coherent sector at alpha=2, three-atom moments closed at order 2:
    d<s>, dW and dS written into `dy`, and what the amplitude terms add to S1
    and Im F1 of `_t_contractions_closed` (exact zeros at zero amplitudes).
    Call after `ws.load(y)`.  Besides P it forms two N^3 products, W g^H and
    g^* S (W = <n_i s_j>, S = <s_i s_j>), and reads g W^H as (W g^H)^H; rw,
    g b^* = (g^* b)^*, |b|^2 and NN - 2 n n^T are also formed once.  The test
    suite's tests/cumulant_reference.py keeps the formulas it was merged from.
    """
    lay = ws.layout
    g, gc, c, nn = ws.g, ws.gc, ws.c, ws.nn
    n_pop = y[lay.slices["populations"]]
    b = lay._get_complex(y, "amplitudes")
    # W and S sit in operands padded to `padded_length`, as W's columns and
    # S's rows enter the two GEMMs
    w_k = np.zeros_like(ws.gc_k)
    w = w_k[:, :lay.n]
    w[lay.offdiag] = lay._get_complex(y, "pop_amplitudes")
    s_k = np.zeros_like(ws.gct_k)
    s = s_k[:lay.n]
    s[lay.iu] = lay._get_complex(y, "amp_pairs")
    s += s.T
    dg = np.diagonal(ws.p)
    gcb = gc @ b
    bc, gbc = b.conj(), gcb.conj()
    rw = (gc * w).sum(axis=1)
    wgcT = w_k @ ws.gct_k
    gcS = ws.gc_k @ s_k   # also (s @ gc.T).T, as s and g are symmetric
    b_sq, b_b = np.abs(b) ** 2, b ** 2
    m = nn - 2 * np.outer(n_pop, n_pop)
    lay._put(dy, "amplitudes", -0.5 * b + 1j * (2 * rw - gcb))

    # S1 and F1 add-ons, with the amplitude part of the closed T[i,j,j]
    wc = w.conj()
    pair_cf = wc * b[None, :] + w * bc[None, :] - 2 * n_pop[:, None] * b_sq[None, :]
    ds1 = 2 * (np.outer(rw.conj(), b) + w * gbc[:, None]
               - 2 * n_pop[:, None] * gbc[:, None] * b[None, :] - g * pair_cf)
    df1 = (b[:, None] * wgcT.conj().T + w.T * gbc[:, None]
           - 2 * np.outer(b * gbc, n_pop)
           + g * (2 * n_pop[None, :] * bc[None, :] * b[:, None] - w.T * bc[None, :]))

    # X1[i,j] = sum_a g[i,a] <s_a^dag s_i s_j>, closed
    x1 = np.outer(dg, b) + ws.p * b[:, None] + (s - 2 * np.outer(b, b)) * gbc[:, None]
    x1c = g * (c.T * b[None, :] + np.outer(b, n_pop)
               + s * bc[None, :] - 2 * np.outer(b, b_sq))
    # X2[i,j] = sum_a gc[i,a] <s_i^dag s_a s_j>, closed
    x2 = (np.outer(dg.conj(), b) + c * gcb[:, None]
          + bc[:, None] * gcS - 2 * np.outer(bc * gcb, b))
    x2c = gc * (2 * c * b[None, :] - 2 * np.outer(bc, b_b))
    # Y[i,j] = sum_a gc[j,a] (2 <n_i n_j s_a> - <n_i s_a>), closed
    y_ = 2 * (np.outer(n_pop, rw) + n_pop[None, :] * wgcT + m * gcb[None, :]) - wgcT
    yc = gc.T * 2 * (n_pop[:, None] * w.T + m * b[:, None])
    dw = -1.5 * w + 1j * g * w.T + 1j * (x1 - x1c) - 1j * (x2 - x2c) + 1j * (y_ - yc)
    lay._put(dy, "pop_amplitudes", dw[lay.offdiag])

    # dS[i,j] = -S + i (Fs[i,j] + Fs[j,i]) with
    # Fs[i,j] = sum_a gc[i,a] (2 <n_i s_j s_a> - <s_j s_a>), closed
    fs = (2 * (n_pop[:, None] * gcS + gcb[:, None] * w
               + np.outer(rw, b) - 2 * np.outer(n_pop * gcb, b))
          - gcS - 4 * gc * (w * b[None, :] - n_pop[:, None] * b_b[None, :]))
    lay._put(dy, "amp_pairs", (-s + 1j * (fs + fs.T))[lay.iu])
    return ds1, df1.imag


def _triple_terms(ws: _Workspace, y, dy):
    """alpha=3 (incoherent sector): dT and dNNN written into `dy`, and what
    the tracked triple adds to the order-2 closure of S1 and Im F1 in
    `_t_contractions_closed` (full (n, n) matrices).  Call after
    `ws.load(y)`.

    dT[x,i,j] = h[x,i,j] + conj(h[x,j,i]) with h = -T + i K.  Only the
    canonical slots (x distinct from i < j) are read, where T[x,j,i] =
    conj T[x,i,j]; with g = g^T, any term of K may be traded for minus the
    conjugate of its (i, j) transpose.  That groups the terms of K by index
    structure into one N^3 accumulator, stored pair-major like T and, like
    T, over the tracked x < `sites` only:

        K[x,i,j] = -w_i a1[x,i,j]                  a1 = g @ T, one GEMM
                   + (g - 2 n_x g^*)[x,j] T[j,i,x]
                   + C[i,x] B[x,j]
                   + sum_k U_k[x,i] V_k[i,j]       a GEMM batched over i

    with w = 2n - 1.  The (x,j) x (i,j) products of the equation are traded
    for (x,i) x (i,j) ones, which the x x (i,j) products join.  K's term
    -2 g_ij T3 gives 2 Gamma_ij T3 in dT, added on the slots.  dNNN at
    x<y<z is -3 T3 - 2 (q(x;y,z) + q(y;x,z) + q(z;x,y)), with q formed on
    the canonical slots in real arithmetic.  tests/cumulant_reference.py
    keeps the dense formulas this grouping is checked against.

    In the inversion-reduced layout (h = `sites`) the pair level is expanded
    to full C, NN and P once per call.  What the x < h tensors leave out
    follows from the inversion: a2[i,j] = a2[n-1-i, n-1-j] on rows i >= h,
    f1[i,x] = f1[n-1-i, n-1-x] on columns x >= h, T[j,i,x] = T[n-1-j,
    n-1-i, n-1-x] for j >= h, and q at a slot (u; p,r) with u >= h is q at
    the tracked image slot.
    """
    lay = ws.layout
    n, h = lay.n, lay.sites
    g, t, k, s = ws.g, ws.t, ws.k, ws.s
    c, nn, p = lay.expand(ws.c), lay.expand(ws.nn), lay.expand(ws.p)
    ar = np.arange(n)
    pop = lay.expand(y[lay.slices["populations"]])
    dg = np.diagonal(p)
    w = 2 * pop - 1
    nn_cl = np.outer(pop, pop)
    m = nn - 2 * nn_cl                       # <n_p n_q> minus its closure
    gct = g * c.T                            # g[x,i] C[i,x]
    lay.fill_triple_coherences(y, c, nn, ws.t_ext, t)

    # every N^3 array is pair-major over x < h: k[i,j,x] = K[x,i,j],
    # t[i,j,x] = T[x,i,j]
    np.matmul(ws.g_k, ws.t_k.reshape(-1, n * h), out=k.reshape(n, n * h))   # a1
    a2 = k[ar[:h, None], ar[None, :], ar[:h, None]]  # sum_a g[i,a] T[i,a,j]
    f1 = k[ar, ar]                                   # sum_a g[i,a] T[j,a,i]
    if h < n:
        a2 = np.concatenate([a2, a2[::-1, ::-1]])
        f1 = np.concatenate([f1, f1[::-1, ::-1]], axis=1)
    kr = k.view(float).reshape(n, 2 * n * h)
    kr *= -w[:, None]
    # (g[x,j] - 2 n_x g^*[x,j]) T[j,i,x], from T's image where j >= h
    gx = g[:, :h] - 2 * g[:, :h].conj() * pop[None, :h]
    np.multiply(gx[None, :h], t[:, :h].transpose(0, 2, 1), out=s[:, :h])
    if h < n:
        np.multiply(gx[None, h:], t[::-1, ::-1, ::-1][:, :h].transpose(0, 2, 1),
                    out=s[:, h:])
    k += s
    # C[i,x] B[x,j], B = P - g n_j - g^* (w_j + 2 m)
    b = p[:h] - g[:h] * pop[None, :] - g[:h].conj() * (w[None, :] + 2 * m[:h])
    np.multiply(c[:, None, :h], b.T[None, :, :], out=s)
    k += s
    # U[x,i] C[i,j] + (NN - n n^T)[x,i] (2i Gamma_ij n_j - 2 P_ij) + n_x Y[i,j],
    # U = conj(gct) - 2 gct + dg_x, Y = 2 (g NN - a2 + n_i P) - 4 J n_i n_j
    ai, bi = ws.ai, ws.bi
    ai[:, 0, :] = (gct.conj() - 2 * gct + dg[:, None])[:h].T
    ai[:, 1, :] = (nn - nn_cl)[:, :h]
    ai[:, 2, :] = pop[None, :h]
    bi[:, :, 0] = c
    np.multiply(4j * g.imag, pop[None, :], out=bi[:, :, 1])
    bi[:, :, 1] -= 2 * p
    bi[:, :, 2] = 2 * (g * nn - a2 + pop[:, None] * p) - 4 * g.real * nn_cl
    np.matmul(bi, ai, out=s)
    k += s

    # dT = -2 T + i K[x,i,j] - i conj K[x,j,i] + 2 Gamma_ij T3 on the slots
    k_ij = np.take(k, lay.t_ij, out=ws.k_ij, mode="clip")
    k_ji = np.take(k, lay.t_ji, out=ws.k_ji, mode="clip")
    tr, ti = lay._halves(y, "triple_coherences")
    dtr, dti = lay._halves(dy, "triple_coherences")
    t3 = y[lay.slices["triple_populations"]]
    t3_slot = np.take(t3, lay.slot_triple, out=ws.slot_scratch, mode="clip")
    np.multiply(ws.gamma_slot, t3_slot, out=dtr)
    dtr -= tr
    dtr *= 2.0
    dtr -= k_ij.imag
    dtr -= k_ji.imag
    np.subtract(k_ij.real, k_ji.real, out=dti)
    dti -= ti
    dti -= ti

    # q(u; p,r) = n_r E[u,p] + n_p E[u,r] - m_pr (G[u,p] + G[u,r])
    #             - (n_p + n_r) Gamma_pr/2 Tr - (n_p - n_r) J_pr Ti,
    # E = Im F1 - Im(g[u,p] C[p,u]), G = Im(g[u,p] C[p,u]) - Im dg_u / 2,
    # on the slots
    eg = (f1.imag - gct.imag + 1j * (gct.imag - 0.5 * dg.imag[:, None])).T
    e_xi = np.take(eg, lay.slot_xi, out=ws.e_xi, mode="clip")
    e_xj = np.take(eg, lay.slot_xj, out=ws.e_xj, mode="clip")
    n_i, n_j = pop[lay.txyz[1]], pop[lay.txyz[2]]
    q, sc = ws.q, ws.slot_scratch
    np.multiply(e_xi.real, n_j, out=q)
    q += np.multiply(e_xj.real, n_i, out=sc)
    np.add(e_xi.imag, e_xj.imag, out=sc)
    sc *= np.take(m, lay.slot_pair)
    q -= sc
    q -= np.multiply(tr, 0.5 * (n_i + n_j) * ws.gamma_slot, out=sc)
    q -= np.multiply(ti, (n_i - n_j) * ws.j_slot, out=sc)
    s1, s2, s3 = lay.triple_slots
    dt3 = dy[lay.slices["triple_populations"]]
    np.take(ws.q, s1, out=dt3, mode="clip")
    dt3 += np.take(ws.q, s2, mode="clip")
    dt3 += np.take(ws.q, s3, mode="clip")
    dt3 *= -2.0
    dt3 -= 3 * t3

    ds1 = 2 * (a2 - pop[:, None] * p - g * (nn - nn_cl))
    df1i = (f1 - np.outer(dg, pop) - g * (c.T - pop[None, :] * c.T)).imag
    return ds1, df1i


def cumulant_rhs(state: CumulantState, couplings: CouplingMatrices) -> CumulantState:
    """Time derivative of every tracked correlator under the state's closure,
    packed like the state, through a workspace of its own."""
    n = state.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("state and couplings disagree on atom count")
    layout = _Layout(n, state.order)
    if len(state.vector) != layout.size:
        raise ValueError("state vector does not fit its closure order and atom count")
    return CumulantState(state.order, n, _rhs_vector(state.vector, _Workspace(layout, couplings)))


def _rhs_vector(y: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Packed time derivative, in a freshly allocated vector.  The coupling
    contractions are formed once (P = g @ C in the workspace) and handed to
    the order-specific pieces; each block is written straight into its slice."""
    layout = ws.layout
    order = layout.order
    dy = np.empty(layout.size)

    if order.alpha == 1:
        # the pair level closes to C = n on the diagonal, b^* b^T off it, and
        # <n_i s_a> to n_i b_a, so both sums over a reduce to (g^* b)_i
        n_pop = y[layout.slices["populations"]]
        dn = -np.diagonal(ws.couplings.Gamma) * n_pop
        if order.coherent_sector:
            b = layout._get_complex(y, "amplitudes")
            gcb = ws.gc @ b
            layout._put(dy, "amplitudes", -0.5 * b + 1j * (2 * n_pop * gcb - gcb))
            dn += 2 * (b.conj() * gcb).imag
        layout._put(dy, "populations", dn)
        return dy

    ws.load(y)
    ds1 = df1i = None
    if order.coherent_sector:
        ds1, df1i = _coherent_terms(ws, y, dy)
    elif order.alpha == 3:
        ds1, df1i = _triple_terms(ws, y, dy)
    _t_contractions_closed(ws, y, dy, ds1, df1i)
    return dy


def make_time_grid(dense_until: float = 5.0, end: float = 20.0,
                   dense_step: float = 0.05, log_points: int = 40) -> np.ndarray:
    """Uniform grid on [0, min(dense_until, end)] plus a logarithmic tail to
    `end`.  Raises ValueError unless the grid rises strictly to `end`, which
    needs min(dense_until, end) to be a multiple of dense_step."""
    if dense_until <= 0 or dense_step <= 0:
        raise ValueError("dense_until and dense_step must be positive")
    dense_until = min(dense_until, end)
    times = np.arange(0.0, dense_until + dense_step / 2, dense_step)
    if end > dense_until:
        times = np.concatenate([times, np.geomspace(dense_until, end, log_points + 1)[1:]])
    # a dense part that does not end on a multiple of dense_step overlaps
    # the log tail or stops short of (or past) `end`
    if not (np.all(np.diff(times) > 0) and abs(times[-1] - end) <= 1e-9 * max(1.0, end)):
        raise ValueError(f"time grid does not rise strictly to its end {end}; "
                         "min(dense_until, end) must be a multiple of dense_step")
    return times


def _checked_state(y: np.ndarray, layout: _Layout, t: float):
    """The blow-up guards on the packed state; returns (populations, excess).

    Raises ClosureBlowupError for non-finite values, correlator magnitudes
    above CORRELATOR_LIMIT, or populations outside [0, 1] by more than
    POPULATION_HARD_TOL.  Smaller excursions are the caller's to clamp.  The
    populations are a view of `y`.
    """
    if not np.all(np.isfinite(y)):
        raise ClosureBlowupError(f"non-finite correlator at t = {t:.6g}", t)
    worst = np.abs(y).max()
    if worst > CORRELATOR_LIMIT:
        raise ClosureBlowupError(
            f"correlator magnitude {worst:.3g} exceeds "
            f"{CORRELATOR_LIMIT} at t = {t:.6g}", t)
    pop = y[layout.slices["populations"]]
    excess = max(float(-pop.min()), float(pop.max() - 1.0))
    if excess > POPULATION_HARD_TOL:
        raise ClosureBlowupError(
            f"population outside [0, 1] by {excess:.3g} at t = {t:.6g}", t)
    return pop, excess


def evolve_cumulant(init: InitialStateSpec, array: AtomArray,
                    couplings: CouplingMatrices, order: ClosureOrder, times,
                    *, rtol: float = 1e-7, atol: float = 1e-9,
                    snapshot_times=None) -> ObservableTrace:
    """Integrate the closed moment equations, streaming observables at `times`.

    Aborts with ClosureBlowupError when the closure leaves the physical
    region: any tracked |correlator| above CORRELATOR_LIMIT, a population
    outside [0, 1] by more than POPULATION_HARD_TOL, a negative emission rate
    beyond float tolerance for incoherent initial states, or non-finite
    values.  Smaller population excursions are clipped to [0, 1] in the
    recorded output (never fed back into the integrator state); those beyond
    POPULATION_SOFT_TOL are also counted in `clamped_points` and logged at
    WARNING.  The solve works on the packed state throughout: the
    recorder reads the populations and the pair level straight from it, and
    expands them to all n atoms when the solve runs on the inversion-reduced
    layout (`_inversion_half`), so the guards, trace and snapshots are those
    of the full state.  One INFO line names the layout and its size.
    """
    n = array.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("array and couplings disagree on atom count")
    layout = _Layout(n, order, _inversion_half(couplings, order))
    logger.info("cumulant solve on the %s layout, %d packed entries",
                "full" if layout.half is None
                else f"inversion-reduced (h = {layout.half})", layout.size)
    y0 = _product_start(init, array, layout)
    gamma = couplings.Gamma
    ws = _Workspace(layout, couplings)

    clamped = 0
    rate_floor = RATE_FLOOR_PER_ATOM * n
    if order.alpha >= 2:
        c, nn = np.empty(layout.dense, dtype=complex), np.empty(layout.dense)
        pair = np.empty(len(layout.ij), dtype=complex)

    def observe(t: float, y: np.ndarray, snapshot: bool):
        nonlocal clamped
        pop, excess = _checked_state(y, layout, t)
        if excess > POPULATION_SOFT_TOL:
            clamped += 1
            logger.warning("clamping population excursion %.3g at t = %.6g",
                           excess, t)
        pop = layout.expand(np.clip(pop, 0.0, 1.0))
        if order.alpha == 1:  # <s_i^dag><s_j> off the diagonal, n on it
            b = (layout._get_complex(y, "amplitudes") if order.coherent_sector
                 else np.zeros(n, dtype=complex))
            coherences = np.outer(b.conj(), b)
            np.fill_diagonal(coherences, pop)
        else:
            layout.fill_pair_level(y, c, pair, nn if snapshot else None)
            coherences = layout.expand(c)
        pairs = layout.expand(nn) if snapshot and order.alpha > 1 else None
        row, snap = observation(pop, coherences, pairs, gamma, array.atom_rc, snapshot)
        if not init.coherent and row["emission_rate"] < rate_floor:
            raise ClosureBlowupError(
                f"negative emission rate {row['emission_rate']:.3g} at t = {t:.6g} "
                "(closure breakdown)", t)
        return row, snap

    times, series, snapshots = integrate_on_grid(
        DOP853, lambda _t, v: _rhs_vector(v, ws), y0, times, observe, rtol=rtol,
        atol=atol, snapshot_times=snapshot_times)
    return ObservableTrace(times=times, n_atoms=float(n), snapshots=snapshots,
                           clamped_points=clamped, jump_rates=(couplings.jump_rates,),
                           **series)
