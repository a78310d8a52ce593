"""The dense cumulant state and the complex-arithmetic RHS that the packed
kernels in `dipolarray.cumulant` replaced, kept as references for them.

`DenseState` holds every tracked correlator as a full tensor, with the
aliased slots filled; `pack` and `unpack` convert between it and the packed
vector of a `_Layout`, inversion-reduced or not, and
`dense_rhs` evaluates the package's RHS on it.

`reference_rhs_vector(y, layout, couplings)` returns the packed derivative
the way the earlier kernel formed it: S1 and F1 as full complex matrices
(with alpha=3's from the slot-filled triple), dC mirrored from -i S1 and dNN
from Im F1, and the coherent sector's dW and dS through `_coherent_rhs`.
Every formula is kept here, frozen; only the layout (and, for `dense_rhs`,
the package's RHS) is imported.
"""

from dataclasses import dataclass

import numpy as np

from dipolarray.cumulant import ClosureOrder, _Layout, _rhs_vector, _Workspace


@dataclass
class DenseState:
    """Tracked correlators as full tensors with aliased slots kept consistent.

    coherences has the populations on its diagonal; triple tensors carry the
    two-atom values on coincident slots (e.g. triple_coherences[x, x, j] =
    coherences[x, j]).  Only the independent entries are packed, so
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


def pack(layout, state):
    """The packed vector of the independent entries of `state` (which must be
    inversion-symmetric when `layout` is reduced)."""
    y = np.empty(layout.size)
    layout._put(y, "populations", state.populations[:layout.sites])
    if layout.order.alpha >= 2:
        layout._put(y, "coherences", np.take(layout.blocks(state.coherences), layout.ij))
        layout._put(y, "pair_populations",
                    np.take(layout.blocks(state.pair_populations.real), layout.ij))
    if layout.order.alpha == 3:
        layout._put(y, "triple_coherences", state.triple_coherences[layout.txyz])
        layout._put(y, "triple_populations", state.triple_populations[layout.xyz].real)
    if layout.order.coherent_sector:
        layout._put(y, "amplitudes", state.amplitudes)
        if layout.order.alpha >= 2:
            layout._put(y, "pop_amplitudes", state.pop_amplitudes[layout.offdiag])
            layout._put(y, "amp_pairs", state.amp_pairs[layout.iu])
    return y


def _triple_populations(layout, y, nn):
    """The dense T3[x,y,z] = <n_x n_y n_z>: the x<y<z value on each of its
    six permutations (and on those of its inversion image, in the reduced
    layout), NN of the two distinct atoms on coincident indices."""
    n = layout.n
    a, b, c = layout.xyz
    t3 = np.empty((n, n, n))
    images = [(a, b, c)] + ([(n - 1 - c, n - 1 - b, n - 1 - a)]
                            if layout.half is not None else [])
    for u, v, z in images:
        for perm in ((u, v, z), (u, z, v), (v, u, z), (v, z, u), (z, u, v), (z, v, u)):
            t3[perm] = y[layout.slices["triple_populations"]]
    ar = np.arange(n)
    for fix in ((ar, ar, slice(None)), (ar, slice(None), ar), (slice(None), ar, ar)):
        t3[fix] = nn
    return t3


def unpack(layout, y):
    """The dense state of the packed `y`, over all atoms also when `layout`
    is inversion-reduced; the triple coherences are filled through the
    package's own aliasing map (`fill_triple_coherences`)."""
    n = layout.n
    state = DenseState(order=layout.order,
                       populations=layout.expand(y[layout.slices["populations"]].copy()))
    if layout.order.alpha >= 2:
        c = np.empty(layout.dense, dtype=complex)
        nn = np.empty(layout.dense)
        layout.fill_pair_level(y, c, np.empty(len(layout.ij), dtype=complex), nn)
        c, nn = layout.expand(c), layout.expand(nn)
        state.coherences, state.pair_populations = c, nn
    if layout.order.alpha == 3:
        pair_major = layout.fill_triple_coherences(
            y, c, nn, np.empty(layout.t_ext_size, dtype=complex),
            np.empty((n, n, layout.sites), dtype=complex))
        t = np.ascontiguousarray(pair_major.transpose(2, 0, 1))
        if layout.half is not None:  # T[x,i,j] = T[n-1-x, n-1-i, n-1-j]
            t = np.concatenate([t, t[::-1, ::-1, ::-1]])
        state.triple_coherences = t
        state.triple_populations = _triple_populations(layout, y, nn)
    if layout.order.coherent_sector:
        state.amplitudes = layout._get_complex(y, "amplitudes")
        if layout.order.alpha >= 2:
            w = np.zeros((n, n), dtype=complex)
            w[layout.offdiag] = layout._get_complex(y, "pop_amplitudes")
            s = np.zeros((n, n), dtype=complex)
            s[layout.iu] = layout._get_complex(y, "amp_pairs")
            s += s.T
            state.pop_amplitudes, state.amp_pairs = w, s
    return state


def dense_rhs(state, couplings):
    """The package's packed RHS evaluated on a dense state, unpacked."""
    layout = _Layout(state.n_atoms, state.order)
    return unpack(layout, _rhs_vector(pack(layout, state), _Workspace(layout, couplings)))


def _coupling_terms(couplings):
    g = couplings.J + 0.5j * couplings.Gamma
    np.fill_diagonal(g, 0)
    return g, g.conj()


def _t_contractions_closed(n_pop, c, nn, g, gC, dg, amp=None):
    """The two <n_x s^dag s> contractions entering dC and dNN, with the
    triple closed at order 2; `amp` carries the coherent-sector contractions:

        S1[i,j] = sum_a g[i,a] (2 T[i,a,j] - C[a,j])
        F1[i,j] = sum_a g[i,a] T[j,a,i]
    """
    # closure value of the pair slot T[i,j,j]
    pair_cf = np.outer(n_pop, n_pop)
    s1 = n_pop[:, None] * gC
    f1 = np.outer(dg, n_pop)
    if amp is None:
        f1 = f1 + g * (c.T - n_pop[None, :] * c.T)
    else:
        b, bc, w, gbc, _, _ = amp
        wc = w.conj()
        pair_cf = (pair_cf + wc * b[None, :] + w * bc[None, :]
                   - 2 * n_pop[:, None] * (np.abs(b) ** 2)[None, :])
        s1 = (s1 + np.outer((g * wc).sum(axis=1), b)
              + w * gbc[:, None]
              - 2 * n_pop[:, None] * gbc[:, None] * b[None, :])
        f1 = (f1 + b[:, None] * (g @ wc.T)
              + w.T * gbc[:, None]
              - 2 * np.outer(b * gbc, n_pop)
              + g * (c.T - n_pop[None, :] * c.T - w.T * bc[None, :]
                     + 2 * n_pop[None, :] * bc[None, :] * b[:, None]))
    s1 = 2 * (s1 + g * (nn - pair_cf)) - gC
    return s1, f1


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


def _order3_rhs(state, layout, g, gC, dg):
    """S1 and F1 with the tracked (slot-filled) triple, and dT and dNNN on
    the canonical index arrays."""
    n_pop = state.populations
    c = state.coherences
    nn = state.pair_populations
    t = state.triple_coherences
    t3 = state.triple_populations

    ar = np.arange(len(n_pop))
    a1 = g @ t
    a2 = a1[ar, ar]
    f1 = a1[:, ar, ar].T
    nx, ni, nj = n_pop[:, None, None], n_pop[None, :, None], n_pop[None, None, :]
    m = nn - 2 * n_pop[:, None] * n_pop[None, :]
    mxi = m[:, :, None]
    c_ij, c_xj = c[None, :, :], c[:, None, :]
    c_ix, c_jx = c.T[:, :, None], c.T[:, None, :]
    t_ixj = t.transpose(1, 0, 2)
    t_jix = t.transpose(2, 1, 0)
    h = -t + 1j * (
        g[:, None, :] * (t_jix - c_jx * c_ij - nj * c_ix)
        + g[:, :, None] * (2 * (ni * c_xj + nx * t_ixj + mxi * c_xj - c_ix * c_ij) - c_xj)
        + 2 * g[None, :, :] * (ni * nn[:, None, :] + nx * nn[None, :, :] + mxi * nj - t3)
        + dg[:, None, None] * c_ij + gC[:, None, :] * c_ix
        + a1 - 2 * (ni * a1 + nx * a2[None, :, :] + mxi * gC[None, :, :]))
    dt = (h + h.conj().transpose(0, 2, 1))[layout.txyz]
    half = (nj * f1[:, :, None]
            - g[:, :, None] * (nj * c_ix + ni * t_jix + m[None, :, :] * c_ix)).imag
    q = half + half.transpose(0, 2, 1) + m[None, :, :] * dg.imag[:, None, None]
    dt3 = (-3 * t3 - 2 * (q + q.transpose(1, 0, 2) + q.transpose(1, 2, 0)))[layout.xyz]
    return 2 * a2 - gC, f1, dt, dt3


def reference_rhs_vector(y, layout, couplings):
    """Packed time derivative at alpha >= 2, in complex full-matrix arithmetic."""
    order = layout.order
    if order.alpha < 2:
        raise ValueError("the reference covers alpha >= 2 only")
    g, gc = _coupling_terms(couplings)
    state = unpack(layout, y)
    n_pop = state.populations
    dy = np.empty(layout.size)
    c = state.coherences
    dn = 2 * (couplings.J * c.imag).sum(axis=1) - (couplings.Gamma * c.real).sum(axis=1)
    layout._put(dy, "populations", dn)
    nn = state.pair_populations
    gC = g @ c
    dg = np.diagonal(gC)
    amp = None
    if order.coherent_sector:
        b = state.amplitudes
        w = state.pop_amplitudes
        gcb = gc @ b
        rw = (gc * w).sum(axis=1)
        layout._put(dy, "amplitudes", -0.5 * b + 1j * (2 * rw - gcb))
        amp = (b, b.conj(), w, g @ b.conj(), gcb, rw)
    if order.alpha == 2:
        s1, f1 = _t_contractions_closed(n_pop, c, nn, g, gC, dg, amp)
    else:
        s1, f1, dt, dt3 = _order3_rhs(state, layout, g, gC, dg)
        layout._put(dy, "triple_coherences", dt)
        layout._put(dy, "triple_populations", dt3)
    k = -1j * s1
    dc = -c + k + k.conj().T
    gci = (g * c).imag
    dnn = -2 * nn - 2 * (f1.imag + f1.imag.T) + 2 * (gci + gci.T)
    layout._put(dy, "coherences", dc[layout.iu])
    layout._put(dy, "pair_populations", dnn[layout.iu])
    if amp is not None:
        dw, ds = _coherent_rhs(n_pop, c, nn, state.amp_pairs, g, gc, gC, dg, amp)
        layout._put(dy, "pop_amplitudes", dw[layout.offdiag])
        layout._put(dy, "amp_pairs", ds[layout.iu])
    return dy
