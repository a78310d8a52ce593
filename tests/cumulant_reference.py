"""The complex-arithmetic alpha >= 2 RHS that the real pair-level assembly
in `dipolarray.cumulant` replaced, kept as a reference for it.

`reference_rhs_vector(y, layout, couplings)` returns the packed derivative
the way the earlier kernel formed it: S1 and F1 as full complex matrices
(with alpha=3's from the slot-filled triple), dC mirrored from -i S1 and dNN
from Im F1.  Unchanged pieces (`_coherent_rhs`, the layout) are imported.
"""

import numpy as np

from dipolarray.cumulant import _coherent_rhs


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
    state = layout.unpack(y)
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
