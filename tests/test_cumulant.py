"""Cumulant solver: RHS algebra, closure exactness, blow-up guards, ensembles."""

import dataclasses
from itertools import combinations
from math import comb

import numpy as np
import pytest

from dipolarray import cumulant
from dipolarray.config import RunConfig
from dipolarray.couplings import CouplingMatrices, MotionSpec, coupling_matrices
from dipolarray.cumulant import (
    ClosureBlowupError,
    ClosureOrder,
    CumulantState,
    ObservableTrace,
    _checked_state,
    _Layout,
    _rhs_vector,
    _Workspace,
    cumulant_rhs,
    evolve_cumulant,
    initial_cumulant_state,
    make_time_grid,
)
from dipolarray.exact import InitialStateSpec, evolve_exact, initial_density_matrix
from dipolarray.geometry import DisorderSpec, LatticeSpec, build_array
from dipolarray.runner import ensemble_run
from dipolarray.seeding import STREAM_ENSEMBLE, derive_seed

from cumulant_reference import DenseState, dense_rhs, pack, reference_rhs_vector, unpack
from moment_algebra import closed_rhs, moments_from_density
from readout import observables_exact
from starts import pulse
from test_moment_algebra import random_density


def _sorted_ops(*ops):
    return tuple(sorted(ops, key=lambda ak: ak[0]))


def state_from_density(rho, order):
    """Tracked correlators extracted from a density matrix."""
    n = rho.shape[0].bit_length() - 1
    mom = moments_from_density(rho)
    pop = np.array([mom(((i, "n"),)).real for i in range(n)])
    state = DenseState(order=order, populations=pop)
    if order.alpha >= 2:
        c = np.zeros((n, n), dtype=complex)
        nn = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    c[i, j] = mom(_sorted_ops((i, "sp"), (j, "sm")))
                    nn[i, j] = mom(_sorted_ops((i, "n"), (j, "n"))).real
        np.fill_diagonal(c, pop)
        np.fill_diagonal(nn, pop)
        state.coherences, state.pair_populations = c, nn
    if order.alpha == 3:
        t = np.zeros((n, n, n), dtype=complex)
        t3 = np.zeros((n, n, n))
        for x in range(n):
            for i in range(n):
                for j in range(n):
                    if len({x, i, j}) == 3:
                        t[x, i, j] = mom(_sorted_ops((x, "n"), (i, "sp"), (j, "sm")))
                        t3[x, i, j] = mom(_sorted_ops((x, "n"), (i, "n"), (j, "n"))).real
        ar = np.arange(n)
        t[ar, ar, :] = state.coherences
        t[ar, :, ar] = 0
        t[:, ar, ar] = state.pair_populations
        for fix in ((ar, ar, slice(None)), (ar, slice(None), ar),
                    (slice(None), ar, ar)):
            t3[fix] = state.pair_populations
        state.triple_coherences, state.triple_populations = t, t3
    if order.coherent_sector:
        state.amplitudes = np.array([mom(((i, "sm"),)) for i in range(n)])
        w = np.zeros((n, n), dtype=complex)
        smat = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i != j:
                    w[i, j] = mom(_sorted_ops((i, "n"), (j, "sm")))
                    smat[i, j] = mom(_sorted_ops((i, "sm"), (j, "sm")))
        if order.alpha >= 2:
            state.pop_amplitudes, state.amp_pairs = w, smat
    return state


SECTORS = [ClosureOrder(1, False), ClosureOrder(1, True),
           ClosureOrder(2, False), ClosureOrder(2, True),
           ClosureOrder(3, False)]


@pytest.mark.parametrize("order", SECTORS, ids=lambda o: f"a{o.alpha}{'c' if o.coherent_sector else 'i'}")
@pytest.mark.parametrize("rows,cols,seed", [(1, 4, 0), (1, 5, 1), (2, 3, 2)],
                         ids=["4-0", "5-1", "2x3-2"])
def test_rhs_matches_symbolic_engine(order, rows, cols, seed):
    """Every tracked derivative must equal the symbolic closure, entry by entry."""
    n_atoms = rows * cols
    arr = build_array(LatticeSpec(rows, cols, 0.34), seed=0)
    cm = coupling_matrices(arr)
    rho = random_density(n_atoms, seed, u1_symmetric=not order.coherent_sector)
    mom = moments_from_density(rho)
    state = state_from_density(rho, order)
    d = dense_rhs(state, cm)

    def want(*ops):
        return closed_rhs(_sorted_ops(*ops), cm.J, cm.Gamma, mom, order.alpha)

    for i in range(n_atoms):
        assert abs(d.populations[i] - want((i, "n")).real) < 1e-10
    if order.alpha >= 2:
        for i in range(n_atoms):
            for j in range(i + 1, n_atoms):
                assert abs(d.coherences[i, j] - want((i, "sp"), (j, "sm"))) < 1e-10
                assert abs(d.pair_populations[i, j]
                           - want((i, "n"), (j, "n")).real) < 1e-10
    if order.alpha == 3:
        for x in range(n_atoms):
            for i in range(n_atoms):
                for j in range(i + 1, n_atoms):
                    if x not in (i, j):
                        got = d.triple_coherences[x, i, j]
                        assert abs(got - want((x, "n"), (i, "sp"), (j, "sm"))) < 1e-10
        for x in range(n_atoms):
            for y in range(x + 1, n_atoms):
                for z in range(y + 1, n_atoms):
                    got = d.triple_populations[x, y, z]
                    assert abs(got - want((x, "n"), (y, "n"), (z, "n")).real) < 1e-10
    if order.coherent_sector:
        for i in range(n_atoms):
            assert abs(d.amplitudes[i] - want((i, "sm"))) < 1e-10
        if order.alpha >= 2:
            for i in range(n_atoms):
                for j in range(n_atoms):
                    if i != j:
                        assert abs(d.pop_amplitudes[i, j]
                                   - want((i, "n"), (j, "sm"))) < 1e-10
            for i in range(n_atoms):
                for j in range(i + 1, n_atoms):
                    assert abs(d.amp_pairs[i, j]
                               - want((i, "sm"), (j, "sm"))) < 1e-10


@pytest.mark.parametrize("order", SECTORS, ids=lambda o: f"a{o.alpha}{'c' if o.coherent_sector else 'i'}")
def test_flux_identity_structural(order):
    """dN_e/dt = -sum_ij Gamma_ij <s_i^dag s_j> at random states to 1e-12."""
    n_atoms = 5
    arr = build_array(LatticeSpec(1, n_atoms, 0.42), seed=0)
    cm = coupling_matrices(arr)
    rho = random_density(n_atoms, 7, u1_symmetric=not order.coherent_sector)
    state = state_from_density(rho, order)
    d = dense_rhs(state, cm)
    if order.alpha == 1:
        b = state.amplitudes if order.coherent_sector else np.zeros(n_atoms, complex)
        c = np.outer(b.conj(), b)
        np.fill_diagonal(c, state.populations)
    else:
        c = state.coherences
    rate = (cm.Gamma * c.real).sum()
    assert abs(d.populations.sum() + rate) < 1e-12


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("n_atoms", [3, 5])
def test_incoherent_sector_equals_coherent_at_zero_amplitudes(alpha, n_atoms):
    """The incoherent RHS leaves out every amplitude term; the coherent RHS
    at zero amplitudes must give exactly the same derivatives and keep the
    amplitude blocks at zero."""
    n = n_atoms
    cm = coupling_matrices(build_array(LatticeSpec(1, n, 0.38), seed=0))
    layout = _Layout(n, ClosureOrder(alpha, False))
    inc = unpack(layout, np.random.default_rng(10 * alpha + n).uniform(-0.5, 0.5, layout.size))
    zeros = np.zeros((n, n), dtype=complex) if alpha == 2 else None
    coh = DenseState(order=ClosureOrder(alpha, True), populations=inc.populations,
                     coherences=inc.coherences, pair_populations=inc.pair_populations,
                     amplitudes=np.zeros(n, dtype=complex),
                     pop_amplitudes=zeros, amp_pairs=zeros)
    d_inc = dense_rhs(inc, cm)
    d_coh = dense_rhs(coh, cm)
    np.testing.assert_array_equal(d_coh.populations, d_inc.populations)
    np.testing.assert_array_equal(d_coh.amplitudes, 0)
    if alpha == 2:
        np.testing.assert_array_equal(d_coh.coherences, d_inc.coherences)
        np.testing.assert_array_equal(d_coh.pair_populations, d_inc.pair_populations)
        np.testing.assert_array_equal(d_coh.pop_amplitudes, 0)
        np.testing.assert_array_equal(d_coh.amp_pairs, 0)


@pytest.mark.parametrize("order,rows,cols,fill", [
    (ClosureOrder(2, False), 1, 7, 1.0), (ClosureOrder(2, False), 5, 8, 1.0),
    (ClosureOrder(2, True), 1, 7, 1.0), (ClosureOrder(2, True), 5, 8, 1.0),
    (ClosureOrder(3, False), 1, 7, 1.0), (ClosureOrder(3, False), 6, 6, 1.0),
    (ClosureOrder(3, False), 3, 4, 0.8)],
    ids=["a2i-7", "a2i-40", "a2c-7", "a2c-40", "a3i-7", "a3i-36", "a3i-3x4-p08"])
def test_rhs_matches_complex_reference(order, rows, cols, fill):
    """The real pair-level assembly and the grouped alpha=3 kernel reproduce
    the earlier complex-arithmetic formulas (tests/cumulant_reference.py)
    block by block, to 1e-12 relative to each block's largest entry, on a
    random packed state; a partly loaded lattice has no translation
    symmetry to hide an index mix-up behind."""
    arr = build_array(LatticeSpec(rows, cols, 0.3, fill_probability=fill), seed=0)
    n = arr.n_atoms
    cm = coupling_matrices(arr)
    layout = _Layout(n, order)
    y = np.random.default_rng(n).uniform(-0.5, 0.5, layout.size)
    got = _rhs_vector(y, _Workspace(layout, cm))
    want = reference_rhs_vector(y, layout, cm)
    for name, sl in layout.slices.items():
        scale = np.abs(want[sl]).max()
        assert np.abs(got[sl] - want[sl]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("rows,cols,alpha", [(2, 4, 2), (4, 4, 2), (4, 6, 2),
                                              (2, 4, 3), (4, 4, 3), (6, 6, 3)],
                         ids=["2-4", "4-4", "4-6", "a3-2-4", "a3-4-4", "a3-6-6"])
def test_reduced_rhs_matches_full_rhs(rows, cols, alpha):
    """On random inversion-symmetric states the reduced derivative, expanded
    to all atoms, is the full layout's derivative to 1e-12 relative per
    block, which carries the full kernel's checks against
    `moment_algebra.closed_rhs` over to the reduced path.  The Y diagonal's
    imaginary part stays exactly zero.  At alpha=3 the reduced layout holds
    half the triple slots and triples, and a packed state round-trips
    through its full-size expansion."""
    arr = build_array(LatticeSpec(rows, cols, 0.3), seed=0)
    n = arr.n_atoms
    cm = coupling_matrices(arr)
    order = ClosureOrder(alpha, False)
    half = cumulant._inversion_half(cm, order)
    assert half == n // 2
    reduced, full = _Layout(n, order, half), _Layout(n, order)
    triples = 0 if alpha == 2 else comb(n, 2) * (n - 2) + comb(n, 3) // 2
    assert reduced.size == half + 3 * half * half + triples
    y = np.random.default_rng(n).uniform(-0.5, 0.5, reduced.size)
    i, k = reduced.iu
    # the Y diagonal C[i, n-1-i] is real, by inversion symmetry and Hermiticity
    reduced._halves(y, "coherences")[1][i == k] = 0.0
    assert np.array_equal(pack(reduced, unpack(reduced, y)), y)
    d = _rhs_vector(y, _Workspace(reduced, cm))
    got = pack(full, unpack(reduced, d))
    want = _rhs_vector(pack(full, unpack(reduced, y)), _Workspace(full, cm))
    for name, sl in full.slices.items():
        scale = np.abs(want[sl]).max()
        assert np.abs(got[sl] - want[sl]).max() <= 1e-12 * scale, name
    assert np.all(reduced._halves(d, "coherences")[1][i == k] == 0.0)


@pytest.mark.parametrize("rows,cols,alpha", [(2, 4, 2), (4, 4, 2), (6, 6, 2),
                                              (4, 4, 3), (6, 6, 3)],
                         ids=["2-4", "4-4", "6-6", "a3-4-4", "a3-6-6"])
@pytest.mark.parametrize("init", [InitialStateSpec(1.0),
                                  InitialStateSpec(0.5)],
                         ids=["inverted", "p05"])
def test_reduced_solve_matches_full_solve(rows, cols, alpha, init, monkeypatch):
    """A solve on the inversion-reduced layout agrees with the same solve
    forced onto the full layout within 10 (rtol |x| + atol): the trace,
    the populations and the snapshot pair level, all over the full array."""
    arr = build_array(LatticeSpec(rows, cols, 0.316), seed=0)
    cm = coupling_matrices(arr)
    order = ClosureOrder(alpha, False)
    t = np.linspace(0.0, 3.0, 31)
    rtol, atol = 1e-7, 1e-9
    solve = dict(rtol=rtol, atol=atol, snapshot_times=[0.5, 1.0])
    assert cumulant._inversion_half(cm, order) == arr.n_atoms // 2
    reduced = evolve_cumulant(init, arr, cm, order, t, **solve)
    monkeypatch.setattr(cumulant, "_inversion_half", lambda couplings, order: None)
    full = evolve_cumulant(init, arr, cm, order, t, **solve)

    def close(got, want, what):
        assert got.shape == want.shape, what
        assert np.all(np.abs(got - want) <= 10 * (rtol * np.abs(want) + atol)), what

    for name in ("n_excited", "emission_rate", "populations"):
        close(getattr(reduced, name), getattr(full, name), name)
    assert reduced.snapshots.keys() == full.snapshots.keys() == {0.5, 1.0}
    for when, snap in reduced.snapshots.items():
        assert snap.keys() == full.snapshots[when].keys()
        for key in ("populations", "coherences", "pair_populations"):
            close(snap[key], full.snapshots[when][key], f"{key} at {when}")


def test_inversion_half_refuses_what_breaks_the_symmetry():
    """The reduced layout is taken only for the incoherent sector at alpha =
    2 or 3 with an even atom count and couplings that commute with the
    inversion: a clean 2x4 array qualifies, and every case below is refused."""
    a2 = ClosureOrder(2, False)
    clean = build_array(LatticeSpec(2, 4, 0.3), seed=0)
    cm = coupling_matrices(clean)
    assert cumulant._inversion_half(cm, a2) == 4
    assert cumulant._inversion_half(cm, ClosureOrder(3, False)) == 4
    for order in (ClosureOrder(2, True), ClosureOrder(1, False)):
        assert cumulant._inversion_half(cm, order) is None, order
    odd = build_array(LatticeSpec(3, 3, 0.3), seed=0)
    disordered = build_array(LatticeSpec(2, 4, 0.3), DisorderSpec(0.02), seed=1)
    square = build_array(LatticeSpec(3, 3, 0.3), seed=0)
    one_empty = dataclasses.replace(square, occupied=np.arange(9) != 0)
    assert one_empty.n_atoms == 8
    for arr in (odd, disordered, one_empty):
        assert cumulant._inversion_half(coupling_matrices(arr), a2) is None
    moving = coupling_matrices(clean, MotionSpec(samples=2000, seed=3))
    assert cumulant._inversion_half(moving, a2) is None
    J = cm.J.copy()
    J[0, 1] += 1e-9
    J[1, 0] += 1e-9
    assert cumulant._inversion_half(CouplingMatrices(J=J, Gamma=cm.Gamma), a2) is None


@pytest.mark.parametrize("rows,cols,layout", [
    (2, 4, "inversion-reduced (h = 4) layout, 52 packed entries"),
    (3, 3, "full layout, 117 packed entries")], ids=["2x4", "3x3"])
def test_solve_logs_its_layout(rows, cols, layout, caplog):
    arr = build_array(LatticeSpec(rows, cols, 0.3), seed=0)
    with caplog.at_level("INFO", logger="dipolarray.cumulant"):
        evolve_cumulant(InitialStateSpec(1.0), arr, coupling_matrices(arr),
                        ClosureOrder(2, False), [0.0, 0.1])
    lines = [r.getMessage() for r in caplog.records if r.name == "dipolarray.cumulant"]
    assert lines == [f"cumulant solve on the {layout}"]


def _capture_solve(monkeypatch, init, arr, cm, order):
    """Run a short solve and return the RHS and start vector it handed DOP853."""
    captured = []

    class Capturing(cumulant.DOP853):
        def __init__(self, fun, t0, y0, *args, **kwargs):
            captured.append((fun, y0.copy()))
            super().__init__(fun, t0, y0, *args, **kwargs)

    monkeypatch.setattr(cumulant, "DOP853", Capturing)
    evolve_cumulant(init, arr, cm, order, [0.0, 0.1])
    return captured[0]


def _assert_fresh(rhs, size, fresh):
    """Two calls of the solve's RHS return separate arrays, the first left
    as it was by the second, each equal to `fresh(y)`."""
    y1, y2 = np.random.default_rng(3).uniform(-0.5, 0.5, (2, size))
    d1 = rhs(0.0, y1)
    kept = d1.copy()
    d2 = rhs(0.0, y2)
    assert not np.shares_memory(d1, d2)
    np.testing.assert_array_equal(d1, kept)
    np.testing.assert_array_equal(d1, fresh(y1))
    np.testing.assert_array_equal(d2, fresh(y2))


@pytest.mark.parametrize("order", SECTORS[2:], ids=lambda o: f"a{o.alpha}{'c' if o.coherent_sector else 'i'}")
def test_solve_rhs_returns_fresh_derivatives(order, monkeypatch):
    """The solve's RHS reuses one workspace across calls, but every
    derivative it returns is its own array: DOP853 keeps its stage vectors
    and last derivative, so a later call must leave an earlier result as it
    was, equal to a fresh `cumulant_rhs` evaluation.  The solve also starts
    from `initial_cumulant_state`'s vector: the entry points perfbench times
    are the ones the solve runs, bit for bit.  The odd-N 3x3 array takes the
    full layout in every sector, alpha=2 incoherent included."""
    arr = build_array(LatticeSpec(3, 3, 0.3), seed=0)
    cm = coupling_matrices(arr)
    assert cumulant._inversion_half(cm, order) is None
    init = pulse(np.pi / 2) if order.coherent_sector else InitialStateSpec(1.0)
    rhs, y0 = _capture_solve(monkeypatch, init, arr, cm, order)
    n = arr.n_atoms
    np.testing.assert_array_equal(y0, initial_cumulant_state(init, arr, order).to_vector())
    _assert_fresh(rhs, _Layout(n, order).size,
                  lambda y: cumulant_rhs(CumulantState(order, n, y), cm).to_vector())


def test_reduced_solve_rhs_returns_fresh_derivatives(monkeypatch):
    """The same on the inversion-reduced layout the clean 2x3 array takes at
    alpha=2 in the incoherent sector: the solve starts from `_product_start`
    of that layout and returns fresh derivatives equal to `_rhs_vector` on a
    new workspace."""
    order = ClosureOrder(2, False)
    arr = build_array(LatticeSpec(2, 3, 0.3), seed=0)
    cm = coupling_matrices(arr)
    init = InitialStateSpec(1.0)
    rhs, y0 = _capture_solve(monkeypatch, init, arr, cm, order)
    layout = _Layout(arr.n_atoms, order, cumulant._inversion_half(cm, order))
    assert layout.half == 3
    np.testing.assert_array_equal(y0, cumulant._product_start(init, arr, layout))
    _assert_fresh(rhs, layout.size, lambda y: _rhs_vector(y, _Workspace(layout, cm)))


@pytest.mark.parametrize("init", [
    InitialStateSpec(1.0),
    InitialStateSpec(0.3),
    pulse(1.1, phase_offset=0.4),
    pulse(1.1, k_laser=(np.cos(0.26), np.sin(0.26), 0.0), phase_offset=0.4),
], ids=["inverted", "p03", "uniform_pulse", "beam_pulse"])
def test_exact_and_cumulant_start_from_the_same_product_state(init):
    """Both solvers read one start rule: the moments of the exact rho(0)
    equal the alpha=2 cumulant start, expanded to all atoms (the incoherent
    starts take the inversion-reduced layout on this clean 2x3 array).  The
    beam, about 15 degrees off the rows, gives every atom its own phase."""
    arr = build_array(LatticeSpec(2, 3, 0.3), seed=0)
    cm = coupling_matrices(arr)
    order = ClosureOrder(2, init.coherent)
    layout = _Layout(arr.n_atoms, order, cumulant._inversion_half(cm, order))
    assert (layout.half is None) == init.coherent
    start = unpack(layout, cumulant._product_start(init, arr, layout))
    rho0 = observables_exact(initial_density_matrix(init, arr), cm)
    for key in ("populations", "coherences", "pair_populations"):
        np.testing.assert_allclose(getattr(start, key), rho0[key], rtol=0, atol=1e-15,
                                   err_msg=key)


@pytest.mark.parametrize("order", SECTORS, ids=lambda o: f"a{o.alpha}{'c' if o.coherent_sector else 'i'}")
@pytest.mark.parametrize("n_atoms", [3, 4, 5])
def test_packed_layout_size_order_and_roundtrip(order, n_atoms):
    """The packed vector's length and slot order are fixed: runs stay
    byte-identical only while both are."""
    n = n_atoms
    layout = _Layout(n, order)
    pairs = comb(n, 2)
    size = n
    if order.alpha >= 2:
        size += 3 * pairs
    if order.alpha == 3:
        size += 2 * pairs * (n - 2) + comb(n, 3)
    if order.coherent_sector:
        size += 2 * n + (2 * n * (n - 1) + 2 * pairs if order.alpha >= 2 else 0)
    assert layout.size == size
    if order.alpha == 3:
        txyz = [(x, i, j) for i in range(n) for j in range(i + 1, n)
                for x in range(n) if x not in (i, j)]
        for got, want in zip(layout.txyz, np.array(txyz).T):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(layout.xyz, np.array(list(combinations(range(n), 3))).T):
            np.testing.assert_array_equal(got, want)
    y = np.random.default_rng(n).uniform(-1.0, 1.0, layout.size)
    assert np.array_equal(pack(layout, unpack(layout, y)), y)


def test_unpack_aliases_coincident_slots():
    """`unpack` fills every coincident slot of the triple tensors by the
    aliasing rule, here against the tensors `state_from_density` aliases by
    hand: a slot the alpha=3 kernel never reads (T[x,j,x] = 0) included.
    The triple coherences go through the layout's own `t_src` map, the one
    the kernel's workspace is refreshed through."""
    order = ClosureOrder(3, False)
    state = state_from_density(random_density(4, 5, u1_symmetric=True), order)
    layout = _Layout(4, order)
    back = unpack(layout, pack(layout, state))
    for name in ("coherences", "pair_populations", "triple_coherences",
                 "triple_populations"):
        np.testing.assert_array_equal(getattr(back, name), getattr(state, name),
                                      err_msg=name)


def test_mean_field_inverted_is_pure_exponential():
    arr = build_array(LatticeSpec(2, 2, 0.316), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 4, 41)
    trace = evolve_cumulant(InitialStateSpec(1.0), arr, cm,
                            ClosureOrder(1, False), t, rtol=1e-11, atol=1e-13)
    assert np.abs(trace.n_excited - 4 * np.exp(-t)).max() < 1e-8


@pytest.mark.parametrize("order", SECTORS, ids=lambda o: f"a{o.alpha}{'c' if o.coherent_sector else 'i'}")
def test_single_atom_exponential(order):
    arr = build_array(LatticeSpec(1, 1, 0.3), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 5, 26)
    init = pulse(np.pi / 2) if order.coherent_sector else InitialStateSpec(1.0)
    trace = evolve_cumulant(init, arr, cm, order, t, rtol=1e-11, atol=1e-13)
    p0 = init.excitation_probability
    assert np.abs(trace.n_excited - p0 * np.exp(-t)).max() < 1e-8


@pytest.mark.parametrize("init", [
    InitialStateSpec(1.0),
    InitialStateSpec(0.5),
    pulse(2.0, k_laser=(1.0, 0.0, 0.0)),
    pulse(0.6, k_laser=(0.3, 0.7, 0.0), phase_offset=0.4),
], ids=["inverted", "p05", "theta2", "theta06"])
def test_alpha2_exact_at_two_atoms(init):
    """The order-2 closure is exact at N=2: no third atom exists to truncate."""
    arr = build_array(LatticeSpec(1, 2, 0.316), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 4, 33)
    order = ClosureOrder(2, coherent_sector=init.coherent)
    trace = evolve_cumulant(init, arr, cm, order, t, rtol=1e-10, atol=1e-12)
    exact = evolve_exact(init, arr, cm, t, rtol=1e-10, atol=1e-12)
    assert np.abs(trace.n_excited - exact.n_excited).max() < 1e-6
    assert np.abs(trace.emission_rate - exact.emission_rate).max() < 1e-6
    assert np.abs(trace.m_perp_sq - exact.m_perp_sq).max() < 1e-6


@pytest.mark.parametrize("p", [1.0, 0.7])
def test_alpha3_exact_at_three_atoms(p):
    """At N=3 no four-atom product exists, so alpha=3 is untruncated."""
    arr = build_array(LatticeSpec(1, 3, 0.35), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 4, 33)
    trace = evolve_cumulant(InitialStateSpec(p), arr, cm,
                            ClosureOrder(3, False), t, rtol=1e-10, atol=1e-12)
    exact = evolve_exact(InitialStateSpec(p), arr, cm, t,
                         rtol=1e-10, atol=1e-12)
    assert np.abs(trace.n_excited - exact.n_excited).max() < 1e-6
    assert np.abs(trace.emission_rate - exact.emission_rate).max() < 1e-6


@pytest.mark.parametrize("rows,cols,order", [
    (16, 16, ClosureOrder(2, False)), (16, 16, ClosureOrder(1, True)),
    (6, 6, ClosureOrder(2, True)), (6, 6, ClosureOrder(3, False))],
    ids=["a2i-16x16", "a1c-16x16", "a2c-6x6", "a3i-6x6"])
def test_weak_excitation_oracle(rows, cols, order):
    """To first order in the excitation probability p only the one-excitation
    sector moves, under H = J - i Gamma/2 (Gamma_ii on the diagonal), so with
    U = exp(-iHt): n_i = p (U U^dag)_ii for an incoherent start and
    n_i = |(U b)_i|^2 for a coherent one (b = <s>(0)), with N_exc their sum.
    The solve must converge to that at O(p): between p = 1e-2 and 1e-3 its
    largest relative deviation, in N_exc and in the populations, falls by
    about the ratio of the p values.  The incoherent arrays take the
    inversion-reduced layout, the 16x16 ones far above the exact solver's
    atom cap."""
    arr = build_array(LatticeSpec(rows, cols, 0.3), seed=0)
    cm = coupling_matrices(arr)
    assert (cumulant._inversion_half(cm, order) is None) == order.coherent_sector
    t = np.linspace(0.0, 3.0, 13)
    lam, v = np.linalg.eig(cm.J - 0.5j * cm.Gamma)   # zero J diagonal
    vi = np.linalg.inv(v)
    u = [(v * np.exp(-1j * lam * time)) @ vi for time in t]
    deviations = []
    for p in (1e-2, 1e-3):
        if order.coherent_sector:
            init = InitialStateSpec(p, coherent=True)
            b = init.single_atom_moments(arr)[1]
            linear = np.array([np.abs(ut @ b) ** 2 for ut in u])
        else:
            init = InitialStateSpec(p)
            linear = np.array([p * np.einsum("ik,ik->i", ut, ut.conj()).real for ut in u])
        trace = evolve_cumulant(init, arr, cm, order, t, rtol=1e-7, atol=1e-9)
        n_lin = linear.sum(axis=1)
        deviations.append([
            (np.abs(trace.n_excited - n_lin) / n_lin).max(),
            (np.abs(trace.populations - linear).max(axis=1) / linear.max(axis=1)).max()])
    ratio = np.divide(*deviations)
    assert np.all((ratio > 0.8 * 10) & (ratio < 1.25 * 10)), (deviations, ratio)


def test_alpha2_tracks_exact_at_six_atoms():
    arr = build_array(LatticeSpec(2, 3, 0.316), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 3, 31)
    trace = evolve_cumulant(InitialStateSpec(1.0), arr, cm,
                            ClosureOrder(2, False), t)
    exact = evolve_exact(InitialStateSpec(1.0), arr, cm, t)
    rel = np.abs(trace.n_excited - exact.n_excited) / exact.n_excited.max()
    assert rel.max() < 0.05


def test_superradiant_burst_at_order2():
    arr = build_array(LatticeSpec(4, 4, 0.316), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 2, 41)
    trace = evolve_cumulant(InitialStateSpec(1.0), arr, cm,
                            ClosureOrder(2, False), t)
    gamma_t = trace.gamma_normalized
    assert np.nanmax(gamma_t) > 1.0
    assert np.nanargmax(gamma_t) > 0  # burst develops at t > 0


def test_weak_coherent_pulse_beats_inverted_initial_rate():
    arr = build_array(LatticeSpec(4, 4, 0.316), seed=0)
    cm = coupling_matrices(arr)
    theta = 2 * np.arcsin(np.sqrt(0.1))
    init = pulse(theta, k_laser=(1.0, 0.0, 0.0))
    t = np.array([0.0, 0.01])
    coh = evolve_cumulant(init, arr, cm, ClosureOrder(2, True), t)
    inv = evolve_cumulant(InitialStateSpec(1.0), arr, cm,
                          ClosureOrder(2, False), t)
    assert coh.gamma_normalized[0] > inv.gamma_normalized[0]


def test_u1_sector_stays_dark():
    """Zero initial amplitudes stay exactly zero in the coherent sector."""
    arr = build_array(LatticeSpec(2, 2, 0.4), seed=0)
    cm = coupling_matrices(arr)
    order = ClosureOrder(2, True)
    state = initial_cumulant_state(InitialStateSpec(0.8),
                                   build_array(LatticeSpec(2, 2, 0.4), seed=0),
                                   order)
    d = unpack(_Layout(4, order), cumulant_rhs(state, cm).to_vector())
    assert np.abs(d.amplitudes).max() == 0.0
    assert np.abs(d.pop_amplitudes).max() == 0.0
    assert np.abs(d.amp_pairs).max() == 0.0


def test_permutation_covariance():
    arr = build_array(LatticeSpec(1, 4, 0.38), seed=0)
    cm = coupling_matrices(arr)
    perm = np.array([2, 0, 3, 1])
    arr_p = type(arr)(positions=arr.positions[perm], occupied=arr.occupied,
                      site_rc=arr.site_rc[perm], drive=arr.drive)
    cm_p = type(cm)(J=cm.J[np.ix_(perm, perm)], Gamma=cm.Gamma[np.ix_(perm, perm)])
    init = pulse(1.3, k_laser=(1.0, 0.0, 0.0))
    t = np.linspace(0, 2, 11)
    a = evolve_cumulant(init, arr, cm, ClosureOrder(2, True), t)
    b = evolve_cumulant(init, arr_p, cm_p, ClosureOrder(2, True), t)
    np.testing.assert_allclose(a.populations, b.populations[:, np.argsort(perm)],
                               atol=1e-8)
    np.testing.assert_allclose(a.n_excited, b.n_excited, atol=1e-8)


def _reduced_solve_with_rhs(monkeypatch, rhs, times, caplog):
    """An inverted 2x4 alpha=3 solve on the inversion-reduced layout whose
    RHS is `rhs(y, ws)`, with the solver's log captured."""
    arr = build_array(LatticeSpec(2, 4, 0.3), seed=0)
    cm = coupling_matrices(arr)
    order = ClosureOrder(3, False)
    assert cumulant._inversion_half(cm, order) == 4
    monkeypatch.setattr(cumulant, "_rhs_vector", rhs)
    with caplog.at_level("INFO", logger="dipolarray.cumulant"):
        return evolve_cumulant(InitialStateSpec(1.0), arr, cm, order, times)


def test_solve_clamps_and_counts_small_population_excursions(monkeypatch, caplog):
    """Populations that drift above 1 by less than POPULATION_HARD_TOL are
    clamped in the record, counted and logged at WARNING, and the solve goes
    on; here every population grows at 1e-3 per unit time from 1."""
    def rising(y, ws):
        dy = np.zeros_like(y)
        dy[ws.layout.slices["populations"]] = 1e-3
        return dy

    trace = _reduced_solve_with_rhs(monkeypatch, rising, [0.0, 0.1, 0.2, 0.5], caplog)
    assert trace.clamped_points == 3
    assert trace.populations.max() == 1.0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"clamping population excursion {e} at t = {t}"
                        for e, t in (("0.0001", 0.1), ("0.0002", 0.2), ("0.0005", 0.5))]


def test_solve_refuses_a_negative_emission_rate(monkeypatch, caplog):
    """An incoherent solve whose emission rate turns negative is a closure
    breakdown: the coherences C_ij fall as -Gamma_ij t, so the rate
    8 - 6.016 t of the 2x4 array is negative at t = 2 while every
    correlator stays below CORRELATOR_LIMIT and no population moves."""
    def draining(y, ws):
        dy = np.zeros_like(y)
        ws.layout._halves(dy, "coherences")[0][:] = -ws.gamma_pair
        return dy

    with pytest.raises(ClosureBlowupError) as err:
        _reduced_solve_with_rhs(monkeypatch, draining, [0.0, 1.0, 2.0], caplog)
    assert str(err.value) == ("negative emission rate -4.03 at t = 2 "
                              "(closure breakdown)")
    assert err.value.time == 2.0
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_checked_state_guards():
    order = ClosureOrder(2, False)
    layout = _Layout(3, order)
    arr = build_array(LatticeSpec(1, 3, 0.4), seed=0)
    y = initial_cumulant_state(InitialStateSpec(0.5), arr, order).to_vector()
    state, excess = _checked_state(y, layout, 0.0)
    assert excess <= 0.0

    bad = y.copy()
    bad[0] = 1.5  # population way outside [0, 1]
    with pytest.raises(ClosureBlowupError, match="population"):
        _checked_state(bad, layout, 2.5)
    try:
        _checked_state(bad, layout, 2.5)
    except ClosureBlowupError as err:
        assert err.time == 2.5

    soft = y.copy()
    soft[0] = 1.0 + 5e-5  # between soft and hard thresholds: clamp, no raise
    _, excess = _checked_state(soft, layout, 1.0)
    assert 0 < excess < 1e-3

    big = y.copy()
    big[-1] = 11.0
    with pytest.raises(ClosureBlowupError, match="magnitude"):
        _checked_state(big, layout, 0.5)

    non_finite = y.copy()
    non_finite[1] = np.nan
    with pytest.raises(ClosureBlowupError, match="non-finite"):
        _checked_state(non_finite, layout, 0.1)

    # alpha=3: the guards cover the triple blocks too
    order = ClosureOrder(3, False)
    layout = _Layout(3, order)
    y = initial_cumulant_state(InitialStateSpec(0.5), arr, order).to_vector()
    _, excess = _checked_state(y, layout, 0.0)
    assert excess <= 0.0
    big = y.copy()
    big[layout.slices["triple_coherences"].start] = -11.0
    with pytest.raises(ClosureBlowupError, match="magnitude"):
        _checked_state(big, layout, 0.5)
    non_finite = y.copy()
    non_finite[layout.slices["triple_populations"].start] = np.inf
    with pytest.raises(ClosureBlowupError, match="non-finite"):
        _checked_state(non_finite, layout, 0.1)


def test_alpha3_rejects_coherent():
    with pytest.raises(ValueError):
        ClosureOrder(3, True)
    arr = build_array(LatticeSpec(1, 3, 0.4), seed=0)
    cm = coupling_matrices(arr)
    with pytest.raises(ValueError, match="incoherent"):
        evolve_cumulant(pulse(1.0), arr, cm,
                        ClosureOrder(3, False), [0.0, 1.0])


def test_coherent_init_requires_coherent_sector():
    arr = build_array(LatticeSpec(1, 2, 0.4), seed=0)
    cm = coupling_matrices(arr)
    with pytest.raises(ValueError, match="coherent_sector"):
        evolve_cumulant(pulse(1.0), arr, cm,
                        ClosureOrder(2, False), [0.0, 1.0])


def test_make_time_grid_shape():
    t = make_time_grid(dense_until=5.0, end=20.0, dense_step=0.1, log_points=30)
    assert t[0] == 0.0
    assert abs(t[-1] - 20.0) < 1e-12
    assert np.all(np.diff(t) > 0)
    head = t[t <= 5.0 + 1e-9]
    np.testing.assert_allclose(np.diff(head), 0.1, atol=1e-12)
    assert len(t) == len(head) + 30
    short = make_time_grid(dense_until=5.0, end=5.0, dense_step=0.1)
    assert short[-1] <= 5.0 + 1e-9


@pytest.mark.parametrize("dense_until, end", [
    (4.99, 5.0),  # the dense part ends at 5.0, past the tail's start at 4.99
    (3.02, 3.02),  # the dense part stops at 3.0
])
def test_make_time_grid_refuses_a_grid_that_misses_its_end(dense_until, end):
    with pytest.raises(ValueError, match="does not rise strictly to its end"):
        make_time_grid(dense_until=dense_until, end=end, dense_step=0.05)


@pytest.mark.parametrize("solver", ["cumulant", "exact"])
def test_ensemble_single_realization_matches_direct_call(solver):
    cfg = RunConfig(rows=2, cols=2, spacing=0.4, fill_probability=0.8, solver=solver,
                    grid_kind="linear", t_end=2.0, linear_points=9, master_seed=11,
                    correlation_times=(1.0,))
    ens = ensemble_run(cfg)
    seed0 = derive_seed(11, STREAM_ENSEMBLE, 0)
    arr = build_array(cfg.lattice_spec(), drive=cfg.drive(), seed=seed0)
    cm = coupling_matrices(arr)
    solve = dict(rtol=cfg.rtol, atol=cfg.atol, snapshot_times=cfg.correlation_times)
    if solver == "exact":
        direct = evolve_exact(cfg.initial_state_spec(), arr, cm, cfg.times(), **solve)
    else:
        direct = evolve_cumulant(cfg.initial_state_spec(), arr, cm, cfg.closure_order(),
                                 cfg.times(), **solve)
    for field in dataclasses.fields(ObservableTrace):
        if field.name != "snapshots":
            np.testing.assert_array_equal(getattr(ens, field.name),
                                          getattr(direct, field.name), err_msg=field.name)
    assert ens.snapshots.keys() == direct.snapshots.keys() == {1.0}
    snap = ens.snapshots[1.0]
    assert snap.keys() == direct.snapshots[1.0].keys()
    for key, value in snap.items():
        np.testing.assert_array_equal(value, direct.snapshots[1.0][key], err_msg=key)
    np.testing.assert_array_equal(snap["sites"], arr.atom_rc)
    assert ens.n_realizations == 1
    assert ens.stderr is None


def test_ensemble_deterministic_and_zero_variance_when_nothing_random():
    cfg = RunConfig(rows=2, cols=2, spacing=0.35, grid_kind="linear", t_end=1.0,
                    linear_points=5, realizations=10, master_seed=3)
    a = ensemble_run(cfg)
    b = ensemble_run(cfg)
    np.testing.assert_array_equal(a.n_excited, b.n_excited)
    assert np.abs(a.stderr["n_excited"]).max() < 1e-14


def test_ensemble_stderr_scales_with_realizations():
    cfg = RunConfig(rows=2, cols=2, spacing=0.45, fill_probability=0.7,
                    grid_kind="linear", t_end=1.0, linear_points=3, master_seed=5)
    small = ensemble_run(dataclasses.replace(cfg, realizations=25))
    large = ensemble_run(dataclasses.replace(cfg, realizations=100))
    # stderr ~ 1/sqrt(R): ratio should be near 2, generously bracketed
    ratio = small.stderr["n_excited"][1:] / large.stderr["n_excited"][1:]
    assert np.all(ratio > 1.2) and np.all(ratio < 3.2)


def test_ensemble_failure_manifest():
    cfg = RunConfig(rows=1, cols=1, spacing=0.4, fill_probability=0.3,
                    grid_kind="linear", t_end=0.5, linear_points=2, realizations=30,
                    master_seed=2)
    ens = ensemble_run(cfg)
    assert ens.failures  # some single-site draws come up empty
    assert ens.n_realizations + len(ens.failures) == 30
    for r, message in ens.failures:
        assert "EmptyRealizationError" in message


def test_ensemble_keeps_the_jump_rates_of_the_realizations_that_solved():
    cfg = RunConfig(rows=1, cols=2, spacing=0.4, fill_probability=0.3,
                    grid_kind="linear", t_end=0.5, linear_points=2, realizations=4,
                    master_seed=8)
    ens = ensemble_run(cfg)
    failed = [r for r, _ in ens.failures]
    assert failed == [0]  # realization 0 loads no atom
    assert len(ens.jump_rates) == ens.n_realizations == 3
    for r, rates in zip([1, 2, 3], ens.jump_rates):
        arr = build_array(cfg.lattice_spec(), drive=cfg.drive(),
                          seed=derive_seed(8, STREAM_ENSEMBLE, r))
        np.testing.assert_array_equal(rates, coupling_matrices(arr).jump_rates)


def test_snapshots_recorded_on_grid():
    arr = build_array(LatticeSpec(1, 3, 0.4), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 2, 9)
    trace = evolve_cumulant(InitialStateSpec(1.0), arr, cm,
                            ClosureOrder(2, False), t, snapshot_times=[0.0, 1.0])
    assert set(trace.snapshots) == {0.0, 1.0}
    snap = trace.snapshots[1.0]
    assert snap["pair_populations"].shape == (3, 3)
    with pytest.raises(ValueError, match="grid"):
        evolve_cumulant(InitialStateSpec(1.0), arr, cm,
                        ClosureOrder(2, False), t, snapshot_times=[0.33])
