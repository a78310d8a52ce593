import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import DOP853, solve_ivp

from dipolarray import exact
from dipolarray.config import ConfigError, RunConfig
from dipolarray.couplings import CouplingMatrices, coupling_matrices
from dipolarray.cumulant import ClosureOrder, evolve_cumulant
from dipolarray.exact import (
    InitialStateSpec,
    IntegrationFailureError,
    evolve_exact,
    initial_density_matrix,
    integrate_on_grid,
    lindblad_rhs,
)
from dipolarray.geometry import LatticeSpec, build_array, dicke_array

from readout import (
    exact_density_matrices,
    observables_exact,
    shot_sample,
    snapshot_s_z_sq,
    snapshot_series,
    validate_density_matrix,
)
from starts import pulse


def two_atom_inverted_ne(t, g12):
    """Closed-form N_e(t) for two inverted atoms with cross decay g12.

    |ee> drains at 2*gamma0 into the symmetric/antisymmetric single-excitation
    channels, which decay at gamma0 +/- g12.
    """
    t = np.asarray(t, float)
    p_ee = np.exp(-2 * t)
    p_s = (1 + g12) * (np.exp(-(1 + g12) * t) - np.exp(-2 * t)) / (1 - g12)
    p_a = (1 - g12) * (np.exp(-(1 - g12) * t) - np.exp(-2 * t)) / (1 + g12)
    return 2 * p_ee + p_s + p_a


def dicke_ladder_ne(t, n):
    """Rate-equation oracle on the symmetric ladder S = n/2, m = S..-S."""
    s = n / 2
    ms = np.arange(s, -s - 1, -1)
    rates = (s + ms) * (s - ms + 1)

    def rhs(_t, p):
        dp = -rates * p
        dp[1:] += rates[:-1] * p[:-1]
        return dp

    p0 = np.zeros(n + 1)
    p0[0] = 1.0
    sol = solve_ivp(rhs, (t[0], t[-1]), p0, t_eval=t, rtol=1e-11, atol=1e-13)
    return (ms + s) @ sol.y


def test_rhs_single_atom_decay():
    cm = coupling_matrices(build_array(LatticeSpec(1, 1, 0.3), seed=0))
    rho = np.array([[0, 0], [0, 1]], dtype=complex)
    d = lindblad_rhs(rho, cm)
    assert abs(d[1, 1].real + 1.0) < 1e-14
    assert abs(d[0, 0].real - 1.0) < 1e-14
    assert abs(np.trace(d)) < 1e-12


def test_rhs_decoupled_limit_matches_independent_dissipators():
    n = 3
    cm = CouplingMatrices(J=np.zeros((n, n)), Gamma=np.eye(n))
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    got = lindblad_rhs(rho, cm)
    # independent single-atom dissipators, summed by hand
    want = np.zeros_like(rho)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    for i in range(n):
        op = [np.eye(2, dtype=complex)] * n
        op[i] = lower
        s = np.kron(np.kron(op[2], op[1]), op[0])  # atom 0 least significant
        want += s @ rho @ s.conj().T - 0.5 * (s.conj().T @ s @ rho + rho @ s.conj().T @ s)
    np.testing.assert_allclose(got, want, atol=1e-13)


def _lowering(i, n):
    """Dense s_i with atom 0 in the least significant slot."""
    ops = [np.eye(2, dtype=complex)] * n
    ops[i] = np.array([[0, 1], [0, 0]], dtype=complex)
    out = ops[n - 1]
    for k in range(n - 2, -1, -1):
        out = np.kron(out, ops[k])
    return out


def _sigma_dag_sigma(i, j, n=2):
    """Dense s_i^dag s_j with atom 0 in the least significant slot."""
    return _lowering(i, n).conj().T @ _lowering(j, n)


def _dense_lindblad_rhs(cm):
    """drho/dt = -i[H, rho] + sum_ij Gamma_ij (s_j rho s_i^dag - {s_i^dag s_j, rho}/2)
    with H = sum_{i != j} J_ij s_i^dag s_j, from dense kron operators alone."""
    n = cm.n_atoms
    s = [_lowering(i, n) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    hop = sum(cm.J[i, j] * _sigma_dag_sigma(i, j, n) for i, j in pairs if i != j)
    decay = sum(cm.Gamma[i, j] * _sigma_dag_sigma(i, j, n) for i, j in pairs)
    a = hop - 0.5j * decay
    mixed = [sum(cm.Gamma[i, j] * s[j] for j in range(n)) for i in range(n)]

    def rhs(rho):
        out = -1j * (a @ rho - rho @ a.conj().T)
        for i in range(n):
            out += mixed[i] @ rho @ s[i].conj().T
        return out

    return rhs


def test_rhs_two_atom_heisenberg_oracle():
    arr = build_array(LatticeSpec(1, 2, 0.41), seed=0)
    cm = coupling_matrices(arr)
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    drho = lindblad_rhs(rho, cm)
    # d<s_1^dag s_2>/dt from the adjoint equation with g = J + i Gamma/2:
    #   -gamma0 C_12 - i g_12 (2 <n1 n2> - <n2>) + i g*_12 (2 <n1 n2> - <n1>)
    obs = observables_exact(rho, cm)
    c12 = obs["coherences"][0, 1]
    nn = obs["pair_populations"][0, 1]
    n1, n2 = obs["populations"]
    g = cm.J[0, 1] + 0.5j * cm.Gamma[0, 1]
    want = -c12 - 1j * g * (2 * nn - n2) + 1j * np.conj(g) * (2 * nn - n1)
    got = np.trace(_sigma_dag_sigma(0, 1) @ drho)
    assert abs(got - want) < 1e-12


def test_rhs_packs_only_the_offsets_rho_holds(monkeypatch):
    # The generator conserves the excitation offset k - k', so a diagonal
    # rho needs the offset-0 blocks alone; the result must equal the
    # all-offsets evaluation.
    layout_class = exact._Layout
    built = []

    def spy(n, offsets):
        built.append(offsets)
        return layout_class(n, offsets)

    arr = build_array(LatticeSpec(2, 2, 0.3), seed=0)
    cm = coupling_matrices(arr)
    rho = initial_density_matrix(InitialStateSpec(0.3), arr)
    monkeypatch.setattr(exact, "_Layout", spy)
    drho = lindblad_rhs(rho, cm)
    assert built == [(0,)]
    full = layout_class(4, tuple(range(-4, 5)))
    np.testing.assert_array_equal(
        drho, full.unpack(exact._Generator(full, cm)(full.pack(rho))))


def test_rhs_on_padded_blocks_matches_a_sparse_kron_lindbladian():
    """Sectors past 128 states (N >= 10) are multiplied as zero-padded copies
    (`padded_length`).  A random Hermitian rho of full rank on 2x5 holds every
    offset, so blocks of every offset take that path; the derivative must
    match the master equation built from scipy.sparse.kron operators."""
    arr = build_array(LatticeSpec(2, 5, 0.3), seed=0)
    cm = coupling_matrices(arr)
    n, dim = arr.n_atoms, 1 << arr.n_atoms
    assert max(exact.padded_length(len(s)) - len(s)
               for s in exact._Layout(n, (0,)).states) > 0
    lower = scipy.sparse.csr_array([[0.0, 1.0], [0.0, 0.0]])
    s = [scipy.sparse.kron(scipy.sparse.kron(scipy.sparse.eye_array(1 << (n - 1 - i)), lower),
                           scipy.sparse.eye_array(1 << i), format="csr") for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    a = sum((cm.J[i, j] * (i != j) - 0.5j * cm.Gamma[i, j]) * (s[i].T @ s[j])
            for i, j in pairs)
    rng = np.random.default_rng(0)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = (m + m.conj().T) / 2
    p = a @ rho
    want = -1j * (p - p.conj().T)
    for j in range(n):  # sum_ij Gamma_ij s_j rho s_i^dag, the s_i real
        want += (s[j] @ rho) @ sum(cm.Gamma[i, j] * s[i] for i in range(n)).T
    got = lindblad_rhs(rho, cm)
    assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)


BEAM_PULSE = pulse(1.1, k_laser=(np.cos(0.26), np.sin(0.26), 0.0))
STARTS = {"inverted": InitialStateSpec(1.0),
          "incoherent": InitialStateSpec(0.3), "coherent": BEAM_PULSE}


@pytest.mark.parametrize("init", STARTS.values(), ids=STARTS.keys())
def test_solve_tracks_only_offset_0_for_every_start(monkeypatch, init):
    # Each offset k - k' evolves on its own and every recorded moment lies
    # on offset 0, so a coherent start is integrated on the same blocks as
    # an inverted one.
    layout_class = exact._Layout
    built = []

    def spy(n, offsets):
        built.append(offsets)
        return layout_class(n, offsets)

    arr = build_array(LatticeSpec(2, 2, 0.3), seed=0)
    cm = coupling_matrices(arr)
    monkeypatch.setattr(exact, "_Layout", spy)
    evolve_exact(init, arr, cm, np.linspace(0, 0.5, 6), snapshot_times=[0.5])
    assert built == [(0,)]


@pytest.mark.parametrize("name", ["inverted", "coherent"])
def test_evolve_exact_logs_its_layout(caplog, name):
    arr = build_array(LatticeSpec(2, 3, 0.3), seed=0)
    caplog.set_level(logging.INFO, logger="dipolarray.exact")
    evolve_exact(STARTS[name], arr, coupling_matrices(arr), [0.0, 0.1])
    lines = [r.getMessage() for r in caplog.records if r.name == "dipolarray.exact"]
    assert lines[0] == "exact solve on the offset-0 blocks, 924 entries"


def test_single_atom_exponential():
    arr = build_array(LatticeSpec(1, 1, 0.3), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 5, 51)
    traj = evolve_exact(InitialStateSpec(1.0), arr, cm, t)
    assert np.abs(traj.n_excited - np.exp(-t)).max() < 1e-8


def test_two_atom_closed_form():
    arr = build_array(LatticeSpec(1, 2, 0.316), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 5, 81)
    traj = evolve_exact(InitialStateSpec(1.0), arr, cm, t)
    ref = two_atom_inverted_ne(t, cm.Gamma[0, 1])
    assert np.abs(traj.n_excited - ref).max() < 1e-6


def test_dicke_six_ladder_and_burst():
    arr = dicke_array(6)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 3, 61)
    traj = evolve_exact(InitialStateSpec(1.0), arr, cm, t)
    ref = dicke_ladder_ne(t, 6)
    assert np.abs(traj.n_excited - ref).max() < 1e-6
    assert traj.emission_rate.max() > 6.0  # superradiant burst


def test_trace_and_hermiticity_drift():
    arr = build_array(LatticeSpec(2, 2, 0.35), seed=1)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 20, 11)
    rhos = exact_density_matrices(InitialStateSpec(1.0), arr, cm, t,
                                  [0.0, 10.0, 20.0])
    for rho in rhos.values():
        validate_density_matrix(rho)
        assert abs(np.trace(rho).real - 1.0) < 1e-7


def test_observables_fully_inverted_and_ground():
    arr = build_array(LatticeSpec(2, 2, 0.4), seed=0)
    cm = coupling_matrices(arr)
    inverted = initial_density_matrix(InitialStateSpec(1.0), arr)
    obs = observables_exact(inverted, cm)
    assert abs(obs["emission_rate"] - 4.0) < 1e-12
    assert abs(obs["m_perp_sq"] - 2.0) < 1e-12
    assert abs(obs["s_z"] - 2.0) < 1e-12
    ground = initial_density_matrix(InitialStateSpec(0.0), arr)
    obs0 = observables_exact(ground, cm)
    assert abs(obs0["emission_rate"]) < 1e-14
    assert np.abs(obs0["populations"]).max() < 1e-14
    assert abs(obs0["s_z"] + 2.0) < 1e-12


def test_pair_populations_match_independent_trace_path():
    arr = build_array(LatticeSpec(1, 4, 0.35), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 0.5, 6)
    traj = evolve_exact(InitialStateSpec(1.0), arr, cm, t, snapshot_times=[0.5])
    rho = exact_density_matrices(InitialStateSpec(1.0), arr, cm, t, [0.5])[0.5]
    # independent code path: dense number operators and matrix traces
    proj_e = np.array([[0, 0], [0, 1]], dtype=complex)
    for i in range(4):
        for j in range(4):
            ops = [np.eye(2, dtype=complex)] * 4
            ops[i] = proj_e @ ops[i]
            ops[j] = proj_e @ ops[j]
            op = ops[3]
            for k in (2, 1, 0):
                op = np.kron(op, ops[k])
            want = np.trace(op @ rho).real
            assert abs(traj.snapshots[0.5]["pair_populations"][i, j] - want) < 1e-12


def test_permutation_covariance():
    arr = build_array(LatticeSpec(1, 3, 0.38), seed=0)
    cm = coupling_matrices(arr)
    perm = np.array([2, 0, 1])
    arr_p = type(arr)(positions=arr.positions[perm], occupied=arr.occupied,
                      site_rc=arr.site_rc[perm], drive=arr.drive)
    cm_p = CouplingMatrices(J=cm.J[np.ix_(perm, perm)],
                            Gamma=cm.Gamma[np.ix_(perm, perm)])
    init = pulse(2.0, k_laser=(1.0, 0.0, 0.0))
    t = np.linspace(0, 1.5, 7)
    a = evolve_exact(init, arr, cm, t)
    b = evolve_exact(init, arr_p, cm_p, t)
    np.testing.assert_allclose(b.populations, a.populations[:, perm], atol=1e-9)
    np.testing.assert_allclose(b.n_excited, a.n_excited, atol=1e-9)


def test_phase_shift_covariance():
    arr = build_array(LatticeSpec(1, 3, 0.42), seed=0)
    cm = coupling_matrices(arr)
    base = pulse(1.2, k_laser=(1.0, 0.0, 0.0))
    shifted = pulse(1.2, k_laser=(1.0, 0.0, 0.0), phase_offset=0.9)
    t = np.linspace(0, 2, 9)
    a = evolve_exact(base, arr, cm, t, snapshot_times=t)
    b = evolve_exact(shifted, arr, cm, t, snapshot_times=t)
    np.testing.assert_allclose(a.populations, b.populations, atol=1e-9)
    np.testing.assert_allclose(np.abs(snapshot_series(a, "coherences")),
                               np.abs(snapshot_series(b, "coherences")), atol=1e-9)


def test_initial_rate_equals_gamma0_fully_inverted():
    for seed, spacing in ((0, 0.316), (1, 0.5), (2, 0.75)):
        arr = build_array(LatticeSpec(2, 3, spacing), seed=seed)
        cm = coupling_matrices(arr)
        rho0 = initial_density_matrix(InitialStateSpec(1.0), arr)
        obs = observables_exact(rho0, cm)
        assert abs(obs["emission_rate"] / obs["n_excited"] - 1.0) < 1e-12


def test_flux_balance_along_trajectory():
    arr = build_array(LatticeSpec(1, 2, 0.316), seed=0)
    cm = coupling_matrices(arr)
    eps = 1e-4
    t = np.array([0.0, 1.0 - eps, 1.0, 1.0 + eps])
    traj = evolve_exact(InitialStateSpec(1.0), arr, cm, t)
    dne = (traj.n_excited[3] - traj.n_excited[1]) / (2 * eps)
    assert abs(-dne - traj.emission_rate[2]) < 1e-5


def test_atom_cap_enforced():
    # the cap is checked before the C(26, 13)-entry state would be allocated
    arr = build_array(LatticeSpec(1, 13, 0.4), seed=0)
    cm = coupling_matrices(arr)
    with pytest.raises(ValueError, match="cap"):
        evolve_exact(InitialStateSpec(1.0), arr, cm, [0.0, 1.0])


def test_initial_state_spec_validation():
    with pytest.raises(ValueError):
        InitialStateSpec(excitation_probability=1.5)
    with pytest.raises(ValueError):
        InitialStateSpec(excitation_probability=None)
    with pytest.raises(ValueError):
        InitialStateSpec(coherent=True)
    with pytest.raises(ValueError):
        InitialStateSpec(excitation_probability=0.5, phase_gradient=(1, 0, 0))


def test_incoherent_initial_state_moments():
    arr = build_array(LatticeSpec(1, 3, 0.4), seed=0)
    rho = initial_density_matrix(InitialStateSpec(0.3), arr)
    validate_density_matrix(rho)
    cm = coupling_matrices(arr)
    obs = observables_exact(rho, cm)
    np.testing.assert_allclose(obs["populations"], 0.3, atol=1e-12)
    # no coherences in the incoherent mixture
    off = obs["coherences"].copy()
    np.fill_diagonal(off, 0)
    assert np.abs(off).max() < 1e-14
    # independent atoms: <n_i n_j> = p^2
    assert abs(obs["pair_populations"][0, 1] - 0.09) < 1e-12


def test_coherent_initial_state_phases():
    arr = build_array(LatticeSpec(1, 2, 0.37), seed=0)
    theta = 1.1
    init = pulse(theta, k_laser=(1.0, 0.0, 0.0))
    rho = initial_density_matrix(init, arr)
    validate_density_matrix(rho)
    cm = coupling_matrices(arr)
    obs = observables_exact(rho, cm)
    p = np.sin(theta / 2) ** 2
    np.testing.assert_allclose(obs["populations"], p, atol=1e-12)
    # <s_0^dag s_1> = sin^2 cos^2 e^{i(phi_1 - phi_0)} for the product state
    expect_phase = 2 * np.pi * (arr.atom_positions[1, 0] - arr.atom_positions[0, 0])
    got = np.angle(obs["coherences"][0, 1])
    assert abs(np.exp(1j * got) - np.exp(1j * expect_phase)) < 1e-10
    # product state: |<s_1^dag s_2>| = sin^2(theta/2) cos^2(theta/2)
    want_mag = np.sin(theta / 2) ** 2 * np.cos(theta / 2) ** 2
    assert abs(np.abs(obs["coherences"][0, 1]) - want_mag) < 1e-12


def test_shot_sample_statistics():
    arr = build_array(LatticeSpec(1, 4, 0.4), seed=0)
    rho = initial_density_matrix(InitialStateSpec(0.5), arr)
    shots = shot_sample(rho, 100_000, seed=5)
    assert shots.shape == (100_000, 4)
    means = shots.mean(axis=0)
    sigma = 0.5 / np.sqrt(100_000)
    assert np.abs(means - 0.5).max() < 5 * sigma
    again = shot_sample(rho, 100_000, seed=5)
    np.testing.assert_array_equal(shots, again)


def test_shot_sample_pure_inverted_and_dark_state():
    arr = build_array(LatticeSpec(1, 3, 0.4), seed=0)
    rho = initial_density_matrix(InitialStateSpec(1.0), arr)
    shots = shot_sample(rho, 50, seed=1)
    assert np.all(shots == 1)
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    dark = np.outer(v, v.conj())
    s = shot_sample(dark, 500, seed=2)
    np.testing.assert_array_equal(s.sum(axis=1), np.ones(500))


def test_validate_density_matrix_errors():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.1j], [0.2j, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_snapshot_times_must_lie_on_grid():
    arr = build_array(LatticeSpec(1, 2, 0.4), seed=0)
    cm = coupling_matrices(arr)
    with pytest.raises(ValueError, match="grid"):
        evolve_exact(InitialStateSpec(1.0), arr, cm,
                     [0.0, 1.0], snapshot_times=[0.5])


def test_config_and_both_solvers_accept_the_same_snapshot_times():
    arr = build_array(LatticeSpec(1, 2, 0.4), seed=0)
    cm = coupling_matrices(arr)
    init = InitialStateSpec(1.0)
    grid = dict(grid_kind="linear", t_end=1.0, linear_points=11)
    times = RunConfig(**grid).times()
    solvers = (lambda snap: evolve_exact(init, arr, cm, times, snapshot_times=snap),
               lambda snap: evolve_cumulant(init, arr, cm, ClosureOrder(2), times,
                                            snapshot_times=snap))
    near = float(times[3]) + 1e-10
    RunConfig(correlation_times=(near,), **grid)
    snapshots = [solve([near]).snapshots for solve in solvers]
    for snaps in snapshots:
        assert list(snaps) == [float(times[3])]
    assert snapshots[0][float(times[3])].keys() == snapshots[1][float(times[3])].keys()
    off = float(times[3]) + 1e-6
    with pytest.raises(ConfigError, match="not on the time grid"):
        RunConfig(correlation_times=(off,), **grid)
    for solve in solvers:
        with pytest.raises(ValueError, match="not on the time grid"):
            solve([off])


def test_both_solvers_fill_the_same_trace_fields():
    """A single exact run and a single alpha=2 cumulant run fill the same
    ObservableTrace fields with the same shapes: one value or one row of
    populations per grid time, with the N x N moments only in snapshots."""
    arr = build_array(LatticeSpec(1, 3, 0.4), seed=0)
    cm = coupling_matrices(arr)
    init = InitialStateSpec(0.6)
    t = np.linspace(0.0, 1.0, 5)
    traces = (evolve_exact(init, arr, cm, t, snapshot_times=[0.5]),
              evolve_cumulant(init, arr, cm, ClosureOrder(2), t, snapshot_times=[0.5]))
    shapes = [{f.name: np.shape(getattr(trace, f.name)) for f in dataclasses.fields(trace)
               if isinstance(getattr(trace, f.name), np.ndarray)} for trace in traces]
    filled = [{f.name for f in dataclasses.fields(trace) if getattr(trace, f.name) is not None}
              for trace in traces]
    assert filled[0] == filled[1]
    assert shapes[0] == shapes[1]
    assert all(shape[0] == len(t) and len(shape) <= 2 for shape in shapes[0].values())


@pytest.mark.parametrize("init", [InitialStateSpec(0.3), BEAM_PULSE],
                         ids=["incoherent", "coherent"])
def test_diagonal_blocks_match_full_matrix_integration(init):
    # The solver tracks only the diagonal excitation blocks (924 entries),
    # which an incoherent start alone fills and a coherent one fills along
    # with every other offset; integrating all 4,096 entries of rho through
    # a dense Lindbladian built here from kron operators must give the same
    # observables.  The coherences carry the sign of J: flipping it leaves
    # every real observable of a real start unchanged.
    arr = build_array(LatticeSpec(2, 3, 0.3), seed=0)
    cm = coupling_matrices(arr)
    t = np.linspace(0, 2, 21)
    traj = evolve_exact(init, arr, cm, t, rtol=1e-10, atol=1e-12, snapshot_times=t)
    got = {"n_excited": traj.n_excited, "emission_rate": traj.emission_rate,
           "s_z_sq": snapshot_s_z_sq(traj), "coherences": snapshot_series(traj, "coherences")}
    rho0 = initial_density_matrix(init, arr)
    dim = rho0.shape[0]
    dense = _dense_lindblad_rhs(cm)

    def rhs(_t, y):
        return dense(y.view(complex).reshape(dim, dim)).ravel().view(np.float64)

    sol = solve_ivp(rhs, (0, 2), rho0.ravel().view(np.float64), method="DOP853",
                    t_eval=t, rtol=1e-10, atol=1e-12)
    for k in range(len(t)):
        rho = np.ascontiguousarray(sol.y[:, k]).view(complex).reshape(dim, dim)
        obs = observables_exact(rho, cm)
        for key in ("n_excited", "emission_rate", "s_z_sq", "coherences"):
            assert np.abs(got[key][k] - obs[key]).max() < 1e-8, (key, t[k])


def test_dop853_takes_scipys_steps():
    """The package DOP853 differs from scipy's only in how it sums: on a
    130-entry state, padded with zeros to 136 entries, it takes the same
    first step, error norm and steps up to rounding, after the same two RHS
    calls, and its padding stays zero."""
    rates = np.linspace(0.5, 2.0, 130)

    def rhs(_t, y):
        return -rates * y + 0.1 * np.sin(np.roll(y, 1))

    y0 = np.linspace(1.0, 2.0, 130)
    ours = exact.DOP853(rhs, 0.0, y0, t_bound=5.0, rtol=1e-9, atol=1e-11)
    theirs = DOP853(rhs, 0.0, y0, t_bound=5.0, rtol=1e-9, atol=1e-11)
    assert ours.nfev == theirs.nfev == 2
    assert ours.n_state == 130 and ours.y.shape == (136,)
    assert ours.h_abs == pytest.approx(theirs.h_abs, rel=1e-12)
    k = np.random.default_rng(0).normal(size=theirs.K.shape)
    scale = 1e-11 + 1e-9 * np.abs(ours.y)
    assert ours._estimate_error_norm(np.pad(k, ((0, 0), (0, 6))), 0.3, scale) == \
        pytest.approx(theirs._estimate_error_norm(k, 0.3, scale[:130]), rel=1e-12)
    steps = []
    for solver in (ours, theirs):
        while solver.status == "running":
            solver.step()
        steps.append((solver.nfev, solver.t))
    assert steps[0] == steps[1]
    np.testing.assert_allclose(ours.y[:130], theirs.y, rtol=1e-12)
    assert not ours.y[130:].any()


def test_dop853_hands_the_rhs_the_unpadded_state():
    """On a 130-entry state padded to 136, every RHS call sees 130 entries,
    and the padding of every stage row stays zero through steps and a dense
    output."""
    sizes = []

    def rhs(_t, y):
        sizes.append(len(y))
        return -y

    solver = exact.DOP853(rhs, 0.0, np.linspace(1.0, 2.0, 130), t_bound=1.0,
                          rtol=1e-9, atol=1e-11)
    for _ in range(3):
        solver.step()
    solver.dense_output()
    assert solver.K.shape == (16, 136)
    assert sizes == [130] * solver.nfev
    assert not solver.K[:, 130:].any()


def test_dop853_step_raises_a_step_size_collapse():
    """An RHS that turns NaN after the two calls that choose the first step
    makes `step()` raise the collapse itself, with the time it failed at."""
    calls = []

    def rhs(_t, y):
        calls.append(1)
        return -y if len(calls) <= 2 else np.full_like(y, np.nan)

    solver = exact.DOP853(rhs, 0.0, np.ones(2), t_bound=1.0, rtol=1e-8, atol=1e-10)
    with pytest.raises(IntegrationFailureError,
                       match=r"^integrator failed \(step-size collapse\) at t = 0$") as err:
        solver.step()
    assert err.value.time == 0.0


def test_integrate_on_grid_builds_no_stepper_on_one_point():
    """A one-point grid is observed at its start and builds no stepper."""

    class Unbuildable:
        def __init__(self, *args, **kwargs):
            raise AssertionError("stepper built")

    times, series, _ = integrate_on_grid(Unbuildable, lambda _t, y: -y, np.ones(1), [0.5],
                                         lambda t, y, _snap: ({"y": y[0]}, None),
                                         rtol=1e-8, atol=1e-10)
    np.testing.assert_array_equal(times, [0.5])
    np.testing.assert_array_equal(series["y"], [1.0])


def test_integrate_on_grid_logs_each_tenth_at_the_point_reaching_it(caplog):
    """Where one step spans several grid points, each tenth line still names
    the point that reached that tenth: 2 to 11 on an 11-point grid."""
    steps = []

    class Counting(exact.DOP853):
        def step(self):
            steps.append(1)
            super().step()

    caplog.set_level(logging.INFO, logger="dipolarray.exact")
    integrate_on_grid(Counting, lambda _t, y: -y, np.ones(1), np.linspace(0.0, 0.5, 11),
                      lambda t, y, _snap: ({"y": y[0]}, None), rtol=1e-6, atol=1e-8)
    assert len(steps) < 5
    lines = [r.getMessage() for r in caplog.records if r.name == "dipolarray.exact"]
    counts = [int(line.split(": ")[1].split(" of ")[0]) for line in lines[:10]]
    assert counts == list(range(2, 12))


def test_dop853_tableau_is_scipys_bit_for_bit():
    """The package holds the DOP853 constants itself; each is the double
    scipy holds for it, so the steps do not move when scipy is absent."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert exact.DOP853.A.shape == ref.A.shape
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(exact.DOP853, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


def test_integrate_on_grid_fails_on_a_non_finite_start():
    """A derivative that is NaN at the start is a typed failure before the
    first step, where scipy's first-step rule would pick a NaN step and
    reject steps forever (the RHS below gives up after 5000 calls)."""
    calls = []

    def rhs(_t, y):
        calls.append(1)
        if len(calls) > 5000:
            raise RuntimeError("still stepping")
        return np.full_like(y, np.nan)

    with pytest.raises(IntegrationFailureError, match="non-finite derivative at t = 0") as err:
        integrate_on_grid(exact.DOP853, rhs, np.ones(2), np.linspace(0.0, 1.0, 5),
                          lambda t, y, _snap: ({"y": y[0]}, None), rtol=1e-8, atol=1e-10)
    assert err.value.time == 0.0
    assert len(calls) == 1


DERIVATIVE_DIGESTS = """
import hashlib
import numpy as np
from dipolarray import cumulant, exact
from dipolarray.config import RunConfig
from dipolarray.couplings import coupling_matrices
from dipolarray.geometry import build_array

cfg = RunConfig(rows=2, cols=2, motion_enabled=True)  # 20,000 samples a pair
cpl = coupling_matrices(build_array(cfg.lattice_spec()), motion=cfg.motion_spec())
print(hashlib.sha256(cpl.J.tobytes() + cpl.Gamma.tobytes()).hexdigest())

def perturbed(y, seed):
    return y + 1e-3 * np.random.default_rng(seed).normal(size=y.shape)

for fields in (dict(rows=2, cols=5, solver="exact"),
               dict(rows=15, cols=15, closure_alpha=2),
               dict(rows=15, cols=15, closure_alpha=2, initial_state="coherent",
                    excitation_fraction=0.5)):
    cfg = RunConfig(spacing=0.3, **fields)
    array = build_array(cfg.lattice_spec(), drive=cfg.drive())
    cpl = coupling_matrices(array)
    if cfg.solver == "exact":
        layout = exact._Layout(array.n_atoms, (0,))
        y = perturbed(exact._product_start(cfg.initial_state_spec(), array, layout), 1)
        dy = exact._Generator(layout, cpl)(y)
    else:
        layout = cumulant._Layout(array.n_atoms, cfg.closure_order())
        y = perturbed(cumulant._product_start(cfg.initial_state_spec(), array, layout), 2)
        dy = cumulant._rhs_vector(y, cumulant._Workspace(layout, cpl))
    print(hashlib.sha256(dy.tobytes()).hexdigest())
"""


def test_couplings_and_derivatives_do_not_follow_the_blas_thread_count():
    """Motional couplings are averaged by numpy sums, and every GEMM of both
    solvers runs on an inner dimension padded to a multiple of 8, where
    OpenBLAS sums alike on any thread count: the motional couplings of a
    2x2 array, the exact derivative at N = 10 (blocks of up to 252 states)
    and the alpha=2 derivatives at N = 225 come out bit for bit the same
    under one BLAS thread and under two.  Only a machine with two cores
    tells them apart."""
    src = Path(exact.__file__).resolve().parents[1]
    digests = [subprocess.run([sys.executable, "-c", DERIVATIVE_DIGESTS],
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, check=True,
                              timeout=300).stdout.split()
               for threads in ("1", "2")]
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]


def test_integrate_on_grid_logs_progress(caplog):
    """One INFO line as each tenth of the grid is reached, then one with the
    RHS evaluations and accepted steps; the stacked series is untouched."""
    calls, steps = [], []

    def rhs(_t, y):
        calls.append(1)
        return -y

    class Counting(DOP853):
        def step(self):
            steps.append(1)
            return super().step()

    times = np.linspace(0.0, 2.0, 23)
    caplog.set_level(logging.INFO, logger="dipolarray.exact")
    _, series, _ = integrate_on_grid(Counting, rhs, np.ones(1), times,
                                     lambda t, y, _snap: ({"y": y[0]}, None),
                                     rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(series["y"], np.exp(-times), rtol=1e-8)
    assert all(r.levelno == logging.INFO for r in caplog.records)
    lines = [r.getMessage() for r in caplog.records if r.name == "dipolarray.exact"]
    assert len(lines) == 11
    counts = [int(line.split(": ")[1].split(" of ")[0]) for line in lines[:10]]
    assert counts == sorted(counts) and counts[-1] == len(times)
    for tenth, (line, count) in enumerate(zip(lines, counts), start=1):
        assert line.endswith(f"of {len(times)} grid points ({10 * tenth}%)")
        assert 10 * count >= tenth * len(times)
    assert lines[10] == (f"integration done at t = 2: {len(calls)} RHS evaluations, "
                         f"{len(steps)} accepted steps")
