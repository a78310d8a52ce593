"""End-to-end acceptance suite: one test per shipped guarantee.

Every run here is deterministic: seeds, time grids, and solver tolerances
are pinned, and each frozen tolerance carries the value measured on the
reference machine as a comment next to the assert.  Oracles that admit a
closed form or an independent integration route live in test_exact and are
imported, not re-derived.
"""

import math

import numpy as np
import pytest

from dipolarray.analysis import (
    DecayTrace,
    analytic_independent_spin,
    connected_correlations,
    fit_stretched,
    instantaneous_rate,
)
from dipolarray.cli import main as cli_main
from dipolarray.config import RunConfig, SweepConfig
from dipolarray.couplings import (
    CouplingMatrices,
    coupling_matrices,
    spectrum_scan,
)
from dipolarray.cumulant import ClosureOrder, evolve_cumulant, make_time_grid
from dipolarray.exact import InitialStateSpec, evolve_exact
from dipolarray.geometry import (
    DisorderSpec,
    DriveGeometry,
    LatticeSpec,
    build_array,
    dicke_array,
)
from dipolarray.runner import run, sweep, verify
from dipolarray.tableio import read_table
from curve_features import find_local_maxima, resonance_onsets
from readout import (
    exact_density_matrices,
    nearest_neighbor_mean,
    shot_moments,
    shot_sample,
    snapshot_s_z_sq,
)
from starts import pulse
from test_exact import dicke_ladder_ne, two_atom_inverted_ne

INVERTED = InitialStateSpec(1.0)
TIGHT = {"rtol": 1e-11, "atol": 1e-13}


# 1 ------------------------------------------------------------------------
def test_single_atom_decay_is_exact_for_all_solvers():
    times = np.linspace(0.0, 5.0, 101)
    array = build_array(LatticeSpec(rows=1, cols=1, spacing=0.5))
    cpl = coupling_matrices(array)
    target = np.exp(-times)
    traj = evolve_exact(INVERTED, array, cpl, times, **TIGHT)
    assert np.max(np.abs(traj.n_excited - target)) < 1e-8
    for alpha in (1, 2, 3):
        trace = evolve_cumulant(INVERTED, array, cpl, ClosureOrder(alpha),
                                times, **TIGHT)
        assert np.max(np.abs(trace.n_excited - target)) < 1e-8, f"alpha={alpha}"


# 2 ------------------------------------------------------------------------
def test_two_atom_closed_form_oracle_and_pair_closure_exactness():
    times = np.linspace(0.0, 5.0, 101)
    array = build_array(LatticeSpec(rows=1, cols=2, spacing=0.316))
    cpl = coupling_matrices(array)
    reference = two_atom_inverted_ne(times, float(cpl.Gamma[0, 1]))
    traj = evolve_exact(INVERTED, array, cpl, times, **TIGHT)
    assert np.max(np.abs(traj.n_excited - reference)) < 1e-6
    # for two inverted atoms there are no triples to close over, so the
    # pair-level closure must reproduce the exact curve to solver precision
    pair = evolve_cumulant(INVERTED, array, cpl, ClosureOrder(2), times, **TIGHT)
    assert np.max(np.abs(pair.n_excited - traj.n_excited)) < 1e-6


# 3 ------------------------------------------------------------------------
def test_dicke_ladder_oracle_and_superradiant_burst():
    n = 6
    times = np.linspace(0.0, 3.0, 121)
    array = dicke_array(n)
    cpl = coupling_matrices(array)
    traj = evolve_exact(INVERTED, array, cpl, times, **TIGHT)
    assert np.max(np.abs(traj.n_excited - dicke_ladder_ne(times, n))) < 1e-6
    # collective burst: peak emission beats n independent atoms
    assert np.max(traj.emission_rate) > n


# 4 ------------------------------------------------------------------------
def test_small_array_closure_accuracy_against_exact():
    times = np.linspace(0.0, 3.0, 61)
    array = build_array(LatticeSpec(rows=2, cols=4, spacing=0.316))
    cpl = coupling_matrices(array)
    traj = evolve_exact(INVERTED, array, cpl, times, rtol=1e-9, atol=1e-11)
    n0 = traj.n_excited[0]
    errors = {}
    # survival-curve error max_t |N_model - N_exact| / N(0);
    # measured 1.008e-2 (pair closure) and 2.69e-3 (triple closure)
    for alpha, bound in ((2, 0.02), (3, 0.005)):
        trace = evolve_cumulant(INVERTED, array, cpl, ClosureOrder(alpha),
                                times, rtol=1e-9, atol=1e-11)
        err = float(np.max(np.abs(trace.n_excited - traj.n_excited)) / n0)
        errors[alpha] = err
        assert err <= bound, f"alpha={alpha}: survival-curve error {err:.3%}"
    assert errors[3] < errors[2]


# 5 ------------------------------------------------------------------------
def test_initial_rate_is_single_atom_rate_at_any_spacing():
    times = np.linspace(0.0, 0.004, 5)
    for spacing in (0.15, 0.316, 0.5, 0.8):
        array = build_array(LatticeSpec(rows=10, cols=10, spacing=spacing))
        cpl = coupling_matrices(array)
        trace = evolve_cumulant(INVERTED, array, cpl, ClosureOrder(2), times)
        # the inverted product state carries no coherences, so the reported
        # t=0 rate per excitation is gamma0 to solver roundoff
        gamma_initial = trace.emission_rate[0] / trace.n_excited[0]
        assert abs(gamma_initial - 1.0) <= 0.02, f"a={spacing}"
        # short-step corroboration from the decay curve itself; the
        # collective rate climbs fast at a=0.15, costing ~0.4% over dt=0.001
        estimate = instantaneous_rate(trace.n_excited[0], trace.n_excited[1],
                                      float(times[1]))
        assert abs(estimate - 1.0) <= 0.02, f"a={spacing}: estimate {estimate}"


# 6 ------------------------------------------------------------------------
def test_superradiant_burst_and_peak_rate_scaling(tmp_path):
    base = RunConfig(spacing=0.316, solver="cumulant", closure_alpha=2,
                     grid_kind="linear", t_end=3.0, linear_points=61,
                     label="scaling", outdir="unused")
    cfg = SweepConfig(base=base, axis="atom_number",
                      values=(16, 36, 64, 100, 144))
    bundle = sweep(cfg, outdir=tmp_path / "scaling")
    assert not bundle.analysis["failed_points"]
    # total peak emission rate ~ N^1.036 measured on these five sizes
    # (experiment-scale reference sits near 1.06); per-atom exponent + 1
    # is the total-rate exponent, fitted on the same points
    exponent_total = bundle.analysis["exponent_peak_rate_per_atom"]["exponent"] + 1.0
    assert 0.5 <= exponent_total <= 1.5
    cols, _ = read_table(tmp_path / "scaling" / "sweep.csv")
    i100 = int(np.flatnonzero(cols["value"] == 100)[0])
    # burst on the 10x10: peak normalized rate measured 1.650 at t ~ 0.45
    assert cols["peak_gamma_normalized"][i100] > 1.0
    assert cols["t_peak"][i100] > 0.0


# 7 ------------------------------------------------------------------------
def test_subradiant_tail_rate_with_motional_averaging(tmp_path):
    cfg = RunConfig(rows=10, cols=10, spacing=0.316, solver="cumulant",
                    closure_alpha=2, motion_enabled=True,
                    grid_kind="standard", t_end=20.0, dense_until=5.0,
                    dense_step=0.05, log_points=40, label="tail")
    bundle = run(cfg, outdir=tmp_path / "tail")
    # measured: normalized peak 1.4711 at t=0.65
    assert bundle.analysis["peak_gamma_normalized"] > 1.0
    # late-time decades-long tail; last-grid-points rate measured 0.1899,
    # an order of magnitude below gamma0 but far above numerical floor
    tail = bundle.analysis["tail_rate"]
    assert 1.0 / 30.0 <= tail <= 0.5, f"tail rate {tail}"


# 8 ------------------------------------------------------------------------
def test_jump_spectrum_sum_rule_and_dicke_degeneracy():
    spec = LatticeSpec(rows=4, cols=5, spacing=0.37, fill_probability=0.8)
    array = build_array(spec, disorder=DisorderSpec(sigma=0.03), seed=3)
    rates = coupling_matrices(array).jump_rates
    n = array.n_atoms
    # trace identity: Gamma_ii = gamma0 regardless of geometry or disorder
    assert abs(float(rates.sum()) - n) <= 1e-10 * n
    dicke = coupling_matrices(dicke_array(6)).jump_rates
    assert abs(float(dicke[0]) - 6.0) <= 1e-10
    assert np.max(np.abs(dicke[1:])) <= 1e-10


# 9 ------------------------------------------------------------------------
def test_geometric_resonance_locations_and_disorder_suppression():
    spec = LatticeSpec(rows=12, cols=12, spacing=0.5)
    spacings = np.round(np.arange(0.32, 0.8001, 0.01), 10)
    clean = spectrum_scan(spec, spacings, DisorderSpec(sigma=0.0),
                          realizations=1)
    variance = clean["var_rate_median"]

    # disorder washes the resonances out: per-spacing seeds depend only on
    # the realization index, so probing three spacings reproduces the same
    # statistics a full scan would give at those columns.
    # measured contrast var(0.54)/var(0.49): 1.345 / 1.298 / 1.123 / 0.888
    # measured brightest-rate median at 0.52: 4.203 / 4.161 / 3.987 / 3.800
    probes = (0.49, 0.52, 0.54)
    contrasts, brightest = [], []
    for sigma in (0.0, 0.02, 0.05, 0.1):
        scan = spectrum_scan(spec, probes, DisorderSpec(sigma=sigma),
                             realizations=25)
        contrasts.append(scan["var_rate_median"][2] / scan["var_rate_median"][0])
        brightest.append(scan["max_rate_median"][1])
    assert np.all(np.diff(contrasts) < 0), f"contrasts {contrasts}"
    assert np.all(np.diff(brightest) < 0), f"brightest {brightest}"

    # location check against the two geometric references.  On this grid the
    # spectral-variance maxima sit at 0.54 and 0.74, a few steps above the
    # threshold-style onsets (0.505, 0.715) which DO land within the window;
    # the assert is kept at the stated reading and fails honestly.
    peaks = find_local_maxima(spacings, variance)
    onsets = resonance_onsets(spacings, variance)
    for target in (0.5, math.sqrt(0.5)):
        nearest = min(peaks, key=lambda p: abs(p - target))
        assert abs(nearest - target) <= 0.02, (
            f"variance peak nearest {target:.4f} is {nearest:.2f} "
            f"(all peaks {peaks}; onsets {onsets} do sit within 0.02)")


# 10 -----------------------------------------------------------------------
def test_partial_inversion_rate_ordering_and_survival():
    times = make_time_grid(dense_until=5.0, end=10.0, dense_step=0.05,
                           log_points=30)
    array = build_array(LatticeSpec(rows=8, cols=8, spacing=0.316))
    cpl = coupling_matrices(array)
    beam = DriveGeometry().beam_axis
    rates, survival = [], []
    for fraction in (0.1, 0.25, 0.5, 0.75, 0.96):
        init = InitialStateSpec(fraction, coherent=True, phase_gradient=beam)
        trace = evolve_cumulant(init, array, cpl,
                                ClosureOrder(2, coherent_sector=True), times)
        rates.append(float(trace.emission_rate[0] / trace.n_excited[0]))
        survival.append(float(trace.n_excited[-1] / trace.n_excited[0]))
    # weakly excited arrays radiate FASTER per excitation at t=0:
    # measured 2.820 / 2.517 / 2.011 / 1.506 / 1.081
    assert np.all(np.diff(rates) < 0), f"initial rates {rates}"
    # yet a macroscopic fraction survives to 10 lifetimes in every case:
    # measured 2.08% / 2.92% / 4.01% / 4.62% / 3.89%
    assert min(survival) > 0.02, f"survival {survival}"


# 11 -----------------------------------------------------------------------
def test_correlation_sign_crossover_and_estimator_agreement():
    snaps = (0.5, 2.5, 3.0)
    times = np.linspace(0.0, 3.0, 61)
    array = build_array(LatticeSpec(rows=3, cols=3, spacing=0.316))
    cpl = coupling_matrices(array)
    traj = evolve_exact(INVERTED, array, cpl, times, rtol=1e-8, atol=1e-10,
                        snapshot_times=snaps)
    rhos = exact_density_matrices(INVERTED, array, cpl, times, snaps,
                                  rtol=1e-8, atol=1e-10)
    nn = {}
    for t in snaps:
        k = int(np.flatnonzero(np.isclose(times, t))[0])
        snap = traj.snapshots[float(times[k])]
        moment_map = connected_correlations(
            array.atom_rc, snap["pair_populations"], snap["populations"],
            center_fraction=1.0)
        shots = shot_sample(rhos[t], 200000, seed=11)
        shot_map = connected_correlations(array.atom_rc, *shot_moments(shots),
                                          center_fraction=1.0)
        # moment route and sampled route agree within sampling error
        # (measured gap <= 5e-4 at 200k shots)
        assert abs(nearest_neighbor_mean(moment_map)
                   - nearest_neighbor_mean(shot_map)) <= 2e-3, f"t={t}"
        nn[t] = nearest_neighbor_mean(moment_map)
    # early: the first emitted photons leave bunched holes (measured +0.045)
    assert nn[0.5] > 0.01
    # late: surviving excitations avoid being neighbors
    # (measured -0.0056 at t=2.5, -0.0061 at t=3.0)
    assert nn[2.5] < -2e-3
    assert nn[3.0] < -2e-3


# 12 -----------------------------------------------------------------------
def test_rate_estimator_spin_identities_and_bootstrap_calibration():
    # the two-point rate estimator is exact on pure exponentials; input
    # rounding costs at most ~(tau/dt)*eps, far below the 1e-12 band
    rng = np.random.default_rng(7)
    for _ in range(500):
        tau = rng.uniform(0.5, 3.0)
        t0 = rng.uniform(0.0, 3.0)
        dt = rng.uniform(0.05, 1.0)
        est = instantaneous_rate(math.exp(-t0 / tau),
                                 math.exp(-(t0 + dt) / tau), dt)
        assert abs(est - 1.0 / tau) <= 1e-12 / tau

    # total-spin second moment of a uniform-phase pulse (excited fraction
    # p = sin^2 theta, pair coherence N(N-1) p (1-p)) is symmetric under
    # survival T -> 1-T
    transmitted = np.linspace(0.0, 1.0, 41)
    for theta in (0.3, 0.9, math.pi / 2):
        p = math.sin(theta) ** 2
        for n in (2, 10, 100):
            x0 = n * (n - 1) * p * (1 - p)
            _, s_fwd = analytic_independent_spin(p, x0, n, transmitted)
            _, s_rev = analytic_independent_spin(p, x0, n, 1.0 - transmitted)
            np.testing.assert_allclose(s_fwd, s_rev, rtol=0,
                                       atol=1e-12 * n * n)

    # and the closed form matches the exact solver once couplings are off
    n = 3
    arr = build_array(LatticeSpec(rows=1, cols=n, spacing=0.4))
    independent = CouplingMatrices(J=np.zeros((n, n)), Gamma=np.eye(n))
    theta = 0.6
    p = math.sin(theta) ** 2
    spin_times = np.linspace(0.0, 3.0, 13)
    traj = evolve_exact(pulse(2 * theta), arr,
                        independent, spin_times, snapshot_times=spin_times, **TIGHT)
    s_z_ref, s_sq_ref = analytic_independent_spin(p, n * (n - 1) * p * (1 - p), n,
                                                  np.exp(-spin_times))
    np.testing.assert_allclose(traj.s_z, s_z_ref, atol=1e-8)
    np.testing.assert_allclose(traj.m_perp_sq + snapshot_s_z_sq(traj), s_sq_ref,
                               atol=1e-8)

    # bootstrap 1-sigma interval covers the true decay constant ~68% of the
    # time; measured 131/200 on this seed chain
    rng = np.random.default_rng(2024)
    t = np.linspace(0.0, 3.0, 61)
    hits = 0
    for _ in range(200):
        y = np.clip(np.exp(-t) + rng.normal(0.0, 0.01, t.size), 1e-9, None)
        seed = int(rng.integers(2 ** 31))
        result = fit_stretched(DecayTrace(times=t, n_excited=y), 1,
                               n_resamples=500, seed=seed)
        b_hat = result.model.terms[0][1]
        hits += abs(b_hat - 1.0) <= result.param_std[1]
    coverage = hits / 200.0
    assert 0.63 <= coverage <= 0.73, f"coverage {coverage}"


# 13 -----------------------------------------------------------------------
def test_persisted_config_reruns_byte_identical_and_verifies(tmp_path):
    cfg = RunConfig(rows=2, cols=2, spacing=0.4, solver="exact",
                    grid_kind="linear", t_end=3.0, linear_points=31,
                    fit_terms=1, correlation_times=(0.0, 1.0),
                    master_seed=9, label="repro")
    first = run(cfg, outdir=tmp_path / "a")
    second = run(cfg, outdir=tmp_path / "b")
    rel_a = sorted(p.relative_to(first.outdir)
                   for p in first.outdir.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(second.outdir)
                   for p in second.outdir.rglob("*") if p.is_file())
    assert rel_a == rel_b and rel_a
    for rel in rel_a:
        assert (first.outdir / rel).read_bytes() == \
            (second.outdir / rel).read_bytes(), f"differs: {rel}"
    report = verify(first.outdir)  # raises VerificationError on any drift
    assert report["rerun"]
    assert cli_main(["verify", str(first.outdir)]) == 0
