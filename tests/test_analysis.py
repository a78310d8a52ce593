import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, nnls

from dipolarray import analysis as analysis_module
from dipolarray.analysis import (
    CorrelationMap,
    DecayTrace,
    StretchedExpModel,
    analytic_independent_spin,
    central_region_mask,
    connected_correlations,
    fit_stretched,
    instantaneous_rate,
    resonance_deviation,
    subradiant_tail,
)
from dipolarray.couplings import CouplingMatrices, coupling_matrices
from dipolarray.exact import InitialStateSpec, evolve_exact
from dipolarray.geometry import LatticeSpec, build_array
from dipolarray.seeding import STREAM_ENSEMBLE, derive_seed

from curve_features import model_slope, normalized_rate_from_fit
from readout import (
    SpinTrajectory,
    correlation_at,
    exact_density_matrices,
    magnetization_from_counts,
    nearest_neighbor_mean,
    shot_moments,
    shot_sample,
    snapshot_s_z_sq,
    spin_trajectory,
)
from starts import pulse


def exp_trace(tau=1.0, n0=10.0, t_end=5.0, n_pts=60, noise=0.0, seed=7):
    t = np.linspace(0.0, t_end, n_pts)
    y = n0 * np.exp(-t / tau)
    if noise:
        y = y * (1 + noise * np.random.default_rng(seed).standard_normal(n_pts))
    return DecayTrace(times=t, n_excited=y)


# ---------------------------------------------------------------- types

def test_decay_trace_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayTrace(times=[0.0, 1.0, 1.0], n_excited=[3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="negative"):
        DecayTrace(times=[0.0, 1.0], n_excited=[1.0, -0.5])
    for times, n_excited in [([0.0, np.nan, 2.0], [3.0, 2.0, 1.0]),
                             ([0.0, 1.0, np.inf], [3.0, 2.0, 1.0]),
                             ([0.0, 1.0, 2.0], [3.0, np.nan, 1.0]),
                             ([0.0, 1.0, 2.0], [np.inf, 2.0, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            DecayTrace(times=times, n_excited=n_excited)
    tr = DecayTrace(times=[0.0, 1.0], n_excited=[1.0, -1e-12])
    assert tr.n_excited[1] == 0.0


def test_decay_trace_from_run():
    arr = build_array(LatticeSpec(rows=1, cols=2, spacing=0.4))
    traj = evolve_exact(InitialStateSpec(1.0), arr,
                        coupling_matrices(arr), np.linspace(0, 1, 5))
    tr = DecayTrace.from_run(traj)
    np.testing.assert_allclose(tr.n_excited, traj.n_excited)


def test_stretched_model_basics():
    m = StretchedExpModel(terms=((2.0, 3.0, 1.0), (1.0, 0.5, 2.0)))
    # terms come back sorted by timescale
    assert m.terms[0][1] == 0.5
    assert m(0.0) == pytest.approx(3.0)
    t = np.linspace(0, 10, 200)
    assert np.all(np.diff(m(t)) <= 1e-12)
    with pytest.raises(ValueError, match="between one and three"):
        StretchedExpModel(terms=())
    with pytest.raises(ValueError, match="need A >= 0"):
        StretchedExpModel(terms=((1.0, -2.0, 1.0),))
    with pytest.raises(ValueError, match="support"):
        m(np.array([-0.1, 1.0]))


def test_normalized_rate_single_exponential():
    tau = 1.7
    m = StretchedExpModel(terms=((5.0, tau, 1.0),))
    tr = exp_trace(tau=tau, n0=5.0)
    gamma = normalized_rate_from_fit(tr, m)
    np.testing.assert_allclose(gamma, 1.0 / tau, rtol=1e-12)


def test_normalized_rate_quadratic_exponent():
    b = 2.0
    m = StretchedExpModel(terms=((1.0, b, 2.0),))
    t = np.linspace(0.1, 3.0, 30)
    tr = DecayTrace(times=t, n_excited=np.exp(-((t / b) ** 2)))
    np.testing.assert_allclose(normalized_rate_from_fit(tr, m), 2 * t / b**2, rtol=1e-12)


def test_normalized_rate_rejects_vanishing_model():
    m = StretchedExpModel(terms=((0.0, 1.0, 1.0),))
    with pytest.raises(ValueError, match="non-positive"):
        normalized_rate_from_fit(exp_trace(), m)


# ---------------------------------------------------- instantaneous rate

@settings(max_examples=200, deadline=None)
@given(tau=st.floats(0.05, 50.0), t0=st.floats(0.0, 10.0),
       dt=st.floats(1e-4, 5.0), amp=st.floats(0.01, 1e4))
def test_instantaneous_rate_exact_on_exponentials(tau, t0, dt, amp):
    # Stay clear of dt >> tau, where n1 falls below the float resolution of
    # n0; test_instantaneous_rate_on_a_steep_pair covers that regime.
    assume(dt <= 25 * tau)
    n0 = amp * math.exp(-t0 / tau)
    n1 = amp * math.exp(-(t0 + dt) / tau)
    est = instantaneous_rate(n0, n1, dt)
    # The estimator is algebraically exact; rounding of the input samples
    # enters the recovered rate amplified by (tau + 2*t0)/dt, so the float
    # tolerance has to carry that conditioning factor.
    rel = max(1e-12, 20 * np.finfo(float).eps * (tau + 2 * t0 + dt) / dt)
    assert est == pytest.approx(1.0 / tau, rel=rel)


def test_instantaneous_rate_small_dt_is_midpoint_derivative():
    tau, dt = 2.0, 1e-6
    n0, n1 = math.exp(-1.0 / tau), math.exp(-(1.0 + dt) / tau)
    d_m = (n0 - n1) / (n0 + n1) * 2.0 / dt
    est = instantaneous_rate(n0, n1, dt)
    assert est == pytest.approx(d_m, rel=1e-9)


def test_instantaneous_rate_on_a_steep_pair():
    # n1/n0 below the float resolution: (n0 - n1)/(n0 + n1) rounds to 1, yet
    # log(n0/n1)/dt is well defined
    assert instantaneous_rate(1.0, 1e-17, 0.05) == pytest.approx(math.log(1e17) / 0.05,
                                                                 rel=1e-15)
    rates = instantaneous_rate([1.0, 1e300], [1e-300, 1.0], 1.0)
    np.testing.assert_allclose(rates, [math.log(1e300)] * 2, rtol=1e-15)


def test_instantaneous_rate_flags_and_errors():
    assert instantaneous_rate(1.0, 1.0, 0.5) == 0.0
    assert instantaneous_rate(0.5, 1.0, 0.5) < 0
    with pytest.raises(ValueError, match="positive"):
        instantaneous_rate(0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="dt"):
        instantaneous_rate(2.0, 1.0, -0.5)
    rates = instantaneous_rate([2.0, 1.0], [1.0, 2.0], 1.0)
    assert rates.shape == (2,) and rates[0] > 0
    assert rates[0] == pytest.approx(-rates[1])


# ------------------------------------------------------------- fitting

def test_stretched_kernel_batches_bitwise_and_slope_is_the_derivative():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 6.0, 61)
    params = np.column_stack([rng.uniform(0.1, 5.0, 8), rng.uniform(0.2, 4.0, 8),
                              rng.uniform(0.3, 3.0, 8)] * 2)  # 8 two-term sets
    value = analysis_module._stretched(params, t)
    assert value.shape == (8, t.size)
    for p, v in zip(params, value):
        np.testing.assert_array_equal(analysis_module._stretched(p, t), v)
        model = StretchedExpModel(terms=(tuple(p[:3]), tuple(p[3:])))
        if p[1] <= p[4]:  # the model sums its terms in timescale order
            np.testing.assert_array_equal(model(t), v)
        # the closed-form slope behind normalized_rate_from_fit
        h = 1e-6
        fd = (model(t[1:] + h) - model(t[1:] - h)) / (2 * h)
        np.testing.assert_allclose(model_slope(model, t[1:]), fd, rtol=1e-6, atol=1e-8)


def test_stretched_parameter_jacobian_matches_central_differences():
    # Two terms, one with C < 1 (divergent slope at t = 0), from t = 0 through
    # a point just after it to t = 4.
    p = np.array([2.0, 0.7, 0.6, 1.5, 2.5, 1.8])
    t = np.concatenate([[0.0, 1e-3], np.linspace(0.1, 4.0, 40)])
    _, d_value = analysis_module._stretched(p, t, jac=True)
    assert d_value.shape == (t.size, p.size)
    assert np.all(np.isfinite(d_value))
    for j in range(p.size):
        h = 1e-6 * p[j]
        up, down = p.copy(), p.copy()
        up[j] += h
        down[j] -= h
        fd = (analysis_module._stretched(up, t) - analysis_module._stretched(down, t)) / (2 * h)
        np.testing.assert_allclose(d_value[:, j], fd, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("k", [1], ids=["one_term"])
def test_batched_refits_match_per_resample_scipy(k):
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 3.0, 61)
    y = np.exp(-t / 0.8) * (1 + 0.01 * rng.standard_normal(t.size))
    fit = fit_stretched(DecayTrace(times=t, n_excited=y), k, n_resamples=0)
    p_hat = np.ravel(fit.model.terms)
    y_star = fit.model(t) + rng.choice(fit.residuals, size=(40, t.size))
    batch, converged = analysis_module._refit_batch(t, y_star, p_hat, max_nfev=400)
    assert converged.all()
    # the reference: one scipy TRF refit per resample, at 1e-10 tolerances
    reference = np.array([least_squares(
        analysis_module._residuals, p_hat, args=(t, y),
        bounds=analysis_module._bounds(k), method="trf", xtol=1e-10, ftol=1e-10,
        gtol=1e-10, max_nfev=400).x for y in y_star])

    def cost(p):
        r = analysis_module._residuals(p, t, y_star)
        return 0.5 * np.sum(r * r, axis=1)

    np.testing.assert_allclose(cost(batch), cost(reference), rtol=1e-9)
    np.testing.assert_allclose(batch, reference, rtol=1e-6)


def scipy_multistart_cost(t, y, k):
    """Lowest cost of one scipy TRF fit per start of the fixed start design."""
    return min(least_squares(analysis_module._residuals, p0, args=(t, y),
                             bounds=analysis_module._bounds(k), method="trf", xtol=1e-10,
                             ftol=1e-10, gtol=1e-10, max_nfev=2000).cost
               for p0 in analysis_module._starting_points(t, y, k))


@pytest.mark.parametrize("k", [1, 2], ids=["one_term", "two_term"])
def test_multistart_reaches_scipy_trf_cost(k):
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 3.0, 61)
    truth = np.exp(-t / 0.8) if k == 1 else 3.0 * np.exp(-t / 0.3) + 2.0 * np.exp(-t / 1.6)
    y = truth * (1 + 0.01 * rng.standard_normal(t.size))
    fit = fit_stretched(DecayTrace(times=t, n_excited=y), k, n_resamples=0)
    assert fit.cost <= scipy_multistart_cost(t, y, k) * (1 + 1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_start_design_is_the_scipy_latin_hypercube(k):
    from scipy.stats import qmc
    u = qmc.LatinHypercube(d=2 * k, seed=analysis_module._FIT_START_SEED).random(16)
    t = np.linspace(0.0, 5.0, 60)
    starts = np.array(analysis_module._starting_points(t, 10.0 * np.exp(-t), k))
    log_lo, log_hi = math.log(5.0 / 30.0), math.log(15.0)
    np.testing.assert_array_equal(starts[:, 1::3], np.exp(log_lo + u[:, :k] * (log_hi - log_lo)))
    np.testing.assert_array_equal(starts[:, 2::3], 0.3 + u[:, k:] * (3.0 - 0.3))


def nnls_cases(k):
    """(design, data) pairs with k columns: random designs, decaying positive
    columns like the fit's with data they fit, the same columns with data
    that fits no positive amplitude, and (k >= 2) a design whose second
    column is minus its first, so that every set holding both is singular."""
    rng = np.random.default_rng(40 + k)
    cases = [(rng.normal(size=(30, k)), rng.normal(size=30)) for _ in range(20)]
    t = np.linspace(0.0, 3.0, 61)
    shapes = np.exp(-np.outer(t, rng.uniform(0.3, 3.0, k)))
    cases.append((shapes, shapes @ rng.uniform(0.5, 2.0, k) + 0.01 * rng.normal(size=61)))
    cases.append((shapes, -shapes.sum(axis=1)))
    if k >= 2:
        a = rng.normal(size=(30, k))
        a[:, 1] = -a[:, 0]
        cases.append((a, 1.5 * a[:, 0] + a[:, 2:].sum(axis=1) + 0.01 * rng.normal(size=30)))
    return cases


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nnls_matches_scipy(k):
    """The package's NNLS reaches scipy's active set, its amplitudes within
    1e-12 of the largest, and no higher residual."""
    cases = nnls_cases(k)
    for a, y in cases:
        ours, (theirs, residual) = analysis_module._nnls(a, y), nnls(a, y)
        np.testing.assert_array_equal(ours > 0, theirs > 0)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12 * np.abs(theirs).max())
        assert np.linalg.norm(a @ ours - y) <= residual * (1 + 1e-12)
    assert not analysis_module._nnls(*cases[21]).any()  # the data no positive amplitude fits


def test_damped_steps_take_least_squares_on_a_singular_system():
    """Coinciding terms give equal Jacobian columns: once the damping has
    decayed to roundoff, a row's damped system is singular.  That row takes
    the minimum-norm least-squares step, and the batch does not raise."""
    lhs = np.array([[[2.0, 1.0], [1.0, 3.0]], [[5.0, 5.0], [5.0, 5.0]]])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0]])
    steps = analysis_module._damped_steps(lhs, rhs)
    np.testing.assert_allclose(steps[0], np.linalg.solve(lhs[0], rhs[0]), rtol=1e-14)
    np.testing.assert_allclose(steps[1], [0.1, 0.1], rtol=1e-14)
    assert analysis_module._damped_steps(lhs[:1], rhs[:1]).tobytes() == \
        np.linalg.solve(lhs[:1], rhs[:1, :, None])[..., 0].tobytes()


def test_package_runs_on_numpy_alone(tmp_path):
    """A fresh interpreter: neither importing the package nor an exact run
    with a fit, its bootstrap and a correlation snapshot, an alpha=2 run and
    a disorder sweep, which takes percentiles of the jump spectra, loads a
    scipy module, and the runs load no module the import did not, so no
    import cost lands inside a run."""
    script = (
        "import sys\n"
        "import dipolarray\n"
        "from dipolarray import RunConfig, SweepConfig, run, sweep\n"
        "loaded = set(sys.modules)\n"
        "def check(step):\n"
        "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], step\n"
        "    assert set(sys.modules) <= loaded, (step, sorted(set(sys.modules) - loaded))\n"
        "check('import')\n"
        "run(RunConfig(rows=2, cols=2, spacing=0.4, solver='exact', grid_kind='linear',\n"
        "              t_end=3.0, linear_points=31, correlation_times=(1.0,),\n"
        "              fit_terms=1, fit_resamples=4), outdir=sys.argv[1] + '/exact')\n"
        "check('exact run')\n"
        "run(RunConfig(rows=3, cols=3, spacing=0.3, closure_alpha=2, grid_kind='linear',\n"
        "              t_end=1.0, linear_points=11), outdir=sys.argv[1] + '/alpha2')\n"
        "check('cumulant run')\n"
        "sweep(SweepConfig(base=RunConfig(rows=1, cols=2, solver='exact', grid_kind='linear',\n"
        "                                 t_end=2.0, linear_points=21),\n"
        "                  axis='disorder_sigma', values=(0.0, 0.02)),\n"
        "      outdir=sys.argv[1] + '/sweep')\n"
        "check('sweep')\n")
    src = Path(analysis_module.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_package_runs_without_loading_scipy_stats(tmp_path):
    # A fresh interpreter: importing the package, and a run with a fit and
    # correlation snapshots, must not pay for the scipy.stats import.
    script = (
        "import sys\n"
        "import dipolarray\n"
        "assert 'scipy.stats' not in sys.modules, 'import'\n"
        "from dipolarray import RunConfig, run\n"
        "run(RunConfig(rows=2, cols=2, spacing=0.4, solver='exact', grid_kind='linear',\n"
        "              t_end=3.0, linear_points=31, correlation_times=(1.0,),\n"
        "              fit_terms=1, fit_resamples=4), outdir=sys.argv[1])\n"
        "assert 'scipy.stats' not in sys.modules, 'run'\n")
    src = Path(analysis_module.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_fit_single_exponential_with_noise():
    tau = 1.3
    tr = exp_trace(tau=tau, n0=8.0, noise=0.01, seed=3)
    fit = fit_stretched(tr, 1, n_resamples=0)
    a, b, c = fit.model.terms[0]
    assert b == pytest.approx(tau, rel=0.02)
    assert c == pytest.approx(1.0, abs=0.05)
    assert a == pytest.approx(8.0, rel=0.03)


def test_fit_noiseless_with_redundant_terms(monkeypatch):
    # Starts whose three terms merge into the one exponential crawl toward a
    # zero cost, where the relative stopping tests cannot fire, unless the
    # data floor stops them (950 evaluations without it).
    jac_calls = []
    real = analysis_module._residuals

    def counted(params, t, y, jac=False):
        jac_calls.append(jac)
        return real(params, t, y, jac)

    monkeypatch.setattr(analysis_module, "_residuals", counted)
    tr = exp_trace(tau=0.8, n0=4.0)
    fit = fit_stretched(tr, 3, n_resamples=0)
    assert fit.rms_residual < 1e-6
    assert sum(jac_calls) < 800      # one call per evaluation of the batch


def test_fit_three_term_curve_recovery():
    rng = np.random.default_rng(11)
    truth = StretchedExpModel(terms=((3.0, 0.35, 1.6), (1.5, 1.2, 1.0), (0.8, 6.0, 0.7)))
    t = np.linspace(0.0, 12.0, 120)
    y = truth(t) * (1 + 0.005 * rng.standard_normal(t.size))
    fit = fit_stretched(DecayTrace(times=t, n_excited=y), 3, n_resamples=0)
    rms = np.sqrt(np.mean((fit.model(t) - truth(t)) ** 2))
    assert rms < 0.01 * truth(0.0)


def test_fit_window_and_preconditions():
    tr = exp_trace(n_pts=40, t_end=8.0)
    fit = fit_stretched(tr, 1, window=2.0, n_resamples=0)
    assert fit.times[-1] <= 2.0
    with pytest.raises(ValueError, match="need at least"):
        fit_stretched(exp_trace(n_pts=7), 2, n_resamples=0)
    with pytest.raises(ValueError, match="n_terms"):
        fit_stretched(tr, 4)
    with pytest.raises(ValueError, match="0 \\(skip\\) or at least 2"):
        fit_stretched(tr, 1, n_resamples=1)


def test_fit_is_deterministic():
    tr = exp_trace(noise=0.02, seed=5)
    f1 = fit_stretched(tr, 2, n_resamples=25, seed=4)
    f2 = fit_stretched(tr, 2, n_resamples=25, seed=4)
    assert f1.model.terms == f2.model.terms
    np.testing.assert_array_equal(f1.curve_std, f2.curve_std)


def test_fit_warns_once_on_unconverged_resamples(monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="dipolarray.analysis")
    tr = exp_trace(noise=0.02, seed=5)
    converged = fit_stretched(tr, 1, n_resamples=12, seed=4)
    assert not caplog.records
    assert converged.n_converged == 12

    real = analysis_module._refit_batch

    def starved(*args, **kwargs):
        if kwargs["max_nfev"] == analysis_module._MULTISTART_MAX_NFEV:
            return real(*args, **kwargs)
        assert kwargs["max_nfev"] == analysis_module._RESAMPLE_MAX_NFEV
        kwargs["max_nfev"] = 1  # no evaluation beyond the start
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "_refit_batch", starved)
    fit = fit_stretched(tr, 1, n_resamples=12, seed=4)
    assert [r.getMessage() for r in caplog.records] == [
        "12 of 12 bootstrap resamples stopped at the 400-evaluation budget "
        "before converging"]
    assert fit.model.terms == converged.model.terms
    assert fit.n_converged == 0


def test_fit_warns_once_on_unconverged_multistart(monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="dipolarray.analysis")
    tr = exp_trace(noise=0.02, seed=5)
    real = analysis_module._refit_batch

    def starved(*args, **kwargs):
        if kwargs["max_nfev"] == analysis_module._MULTISTART_MAX_NFEV:
            kwargs["max_nfev"] = 1  # every start stops where it began
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "_refit_batch", starved)
    fit = fit_stretched(tr, 1, n_resamples=12, seed=4)
    assert [r.getMessage() for r in caplog.records] == [
        "the selected fit start stopped at the 2000-evaluation budget before converging"]
    assert fit.n_converged == 12


def test_bootstrap_interval_calibration_smoke():
    # Reduced-size version of the coverage calibration: +-1 sigma bootstrap
    # bands on a noisy exponential should cover the truth roughly 68% of
    # the time.  The full-size calibration lives in the acceptance suite.
    truth = StretchedExpModel(terms=((5.0, 1.0, 1.0),))
    t = np.linspace(0.0, 4.0, 25)
    g = truth(t)
    rng = np.random.default_rng(42)
    hits = total = 0
    for _ in range(40):
        y = g + 0.015 * truth(0.0) * rng.standard_normal(t.size)
        fit = fit_stretched(DecayTrace(times=t, n_excited=np.maximum(y, 1e-9)), 1,
                            n_resamples=80, seed=int(rng.integers(2**31)))
        f = fit.model(t)
        for k in (2, 8, 14, 20):
            hits += abs(f[k] - g[k]) <= fit.curve_std[k]
            total += 1
    assert 0.50 <= hits / total <= 0.85


# -------------------------------------------------------- correlations

def test_central_region_mask_sizes():
    rc10 = np.array([(r, c) for r in range(10) for c in range(10)])
    mask = central_region_mask(rc10, 0.5)
    assert mask.sum() == 49
    kept = rc10[mask]
    assert kept[:, 0].min() == 1 and kept[:, 0].max() == 7
    rc4 = np.array([(r, c) for r in range(4) for c in range(4)])
    assert central_region_mask(rc4, 0.5).sum() == 9
    assert central_region_mask(rc4, 1.0).all()
    with pytest.raises(ValueError):
        central_region_mask(rc4, 0.0)


def test_correlations_iid_shots():
    rng = np.random.default_rng(0)
    rc = np.array([(r, c) for r in range(4) for c in range(4)])
    shots = rng.binomial(1, 0.5, size=(20000, 16)).astype(float)
    cmap = connected_correlations(rc, *shot_moments(shots), center_fraction=1.0)
    assert correlation_at(cmap, (0, 0)) == pytest.approx(1.0, abs=0.05)
    off = cmap.values[np.any(cmap.displacements != 0, axis=1)]
    assert np.max(np.abs(off)) < 0.05


def test_correlations_perfectly_correlated_shots():
    rng = np.random.default_rng(1)
    rc = np.array([(0, c) for c in range(5)])
    bits = rng.binomial(1, 0.5, size=4000).astype(float)
    shots = np.repeat(bits[:, None], 5, axis=1)
    cmap = connected_correlations(rc, *shot_moments(shots), center_fraction=1.0)
    np.testing.assert_allclose(cmap.values, cmap.values[0])
    assert cmap.values[0] > 0.98
    assert nearest_neighbor_mean(cmap) > 0.98


def test_correlations_moment_path_matches_shot_path():
    arr = build_array(LatticeSpec(rows=1, cols=6, spacing=0.4))
    cpl = coupling_matrices(arr)
    times = np.array([0.0, 0.5])
    traj = evolve_exact(InitialStateSpec(1.0), arr, cpl, times,
                        snapshot_times=[0.5])
    rho = exact_density_matrices(InitialStateSpec(1.0), arr, cpl, times, [0.5])[0.5]
    snap = traj.snapshots[0.5]
    cm_mom = connected_correlations(arr.atom_rc, snap["pair_populations"],
                                    snap["populations"], center_fraction=1.0)
    shots = shot_sample(rho, shots=200_000, seed=9)
    cm_shot = connected_correlations(arr.atom_rc, *shot_moments(shots),
                                     center_fraction=1.0)
    np.testing.assert_array_equal(cm_mom.displacements, cm_shot.displacements)
    np.testing.assert_array_equal(cm_mom.pair_counts, cm_shot.pair_counts)
    np.testing.assert_allclose(cm_mom.values, cm_shot.values, atol=0.02)


def test_correlations_region_and_input_errors():
    """Two atoms loaded at the ends of a 1x10 row (the first loading of
    master seed 0) leave the central half-region empty."""
    arr = build_array(LatticeSpec(1, 10, 0.3, atom_number_target=2),
                      seed=derive_seed(0, STREAM_ENSEMBLE, 0))
    traj = evolve_exact(InitialStateSpec(1.0), arr, coupling_matrices(arr), [0.0, 0.5],
                        snapshot_times=[0.5])
    snap = traj.snapshots[0.5]
    sites, moments = snap["sites"], (snap["pair_populations"], snap["populations"])
    assert sites.tolist() == [[0, 0], [0, 9]]
    with pytest.raises(ValueError, match="region is empty"):
        connected_correlations(sites, *moments)
    full = connected_correlations(sites, *moments, center_fraction=1.0)
    assert full.pair_counts.sum() == 4
    with pytest.raises(ValueError, match="sites must provide"):
        connected_correlations(sites[:, 0], *moments)
    with pytest.raises(ValueError, match="pair_populations must be"):
        connected_correlations(sites, moments[0][:1], moments[1])


def test_correlation_map_lookup_and_roundtrip():
    rc = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    pop = np.full(4, 0.5)
    nn = np.full((4, 4), 0.25)
    np.fill_diagonal(nn, pop)
    cmap = connected_correlations(rc, nn, pop, center_fraction=1.0)
    assert correlation_at(cmap, (0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert correlation_at(cmap, (0, 0)) == pytest.approx(1.0)
    with pytest.raises(KeyError):
        correlation_at(cmap, (5, 5))


def test_correlation_map_validation():
    d = np.array([[0, 1], [0, -1]])
    with pytest.raises(ValueError, match="asymmetric"):
        CorrelationMap(displacements=d, values=np.array([0.5, -0.5]),
                       pair_counts=np.array([2, 2]))
    with pytest.raises(ValueError, match="mirror"):
        CorrelationMap(displacements=np.array([[0, 1]]), values=np.array([0.5]),
                       pair_counts=np.array([2]))
    with pytest.raises(ValueError, match="outside"):
        CorrelationMap(displacements=np.array([[0, 0]]), values=np.array([1.5]),
                       pair_counts=np.array([2]))


# ------------------------------------------------------------- spin

def test_spin_trajectory_inverted_and_ground():
    arr = build_array(LatticeSpec(rows=2, cols=2, spacing=0.5))
    cpl = coupling_matrices(arr)
    times = np.array([0.0, 0.01])
    up = spin_trajectory(evolve_exact(InitialStateSpec(1.0), arr, cpl, times))
    assert up.s_z[0] == pytest.approx(2.0, abs=1e-9)
    assert up.m_perp_sq[0] == pytest.approx(2.0, abs=1e-9)
    assert up.s_tot[0] == pytest.approx(math.sqrt(4.0 + 2.0), abs=1e-9)
    down = spin_trajectory(evolve_exact(InitialStateSpec(0.0), arr, cpl, times))
    assert down.s_z[0] == pytest.approx(-2.0, abs=1e-9)
    assert down.m_perp_sq[0] == pytest.approx(2.0, abs=1e-9)


def test_spin_trajectory_validation():
    with pytest.raises(ValueError, match="negative transverse"):
        SpinTrajectory(times=np.array([0.0, 1.0]), s_z=np.zeros(2),
                       m_perp_sq=np.array([-0.1, 0.0]), n_atoms=2)
    st_ok = SpinTrajectory(times=np.array([0.0, 1.0]), s_z=np.array([1.0, -1.0]),
                           m_perp_sq=np.array([0.0, 4.0]), n_atoms=2)
    assert np.all(st_ok.s_tot >= np.abs(st_ok.s_z))


@pytest.mark.parametrize("init", [
    InitialStateSpec(1.0),
    InitialStateSpec(0.3),
    InitialStateSpec(0.5),
    pulse(math.pi / 2),
    pulse(math.pi / 2, k_laser=(1.0, 0.0, 0.0), phase_offset=0.4),
], ids=["inverted", "incoherent_03", "incoherent_05", "uniform_pulse", "beam_pulse"])
def test_analytic_spin_matches_independent_decay(init):
    """The closed form, fed the start's p and summed pair coherence, is the
    exact solve of uncoupled atoms: S_z, and <S^2> = M^2 + <S_z^2> with
    <S_z^2> read off the snapshots."""
    n = 4
    arr = build_array(LatticeSpec(rows=2, cols=2, spacing=0.4))
    cpl = CouplingMatrices(J=np.zeros((n, n)), Gamma=np.eye(n))
    p, b = init.single_atom_moments(arr)
    x0 = abs(b.sum()) ** 2 - (abs(b) ** 2).sum()  # sum_{i != j} Re conj(b_i) b_j
    times = np.linspace(0.0, 3.0, 13)
    traj = evolve_exact(init, arr, cpl, times, rtol=1e-11, atol=1e-13, snapshot_times=times)
    s_z_ref, s_tot_sq_ref = analytic_independent_spin(p[0], x0, n, np.exp(-times))
    np.testing.assert_allclose(traj.s_z, s_z_ref, atol=1e-8)
    np.testing.assert_allclose(traj.m_perp_sq + snapshot_s_z_sq(traj), s_tot_sq_ref, atol=1e-8)


def test_analytic_spin_symmetry_and_endpoints():
    # a uniform-phase pulse of excited fraction p = sin^2(theta) has the pair
    # coherence x0 = N(N-1) p (1-p), and its <S^2> is symmetric under T -> 1-T
    t_grid = np.linspace(0.0, 1.0, 41)
    for theta in (0.3, 0.9, math.pi / 2):
        p = math.sin(theta) ** 2
        for n in (2, 10, 100):
            x0 = n * (n - 1) * p * (1 - p)
            _, s1 = analytic_independent_spin(p, x0, n, t_grid)
            _, s2 = analytic_independent_spin(p, x0, n, 1.0 - t_grid)
            np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12 * n * n)
    s_z, s_tot_sq = analytic_independent_spin(1.0, 0.0, 8, 1.0)
    assert s_z == pytest.approx(4.0)
    assert s_tot_sq == pytest.approx(0.75 * 8 + 8 * 7 * 0.25)
    s_z0, s_tot_sq0 = analytic_independent_spin(1.0, 0.0, 8, 0.0)
    assert s_z0 == pytest.approx(-4.0)
    assert s_tot_sq0 == pytest.approx(s_tot_sq)
    with pytest.raises(ValueError, match="transmitted"):
        analytic_independent_spin(0.5, 0.0, 4, 1.2)


def test_magnetization_from_counts():
    rng = np.random.default_rng(8)
    loading = np.full(500, 100.0)  # zero loading variance
    measured = rng.normal(50.0, 5.0, size=500)
    m = magnetization_from_counts(measured, loading)
    expect = math.sqrt(measured.var(ddof=1) / (2 * measured.mean() ** 2))
    assert m == pytest.approx(expect, rel=1e-12)
    # loading noise dominating the measured spread -> below noise floor
    noisy_loading = rng.normal(100.0, 30.0, size=500)
    quiet = rng.normal(50.0, 0.5, size=500)
    assert magnetization_from_counts(quiet, noisy_loading) is None
    with pytest.raises(ValueError, match="at least two"):
        magnetization_from_counts([1.0], [1.0, 2.0])


# ------------------------------------------------- resonance + tail

def test_resonance_deviation_independent_decay_is_zero():
    tr = exp_trace(tau=1.0, n0=6.0, t_end=2.0, n_pts=50)
    dev = resonance_deviation(tr)
    assert abs(dev) < 0.01


def test_resonance_deviation_scale_invariant_and_signed():
    t = np.linspace(0.0, 2.0, 50)
    y = 5.0 * np.exp(-t) * (1 - 0.2 * np.exp(-((t - 0.4) ** 2) / 0.05))
    dev1 = resonance_deviation(DecayTrace(times=t, n_excited=y))
    dev2 = resonance_deviation(DecayTrace(times=t, n_excited=7.0 * y))
    assert dev1 > 0.05
    assert dev2 == pytest.approx(dev1, rel=1e-6)
    with pytest.raises(ValueError, match="cover"):
        resonance_deviation(exp_trace(t_end=1.0))


def test_resonance_deviation_is_the_grid_max_and_roundoff_stable():
    # The 1x4 chain at 0.5 lambda on the spacing sweep's linear grid decays
    # nearly as one exponential.  The deviation is read off the grid points
    # in the window, so 1e-15 relative noise on the trace moves it by roundoff
    # alone.
    arr = build_array(LatticeSpec(rows=1, cols=4, spacing=0.5))
    t = np.linspace(0.0, 3.0, 31)
    y = evolve_exact(InitialStateSpec(1.0), arr, coupling_matrices(arr), t).n_excited
    dev = resonance_deviation(DecayTrace(times=t, n_excited=y))
    w = t <= 1.75
    g = y[0] * np.exp(-t[w])
    assert dev == np.max((g - y[w]) / g)
    assert dev > 0
    rng = np.random.default_rng(3)
    for _ in range(5):
        noisy = y * (1 + 1e-15 * rng.standard_normal(t.size))
        assert abs(resonance_deviation(DecayTrace(times=t, n_excited=noisy)) - dev) < 1e-13


def test_subradiant_tail_pure_exponential():
    tr = exp_trace(tau=4.0, t_end=20.0, n_pts=80)
    assert subradiant_tail(tr) == pytest.approx(0.25, rel=1e-9)


def test_subradiant_tail_two_mode():
    t = np.linspace(0.0, 60.0, 200)
    y = 5.0 * np.exp(-t) + 0.3 * np.exp(-0.1 * t)
    rate = subradiant_tail(DecayTrace(times=t, n_excited=y))
    assert rate == pytest.approx(0.1, rel=1e-3)


def test_subradiant_tail_errors():
    t = np.linspace(0.0, 3.0, 10)
    y = np.concatenate([np.ones(8), np.zeros(2)])
    with pytest.raises(ValueError, match="non-positive"):
        subradiant_tail(DecayTrace(times=t, n_excited=y))
    with pytest.raises(ValueError, match="shorter"):
        subradiant_tail(exp_trace(n_pts=2))
