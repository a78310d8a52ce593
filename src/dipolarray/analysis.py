"""Data reduction for decay traces and site-resolved moments.

Rate estimators, stretched-exponential fitting with bootstrap uncertainties,
connected density correlations, and the independent-decay spin reference.
Nothing in this module integrates equations of motion; everything consumes
plain arrays or the observable streams produced by the solver modules.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .seeding import STREAM_BOOTSTRAP, rng_for

logger = logging.getLogger(__name__)

__all__ = [
    "DecayTrace",
    "StretchedExpModel",
    "CorrelationMap",
    "FitResult",
    "instantaneous_rate",
    "fit_stretched",
    "fit_window_mask",
    "connected_correlations",
    "central_region_mask",
    "analytic_independent_spin",
    "resonance_deviation",
    "subradiant_tail",
]

# Fitting constants.  The start-point seed is a fixed arbitrary constant so
# that repeated fits of the same data are bit-identical.
_FIT_START_SEED = 1436280846
_N_STARTS = 16
_EXPONENT_LO = 0.1
_EXPONENT_HI = 5.0
# Evaluation budgets of the multistart fit and of each bootstrap refit, which
# starts from the best fit, and the relative step, cost-change, gradient and
# residual tolerance at which every fit stops.
_MULTISTART_MAX_NFEV = 2000
_RESAMPLE_MAX_NFEV = 400
_REFIT_TOL = 1e-12
# resonance_deviation reads the trace on [0, RESONANCE_WINDOW_FACTOR] (in
# lifetimes tau0 = 1).
RESONANCE_WINDOW_FACTOR = 1.75


@dataclass(frozen=True)
class DecayTrace:
    """Excited-population time series."""

    times: np.ndarray
    n_excited: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.n_excited, dtype=float)
        if t.ndim != 1 or y.shape != t.shape:
            raise ValueError("times and n_excited must be 1-d arrays of equal length")
        if t.size < 2:
            raise ValueError("need at least two time points")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("times and n_excited must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(y < -1e-9):
            raise ValueError("negative excited population in trace")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "n_excited", np.maximum(y, 0.0))

    @classmethod
    def from_run(cls, traj) -> "DecayTrace":
        """Wrap a solver's ObservableTrace (exact or cumulant)."""
        return cls(times=traj.times, n_excited=traj.n_excited)


@dataclass(frozen=True)
class StretchedExpModel:
    """Sum of one to three stretched exponentials A*exp(-(t/B)**C).

    Terms are stored sorted by timescale B so equivalent fits compare equal
    and bootstrap parameter spreads line up term by term.  With A >= 0,
    B > 0, C > 0 the model is non-negative and non-increasing on t >= 0.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(a), float(b), float(c)) for a, b, c in self.terms)
        if not 1 <= len(terms) <= 3:
            raise ValueError("model takes between one and three terms")
        for a, b, c in terms:
            if a < 0 or b <= 0 or c <= 0:
                raise ValueError(
                    f"invalid term (A={a}, B={b}, C={c}): need A >= 0, B > 0, C > 0")
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda trm: trm[1])))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("model support is t >= 0")
        return _stretched(np.ravel(self.terms), t)


@dataclass(frozen=True)
class CorrelationMap:
    """Connected density correlations indexed by lattice displacement.

    `displacements` are (row, col) offsets in lattice units; `values` carry
    the pair-averaged connected correlator scaled by 4 so a fully correlated
    half-filled sample reads 1; `pair_counts` gives the number of ordered
    site pairs entering each displacement average.
    """

    displacements: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.displacements, dtype=int)
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.pair_counts, dtype=int)
        if d.ndim != 2 or d.shape[1] != 2 or v.shape != (d.shape[0],) or c.shape != v.shape:
            raise ValueError("displacements (K,2), values (K,), pair_counts (K,) required")
        if np.any(c < 1):
            raise ValueError("every stored displacement needs at least one pair")
        if np.any(np.abs(v) > 1.0 + 1e-6):
            raise ValueError("correlation value outside [-1, 1] beyond tolerance")
        order = np.lexsort((d[:, 1], d[:, 0]))
        d, v, c = d[order], v[order], c[order]
        object.__setattr__(self, "displacements", d)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "pair_counts", c)
        lookup = {(int(dr), int(dc)): k for k, (dr, dc) in enumerate(d)}
        for (dr, dc), k in lookup.items():
            mirror = lookup.get((-dr, -dc))
            if mirror is None:
                raise ValueError(f"displacement ({dr},{dc}) present without its mirror")
            if abs(v[k] - v[mirror]) > 1e-9 * (1.0 + abs(v[k])):
                raise ValueError(f"asymmetric correlation at ({dr},{dc})")

    def to_columns(self) -> dict:
        return {"dr": self.displacements[:, 0], "dc": self.displacements[:, 1],
                "c_d": self.values, "pairs": self.pair_counts}


def instantaneous_rate(n0, n1, dt: float) -> float | np.ndarray:
    """Decay rate log(n0/n1)/dt between two positive population samples dt apart.

    It recovers 1/tau exactly for n(t) = A*exp(-t/tau) at any step size;
    growing samples (n0 <= n1) give a rate <= 0.  Accepts scalars, returning
    a float, or broadcasting arrays, returning an array.
    """
    a0 = np.asarray(n0, dtype=float)
    a1 = np.asarray(n1, dtype=float)
    dt = float(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if np.any(a0 <= 0) or np.any(a1 <= 0):
        raise ValueError("populations must be positive")
    rate = np.log(a0 / a1) / dt
    return float(rate) if rate.ndim == 0 else rate


def _stretched(params, t, jac: bool = False):
    """Value of sum_k A_k exp(-(t/B_k)**C_k) at times `t`.  `params` holds
    (A, B, C) triples along its last axis; leading axes are a batch of
    parameter sets, and the results have shape batch + t.shape.

    With `jac`, returns the value and its parameter derivatives, with a
    trailing parameter axis.
    """
    p = np.asarray(params, dtype=float)
    t = np.asarray(t, dtype=float)
    terms = p.reshape(p.shape[:-1] + (1,) * t.ndim + (-1, 3))
    value = np.zeros(p.shape[:-1] + t.shape)
    d_value = np.empty(value.shape + p.shape[-1:]) if jac else None
    for i in range(terms.shape[-2]):
        a, b, c = terms[..., i, 0], terms[..., i, 1], terms[..., i, 2]
        x = t / b
        xc = x ** c
        e = np.exp(-xc)
        value = value + a * e
        if jac:
            # d/dC of -(t/B)**C is -(t/B)**C log(t/B), which tends to 0 at t = 0
            with np.errstate(divide="ignore", invalid="ignore"):
                log_x = np.log(x)
                xc_log = np.where(x > 0, xc * log_x, 0.0)
            d_value[..., 3 * i] = e
            d_value[..., 3 * i + 1] = a * e * (c / b) * xc
            d_value[..., 3 * i + 2] = -a * e * xc_log
    return (value, d_value) if jac else value


def _sorted_params(params: np.ndarray) -> np.ndarray:
    """(A, B, C) triples reordered by timescale B along the last axis."""
    trm = params.reshape(params.shape[:-1] + (-1, 3))
    order = np.argsort(trm[..., 1], axis=-1)[..., None]
    return np.take_along_axis(trm, order, axis=-2).reshape(params.shape)


def _effective_terms(params: np.ndarray) -> int:
    amps = params[0::3]
    total = amps.sum()
    return int(np.sum(amps > 1e-9 * max(total, 1e-300)))


def _bounds(n_terms: int) -> tuple:
    """A >= 0, B >= 1e-9 and _EXPONENT_LO <= C <= _EXPONENT_HI, per parameter."""
    return (np.tile([0.0, 1e-9, _EXPONENT_LO], n_terms),
            np.tile([np.inf, np.inf, _EXPONENT_HI], n_terms))


def _residuals(params, t, y, jac: bool = False):
    """Model minus data at times `t`.  `params` (..., 3k) and `y` (..., m)
    batch alike.  With `jac`, also returns the derivatives d residual /
    d params with a trailing parameter axis."""
    if not jac:
        return _stretched(params, t) - y
    value, d_value = _stretched(params, t, jac=True)
    return value - y, d_value


def _damped_steps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solutions of a batch of damped normal equations.  When one of
    them is singular, as when coinciding terms give equal Jacobian columns
    and the damping has decayed to roundoff, each takes its least-squares
    solution instead."""
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(lhs, rhs)])


def _refit_batch(t, y, p0: np.ndarray, max_nfev: int) -> tuple:
    """Bounded Levenberg-Marquardt fits of every row of `y`.

    `p0` is one start (3k,) shared by all rows, or one start per row
    (rows, 3k).

    Each row keeps its own damping (Nielsen's update, Marquardt's diagonal
    scaling) and stops on its own once a step changes the parameters or
    the cost by less than _REFIT_TOL relative, or the gradient is
    orthogonal to the residuals to that tolerance, or the residuals have
    fallen to _REFIT_TOL of the row's data: for a model that matches its
    data the cost falls toward roundoff, against which the relative tests
    may never fire.  A parameter that sits on a bound with its gradient
    pointing outward is frozen for that step, and trial points are clipped
    into the box.  Every row is evaluated once per iteration, the start
    included, so all rows share one count of evaluations; rows still
    running at `max_nfev` stop unconverged.
    Returns the parameters, shape (rows, 3k), and the converged flags.
    """
    rows, n_params = y.shape[0], p0.shape[-1]
    lower, upper = _bounds(n_params // 3)
    x = np.broadcast_to(p0, (rows, n_params)).astype(float)
    r, jac = _residuals(x, t, y, jac=True)
    cost = 0.5 * np.einsum("ij,ij->i", r, r)
    damping = np.full(rows, 1e-3)
    growth = np.full(rows, 2.0)
    converged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    diag = np.arange(n_params)
    floor = 0.5 * _REFIT_TOL ** 2 * np.einsum("ij,ij->i", y, y)
    nfev = 1
    while live.size and nfev < max_nfev:
        xl, rl, jl = x[live], r[live], jac[live]
        grad = (rl[:, None, :] @ jl)[:, 0]
        hess = np.swapaxes(jl, 1, 2) @ jl
        col_sq = hess[:, diag, diag]
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = np.abs(grad) / np.sqrt(col_sq * 2.0 * cost[live, None])
        free = ~(((xl <= lower) & (grad > 0)) | ((xl >= upper) & (grad < 0)))
        flat = ~np.any(free & (cosine > _REFIT_TOL), axis=1)
        scale = np.maximum(col_sq, 1e-15 * col_sq.max(axis=1, keepdims=True) + 1e-300)
        lhs = np.where(free[:, :, None] & free[:, None, :], hess, 0.0)
        lhs[:, diag, diag] = np.where(free, col_sq + damping[live, None] * scale, 1.0)
        step = _damped_steps(lhs, np.where(free, -grad, 0.0))
        trial = np.clip(xl + step, lower, upper)
        step = trial - xl
        r_new, jac_new = _residuals(trial, t, y[live], jac=True)
        nfev += 1
        cost_new = 0.5 * np.einsum("ij,ij->i", r_new, r_new)
        reduction = cost[live] - cost_new
        predicted = -(np.einsum("in,in->i", grad, step)
                      + 0.5 * np.einsum("in,ink,ik->i", step, hess, step))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = reduction / predicted
        accept = reduction > 0
        small_step = (np.linalg.norm(step, axis=1)
                      <= _REFIT_TOL * (_REFIT_TOL + np.linalg.norm(xl, axis=1)))
        small_gain = accept & (ratio > 0.25) & (reduction < _REFIT_TOL * cost[live])
        damping[live] *= np.where(accept, np.maximum(1 / 3, 1 - (2 * ratio - 1) ** 3),
                                  growth[live])
        growth[live] = np.where(accept, 2.0, 2.0 * growth[live])
        moved = live[accept]
        x[moved], r[moved], jac[moved], cost[moved] = (
            trial[accept], r_new[accept], jac_new[accept], cost_new[accept])
        done = flat | small_step | small_gain | (cost[live] <= floor[live])
        converged[live[done]] = True
        live = live[~done]
    return x, converged


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x >= 0 that minimizes |a x - b|, for a design of a few columns.

    The entries of the minimizer that are nonzero solve the unconstrained
    least squares on their own columns, so the minimizer is, of those
    solutions over every non-empty set of columns, the feasible one with
    the lowest residual, or zero when none fits better; an equal residual
    keeps the smaller set.
    """
    k = a.shape[1]
    best, best_sq = np.zeros(k), float(b @ b)
    for size in range(1, k + 1):
        for cols in map(list, itertools.combinations(range(k), size)):
            x = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            r = a[:, cols] @ x - b
            if np.all(x >= 0) and r @ r < best_sq:
                best, best_sq = np.zeros(k), float(r @ r)
                best[cols] = x
    return best


def _starting_points(t: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Deterministic multi-start grid over (log timescale, exponent), one
    start per row of the (_N_STARTS, 3k) result.

    Timescales and exponents come from a fixed-seed Latin hypercube (one
    jittered point per stratum and dimension, strata shuffled); the
    amplitudes for each start are the non-negative linear least-squares
    solution given those shapes.
    """
    rng = np.random.default_rng(_FIT_START_SEED)
    jitter = rng.uniform(size=(_N_STARTS, 2 * k))
    perms = np.tile(np.arange(1, _N_STARTS + 1), (2 * k, 1))
    for row in perms:
        rng.shuffle(row)
    u = (perms.T - jitter) / _N_STARTS
    t_scale = float(t[-1]) if t[-1] > 0 else 1.0
    log_lo, log_hi = math.log(t_scale / 30.0), math.log(3.0 * t_scale)
    b_all = np.exp(log_lo + u[:, :k] * (log_hi - log_lo))
    c_all = 0.3 + u[:, k:] * (3.0 - 0.3)
    # unit-amplitude terms (start, term, time): the columns of each NNLS design
    shapes = _stretched(np.stack([np.ones_like(b_all), b_all, c_all], axis=-1), t)
    y_pos = np.maximum(y, 0.0)
    amp_floor = max(float(y_pos.max()), 1e-3)
    starts = []
    for r in range(_N_STARTS):
        amp = _nnls(shapes[r].T, y_pos)
        if not np.any(amp > 0):
            amp = np.full(k, amp_floor / k)
        starts.append(np.column_stack([amp, b_all[r], c_all[r]]).ravel())
    return np.array(starts)


@dataclass(frozen=True)
class FitResult:
    """Stretched-exponential fit with optional bootstrap spread.

    `curve_std` and `param_std`, present when resampling ran, are pointwise
    and per-parameter 1-sigma bootstrap standard errors; parameter columns
    follow the timescale-sorted (A, B, C) layout of `model.terms`.
    `n_converged` counts the refits that met their stopping tolerance
    within the evaluation budget.
    """

    model: StretchedExpModel
    times: np.ndarray
    residuals: np.ndarray
    cost: float
    n_resamples: int
    curve_std: np.ndarray | None
    param_std: np.ndarray | None
    n_converged: int = 0

    @property
    def rms_residual(self) -> float:
        return float(np.sqrt(np.mean(self.residuals ** 2)))

    def report(self) -> str:
        lines = [
            f"stretched-exponential fit: {len(self.model.terms)} term(s), "
            f"{self.times.size} points on [{self.times[0]:g}, {self.times[-1]:g}]",
            f"  rms residual = {self.rms_residual:.3e}",
        ]
        for i, (a, b, c) in enumerate(self.model.terms):
            if self.param_std is not None:
                sa, sb, sc = self.param_std[3 * i: 3 * i + 3]
                lines.append(f"  term {i + 1}: A = {a:.6g} +- {sa:.2g}, "
                             f"B = {b:.6g} +- {sb:.2g}, C = {c:.6g} +- {sc:.2g}")
            else:
                lines.append(f"  term {i + 1}: A = {a:.6g}, B = {b:.6g}, C = {c:.6g}")
        if self.n_resamples:
            lines.append(f"  bootstrap: {self.n_resamples} residual resamples, "
                         f"mean curve sigma = {float(np.mean(self.curve_std)):.3e}")
        return "\n".join(lines)

    def to_columns(self) -> dict:
        """The fitted-curve table: time, model, residual and, when resampled,
        the pointwise bootstrap sigma."""
        cols = {"t": self.times, "model": self.model(self.times),
                "residual": self.residuals}
        if self.curve_std is not None:
            cols["curve_std"] = self.curve_std
        return cols


def fit_window_mask(times: np.ndarray, n_terms: int, window: float | None) -> np.ndarray:
    """The grid points a fit of `n_terms` stretched exponentials uses.

    Those are the times <= `window` (all of them when None).  Raises
    ValueError when they are fewer than the 3 * n_terms + 3 the fit needs.
    """
    if window is None:
        mask = np.ones(times.size, dtype=bool)
    else:
        mask = times <= float(window) * (1 + 1e-12)
    count, need = int(np.count_nonzero(mask)), 3 * n_terms + 3
    if count < need:
        raise ValueError(f"window has {count} points; need at least {need}")
    return mask


def fit_stretched(trace: DecayTrace, n_terms: int, *, window: float | None = None,
                  n_resamples: int = 500, seed: int = 0) -> FitResult:
    """Bounded multi-start fit of a stretched-exponential sum to a trace.

    Amplitudes are constrained non-negative, timescales positive, exponents
    to [0.1, 5].  `window` restricts the fit to times <= window (see
    `fit_window_mask`).  Bootstrap uncertainty resamples the residuals;
    `n_resamples` is 0 (skip) or at least 2.  Identical inputs give
    bit-identical results: the start points come from a fixed-seed Latin
    hypercube and the bootstrap stream is derived from `seed`.  All starts,
    and then all resamples, are fitted in one `_refit_batch` solve each; a
    warning is logged when the chosen start stopped at its evaluation budget.
    """
    if n_terms not in (1, 2, 3):
        raise ValueError("n_terms must be 1, 2, or 3")
    if n_resamples < 0 or n_resamples == 1:
        raise ValueError("n_resamples must be 0 (skip) or at least 2")
    mask = fit_window_mask(trace.times, n_terms, window)
    t = trace.times[mask]
    y = trace.n_excited[mask]

    starts = _starting_points(t, y, n_terms)
    y_rows = np.broadcast_to(y, (starts.shape[0], y.size))
    ends, converged = _refit_batch(t, y_rows, starts, max_nfev=_MULTISTART_MAX_NFEV)
    r = _residuals(ends, t, y_rows)
    costs = 0.5 * np.einsum("ij,ij->i", r, r)
    finite = np.flatnonzero(np.isfinite(costs))
    if not finite.size:
        raise RuntimeError(f"all fit starts failed: none of {starts.shape[0]} "
                           "reached a finite cost")
    best_cost = costs[finite].min()
    viable = finite[costs[finite] <= best_cost * (1 + 1e-9) + 1e-300]
    best = min(viable, key=lambda i: _effective_terms(ends[i]))
    if not converged[best]:
        logger.warning("the selected fit start stopped at the %d-evaluation budget "
                       "before converging", _MULTISTART_MAX_NFEV)
    p_hat = _sorted_params(ends[best])
    model = StretchedExpModel(terms=tuple(tuple(p_hat[3 * i: 3 * i + 3]) for i in range(n_terms)))
    fitted = _stretched(p_hat, t)
    residuals = fitted - y

    curve_std = None
    param_std = None
    n_converged = 0
    if n_resamples:
        rng = rng_for(seed, STREAM_BOOTSTRAP)
        y_star = fitted + rng.choice(residuals, size=(n_resamples, residuals.size))
        params, converged = _refit_batch(t, y_star, p_hat, max_nfev=_RESAMPLE_MAX_NFEV)
        params = _sorted_params(params)
        n_converged = int(np.count_nonzero(converged))
        unconverged = n_resamples - n_converged
        if unconverged:
            logger.warning("%d of %d bootstrap resamples stopped at the %d-evaluation "
                           "budget before converging", unconverged, n_resamples,
                           _RESAMPLE_MAX_NFEV)
        curve_std = _stretched(params, t).std(axis=0, ddof=1)
        param_std = params.std(axis=0, ddof=1)

    return FitResult(model=model, times=t, residuals=residuals, cost=float(costs[best]),
                     n_resamples=int(n_resamples),
                     curve_std=curve_std, param_std=param_std, n_converged=n_converged)


def central_region_mask(site_rc: np.ndarray, fraction: float = 0.5) -> np.ndarray:
    """Boolean mask selecting the central box holding ~`fraction` of sites.

    The box side along each lattice axis is round(sqrt(fraction) * extent),
    centered, so fraction=0.5 on a 10x10 grid keeps the inner 7x7 block.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    rc = np.asarray(site_rc, dtype=int)
    keep = np.ones(rc.shape[0], dtype=bool)
    if fraction == 1.0:
        return keep
    for axis in range(2):
        v = rc[:, axis]
        extent = int(v.max() - v.min() + 1)
        side = max(1, round(math.sqrt(fraction) * extent))
        start = int(v.min()) + (extent - side) // 2
        keep &= (v >= start) & (v < start + side)
    return keep


def connected_correlations(sites, pair_populations, populations, *,
                           center_fraction: float = 0.5) -> CorrelationMap:
    """Displacement-resolved connected density correlations.

    For every ordered pair (i, j) of region sites with lattice displacement
    d the connected correlator <n_i n_j> - <n_i><n_j> is averaged and scaled
    by 4, so d=0 reads 4p(1-p) at uniform filling p and perfect correlation
    saturates at 1.  `sites` is the (N, 2) array of lattice row/col indices,
    `pair_populations` the (N, N) moments <n_i n_j> and `populations` the
    (N,) moments <n_i>.  The region is the central `center_fraction` block
    (`central_region_mask`); a ValueError reports one that holds no atom.
    """
    rc = np.asarray(sites, dtype=int)
    if rc.ndim != 2 or rc.shape[1] != 2:
        raise ValueError("sites must provide (N, 2) lattice indices")
    n = rc.shape[0]
    nn = np.asarray(pair_populations, dtype=float)
    pop = np.asarray(populations, dtype=float)
    if nn.shape != (n, n) or pop.shape != (n,):
        raise ValueError("pair_populations must be (N, N) with populations (N,)")
    # The solver convention stores <n_i> on the pair-population diagonal,
    # which already equals <n_i^2> for two-level occupancies.
    cov = nn - np.outer(pop, pop)

    idx = np.flatnonzero(central_region_mask(rc, center_fraction))
    if idx.size == 0:
        raise ValueError("correlation region is empty")

    rr = rc[idx]
    disp = (rr[None, :, :] - rr[:, None, :]).reshape(-1, 2)
    vals = cov[np.ix_(idx, idx)].reshape(-1)
    uniq, inverse = np.unique(disp, axis=0, return_inverse=True)
    sums = np.bincount(inverse, weights=vals, minlength=uniq.shape[0])
    counts = np.bincount(inverse, minlength=uniq.shape[0])
    return CorrelationMap(displacements=uniq, values=4.0 * sums / counts,
                          pair_counts=counts)


def analytic_independent_spin(p: float, x0: float, n_atoms: int, transmitted):
    """Closed-form spin trajectory for independently decaying atoms.

    Each atom starts excited with probability `p`, and `x0` is the summed
    pair coherence sum_{i != j} Re conj(b_i) b_j of the amplitudes b_i = <s_i>
    (zero for an incoherent start).  With the surviving excited-state weight
    `transmitted` T = exp(-t/tau), scalar or array in [0, 1], populations
    decay as p T and amplitudes as b_i sqrt(T), so (S_z, S_tot^2) are

        S_z     = N (p T - 1/2)
        S_tot^2 = 3N/4 + N(N-1) (p T - 1/2)^2 + x0 T

    S_tot^2 here is the full second moment <S^2>, which matches the
    trajectory proxy M^2 + S_z^2 only up to Var(S_z); compare against
    M^2 + <S_z^2> when cross-checking a simulation.
    """
    t_arr = np.asarray(transmitted, dtype=float)
    if np.any((t_arr < -1e-12) | (t_arr > 1 + 1e-12)):
        raise ValueError("transmitted weight must lie in [0, 1]")
    n = int(n_atoms)
    pt = p * t_arr
    s_z = n * (pt - 0.5)
    # (p T - 1/2)^2 as 1/4 + p T (p T - 1)
    s_tot_sq = 0.75 * n + n * (n - 1) * (0.25 + pt * (pt - 1.0)) + x0 * t_arr
    return s_z, s_tot_sq


def resonance_deviation(trace: DecayTrace) -> float:
    """Maximum early-time deviation below the independent-decay envelope.

    Compares the trace's own samples N(t) on [0, RESONANCE_WINDOW_FACTOR]
    against g(t) = N(0) exp(-(t - t0)) (time in lifetimes, tau0 = 1; t0 is
    the first grid time) and returns the largest (g - N)/g over those grid
    points.  Positive values mean the sample decays faster than independent
    atoms; the measure is invariant under uniform rescaling of the trace.
    """
    t = trace.times
    if t[-1] < RESONANCE_WINDOW_FACTOR * (1 - 1e-9):
        raise ValueError("trace does not cover the resonance window")
    y0 = trace.n_excited[0]
    if y0 <= 0:
        raise ValueError("initial population must be positive")
    window = t <= RESONANCE_WINDOW_FACTOR * (1 + 1e-12)
    g = y0 * np.exp(-(t[window] - t[0]))
    return float(np.max((g - trace.n_excited[window]) / g))


def subradiant_tail(trace: DecayTrace) -> float:
    """Late-time decay rate 1/tau_tail from a single-exponential fit to the
    last three grid points."""
    t, ys = trace.times[-3:], trace.n_excited[-3:]
    if t.size < 3:
        raise ValueError("trace shorter than the tail window")
    if np.any(ys <= 0):
        raise ValueError("non-positive populations in the tail window")
    slope = np.polyfit(t, np.log(ys), 1)[0]
    return float(-slope)
