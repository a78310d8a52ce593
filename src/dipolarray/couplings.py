"""Photon-mediated coupling matrices from the vacuum Green's tensor.

Core units: the transition wavelength is 1 (so k = 2*pi), the single-atom
decay rate gamma0 is 1, and time is measured in 1/gamma0.  For a pair of
identical dipoles d at separation r the coherent and dissipative couplings
follow from the contracted tensor,

    J_ij - i*Gamma_ij/2 = -(3*pi*gamma0/omega0) * d^dag G(r) d,  omega0 = 2*pi,

so J_ij = -1.5*gamma0*Re(d^dag G d) and Gamma_ij = 3*gamma0*Im(d^dag G d).
The overall scale and sign are pinned operationally by two limits checked in
the test suite: Gamma_ii -> gamma0 as r -> 0, and the symmetric mode of a
co-located pair decays faster than gamma0 (superradiant).

Motional averaging is a Monte Carlo mean over per-atom sample positions.  It
runs on a component-row table `rows` of shape (5, n, samples): the sample
positions x, y, z (lattice site plus displacement) and their projections on
Re e and Im e.  The sampler draws straight into that table, 40 * n * samples
bytes, and a motional build allocates nothing else of its size.  A pair's
separation components are then row differences, rows[:, i] - rows[:, j], so
r^2 takes three and |r . e|^2 two.  Pairs run one at a time, every
intermediate written into seven sample-length scratch rows.  The phase
factor comes from one tangent per sample: with t = tan(u/2) and
h = 1/(1 + t^2),

    cos u = 2h - 1,   sin u = 2ht,

which agrees with np.cos / np.sin to within 3.3e-16 absolute over
u in [0, 40], including +-1e-6 around k*pi for k <= 12, and costs one
tangent in place of a cosine and a sine.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np
# np.percentile (spectrum_percentiles) loads numpy.ma on its first call; loading
# it here keeps that cost in the package import rather than in a sweep
import numpy.ma  # noqa: F401

from .geometry import (
    AtomArray,
    DisorderSpec,
    DriveGeometry,
    EmptyRealizationError,
    LatticeSpec,
    build_array,
    dipole_vector,
)
from .seeding import STREAM_ENSEMBLE, STREAM_MOTION, derive_seed

K_WAVE = 2.0 * np.pi
SCAN_RETRIES = 20   # fresh loading draws per empty spectrum-scan realization
_ROTATION_BLOCK = 4096   # sample columns per step of the in-place lab-frame rotation


@dataclass(frozen=True)
class MotionSpec:
    """Gaussian motional wavepackets, widths per trap axis in units of lambda.

    Axis order is (drive axis in plane, in-plane perpendicular, z).  Each atom
    independently occupies the first excited band along the drive axis with
    probability `excited_band_probability`; its position density along that
    axis then carries the first-excited-state weight x^2 exp(-x^2/2w^2).
    Averaging assumes the trap period is much shorter than the decay dynamics
    (frozen-Gaussian limit); this is not checked.
    """

    widths: tuple[float, float, float] = (0.05, 0.05, 0.1)
    excited_band_probability: float = 0.06
    samples: int = 20_000
    seed: int = 0

    def __post_init__(self):
        if len(self.widths) != 3 or any(w < 0 for w in self.widths):
            raise ValueError("widths must be three values >= 0")
        if not 0.0 <= self.excited_band_probability <= 1.0:
            raise ValueError("excited_band_probability must lie in [0, 1]")
        if isinstance(self.samples, bool) or not isinstance(self.samples, numbers.Integral):
            raise ValueError("samples must be an integer")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def is_point(self) -> bool:
        return all(w == 0 for w in self.widths)


@dataclass(frozen=True)
class CouplingMatrices:
    """Coherent (J) and dissipative (Gamma) coupling matrices, units of gamma0.

    `jump_rates` is derived, not passed: the eigenvalues of Gamma (the
    collective jump-mode decay rates) in descending order, kept from the
    positive-semidefinite check so Gamma is diagonalized once.  J and Gamma
    are stored as the float arrays that the checks validated, so any
    array-like input (a nested list, say) is accepted.
    """

    J: np.ndarray
    Gamma: np.ndarray
    jump_rates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        J, G = np.asarray(self.J, float), np.asarray(self.Gamma, float)
        n = J.shape[0]
        if J.shape != (n, n) or G.shape != (n, n):
            raise ValueError("J and Gamma must be square matrices of equal size")
        tol = 1e-12
        if not (np.abs(J - J.T).max() <= tol and np.abs(G - G.T).max() <= tol):
            raise ValueError("J and Gamma must be symmetric")
        if np.abs(np.diag(J)).max() > tol:
            raise ValueError("J must have zero diagonal")
        if np.abs(np.diag(G) - 1.0).max() > tol:
            raise ValueError("Gamma diagonal must equal gamma0")
        if np.abs(G).max() > 1 + 1e-9:
            raise ValueError("|Gamma_ij| must not exceed gamma0")
        rates = np.linalg.eigvalsh(G)[::-1]
        if rates[-1] < -1e-9 * n:
            raise ValueError("Gamma must be positive semidefinite")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "Gamma", G)
        object.__setattr__(self, "jump_rates", rates)

    @property
    def n_atoms(self) -> int:
        return self.J.shape[0]


def _pair_values(rvec: np.ndarray, e_dip: np.ndarray):
    """(J, Gamma) for separation vectors of shape (..., 3), vectorized.

    Uses the contracted form e^dag G e = e^{iu}/(4 pi r) (P + Q |rhat . e|^2)
    in real arithmetic.  With u = k r and p = |rhat . e|^2,

        4 pi r e^dag G e = (cos u + i sin u)(A + iB),
        A = (1 - 1/u^2) + p (3/u^2 - 1),  B = (1 - 3p)/u,

    so neither the 3x3 tensor nor any complex temporary is formed.
    """
    r_sq = np.einsum("...i,...i->...", rvec, rvec)
    rn = np.sqrt(r_sq)
    u = K_WAVE * rn
    proj = ((rvec @ e_dip.real) ** 2 + (rvec @ e_dip.imag) ** 2) / r_sq
    inv_u_sq = 1.0 / (u * u)
    a = (1.0 - inv_u_sq) + proj * (3.0 * inv_u_sq - 1.0)
    b = (1.0 - 3.0 * proj) / u
    cos_u, sin_u = np.cos(u), np.sin(u)
    scale = 1.0 / (4 * np.pi * rn)
    return -1.5 * scale * (cos_u * a - sin_u * b), 3.0 * scale * (sin_u * a + cos_u * b)


def _motional_rows(pos: np.ndarray, e_dip: np.ndarray, motion: MotionSpec,
                   beam_axis) -> np.ndarray:
    """The (5, n, samples) component-row table (module docstring) of atoms at
    `pos` under `motion`, with the motional draws made straight into it.

    Rows 0-2 first take the displacement samples along the trap axes, are
    rotated into the lab frame in place, block by block, and are offset by
    the lattice positions; rows 3-4 are then their projections on Re e and
    Im e.  Besides the table, 40 * n * samples bytes, only sample-length
    rows and one rotation block are allocated.  All pairs share these
    per-atom samples, so every pair average is an average over common atomic
    configurations; the averaged Gamma is then a mean of positive-semidefinite
    matrices and stays positive semidefinite.
    """
    b = np.asarray(beam_axis, dtype=float)
    u1 = np.array([b[0], b[1], 0.0])
    nrm = np.linalg.norm(u1)
    u1 = u1 / nrm if nrm > 1e-12 else np.array([1.0, 0.0, 0.0])
    u3 = np.array([0.0, 0.0, 1.0])
    u2 = np.cross(u3, u1)
    frame = np.array([u1, u2, u3])

    n, s = pos.shape[0], motion.samples
    rng = np.random.default_rng(derive_seed(motion.seed, STREAM_MOTION))
    excited = rng.random(n) < motion.excited_band_probability
    rows = np.empty((5, n, s))
    for ax, w in enumerate(motion.widths):
        rng.standard_normal(out=rows[ax])
        rows[ax] *= w
    # First motional band along the drive axis: density x^2 exp(-x^2/2w^2),
    # i.e. w * sqrt(chi^2_3) with a random sign.  Drawn for every atom, one
    # atom at a time, so the stream layout does not depend on the Bernoulli
    # outcome; only the rows of first-band atoms are kept.
    for i in range(n):
        chi = rng.chisquare(3, size=s)
        if excited[i]:
            np.multiply(motion.widths[0], np.sqrt(chi, out=chi), out=rows[0, i])
    for i in range(n):
        sign = rng.integers(0, 2, size=s)
        if excited[i]:
            rows[0, i] *= sign * 2 - 1
    xyz = rows[:3].reshape(3, -1)
    block = np.empty((3, _ROTATION_BLOCK))
    for k in range(0, xyz.shape[1], _ROTATION_BLOCK):
        cols = xyz[:, k:k + _ROTATION_BLOCK]
        lab = block[:, :cols.shape[1]]
        np.matmul(frame.T, cols, out=lab)
        cols[...] = lab
    rows[:3] += pos.T[:, :, None]
    np.matmul(np.array([e_dip.real, e_dip.imag]), xyz, out=rows[3:].reshape(2, -1))
    return rows


def _motional_pair_means(rows: np.ndarray):
    """Sample means of (J, Gamma) for every pair i < j, in `triu_indices` order.

    `rows` is the (5, n, samples) component-row table (module docstring).
    Per sample, with p = |rhat . e|^2, w = (3p - 1)/u^2, K = K_WAVE and the
    point-atom form of `_pair_values`,

        4 pi J / -1.5 = cos u (1 - p + w)/r + K sin u * w,
        4 pi Gamma / 3 = sin u (1 - p + w)/r - K cos u * w,

    so each pair needs four dot products over its samples; the constants
    are applied after the mean.
    """
    _, n, s = rows.shape
    d, r, p, w, a, t, h = np.empty((7, s))
    iu, ju = np.triu_indices(n, 1)
    sums = np.empty((iu.size, 4))
    for k, (i, j) in enumerate(zip(iu, ju)):
        for acc, (first, *rest) in ((r, (0, 1, 2)), (p, (3, 4))):
            np.subtract(rows[first, i], rows[first, j], out=acc)
            np.multiply(acc, acc, out=acc)
            for c in rest:
                np.subtract(rows[c, i], rows[c, j], out=d)
                np.multiply(d, d, out=d)
                np.add(acc, d, out=acc)             # r^2, then |r . e|^2
        np.divide(p, r, out=p)                      # p = |rhat . e|^2
        np.divide(1.0 / K_WAVE ** 2, r, out=w)      # 1/u^2
        np.sqrt(r, out=r)
        np.multiply(p, 3.0, out=d)
        np.subtract(d, 1.0, out=d)
        np.multiply(w, d, out=w)                    # w = (3p - 1)/u^2
        np.subtract(w, p, out=a)
        np.add(a, 1.0, out=a)
        np.divide(a, r, out=a)                      # a = (1 - p + w)/r
        np.multiply(r, 0.5 * K_WAVE, out=t)
        np.tan(t, out=t)                            # t = tan(u/2)
        np.multiply(t, t, out=h)
        np.add(h, 1.0, out=h)
        np.divide(2.0, h, out=h)                    # h = 2/(1 + t^2) = 1 + cos u
        np.multiply(t, h, out=t)                    # sin u
        np.subtract(h, 1.0, out=h)                  # cos u
        # numpy sums, not np.dot: OpenBLAS splits a dot past 10^4 samples
        # across threads, and its bits would follow the thread count
        sums[k] = (np.einsum("i,i", h, a), np.einsum("i,i", t, w),
                   np.einsum("i,i", t, a), np.einsum("i,i", h, w))
    scale = 1.0 / (4 * np.pi * s)
    return (-1.5 * scale * (sums[:, 0] + K_WAVE * sums[:, 1]),
            3.0 * scale * (sums[:, 2] - K_WAVE * sums[:, 3]))


def coupling_matrices(array: AtomArray, motion: MotionSpec | None = None) -> CouplingMatrices:
    """Build J and Gamma for one array realization.

    With `motion`, each off-diagonal pair value is the Monte Carlo average of
    the point-atom formula over the pair's relative displacement (per-axis
    variance equal to the sum of the two atoms' variances, since the samples
    are independent per atom); the diagonal is untouched, so the trace
    identity sum_k Gamma_k = N gamma0 survives averaging.
    """
    n = array.n_atoms
    e_dip = dipole_vector(array.drive)

    if array.dicke:
        return CouplingMatrices(J=np.zeros((n, n)), Gamma=np.ones((n, n)))

    J = np.zeros((n, n))
    G = np.zeros((n, n))
    np.fill_diagonal(G, 1.0)
    if n == 1:
        return CouplingMatrices(J=J, Gamma=G)

    pos = array.atom_positions
    iu, ju = np.triu_indices(n, 1)
    sep = pos[iu] - pos[ju]
    if np.min(np.linalg.norm(sep, axis=1)) < 1e-9:
        raise ValueError("duplicate atom positions (co-location is Dicke-only)")

    if motion is None or motion.is_point:
        jv, gv = _pair_values(sep, e_dip)
    else:
        jv, gv = _motional_pair_means(
            _motional_rows(pos, e_dip, motion, array.drive.beam_axis))

    J[iu, ju] = J[ju, iu] = jv
    G[iu, ju] = G[ju, iu] = gv
    return CouplingMatrices(J=J, Gamma=G)


def spectrum_percentiles(rate_sets) -> dict[str, float]:
    """The 25th/50th/75th percentiles, over realizations, of Var(Gamma_k)
    and of the brightest rate, from each realization's descending
    `jump_rates`; keys `var_rate_p25` ... `max_rate_p75`."""
    stats = {"var_rate": [np.var(rates) for rates in rate_sets],
             "max_rate": [rates[0] for rates in rate_sets]}
    quantiles = {"p25": 25, "median": 50, "p75": 75}
    return {f"{stat}_{q}": float(v) for stat, values in stats.items()
            for q, v in zip(quantiles, np.percentile(values, list(quantiles.values())))}


def spectrum_scan(spec: LatticeSpec, spacings, disorder: DisorderSpec,
                  realizations: int, master_seed: int = 0,
                  drive: DriveGeometry | None = None) -> dict[str, np.ndarray]:
    """Order statistics of the jump spectrum versus lattice spacing.

    For each spacing, `realizations` disordered arrays, their dipoles set by
    `drive`, are drawn with seeds derived from `master_seed` (realization r
    reuses the same derived seed at every spacing, so curves share
    randomness across the scan axis).  Reports the `spectrum_percentiles`
    of their point-atom couplings at each spacing.
    Empty loadings are resampled with fresh derived seeds up to `SCAN_RETRIES`
    times before the rejection propagates.  Each realization diagonalizes
    Gamma once, in the `CouplingMatrices` check that yields `jump_rates`.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    spacings = np.asarray(list(spacings), dtype=float)
    out = {"spacing": spacings}
    for col, a in enumerate(spacings):
        cell = replace(spec, spacing=float(a))
        rate_sets = []
        for r in range(realizations):
            for attempt in range(SCAN_RETRIES + 1):
                seed = derive_seed(master_seed, STREAM_ENSEMBLE,
                                   r + attempt * realizations)
                try:
                    arr = build_array(cell, disorder=disorder, drive=drive, seed=seed)
                    break
                except EmptyRealizationError:
                    if attempt == SCAN_RETRIES:
                        raise
            rate_sets.append(coupling_matrices(arr).jump_rates)
        for key, v in spectrum_percentiles(rate_sets).items():
            out.setdefault(key, np.empty_like(spacings))[col] = v
    return out
