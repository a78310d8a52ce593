"""Exact Lindblad master-equation integrator on excitation-number blocks.

Ground truth for every approximate solver in this package.  Works in the
rotating frame at the transition frequency (the fast optical term is dropped;
dynamics depend only on J and Gamma):

    drho/dt = -i[H, rho] + sum_ij (Gamma_ij/2) (2 s_j rho s_i^dag
                                                - {s_i^dag s_j, rho}),
    H = sum_{i != j} J_ij s_i^dag s_j,

with s_i the lowering operator of atom i.  Basis ordering: computational index
x encodes occupations bitwise, atom 0 in the least significant bit, bit 1
meaning excited.  The RHS is evaluated as -i(A rho - (A rho)^dag) + recycle
with A = H - (i/2) sum_ij Gamma_ij s_i^dag s_j, which keeps rho Hermitian
through every Runge-Kutta stage.

The generator conserves excitation number, so rho is held as its blocks
rho_{k,k'} between the k- and k'-excitation sectors (`_Layout`).  A keeps
each block in place; the recycle term sum_ij Gamma_ij s_j rho s_i^dag feeds
block (k, k') from (k+1, k'+1) only.  The generator thus commutes with the
rotation rho -> e^{i phi N} rho e^{-i phi N} (a weak U(1) symmetry): each
offset k - k' evolves on its own.  Every recorded moment (<n_i>,
<s_i^dag s_j>, <n_i n_j>) lies on offset 0, so the solve integrates the
offset-0 blocks alone, C(2N, N) entries, for every start; the amplitudes of
a coherent start sit on offsets it never reads.  The recycle term is one
real GEMM of Gamma against the stacked rows s_j rho per block, no
superoperator matrix is ever materialized, and the solve never forms the
full density matrix: snapshots keep the moments read off the diagonal
blocks, as the cumulant solver's do.

This module also holds what both solvers share: the product start
(`InitialStateSpec`), what they record at a grid time (`observation`), the
ObservableTrace they return, `integrate_on_grid`, the loop that builds the
stepper class each solver passes it and steps it across the output time
grid, stacking what it observes there, and `DOP853`, that stepper.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingMatrices
from .geometry import AtomArray

logger = logging.getLogger(__name__)

DEFAULT_ATOM_CAP = 12


class IntegrationFailureError(RuntimeError):
    """Integrator step failure (step-size collapse), with the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


def padded_length(n: int) -> int:
    """`n`, rounded up to a multiple of 8 past 128.  OpenBLAS sums a product
    whose inner dimension (a GEMM's, or a long matrix-vector product's row
    count) passes 128 in pieces that follow the thread count, unless that
    length is a multiple of 8: measured on complex GEMMs of inner dimension
    2 to 517 and on DOP853's stage sums over 8 to 3e6 entries, under 1 to 4
    threads.  So both solvers pad such lengths with zeros to this one."""
    return n if n <= 128 else -(-n // 8) * 8


def _sum_sq(x: np.ndarray) -> float:
    """Sum of squares of a real vector, by numpy: the same bits under any
    BLAS thread count, unlike np.linalg.norm (an OpenBLAS ddot that splits
    long sums across threads)."""
    return float(np.einsum("i,i", x, x))


def _tableau(shape: tuple, rows: dict) -> np.ndarray:
    """A coefficient array from its nonzero entries, {row: {column: value}}."""
    out = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


# The DOP853 tableau (Hairer, Norsett and Wanner, Solving ODEs I, ch. II, and
# their DOP853 Fortran code, http://www.unige.ch/~hairer/software.html), each
# constant as the nearest double.  Stages 0-11 make a step, stage 12 is the
# derivative at its end, and stages 13-15 serve the dense output only.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = _tableau((16, 16), {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
        5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932,
         11: 0.0003825710908356584, 12: -0.00034046500868740456,
         13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
         13: 2.9475147891527724, 14: -9.15095847217987},
})
# the 8th-order weights, less those of the embedded 5th- and 3rd-order pairs
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
_E3 = np.append(_A[12, :12], 0.0)
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
# the last four coefficients of the 7th-order dense output, over all 16 stages
_D = _tableau((4, 16), {
    0: {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
        7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
        10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
        13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    1: {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
        7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
        10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
        13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    2: {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
        7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
        10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
        13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    3: {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
        7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
        10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
        13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
})


class DOP853:
    """Dormand and Prince's explicit Runge-Kutta method of order 8, with
    embedded 5th- and 3rd-order error estimates and 7th-order dense output
    (Hairer, Norsett and Wanner, Solving ODEs I, ch. II), integrating a real
    state forward from `t0` to `t_bound`.

    It steps as scipy.integrate.DOP853 does, with the same numpy calls in
    the same order, and differs in how it sums: it takes the first step
    (op. cit., sec. II.4) and each step's error norm with `_sum_sq`, whose
    bits do not follow the BLAS thread count, where one ulp in a norm would
    change a step size.  It integrates the state padded with zeros to
    `padded_length` entries, so that its stage sums are thread-invariant
    too, and divides both norms by the unpadded size `n_state`; `y`, `K`
    and the dense output carry the padding.  `fun` sees the first `n_state`
    entries and fills those of a row of `K`, whose zeroed padding stays
    zero.  A derivative at `t0` that is not finite raises
    IntegrationFailureError, where the first-step rule would pick a NaN step
    and reject steps forever.

    `step()` takes one accepted step, leaving `status` "finished" at
    `t_bound`, and raises IntegrationFailureError when the step size falls
    below 10 ulp of `t`; `dense_output()` interpolates over the last step.
    `nfev` counts the RHS calls, and `K` holds the 16 stage derivatives
    (rows 0-12 for the step, the last of them f at its end, and 13-15 for
    the dense output).
    """

    A, B, C, D, E3, E5 = _A, _A[12, :12], _C, _D, _E3, _E5
    error_exponent = -1 / 8  # the error estimate is of order 7

    def __init__(self, fun, t0, y0, t_bound, *, rtol, atol):
        self.n_state = n = len(y0)
        self.y = np.zeros(padded_length(n))
        self.y[:n] = y0
        self._fun = fun
        self.t, self.t_old, self.t_bound = t0, None, t_bound
        self.rtol, self.atol = rtol, atol
        self.status, self.nfev = "running", 0
        self.K = np.zeros((16, len(self.y)))
        # glibc raises its mmap threshold to the size of the largest mapped
        # block freed.  Freeing an untouched one the size of K here keeps the
        # solve's temporaries on reused heap pages instead of fresh mappings:
        # a cold 2x4 exact solve took 2.1k minor page faults and 0.36 s with
        # it, 23.7k and 0.43 s without (one BLAS thread, 2-core Xeon)
        np.empty_like(self.K)
        f = self.fun(t0, self.y, 12)  # row 12 holds f at t between steps
        if not np.all(np.isfinite(f)):
            raise IntegrationFailureError(f"non-finite derivative at t = {t0:.6g}", t0)
        interval = t_bound - t0
        scale = atol + np.abs(self.y) * rtol
        d0, d1 = (np.sqrt(_sum_sq(v / scale) / n) for v in (self.y, f))
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
        f1 = self.fun(t0 + h0, self.y + h0 * f, 1)
        d2 = np.sqrt(_sum_sq((f1 - f) / scale) / n) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        self.h_abs = min(100 * h0, h1, interval)

    def fun(self, t, y, s):
        """f(t, y) into row `s` of K, which it returns."""
        self.nfev += 1
        self.K[s, :self.n_state] = self._fun(t, y[:self.n_state])
        return self.K[s]

    def step(self):
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(self.h_abs, min_step), False
        K[0] = K[12]  # f at t; a rejected try overwrites row 12
        while True:
            if h_abs < min_step:
                raise IntegrationFailureError(
                    f"integrator failed (step-size collapse) at t = {t:.6g}", t)
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            for s in range(1, 12):
                self.fun(t + self.C[s] * h, y + np.dot(K[:s].T, self.A[s, :s]) * h, s)
            y_new = y + h * np.dot(K[:12].T, self.B)
            self.fun(t + h, y_new, 12)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(K[:13], h, scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** self.error_exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** self.error_exponent)
            rejected = True
        self.t_old, self.y_old = t, y
        self.t, self.y, self.h_abs = t_new, y_new, h_abs
        if self.t >= self.t_bound:
            self.status = "finished"

    def _estimate_error_norm(self, K, h, scale):
        err5_norm_2 = _sum_sq(np.dot(K.T, self.E5) / scale)
        err3_norm_2 = _sum_sq(np.dot(K.T, self.E3) / scale)
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * self.n_state)

    def dense_output(self):
        """The interpolant y(t) over the last step, from three more stages."""
        K, t_old, y_old = self.K, self.t_old, self.y_old
        h = self.t - t_old
        for s in range(13, 16):
            self.fun(t_old + self.C[s] * h, y_old + np.dot(K[:s].T, self.A[s, :s]) * h, s)
        F = np.empty((7, len(y_old)))
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[12] + K[0])
        F[3:] = h * np.dot(self.D, K)

        def interpolate(t):
            x = (t - t_old) / h
            y = np.zeros_like(y_old)
            for i, f in enumerate(reversed(F)):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            y += y_old
            return y

        return interpolate


@dataclass(frozen=True)
class InitialStateSpec:
    """The product start of both solvers: atom i is excited with probability
    p = `excitation_probability` and has the amplitude b_i = <s_i>, both
    given by `single_atom_moments`.  coherent=False: b_i = 0 (a mixture).
    coherent=True: b_i = sqrt(p (1 - p)) e^{i phi_i}, with
    phi_i = 2*pi * phase_gradient . r_i + phase_offset (phase_gradient in
    units of 2*pi/lambda, i.e. a unit vector is a resonant photon momentum).
    A pulse of area theta leaves p = sin^2(theta/2).
    """

    excitation_probability: float | None = None
    coherent: bool = False
    phase_gradient: tuple[float, float, float] | None = None
    phase_offset: float = 0.0

    def __post_init__(self):
        p = self.excitation_probability
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("the start needs excitation_probability in [0, 1]")
        if not self.coherent and (self.phase_gradient is not None
                                  or self.phase_offset != 0.0):
            raise ValueError("phases only apply to coherent states")

    def single_atom_moments(self, array: AtomArray) -> tuple:
        """(p, b): each atom's excitation probability and amplitude <s_i>."""
        n, p, k = array.n_atoms, float(self.excitation_probability), self.phase_gradient
        phases = (np.zeros(n) if k is None
                  else 2 * np.pi * array.atom_positions @ np.asarray(k, dtype=float))
        amplitude = np.sqrt(p * (1 - p)) if self.coherent else 0.0
        return np.full(n, p), amplitude * np.exp(1j * (phases + self.phase_offset))


@dataclass
class ObservableTrace:
    """Observable stream from either solver, one run or an ensemble average.

    Both solvers fill the same fields.  The series are per grid time; the
    N x N moments are kept only in `snapshots`, which maps the grid time of
    each requested snapshot to the dict `observation` builds.
    `jump_rates` holds, per realization the trace covers, the eigenvalues
    of the Gamma that realization was solved with (`CouplingMatrices.jump_rates`).
    """

    times: np.ndarray
    n_excited: np.ndarray
    emission_rate: np.ndarray
    s_z: np.ndarray
    m_perp_sq: np.ndarray
    n_atoms: float
    populations: np.ndarray | None = None      # (T, N), single runs only
    snapshots: dict = field(default_factory=dict)
    n_realizations: int = 1
    stderr: dict | None = None                 # per-time standard errors
    failures: tuple = ()
    clamped_points: int = 0
    jump_rates: tuple = ()

    @property
    def gamma_normalized(self) -> np.ndarray:
        """Emission rate per remaining excitation, gamma(t) in units of gamma0."""
        out = np.full_like(self.emission_rate, np.nan)
        ok = self.n_excited > 1e-12
        out[ok] = self.emission_rate[ok] / self.n_excited[ok]
        return out


class _Layout:
    """Excitation-number blocks of rho for N atoms and a set of tracked offsets.

    Block (k, q) holds rho[x, y] over the states x with k excited atoms and
    y with q (each in increasing index order).  `blocks` lists the tracked
    blocks, those with k - q in `offsets`, in increasing k and then q; each
    is stored row-major at its own slice of the state vector, in that order.
    Offsets always include 0 and come in +/- pairs.

    `raise_rows[k][j, a]` is the position in sector k+1 of state a of sector
    k with atom j excited, or the sentinel C_{k+1} if it is excited already.
    It raises the rows and the columns of a block alike.
    """

    def __init__(self, n: int, offsets: tuple):
        self.n = n
        x = np.arange(1 << n)
        weight = np.bitwise_count(x).astype(np.intp)
        self.states = [np.flatnonzero(weight == k) for k in range(n + 1)]
        self.bits = [((s[:, None] >> np.arange(n)) & 1).astype(float)
                     for s in self.states]
        sizes = [len(s) for s in self.states]
        pos = np.empty(1 << n, dtype=np.intp)
        for s in self.states:
            pos[s] = np.arange(len(s))
        self.blocks = [(k, q) for k in range(n + 1) for q in range(n + 1) if k - q in offsets]
        self.start, self.size = {}, 0
        for k, q in self.blocks:
            self.start[k, q] = self.size
            self.size += sizes[k] * sizes[q]
        one = 1 << np.arange(n)[:, None]
        self.raise_rows = []
        for k in range(n):
            s = self.states[k]
            up = s | one
            self.raise_rows.append(np.where(up != s, pos[up], sizes[k + 1]))

    def block(self, y: np.ndarray, k: int, q: int) -> np.ndarray:
        shape = len(self.states[k]), len(self.states[q])
        start = self.start[k, q]
        return y[start:start + shape[0] * shape[1]].reshape(shape)

    def pack(self, rho: np.ndarray) -> np.ndarray:
        return np.concatenate([rho[np.ix_(self.states[k], self.states[q])].ravel()
                               for k, q in self.blocks])

    def unpack(self, y: np.ndarray) -> np.ndarray:
        rho = np.zeros((1 << self.n,) * 2, dtype=complex)
        for k, q in self.blocks:
            rho[np.ix_(self.states[k], self.states[q])] = self.block(y, k, q)
        return rho


def _product_start(init: InitialStateSpec, array: AtomArray, layout: _Layout) -> np.ndarray:
    """The product start `init` packed on `layout`, whatever offsets it tracks.

    Each tracked entry rho[x, y] is the product over the atoms, from the top
    atom down, of [[1 - p, conj b], [b, p]][x_i, y_i].  The solve passes the
    offset-0 layout for every start (see the module docstring).
    """
    p, b = init.single_atom_moments(array)
    atoms = np.array([[1 - p, b.conj()], [b, p]])
    y = np.empty(layout.size, dtype=complex)
    for k, q in layout.blocks:
        xs, ys = layout.states[k], layout.states[q]
        block = layout.block(y, k, q)
        block[...] = 1
        for i in reversed(range(layout.n)):
            block *= atoms[(xs[:, None] >> i) & 1, (ys >> i) & 1, i]
    return y


def _tracking_layout(rho: np.ndarray) -> _Layout:
    """The block layout holding exactly the offsets present in `rho`."""
    weight = np.bitwise_count(np.arange(rho.shape[0])).astype(np.intp)
    xs, ys = np.nonzero(rho)
    found = {int(d) for d in np.unique(weight[xs] - weight[ys])}
    offsets = found | {-d for d in found} | {0}
    return _Layout(rho.shape[0].bit_length() - 1, tuple(sorted(offsets)))


class _Generator:
    """drho/dt on the state vector of a `_Layout` (see module docstring)."""

    def __init__(self, layout: _Layout, couplings: CouplingMatrices):
        n = layout.n
        g = couplings.J - 0.5j * couplings.Gamma
        np.fill_diagonal(g, -0.5j * np.diag(couplings.Gamma))
        # A = sum_ij g_ij s_i^dag s_j, sector by sector: each state u of sector
        # k links row u + 2^i to column u + 2^j of sector k+1 (sentinels land
        # in the dropped last row and column; the diagonal sums one term per
        # atom).  Past 128 states, A's block has zero columns up to the length
        # `padded_length`, and acts on a block copy with as many rows.
        sizes = [len(s) for s in layout.states]
        self.a = [np.zeros((d, padded_length(d)), dtype=complex) for d in sizes]
        for k, up in enumerate(layout.raise_rows):
            a = np.zeros((sizes[k + 1] + 1,) * 2, dtype=complex)
            np.add.at(a, (up[:, None, :], up[None, :, :]), g[:, :, None])
            self.a[k + 1][:, :sizes[k + 1]] = a[:-1, :-1]
        self.layout = layout
        self.p = np.empty(layout.size, dtype=complex)  # P = A rho
        self.gamma = np.ascontiguousarray(couplings.Gamma)
        self.atoms = np.arange(n)[:, None]
        # per block (k, q): a copy of it padded with zero rows past its states
        # and one zero column, and the copy of block (k+1, q+1), the source of
        # its recycle term (None past the last sector)
        copies = {(k, q): np.zeros((max(padded_length(sizes[k]), sizes[k] + 1),
                                    sizes[q] + 1), dtype=complex)
                  for k, q in layout.blocks}
        self.terms = [(k, q, copies[k, q], copies.get((k + 1, q + 1)))
                      for k, q in layout.blocks]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        lay, n = self.layout, self.layout.n
        for k, q, copy, _ in self.terms:
            a = self.a[k]
            copy[:len(a), :-1] = lay.block(y, k, q)
            np.matmul(a, copy[:a.shape[1], :-1], out=lay.block(self.p, k, q))
        out = np.empty_like(y)
        for k, q, _, source in self.terms:
            # -i (P - P^dag), whose block (k, q) reads block (q, k) of P
            block = lay.block(out, k, q)
            np.subtract(lay.block(self.p, k, q), lay.block(self.p, q, k).T.conj(), out=block)
            block *= -1j
            if source is not None:
                # sum_ij Gamma_ij s_j rho s_i^dag: gather the rows s_j rho, mix
                # them with one real GEMM, then gather and sum the columns s_i^dag
                t = source[lay.raise_rows[k]]
                v = (self.gamma @ t.reshape(n, -1).view(np.float64)).view(complex)
                block += v.reshape(t.shape)[self.atoms, :, lay.raise_rows[q]].sum(axis=0).T
        return out


def lindblad_rhs(rho: np.ndarray, couplings: CouplingMatrices) -> np.ndarray:
    """drho/dt for one full density matrix (reference entry point).

    Packs the offset blocks `rho` holds (the generator conserves each
    offset), applies the block generator the solver integrates, and unpacks
    the result.
    """
    n = couplings.n_atoms
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"density matrix must be {1 << n}x{1 << n} for {n} atoms")
    layout = _tracking_layout(rho)
    return layout.unpack(_Generator(layout, couplings)(layout.pack(rho)))


def initial_density_matrix(init: InitialStateSpec, array: AtomArray) -> np.ndarray:
    """rho(0) as a full matrix: the product start on every offset, unpacked."""
    n = array.n_atoms
    layout = _Layout(n, tuple(range(-n, n + 1)))
    return layout.unpack(_product_start(init, array, layout))


def observation(populations, coherences, pair_populations, gamma, sites,
                snapshot: bool) -> tuple:
    """The (row, snapshot) both solvers record at a grid time.

    The row holds the populations <n_i>, the excitation number, the emission
    rate sum_ij Gamma_ij Re<s_i^dag s_j>, S_z, and the transverse second
    moment N/2 + sum_{i != j} Re<s_i^dag s_j>.  The snapshot (None unless
    `snapshot`) holds four keys and no other: copies of the populations, the
    coherences <s_i^dag s_j> and the pair populations <n_i n_j> (None at
    closure order 1), and the "sites", each atom's lattice row/col."""
    n = len(populations)
    n_excited = populations.sum()
    re = coherences.real
    row = {"n_excited": n_excited, "emission_rate": float((gamma * re).sum()),
           "s_z": n_excited - n / 2, "m_perp_sq": n / 2 + re.sum() - np.trace(re),
           "populations": populations}
    if not snapshot:
        return row, None
    return row, {"populations": populations.copy(), "coherences": coherences.copy(),
                 "pair_populations": None if pair_populations is None
                 else pair_populations.copy(), "sites": sites}


def _block_moments(y: np.ndarray, layout: _Layout) -> tuple:
    """Populations, coherences and pair populations from the diagonal blocks."""
    n = layout.n
    pops, nn = np.zeros(n), np.zeros((n, n))
    coh = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        block = layout.block(y, k, k)
        diag, bits = block.diagonal().real, layout.bits[k]
        pops += diag @ bits
        nn += (bits * diag[:, None]).T @ bits
        # <s_i^dag s_j> = sum_u rho[u + 2^j, u + 2^i] over u in block k-1
        pad = np.zeros((len(diag) + 1,) * 2, dtype=complex)
        pad[:-1, :-1] = block
        up = layout.raise_rows[k - 1]
        coh += pad[up[:, None, :], up[None, :, :]].sum(axis=2).T
    coh[np.diag_indices(n)] = pops
    return pops, coh, nn


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid point a requested time names.

    `t` names the nearest point of `times` when it lies within
    1e-9 * max(1, |t|) of it; otherwise this raises ValueError.
    """
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the time grid")
    return k


def integrate_on_grid(stepper, fun, y0: np.ndarray, times, observe, *, rtol: float,
                      atol: float, snapshot_times=None) -> tuple:
    """Step an ODE solver across a time grid, observing at every grid point.

    Once the grid has a second point, this builds the solver as
    `stepper(fun, times[0], y0, t_bound=times[-1], rtol=rtol, atol=atol)`;
    each caller passes its own module's `DOP853`.  `observe(t, y, snapshot)`
    sees the state at every grid time, read off the dense output of the step
    that reached it (its first len(y0) entries: `DOP853` pads the state),
    with `snapshot` true at the grid points that `snapshot_times` name (see
    `grid_index`).  It returns `(row, snapshot)`: a dict of the values to
    record at `t`, and the snapshot to keep there, or None.  Logs one INFO
    line at the grid point that reaches each tenth of the grid and one at
    the end with the RHS evaluations and accepted steps.  Returns `(times,
    series, snapshots)`: the grid as a float array, each row key stacked over
    the grid, and the snapshots by grid time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    snap_idx = set() if snapshot_times is None else {
        grid_index(times, float(t)) for t in snapshot_times}
    rows, snapshots, nt = [], {}, len(times)

    def visit(idx: int, y: np.ndarray):
        t = float(times[idx])
        row, snapshot = observe(t, y, idx in snap_idx)
        rows.append(row)
        if snapshot is not None:
            snapshots[t] = snapshot
        if nt > 1:  # the tenths of the grid that this point reaches
            for tenth in range(10 * idx // nt + 1, 10 * (idx + 1) // nt + 1):
                logger.info("integrated to t = %.6g: %d of %d grid points (%d%%)",
                            t, idx + 1, nt, 10 * tenth)

    visit(0, y0)
    if nt > 1:
        solver = stepper(fun, times[0], y0, t_bound=times[-1], rtol=rtol, atol=atol)
        idx, steps = 1, 0
        while idx < nt:
            solver.step()
            steps += 1
            interp = solver.dense_output()
            t_reach = solver.t + 1e-12 * max(1.0, abs(solver.t))
            while idx < nt and times[idx] <= t_reach:
                visit(idx, np.ascontiguousarray(interp(min(times[idx], solver.t))[:len(y0)]))
                idx += 1
        logger.info("integration done at t = %.6g: %d RHS evaluations, "
                    "%d accepted steps", solver.t, solver.nfev, steps)
    series = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return times, series, snapshots


def evolve_exact(init: InitialStateSpec, array: AtomArray,
                 couplings: CouplingMatrices, times, *, rtol: float = 1e-8,
                 atol: float = 1e-10, snapshot_times=None) -> ObservableTrace:
    """Integrate the master equation, streaming observables at `times`.

    rho is integrated as its offset-0 blocks for every start, coherent or
    not, as no recorded moment reads another offset (see the module
    docstring); one INFO line gives their size.  Every grid point is reduced
    on the fly to its observables, snapshots included, so memory stays at
    the size of those blocks regardless of the grid length.  The tolerance
    defaults serve direct calls; `ensemble_run` passes the config's.
    """
    n = array.n_atoms
    if couplings.n_atoms != n:
        raise ValueError("array and couplings disagree on atom count")
    if n > DEFAULT_ATOM_CAP:
        raise ValueError(f"{n} atoms exceeds the exact-solver cap of {DEFAULT_ATOM_CAP}")

    layout = _Layout(n, (0,))
    logger.info("exact solve on the offset-0 blocks, %d entries", layout.size)
    y0 = _product_start(init, array, layout)
    rhs = _Generator(layout, couplings)

    def fun(_t, y):
        return rhs(y.view(complex)).view(np.float64)

    def observe(_t: float, y: np.ndarray, snapshot: bool):
        return observation(*_block_moments(y.view(complex), layout), couplings.Gamma,
                           array.atom_rc, snapshot)

    times, series, snapshots = integrate_on_grid(
        DOP853, fun, y0.view(np.float64), times, observe, rtol=rtol, atol=atol,
        snapshot_times=snapshot_times)
    return ObservableTrace(times=times, n_atoms=float(n), snapshots=snapshots,
                           jump_rates=(couplings.jump_rates,), **series)
