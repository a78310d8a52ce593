"""Emitter array geometry: lattices, loading, disorder, drive frame.

Lengths are measured in units of the transition wavelength (lambda = 1), so a
spacing of 0.316 means 0.316 lambda.  Arrays live in the z = 0 plane; Gaussian
positional disorder may displace atoms in all three directions or, optionally,
in-plane only.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .seeding import STREAM_DISORDER, STREAM_OCCUPANCY, rng_for

_UNIT_TOL = 1e-12


class EmptyRealizationError(RuntimeError):
    """Raised when stochastic loading produces an array with zero atoms."""


def _as_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be unit length (|v| = {np.linalg.norm(v)!r})")
    return v


@dataclass(frozen=True)
class DriveGeometry:
    """Quantization axis, excitation beam axis, and transition polarization.

    Defaults mirror the in-plane arrangement used throughout: quantization
    axis 30 degrees from x toward y, beam axis 15 degrees from x, sigma-minus
    polarized transition.
    """

    quantization_axis: tuple[float, float, float] = (
        np.cos(np.pi / 6), np.sin(np.pi / 6), 0.0)
    beam_axis: tuple[float, float, float] = (
        np.cos(np.pi / 12), np.sin(np.pi / 12), 0.0)
    polarization: str = "sigma_minus"

    def __post_init__(self):
        _as_unit(self.quantization_axis, "quantization_axis")
        _as_unit(self.beam_axis, "beam_axis")
        if self.polarization not in ("sigma_minus", "sigma_plus"):
            raise ValueError(f"polarization must be sigma_minus or sigma_plus, "
                             f"got {self.polarization!r}")

    @classmethod
    def from_angles(cls, quantization_deg: float = 30.0, beam_deg: float = 15.0,
                    polarization: str = "sigma_minus") -> "DriveGeometry":
        """In-plane axes given as angles from +x, in degrees."""
        qa = np.deg2rad(quantization_deg)
        ba = np.deg2rad(beam_deg)
        return cls(quantization_axis=(np.cos(qa), np.sin(qa), 0.0),
                   beam_axis=(np.cos(ba), np.sin(ba), 0.0),
                   polarization=polarization)


@dataclass(frozen=True)
class LatticeSpec:
    """Rectangular lattice with Bernoulli site loading.

    `atom_number_target` switches to exact-N loading: exactly that many sites
    are occupied, drawn uniformly over site subsets (the conditional law of
    independent Bernoulli loading given the total).
    """

    rows: int
    cols: int
    spacing: float
    fill_probability: float = 1.0
    atom_number_target: int | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if not 0.0 <= self.fill_probability <= 1.0:
            raise ValueError("fill_probability must lie in [0, 1]")
        if self.atom_number_target is not None:
            if (isinstance(self.atom_number_target, bool)
                    or not isinstance(self.atom_number_target, numbers.Integral)):
                raise ValueError("atom_number_target must be an integer")
            if not 1 <= self.atom_number_target <= self.n_sites:
                raise ValueError("atom_number_target out of range")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian positional disorder, standard deviation per axis.

    sigma is isotropic; with `in_plane_only` the z component is suppressed.
    """

    sigma: float = 0.0
    in_plane_only: bool = False

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class AtomArray:
    """Concrete realization: site grid, occupancy, displaced positions.

    `positions` covers every lattice site (occupied or not); solvers use
    `atom_positions`, which selects the occupied rows.  `site_rc` carries the
    integer (row, col) of each site for displacement-indexed correlation maps.
    """

    positions: np.ndarray          # (n_sites, 3) float, disorder included
    occupied: np.ndarray           # (n_sites,) bool
    site_rc: np.ndarray            # (n_sites, 2) int
    drive: DriveGeometry
    dicke: bool = False

    def __post_init__(self):
        if self.n_atoms == 0:
            raise EmptyRealizationError("array has no occupied sites")

    @property
    def n_atoms(self) -> int:
        return int(np.count_nonzero(self.occupied))

    @property
    def atom_positions(self) -> np.ndarray:
        return self.positions[self.occupied]

    @property
    def atom_rc(self) -> np.ndarray:
        return self.site_rc[self.occupied]


def build_array(spec: LatticeSpec, disorder: DisorderSpec | None = None,
                drive: DriveGeometry | None = None, seed: int = 0) -> AtomArray:
    """Realize one loading of the lattice.

    Site (r, c) sits at (c*a, r*a, 0).  Occupancy is drawn first from the
    loading stream of `seed`; displacements are drawn for every site (occupied
    or not, so the displacement field does not depend on the loading) from
    the disorder stream of `seed`.
    """
    disorder = disorder or DisorderSpec()
    drive = drive or DriveGeometry()

    n_sites = spec.n_sites
    rr, cc = np.meshgrid(np.arange(spec.rows), np.arange(spec.cols), indexing="ij")
    site_rc = np.column_stack([rr.ravel(), cc.ravel()]).astype(int)
    positions = np.zeros((n_sites, 3))
    positions[:, 0] = site_rc[:, 1] * spec.spacing
    positions[:, 1] = site_rc[:, 0] * spec.spacing

    rng_occ = rng_for(seed, STREAM_OCCUPANCY)
    if spec.atom_number_target is not None:
        chosen = rng_occ.choice(n_sites, size=spec.atom_number_target, replace=False)
        occupied = np.zeros(n_sites, dtype=bool)
        occupied[chosen] = True
    elif spec.fill_probability >= 1.0:
        occupied = np.ones(n_sites, dtype=bool)
    else:
        occupied = rng_occ.random(n_sites) < spec.fill_probability

    if disorder.sigma > 0:
        delta = rng_for(seed, STREAM_DISORDER).normal(0.0, disorder.sigma, size=(n_sites, 3))
        if disorder.in_plane_only:
            delta[:, 2] = 0.0
        positions = positions + delta

    return AtomArray(positions=positions, occupied=occupied, site_rc=site_rc,
                     drive=drive)


def dicke_array(n: int, drive: DriveGeometry | None = None) -> AtomArray:
    """n co-located emitters (the all-to-all limit used for ladder checks)."""
    if n < 1:
        raise ValueError("need at least one atom")
    drive = drive or DriveGeometry()
    return AtomArray(positions=np.zeros((n, 3)),
                     occupied=np.ones(n, dtype=bool),
                     site_rc=np.zeros((n, 2), dtype=int), drive=drive, dicke=True)


def dipole_vector(drive: DriveGeometry) -> np.ndarray:
    """Complex unit dipole direction for the circular transition.

    With q the quantization axis expressed in spherical angles (theta, phi),
    the real orthonormal pair (e1, e2) = (theta_hat, phi_hat) completes a
    right-handed triad (e1 x e2 = q), and

        e = (e1 + s*i*e2) / sqrt(2),   s = -1 for sigma_minus, +1 for sigma_plus.

    This construction co-rotates with q under rotations about z: rotating the
    quantization axis rotates e by the same matrix.  For q = z it reduces to
    (x - i y)/sqrt(2) for sigma_minus.
    """
    q = _as_unit(drive.quantization_axis, "quantization_axis")
    theta = np.arccos(np.clip(q[2], -1.0, 1.0))
    phi = np.arctan2(q[1], q[0])
    e1 = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)])
    e2 = np.array([-np.sin(phi), np.cos(phi), 0.0])
    s = -1.0 if drive.polarization == "sigma_minus" else 1.0
    e = (e1 + 1j * s * e2) / np.sqrt(2.0)
    return e
