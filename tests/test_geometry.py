import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarray.geometry import (
    AtomArray,
    DisorderSpec,
    DriveGeometry,
    EmptyRealizationError,
    LatticeSpec,
    build_array,
    dicke_array,
    dipole_vector,
)


def test_full_lattice_positions_exact():
    spec = LatticeSpec(rows=3, cols=4, spacing=0.5)
    arr = build_array(spec, seed=7)
    assert arr.n_atoms == 12
    # site (r, c) -> (c*a, r*a, 0)
    idx = {tuple(rc): i for i, rc in enumerate(arr.site_rc)}
    got = arr.positions[idx[(2, 3)]]
    np.testing.assert_allclose(got, [1.5, 1.0, 0.0], atol=0)
    assert np.all(arr.positions[:, 2] == 0.0)


def test_loading_reproducible_and_seed_sensitive():
    spec = LatticeSpec(rows=6, cols=6, spacing=0.3, fill_probability=0.5)
    a = build_array(spec, seed=11)
    b = build_array(spec, seed=11)
    c = build_array(spec, seed=12)
    assert np.array_equal(a.occupied, b.occupied)
    assert not np.array_equal(a.occupied, c.occupied)


def test_loading_mean_is_binomial():
    spec = LatticeSpec(rows=4, cols=4, spacing=0.3, fill_probability=0.5)
    total = 0
    n_draws = 10_000
    for seed in range(n_draws):
        try:
            total += build_array(spec, seed=seed).n_atoms
        except EmptyRealizationError:
            pass
    mean = total / n_draws
    # Binomial(16, 0.5): mean 8, sd of the sample mean = 2/sqrt(n_draws)
    assert abs(mean - 8.0) < 4 * 2 / np.sqrt(n_draws)


def test_exact_atom_number_loading():
    spec = LatticeSpec(rows=5, cols=5, spacing=0.4, atom_number_target=9)
    for seed in range(20):
        arr = build_array(spec, seed=seed)
        assert arr.n_atoms == 9


def test_empty_realization_raises():
    spec = LatticeSpec(rows=1, cols=1, spacing=0.3, fill_probability=0.0)
    with pytest.raises(EmptyRealizationError):
        build_array(spec, seed=0)


def test_disorder_statistics():
    spec = LatticeSpec(rows=50, cols=50, spacing=0.3)
    sigma = 0.05
    arr = build_array(spec, DisorderSpec(sigma=sigma), seed=3)
    ref = build_array(spec, seed=3)
    delta = arr.positions - ref.positions
    n = delta.shape[0]
    for ax in range(3):
        assert abs(delta[:, ax].mean()) < 5 * sigma / np.sqrt(n)
        assert abs(delta[:, ax].std() - sigma) < 5 * sigma / np.sqrt(2 * n)


def test_disorder_in_plane_only():
    spec = LatticeSpec(rows=10, cols=10, spacing=0.3)
    arr = build_array(spec, DisorderSpec(sigma=0.1, in_plane_only=True), seed=5)
    assert np.all(arr.positions[:, 2] == 0.0)


def test_dicke_array_colocated():
    arr = dicke_array(5)
    assert arr.dicke
    assert arr.n_atoms == 5
    assert np.all(arr.atom_positions == 0.0)


def test_dipole_unit_and_transverse():
    for pol in ("sigma_minus", "sigma_plus"):
        d = dipole_vector(DriveGeometry(polarization=pol))
        q = np.asarray(DriveGeometry().quantization_axis)
        assert abs(np.vdot(d, d) - 1.0) < 1e-12
        assert abs(np.dot(q, d)) < 1e-12


def test_dipole_z_axis_reference():
    d = dipole_vector(DriveGeometry(quantization_axis=(0, 0, 1.0)))
    np.testing.assert_allclose(d, np.array([1.0, -1.0j, 0.0]) / np.sqrt(2), atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(phi0=st.floats(0, 2 * np.pi), dphi=st.floats(-np.pi, np.pi))
def test_dipole_covariant_under_z_rotation(phi0, dphi):
    def drive_at(phi):
        return DriveGeometry(quantization_axis=(np.cos(phi), np.sin(phi), 0.0))

    c, s = np.cos(dphi), np.sin(dphi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    d0 = dipole_vector(drive_at(phi0))
    d1 = dipole_vector(drive_at(phi0 + dphi))
    np.testing.assert_allclose(d1, rot @ d0, atol=1e-10)


def test_validation_errors():
    with pytest.raises(ValueError):
        LatticeSpec(rows=0, cols=3, spacing=0.3)
    with pytest.raises(ValueError):
        LatticeSpec(rows=2, cols=2, spacing=-1.0)
    with pytest.raises(ValueError):
        LatticeSpec(rows=2, cols=2, spacing=0.3, fill_probability=1.5)
    with pytest.raises(ValueError):
        LatticeSpec(rows=2, cols=2, spacing=0.3, atom_number_target=5)
    with pytest.raises(ValueError):
        DisorderSpec(sigma=-0.1)
    with pytest.raises(ValueError):
        DriveGeometry(quantization_axis=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        DriveGeometry(polarization="linear")
    with pytest.raises(EmptyRealizationError):
        AtomArray(positions=np.zeros((1, 3)), occupied=np.zeros(1, dtype=bool),
                  site_rc=np.zeros((1, 2), dtype=int), drive=DriveGeometry())
