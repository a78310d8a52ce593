import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolarray.couplings import (
    CouplingMatrices,
    MotionSpec,
    _motional_rows,
    _pair_values,
    coupling_matrices,
    spectrum_scan,
)
from dipolarray.geometry import (
    DisorderSpec,
    DriveGeometry,
    EmptyRealizationError,
    LatticeSpec,
    build_array,
    dicke_array,
    dipole_vector,
)

from curve_features import find_local_maxima, resonance_onsets
from dyadic_green import green_tensor
from motional_reference import motional_displacements

K = 2 * np.pi


def reference_pair(r, e_dip, gamma0=1.0):
    g = np.conj(e_dip) @ green_tensor(r) @ e_dip
    return -1.5 * gamma0 * g.real, 3.0 * gamma0 * g.imag


def test_green_far_field_falloff():
    direction = np.array([0.3, -0.5, 0.81])
    direction /= np.linalg.norm(direction)
    near = np.linalg.norm(green_tensor(direction))
    far = np.linalg.norm(green_tensor(1e3 * direction))
    assert far < 1e-3 * near


def test_green_symmetric_and_even():
    r = np.array([0.21, -0.34, 0.12])
    g = green_tensor(r)
    np.testing.assert_allclose(g, g.T, atol=1e-15)
    np.testing.assert_allclose(g, green_tensor(-r), atol=1e-15)


def test_green_imaginary_part_short_distance_limit():
    target = K / (6 * np.pi)
    rng = np.random.default_rng(4)
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        e = raw / np.sqrt(np.vdot(raw, raw).real)
        val = (np.conj(e) @ green_tensor(1e-4 * direction).imag @ e).real
        assert abs(val - target) < 1e-6 * target


def test_green_rejects_zero():
    with pytest.raises(ValueError):
        green_tensor([0.0, 0.0, 0.0])


def test_single_atom():
    cm = coupling_matrices(build_array(LatticeSpec(1, 1, 0.3), seed=0))
    np.testing.assert_array_equal(cm.J, [[0.0]])
    np.testing.assert_array_equal(cm.Gamma, [[1.0]])


def test_dicke_limit():
    cm = coupling_matrices(dicke_array(3))
    np.testing.assert_array_equal(cm.Gamma, np.ones((3, 3)))
    np.testing.assert_array_equal(cm.J, np.zeros((3, 3)))


def test_two_atom_against_dyadic_oracle():
    arr = build_array(LatticeSpec(rows=1, cols=2, spacing=0.316), seed=0)
    cm = coupling_matrices(arr)
    e = dipole_vector(arr.drive)
    j_ref, g_ref = reference_pair(arr.atom_positions[0] - arr.atom_positions[1], e)
    assert abs(cm.J[0, 1] - j_ref) < 1e-10
    assert abs(cm.Gamma[0, 1] - g_ref) < 1e-10


@pytest.mark.parametrize("drive", [
    DriveGeometry(),
    DriveGeometry.from_angles(polarization="sigma_plus"),
    DriveGeometry(quantization_axis=(0.48, -0.36, 0.8), polarization="sigma_plus"),
], ids=["sigma_minus", "sigma_plus", "tilted_axis"])
def test_pair_kernel_matches_green_tensor_contraction(drive):
    # random separations from deep in the near field to several wavelengths
    rng = np.random.default_rng(17)
    direction = rng.normal(size=(200, 3))
    sep = direction / np.linalg.norm(direction, axis=1, keepdims=True)
    sep *= np.exp(rng.uniform(np.log(0.01), np.log(5.0), size=(200, 1)))
    e = dipole_vector(drive)
    jv, gv = _pair_values(sep, e)
    ref = np.array([reference_pair(r, e) for r in sep])
    scale = np.abs(ref).max(axis=0)
    np.testing.assert_allclose(jv, ref[:, 0], rtol=1e-12, atol=1e-14 * scale[0])
    np.testing.assert_allclose(gv, ref[:, 1], rtol=1e-12, atol=1e-14 * scale[1])


DRIVES = [
    DriveGeometry(),
    DriveGeometry.from_angles(polarization="sigma_plus"),
    DriveGeometry(quantization_axis=(0.48, -0.36, 0.8)),
    DriveGeometry(quantization_axis=(0.48, -0.36, 0.8), polarization="sigma_plus"),
]


def test_motion_averaged_pair_is_the_mean_of_green_tensor_over_samples():
    # On the 1x4 chain at spacing 0.5 the samples straddle u = pi and 2 pi,
    # where the half-angle tangent of the motional kernel diverges or vanishes.
    for drive in DRIVES:
        for cols, spacing in ((3, 0.3), (4, 0.5)):
            arr = build_array(LatticeSpec(rows=1, cols=cols, spacing=spacing),
                              drive=drive, seed=0)
            motion = MotionSpec(samples=300, excited_band_probability=0.5, seed=4)
            cm = coupling_matrices(arr, motion)
            disp = motional_displacements(arr.n_atoms, motion, drive.beam_axis)
            e = dipole_vector(drive)
            pos = arr.atom_positions
            iu = np.triu_indices(arr.n_atoms, 1)
            ref, straddled = [], set()
            for i, j in zip(*iu):
                rel = pos[i] - pos[j] + (disp[:, i] - disp[:, j]).T
                ref.append(np.array([reference_pair(r, e) for r in rel]).mean(axis=0))
                u = K * np.linalg.norm(rel, axis=1)
                straddled |= {k for k in (1, 2) if u.min() < k * np.pi < u.max()}
            if spacing == 0.5:
                assert straddled == {1, 2}
            for got, want in zip((cm.J[iu], cm.Gamma[iu]), np.array(ref).T):
                np.testing.assert_allclose(got, want, rtol=1e-12)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("band", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("drive", DRIVES + [DriveGeometry(beam_axis=(0.0, 0.0, 1.0))])
def test_motional_rows_hold_the_reference_draws_bit_for_bit(drive, band):
    # 6 atoms x 5001 samples: several rotation blocks and a partial last one
    arr = build_array(LatticeSpec(rows=2, cols=3, spacing=0.4), drive=drive, seed=0)
    motion = MotionSpec(samples=5001, excited_band_probability=band, seed=6)
    e = dipole_vector(drive)
    rows = _motional_rows(arr.atom_positions, e, motion, drive.beam_axis)
    xyz = arr.atom_positions.T[:, :, None] + motional_displacements(
        arr.n_atoms, motion, drive.beam_axis)
    assert np.array_equal(rows[:3], xyz)
    proj = np.array([e.real, e.imag]) @ xyz.reshape(3, -1)
    assert np.array_equal(rows[3:], proj.reshape(rows[3:].shape))


@pytest.mark.parametrize("shape, motion", [
    ((4, 5), MotionSpec(samples=20_000)),
    ((3, 3), MotionSpec(excited_band_probability=1.0)),
], ids=["20_atoms", "3x3_first_band"])
def test_motional_couplings_peak_near_the_row_table(shape, motion):
    # the (5, n, samples) row table is the only large array a motional build needs
    arr = build_array(LatticeSpec(*shape, spacing=0.4), seed=0)
    table = 40 * arr.n_atoms * motion.samples
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        coupling_matrices(arr, motion)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table, f"traced peak {peak / table:.2f}x the row table"


def test_colocated_pair_superradiant_sign():
    arr = build_array(LatticeSpec(rows=1, cols=2, spacing=1e-4), seed=0)
    cm = coupling_matrices(arr)
    assert cm.Gamma[0, 1] > 0.99


def test_duplicate_positions_rejected():
    spec = LatticeSpec(rows=1, cols=2, spacing=0.3)
    arr = build_array(spec, seed=0)
    squashed = arr.positions.copy()
    squashed[1] = squashed[0]
    bad = type(arr)(positions=squashed, occupied=arr.occupied, site_rc=arr.site_rc,
                    drive=arr.drive)
    with pytest.raises(ValueError, match="duplicate"):
        coupling_matrices(bad)


def test_motion_zero_widths_bitwise_identical():
    arr = build_array(LatticeSpec(rows=2, cols=3, spacing=0.4), seed=1)
    point = coupling_matrices(arr)
    mot = coupling_matrices(arr, MotionSpec(widths=(0.0, 0.0, 0.0), samples=10))
    assert np.array_equal(point.J, mot.J)
    assert np.array_equal(point.Gamma, mot.Gamma)


def test_motion_shrinks_pair_coupling():
    arr = build_array(LatticeSpec(rows=1, cols=2, spacing=0.316), seed=0)
    point = coupling_matrices(arr)
    mot = coupling_matrices(arr, MotionSpec(samples=100_000, seed=5))
    assert abs(mot.Gamma[0, 1]) < abs(point.Gamma[0, 1])
    assert mot.Gamma[0, 0] == 1.0
    assert mot.Gamma[1, 1] == 1.0


def test_motion_deterministic_in_seed():
    arr = build_array(LatticeSpec(rows=2, cols=2, spacing=0.4), seed=2)
    a = coupling_matrices(arr, MotionSpec(samples=2000, seed=9))
    b = coupling_matrices(arr, MotionSpec(samples=2000, seed=9))
    c = coupling_matrices(arr, MotionSpec(samples=2000, seed=10))
    assert np.array_equal(a.Gamma, b.Gamma) and np.array_equal(a.J, b.J)
    assert not np.array_equal(a.Gamma, c.Gamma)


def test_motion_preserves_trace_identity():
    arr = build_array(LatticeSpec(rows=3, cols=3, spacing=0.35), seed=3)
    mot = coupling_matrices(arr, MotionSpec(samples=5000, seed=1))
    rates = mot.jump_rates
    assert abs(rates.sum() - arr.n_atoms) < 1e-10 * arr.n_atoms


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3),
       spacing=st.floats(0.2, 1.5), sigma=st.floats(0.0, 0.08),
       band=st.none() | st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_matrix_invariants_random_geometries(rows, cols, spacing, sigma, band, seed):
    # band None: point atoms; otherwise motion with that first-band probability
    arr = build_array(LatticeSpec(rows=rows, cols=cols, spacing=spacing),
                      DisorderSpec(sigma=sigma), seed=seed)
    motion = None if band is None else MotionSpec(samples=200, excited_band_probability=band,
                                                  seed=seed)
    cm = coupling_matrices(arr, motion)
    n = cm.n_atoms
    assert np.array_equal(cm.J, cm.J.T)
    assert np.array_equal(cm.Gamma, cm.Gamma.T)
    np.testing.assert_array_equal(np.diag(cm.J), np.zeros(n))
    np.testing.assert_array_equal(np.diag(cm.Gamma), np.ones(n))
    assert np.abs(cm.Gamma).max() <= 1 + 1e-9
    assert np.linalg.eigvalsh(cm.Gamma).min() >= -1e-9 * n
    assert abs(cm.jump_rates.sum() - n) < 1e-10 * n


def test_distance_decay():
    e = dipole_vector(DriveGeometry())
    vals = []
    for r in (5.0, 50.0, 500.0):
        arr = build_array(LatticeSpec(rows=1, cols=2, spacing=r), seed=0)
        vals.append(np.abs(coupling_matrices(arr).Gamma[0, 1]))
    assert vals[0] <= 0.2
    assert vals[0] > vals[1] > vals[2]


def test_jump_spectrum_dicke_degenerate():
    rates = coupling_matrices(dicke_array(5)).jump_rates
    np.testing.assert_allclose(rates, [5, 0, 0, 0, 0], atol=1e-12)


def test_jump_spectrum_descending_deterministic_signs():
    arr = build_array(LatticeSpec(rows=3, cols=4, spacing=0.45),
                      DisorderSpec(sigma=0.03), seed=8)
    cm = coupling_matrices(arr)
    assert np.all(np.diff(cm.jump_rates) <= 0)
    # the rates are Gamma's eigenvalues
    np.testing.assert_array_equal(cm.jump_rates, np.linalg.eigvalsh(cm.Gamma)[::-1])


def test_resonance_onsets_at_commensurate_spacings():
    spacings = np.round(np.arange(0.44, 0.7801, 0.005), 4)
    var = []
    for a in spacings:
        arr = build_array(LatticeSpec(rows=12, cols=12, spacing=float(a)), seed=0)
        var.append(np.var(coupling_matrices(arr).jump_rates))
    onsets = resonance_onsets(spacings, var)
    assert any(abs(x - 0.5) <= 0.02 for x in onsets)
    assert any(abs(x - 1 / np.sqrt(2)) <= 0.02 for x in onsets)
    # each onset is preceded by a local minimum just below the commensurate point
    minima = [spacings[i] for i in range(1, len(spacings) - 1)
              if var[i] < var[i - 1] and var[i] <= var[i + 1]]
    assert any(0.46 <= m < 0.5 for m in minima)
    assert any(0.66 <= m < 1 / np.sqrt(2) for m in minima)


def test_spectrum_scan_zero_sigma_percentiles_collapse():
    scan = spectrum_scan(LatticeSpec(rows=4, cols=4, spacing=0.4),
                         [0.4, 0.5], DisorderSpec(sigma=0.0), realizations=3)
    np.testing.assert_array_equal(scan["var_rate_p25"], scan["var_rate_median"])
    np.testing.assert_array_equal(scan["var_rate_median"], scan["var_rate_p75"])
    np.testing.assert_array_equal(scan["max_rate_p25"], scan["max_rate_p75"])


def test_spectrum_scan_deterministic():
    spec = LatticeSpec(rows=3, cols=3, spacing=0.4, fill_probability=0.8)
    a = spectrum_scan(spec, [0.35, 0.45], DisorderSpec(sigma=0.02), 5, master_seed=3)
    b = spectrum_scan(spec, [0.35, 0.45], DisorderSpec(sigma=0.02), 5, master_seed=3)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def test_jump_rates_are_the_descending_eigenvalues_of_gamma():
    arr = build_array(LatticeSpec(rows=3, cols=3, spacing=0.35),
                      DisorderSpec(sigma=0.03), seed=4)
    for cm in (coupling_matrices(arr), coupling_matrices(arr, MotionSpec(samples=500))):
        assert cm.jump_rates.shape == (arr.n_atoms,)
        np.testing.assert_array_equal(cm.jump_rates, np.linalg.eigvalsh(cm.Gamma)[::-1])


def test_spectrum_scan_diagonalizes_gamma_once_per_realization(monkeypatch):
    calls = {"eigvalsh": 0, "eigh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    spacings, realizations = [0.3, 0.4, 0.5], 4
    spectrum_scan(LatticeSpec(rows=3, cols=3, spacing=0.3), spacings,
                  DisorderSpec(sigma=0.02), realizations)
    assert calls == {"eigvalsh": len(spacings) * realizations, "eigh": 0}


def test_spectrum_scan_retries_empty_realizations():
    # fill 0.3 on a 1x2 lattice: empty loadings are common, retries recover
    spec = LatticeSpec(rows=1, cols=2, spacing=0.4, fill_probability=0.3)
    scan = spectrum_scan(spec, [0.4], DisorderSpec(), realizations=4, master_seed=0)
    assert np.isfinite(scan["var_rate_median"]).all()
    # fill 0 can never load: bounded retries then the rejection propagates
    dead = LatticeSpec(rows=1, cols=1, spacing=0.4, fill_probability=0.0)
    with pytest.raises(EmptyRealizationError):
        spectrum_scan(dead, [0.4], DisorderSpec(), realizations=1)


def test_find_local_maxima():
    xs = [0, 1, 2, 3, 4]
    assert find_local_maxima(xs, [0, 2, 1, 3, 0]) == [1.0, 3.0]
    assert find_local_maxima(xs, [0, 1, 2, 3, 4]) == []


def test_coupling_matrices_validation():
    good_j = np.zeros((2, 2))
    good_g = np.eye(2)
    with pytest.raises(ValueError, match="symmetric"):
        CouplingMatrices(J=np.array([[0.0, 1.0], [0.5, 0.0]]), Gamma=good_g)
    with pytest.raises(ValueError, match="diagonal"):
        CouplingMatrices(J=np.array([[0.5, 0.0], [0.0, 0.0]]), Gamma=good_g)
    with pytest.raises(ValueError, match="diagonal"):
        CouplingMatrices(J=good_j, Gamma=2 * np.eye(2))
    with pytest.raises(ValueError, match="exceed"):
        g = np.array([[1.0, 1.5], [1.5, 1.0]])
        CouplingMatrices(J=good_j, Gamma=g)
    with pytest.raises(ValueError, match="semidefinite"):
        # |entries| <= gamma0 yet indefinite (needs N >= 3: for N = 2 the
        # bound check already implies positive semidefiniteness)
        g = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        CouplingMatrices(J=np.zeros((3, 3)), Gamma=g)


def test_coupling_matrices_store_validated_arrays():
    """Array-like J and Gamma are stored as the float arrays the checks
    validated, so a nested list works wherever an array does."""
    cm = CouplingMatrices(J=[[0.0]], Gamma=[[1.0]])
    assert cm.n_atoms == 1
    assert isinstance(cm.J, np.ndarray) and cm.J.dtype == float
    pair = CouplingMatrices(J=[[0.0, 0.2], [0.2, 0.0]], Gamma=[[1.0, 0.5], [0.5, 1.0]])
    from dipolarray.cumulant import ClosureOrder, evolve_cumulant
    from dipolarray.exact import InitialStateSpec
    arr = build_array(LatticeSpec(1, 2, 0.3), seed=0)
    trace = evolve_cumulant(InitialStateSpec(1.0), arr, pair,
                            ClosureOrder(2, False), [0.0, 0.5, 1.0])
    assert trace.n_excited[0] == 2.0
    assert np.all(np.diff(trace.n_excited) < 0)


def test_motion_spec_validation():
    with pytest.raises(ValueError):
        MotionSpec(widths=(0.05, -0.01, 0.1))
    with pytest.raises(ValueError):
        MotionSpec(excited_band_probability=1.5)
    with pytest.raises(ValueError):
        MotionSpec(samples=0)
    for samples in (2.5, 100.0, True, "100"):
        with pytest.raises(ValueError, match="samples must be an integer"):
            MotionSpec(samples=samples)
