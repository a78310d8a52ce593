"""The symbolic moment engine must agree with the density-matrix solver."""

import numpy as np
import pytest

from dipolarray.couplings import coupling_matrices
from dipolarray.exact import lindblad_rhs
from dipolarray.geometry import LatticeSpec, build_array

from moment_algebra import (
    adjoint_rhs,
    closed_rhs,
    closure_expectation,
    dense_operator,
    moments_from_density,
    multiply,
    set_partitions,
)


def random_density(n_atoms, seed, u1_symmetric=False):
    """Random full-rank density matrix; optionally dephased across excitation
    sectors so every moment with unbalanced raising/lowering counts vanishes."""
    rng = np.random.default_rng(seed)
    dim = 2 ** n_atoms
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    if u1_symmetric:
        weights = np.array([bin(x).count("1") for x in range(dim)])
        rho = np.where(weights[:, None] == weights[None, :], rho, 0)
        rho /= np.trace(rho).real
    return rho


def random_product_density(n_atoms, seed):
    rng = np.random.default_rng(seed)
    rho = np.array([[1.0 + 0j]])
    for _ in range(n_atoms):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r1 = m @ m.conj().T
        rho = np.kron(r1 / np.trace(r1).real, rho)  # atom 0 least significant
    return rho


def test_multiply_matches_dense_products():
    rng = np.random.default_rng(3)
    kinds = ["sp", "sm", "n"]
    for _ in range(40):
        length = rng.integers(1, 5)
        raw = [(int(rng.integers(0, 3)), kinds[rng.integers(0, 3)])
               for _ in range(length)]
        dense = np.eye(8, dtype=complex)
        for atom, kind in raw:
            dense = dense @ dense_operator(((atom, kind),), 3)
        acc = [(1.0 + 0j, ())]
        for atom, kind in raw:
            acc = [(c * c2, o2) for c, o in acc
                   for c2, o2 in multiply(o, ((atom, kind),))]
        rebuilt = sum((c * dense_operator(o, 3) for c, o in acc),
                      np.zeros((8, 8), dtype=complex))
        np.testing.assert_allclose(rebuilt, dense, atol=1e-13)


def test_multiply_same_atom_commutator():
    # sm * sp = identity - n, the one branching product in the table
    terms = dict((o, c) for c, o in multiply(((0, "sm"),), ((0, "sp"),)))
    assert terms[()] == 1.0
    assert terms[((0, "n"),)] == -1.0


def test_set_partition_counts_are_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell


@pytest.mark.parametrize("n_atoms,seed", [(2, 0), (3, 1), (4, 2), (6, 3)])
def test_adjoint_rhs_matches_lindblad(n_atoms, seed):
    # chains up to N = 4; N = 6 is a 2x3 lattice, a 2-D Gamma with mixed signs
    rows = 2 if n_atoms == 6 else 1
    arr = build_array(LatticeSpec(rows, n_atoms // rows, 0.37), seed=0)
    cm = coupling_matrices(arr)
    rho = random_density(n_atoms, seed)
    drho = lindblad_rhs(rho, cm)
    moments = moments_from_density(rho)
    tracked = [((0, "n"),), ((0, "sp"), (1, "sm")), ((0, "sm"),)]
    if n_atoms >= 3:
        tracked += [((0, "n"), (1, "n")), ((0, "n"), (1, "sp"), (2, "sm")),
                    ((0, "sm"), (1, "sm")), ((0, "n"), (1, "sm"))]
    if n_atoms >= 4:
        tracked += [((0, "n"), (1, "n"), (2, "n")),
                    ((0, "sp"), (1, "sm"), (2, "n"), (3, "n"))]
    for ops in tracked:
        want = complex(np.trace(dense_operator(ops, n_atoms) @ drho))
        got = sum(c * moments(o) for c, o in adjoint_rhs(ops, cm.J, cm.Gamma))
        assert abs(got - want) < 1e-12, ops


def test_closure_is_exact_on_product_states():
    rho = random_product_density(4, seed=9)
    moments = moments_from_density(rho)
    for ops in [((0, "n"), (1, "n")), ((0, "sp"), (1, "sm")),
                ((0, "n"), (1, "sp"), (2, "sm")),
                ((0, "n"), (1, "n"), (2, "sp"), (3, "sm"))]:
        exact = moments(ops)
        for alpha in (1, 2, 3):
            got = closure_expectation(ops, moments, alpha)
            assert abs(got - exact) < 1e-12, (ops, alpha)


def test_closure_passthrough_below_order():
    rho = random_density(3, seed=4)
    moments = moments_from_density(rho)
    ops = ((0, "n"), (1, "sp"), (2, "sm"))
    assert closure_expectation(ops, moments, 3) == moments(ops)


def test_closed_rhs_reduces_to_exact_when_order_covers_system():
    n_atoms = 3
    arr = build_array(LatticeSpec(1, n_atoms, 0.4), seed=0)
    cm = coupling_matrices(arr)
    rho = random_density(n_atoms, seed=11)
    drho = lindblad_rhs(rho, cm)
    moments = moments_from_density(rho)
    for ops in [((0, "n"),), ((0, "sp"), (1, "sm")), ((0, "n"), (1, "n"))]:
        want = complex(np.trace(dense_operator(ops, n_atoms) @ drho))
        got = closed_rhs(ops, cm.J, cm.Gamma, moments, alpha=3)
        assert abs(got - want) < 1e-12


def test_u1_symmetric_density_kills_odd_moments():
    rho = random_density(3, seed=6, u1_symmetric=True)
    moments = moments_from_density(rho)
    for ops in [((0, "sm"),), ((0, "sp"),), ((0, "n"), (1, "sm")),
                ((0, "sm"), (1, "sm")), ((0, "sp"), (1, "sp"), (2, "n"))]:
        assert abs(moments(ops)) < 1e-14
    assert abs(moments(((0, "sp"), (1, "sm")))) > 1e-6
