import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nullsteer as ns
from nullsteer import InvalidMatrixError, InvalidParameterError

from helpers import glued_tree_reference_energies, random_unitary


def test_two_level_spectrum(two_level):
    model, decomp, _ = two_level
    assert model.basis_labels == ("l", "r")
    np.testing.assert_allclose(decomp.energies, [-1.0, 1.0], atol=1e-14)


def test_chain_characteristic_polynomial(chain):
    # independent check: the gamma=1 chain energies solve x^3 - x^2 - 2x + 1 = 0
    _, decomp, _ = chain
    for e in decomp.energies:
        assert abs(e**3 - e**2 - 2.0 * e + 1.0) < 1e-12
    assert decomp.w == 3


def test_chain_scales_with_gamma():
    decomp = ns.spectral_decompose(ns.build_three_level_chain(2.5))
    base = ns.spectral_decompose(ns.build_three_level_chain(1.0))
    np.testing.assert_allclose(decomp.energies, 2.5 * base.energies, atol=1e-12)


def test_v_atom_matrix_and_levels(v_atom):
    model, decomp, _ = v_atom
    assert model.basis_labels == ("D", "G", "B")
    h = model.hamiltonian
    np.testing.assert_allclose(np.diag(h).real, [3.0, 0.0, 5.0])
    assert h[0, 1] == 0.01 and h[1, 2] == 1.0 and h[0, 2] == 0.0
    # energies solve det(H - x) = 0 for the explicit 3x3
    for e in decomp.energies:
        p = (3.0 - e) * ((-e) * (5.0 - e) - 1.0) - 0.01 * (0.01 * (5.0 - e))
        assert abs(p) < 1e-10
    # weak gamma1 leaves the middle level pinned near E_D
    assert abs(decomp.energies[1] - 3.0) < 1e-4


def test_glued_tree_structure():
    for d, dim in ((1, 4), (2, 10), (3, 22), (4, 46)):
        model = ns.build_glued_tree(d)
        assert model.dim == dim
        assert sum(ns.glued_tree_column_sizes(d)) == dim
    model = ns.build_glued_tree(3)
    assert model.basis_labels[0] == "(1,1)"
    assert model.basis_labels[-1] == "(7,1)"
    assert "(4,8)" in model.basis_labels
    adj = -model.hamiltonian.real
    assert np.all(np.isin(adj, (0.0, 1.0)))
    degrees = adj.sum(axis=1)
    assert degrees[model.basis_labels.index("(1,1)")] == 2
    assert degrees[model.basis_labels.index("(4,1)")] == 2
    assert degrees[model.basis_labels.index("(2,1)")] == 3
    assert adj.sum() == 2 * 2 * (2**3 - 1) * 2  # 28 edges


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_glued_tree_analytic_spectrum(d):
    """Level energies and degeneracies match the closed-form mode families."""
    decomp = ns.spectral_decompose(ns.build_glued_tree(d))
    got = np.sort(
        np.concatenate([[lv.energy] * lv.degeneracy for lv in decomp.levels])
    )
    np.testing.assert_allclose(got, glued_tree_reference_energies(d), atol=1e-9)


def test_glued_tree_level_table(tree):
    _, decomp, _ = tree
    assert tuple(lv.degeneracy for lv in decomp.levels) == (1, 1, 3, 1, 1, 8, 1, 1, 3, 1, 1)
    assert decomp.w == 11
    np.testing.assert_allclose(decomp.energies, -decomp.energies[::-1], atol=1e-12)


def test_glued_tree_rejects_bad_depth():
    with pytest.raises(InvalidParameterError):
        ns.build_glued_tree(0)
    with pytest.raises(InvalidParameterError):
        ns.build_glued_tree(11)
    with pytest.raises(InvalidParameterError):
        ns.build_glued_tree(2.5)


def test_builders_reject_bad_couplings():
    with pytest.raises(InvalidParameterError):
        ns.build_two_level(0.0)
    with pytest.raises(InvalidParameterError):
        ns.build_three_level_chain(-1.0)
    with pytest.raises(InvalidParameterError):
        ns.build_v_atom(0.0, math.nan, 5.0, 0.01, 1.0)


def test_custom_hermiticity_gate():
    h = np.array([[1.0, 2e-10], [0.0, -1.0]])
    with pytest.raises(InvalidMatrixError):
        ns.build_custom(h)
    ok = np.array([[1.0, 1e-11], [0.0, -1.0]])
    model = ns.build_custom(ok)
    assert np.array_equal(model.hamiltonian, model.hamiltonian.conj().T)
    assert model.basis_labels == ("0", "1")
    with pytest.raises(InvalidMatrixError):
        ns.build_custom(np.ones((2, 3)))


def test_spectral_grouping_default_and_override():
    model = ns.build_custom(np.diag([0.0, 5e-9, 1.0]))
    grouped = ns.spectral_decompose(model)
    assert grouped.w == 2
    assert grouped.levels[0].degeneracy == 2
    split = ns.spectral_decompose(model, grouping_tol=1e-12)
    assert split.w == 3


def test_spectral_grouping_is_transitive():
    # chained near-coincidences collapse into one level even though the
    # endpoints are farther apart than the tolerance
    model = ns.build_custom(np.diag([0.0, 0.9e-8, 1.8e-8, 1.0]))
    decomp = ns.spectral_decompose(model)
    assert decomp.w == 2
    assert decomp.levels[0].degeneracy == 3


def test_projectors_orthonormal_and_complete(tree):
    model, decomp, _ = tree
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for k in range(decomp.w):
        pk = decomp.projector(k)
        np.testing.assert_allclose(pk @ pk, pk, atol=1e-12)
        for j in range(k + 1, decomp.w):
            assert np.max(np.abs(pk @ decomp.projector(j))) < 1e-12
        acc += pk
    np.testing.assert_allclose(acc, np.eye(model.dim), atol=1e-12)
    np.testing.assert_allclose(decomp.hamiltonian(), model.hamiltonian, atol=1e-12)


def _random_real_symmetric(seed, dim):
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return a + a.T


@pytest.mark.parametrize("model", [
    ns.build_glued_tree(6),
    ns.build_custom(_random_real_symmetric(7, 40)),
], ids=["glued_tree_d6", "random_real_symmetric"])
def test_real_hamiltonian_gives_one_real_v(model):
    decomp = ns.spectral_decompose(model)
    v = decomp.vectors
    assert v.dtype == np.float64
    assert all(np.shares_memory(lv.eigenvectors, v) for lv in decomp.levels)
    assert np.max(np.abs(v.T @ v - np.eye(model.dim))) < 1e-13
    # oracle: the complex Hermitian solver, grouped like the decomposition
    evals, vecs = np.linalg.eigh(model.hamiltonian.astype(complex))
    start = 0
    for k, lv in enumerate(decomp.levels):
        cols = slice(start, start + lv.degeneracy)
        assert abs(lv.energy - np.mean(evals[cols])) < 1e-12
        p_oracle = vecs[:, cols] @ vecs[:, cols].conj().T
        assert np.max(np.abs(decomp.projector(k) - p_oracle)) < 1e-12
        start += lv.degeneracy
    assert start == model.dim


def test_complex_hamiltonian_keeps_complex_v():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    model = ns.build_custom(a + a.conj().T)
    decomp = ns.spectral_decompose(model)
    v = decomp.vectors
    assert v.dtype == np.complex128
    assert all(np.shares_memory(lv.eigenvectors, v) for lv in decomp.levels)
    assert np.max(np.abs(v.conj().T @ v - np.eye(model.dim))) < 1e-13
    np.testing.assert_allclose(decomp.hamiltonian(), model.hamiltonian, atol=1e-12)


def test_propagator_unitary_and_diagonal(chain):
    model, decomp, _ = chain
    tau = 1.7
    u = ns.propagator(decomp, tau)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(model.dim), atol=1e-12)
    for lv in decomp.levels:
        v = lv.eigenvectors[:, 0]
        np.testing.assert_allclose(u @ v, np.exp(-1j * lv.energy * tau) * v, atol=1e-12)


def test_site_state(chain):
    model, _, _ = chain
    np.testing.assert_array_equal(ns.site_state(model, "1"), [0.0, 1.0, 0.0])
    with pytest.raises(InvalidParameterError):
        ns.site_state(model, "x")


def test_detection_state_requires_unit_norm():
    with pytest.raises(InvalidParameterError):
        ns.DetectionState(np.array([1.0, 1.0]))
    d = ns.DetectionState(np.array([1.0, 0.0]), description="site l")
    assert d.vector.dtype == complex


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_random_decomposition_reconstructs(seed, dim):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-2.0, 2.0, size=dim))
    q = random_unitary(rng, dim)
    h = (q * energies) @ q.conj().T
    model = ns.build_custom(h)
    decomp = ns.spectral_decompose(model)
    assert sum(lv.degeneracy for lv in decomp.levels) == dim
    np.testing.assert_allclose(decomp.hamiltonian(), model.hamiltonian, atol=1e-10)
