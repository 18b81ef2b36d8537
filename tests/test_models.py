import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nullsteer as ns
from nullsteer import InvalidMatrixError, InvalidParameterError
from nullsteer.configio import build_model

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


def _loop_glued_tree(d):
    """Oracle: -adjacency of the depth-d glued tree, edge by edge."""
    sizes = ns.glued_tree_column_sizes(d)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    adj = np.zeros((offsets[-1], offsets[-1]))
    for j in range(2 * d):
        for s in range(sizes[j]):
            for t in ((2 * s, 2 * s + 1) if j < d else (s // 2,)):
                a, b = offsets[j] + s, offsets[j + 1] + t
                adj[a, b] = adj[b, a] = 1.0
    return np.negative(adj, out=adj)  # -adj, negative zeros included


@pytest.mark.parametrize("d", range(1, 11))
def test_glued_tree_matches_the_edge_loop_bit_for_bit(d):
    # Negative zeros too: eigh's reflections read their sign.
    want = _loop_glued_tree(d).tobytes()
    assert ns.build_glued_tree(d).hamiltonian.tobytes() == want


def test_hermiticity_check_reaches_every_tile():
    # dim 600 spans three 256-wide tiles; the flaw sits in the last pair.
    h = np.zeros((600, 600))
    h[3, 590], h[590, 3] = 1.0, 1.0 + 2e-12
    with pytest.raises(InvalidMatrixError, match="Hermitian to 1e-12"):
        ns.HermitianModel(h, tuple(map(str, range(600))))
    h[590, 3] = 1.0 + 5e-13
    assert ns.HermitianModel(h, tuple(map(str, range(600)))).dim == 600


@pytest.mark.parametrize("d", [3, 5, 8])
def test_krylov_basis_of_the_tree_is_its_column_space(d):
    """The root and a column-2 start span the 2d + 1 column states: Q^dag H Q
    is H on an invariant space, with the column chain's levels."""
    model = ns.build_glued_tree(d)
    root = ns.site_state(model, "(1,1)")
    start = ns.site_state(model, "(2,1)") + ns.site_state(model, "(2,2)")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ns.models, "KRYLOV_MAX_SHARE", 1.0)
        q, h = ns.models.krylov_basis(model.hamiltonian, (root, start / math.sqrt(2.0)))
    assert q.dtype == h.dtype == float and q.shape == (model.dim, 2 * d + 1)
    np.testing.assert_allclose(q.T @ q, np.eye(2 * d + 1), atol=1e-14)
    assert np.abs(model.hamiltonian @ q - q @ h).max() < 1e-13
    chain = -2.0 * math.sqrt(2.0) * np.cos(np.arange(1, 2 * d + 2) * np.pi / (2 * d + 2))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), np.sort(chain), atol=1e-13)


def test_krylov_basis_gives_up_past_its_share():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 40))
    h = a + a.T
    vectors = (np.eye(40)[0], rng.normal(size=40))
    assert ns.models.krylov_basis(h, vectors) is None  # a generic start fills the space
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ns.models, "KRYLOV_MAX_SHARE", 1.0)
        q, _ = ns.models.krylov_basis(h + 1j * np.triu(a, 1) - 1j * np.triu(a, 1).T, vectors)
    assert q.dtype == complex and q.shape == (40, 40)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_glued_tree_analytic_spectrum(d):
    """Level energies and degeneracies match the closed-form mode families."""
    decomp = ns.spectral_decompose(ns.build_glued_tree(d))
    got = np.sort(decomp.column_energies)
    np.testing.assert_allclose(got, glued_tree_reference_energies(d), atol=1e-9)


def test_glued_tree_level_table(tree):
    _, decomp, _ = tree
    assert tuple(decomp.degeneracies) == (1, 1, 3, 1, 1, 8, 1, 1, 3, 1, 1)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_custom_rejects_non_finite_entries(bad):
    # NaN passes a Hermiticity test written as "deviation > tol"
    with pytest.raises(InvalidMatrixError, match="finite"):
        ns.build_custom(np.array([[0.0, bad], [bad, 1.0]]))


def test_spectral_grouping_default_and_override():
    model = ns.build_custom(np.diag([0.0, 5e-9, 1.0]))
    grouped = ns.spectral_decompose(model)
    assert grouped.w == 2
    assert grouped.degeneracies[0] == 2
    split = ns.spectral_decompose(model, grouping_tol=1e-12)
    assert split.w == 3


def test_spectral_grouping_is_transitive():
    # chained near-coincidences collapse into one level even though the
    # endpoints are farther apart than the tolerance
    model = ns.build_custom(np.diag([0.0, 0.9e-8, 1.8e-8, 1.0]))
    decomp = ns.spectral_decompose(model)
    assert decomp.w == 2
    assert decomp.degeneracies[0] == 3


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


def _custom_config_model(matrix_re, matrix_im):
    """A `custom` model built from its JSON config."""
    spec = {"type": "custom", "matrix_re": matrix_re.tolist(), "matrix_im": matrix_im.tolist()}
    return build_model(ns.parse_config(json.dumps(
        {"model": spec, "detection": {"site": "0"}, "tau": 1.0, "experiment": "spectrum"})))


@pytest.mark.parametrize("model", [
    ns.build_glued_tree(6),
    ns.build_custom(_random_real_symmetric(7, 40)),
    _custom_config_model(_random_real_symmetric(8, 12), np.zeros((12, 12))),
], ids=["glued_tree_d6", "random_real_symmetric", "custom_config_zero_matrix_im"])
def test_real_hamiltonian_gives_one_real_v(model):
    assert model.hamiltonian.dtype == np.float64
    decomp = ns.spectral_decompose(model)
    v = decomp.vectors
    assert v.dtype == np.float64
    assert all(np.shares_memory(decomp.members(k), v) for k in range(decomp.w))
    assert np.max(np.abs(v.T @ v - np.eye(model.dim))) < 1e-13
    # oracle: the complex Hermitian solver, grouped like the decomposition
    evals, vecs = np.linalg.eigh(model.hamiltonian.astype(complex))
    start = 0
    for k, (energy, degeneracy) in enumerate(zip(decomp.energies, decomp.degeneracies)):
        cols = slice(start, start + degeneracy)
        assert abs(energy - np.mean(evals[cols])) < 1e-12
        p_oracle = vecs[:, cols] @ vecs[:, cols].conj().T
        assert np.max(np.abs(decomp.projector(k) - p_oracle)) < 1e-12
        start += degeneracy
    assert start == model.dim


def test_complex_hamiltonian_keeps_complex_v():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    model = ns.build_custom(a + a.conj().T)
    assert model.hamiltonian.dtype == np.complex128
    decomp = ns.spectral_decompose(model)
    v = decomp.vectors
    assert v.dtype == np.complex128
    assert all(np.shares_memory(decomp.members(k), v) for k in range(decomp.w))
    assert np.max(np.abs(v.conj().T @ v - np.eye(model.dim))) < 1e-13
    np.testing.assert_allclose(decomp.hamiltonian(), model.hamiltonian, atol=1e-12)


def test_propagator_unitary_and_diagonal(chain):
    model, decomp, _ = chain
    tau = 1.7
    u = ns.propagator(decomp, tau)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(model.dim), atol=1e-12)
    for k, energy in enumerate(decomp.energies):
        v = decomp.members(k)[:, 0]
        np.testing.assert_allclose(u @ v, np.exp(-1j * energy * tau) * v, atol=1e-12)


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
    assert sum(decomp.degeneracies) == dim
    np.testing.assert_allclose(decomp.hamiltonian(), model.hamiltonian, atol=1e-10)
