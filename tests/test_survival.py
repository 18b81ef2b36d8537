import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nullsteer as ns
from nullsteer import (
    ExceptionalSpectrumError,
    InvalidParameterError,
    NumericalFailureError,
    RootTooCloseError,
)
from nullsteer.charges import ALIAS_TOL, _alias_groups

from helpers import (
    dense_eigenvalues,
    disk_pair_residual,
    match_eigenvalues,
    random_model,
    random_unitary,
    with_root_outside_disk,
)


def _survival(decomp, psi_d, tau):
    return ns.build_survival(ns.propagator(decomp, tau), psi_d)


def test_build_survival_matrix(chain):
    model, decomp, psi_d = chain
    u = ns.propagator(decomp, 2.0)
    s = ns.build_survival(u, psi_d)
    np.testing.assert_allclose(
        s.matrix, u - np.outer(psi_d, psi_d.conj() @ u), atol=1e-15
    )
    # the detection row is annihilated: <psi_d| S = 0
    assert np.max(np.abs(psi_d.conj() @ s.matrix)) < 1e-15
    assert s.matrix.shape == (3, 3)


def test_build_survival_rejects_bad_input(chain):
    model, decomp, psi_d = chain
    with pytest.raises(InvalidParameterError):
        ns.build_survival(np.eye(3) * 2.0, psi_d)
    with pytest.raises(InvalidParameterError):
        ns.build_survival(np.eye(4), psi_d)


def test_zero_eigenpair(chain):
    _, decomp, psi_d = chain
    u = ns.propagator(decomp, 2.0)
    s = ns.build_survival(u, psi_d)
    t = ns.zero_eigenpair(u, psi_d)
    assert t.xi == 0.0 and t.kind == "zero"
    assert np.linalg.norm(s.matrix @ t.right) < 1e-12
    assert np.linalg.norm(t.left.conj() @ s.matrix) < 1e-12


def test_two_level_partition_and_root(two_level):
    model, decomp, psi_d = two_level
    spectrum = ns.full_spectrum(model, psi_d, 0.7)
    assert spectrum.counts == (1, 1, 0)
    disk = spectrum.by_kind("disk")[0]
    assert abs(disk.xi - math.cos(0.7)) < 1e-12


def test_disk_eigenpairs_solve_s(chain, tree):
    for (model, decomp, psi_d), tau in ((chain, 2.0), (tree, 1.2)):
        spectrum = ns.full_spectrum(model, psi_d, tau)
        s = spectrum.operator.matrix
        for t in spectrum.by_kind("disk"):
            assert np.linalg.norm(s @ t.right - t.xi * t.right) < 1e-9
            assert np.linalg.norm(s.conj().T @ t.left - np.conj(t.xi) * t.left) < 1e-9
            assert abs(np.linalg.norm(t.right) - 1.0) < 1e-12
            assert abs(np.vdot(t.left, t.right)) > 1e-3
            # deterministic gauge: the largest component is real positive
            for v in (t.right, t.left):
                lead = v[int(np.argmax(np.abs(v)))]
                assert lead.imag < 1e-10 and lead.real > 0


def test_disk_eigenpairs_match_one_root_at_a_time(tree):
    # Reference: each root's resolvent vectors normalized and phase-fixed alone.
    _, decomp, psi_d = tree
    c = decomp.coords(psi_d)
    for tau in (0.7, 1.25, 2.1):
        roots = [r for r in ns.full_spectrum(decomp, psi_d, tau).stationary.roots if r]
        z = np.exp(-1j * decomp.column_energies * tau)
        for t, xi in zip(ns.disk_eigenpairs(decomp, psi_d, tau, roots), roots):
            for got, coef in ((t.right, c / (xi - z)),
                              (t.left, np.conj(z) * c / (np.conj(xi) - np.conj(z)))):
                v = decomp.vectors @ coef
                v = v / np.linalg.norm(v)
                lead = v[int(np.argmax(np.abs(v)))]
                np.testing.assert_allclose(got, v * (abs(lead) / lead), atol=1e-14, rtol=0)


def test_disk_eigenpairs_reject_circle_roots(chain):
    _, decomp, psi_d = chain
    phase = complex(np.exp(-1j * decomp.energies[0] * 2.0))
    with pytest.raises(RootTooCloseError):
        ns.disk_eigenpairs(decomp, psi_d, 2.0, [phase])


def test_full_spectrum_refuses_roots_outside_the_disk(chain, monkeypatch):
    _, decomp, psi_d = chain
    with_root_outside_disk(monkeypatch)
    with pytest.raises(NumericalFailureError, match=r"\|xi\| = 1\.5"):
        ns.full_spectrum(decomp, psi_d, 2.0)


def test_dark_combination_coeffs_printed_example():
    """Overlap ratios sqrt5 : 1 : sqrt1.5 give the standard two combinations."""
    rows = ns.dark_combination_coeffs(
        np.array([math.sqrt(5.0), 1.0, math.sqrt(1.5)])
    )
    want = [
        np.array([math.sqrt(1 / 6), -math.sqrt(5 / 6), 0.0]),
        np.array([math.sqrt(1 / 6), math.sqrt(1 / 30), -2 / math.sqrt(5.0)]),
    ]
    for row, w in zip(rows, want):
        assert min(np.linalg.norm(row - w), np.linalg.norm(row + w)) < 1e-12


def test_dark_combination_coeffs_invariants():
    rng = np.random.default_rng(7)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    rows = ns.dark_combination_coeffs(a)
    assert rows.shape == (4, 5)
    gram = rows @ rows.conj().T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    # every row kills the detector weights
    assert np.max(np.abs(rows @ a.conj())) < 1e-12


def test_dark_states_tree(tree):
    model, decomp, psi_d = tree
    tau = 1.1
    darks = ns.dark_states(decomp, psi_d, tau)
    assert len(darks) == 15
    per_level = {}
    s = _survival(decomp, psi_d, tau).matrix
    for t in darks:
        per_level[t.source_level] = per_level.get(t.source_level, 0) + 1
        assert abs(np.vdot(psi_d, t.right)) < 1e-12
        assert np.linalg.norm(s @ t.right - t.xi * t.right) < 1e-10
        assert abs(abs(t.xi) - 1.0) < 1e-12
        assert t.right is t.left or np.allclose(t.right, t.left)
    assert per_level == {1: 1, 2: 2, 3: 1, 5: 7, 7: 1, 8: 2, 9: 1}


def test_dark_states_are_deterministic(tree):
    _, decomp, psi_d = tree
    a = ns.dark_states(decomp, psi_d, 1.1)
    b = ns.dark_states(decomp, psi_d, 1.1)
    for x, y in zip(a, b):
        assert np.array_equal(x.right, y.right)


def test_bright_states(chain, tree):
    for (model, decomp, psi_d), n_expected in ((chain, 3), (tree, 7)):
        config = ns.charges(decomp, psi_d, 1.0)
        brights = ns.bright_states(decomp, psi_d)
        assert len(brights) == n_expected
        for k, b in brights:
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
            amp = np.vdot(b, psi_d)
            assert abs(amp - math.sqrt(config.charges[k].p)) < 1e-12


def test_phase_aliasing_two_level(two_level):
    model, decomp, psi_d = two_level
    assert ns.full_spectrum(model, psi_d, 0.7).stationary.groups == ((0,), (1,))
    spectrum = ns.full_spectrum(model, psi_d, math.pi)
    assert spectrum.counts == (1, 0, 1)
    assert spectrum.stationary.groups == ((0, 1),)
    circle = spectrum.by_kind("circle")[0]
    assert circle.source_level is None  # cross-level combination
    assert abs(np.vdot(psi_d, circle.right)) < 1e-12
    merged = ns.merged_charge_config(ns.charges(decomp, psi_d, math.pi))
    assert len(merged.active()) == 1
    assert abs(merged.active()[0].p - 1.0) < 1e-12


def test_aliased_phases_are_not_an_exceptional_point():
    # Levels 0, 2 pi and 4 pi share the phase 1 at tau = 1: one merged
    # charge, whose duplicate roots at that phase are no coalescence.
    model = ns.build_custom(np.diag([0.0, 2.0 * math.pi, 4.0 * math.pi, 1.0]))
    decomp = ns.spectral_decompose(model)
    psi_d = np.full(4, 0.5)
    spectrum = ns.full_spectrum(decomp, psi_d, 1.0)
    assert spectrum.counts == (1, 1, 2)
    assert not spectrum.exceptional_flag
    report = ns.detect_exceptional(ns.charges(decomp, psi_d, 1.0))
    assert not report.is_exceptional
    assert report.coalesced_roots == ()


def test_merged_config_passthrough(chain):
    _, decomp, psi_d = chain
    config = ns.charges(decomp, psi_d, 2.0)
    assert ns.merged_charge_config(config) is config


def test_full_spectrum_counts_and_completeness(chain, tree):
    for (model, decomp, psi_d), tau, counts in (
        (chain, 2.0, (1, 2, 0)),
        (tree, 1.2, (1, 6, 15)),
    ):
        spectrum = ns.full_spectrum(model, psi_d, tau)
        assert spectrum.counts == counts
        assert not spectrum.exceptional_flag
        assert len(spectrum.triples) == model.dim
        assert ns.completeness_check(spectrum) < 1e-8
        oracle = dense_eigenvalues(spectrum.operator.matrix)
        assert match_eigenvalues([t.xi for t in spectrum.triples], oracle) < 1e-8


def test_full_spectrum_exceptional_refusal():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    spectrum = ns.full_spectrum(model, psi_d, 2.0 * math.pi / 3.0)
    assert spectrum.exceptional_flag
    assert [t.xi for t in spectrum.triples] == [0.0, 0.0, 0.0]
    with pytest.raises(ExceptionalSpectrumError):
        ns.completeness_check(spectrum)


def test_full_spectrum_away_from_exceptional_tau():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    spectrum = ns.full_spectrum(model, psi_d, 1.0)
    assert not spectrum.exceptional_flag
    assert spectrum.counts == (1, 2, 0)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_spectra_match_dense_oracle(seed):
    model, psi, tau = random_model(seed % 997)
    spectrum = ns.full_spectrum(model, psi, tau)
    assert not spectrum.exceptional_flag
    oracle = dense_eigenvalues(spectrum.operator.matrix)
    assert match_eigenvalues([t.xi for t in spectrum.triples], oracle) < 1e-8
    assert ns.completeness_check(spectrum) < 1e-8
    decomp = ns.spectral_decompose(model)
    dense = ns.build_survival(ns.propagator(decomp, tau), psi).matrix
    assert disk_pair_residual(dense, spectrum.by_kind("disk")) < 1e-10


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.3, 3.0))
def test_random_unitary_survival_row(seed, tau):
    # structural invariant independent of any model: detection row dies
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    u = random_unitary(rng, dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = psi / np.linalg.norm(psi)
    s = ns.build_survival(u, psi)
    assert np.max(np.abs(psi.conj() @ s.matrix)) < 1e-12
    assert np.linalg.norm(s.matrix @ (u.conj().T @ psi)) < 1e-12


def _weak_chain_detector(decomp, eps):
    """Normalized E_0 + E_1 + eps E_2 of the three-level chain."""
    v = sum(w * decomp.levels[k].eigenvectors[:, 0] for k, w in enumerate((1.0, 1.0, eps)))
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("eps", [1e-7, 1e-9])
def test_weakly_coupled_level_is_one_dark_state(chain, eps):
    # Level 2 carries p_2 ~ eps^2 / 2, at or below the zero threshold: the
    # split calls it dark once, so it yields exactly one circle state.
    model, decomp, _ = chain
    spectrum = ns.full_spectrum(decomp, _weak_chain_detector(decomp, eps), 2.0)
    assert spectrum.counts == (1, 1, 1)
    assert not spectrum.exceptional_flag
    p2 = spectrum.charge_config.charges[2].p
    (dark,) = spectrum.by_kind("circle")
    assert dark.source_level == 2
    s = spectrum.operator.matrix
    assert np.linalg.norm(s @ dark.right - dark.xi * dark.right) <= 2.0 * math.sqrt(p2)
    assert ns.completeness_check(spectrum) <= 1e-8 + 2.0 * math.sqrt(p2)


def test_weakly_coupled_level_at_1e_5_is_refused(chain):
    # p_2 = 5e-11 is bright, and its root lies within 1e-10 of its phase.
    _, decomp, _ = chain
    with pytest.raises(RootTooCloseError):
        ns.full_spectrum(decomp, _weak_chain_detector(decomp, 1e-5), 2.0)


def _closure_groups(config):
    """Reference: transitive closure of |z_i - z_j| < ALIAS_TOL, pair by pair."""
    active = config.active_indices()
    groups, used = [], set()
    for i in active:
        if i in used:
            continue
        group, grew = {i}, True
        while grew:
            near = {j for j in active if j not in group and any(
                abs(config.charges[j].phase - config.charges[g].phase) < ALIAS_TOL
                for g in group)}
            group |= near
            grew = bool(near)
        used |= group
        groups.append(tuple(sorted(group)))
    return tuple(groups)


def test_alias_groups_match_pairwise_closure():
    d = 0.6e-10
    energies = (
        -math.pi + 0.2 * d, math.pi - 0.3 * d,   # one group across +-pi
        1.0, 1.0 + d, 1.0 + 2.0 * d,             # a chain: ends 1.2e-10 apart
        1.0 + 4.0 * d,                           # 1.2e-10 from the chain: alone
        1.0 + 0.5 * d,                           # zero charge on the chain
        -2.0, 2.5,
    )
    p = np.array([1, 1, 1, 1, 1, 1, 0, 1, 1], dtype=float)
    config = ns.config_from_levels(energies, p / p.sum(), 1.0)
    groups = _alias_groups(config)
    assert groups == ((0, 1), (2, 3, 4), (5,), (7,), (8,))
    assert groups == _closure_groups(config)
    rng = np.random.default_rng(7)
    for _ in range(50):
        e = rng.choice([-math.pi, 0.5, 3.0], size=12) + rng.integers(-3, 4, size=12) * d
        p = rng.uniform(0.0, 1.0, size=12) * (rng.uniform(size=12) > 0.2)
        config = ns.config_from_levels(e, p / p.sum(), 1.0)
        assert _alias_groups(config) == _closure_groups(config)
