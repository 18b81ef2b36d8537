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
    aliased_model,
    dense_eigenvalues,
    disk_pair_residual,
    expected_partition,
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
    right, left = ns.zero_eigenpair(u, psi_d)
    assert np.linalg.norm(s.matrix @ right) < 1e-12
    assert np.linalg.norm(left.conj() @ s.matrix) < 1e-12


def test_two_level_partition_and_root(two_level):
    model, decomp, psi_d = two_level
    spectrum = ns.full_spectrum(model, psi_d, 0.7)
    assert spectrum.counts == (1, 1, 0)
    (xi,) = spectrum.xis[spectrum.kinds == "disk"]
    assert abs(xi - math.cos(0.7)) < 1e-12


def test_disk_eigenpairs_solve_s(chain, tree):
    for (model, decomp, psi_d), tau in ((chain, 2.0), (tree, 1.2)):
        spectrum = ns.full_spectrum(model, psi_d, tau)
        s = spectrum.operator.matrix
        disk = spectrum.kinds == "disk"
        for xi, right, left in zip(spectrum.xis[disk], spectrum.rights[:, disk].T,
                                   spectrum.lefts[:, disk].T):
            assert np.linalg.norm(s @ right - xi * right) < 1e-9
            assert np.linalg.norm(s.conj().T @ left - np.conj(xi) * left) < 1e-9
            assert abs(np.linalg.norm(right) - 1.0) < 1e-12
            assert abs(np.vdot(left, right)) > 1e-3
            # deterministic gauge: the largest component is real positive
            for v in (right, left):
                lead = v[int(np.argmax(np.abs(v)))]
                assert lead.imag < 1e-10 and lead.real > 0


def test_disk_eigenpairs_match_one_root_at_a_time(tree):
    # Reference: each root's resolvent vectors normalized and phase-fixed alone.
    _, decomp, psi_d = tree
    c = decomp.coords(psi_d)
    for tau in (0.7, 1.25, 2.1):
        roots = [r for r in ns.full_spectrum(decomp, psi_d, tau).stationary.roots if r]
        z = np.exp(-1j * decomp.column_energies * tau)
        xis, rights, lefts = ns.disk_eigenpairs(decomp, psi_d, tau, roots)
        assert xis.tolist() == roots
        for right, left, xi in zip(rights.T, lefts.T, roots):
            for got, coef in ((right, c / (xi - z)),
                              (left, np.conj(z) * c / (np.conj(xi) - np.conj(z)))):
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
    xis, vectors, levels = ns.dark_states(decomp, psi_d, tau)
    assert vectors.shape == (22, 15) and xis.shape == levels.shape == (15,)
    assert vectors.dtype == float  # a real H and detector give real dark vectors
    s = _survival(decomp, psi_d, tau).matrix
    for xi, v in zip(xis, vectors.T):
        assert abs(np.vdot(psi_d, v)) < 1e-12
        assert np.linalg.norm(s @ v - xi * v) < 1e-10
        assert abs(abs(xi) - 1.0) < 1e-12
    per_level = dict(zip(*np.unique(levels, return_counts=True)))
    assert per_level == {1: 1, 2: 2, 3: 1, 5: 7, 7: 1, 8: 2, 9: 1}


def test_dark_states_are_deterministic(tree):
    _, decomp, psi_d = tree
    a = ns.dark_states(decomp, psi_d, 1.1)
    b = ns.dark_states(decomp, psi_d, 1.1)
    assert a[1] is not b[1]
    assert np.array_equal(a[1], b[1])


def test_split_bright_projections(chain, tree):
    for (model, decomp, psi_d), n_expected in ((chain, 3), (tree, 7)):
        config = ns.charges(decomp, psi_d, 1.0)
        split = ns.DetectorSplit(decomp, psi_d)
        assert len(split.bright_levels) == n_expected
        for k, b in ((k, split.bright(k)) for k in split.bright_levels):
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12
            amp = np.vdot(b, psi_d)
            assert abs(amp - math.sqrt(config.charges[k].p)) < 1e-12


def test_phase_aliasing_two_level(two_level):
    model, decomp, psi_d = two_level
    assert ns.full_spectrum(model, psi_d, 0.7).stationary.groups == ((0,), (1,))
    spectrum = ns.full_spectrum(model, psi_d, math.pi)
    assert spectrum.counts == (1, 0, 1)
    assert spectrum.stationary.groups == ((0, 1),)
    (circle,) = np.flatnonzero(spectrum.kinds == "circle")
    assert spectrum.source_levels[circle] == -1  # cross-level combination
    assert abs(np.vdot(psi_d, spectrum.rights[:, circle])) < 1e-12
    merged = ns.merged_charge_config(ns.charges(decomp, psi_d, math.pi))
    assert len(merged.active) == 1
    assert abs(merged.p[merged.active[0]] - 1.0) < 1e-12


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
        assert spectrum.xis.shape == spectrum.source_levels.shape == (model.dim,)
        assert spectrum.rights.shape == spectrum.lefts.shape == (model.dim, model.dim)
        assert ns.completeness_check(spectrum) < 1e-8
        oracle = dense_eigenvalues(spectrum.operator.matrix)
        assert match_eigenvalues(spectrum.xis, oracle) < 1e-8


def test_full_spectrum_exceptional_refusal():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    spectrum = ns.full_spectrum(model, psi_d, 2.0 * math.pi / 3.0)
    assert spectrum.exceptional_flag
    assert spectrum.xis.tolist() == [0.0, 0.0, 0.0]
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
    # and 2-4 bright levels aliased at E_0 + 2 pi m / tau
    aliased, aliased_d, _, aliased_tau = aliased_model(seed, "bright", seed % 2 == 1)
    for model, psi, tau in ((model, psi, tau), (aliased, aliased_d, aliased_tau)):
        spectrum = ns.full_spectrum(model, psi, tau)
        assert not spectrum.exceptional_flag
        oracle = dense_eigenvalues(spectrum.operator.matrix)
        assert match_eigenvalues(spectrum.xis, oracle) < 1e-8
        assert spectrum.counts == expected_partition(model, psi, tau)
        assert ns.completeness_check(spectrum) < 1e-8
        decomp = ns.spectral_decompose(model)
        dense = ns.build_survival(ns.propagator(decomp, tau), psi).matrix
        assert disk_pair_residual(dense, spectrum) < 1e-10
        # every circle column solves S, the cross-level combinations included
        assert disk_pair_residual(dense, spectrum, "circle") < 1e-10
    assert (spectrum.source_levels[spectrum.kinds == "circle"] == -1).any()


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
    v = sum(w * decomp.members(k)[:, 0] for k, w in enumerate((1.0, 1.0, eps)))
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
    (dark,) = np.flatnonzero(spectrum.kinds == "circle")
    assert spectrum.source_levels[dark] == 2
    s, v, xi = spectrum.operator.matrix, spectrum.rights[:, dark], spectrum.xis[dark]
    assert np.linalg.norm(s @ v - xi * v) <= 2.0 * math.sqrt(p2)
    assert ns.completeness_check(spectrum) <= 1e-8 + 2.0 * math.sqrt(p2)


def test_weakly_coupled_level_at_1e_5_is_refused(chain):
    # p_2 = 5e-11 is bright, and its root lies within 1e-10 of its phase.
    _, decomp, _ = chain
    with pytest.raises(RootTooCloseError):
        ns.full_spectrum(decomp, _weak_chain_detector(decomp, 1e-5), 2.0)


def _closure_groups(config):
    """Reference: transitive closure of |z_i - z_j| < ALIAS_TOL, pair by pair."""
    active = config.active.tolist()
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
    groups = _alias_groups(config.phases, config.active)
    assert groups == ((0, 1), (2, 3, 4), (5,), (7,), (8,))
    assert groups == _closure_groups(config)
    rng = np.random.default_rng(7)
    for _ in range(50):
        e = rng.choice([-math.pi, 0.5, 3.0], size=12) + rng.integers(-3, 4, size=12) * d
        p = rng.uniform(0.0, 1.0, size=12) * (rng.uniform(size=12) > 0.2)
        config = ns.config_from_levels(e, p / p.sum(), 1.0)
        assert _alias_groups(config.phases, config.active) == _closure_groups(config)


def test_split_of_another_decomposition_keeps_its_threshold():
    # Level 1 of this V-atom has p = 2.04e-12: dark under a 1e-9 split.  A
    # split handed to code that decomposes anew must keep that threshold.
    model = ns.build_v_atom(0.0, 3.0, 5.0, 1e-5, 1.0)
    decomp = ns.spectral_decompose(model)
    split = ns.DetectorSplit(decomp, ns.site_state(model, "B"), 1e-9)
    assert ns.full_spectrum(decomp, split, 0.5).counts == (1, 1, 1)
    assert ns.full_spectrum(model, split, 0.5).counts == (1, 1, 1)
    config = ns.charges(ns.spectral_decompose(model), split, 0.5)
    assert config.active.tolist() == [0, 2]
    assert config.zero_threshold == 1e-9
