import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nullsteer as ns
from nullsteer import (
    BoundNotApplicableError,
    InvalidParameterError,
    NoBrightSubspaceError,
    PoleError,
)
from nullsteer.charges import DEFAULT_TIE_TOL, _refine_roots

from helpers import dense_eigenvalues, match_eigenvalues

# Dominant disk root of the gamma=1 chain at tau=2, frozen from a verified run.
CHAIN_TAU2_ROOTS = (
    -0.8124279316305825 + 0.5768902791612882j,
    0.10131559196932195 - 0.3404117402611568j,
)


def test_chain_charges_frozen(chain):
    _, decomp, psi_d = chain
    config = ns.charges(decomp, psi_d, 2.0)
    got = [c.p for c in config.charges]
    np.testing.assert_allclose(
        got, [0.10757434232607616, 0.3492916954160895, 0.5431339622578343], atol=1e-12
    )
    assert abs(sum(got) - 1.0) < 1e-12


def test_charges_independent_of_tau(chain):
    _, decomp, psi_d = chain
    a = [c.p for c in ns.charges(decomp, psi_d, 0.3).charges]
    b = [c.p for c in ns.charges(decomp, psi_d, 2.9).charges]
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_tree_charges_are_chain_weights(tree):
    """Detector at the root: active charges are sin^2(k pi/8)/4 exactly.

    The root couples only to the column-uniform ladder of 7 modes; its
    weight in mode k is the squared chain amplitude at the first site.
    """
    _, decomp, psi_d = tree
    config = ns.charges(decomp, psi_d, 1.0)
    active_levels = (0, 2, 4, 5, 6, 8, 10)
    for k, level in enumerate(active_levels, start=1):
        want = math.sin(k * math.pi / 8.0) ** 2 / 4.0
        assert abs(config.charges[level].p - want) < 1e-12
    for level in (1, 3, 7, 9):
        assert config.charges[level].p < 1e-20
    assert len(config.active) == 7


def test_configuration_holds_level_arrays(tree):
    _, decomp, psi_d = tree
    config = ns.charges(decomp, psi_d, 1.0)
    assert np.array_equal(config.energies, decomp.energies)
    assert np.array_equal(config.phases, np.exp(-1j * decomp.energies))
    assert config.active.tolist() == [0, 2, 4, 5, 6, 8, 10]
    # the per-level view holds Python scalars equal to the array entries
    for k, c in enumerate(config.charges):
        assert (type(c.p), type(c.energy), type(c.phase)) == (float, float, complex)
        assert (c.p, c.energy, c.phase) == (config.p[k], config.energies[k], config.phases[k])
    assert not hasattr(ns.ChargeConfiguration, "active_indices")
    assert not hasattr(importlib.import_module("nullsteer.charges"), "_active_arrays")


def test_configuration_validation():
    with pytest.raises(InvalidParameterError):
        ns.config_from_levels((0.0, 1.0), (0.5, 0.6), 1.0)
    with pytest.raises(InvalidParameterError):
        ns.config_from_levels((0.0, 1.0), (-0.1, 1.1), 1.0)
    cfg = ns.config_from_levels((0.0, 1.0), (0.5, 0.5), 1.0)
    with pytest.raises(InvalidParameterError):
        ns.ChargeConfiguration(1.0, cfg.p, cfg.energies, np.array([1.1 + 0.0j, cfg.phases[1]]))


def test_field_values_and_pole(chain):
    _, decomp, psi_d = chain
    config = ns.charges(decomp, psi_d, 2.0)
    sp = ns.stationary_points(config)
    for r in sp.roots:
        assert abs(ns.field(config, r)) < 1e-10
    with pytest.raises(PoleError):
        ns.field(config, config.charges[0].phase)
    # far away the field looks like a unit monopole
    assert abs(ns.field(config, 100.0) - 0.01) < 1e-3


def test_stationary_points_chain_frozen(chain):
    _, decomp, psi_d = chain
    sp = ns.stationary_points(ns.charges(decomp, psi_d, 2.0))
    assert len(sp.roots) == 2
    for got, want in zip(sp.roots, CHAIN_TAU2_ROOTS):
        assert abs(got - want) < 1e-12
    assert sp.max_abs == abs(sp.roots[0])
    assert sp.max_abs - abs(sp.roots[1]) > DEFAULT_TIE_TOL  # no tie
    assert all(res < 1e-12 for res in sp.residuals)


def test_roots_match_survival_eigenvalues(chain, tree):
    """Charge-field stationary points are the disk eigenvalues of S."""
    for (model, decomp, psi_d), tau in ((chain, 2.0), (tree, 1.2)):
        sp = ns.stationary_points(ns.charges(decomp, psi_d, tau))
        u = ns.propagator(decomp, tau)
        s = ns.build_survival(u, psi_d)
        oracle = dense_eigenvalues(s.matrix)
        disk = [x for x in oracle if 1e-8 < abs(x) < 1.0 - 1e-8]
        assert match_eigenvalues(sp.roots[: len(disk)], disk) < 1e-8


def test_argmax_tie_for_symmetric_pair():
    # outer phases wrap close to the center phase from both sides, so the
    # two roots form a conjugate pair with exactly tied moduli
    cfg = ns.config_from_levels((-1.0, 0.0, 1.0), (0.3, 0.4, 0.3), 5.8)
    sp = ns.stationary_points(cfg)
    assert len(sp.roots) == 2
    assert abs(sp.roots[0] - np.conj(sp.roots[1])) < 1e-12
    assert sp.max_abs - abs(sp.roots[1]) <= DEFAULT_TIE_TOL
    assert sp.roots[0].imag > 0  # the upper member of a tied pair comes first


def test_root_order_does_not_depend_on_the_eigensolver():
    # A diagonal phase gauge makes the glued tree's H complex, so it goes to
    # the complex solver; the charge configuration is the same, and so must
    # be the order of its conjugate-paired roots.
    model = ns.build_glued_tree(6)
    gauge = np.exp(1j * np.arange(model.dim))
    complex_model = ns.build_custom(
        gauge[:, None] * model.hamiltonian * gauge.conj()[None, :], model.basis_labels)
    real, cplx = ns.spectral_decompose(model), ns.spectral_decompose(complex_model)
    assert real.vectors.dtype == np.float64 and cplx.vectors.dtype == np.complex128
    psi_d = ns.site_state(model, "(1,1)")
    for tau in np.linspace(0.6, 2.4, 25):
        a = ns.stationary_points(ns.merged_charge_config(ns.charges(real, psi_d, tau)))
        b = ns.stationary_points(ns.merged_charge_config(ns.charges(cplx, psi_d, tau)))
        np.testing.assert_allclose(a.roots, b.roots, atol=1e-9)


def test_deflation_yields_exact_zero_roots():
    # two-level at gamma tau = pi/2: the single root hits the origin exactly
    cfg = ns.config_from_levels((-1.0, 1.0), (0.5, 0.5), math.pi / 2.0)
    sp = ns.stationary_points(cfg)
    assert sp.roots == (0.0 + 0.0j,)
    report = ns.detect_exceptional(cfg)
    assert report.is_exceptional


def test_exceptional_three_level_total_coalescence():
    model = ns.build_exceptional_three_level(1.0)
    decomp = ns.spectral_decompose(model)
    psi_d = ns.site_state(model, "0")
    np.testing.assert_allclose(
        [c.p for c in ns.charges(decomp, psi_d, 1.0).charges], [1 / 3] * 3, atol=1e-12
    )
    cfg = ns.charges(decomp, psi_d, 2.0 * math.pi / 3.0)
    sp = ns.stationary_points(cfg)
    assert sp.roots == (0.0 + 0.0j, 0.0 + 0.0j)
    assert ns.detect_exceptional(cfg).is_exceptional


def test_detect_exceptional_clean(chain):
    _, decomp, psi_d = chain
    report = ns.detect_exceptional(ns.charges(decomp, psi_d, 2.0))
    assert not report.is_exceptional
    assert report.coalesced_roots == ()


def test_no_bright_subspace():
    cfg = ns.config_from_levels((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), 1.0)
    # drop the only active charge below threshold by merging into darkness
    dark = ns.ChargeConfiguration(
        1.0, cfg.p, cfg.energies, cfg.phases, zero_threshold=2.0
    )
    with pytest.raises(NoBrightSubspaceError):
        ns.stationary_points(dark)


def test_energy_spread(chain, tree):
    _, dc, _ = chain
    assert abs(ns.energy_spread(dc) - (dc.energies[-1] - dc.energies[0])) < 1e-15
    _, dt, _ = tree
    assert abs(ns.energy_spread(dt) - 2.0 * dt.energies[-1]) < 1e-12


def test_zeno_bound_values(chain):
    _, decomp, _ = chain
    de = ns.energy_spread(decomp)
    bound, t_b, n_b = ns.zeno_bound(decomp, 0.1)
    assert abs(bound - math.cos(0.05 * de)) < 1e-15
    assert abs(t_b + 0.1 / math.log(bound)) < 1e-12
    assert abs(n_b - t_b / 0.1) < 1e-12
    with pytest.raises(BoundNotApplicableError):
        ns.zeno_bound(decomp, 1.001 * math.pi / de)


def test_zeno_bound_flat_spectrum():
    decomp = ns.spectral_decompose(ns.build_custom(np.diag([2.0, 2.0])))
    assert ns.zeno_bound(decomp, 1.0) == (1.0, math.inf, math.inf)


@st.composite
def charge_configs(draw):
    n = draw(st.integers(2, 6))
    raw = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
    )
    total = sum(raw)
    ps = [x / total for x in raw]
    energies = draw(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n, unique=True
        )
    )
    tau = draw(st.floats(0.2, 3.0))
    phases = [math.remainder(e * tau, 2.0 * math.pi) for e in energies]
    # keep phases clearly separated: aliased configurations need merging first
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(math.remainder(phases[i] - phases[j], 2.0 * math.pi))
            assume(gap > 1e-3)
    return ns.config_from_levels(energies, ps, tau)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(charge_configs())
def test_stationary_point_properties(cfg):
    """w active charges pin exactly w-1 roots, all inside the closed disk."""
    sp = ns.stationary_points(cfg)
    assert len(sp.roots) == len(cfg.active) - 1
    for r, res in zip(sp.roots, sp.residuals):
        assert abs(r) <= 1.0 + 1e-9
        assert res < 1e-8
        if r != 0:  # moment-counted zeros report |F(0)| itself
            f, fp = ns.field(cfg, r), sum(cfg.charges[i].p / (r - cfg.charges[i].phase) ** 2
                                          for i in cfg.active)
            assert abs(f) < 1e-8 + 1e-14 * abs(fp)
    mods = [abs(r) for r in sp.roots]
    assert abs(sp.max_abs - max(mods)) < 1e-15


def _wide_charges(w, seed, levels):
    """Seeded charges of a random model, phases over about 90% of the circle.

    Levels are GOE eigenvalues (repelling) or uniform ones (Poisson, so some
    pairs of charges nearly touch); the detector is a random complex vector.
    """
    rng = np.random.default_rng([seed, w])
    if levels == "goe":
        a = rng.normal(size=(w, w))
        energies = np.linalg.eigvalsh((a + a.T) / math.sqrt(2.0 * w))
    else:
        energies = np.sort(rng.uniform(-2.0, 2.0, size=w))
    c = rng.normal(size=w) + 1j * rng.normal(size=w)
    p = np.abs(c) ** 2 / np.sum(np.abs(c) ** 2)
    tau = float(rng.uniform(0.85, 0.95)) * 2.0 * math.pi / float(np.ptp(energies))
    return ns.config_from_levels(energies, p, tau)


@pytest.mark.parametrize("levels", ["goe", "poisson"])
@pytest.mark.parametrize("w", [20, 70, 200])
def test_wide_charge_roots_stay_in_the_hull(w, levels):
    for seed in range(3):
        cfg = _wide_charges(w, seed, levels)
        roots = np.array(ns.stationary_points(cfg).roots)
        assert roots.size == w - 1
        assert np.all(np.abs(roots) < 1.0)
        # F(xi) = 0 makes xi a positive combination of the phases, so every
        # root lies left of each counterclockwise edge of their hull.
        phases = np.array(sorted(cfg.phases[cfg.active], key=np.angle))
        edges = np.roll(phases, -1) - phases
        side = (edges.conj() * (roots[:, None] - phases)).imag
        assert side.min() > -1e-14
        # A root right next to a weak charge has |F'| up to 1e10, so |F| is
        # allowed what a 1e-14 error in the root's position explains.
        p = cfg.p[cfg.active]
        inv = 1.0 / (roots[:, None] - cfg.phases[cfg.active])
        f, fp = inv @ p, (inv * inv) @ p
        assert np.all(np.abs(f) < 1e-8 + 1e-14 * np.abs(fp))


@pytest.mark.parametrize("levels", ["goe", "poisson"])
@pytest.mark.parametrize("w", [20, 70, 200])
def test_wide_charge_residuals_are_position_errors(w, levels):
    """The residual is |F/F'|, so a root next to a weak charge reads exact."""
    for seed in range(3):
        residuals = ns.stationary_points(_wide_charges(w, seed, levels)).residuals
        assert max(residuals) < 1e-14


def test_root_at_an_unmerged_aliased_phase_reads_inf():
    """Aliased charges are merged before the solve, so no root sits at their
    shared phase; the pole guard stays: next to a pole |F/F'| is the distance
    to it, so a start on a charge is that charge and reads inf."""
    config = ns.config_from_levels((0.0, 0.0, 1.0), (0.3, 0.3, 0.4), 1.0)
    sp = ns.stationary_points(config)
    merged = ns.stationary_points(ns.merged_charge_config(config))
    assert sp.groups == ((0, 1), (2,))
    assert merged.groups == ((0,), (1,))
    assert len(sp.roots) == 1
    assert sp.roots == merged.roots and sp.residuals == merged.residuals
    assert sp.residuals[0] < 1e-14
    p = np.array([0.3, 0.3, 0.4])
    z = np.exp(-1j * np.array([0.0, 0.0, 1.0]))
    _, residuals = _refine_roots(p, z, np.array([1.0, 1.0 + 1e-12, sp.roots[0]]))
    assert residuals[0] == residuals[1] == math.inf
    assert residuals[2] < 1e-14


def test_three_charges_at_one_phase_have_no_roots():
    third = 1.0 / 3.0
    config = ns.config_from_levels((0.0, 2.0 * math.pi, 4.0 * math.pi), (third,) * 3, 1.0)
    sp = ns.stationary_points(config)
    assert sp.roots == ()
    assert sp.groups == ((0, 1, 2),)
    assert not ns.detect_exceptional(config).is_exceptional


def test_wide_charge_disk_roots_match_dense_s():
    """w = 70 disk roots against eigvals of the dense S, not of S_B."""
    rng = np.random.default_rng(70)
    a = rng.normal(size=(70, 70))
    model = ns.build_custom((a + a.T) / math.sqrt(140.0))
    decomp = ns.spectral_decompose(model)
    psi_d = rng.normal(size=70)
    psi_d = psi_d / np.linalg.norm(psi_d)
    tau = 0.9 * 2.0 * math.pi / ns.energy_spread(decomp)
    spectrum = ns.full_spectrum(decomp, psi_d, tau)
    assert spectrum.counts == (1, 69, 0)
    dense = dense_eigenvalues(ns.build_survival(ns.propagator(decomp, tau), psi_d).matrix)
    dense = dense[np.argsort(np.abs(dense))[1:]]  # drop xi = 0
    assert match_eigenvalues(spectrum.xis[spectrum.kinds == "disk"], dense) < 1e-8
