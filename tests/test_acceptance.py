"""End-to-end checks of the quantitative claims the package is built around.

Each test prints one `criterion NN PASS/FAIL` line with the measured
numbers, then asserts.  Tolerances are stated inline next to each check.
"""

import math
import warnings

import numpy as np
import pytest

import helpers
import nullsteer as ns
from nullsteer import CertainDetectionError
from nullsteer.perturbation import (
    triple_charge_estimate,
    two_merge_estimate,
    weak_charge_estimate,
)


def _report(num, checks):
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _bright_member(decomp, psi_d, level):
    vecs = decomp.members(level)
    v = vecs @ (vecs.conj().T @ psi_d)
    return v / np.linalg.norm(v)


def _dark_member(decomp, psi_d, tau, level, member):
    _, darks, levels = ns.dark_states(decomp, psi_d, tau)
    return darks[:, levels == level][:, member - 1]


def _machinery(model, decomp, psi_d, tau):
    U = ns.propagator(decomp, tau)
    return ns.build_survival(U, psi_d)


def _worked_setups(two_level, chain, v_atom, tree):
    """The four study models with their standard tau and initial state."""
    tl_model, tl_dec, tl_psi = two_level
    ch_model, ch_dec, ch_psi = chain
    va_model, va_dec, va_psi = v_atom
    tr_model, tr_dec, tr_psi = tree
    return (
        ("two_level", tl_model, tl_dec, tl_psi, 0.7,
         ns.site_state(tl_model, "l")),
        ("chain", ch_model, ch_dec, ch_psi, 2.0,
         ns.site_state(ch_model, "2")),
        ("v_atom", va_model, va_dec, va_psi, 0.5,
         ns.site_state(va_model, "G")),
        ("tree", tr_model, tr_dec, tr_psi, 1.2,
         _bright_member(tr_dec, tr_psi, 0)),
    )


def test_criterion_01_chain_spectrum_and_charges(chain):
    _, decomp, psi_d = chain
    config = ns.charges(decomp, psi_d, 1.0)
    spec_dev = max(abs(e - t) for e, t in
                   zip(decomp.energies, (-1.247, 0.445, 1.802)))
    charge_dev = max(abs(c.p - t) for c, t in
                     zip(config.charges, (0.108, 0.349, 0.543)))
    _report(1, [
        (spec_dev < 1e-3, f"spectrum dev {spec_dev:.2e} < 1e-3"),
        (charge_dev < 1e-3, f"charge dev {charge_dev:.2e} < 1e-3"),
    ])


def test_criterion_02_chain_merge_root_and_energy(chain):
    model, decomp, psi_d = chain
    rounded = ns.config_from_levels((-1.25, 0.445, 1.80),
                                    (0.108, 0.349, 0.543), 2.0)
    exact = max(ns.stationary_points(rounded).roots, key=abs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = two_merge_estimate(rounded, 0, 2)
    regime = helpers.regime_of(model, psi_d, 2.0, ns.site_state(model, "2"))
    d_root = abs(exact - (-0.8158 + 0.5722j))
    d_est = abs(est.xi_estimates[0] - (-0.8170 + 0.5726j))
    d_energy = abs(regime.predicted_energy - (-0.7511))
    d_e_est = abs(est.energy_estimate - (-0.744))
    _report(2, [
        (d_root < 1e-3, f"exact root dev {d_root:.2e}"),
        (d_est < 1e-3, f"estimate dev {d_est:.2e}"),
        (d_energy < 1e-3, f"large-n energy dev {d_energy:.2e}"),
        (d_e_est < 1e-3, f"energy estimate dev {d_e_est:.2e}"),
    ])


def test_criterion_03_chain_persistent_oscillation(chain):
    model, decomp, psi_d = chain
    tau = 4.31697
    config = ns.charges(decomp, psi_d, tau)
    mods = sorted((abs(r) for r in ns.stationary_points(config).roots),
                  reverse=True)
    gap = abs(mods[0] - mods[1])
    S = _machinery(model, decomp, psi_d, tau)
    traj = ns.evolve(S, ns.site_state(model, "2"), 310, model.hamiltonian)
    e = traj.mean_energy
    early = e[90:111].max() - e[90:111].min()
    late = e[290:311].max() - e[290:311].min()
    _report(3, [
        (gap < 1e-4, f"modulus gap {gap:.2e} < 1e-4"),
        (late >= 0.95 * early,
         f"oscillation amplitude {early:.4f} -> {late:.4f} (decay < 5%)"),
    ])


def test_criterion_04_v_atom_shelving(v_atom):
    model, decomp, psi_d = v_atom
    tau = 0.5
    config = ns.charges(decomp, psi_d, tau)
    printed_p = (0.03576, 2.040e-6, 0.9642)
    rel = max(abs(c.p - t) / t for c, t in zip(config.charges, printed_p))

    # the printed root corresponds to the decoupled-limit level energies
    limiting = ns.config_from_levels(
        ((5.0 - math.sqrt(29.0)) / 2.0, 3.0, (5.0 + math.sqrt(29.0)) / 2.0),
        [c.p for c in config.charges], tau)
    xi1 = max(ns.stationary_points(limiting).roots, key=abs)
    d_xi = abs(xi1 - (0.0707353 - 0.997494j))

    est = weak_charge_estimate(config, 1, decomp=decomp)
    eps = config.charges[1].phase - est.xi_estimates[0]
    printed_eps = 1.945e-6 - 1.077e-6j
    rel_eps = abs(eps - printed_eps) / abs(printed_eps)

    S = _machinery(model, decomp, psi_d, tau)
    psi_g = ns.site_state(model, "G")
    traj = ns.evolve(S, psi_g, 200, model.hamiltonian)
    e200 = traj.mean_energy[200]
    p_d = abs(np.vdot(ns.site_state(model, "D"), traj.states()[200])) ** 2
    crossover = helpers.regime_of(model, psi_d, tau, psi_g).crossover_step
    _report(4, [
        (rel < 1e-3, f"charge rel dev {rel:.2e} < 1e-3"),
        (d_xi < 1e-5, f"xi_1 dev {d_xi:.2e} < 1e-5"),
        (rel_eps < 0.05, f"eps rel dev {rel_eps:.2e} < 5%"),
        (abs(e200 - 3.0) < 0.02, f"E(200) = {e200:.4f}"),
        (abs(p_d - 1.0) < 0.02, f"P_D(200) = {p_d:.4f}"),
        (30 <= crossover <= 80, f"crossover {crossover} in [30, 80]"),
    ])


def test_criterion_05_tree_structure_and_dominant_roots(tree):
    model, decomp, psi_d = tree
    degens = tuple(decomp.degeneracies.tolist())
    level_energies = decomp.column_energies
    ref = helpers.glued_tree_reference_energies(3)
    table_dev = float(np.max(np.abs(np.sort(level_energies) - np.sort(ref))))
    _, darks, _ = ns.dark_states(decomp, psi_d, 1.2)
    active = len(ns.charges(decomp, psi_d, 1.2).active)

    root12 = max(ns.stationary_points(ns.charges(decomp, psi_d, 1.2)).roots,
                 key=abs)
    ground = _bright_member(decomp, psi_d, 0)
    regime = helpers.regime_of(model, psi_d, 1.2, ground)

    # the paired-root numbers land at tau=1.251 on this model
    pair = sorted(ns.stationary_points(ns.charges(decomp, psi_d, 1.251)).roots,
                  key=abs, reverse=True)[:2]
    targets = (-0.894962 + 0.108282j, -0.894962 - 0.108282j)
    d_pair = max(min(abs(r - t) for t in targets) for r in pair)
    osc_regime = helpers.regime_of(model, psi_d, 1.251, ground)
    osc = ns.oscillation_descriptor(osc_regime, ns.full_spectrum(model, psi_d, 1.251), ground)
    d_osc = max(min(abs(e - 1.46103), abs(e + 1.46103)) for e in osc.energies)
    _report(5, [
        (model.dim == 22, f"dim {model.dim}"),
        (degens == (1, 1, 3, 1, 1, 8, 1, 1, 3, 1, 1), f"degeneracies {degens}"),
        (table_dev < 1e-9, f"level-table dev {table_dev:.2e}"),
        (darks.shape[1] == 15, f"{darks.shape[1]} dark states"),
        (active == 7, f"{active} nonzero charges"),
        (abs(root12 - (-0.999767)) < 1e-5,
         f"tau=1.2 root dev {abs(root12 - (-0.999767)):.2e}"),
        (abs(regime.predicted_energy) < 0.02,
         f"|E_inf| = {abs(regime.predicted_energy):.2e}"),
        (d_pair < 1e-5, f"tau=1.251 pair dev {d_pair:.2e}"),
        (d_osc < 1e-4, f"pair energy dev {d_osc:.2e}"),
    ])


def test_criterion_06_tree_selection_rule(tree):
    model, decomp, psi_d = tree
    tau = 1.1
    dark_2 = _dark_member(decomp, psi_d, tau, 2, 1)
    dark_5 = _dark_member(decomp, psi_d, tau, 5, 1)
    bright_10 = _bright_member(decomp, psi_d, 10)
    bright_6 = _bright_member(decomp, psi_d, 6)
    S = _machinery(model, decomp, psi_d, tau)

    def final_energy(v):
        traj = ns.evolve(S, v, 400, model.hamiltonian)
        return traj.mean_energy[400]

    e_two = final_energy((dark_2 + bright_10) / math.sqrt(2.0))
    e_three = final_energy((dark_2 + bright_10 + dark_5) / math.sqrt(3.0))
    e_four = final_energy((dark_2 + bright_10 + dark_5 + bright_6) / 2.0)
    _report(6, [
        (abs(e_two + 2.0) < 0.05, f"two-component energy {e_two:.4f}"),
        (abs(e_three + 1.0) < 0.05, f"three-component energy {e_three:.4f}"),
        (abs(e_four - e_three) < 0.02,
         f"adding a bright component moves it by {abs(e_four - e_three):.2e}"),
    ])


def test_criterion_07_tree_triple_charge_oscillation(tree):
    model, decomp, psi_d = tree
    config = ns.charges(decomp, psi_d, 2.3)
    mods = sorted((abs(r) for r in ns.stationary_points(config).roots),
                  reverse=True)[:2]
    d_exact = max(abs(m - 0.9873) for m in mods)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = triple_charge_estimate(config, 5, (0, 10))
    d_est = abs(abs(est.xi_estimates[0]) - 0.9869)

    ground = _bright_member(decomp, psi_d, 0)
    bins = {}
    for tau in (2.3, 2.35):
        S = _machinery(model, decomp, psi_d, tau)
        traj = ns.evolve(S, ground, 300, model.hamiltonian)
        e = traj.mean_energy[44:300]
        f = np.abs(np.fft.rfft(e - e.mean()))
        bins[tau] = int(np.argmax(f[1:]) + 1)
    _report(7, [
        (d_exact < 1e-4, f"exact |xi| dev {d_exact:.2e} < 1e-4"),
        (d_est < 1e-4, f"estimate dev {d_est:.2e} < 1e-4"),
        (bins[2.3] > bins[2.35],
         f"FFT bin {bins[2.3]} (tau=2.3) > {bins[2.35]} (tau=2.35)"),
    ])


def test_criterion_08_exceptional_certain_detection():
    model = ns.build_exceptional_three_level(1.0)
    decomp = ns.spectral_decompose(model)
    psi_d = ns.site_state(model, "0")
    tau = 2.0 * math.pi / 3.0
    spectrum = ns.full_spectrum(model, psi_d, tau)
    max_xi = max(abs(xi) for xi in spectrum.xis)
    S = _machinery(model, decomp, psi_d, tau)
    cube = np.max(np.abs(S.matrix @ S.matrix @ S.matrix))
    step = None
    try:
        ns.evolve(S, ns.site_state(model, "2"), 10, model.hamiltonian)
    except CertainDetectionError as exc:
        step = exc.step
    _report(8, [
        (spectrum.exceptional_flag, "spectrum flagged exceptional"),
        (max_xi < 1e-10, f"max |xi| = {max_xi:.2e} < 1e-10"),
        (cube < 1e-10, f"max |S^3| entry = {cube:.2e} < 1e-10"),
        (step is not None and step <= 3,
         f"certain detection at step {step}"),
    ])


def test_criterion_09_two_level_root_formula(two_level):
    model, decomp, psi_d = two_level
    worst = 0.0
    for tau in np.linspace(0.03, 3.1, 100):
        config = ns.charges(decomp, psi_d, tau)
        root = max(ns.stationary_points(config).roots, key=abs, default=0j)
        worst = max(worst, abs(root - math.cos(tau)))
    at_quarter = ns.charges(decomp, psi_d, math.pi / 2.0)
    report = ns.detect_exceptional(at_quarter)
    flagged = ns.full_spectrum(model, psi_d, math.pi / 2.0).exceptional_flag
    _report(9, [
        (worst < 1e-12, f"worst |root - cos(gamma tau)| = {worst:.2e} over 100 tau"),
        (report.is_exceptional and flagged, "exceptional at gamma tau = pi/2"),
    ])


def test_criterion_10_partition_against_dense_oracle():
    worst = 0.0
    dims = set()
    for seed in range(50):
        model, psi, tau = helpers.random_model(seed)
        dims.add(model.dim)
        spectrum = ns.full_spectrum(model, psi, tau)
        expected = helpers.expected_partition(model, psi, tau)
        counts = tuple(int((spectrum.kinds == kind).sum())
                       for kind in ("zero", "disk", "circle"))
        assert counts == expected, f"seed {seed}: {counts} != {expected}"
        decomp = ns.spectral_decompose(model)
        S = ns.build_survival(ns.propagator(decomp, tau), psi)
        reference = helpers.dense_eigenvalues(S.matrix)
        computed = spectrum.xis
        worst = max(worst, helpers.match_eigenvalues(computed, reference))
    _report(10, [
        (worst < 1e-8, f"50 seeded models, worst oracle mismatch {worst:.2e}"),
        (dims == set(range(2, 17)), f"dims covered {sorted(dims)}"),
    ])


def test_criterion_11_spectral_iterative_equivalence(two_level, chain, v_atom,
                                                     tree):
    worst_overlap = worst_energy = 0.0
    for name, model, decomp, psi_d, tau, psi_in in _worked_setups(
            two_level, chain, v_atom, tree):
        S = _machinery(model, decomp, psi_d, tau)
        spectrum = ns.full_spectrum(model, psi_d, tau)
        traj = ns.evolve(S, psi_in, 200, model.hamiltonian)
        states = traj.states()
        for n in (1, 3, 10, 40, 200):
            state, energy = ns.evolve_spectral(spectrum, psi_in, n, model.hamiltonian)
            worst_overlap = max(worst_overlap,
                                abs(abs(np.vdot(state, states[n])) - 1.0))
            worst_energy = max(worst_energy, abs(energy - traj.mean_energy[n]))
    _report(11, [
        (worst_overlap < 1e-8, f"worst overlap dev {worst_overlap:.2e} < 1e-8"),
        (worst_energy < 1e-8, f"worst energy dev {worst_energy:.2e} < 1e-8"),
    ])


def test_criterion_12_completeness_identity(two_level, chain, v_atom, tree):
    worst = 0.0
    for name, model, decomp, psi_d, tau, _ in _worked_setups(
            two_level, chain, v_atom, tree):
        spectrum = ns.full_spectrum(model, psi_d, tau)
        worst = max(worst, ns.completeness_check(spectrum))
    _report(12, [
        (worst < 1e-8, f"worst completeness deviation {worst:.2e} < 1e-8"),
    ])


def test_criterion_13_zeno_bound(two_level, chain, v_atom, tree):
    worst_violation = -math.inf
    worst_small_gap = 0.0
    monotone = True
    for name, model, decomp, psi_d, tau0, _ in _worked_setups(
            two_level, chain, v_atom, tree):
        de = ns.energy_spread(decomp)
        previous = None
        for i, tau in enumerate(np.linspace(0.02, 0.98 * math.pi / de, 25)):
            bound = ns.zeno_bound(decomp, tau)[0]
            if previous is not None and bound >= previous:
                monotone = False
            previous = bound
            roots = ns.stationary_points(ns.charges(decomp, psi_d, tau)).roots
            gap = min(abs(r) for r in roots) - bound
            worst_violation = max(worst_violation, -gap)
            if i == 0:
                worst_small_gap = max(worst_small_gap, gap)
    _report(13, [
        (worst_violation < 1e-12,
         f"bound holds (worst margin {-worst_violation:.2e})"),
        (monotone, "bound strictly decreasing in tau"),
        (worst_small_gap < 2e-3,
         f"touching at small tau (gap {worst_small_gap:.2e})"),
    ])


def test_criterion_14_dark_state_immunity(tree):
    model, decomp, psi_d = tree
    tau = 1.1
    _, darks, _ = ns.dark_states(decomp, psi_d, tau)
    S = _machinery(model, decomp, psi_d, tau)
    worst = 0.0
    for dark in darks.T:
        traj = ns.evolve(S, dark, 100, model.hamiltonian)
        worst = max(worst, np.max(np.abs(traj.survival_amplitude - 1.0)))
    _report(14, [
        (darks.shape[1] == 15, f"{darks.shape[1]} dark states"),
        (worst < 1e-10,
         f"worst amplitude deviation {worst:.2e} over 100 steps each"),
    ])


def test_criterion_15_perturbation_order():
    def merge_error(delta):
        config = ns.config_from_levels((-delta, delta, 2.5), (0.3, 0.3, 0.4), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = two_merge_estimate(config, 0, 1)
        xi = est.xi_estimates[0]
        exact = min(ns.stationary_points(config).roots, key=lambda r: abs(r - xi))
        return abs(xi - exact)

    def triple_error(delta):
        config = ns.config_from_levels((-delta, 0.0, delta, 2.9),
                                       (0.25, 0.2, 0.25, 0.3), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = triple_charge_estimate(config, 1, (0, 2))
        xi = est.xi_estimates[0]
        exact = min(ns.stationary_points(config).roots, key=lambda r: abs(r - xi))
        return abs(xi - exact)

    merge_ratio = merge_error(0.2) / merge_error(0.1)
    triple_ratio = triple_error(0.15) / triple_error(0.075)
    _report(15, [
        (merge_ratio >= 3.0, f"two-merge error ratio {merge_ratio:.2f} >= 3"),
        (triple_ratio >= 3.0, f"triple error ratio {triple_ratio:.2f} >= 3"),
    ])
