import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nullsteer as ns
from nullsteer import CertainDetectionError, UnsupportedMultiplicityError
from nullsteer.charges import ALIAS_TOL

from nullsteer.configio import resolve_state

from helpers import aliased_model, random_model, regime_of, vector_route_regime


def _machinery(model, decomp, psi_d, tau):
    u = ns.propagator(decomp, tau)
    s = ns.build_survival(u, psi_d)
    return s, model.hamiltonian


def test_step_two_level():
    """Detecting |l> while sitting in |r>: amplitude |cos(gamma tau)| per step."""
    model = ns.build_two_level(1.0)
    decomp = ns.spectral_decompose(model)
    psi_d = ns.site_state(model, "l")
    r = ns.site_state(model, "r")
    s, _ = _machinery(model, decomp, psi_d, 0.9)
    nxt, amp = ns.step(s, r)
    assert abs(amp - abs(math.cos(0.9))) < 1e-12
    assert abs(abs(np.vdot(nxt, r)) - 1.0) < 1e-12


def test_step_certain_detection(two_level):
    model, decomp, psi_d = two_level
    u = ns.propagator(decomp, 0.9)
    s = ns.build_survival(u, psi_d)
    doomed = u.conj().T @ psi_d  # maps onto the detector in one step
    with pytest.raises(CertainDetectionError):
        ns.step(s, doomed)


def test_evolve_records(chain):
    model, decomp, psi_d = chain
    s, h = _machinery(model, decomp, psi_d, 2.0)
    psi_in = ns.site_state(model, "2")
    traj = ns.evolve(s, psi_in, 5, h)
    assert traj.n_steps == 5 and len(traj.mean_energy) == 6
    assert traj.survival_amplitude[0] == 1.0 and traj.phase[0] == 0.0
    # cumulative probability equals the squared norm of S^n psi
    raw = np.linalg.matrix_power(s.matrix, 5) @ psi_in
    assert abs(traj.cumulative_no_detection_probability[5]
               - np.linalg.norm(raw) ** 2) < 1e-12
    amps = traj.survival_amplitude
    assert np.all(amps[1:] <= 1.0 + 1e-12)


def test_evolve_certain_detection_step_index(two_level):
    model, decomp, psi_d = two_level
    u = ns.propagator(decomp, 0.9)
    s = ns.build_survival(u, psi_d)
    with pytest.raises(CertainDetectionError) as err:
        ns.evolve(s, u.conj().T @ psi_d, 10, model.hamiltonian)
    assert err.value.step == 1


def test_phase_accumulates_eigenvalue_argument(chain):
    model, decomp, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    disk = np.flatnonzero(spectrum.kinds == "disk")
    dom = disk[np.argmax(np.abs(spectrum.xis[disk]))]
    s, h = _machinery(model, decomp, psi_d, 2.0)
    traj = ns.evolve(s, spectrum.rights[:, dom], 10, h)
    want = 10 * float(np.angle(spectrum.xis[dom]))
    assert abs(traj.phase[10] - want) < 1e-9


def test_evolve_spectral_agreement(chain):
    model, decomp, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    s, h = _machinery(model, decomp, psi_d, 2.0)
    psi_in = ns.site_state(model, "2")
    traj = ns.evolve(s, psi_in, 60, h)
    states = traj.states()
    for n in (1, 5, 60):
        state, energy = ns.evolve_spectral(spectrum, psi_in, n, h)
        assert abs(1.0 - abs(np.vdot(state, states[n]))) < 1e-10
        assert abs(energy - traj.mean_energy[n]) < 1e-10
    state0, energy0 = ns.evolve_spectral(spectrum, psi_in, 0, h)
    assert abs(energy0 - traj.mean_energy[0]) < 1e-12


def test_evolve_spectral_refuses_exceptional():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    spectrum = ns.full_spectrum(model, psi_d, 2.0 * math.pi / 3.0)
    with pytest.raises(ns.ExceptionalSpectrumError):
        ns.evolve_spectral(spectrum, ns.site_state(model, "1"), 3, model.hamiltonian)


def test_dark_initial_state_is_immune(tree):
    model, decomp, psi_d = tree
    dark = ns.dark_states(decomp, psi_d, 1.1)[1][:, 0]
    s, h = _machinery(model, decomp, psi_d, 1.1)
    traj = ns.evolve(s, dark, 50, h)
    assert np.max(np.abs(traj.survival_amplitude[1:] - 1.0)) < 1e-12
    assert ns.energy_conservation_check(traj, 1e-9)


def test_energy_conservation_detects_drift(v_atom):
    model, decomp, psi_d = v_atom
    s, h = _machinery(model, decomp, psi_d, 0.5)
    traj = ns.evolve(s, ns.site_state(model, "G"), 60, h)
    assert not ns.energy_conservation_check(traj, 1e-6)


def test_classify_dark_dominated(tree):
    model, decomp, psi_d = tree
    tau = 1.1
    _, darks, levels = ns.dark_states(decomp, psi_d, tau)
    split = ns.DetectorSplit(decomp, psi_d)
    bright = split.bright(split.bright_levels[0])
    psi_in = (darks[:, 0] + bright) / math.sqrt(2.0)
    regime = regime_of(decomp, psi_d, tau, psi_in)
    assert regime.kind == "DarkDominated"
    assert abs(regime.predicted_energy - decomp.energies[levels[0]]) < 1e-9
    assert len(regime.dominant) == 1


def test_classify_fixed_point(chain, v_atom):
    model, decomp, psi_d = chain
    regime = regime_of(model, psi_d, 2.0, ns.site_state(model, "2"))
    assert regime.kind == "FixedPoint"
    assert abs(regime.predicted_energy + 0.7511) < 1e-3
    model_v, _, psi_b = v_atom
    regime_v = regime_of(model_v, psi_b, 0.5, ns.site_state(model_v, "G"))
    assert regime_v.kind == "FixedPoint"
    assert abs(regime_v.predicted_energy - 3.0) < 0.01


def test_classify_oscillatory_and_descriptor(chain):
    model, decomp, psi_d = chain
    tau = 4.31697  # near-exact modulus tie of the two roots
    spectrum = ns.full_spectrum(model, psi_d, tau)
    psi_in = ns.site_state(model, "2")
    regime = regime_of(model, psi_d, tau, psi_in)
    assert regime.kind == "Oscillatory"
    assert len(regime.dominant) == 2
    assert "relative_phase" in regime.oscillation

    desc = ns.oscillation_descriptor(regime, spectrum, psi_in)
    phi1, phi2 = (float(np.angle(xi)) for xi in regime.dominant)
    assert abs(desc.mean_phase - 0.5 * (phi1 + phi2)) < 1e-12
    assert abs(desc.relative_phase - 0.5 * (phi1 - phi2)) < 1e-12

    s, h = _machinery(model, decomp, psi_d, tau)
    traj = ns.evolve(s, psi_in, 300, h)
    for n in (100, 200, 300):
        model_state = desc.state_at(n)
        energy = float(np.real(np.vdot(model_state, h @ model_state)))
        assert abs(energy - traj.mean_energy[n]) < 1e-3


def test_oscillation_descriptor_needs_pair(chain):
    model, _, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    regime = regime_of(model, psi_d, 2.0, ns.site_state(model, "2"))
    with pytest.raises(UnsupportedMultiplicityError):
        ns.oscillation_descriptor(regime, spectrum, ns.site_state(model, "2"))


def test_classify_exceptional():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    regime = regime_of(model, psi_d, 2.0 * math.pi / 3.0, ns.site_state(model, "1"))
    assert regime.kind == "Exceptional"
    assert regime.dominant == ()
    assert regime.crossover_step == 1


def test_spectrum_and_regime_share_the_biorthogonality_decision():
    # Both routes read the disk overlaps off the charges (survival._classify),
    # so they agree bit for bit; dense eigenvectors differ in the last bits.
    model = ns.build_glued_tree(8)
    decomp = ns.spectral_decompose(model)
    split = ns.DetectorSplit(decomp, ns.site_state(model, "(1,1)"))
    for tau in (0.7, 1.2, 1.9):
        spectrum = ns.full_spectrum(decomp, split, tau)
        config = ns.charges(decomp, split, tau)
        disk = [r for r in ns.stationary_points(config).roots if r != 0]
        overlaps = ns.disk_root_levels(config, disk)[1]
        assert spectrum.min_biorthogonal_overlap == min(overlaps)
        n_zero, n_disk, _ = spectrum.counts
        assert np.array_equal(spectrum.biorthogonal_overlaps[n_zero : n_zero + n_disk],
                              overlaps)
    model = ns.build_exceptional_three_level(1.0)
    psi_d, psi_in = ns.site_state(model, "0"), ns.site_state(model, "1")
    exceptional_tau = 2.0 * math.pi / 3.0
    flags = []
    for tau in exceptional_tau + np.array([-0.3, -0.05, -1e-6, 0.0, 1e-6, 0.05, 0.3]):
        flag = ns.full_spectrum(model, psi_d, float(tau)).exceptional_flag
        assert flag == (regime_of(model, psi_d, float(tau), psi_in).kind == "Exceptional")
        flags.append(flag)
    assert flags[3] and not flags[0] and not flags[-1]


def test_classify_no_disk_certain_detection(two_level):
    model, decomp, psi_d = two_level
    spectrum = ns.full_spectrum(model, psi_d, math.pi)
    assert spectrum.counts == (1, 0, 1)
    # the detector itself carries no dark weight and no disk mode survives
    with pytest.raises(CertainDetectionError):
        regime_of(model, psi_d, math.pi, psi_d)


def test_crossover_chain(chain):
    model, _, psi_d = chain
    assert regime_of(model, psi_d, 2.0, ns.site_state(model, "2")).crossover_step == 5


def test_crossover_tree_ground(tree):
    model, decomp, psi_d = tree
    ground = decomp.members(0)[:, 0]
    n_bright = regime_of(decomp, psi_d, 1.2, ground).crossover_step
    assert n_bright == 23
    # with dark weight the reference amplitude never decays, so the wait is longer
    dark_start = ns.site_state(model, "(2,1)")
    assert regime_of(decomp, psi_d, 1.2, dark_start).crossover_step > n_bright


def test_crossover_of_every_regime_kind(tree, chain):
    """One classification gives the kind and its crossover step together."""
    model, decomp, psi_d = tree
    ground = decomp.members(0)[:, 0]
    cases = [
        (model, psi_d, ground, 1.2, "FixedPoint", 23),
        (model, psi_d, ground, 1.25, "Oscillatory", 13),
        (model, psi_d, ground, 2.3, "Oscillatory", 21),
        (model, psi_d, ns.site_state(model, "(2,1)"), 1.2, "DarkDominated", 19739),
    ]
    exc = ns.build_exceptional_three_level(1.0)
    cases.append((exc, ns.site_state(exc, "0"), ns.site_state(exc, "1"),
                  2.0 * math.pi / 3.0, "Exceptional", 1))
    chain_model, _, chain_d = chain
    cases.append((chain_model, chain_d, ns.site_state(chain_model, "2"), 2.0,
                  "FixedPoint", 5))
    for m, det, start, tau, kind, n in cases:
        regime = regime_of(m, det, tau, start)
        assert (regime.kind, regime.crossover_step) == (kind, n), (tau, kind)


def _dense_dark_projector(u, psi_d):
    """Projector onto the states S keeps on the unit circle, from the dense U.

    Within each eigenspace of U (a null space of U - lambda), the part
    orthogonal to the detector's projection on it is dark; an eigenspace
    the detector does not reach (charge at most 1e-12) is dark as a whole.
    """
    dim = u.shape[0]
    phases = []
    for lam in np.linalg.eigvals(u):
        if all(abs(lam - m) > 1e-9 for m in phases):
            phases.append(lam)
    proj = np.zeros((dim, dim), dtype=complex)
    for lam in phases:
        _, s, vh = np.linalg.svd(u - lam * np.eye(dim))
        null = vh[s < 1e-9].conj().T
        q = null @ null.conj().T
        b = q @ psi_d
        if np.vdot(b, b).real > 1e-12:
            q = q - np.outer(b, b.conj()) / np.vdot(b, b).real
        proj += q
    return proj


def test_three_aliased_levels_predict_the_dark_subspace_energy():
    """Levels 0, 2 pi and 4 pi share the phase 1 at tau = 1, so the start's
    dark part spans all three: its energy needs the cross-level terms."""
    model = ns.build_custom(np.diag([0.0, 2.0 * math.pi, 4.0 * math.pi, 1.0]))
    psi_d = np.full(4, 0.5)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = psi / np.linalg.norm(psi)
    decomp = ns.spectral_decompose(model)
    d = _dense_dark_projector(ns.propagator(decomp, 1.0), psi_d) @ psi
    want = float(np.vdot(d, model.hamiltonian @ d).real / np.vdot(d, d).real)
    assert abs(want - 6.924879920) < 1e-9
    regime = regime_of(model, psi_d, 1.0, psi)
    assert regime.kind == "DarkDominated"
    assert abs(regime.predicted_energy - want) < 1e-9
    # one phase carries the dark weight, however many dark vectors span it
    assert regime.dominant == (1.0 + 0j,)


def test_dark_levels_sharing_a_phase_give_one_dominant_entry():
    """Dark levels 0 and 2 pi share the phase 1 at tau = 1: one carrier."""
    model = ns.build_custom(np.diag([0.0, 2.0 * math.pi, 1.0]))
    regime = regime_of(model, ns.site_state(model, "2"), 1.0, np.array([1.0, 1.0, 0.3]))
    assert regime.kind == "DarkDominated"
    assert len(regime.dominant) == 1
    assert regime.predicted_energy == 3.141592653589793


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["dark", "bright", "both"]), st.booleans())
def test_aliased_levels_regime_matches_the_dense_dark_projector(seed, aliased, rotate):
    model, psi_d, psi, tau = aliased_model(seed, aliased, rotate)
    decomp = ns.spectral_decompose(model)
    split = ns.DetectorSplit(decomp, psi_d)
    config = ns.charges(decomp, split, tau)
    sp = ns.stationary_points(config)
    assert sp.roots == ns.stationary_points(ns.merged_charge_config(config)).roots
    regime = ns.classify_regime(config, sp, split.weigh(psi))
    assert regime.kind == "DarkDominated"
    dominant = np.array(regime.dominant)
    gaps = np.abs(dominant[:, None] - dominant)[np.triu_indices(dominant.size, 1)]
    assert np.all(gaps >= ALIAS_TOL)
    d = _dense_dark_projector(ns.propagator(decomp, tau), psi_d) @ psi
    want = float(np.vdot(d, model.hamiltonian @ d).real / np.vdot(d, d).real)
    assert abs(regime.predicted_energy - want) < 1e-9


def _pr10_regime_set():
    """(model, detector, start, taus) of the regime outputs kept fixed since
    the crossover step moved into ``classify_regime``."""
    tree3, tree4 = ns.build_glued_tree(3), ns.build_glued_tree(4)
    chain = ns.build_three_level_chain(1.0)
    v_atom = ns.build_v_atom(0.0, 3.0, 5.0, 0.01, 1.0)
    exc = ns.build_exceptional_three_level(1.0)
    return [
        (tree3, ns.site_state(tree3, "(1,1)"), {"energy_state": [0, 0]},
         np.linspace(0.3, 3.0, 40)),
        (tree4, ns.site_state(tree4, "(1,1)"), {"site": "(2,1)"}, np.linspace(0.3, 3.0, 40)),
        (exc, ns.site_state(exc, "0"), {"site": "1"}, [2.0 * math.pi / 3.0]),
        (chain, ns.site_state(chain, "0"), {"site": "2"}, np.linspace(0.02, 4.2, 80)),
        (v_atom, ns.site_state(v_atom, "B"), {"site": "G"}, np.linspace(0.1, 3.0, 30)),
    ]


def test_level_wise_regime_matches_the_vector_route():
    kinds = set()
    for model, psi_d, spec, taus in _pr10_regime_set():
        decomp = ns.spectral_decompose(model)
        split = ns.DetectorSplit(decomp, psi_d)
        psi_in = resolve_state(spec, model, decomp, split)
        start = split.weigh(psi_in)
        for tau in map(float, taus):
            config = ns.charges(decomp, split, tau)
            sp = ns.stationary_points(config)
            regime = ns.classify_regime(config, sp, start)
            spectrum = ns.full_spectrum(decomp, split, tau)
            kind, crossover, energies = vector_route_regime(spectrum, psi_in)
            assert (regime.kind, regime.crossover_step) == (kind, crossover), (spec, tau)
            got = (() if kind == "Exceptional" else (regime.predicted_energy,)
                   if regime.oscillation is None else regime.oscillation["energies"])
            assert len(got) == len(energies)
            assert max((abs(g - e) for g, e in zip(got, energies)), default=0.0) <= 1e-12
            _, overlaps = ns.disk_root_levels(config, [r for r in sp.roots if r != 0])
            assert abs(min(overlaps, default=1.0)
                       - spectrum.min_biorthogonal_overlap) <= 1e-12, (spec, tau)
            kinds.add(kind)
    assert kinds == {"DarkDominated", "FixedPoint", "Oscillatory", "Exceptional"}


def test_regime_at_a_weak_level_phase_is_refused():
    # gamma1 = 2e-5 leaves level 1 a charge of 8.2e-12, above the zero
    # threshold, and its root lies within 1e-10 of its phase.
    model = ns.build_v_atom(0.0, 3.0, 5.0, 2e-5, 1.0)
    with pytest.raises(ns.RootTooCloseError, match="level 1 with charge 8.16e-12"):
        regime_of(model, ns.site_state(model, "B"), 0.5, ns.site_state(model, "G"))


def test_regime_of_a_fully_dark_detector_is_refused(chain):
    model, decomp, psi_d = chain
    split = ns.DetectorSplit(decomp, psi_d, zero_threshold=2.0)
    start = split.weigh(ns.site_state(model, "2"))
    config = ns.charges(decomp, split, 2.0)
    with pytest.raises(ns.NoBrightSubspaceError):
        ns.classify_regime(config, ns.stationary_points(config), start)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_random_models_spectral_equals_iterative(seed):
    model, psi_d, tau = random_model(seed % 499)
    rng = np.random.default_rng(seed + 1)
    psi_in = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    psi_in = psi_in / np.linalg.norm(psi_in)
    # and 2-4 bright levels aliased at E_0 + 2 pi m / tau
    aliased, aliased_d, aliased_in, aliased_tau = aliased_model(seed, "bright", seed % 2 == 1)
    for model, psi_d, psi_in, tau in ((model, psi_d, psi_in, tau),
                                      (aliased, aliased_d, aliased_in, aliased_tau)):
        spectrum = ns.full_spectrum(model, psi_d, tau)
        decomp = ns.spectral_decompose(model)
        s, h = _machinery(model, decomp, psi_d, tau)
        traj = ns.evolve(s, psi_in, 30, h)
        states = traj.states()
        for n in (1, 10, 30):
            state, energy = ns.evolve_spectral(spectrum, psi_in, n, h)
            assert abs(1.0 - abs(np.vdot(state, states[n]))) < 1e-8
            assert abs(energy - traj.mean_energy[n]) < 1e-8
