import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nullsteer as ns
from nullsteer import CertainDetectionError, UnsupportedMultiplicityError

from helpers import random_model


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
    assert traj.n_steps == 5 and len(traj.records) == 6
    first = traj.records[0]
    assert first.survival_amplitude == 1.0 and first.phase == 0.0
    # cumulative probability equals the squared norm of S^n psi
    raw = np.linalg.matrix_power(s.matrix, 5) @ psi_in
    assert abs(traj.records[5].cumulative_no_detection_probability
               - np.linalg.norm(raw) ** 2) < 1e-12
    amps = traj.amplitudes()
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
    dom = max(spectrum.by_kind("disk"), key=lambda t: abs(t.xi))
    s, h = _machinery(model, decomp, psi_d, 2.0)
    traj = ns.evolve(s, dom.right, 10, h)
    want = 10 * float(np.angle(dom.xi))
    assert abs(traj.records[10].phase - want) < 1e-9


def test_evolve_spectral_agreement(chain):
    model, decomp, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    s, h = _machinery(model, decomp, psi_d, 2.0)
    psi_in = ns.site_state(model, "2")
    traj = ns.evolve(s, psi_in, 60, h)
    for n in (1, 5, 60):
        state, energy = ns.evolve_spectral(spectrum, psi_in, n, h)
        rec = traj.records[n]
        assert abs(1.0 - abs(np.vdot(state, rec.state))) < 1e-10
        assert abs(energy - rec.mean_energy) < 1e-10
    state0, energy0 = ns.evolve_spectral(spectrum, psi_in, 0, h)
    assert abs(energy0 - traj.records[0].mean_energy) < 1e-12


def test_evolve_spectral_refuses_exceptional():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    spectrum = ns.full_spectrum(model, psi_d, 2.0 * math.pi / 3.0)
    with pytest.raises(ns.ExceptionalSpectrumError):
        ns.evolve_spectral(spectrum, ns.site_state(model, "1"), 3, model.hamiltonian)


def test_dark_initial_state_is_immune(tree):
    model, decomp, psi_d = tree
    dark = ns.dark_states(decomp, psi_d, 1.1)[0]
    s, h = _machinery(model, decomp, psi_d, 1.1)
    traj = ns.evolve(s, dark.right, 50, h)
    assert np.max(np.abs(traj.amplitudes()[1:] - 1.0)) < 1e-12
    assert ns.energy_conservation_check(traj, 1e-9)


def test_energy_conservation_detects_drift(v_atom):
    model, decomp, psi_d = v_atom
    s, h = _machinery(model, decomp, psi_d, 0.5)
    traj = ns.evolve(s, ns.site_state(model, "G"), 60, h)
    assert not ns.energy_conservation_check(traj, 1e-6)


def test_classify_dark_dominated(tree):
    model, decomp, psi_d = tree
    tau = 1.1
    spectrum = ns.full_spectrum(model, psi_d, tau)
    dark = ns.dark_states(decomp, psi_d, tau)[0]
    bright = ns.bright_states(decomp, psi_d)[0][1]
    psi_in = (dark.right + bright) / math.sqrt(2.0)
    regime = ns.classify_regime(spectrum, psi_in)
    assert regime.kind == "DarkDominated"
    assert abs(regime.predicted_energy - dark.energy) < 1e-9
    assert len(regime.dominant) == 1


def test_classify_fixed_point(chain, v_atom):
    model, decomp, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    regime = ns.classify_regime(spectrum, ns.site_state(model, "2"))
    assert regime.kind == "FixedPoint"
    assert abs(regime.predicted_energy + 0.7511) < 1e-3
    model_v, _, psi_b = v_atom
    spec_v = ns.full_spectrum(model_v, psi_b, 0.5)
    regime_v = ns.classify_regime(spec_v, ns.site_state(model_v, "G"))
    assert regime_v.kind == "FixedPoint"
    assert abs(regime_v.predicted_energy - 3.0) < 0.01


def test_classify_oscillatory_and_descriptor(chain):
    model, decomp, psi_d = chain
    tau = 4.31697  # near-exact modulus tie of the two roots
    spectrum = ns.full_spectrum(model, psi_d, tau)
    psi_in = ns.site_state(model, "2")
    regime = ns.classify_regime(spectrum, psi_in)
    assert regime.kind == "Oscillatory"
    assert len(regime.dominant) == 2
    assert "relative_phase" in regime.oscillation

    desc = ns.oscillation_descriptor(regime, psi_in)
    phi1, phi2 = (float(np.angle(t.xi)) for t in regime.dominant)
    assert abs(desc.mean_phase - 0.5 * (phi1 + phi2)) < 1e-12
    assert abs(desc.relative_phase - 0.5 * (phi1 - phi2)) < 1e-12

    s, h = _machinery(model, decomp, psi_d, tau)
    traj = ns.evolve(s, psi_in, 300, h)
    for n in (100, 200, 300):
        model_state = desc.state_at(n)
        energy = float(np.real(np.vdot(model_state, h @ model_state)))
        assert abs(energy - traj.records[n].mean_energy) < 1e-3


def test_oscillation_descriptor_needs_pair(chain):
    model, _, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    regime = ns.classify_regime(spectrum, ns.site_state(model, "2"))
    with pytest.raises(UnsupportedMultiplicityError):
        ns.oscillation_descriptor(regime, ns.site_state(model, "2"))


def test_classify_exceptional():
    model = ns.build_exceptional_three_level(1.0)
    psi_d = ns.site_state(model, "0")
    spectrum = ns.full_spectrum(model, psi_d, 2.0 * math.pi / 3.0)
    regime = ns.classify_regime(spectrum, ns.site_state(model, "1"))
    assert regime.kind == "Exceptional"
    assert regime.dominant == ()


def test_classify_no_disk_certain_detection(two_level):
    model, decomp, psi_d = two_level
    spectrum = ns.full_spectrum(model, psi_d, math.pi)
    assert spectrum.counts == (1, 0, 1)
    # the detector itself carries no dark weight and no disk mode survives
    with pytest.raises(CertainDetectionError):
        ns.classify_regime(spectrum, psi_d)


def test_crossover_chain(chain):
    model, _, psi_d = chain
    spectrum = ns.full_spectrum(model, psi_d, 2.0)
    assert ns.classify_regime(spectrum, ns.site_state(model, "2")).crossover_step == 5


def test_crossover_tree_ground(tree):
    model, decomp, psi_d = tree
    spectrum = ns.full_spectrum(model, psi_d, 1.2)
    ground = decomp.levels[0].eigenvectors[:, 0]
    n_bright = ns.classify_regime(spectrum, ground).crossover_step
    assert n_bright == 23
    # with dark weight the reference amplitude never decays, so the wait is longer
    dark_start = ns.site_state(model, "(2,1)")
    assert ns.classify_regime(spectrum, dark_start).crossover_step > n_bright


def test_crossover_of_every_regime_kind(tree, chain):
    """One classification gives the kind and its crossover step together."""
    model, decomp, psi_d = tree
    ground = decomp.levels[0].eigenvectors[:, 0]
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
        regime = ns.classify_regime(ns.full_spectrum(m, det, tau), start)
        assert (regime.kind, regime.crossover_step) == (kind, n), (tau, kind)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_random_models_spectral_equals_iterative(seed):
    model, psi_d, tau = random_model(seed % 499)
    rng = np.random.default_rng(seed + 1)
    psi_in = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    psi_in = psi_in / np.linalg.norm(psi_in)
    spectrum = ns.full_spectrum(model, psi_d, tau)
    decomp = ns.spectral_decompose(model)
    s, h = _machinery(model, decomp, psi_d, tau)
    traj = ns.evolve(s, psi_in, 30, h)
    for n in (1, 10, 30):
        state, energy = ns.evolve_spectral(spectrum, psi_in, n, h)
        rec = traj.records[n]
        assert abs(1.0 - abs(np.vdot(state, rec.state))) < 1e-8
        assert abs(energy - rec.mean_energy) < 1e-8
