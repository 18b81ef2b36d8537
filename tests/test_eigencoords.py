"""The eigen-coordinate survival core against the dense oracles.

``propagator`` and ``build_survival`` build the dense S; the production
path never does.  These tests pin the two together and check that the
`run` path stays off the dense functions.
"""

import json
import math
import sys

import numpy as np
import pytest

import nullsteer as ns
from nullsteer.charges import ZERO_CHARGE_THRESHOLD, _dark_combinations
from nullsteer.cli import run_experiment
from nullsteer.configio import resolve_state
from nullsteer.csvio import format_value, read_csv

from helpers import disk_pair_residual, expected_partition, vector_route_regime

SYMMETRIC_START = {"combination": [{"weight": 1.0, "site": "(2,1)"},
                                   {"weight": 1.0, "site": "(2,2)"}]}


def _tree_payload(depth, tau, experiment, **extra):
    payload = {
        "model": {"type": "glued_tree", "depth": depth},
        "detection": {"site": "(1,1)"},
        "initial_state": SYMMETRIC_START,
        "tau": tau,
        "experiment": experiment,
    }
    payload.update(extra)
    return payload


def _write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _patch_everywhere(monkeypatch, original, replacement):
    """Put ``replacement`` at every nullsteer module attribute naming ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "nullsteer" or name.startswith("nullsteer."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def _count_calls(monkeypatch, original):
    """Record the (args, kwargs) of every call of a module-level function,
    under every nullsteer alias."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, counted)
    return calls


def _count_method_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_disk_and_zero_pairs_solve_dense_s_tree_d6():
    model = ns.build_glued_tree(6)
    decomp = ns.spectral_decompose(model)
    psi_d = ns.site_state(model, "(1,1)")
    tau = 1.1
    spectrum = ns.full_spectrum(decomp, psi_d, tau)
    s = ns.build_survival(ns.propagator(decomp, tau), psi_d).matrix
    assert (spectrum.kinds == "disk").sum() == spectrum.counts[1] > 0
    assert disk_pair_residual(s, spectrum) < 1e-10
    zero = spectrum.rights[:, 0]
    assert spectrum.kinds[0] == "zero"
    assert np.linalg.norm(s @ zero) < 1e-10
    np.testing.assert_allclose(spectrum.operator.matrix, s, atol=1e-12)


def test_full_spectrum_accepts_decomposition(chain):
    model, decomp, psi_d = chain
    from_model = ns.full_spectrum(model, psi_d, 2.0)
    from_decomp = ns.full_spectrum(decomp, psi_d, 2.0)
    assert from_model.counts == from_decomp.counts
    assert np.array_equal(from_model.xis, from_decomp.xis)
    np.testing.assert_allclose(from_model.rights, from_decomp.rights, atol=1e-14)
    # a decomposition already fixes its level grouping
    with pytest.raises(ns.InvalidParameterError):
        ns.full_spectrum(decomp, psi_d, 2.0, grouping_tol=1e-6)


def test_operator_step_matches_dense_step(tree):
    model, decomp, psi_d = tree
    tau = 1.25
    s_eig = ns.EigenSurvivalOperator(decomp, psi_d, tau)
    s_dense = ns.build_survival(ns.propagator(decomp, tau), psi_d).matrix
    psi = ns.site_state(model, "(2,1)")
    x = decomp.coords(psi)
    np.testing.assert_allclose(decomp.vectors @ s_eig.apply(x), s_dense @ psi, atol=1e-14)
    energy = float(np.real(np.vdot(psi, model.hamiltonian @ psi)))
    assert abs(s_eig.energy(x) - energy) < 1e-14
    (nxt_eig, amp_eig), (nxt, amp) = ns.step(s_eig, psi), ns.step(s_dense, psi)
    assert abs(amp_eig - amp) < 1e-14
    np.testing.assert_allclose(nxt_eig, nxt, atol=1e-14)


def test_evolve_records_site_states_for_operator(tree):
    model, decomp, psi_d = tree
    tau = 1.1
    spectrum = ns.full_spectrum(decomp, psi_d, tau)
    s_dense = ns.build_survival(ns.propagator(decomp, tau), psi_d)
    psi = ns.site_state(model, "(2,1)")
    eig = ns.evolve(spectrum.operator, psi, 30, model.hamiltonian)
    dense = ns.evolve(s_dense, psi, 30, model.hamiltonian)
    states = eig.states()
    with pytest.raises(ns.InvalidParameterError):
        ns.evolve(s_dense, psi, 3)  # a dense operator needs H for the energy
    for n, want in enumerate(dense.states()):
        np.testing.assert_allclose(eig.basis @ eig.coords[n], want, atol=1e-12)
        np.testing.assert_allclose(states[n], want, atol=1e-12)
        assert abs(eig.mean_energy[n] - dense.mean_energy[n]) < 1e-12


def _exact_mean_energies(h, psi_d, psi, tau, n_steps, digits=40):
    """Mean energy after each of n_steps null steps, in mpmath at ``digits``.

    Decomposes the real symmetric ``h`` with ``mp.eigsy`` and steps the
    eigen-coordinates x -> z*x - c (c^T (z*x)), renormalizing each step.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = digits
    energies, q = mp.eigsy(mp.matrix(h.tolist()))
    dim = h.shape[0]
    cols = range(dim)

    def project(v):
        return [mp.fsum(q[i, j] * v[i] for i in cols) for j in cols]

    def normalized(v):
        norm = mp.sqrt(mp.fsum(abs(a) ** 2 for a in v))
        return [a / norm for a in v]

    c = project(psi_d)
    z = [mp.expj(-energies[j] * tau) for j in cols]
    x = normalized([mp.mpc(a) for a in project(psi)])
    out = []
    for step in range(n_steps + 1):
        if step:
            y = [z[j] * x[j] for j in cols]
            overlap = mp.fsum(c[j] * y[j] for j in cols)
            x = normalized([y[j] - c[j] * overlap for j in cols])
        out.append(float(mp.fsum(energies[j] * abs(x[j]) ** 2 for j in cols)))
    return out


def test_cli_evolve_matches_dense_evolve(tmp_path):
    depth, tau, n = 4, 1.3, 400
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, _tree_payload(depth, tau, "evolve", n_steps=n)),
                   str(out), dump_states=True)
    header, rows = read_csv(out / "trajectory.csv")

    model = ns.build_glued_tree(depth)
    decomp = ns.spectral_decompose(model)
    psi_d = ns.site_state(model, "(1,1)")
    psi = ns.site_state(model, "(2,1)") + ns.site_state(model, "(2,2)")
    s = ns.build_survival(ns.propagator(decomp, tau), psi_d)
    dense = ns.evolve(s, psi / np.linalg.norm(psi), n, model.hamiltonian)

    exact = _exact_mean_energies(model.hamiltonian.real, psi_d.real, psi.real, tau, n)

    assert len(rows) == n + 1
    for n, (row, energy) in enumerate(zip(rows, exact)):
        # each path's mean energy against the 40-digit reference
        for got in (float(row[1]), dense.mean_energy[n]):
            assert abs(got - energy) <= 1e-12 * max(1.0, abs(energy))
        for got, want in ((row[2], dense.survival_amplitude[n]),
                          (row[3], dense.cumulative_no_detection_probability[n])):
            assert abs(float(got) - want) <= 1e-12 * max(1.0, abs(want))
        # the phase column is defined modulo 2 pi
        assert abs(math.remainder(float(row[4]) - dense.phase[n], 2.0 * math.pi)) < 1e-9
        state = np.array([float(v) for v in row[5::2]]) + 1j * np.array(
            [float(v) for v in row[6::2]])
        assert np.max(np.abs(state - dense.states()[n])) < 1e-10


def test_sweep_decomposes_once(tmp_path, monkeypatch):
    decompose = _count_calls(monkeypatch, ns.spectral_decompose)
    propagate = _count_calls(monkeypatch, ns.propagator)
    rebuild_h = _count_method_calls(monkeypatch, ns.SpectralDecomposition, "hamiltonian")
    tau = {"start": 0.3, "stop": 2.9, "steps": 60}
    run_experiment(_write(tmp_path, _tree_payload(4, tau, "sweep-tau")),
                   str(tmp_path / "out"))
    assert len(decompose) == 1
    assert not propagate and not rebuild_h


@pytest.mark.parametrize("experiment", ["sweep-tau", "regime"])
def test_sweep_solves_each_tau_once_and_builds_no_vectors(tmp_path, monkeypatch, experiment):
    # The regime is classified level-wise: per tau only the charge arrays
    # and their stationary points, and no dark or disk vector at all, nor
    # any per-level Charge record.
    solve = _count_calls(monkeypatch, ns.stationary_points)
    vectors = [_count_calls(monkeypatch, fn)
               for fn in (ns.full_spectrum, ns.dark_states, ns.disk_eigenpairs)]
    records = _count_method_calls(monkeypatch, ns.Charge, "__init__")
    tau = {"start": 0.3, "stop": 2.9, "steps": 60}
    run_experiment(_write(tmp_path, _tree_payload(4, tau, experiment)),
                   str(tmp_path / "out"))
    assert len(solve) == 60
    assert [len(calls) for calls in vectors] == [0, 0, 0]
    assert not records


def test_sweep_resolves_the_initial_state_once(tmp_path, monkeypatch):
    resolve = _count_calls(monkeypatch, resolve_state)
    tau = {"start": 0.3, "stop": 2.9, "steps": 60}
    run_experiment(_write(tmp_path, _tree_payload(4, tau, "sweep-tau")),
                   str(tmp_path / "out"))
    # the detector, then the initial state's combination and its two sites
    assert len(resolve) == 4


def test_sweep_rows_match_fresh_spectra(tmp_path):
    # The tau range of the benchmark's tau-sweep job 0 at seed 3.
    start, stop = 0.23425966685744976, 2.4710701734535494
    payload = _tree_payload(5, {"start": start, "stop": stop, "steps": 60}, "sweep-tau")
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    _, rows = read_csv(out / "sweep.csv")
    model = ns.build_glued_tree(5)
    decomp = ns.spectral_decompose(model)
    psi_d = ns.site_state(model, "(1,1)")
    psi_in = resolve_state(SYMMETRIC_START, model, decomp)
    taus = np.linspace(start, stop, 60)
    assert len(rows) == len(taus)
    for row, tau in zip(rows, taus):
        tau = float(tau)
        spectrum = ns.full_spectrum(model, psi_d, tau)
        roots = spectrum.stationary.roots
        mods = sorted((abs(r) for r in roots), reverse=True)
        merged = ns.merged_charge_config(spectrum.charge_config)
        try:
            bound = ns.zeno_bound(decomp, tau)[0]
        except ns.BoundNotApplicableError:
            bound = float("nan")
        assert row[0] == format_value(tau)
        assert row[5] == format_value(model.dim - len(merged.active))
        assert row[6] == format_value(bound)
        # the kind against a dark weight summed over the circle triples
        assert row[7] == vector_route_regime(spectrum, psi_in)[0]
        got = [float(v) for v in row[1:5]]
        want = [roots[0].real, roots[0].imag, mods[0], mods[1]]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14


def test_split_circle_states_solve_dense_s(tree, monkeypatch):
    model, decomp, psi_d = tree
    split = ns.DetectorSplit(decomp, psi_d)
    combine = _count_calls(monkeypatch, _dark_combinations)
    e = decomp.energies
    aliased = 2.0 * math.pi / (e[10] - e[4])  # two pairs of bright levels alias
    calls = []
    for tau in (1.1, aliased, 2.3):
        before = len(combine)
        spectrum = ns.full_spectrum(decomp, split, tau)
        calls.append(len(combine) - before)
        s = ns.build_survival(ns.propagator(decomp, tau), psi_d).matrix
        assert disk_pair_residual(s, spectrum, "circle") <= 1e-12
        assert spectrum.counts == expected_partition(model, psi_d, tau)
        # every spectrum of one split reuses its per-level dark vectors bit for bit
        n_dark = split.dark_vectors.shape[1]
        circle = slice(sum(spectrum.counts[:2]), None)
        assert np.array_equal(spectrum.rights[:, circle][:, :n_dark], split.dark_vectors)
        assert np.array_equal(spectrum.source_levels[circle][:n_dark], split.dark_levels)
        cross = spectrum.source_levels[circle][n_dark:]
        assert (cross == -1).all() and cross.size == (2 if tau == aliased else 0)
    # the first spectrum builds the split's dark vectors, the later ones only
    # the cross-level combinations, one call per alias group
    assert calls[0] > 0 and calls[1:] == [2, 0]
    assert not split.dark_vectors.flags.writeable


def test_configured_zero_threshold_reaches_every_charge_call(tmp_path, monkeypatch):
    configs = []
    original = ns.charges

    def recorded(*args, **kwargs):
        configs.append(original(*args, **kwargs))
        return configs[-1]

    _patch_everywhere(monkeypatch, original, recorded)
    threshold = 1e-11
    assert threshold != ZERO_CHARGE_THRESHOLD
    for experiment, tau in (("spectrum", 1.3), ("regime", 1.3),
                            ("sweep-tau", {"start": 0.5, "stop": 2.5, "steps": 4})):
        payload = _tree_payload(4, tau, experiment, tolerances={"zero_threshold": threshold})
        configs.clear()
        run_experiment(_write(tmp_path, payload), str(tmp_path / experiment))
        seen = [config.zero_threshold for config in configs]
        assert seen and all(t == threshold for t in seen), (experiment, seen)


def test_regime_and_evolve_build_no_dense_operator(tmp_path, monkeypatch):
    propagate = _count_calls(monkeypatch, ns.propagator)
    survival = _count_calls(monkeypatch, ns.build_survival)
    rebuild_h = _count_method_calls(monkeypatch, ns.SpectralDecomposition, "hamiltonian")
    for experiment in ("regime", "evolve"):
        cfg = _write(tmp_path, _tree_payload(4, 1.3, experiment))
        run_experiment(cfg, str(tmp_path / experiment), dump_states=True)
    assert not propagate and not survival and not rebuild_h


def test_regime_solves_stationary_points_once(tmp_path, monkeypatch):
    solve = _count_calls(monkeypatch, ns.stationary_points)
    run_experiment(_write(tmp_path, _tree_payload(4, 1.3, "regime")), str(tmp_path / "out"))
    assert len(solve) == 1
