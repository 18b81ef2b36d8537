import json
import math
import pathlib
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import nullsteer as ns
from nullsteer import ConfigError
from nullsteer.charges import COALESCENCE_TOL
from nullsteer.cli import _Runtime, main, run_experiment
from nullsteer.configio import parse_config, resolve_state
from nullsteer.csvio import read_csv
from nullsteer.figures import FIGURES

from helpers import with_root_outside_disk


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def _chain_payload(**extra):
    payload = {
        "model": {"type": "three_level_chain", "gamma": 1.0},
        "detection": {"site": "0"},
        "tau": 2.0,
        "experiment": "spectrum",
    }
    payload.update(extra)
    return payload


# ---------------------------------------------------------------- parsing


def test_parse_reports_json_syntax_line():
    with pytest.raises(ConfigError) as err:
        parse_config('{\n "model": {,}\n}')
    assert "invalid JSON" in str(err.value)
    assert err.value.line == 2


def test_parse_unknown_key_carries_line():
    text = (
        '{\n'
        ' "model": {"type": "three_level_chain", "gamma": 1.0},\n'
        ' "detection": {"site": "0"},\n'
        ' "tau": 2.0,\n'
        ' "experiment": "spectrum",\n'
        ' "frobnicate": 1\n'
        '}\n'
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "frobnicate" in str(err.value)
    assert err.value.line == 6


def test_parse_tau_validation():
    with pytest.raises(ConfigError, match="positive"):
        parse_config(json.dumps(_chain_payload(tau=-1.0)))
    with pytest.raises(ConfigError, match="scalar tau"):
        parse_config(json.dumps(_chain_payload(
            tau={"start": 0.5, "stop": 1.0, "steps": 3})))
    with pytest.raises(ConfigError, match="steps"):
        parse_config(json.dumps(_chain_payload(
            experiment="sweep-tau", tau={"start": 0.5, "stop": 1.0, "steps": 1})))
    with pytest.raises(ConfigError, match="start < stop"):
        parse_config(json.dumps(_chain_payload(
            experiment="sweep-tau", tau={"start": 2.0, "stop": 1.0, "steps": 3})))
    with pytest.raises(ConfigError, match="sweep-tau"):
        parse_config(json.dumps(_chain_payload(experiment="sweep-tau")))


def test_parse_requires_initial_state_for_evolve():
    with pytest.raises(ConfigError, match="initial_state"):
        parse_config(json.dumps(_chain_payload(experiment="evolve")))


def test_parse_perturb_options():
    with pytest.raises(ConfigError, match="perturb options"):
        parse_config(json.dumps(_chain_payload(experiment="perturb")))
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(json.dumps(_chain_payload(
            experiment="perturb", perturb={"scheme": "magic"})))
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config(json.dumps(_chain_payload(
            experiment="perturb", perturb={"scheme": "two_merge", "index_a": 0})))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(json.dumps(_chain_payload(
            experiment="perturb", perturb={"scheme": "zeno", "extra": 1})))


def test_parse_rejects_nested_combination():
    state = {"combination": [{"weight": 1.0,
                              "combination": [{"site": "0"}]}]}
    with pytest.raises(ConfigError, match="does not accept a combination"):
        parse_config(json.dumps(_chain_payload(
            experiment="evolve", initial_state=state)))


def test_parse_tolerances_validation():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(json.dumps(_chain_payload(tolerances={"wat": 1e-6})))
    with pytest.raises(ConfigError, match="positive"):
        parse_config(json.dumps(_chain_payload(tolerances={"tie_tol": 0})))


# ------------------------------------------------------- state resolution


def test_resolve_site_and_vector(chain):
    model, decomp, _ = chain
    e2 = resolve_state({"site": "2"}, model, decomp)
    assert np.allclose(e2, [0, 0, 1])
    v = resolve_state({"vector": {"re": [0.0, 0.0, 3.0]}}, model, decomp)
    assert np.allclose(v, e2)
    with pytest.raises(ConfigError, match="3 re"):
        resolve_state({"vector": {"re": [1.0, 0.0]}}, model, decomp)
    with pytest.raises(ConfigError, match="nonzero"):
        resolve_state({"vector": {"re": [0.0, 0.0, 0.0]}}, model, decomp)


def test_resolve_energy_state_plain(chain):
    model, decomp, psi_d = chain
    # without a detector the stored eigenvector comes back unchanged
    bare = resolve_state({"energy_state": [1, 0]}, model, decomp)
    assert np.allclose(bare, decomp.members(1)[:, 0])
    # with a detector, member 0 is the bright projection (same ray here)
    aligned = resolve_state({"energy_state": 1}, model, decomp, psi_d)
    assert abs(abs(np.vdot(aligned, bare)) - 1.0) < 1e-12
    with pytest.raises(ConfigError, match="out of range"):
        resolve_state({"energy_state": 5}, model, decomp, psi_d)
    with pytest.raises(ConfigError, match="out of range"):
        resolve_state({"energy_state": [1, 1]}, model, decomp, psi_d)


def test_resolve_energy_state_detector_aligned(tree):
    model, decomp, psi_d = tree
    config = ns.charges(decomp, psi_d, 1.1)
    bright = resolve_state({"energy_state": [2, 0]}, model, decomp, psi_d)
    assert abs(abs(np.vdot(psi_d, bright)) - math.sqrt(config.charges[2].p)) < 1e-12
    dark = resolve_state({"energy_state": [2, 1]}, model, decomp, psi_d)
    assert abs(np.vdot(psi_d, dark)) < 1e-12
    assert abs(np.vdot(bright, dark)) < 1e-10
    with pytest.raises(ConfigError, match="out of range"):
        resolve_state({"energy_state": [2, 3]}, model, decomp, psi_d)
    # zero-charge levels fall back to their stored eigenvectors
    inactive = resolve_state({"energy_state": [1, 0]}, model, decomp, psi_d)
    assert np.allclose(inactive, decomp.members(1)[:, 0])


def test_resolve_combination_complex_weights(chain):
    model, decomp, _ = chain
    spec = {"combination": [
        {"weight": {"re": 0.0, "im": 1.0}, "site": "0"},
        {"weight": 1.0, "site": "2"},
    ]}
    v = resolve_state(spec, model, decomp)
    assert np.allclose(v, [1j / math.sqrt(2), 0, 1 / math.sqrt(2)])
    cancel = {"combination": [
        {"weight": 1.0, "site": "0"},
        {"weight": -1.0, "site": "0"},
    ]}
    with pytest.raises(ConfigError, match="zero vector"):
        resolve_state(cancel, model, decomp)


# ------------------------------------------------------------ experiments


def test_run_spectrum_files_and_manifest(tmp_path):
    cfg = _write(tmp_path, _chain_payload())
    out = tmp_path / "out"
    files = run_experiment(cfg, str(out))
    assert [f.rsplit("/", 1)[1] for f in files] == ["spectrum.csv", "run_manifest.json"]

    header, rows = read_csv(out / "spectrum.csv")
    assert header == ("class", "re_xi", "im_xi", "abs_xi", "source_level",
                      "biorthogonal_overlap")
    kinds = sorted(r[0] for r in rows)
    assert kinds == ["disk", "disk", "zero"]
    assert all(r[4] == "-1" for r in rows)

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest) == {
        "command", "config_path", "config", "experiment", "tau_values",
        "n_steps", "dump_states", "tolerances", "versions", "wall_time_s",
        "outputs",
    }
    assert set(manifest["tolerances"]) == {
        "grouping_tol", "tie_tol", "zero_threshold", "dark_overlap_tol"
    }
    assert set(manifest["versions"]) == {"nullsteer", "numpy", "python"}
    assert manifest["outputs"] == ["spectrum.csv"]
    assert manifest["experiment"] == "spectrum"


def test_run_charges_files(tmp_path):
    cfg = _write(tmp_path, _chain_payload(experiment="charges"))
    out = tmp_path / "out"
    run_experiment(cfg, str(out))
    header, rows = read_csv(out / "charges.csv")
    assert header == ("E_k", "p_k", "re_phase", "im_phase")
    assert len(rows) == 3
    assert abs(sum(float(r[1]) for r in rows) - 1.0) < 1e-12

    header, rows = read_csv(out / "roots.csv")
    assert header == ("re_xi", "im_xi", "abs_xi", "arg_xi", "residual")
    key = lambda z: (z.real, z.imag)
    roots = sorted((complex(float(r[0]), float(r[1])) for r in rows), key=key)
    expected = sorted([-0.8124279316305825 + 0.5768902791612882j,
                       0.10131559196932195 - 0.3404117402611568j], key=key)
    assert max(abs(a - b) for a, b in zip(roots, expected)) < 1e-12
    assert all(float(r[4]) < 1e-10 for r in rows)


def test_run_evolve_trajectory_columns(tmp_path):
    payload = {
        "model": {"type": "v_atom", "E_G": 0.0, "E_D": 3.0, "E_B": 5.0,
                  "gamma1": 0.01, "gamma2": 1.0},
        "detection": {"site": "B"},
        "initial_state": {"site": "G"},
        "tau": 0.5,
        "n_steps": 5,
        "experiment": "evolve",
    }
    out = tmp_path / "plain"
    run_experiment(_write(tmp_path, payload), str(out))
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ("n", "mean_energy", "survival_amplitude",
                      "cumulative_no_detection_probability", "phase")
    assert len(rows) == 6
    assert float(rows[0][3]) == 1.0
    assert all(float(r[2]) <= 1.0 + 1e-12 for r in rows)

    out2 = tmp_path / "dumped"
    run_experiment(_write(tmp_path, payload, "c2.json"), str(out2),
                   dump_states=True)
    header2, rows2 = read_csv(out2 / "trajectory.csv")
    assert header2[5:] == ("re_D", "im_D", "re_G", "im_G", "re_B", "im_B")
    norm0 = sum(float(rows2[0][i]) ** 2 for i in range(5, 11))
    assert abs(norm0 - 1.0) < 1e-12


def test_run_regime_fixed_point_json(tmp_path):
    payload = {
        "model": {"type": "glued_tree", "depth": 3},
        "detection": {"site": "(1,1)"},
        "initial_state": {"energy_state": 0},
        "tau": 1.2,
        "experiment": "regime",
    }
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    payload = json.loads((out / "regime.json").read_text())
    assert payload["kind"] == "FixedPoint"
    assert abs(payload["predicted_energy"]) < 0.02
    assert payload["crossover_step"] == 23
    assert len(payload["dominant"]) == 1
    assert payload["oscillation"] is None


def test_run_regime_sweep_flips_kind(tmp_path):
    payload = {
        "model": {"type": "glued_tree", "depth": 3},
        "detection": {"site": "(1,1)"},
        "initial_state": {"energy_state": 0},
        "tau": {"start": 1.2, "stop": 1.25, "steps": 2},
        "experiment": "regime",
    }
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    header, rows = read_csv(out / "regime_sweep.csv")
    assert header == ("tau", "kind", "predicted_energy", "n_dominant",
                      "crossover_step")
    assert [r[1] for r in rows] == ["FixedPoint", "Oscillatory"]
    assert [r[3] for r in rows] == ["1", "2"]


def test_run_regime_tie_of_more_than_two_roots(tmp_path, capsys):
    # a loose tie tolerance makes every disk root dominant; the relative
    # phase is defined only for a pair, so it is written as null
    payload = {
        "model": {"type": "glued_tree", "depth": 3},
        "detection": {"site": "(1,1)"},
        "initial_state": {"combination": [{"weight": 1.0, "site": "(2,1)"},
                                          {"weight": 1.0, "site": "(2,2)"}]},
        "tau": 1.1,
        "experiment": "regime",
    }
    out = tmp_path / "out"
    argv = ["run", "--config", _write(tmp_path, payload), "--out", str(out),
            "--tie-tol", "1.0"]
    assert main(argv) == 0
    got = json.loads((out / "regime.json").read_text())
    assert got["kind"] == "Oscillatory"
    assert len(got["dominant"]) > 2
    assert len(got["oscillation"]["energies"]) == len(got["dominant"])
    assert got["oscillation"]["relative_phase"] is None


def test_run_sweep_tau_bound_goes_nan(tmp_path):
    payload = _chain_payload(
        experiment="sweep-tau",
        tau={"start": 0.5, "stop": 2.0, "steps": 4},
    )
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    header, rows = read_csv(out / "sweep.csv")
    assert header == ("tau", "re_xi_1", "im_xi_1", "abs_xi_1", "abs_xi_2",
                      "n_circle", "zeno_lower_bound", "regime")
    assert len(rows) == 4
    bounds = [float(r[6]) for r in rows]
    # dE*tau crosses pi between tau=1.0 and tau=1.5
    assert not math.isnan(bounds[0]) and not math.isnan(bounds[1])
    assert math.isnan(bounds[2]) and math.isnan(bounds[3])
    assert all(r[5] == "0" for r in rows)
    assert all(r[7] == "" for r in rows)
    assert all(float(r[3]) >= float(r[4]) for r in rows)


def test_run_sweep_tau_lead_of_tied_pair_has_nonnegative_imaginary_part(tmp_path):
    # The glued tree's charges come in conjugate pairs, so the two leading
    # roots tie in modulus; the lead must not be picked by rounding in |xi|.
    payload = {
        "model": {"type": "glued_tree", "depth": 5},
        "detection": {"site": "(1,1)"},
        "tau": {"start": 0.23425966685744976, "stop": 2.4710701734535494, "steps": 60},
        "experiment": "sweep-tau",
    }
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    _, rows = read_csv(out / "sweep.csv")
    tied = [r for r in rows if float(r[3]) - float(r[4]) <= COALESCENCE_TOL]
    assert len(tied) > 40
    assert all(float(r[2]) >= 0.0 for r in tied)


def test_run_perturb_compare_exact(tmp_path):
    payload = {
        "model": {"type": "v_atom", "E_G": 0.0, "E_D": 3.0, "E_B": 5.0,
                  "gamma1": 0.01, "gamma2": 1.0},
        "detection": {"site": "B"},
        "tau": 0.5,
        "experiment": "perturb",
        "perturb": {"scheme": "weak_charge", "weak_index": 1,
                    "compare_exact": True},
    }
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    header, rows = read_csv(out / "estimates.csv")
    assert header == ("scheme", "small_parameter", "re_xi_estimate",
                      "im_xi_estimate", "re_xi_exact", "im_xi_exact",
                      "abs_error")
    assert len(rows) == 1
    assert rows[0][0] == "WeakCharge"
    assert float(rows[0][6]) < 1e-9


def test_tie_tol_flag_overrides_config(tmp_path):
    # at tau=0.05 the chain's two disk moduli differ by ~3e-7: the default
    # tie tolerance groups them, a tighter one separates them
    payload = _chain_payload(
        experiment="regime", tau=0.05, initial_state={"site": "2"}
    )
    cfg = _write(tmp_path, payload)
    loose, tight = tmp_path / "loose", tmp_path / "tight"
    run_experiment(cfg, str(loose))
    run_experiment(cfg, str(tight), tie_tol=1e-9)
    n_loose = json.loads((loose / "regime.json").read_text())["crossover_step"]
    n_tight = json.loads((tight / "regime.json").read_text())["crossover_step"]
    assert n_loose == 1
    assert n_tight > 1e6


# ----------------------------------------------------------- determinism


def test_sweep_is_deterministic(tmp_path):
    payload = _chain_payload(
        experiment="sweep-tau",
        tau={"start": 0.5, "stop": 2.5, "steps": 6},
    )
    cfg = _write(tmp_path, payload)

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(cfg, str(out))
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------ exit codes


def test_main_success_prints_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, _chain_payload())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out / "spectrum.csv"), str(out / "run_manifest.json")]


def test_main_config_error_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, _chain_payload(frobnicate=1))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "frobnicate" in err and "line" in err


def test_main_bad_model_parameter_is_exit_2(tmp_path, capsys):
    payload = _chain_payload()
    payload["model"] = {"type": "glued_tree", "depth": 0}
    cfg = _write(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invalid model" in capsys.readouterr().err


_EVOLVE = {"experiment": "evolve", "initial_state": {"site": "2"}}


@pytest.mark.parametrize("key, payload", [
    ("gamma", _chain_payload(model={"type": "three_level_chain", "gamma": "1.0"})),
    ("gamma", _chain_payload(model={"type": "three_level_chain", "gamma": None})),
    ("gamma", _chain_payload(model={"type": "three_level_chain", "gamma": True})),
    ("gamma2", _chain_payload(
        model={"type": "v_atom", "E_G": 0.0, "E_D": 3.0, "E_B": 5.0,
               "gamma1": 0.01, "gamma2": [1.0]},
        detection={"site": "B"})),
    ("depth", _chain_payload(model={"type": "glued_tree", "depth": True},
                             detection={"site": "(1,1)"})),
    ("depth", _chain_payload(model={"type": "glued_tree", "depth": 2.5},
                             detection={"site": "(1,1)"})),
    ("n_steps", _chain_payload(n_steps=True, **_EVOLVE)),
    ("tie_tol", _chain_payload(tolerances={"tie_tol": True})),
    ("energy_state", _chain_payload(experiment="evolve",
                                    initial_state={"energy_state": True})),
    ("weight", _chain_payload(experiment="evolve", initial_state={
        "combination": [{"weight": "1", "site": "2"}, {"site": "1"}]})),
    ("state vector re", _chain_payload(detection={"vector": {"re": [True, 0, 0]}})),
    ("matrix_re", _chain_payload(
        model={"type": "custom", "matrix_re": [[0.0, True], [True, 1.0]]})),
    ("start", _chain_payload(experiment="sweep-tau",
                             tau={"start": True, "stop": 2.0, "steps": 3})),
    ("weak_index", _chain_payload(
        experiment="perturb", perturb={"scheme": "weak_charge", "weak_index": True})),
    ("delta", _chain_payload(experiment="perturb", perturb={
        "scheme": "triple_charge", "center_index": 1, "pair_indices": [0, 2],
        "delta": "0.1"})),
], ids=lambda v: v if isinstance(v, str) else "")
def test_main_non_number_input_is_exit_2(tmp_path, capsys, key, payload):
    """Strings, nulls and booleans where a number is read are config errors."""
    cfg = _write(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


_TREE3_REGIME = {
    "model": {"type": "glued_tree", "depth": 3},
    "detection": {"site": "(1,1)"},
    "initial_state": {"combination": [{"weight": 1.0, "site": "(2,1)"},
                                      {"weight": 1.0, "site": "(2,2)"}]},
    "tau": 1.3,
    "experiment": "regime",
}


@pytest.mark.parametrize("key, payload", [
    ("grouping_tol", dict(_TREE3_REGIME, tolerances={"grouping_tol": math.nan})),
    ("tie_tol", dict(_TREE3_REGIME, tolerances={"tie_tol": math.inf})),
    ("tau", dict(_TREE3_REGIME, tau=math.nan)),
    ("tau", dict(_TREE3_REGIME, tau=10 ** 400)),
    ("tau", dict(_TREE3_REGIME, tau={"start": 0.5, "stop": math.inf, "steps": 3})),
    ("matrix_re", _chain_payload(
        model={"type": "custom", "matrix_re": [[0.0, math.nan], [1.0, 0.0]]})),
    ("state vector re", _chain_payload(detection={"vector": {"re": [math.inf, 0, 0]}})),
    ("weight", _chain_payload(experiment="evolve", initial_state={
        "combination": [{"weight": math.nan, "site": "2"}, {"site": "1"}]})),
    ("delta", _chain_payload(experiment="perturb", perturb={
        "scheme": "triple_charge", "center_index": 1, "pair_indices": [0, 2],
        "delta": -math.inf})),
], ids=["grouping_tol_nan", "tie_tol_infinity", "tau_nan", "tau_beyond_float",
        "sweep_stop_infinity", "matrix_re_nan", "vector_infinity", "weight_nan",
        "delta_infinity"])
def test_main_non_finite_number_is_exit_2(tmp_path, capsys, key, payload):
    """NaN, the infinities (both read by Python's json) and integers beyond
    the float range are config errors, not silently wrong numbers."""
    cfg = _write(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--tie-tol", "-1"), ("--tie-tol", "nan"), ("--tie-tol", "0"),
    ("--grouping-tol", "-1"), ("--grouping-tol", "nan"), ("--grouping-tol", "inf"),
])
def test_main_bad_tolerance_flag_is_exit_2(tmp_path, capsys, flag, value):
    """The tolerance flags follow the config's rule: a positive finite number."""
    cfg = _write(tmp_path, _TREE3_REGIME)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), flag, value]) == 2
    key = flag[2:].replace("-", "_")
    assert f"tolerance {key} must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("key, perturb", [
    ("weak_index", {"scheme": "weak_charge", "weak_index": 7}),
    ("weak_index", {"scheme": "weak_charge", "weak_index": -1}),
    ("index_b", {"scheme": "two_merge", "index_a": 1, "index_b": 1}),
    ("pair_indices", {"scheme": "triple_charge", "center_index": 1, "pair_indices": [1, 2]}),
    ("pair_indices", {"scheme": "triple_charge", "center_index": 1, "pair_indices": [0, 0]}),
    ("pair_indices", {"scheme": "triple_charge", "center_index": 1, "pair_indices": [0, 2, 2]}),
], ids=["weak_index_past_the_levels", "weak_index_negative", "two_merge_same_level",
        "triple_center_in_pair", "triple_pair_repeats", "triple_pair_of_three"])
def test_main_bad_perturb_level_is_exit_2(tmp_path, capsys, key, perturb):
    """Perturb level indices must name distinct levels of the run's model."""
    cfg = _write(tmp_path, _chain_payload(experiment="perturb", perturb=perturb))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"perturb {key}" in capsys.readouterr().err


_CUSTOM = {"type": "custom", "matrix_re": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("key, payload", [
    ("compare_exact", _chain_payload(experiment="perturb", perturb={
        "scheme": "two_merge", "index_a": 0, "index_b": 1, "compare_exact": "no"})),
    ("labels", _chain_payload(model=dict(_CUSTOM, labels=["a", "a"]),
                              detection={"site": "a"})),
    ("labels", _chain_payload(model=dict(_CUSTOM, labels="ab"), detection={"site": "a"})),
], ids=["compare_exact_string", "labels_repeat", "labels_string"])
def test_main_malformed_option_is_exit_2(tmp_path, capsys, key, payload):
    """A truthy string is not a boolean, and labels are a list of distinct names."""
    cfg = _write(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_main_not_applicable_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, _chain_payload(
        experiment="perturb", perturb={"scheme": "zeno"}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "not applicable" in capsys.readouterr().err


def test_main_certain_detection_is_exit_3(tmp_path, capsys):
    model = ns.build_two_level(1.0)
    decomp = ns.spectral_decompose(model)
    doomed = ns.propagator(decomp, 0.9).conj().T @ ns.site_state(model, "l")
    payload = {
        "model": {"type": "two_level", "gamma": 1.0},
        "detection": {"site": "l"},
        "initial_state": {"vector": {
            "re": [float(x.real) for x in doomed],
            "im": [float(x.imag) for x in doomed],
        }},
        "tau": 0.9,
        "n_steps": 5,
        "experiment": "evolve",
    }
    cfg = _write(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "step 1" in capsys.readouterr().err


def test_main_numerical_failure_is_exit_4(tmp_path, capsys):
    # an absurd zero-charge threshold marks every level dark
    cfg = _write(tmp_path, _chain_payload(
        experiment="charges", tolerances={"zero_threshold": 2.0}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numerical failure" in capsys.readouterr().err


def _weak_chain_payload(eps, **extra):
    """The chain detected by normalized E_0 + E_1 + eps E_2."""
    return _chain_payload(detection={"combination": [
        {"energy_state": 0}, {"energy_state": 1}, {"weight": eps, "energy_state": 2}]},
        **extra)


@pytest.mark.parametrize("eps", [1e-7, 1e-9])
def test_run_spectrum_of_a_weakly_coupled_level(tmp_path, eps):
    cfg = _write(tmp_path, _weak_chain_payload(eps))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "spectrum.csv")
    assert [(r[0], r[4]) for r in rows] == [("zero", "-1"), ("disk", "-1"), ("circle", "2")]


def test_run_spectrum_of_a_weakly_coupled_level_at_1e_5_is_exit_4(tmp_path, capsys):
    cfg = _write(tmp_path, _weak_chain_payload(1e-5))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "within 1e-10 of a unit-circle phase" in err
    # The message names the level to darken and the threshold that does it.
    assert "level 2 with charge 5e-11" in err
    assert "zero_threshold at or above" in err


def test_run_regime_at_a_weak_level_phase_is_exit_4(tmp_path, capsys):
    # gamma1 = 2e-5 leaves level 1 a bright charge of 8.2e-12, and its root
    # lies within 1e-10 of its phase: the level-wise regime refuses it too.
    payload = {
        "model": {"type": "v_atom", "E_G": 0.0, "E_D": 3.0, "E_B": 5.0,
                  "gamma1": 2e-5, "gamma2": 1.0},
        "detection": {"site": "B"},
        "initial_state": {"site": "G"},
        "tau": 0.5,
        "experiment": "regime",
    }
    cfg = _write(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "within 1e-10 of a unit-circle phase" in err
    assert "level 1 with charge 8.16e-12" in err


def test_run_regime_of_a_fully_dark_detector_is_exit_4(tmp_path, capsys):
    cfg = _write(tmp_path, _chain_payload(
        experiment="regime", initial_state={"site": "2"},
        tolerances={"zero_threshold": 2.0}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "the detection state is fully dark" in capsys.readouterr().err


def test_energy_state_reads_the_configured_threshold(tmp_path, monkeypatch):
    """A level the configured zero_threshold darkens resolves to its stored
    eigenvector, the circle state the spectrum gives it, not to its bright
    projection; and a figure builds its one detector split only."""
    # p_2 is about 5e-7; the minus sign makes level 2's bright projection -E_2.
    payload = _weak_chain_payload(-1e-3, experiment="evolve",
                                  initial_state={"energy_state": [2, 0]})

    def runtime(**tolerances):
        return _Runtime(parse_config(json.dumps(dict(payload, tolerances=tolerances))))

    bright, dark = runtime(), runtime(zero_threshold=1e-6)
    stored = dark.decomp.members(2)[:, 0]
    np.testing.assert_allclose(bright.initial_state, -stored, atol=1e-12)
    np.testing.assert_allclose(dark.initial_state, stored, atol=1e-12)
    assert bright.spectrum(2.0).counts[2] == 0
    spectrum = dark.spectrum(2.0)
    (circle,) = np.flatnonzero(spectrum.kinds == "circle")
    assert spectrum.source_levels[circle] == 2
    assert abs(np.vdot(spectrum.rights[:, circle], dark.initial_state)) == pytest.approx(
        1.0, abs=1e-12)

    built = []
    init = ns.DetectorSplit.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ns.DetectorSplit, "__init__", counting)
    assert main(["reproduce", "fig9", "--out", str(tmp_path / "fig9")]) == 0
    assert len(built) == 1


def test_main_root_outside_the_disk_is_exit_4(tmp_path, capsys, monkeypatch):
    with_root_outside_disk(monkeypatch)
    cfg = _write(tmp_path, _chain_payload())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "not strictly inside the unit disk" in capsys.readouterr().err


def test_custom_model_roundtrip(tmp_path):
    payload = {
        "model": {
            "type": "custom",
            "matrix_re": [[0.0, 0.3], [0.3, 1.0]],
            "matrix_im": [[0.0, 0.0], [0.0, 0.0]],
            "labels": ["a", "b"],
        },
        "detection": {"site": "b"},
        "tau": 1.0,
        "experiment": "spectrum",
    }
    out = tmp_path / "out"
    run_experiment(_write(tmp_path, payload), str(out))
    _, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 2


# -------------------------------------------------------------- figures


def test_reproduce_fig5_shelving(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce", "fig5", "--out", str(out)]) == 0
    header, rows = read_csv(out / "fig5.csv")
    assert header == ("n", "mean_energy", "population_D")
    assert len(rows) == 201
    assert abs(float(rows[0][1])) < 1e-12
    assert abs(float(rows[-1][1]) - 3.0) < 0.02
    assert float(rows[-1][2]) > 0.98
    svg = (out / "fig5.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "reproduce"
    assert manifest["outputs"] == ["fig5.csv", "fig5.svg"]


REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference"
# From n = 247 this column is rounding-seeded dark weight grown to O(1)
# (ROADMAP item 1), so it is checked on its own, as a known failure.
FIG8_TAIL = ("fig8", "mean_energy_tau_1.25")


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    for figure_id in FIGURES:
        assert main(["reproduce", figure_id, "--out", str(out)]) == 0
        ET.parse(out / f"{figure_id}.svg")
    return out


def _reference_mismatches(out, figure_id, columns=None):
    """Cells off bench/reference by more than 1e-8 max(1, |ref|), as the oracle."""
    header, rows = read_csv(out / f"{figure_id}.csv")
    ref_header, ref_rows = read_csv(REFERENCE_DIR / f"{figure_id}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    bad = []
    for j, name in enumerate(header):
        if (figure_id, name) == FIG8_TAIL and columns is None:
            continue
        if columns is not None and name not in columns:
            continue
        for n, (row, ref) in enumerate(zip(rows, ref_rows)):
            got, want = float(row[j]), float(ref[j])
            if math.isnan(got) and math.isnan(want):
                continue
            if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
                bad.append((name, n, got, want))
    return bad


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_reproduce_matches_reference(reproduced, figure_id):
    assert _reference_mismatches(reproduced, figure_id) == []


@pytest.mark.xfail(strict=True, reason=(
    "fig8 tau=1.25 from n = 247 is rounding-seeded dark weight grown to O(1) "
    "(ROADMAP item 1); evolution does not yet keep a bright start bright"))
def test_reproduce_fig8_tail_matches_reference(reproduced):
    assert _reference_mismatches(reproduced, FIG8_TAIL[0], [FIG8_TAIL[1]]) == []


def test_reproduce_builds_no_dense_operator(tmp_path, monkeypatch):
    """Figures run in eigen-coordinates: no dense U(tau), no dense S."""
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        for name in ("propagator", "build_survival"):
            if module_name.startswith("nullsteer") and hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for figure_id in FIGURES:
        assert main(["reproduce", figure_id, "--out", str(tmp_path)]) == 0
    assert calls == []


def test_console_script_runs(tmp_path):
    exe = shutil.which("nullsteer")
    assert exe is not None, "console script not installed"
    cfg = _write(tmp_path, _chain_payload())
    out = tmp_path / "out"
    proc = subprocess.run(
        [exe, "run", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "spectrum.csv").exists()
    assert (out / "run_manifest.json").exists()
