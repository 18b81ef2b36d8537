"""The block Krylov route of `regime` against the eigh route.

A `regime` run whose detector and start name no `energy_state` works on
Q^dag H Q, with Q a basis of span{H^j psi_d, H^j psi_in}.  Raising
`models.KRYLOV_MAX_SHARE` to 1 sends every such run down that route, and
setting it to 0 sends it down the eigh route, so one config runs both ways.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import nullsteer as ns
from nullsteer.cli import main

from helpers import aliased_model, random_model, random_unitary

SYMMETRIC_START = {"combination": [{"weight": 1.0, "site": "(2,1)"},
                                   {"weight": 1.0, "site": "(2,2)"}]}


def _vector(v):
    v = np.asarray(v, dtype=complex)
    return {"vector": {"re": v.real.tolist(), "im": v.imag.tolist()}}


def _custom(h):
    spec = {"type": "custom", "matrix_re": np.real(h).tolist()}
    if np.iscomplexobj(h):
        spec["matrix_im"] = np.imag(h).tolist()
    return spec


def _regime_payload(model, detection, start, tau, **tolerances):
    payload = {"model": model, "detection": detection, "initial_state": start,
               "tau": tau, "experiment": "regime"}
    if tolerances:
        payload["tolerances"] = tolerances
    return payload


def _run(payload, share):
    """(exit code, regime.json or None, manifest or None) of one `run`."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ns.models, "KRYLOV_MAX_SHARE", share)
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(payload, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", config, "--out", out])
        if code:
            return code, None, None
        with open(os.path.join(out, "regime.json")) as fh:
            regime = json.load(fh)
        with open(os.path.join(out, "run_manifest.json")) as fh:
            return code, regime, json.load(fh)


def _dominant(regime):
    return np.array([complex(d["re_xi"], d["im_xi"]) for d in regime["dominant"]])


def assert_routes_agree(payload):
    """Same exit code, kind and crossover step both ways, with the dominant
    roots and the predicted energies within 1e-10.

    A crossover step n = ceil(ln 0.01 / ln(|xi_2| / |xi_1|)) moves by about
    n^2 * 1e-16 under a last-bit change of the moduli, so above 3e7 steps
    (a root within 1e-7 of the circle) it may differ by that much."""
    code, krylov, manifest = _run(payload, 1.0)
    eigh_code, eigh, eigh_manifest = _run(payload, 0.0)
    assert code == eigh_code
    if code:
        return code
    assert manifest["route"] == "krylov" and eigh_manifest["route"] == "eigh"
    assert krylov["kind"] == eigh["kind"]
    n, n_eigh = krylov["crossover_step"], eigh["crossover_step"]
    assert abs(n - n_eigh) <= n * n * 1e-15
    assert _dominant(krylov).shape == _dominant(eigh).shape
    assert np.abs(_dominant(krylov) - _dominant(eigh)).max(initial=0.0) <= 1e-10
    energies = [[r["predicted_energy"]] + (r["oscillation"] or {}).get("energies", [])
                for r in (krylov, eigh)]
    assert [e is None for e in energies[0]] == [e is None for e in energies[1]]
    assert all(e is None or abs(e - f) <= 1e-10 for e, f in zip(*energies))
    return code


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_krylov_route_matches_eigh_on_random_models(seed):
    model, psi_d, tau = random_model(seed)
    rng = np.random.default_rng(seed)
    start = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    assert_routes_agree(_regime_payload(_custom(model.hamiltonian), _vector(psi_d),
                                        _vector(start), tau))


@pytest.mark.parametrize("aliased", ["dark", "bright", "both"])
@pytest.mark.parametrize("rotate", [False, True])
@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_krylov_route_matches_eigh_on_aliased_models(aliased, rotate, seed):
    model, psi_d, start, tau = aliased_model(seed, aliased, rotate)
    assert_routes_agree(_regime_payload(_custom(model.hamiltonian), _vector(psi_d),
                                        _vector(start), tau))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(-13.0, -4.0), st.floats(-13.0, -5.0),
       st.booleans())
# A bright charge of 1e-11 close to another level: its Krylov residual is
# small, and a breakdown tolerance of 1e-8 would drop the level.
@example(7, -11.0, -12.0, True)
@example(10, -11.0, -12.0, True)
def test_krylov_route_matches_eigh_at_weak_charges(seed, log_p, log_threshold, near):
    """One level with charge 10^log_p, on either side of a zero_threshold of
    10^log_threshold, in a model that K reduces; with ``near`` it sits within
    1e-7..1e-3 of another bright level.  A charge equal to the threshold up
    to rounding is bright or dark by its last bit, on either route."""
    assume(abs(log_p - log_threshold) > 1e-12)
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(8, 24))
    energies = np.sort(rng.uniform(-3.0, 3.0, size=dim))
    bright = rng.choice(dim, size=int(rng.integers(3, dim // 2)), replace=False)
    weak = bright[0]
    if near:
        energies[weak] = energies[bright[1]] + 10.0 ** rng.uniform(-7.0, -3.0)
    q = random_unitary(rng, dim)
    c = np.zeros(dim, dtype=complex)
    c[bright[1:]] = rng.normal(size=bright.size - 1) + 1j * rng.normal(size=bright.size - 1)
    c *= math.sqrt(1.0 - 10.0**log_p) / np.linalg.norm(c)
    c[weak] = 10.0 ** (0.5 * log_p)
    start = np.zeros(dim, dtype=complex)
    start[bright[1:4]] = rng.normal(size=bright[1:4].size)  # the weak level only through psi_d
    payload = _regime_payload(_custom((q * energies) @ q.conj().T), _vector(q @ c),
                              _vector(q @ start), float(rng.uniform(0.3, 3.0)),
                              zero_threshold=10.0**log_threshold)
    assert_routes_agree(payload)


def _weak_chain_detector(eps):
    """The three-level chain's E_0 + E_1 + eps E_2, normalized."""
    v = ns.spectral_decompose(ns.build_three_level_chain(1.0)).vectors
    d = v[:, 0] + v[:, 1] + eps * v[:, 2]
    return d / np.linalg.norm(d)


@pytest.mark.parametrize("eps, tolerances, code", [
    (1e-5, {}, 4),  # p_2 = 5e-11 is bright and its root within 1e-10 of its phase
    (1e-5, {"zero_threshold": 1e-10}, 0),
    (1e-7, {}, 0),
    (1e-9, {}, 0),
    (1e-7, {"zero_threshold": 1e-16}, 4),
])
def test_krylov_route_matches_eigh_on_the_weak_chain(eps, tolerances, code):
    chain = {"type": "three_level_chain", "gamma": 1.0}
    for start in ({"site": "2"}, {"site": "0"}):
        payload = _regime_payload(chain, _vector(_weak_chain_detector(eps)), start, 2.0,
                                  **tolerances)
        assert assert_routes_agree(payload) == code


@pytest.mark.parametrize("start", [{"site": "(3,1)"}, {"site": "(5,3)"}, SYMMETRIC_START])
@pytest.mark.parametrize("tau", [0.7, 1.1, 2.3])
def test_krylov_route_matches_eigh_on_the_d4_tree(start, tau):
    tree = {"type": "glued_tree", "depth": 4}
    payload = _regime_payload(tree, {"site": "(1,1)"}, start, tau)
    assert assert_routes_agree(payload) == 0
    if start != SYMMETRIC_START:
        assert _run(payload, 1.0)[1]["kind"] == "DarkDominated"


@pytest.mark.parametrize("site", ["0", "1", "2"])
def test_krylov_route_matches_eigh_at_the_exceptional_point(site):
    model = {"type": "exceptional_three_level", "gamma": 1.0}
    payload = _regime_payload(model, {"site": "0"}, {"site": site}, 2.0 * math.pi / 3.0)
    assert assert_routes_agree(payload) == 0
    assert _run(payload, 1.0)[1]["kind"] == "Exceptional"


@pytest.mark.parametrize("start, code", [("0", 3), ("1", 0)])
def test_krylov_route_matches_eigh_from_an_eigenvector_detector(start, code):
    # With the start on the detector's own level, K is that one level.
    model = _custom(np.diag(np.linspace(-1.0, 1.0, 30)))
    payload = _regime_payload(model, {"site": "0"}, {"site": start}, 1.0)
    assert assert_routes_agree(payload) == code


def test_d8_regime_needs_no_large_eigh(tmp_path, monkeypatch):
    eigh = np.linalg.eigh

    def small_only(a, *args, **kwargs):
        if a.shape[0] > 64:
            raise AssertionError(f"eigh of a dim {a.shape[0]} matrix")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_only)
    payload = _regime_payload({"type": "glued_tree", "depth": 8}, {"site": "(1,1)"},
                              SYMMETRIC_START, 1.1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert (manifest["route"], manifest["krylov_dim"]) == ("krylov", 17)
    assert manifest["tolerances"]["krylov_breakdown_tol"] == ns.models.KRYLOV_BREAKDOWN_TOL
    # An energy_state start needs the levels of H itself.
    config.write_text(json.dumps(dict(payload, initial_state={"energy_state": [0, 0]})))
    with pytest.raises(AssertionError, match="eigh of a dim 766 matrix"):
        main(["run", "--config", str(config), "--out", str(tmp_path / "out2")])
