"""JSON experiment configs: parsing, validation, and state resolution.

Config shape::

    {
      "model": {"type": "three_level_chain", "gamma": 1.0},
      "detection": {"site": "0"},
      "initial_state": {"site": "2"},
      "tau": 2.0,                      # or {"start":..,"stop":..,"steps":..}
      "n_steps": 300,
      "experiment": "evolve",
      "tolerances": {"tie_tol": 1e-6},
      "perturb": {"scheme": "two_merge", "index_a": 0, "index_b": 2}
    }

State specs: {"site": label}, {"vector": {"re": [...], "im": [...]}},
{"energy_state": [k, l]}, or {"combination": [{"weight": w, <state-spec>}]}.
``energy_state`` uses the detector-aligned member convention: within an
active level, member 0 is the bright projection of the detection state and
members 1.. are the dark combinations in their canonical order; dark levels
(as the run's zero_threshold decides) and detection-free resolution expose
the stored eigenvectors directly.

Validation failures raise ConfigError carrying the best-effort source line.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from .errors import ConfigError, InvalidParameterError, NullsteerError
from . import models
from .charges import _as_split

EXPERIMENTS = ("spectrum", "charges", "evolve", "sweep-tau", "regime", "perturb")
MODEL_TYPES = (
    "two_level",
    "three_level_chain",
    "v_atom",
    "glued_tree",
    "exceptional_three_level",
    "custom",
)
PERTURB_SCHEMES = ("weak_charge", "two_merge", "triple_charge", "zeno")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A parsed, structurally valid experiment description."""

    model: dict
    detection: dict
    tau_values: tuple
    experiment: str
    initial_state: dict = None
    n_steps: int = 100
    tolerances: dict = dataclasses.field(default_factory=dict)
    perturb: dict = None
    tau_is_sweep: bool = False
    source_path: str = None
    raw: dict = None


class _Locator:
    """Best-effort mapping from config keys back to source lines."""

    def __init__(self, text):
        self.lines = text.splitlines()

    def line_of(self, key):
        needle = f'"{key}"'
        for i, line in enumerate(self.lines, start=1):
            if needle in line:
                return i
        return None


def _fail(locator, key, message):
    raise ConfigError(message, line=locator.line_of(key) if locator else None)


def _is_number(value, kind=(int, float)):
    """A JSON number a float can hold (an integer for kind=int); booleans,
    Python ints, are not, nor are NaN and the infinities."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _numbers(value, key):
    """A list (of lists) of finite JSON numbers as a float array."""
    if not isinstance(value, list) or not all(
            map(_is_number, np.asarray(value, dtype=object).ravel())):
        raise ConfigError(f"{key} must be a list of finite numbers")
    return np.asarray(value, dtype=float)


def check_tolerance(key, value, locator=None):
    """The rule for every configured tolerance: a positive finite number."""
    if not _is_number(value) or value <= 0:
        _fail(locator, key, f"tolerance {key} must be a positive finite number")


def _require_keys(obj, required, optional, where, locator):
    for key in required:
        if key not in obj:
            _fail(locator, where, f"{where}: missing required key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(locator, key, f"{where}: unknown key {key!r}")


def _check_model(spec, locator):
    if not isinstance(spec, dict) or "type" not in spec:
        _fail(locator, "model", "model must be an object with a 'type' key")
    mtype = spec["type"]
    if mtype not in MODEL_TYPES:
        _fail(
            locator, "type",
            f"unknown model type {mtype!r}; expected one of {MODEL_TYPES}",
        )
    required = {
        "two_level": ("gamma",),
        "three_level_chain": ("gamma",),
        "v_atom": ("E_G", "E_D", "E_B", "gamma1", "gamma2"),
        "glued_tree": ("depth",),
        "exceptional_three_level": ("gamma",),
        "custom": ("matrix_re",),
    }[mtype]
    optional = {"custom": ("matrix_im", "labels")}.get(mtype, ())
    _require_keys(spec, ("type",) + required, optional, "model", locator)
    for key in required:
        if key == "depth" and not _is_number(spec[key], int):
            _fail(locator, key, "model parameter 'depth' must be an integer")
        if mtype != "custom" and not _is_number(spec[key]):
            _fail(locator, key, f"model parameter {key!r} must be a number")
    if not isinstance(spec.get("labels", []), list):
        _fail(locator, "labels", "model labels must be a list")


def _check_state_spec(spec, name, locator, allow_combination=True):
    if not isinstance(spec, dict):
        _fail(locator, name, f"{name} must be an object")
    forms = [k for k in ("site", "vector", "energy_state", "combination") if k in spec]
    if len(forms) != 1:
        _fail(
            locator, name,
            f"{name} must contain exactly one of site/vector/energy_state"
            + ("/combination" if allow_combination else ""),
        )
    form = forms[0]
    if form == "combination":
        if not allow_combination:
            _fail(locator, name, f"{name} does not accept a combination")
        terms = spec["combination"]
        if not isinstance(terms, list) or not terms:
            _fail(locator, "combination", "combination must be a non-empty list")
        for term in terms:
            if not isinstance(term, dict):
                _fail(locator, "combination", "combination terms must be objects")
            inner = {k: v for k, v in term.items() if k != "weight"}
            _check_state_spec(inner, "combination term", locator,
                              allow_combination=False)
    elif form == "energy_state":
        ks = spec["energy_state"]
        if _is_number(ks, int):
            return
        if (not isinstance(ks, list) or len(ks) != 2
                or not all(_is_number(x, int) for x in ks)):
            _fail(locator, "energy_state",
                  "energy_state must be a level index or a [level, member] pair")


def parse_config(text, source_path=None):
    locator = _Locator(text)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", line=1)

    _require_keys(
        raw,
        ("model", "detection", "tau", "experiment"),
        ("initial_state", "n_steps", "tolerances", "perturb"),
        "config",
        locator,
    )
    _check_model(raw["model"], locator)
    _check_state_spec(raw["detection"], "detection", locator)
    if "initial_state" in raw:
        _check_state_spec(raw["initial_state"], "initial_state", locator)

    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        _fail(locator, "experiment",
              f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")

    tau = raw["tau"]
    if _is_number(tau):
        if tau <= 0:
            _fail(locator, "tau", "tau must be positive")
        tau_values, sweep = (float(tau),), False
    elif isinstance(tau, dict):
        _require_keys(tau, ("start", "stop", "steps"), (), "tau", locator)
        start, stop, steps = tau["start"], tau["stop"], tau["steps"]
        if not _is_number(steps, int) or steps < 2:
            _fail(locator, "steps", "tau sweep needs an integer steps >= 2")
        if not (_is_number(start) and _is_number(stop) and 0 < start < stop):
            _fail(locator, "tau", "tau sweep needs 0 < start < stop")
        tau_values = tuple(float(t) for t in np.linspace(start, stop, steps))
        sweep = True
    else:
        _fail(locator, "tau", "tau must be a number or a {start, stop, steps} sweep")
    if sweep and experiment not in ("sweep-tau", "regime"):
        _fail(locator, "tau",
              f"experiment {experiment!r} needs a scalar tau, not a sweep")
    if experiment == "sweep-tau" and not sweep:
        _fail(locator, "tau", "sweep-tau needs a {start, stop, steps} tau")

    n_steps = raw.get("n_steps", 100)
    if not _is_number(n_steps, int) or n_steps < 1:
        _fail(locator, "n_steps", "n_steps must be a positive integer")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail(locator, "tolerances", "tolerances must be an object")
    _require_keys(
        tolerances, (),
        ("grouping_tol", "tie_tol", "zero_threshold", "dark_overlap_tol"),
        "tolerances", locator,
    )
    for key, value in tolerances.items():
        check_tolerance(key, value, locator)

    perturb = raw.get("perturb")
    if experiment == "perturb":
        if not isinstance(perturb, dict):
            _fail(locator, "experiment",
                  "experiment 'perturb' requires a perturb options object")
        scheme = perturb.get("scheme")
        if scheme not in PERTURB_SCHEMES:
            _fail(locator, "scheme",
                  f"perturb scheme must be one of {PERTURB_SCHEMES}")
        needed = {
            "weak_charge": ("weak_index",),
            "two_merge": ("index_a", "index_b"),
            "triple_charge": ("center_index", "pair_indices"),
            "zeno": (),
        }[scheme]
        _require_keys(perturb, ("scheme",) + needed,
                      ("compare_exact", "delta"), "perturb", locator)
        levels = []
        for key in needed:
            indices = perturb[key] if key == "pair_indices" else [perturb[key]]
            if not isinstance(indices, list) or not all(
                    _is_number(i, int) for i in indices):
                _fail(locator, key, f"perturb {key} must be integer level indices")
            if key == "pair_indices" and len(indices) != 2:
                _fail(locator, key, "perturb pair_indices must be two level indices")
            levels += indices
            if len(set(levels)) < len(levels):
                _fail(locator, key, f"perturb {key} repeats a level: "
                      f"scheme {scheme!r} needs distinct levels")
        if perturb.get("delta") is not None and not _is_number(perturb["delta"]):
            _fail(locator, "delta", "perturb delta must be a number")
        if not isinstance(perturb.get("compare_exact", False), bool):
            _fail(locator, "compare_exact", "perturb compare_exact must be true or false")

    if experiment in ("evolve", "regime") and "initial_state" not in raw:
        _fail(locator, "experiment",
              f"experiment {experiment!r} requires an initial_state")

    return ExperimentConfig(
        model=raw["model"],
        detection=raw["detection"],
        tau_values=tau_values,
        experiment=experiment,
        initial_state=raw.get("initial_state"),
        n_steps=n_steps,
        tolerances=dict(tolerances),
        perturb=dict(perturb) if isinstance(perturb, dict) else None,
        tau_is_sweep=sweep,
        source_path=source_path,
        raw=raw,
    )


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source_path=str(path))


def build_model(config):
    spec = config.model
    mtype = spec["type"]
    try:
        if mtype == "two_level":
            return models.build_two_level(spec["gamma"])
        if mtype == "three_level_chain":
            return models.build_three_level_chain(spec["gamma"])
        if mtype == "v_atom":
            return models.build_v_atom(
                spec["E_G"], spec["E_D"], spec["E_B"], spec["gamma1"], spec["gamma2"]
            )
        if mtype == "glued_tree":
            return models.build_glued_tree(spec["depth"])
        if mtype == "exceptional_three_level":
            return models.build_exceptional_three_level(spec["gamma"])
        matrix = _numbers(spec["matrix_re"], "matrix_re").astype(complex)
        if "matrix_im" in spec:
            matrix = matrix + 1j * _numbers(spec["matrix_im"], "matrix_im")
        return models.build_custom(matrix, labels=spec.get("labels"))
    except (InvalidParameterError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _vector_from_spec(spec, dim):
    if not isinstance(spec, dict):
        raise ConfigError("state vector must be an object {re, im}")
    re = _numbers(spec.get("re", []), "state vector re")
    im = spec.get("im")
    im = np.zeros_like(re) if im is None else _numbers(im, "state vector im")
    if re.shape != (dim,) or im.shape != (dim,):
        raise ConfigError(f"state vector must have {dim} re (and im) components")
    return re + 1j * im


def aligned_member(decomp, psi_d, level_index, member_index):
    """Resolve [k, l] with member 0 = bright projection, 1.. = dark combos.

    ``psi_d`` may be a DetectorSplit; its threshold then decides whether
    level k is bright.
    """
    if not 0 <= level_index < decomp.w:
        raise ConfigError(
            f"energy_state level {level_index} out of range 0..{decomp.w - 1}"
        )
    if psi_d is not None:
        split = _as_split(decomp, psi_d)
        if level_index in split.bright_levels:
            darks = split.dark_vectors[:, split.dark_levels == level_index]
            if not 0 <= member_index <= darks.shape[1]:
                raise ConfigError(
                    f"energy_state member {member_index} out of range for level "
                    f"{level_index} (bright + {darks.shape[1]} dark members)"
                )
            if member_index:
                return darks[:, member_index - 1].copy()
            return split.bright(level_index)
    members = decomp.members(level_index)
    if not 0 <= member_index < members.shape[1]:
        raise ConfigError(
            f"energy_state member {member_index} out of range for level "
            f"{level_index} (degeneracy {members.shape[1]})"
        )
    return members[:, member_index].copy()


def resolve_state(spec, model, decomp, psi_d=None):
    """Turn a state spec into a unit vector in the model basis."""
    if "site" in spec:
        try:
            return models.site_state(model, spec["site"]).astype(complex)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc
    if "vector" in spec:
        vec = _vector_from_spec(spec["vector"], model.dim)
        norm = np.linalg.norm(vec)
        if norm < 1e-300:
            raise ConfigError("state vector must be nonzero")
        return vec / norm
    if "energy_state" in spec:
        ks = spec["energy_state"]
        k, l = (ks, 0) if isinstance(ks, int) else ks
        return aligned_member(decomp, psi_d, k, l)
    total = np.zeros(model.dim, dtype=complex)
    for term in spec["combination"]:
        weight = term.get("weight", 1.0)
        if not isinstance(weight, dict):
            weight = {"re": weight}
        re, im = weight.get("re", 0.0), weight.get("im", 0.0)
        if not (_is_number(re) and _is_number(im)):
            raise ConfigError("combination weight must be a number or {re, im}")
        inner = {key: v for key, v in term.items() if key != "weight"}
        total += complex(re, im) * resolve_state(inner, model, decomp, psi_d)
    norm = np.linalg.norm(total)
    if norm < 1e-12:
        raise ConfigError("combination sums to the zero vector")
    return total / norm


def resolve_detection(config, model, decomp):
    vec = resolve_state(config.detection, model, decomp)
    try:
        return models.DetectionState(vec, description=json.dumps(config.detection))
    except NullsteerError as exc:
        raise ConfigError(f"invalid detection state: {exc}") from exc
