"""Hash every output of a fixed battery of `nullsteer` runs.

    python3 tools/output_digest.py [src_dir]

Runs the battery below in-process through ``nullsteer.cli.main``, importing
``nullsteer`` from ``src_dir`` (this checkout's ``src`` by default), and
prints one line per output file, ``<sha256>  <run>/<file>``, in battery
order.  A run that exits non-zero prints ``exit <code>  <run>`` instead.
Run manifests hold wall times and versions, so they are left out.  Two
checkouts whose digests match write byte-identical outputs on the battery:

    python3 tools/output_digest.py > head.txt
    python3 tools/output_digest.py ../base/src > base.txt
    diff base.txt head.txt

The battery: every experiment on every built-in model, tau sweeps and
regime sweeps of the glued trees of depth 3, 4, 5 and 8, the spectrum of
the depth-5 tree, a depth-3 evolution from a dark combination inside a
bright level (``energy_state`` [5, 1]), two custom models whose levels
alias in phase (dark levels in one, three bright levels in the other),
every perturbation scheme, and the bundled figures.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

MANIFEST = "run_manifest.json"

#: Built-in models as (model spec, detection, initial state, tau).
MODELS = {
    "two_level": ({"type": "two_level", "gamma": 1.0}, {"site": "l"}, {"site": "r"}, 1.1),
    "chain": ({"type": "three_level_chain", "gamma": 1.0}, {"site": "0"}, {"site": "2"}, 2.0),
    "v_atom": ({"type": "v_atom", "E_G": 0.0, "E_D": 3.0, "E_B": 5.0, "gamma1": 0.01,
                "gamma2": 1.0}, {"site": "B"}, {"site": "G"}, 0.5),
    "tree3": ({"type": "glued_tree", "depth": 3}, {"site": "(1,1)"},
              {"energy_state": [0, 0]}, 1.1),
    "exceptional": ({"type": "exceptional_three_level", "gamma": 1.0}, {"site": "0"},
                    {"site": "1"}, 2.0 * math.pi / 3.0),
}

SWEEP = {"start": 0.1, "stop": 3.0, "steps": 40}
TREE_SWEEP = {"start": 0.3, "stop": 2.9, "steps": 60}
TREE_START = {"combination": [{"weight": 1.0, "site": "(2,1)"},
                              {"weight": 1.0, "site": "(2,2)"}]}

#: Perturbation runs as (model key, tau, perturb options).
PERTURB = [
    ("v_atom", 0.5, {"scheme": "weak_charge", "weak_index": 1}),
    ("v_atom", 0.5, {"scheme": "two_merge", "index_a": 1, "index_b": 2}),
    ("chain", 2.0, {"scheme": "two_merge", "index_a": 0, "index_b": 2}),
    ("tree3", 2.3, {"scheme": "triple_charge", "center_index": 5, "pair_indices": [0, 10]}),
    ("chain", 0.2, {"scheme": "zeno"}),
]


def _vector(v):
    v = np.asarray(v, dtype=complex)
    return {"vector": {"re": v.real.tolist(), "im": v.imag.tolist()}}


def _custom(diagonal):
    return {"type": "custom", "matrix_re": np.diag(diagonal).tolist()}


def battery():
    """(run name, config payload, extra CLI arguments) for every `run`."""
    for name, (model, detection, start, tau) in MODELS.items():
        base = {"model": model, "detection": detection}
        yield f"{name}-spectrum", dict(base, tau=tau, experiment="spectrum"), []
        yield f"{name}-charges", dict(base, tau=tau, experiment="charges"), []
        yield f"{name}-evolve", dict(base, tau=tau, initial_state=start, n_steps=60,
                                     experiment="evolve"), ["--dump-states"]
        yield f"{name}-sweep", dict(base, tau=SWEEP, initial_state=start,
                                    experiment="sweep-tau"), []
        yield f"{name}-regime", dict(base, tau=tau, initial_state=start,
                                     experiment="regime"), []
        yield f"{name}-regime-sweep", dict(base, tau=SWEEP, initial_state=start,
                                           experiment="regime"), []
        yield f"{name}-zeno", dict(base, tau=0.2, experiment="perturb",
                                   perturb={"scheme": "zeno", "compare_exact": True}), []
    for depth in (3, 4, 5, 8):
        base = {"model": {"type": "glued_tree", "depth": depth},
                "detection": {"site": "(1,1)"}, "initial_state": TREE_START}
        yield f"tree{depth}-sweep", dict(base, tau=TREE_SWEEP, experiment="sweep-tau"), []
        yield f"tree{depth}-regime-sweep", dict(base, tau=TREE_SWEEP, experiment="regime"), []
        yield f"tree{depth}-regime", dict(base, tau=1.1, experiment="regime"), []
        if depth == 5:
            yield "tree5-spectrum", dict(base, tau=1.1, experiment="spectrum"), []
    # Level 5 of the depth-3 tree is bright with degeneracy 8: member 1 is
    # its first dark combination.
    model, detection, _, tau = MODELS["tree3"]
    yield "tree3-evolve-dark-member", {
        "model": model, "detection": detection, "initial_state": {"energy_state": [5, 1]},
        "tau": tau, "n_steps": 60, "experiment": "evolve"}, ["--dump-states"]
    # Two dark levels at one phase: 0 and 2 pi at tau 1.
    dark = {"model": _custom([0.0, 2.0 * math.pi, 1.0]), "detection": {"site": "2"},
            "initial_state": _vector([1.0, 1.0, 0.3]), "tau": 1.0}
    yield "dark-alias-regime", dict(dark, experiment="regime"), []
    yield "dark-alias-spectrum", dict(dark, experiment="spectrum"), []
    # Three bright levels at one phase: 0, 2 pi and 4 pi at tau 1.
    rng = np.random.default_rng(0)
    bright = {"model": _custom([0.0, 2.0 * math.pi, 4.0 * math.pi, 1.0]),
              "detection": _vector(np.full(4, 0.5)),
              "initial_state": _vector(rng.normal(size=4) + 1j * rng.normal(size=4)),
              "tau": 1.0}
    yield "bright-alias-regime", dict(bright, experiment="regime"), []
    yield "bright-alias-spectrum", dict(bright, experiment="spectrum"), []
    for key, tau, options in PERTURB:
        model, detection, _, _ = MODELS[key]
        yield (f"{key}-{options['scheme']}",
               {"model": model, "detection": detection, "tau": tau, "experiment": "perturb",
                "perturb": dict(options, compare_exact=True)}, [])


def _digest(name, code, out_dir):
    if code:
        return [f"exit {code}  {name}"]
    lines = []
    for file in sorted(os.listdir(out_dir)):
        if file != MANIFEST:
            with open(os.path.join(out_dir, file), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}/{file}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.abspath(argv[0] if argv else os.path.join(here, os.pardir, "src")))
    from nullsteer.cli import main as nullsteer_main
    from nullsteer.figures import FIGURES

    runs = [(name, ["run", "--config", None] + extra, payload)
            for name, payload, extra in battery()]
    runs += [(f"reproduce-{fig}", ["reproduce", fig], None) for fig in sorted(FIGURES)]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, payload in runs:
            out_dir = os.path.join(tmp, name)
            if payload is not None:
                args[2] = os.path.join(tmp, f"{name}.json")
                with open(args[2], "w") as fh:
                    json.dump(payload, fh)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = nullsteer_main(args + ["--out", out_dir])
            lines += _digest(name, code, out_dir)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
