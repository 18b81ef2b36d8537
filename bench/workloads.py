"""The benchmark's studies: seeded job inputs as CLI argument vectors.

A job is a short list of ``nullsteer`` CLI invocations run back to back in
one process.  Its inputs depend only on (seed, job index), so rerunning an
index reproduces them exactly.  Why each study exists:

- ``tree-d8``: dim^3 dense algebra (eigh, the dense propagator, dense
  solves per disk root, evolution matvecs) is almost the whole job; the
  root solve (17 charges) is negligible.
- ``tau-sweep``: per-tau repeated work (decompositions, spectra, root
  solves) handed to the default thread pool, on a small tree.
- ``figures``: small models where per-call Python overhead dominates; the
  control on which large-matrix rewrites must show no change.
- ``wide-charges``: the root solver alone (polynomial expansion, np.roots,
  Newton) on random models with 50 and 200 charges; survival and
  evolution are never called.

BENCHMARK.json lists only ``tree-d8`` and ``tau-sweep``.  ``wide-charges``
fails its check on every run of the code as first imported (roots outside
the unit disk), and ``figures``, whose jobs are bound by interpreter speed,
moved by up to 27% between sets of ten runs on a shared host, more than any
regression bound can allow.  Both still run with ``--workload <name>`` and
``--workload all``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("tree-d8", "tau-sweep", "figures", "wide-charges")
FIGURE_IDS = ("fig3", "fig4", "fig5", "fig8", "fig9", "fig11")

ROOT_DETECTOR = {"site": "(1,1)"}
# Uniform on column 2: no weight on dark states, so regime and evolution
# run through the disk roots (fixed point or oscillation).
SYMMETRIC_START = {"combination": [{"weight": 1.0, "site": "(2,1)"},
                                   {"weight": 1.0, "site": "(2,2)"}]}


def _tree_d8(rng):
    base = {
        "model": {"type": "glued_tree", "depth": 8},
        "detection": ROOT_DETECTOR,
        "initial_state": SYMMETRIC_START,
        "tau": float(rng.uniform(0.6, 2.4)),
    }
    return [dict(base, experiment="regime"),
            dict(base, experiment="evolve", n_steps=400)]


def _tau_sweep(rng):
    start = float(rng.uniform(0.2, 0.6))
    stop = start + float(rng.uniform(2.0, 3.0))
    return [{
        "model": {"type": "glued_tree", "depth": 5},
        "detection": ROOT_DETECTOR,
        "initial_state": SYMMETRIC_START,
        "tau": {"start": start, "stop": stop, "steps": 60},
        "experiment": "sweep-tau",
    }]


def _wide_charges(rng):
    configs = []
    for levels in ("goe", "poisson"):
        for w in (50, 200):
            if levels == "goe":
                a = rng.normal(size=(w, w))
                h = (a + a.T) / math.sqrt(2.0 * w)
            else:
                q, _ = np.linalg.qr(rng.normal(size=(w, w)))
                h = (q * rng.uniform(-2.0, 2.0, size=w)) @ q.T
                h = 0.5 * (h + h.T)
            psi = rng.normal(size=w) + 1j * rng.normal(size=w)
            energies = np.linalg.eigvalsh(h)
            # Phases cover most of the circle without wrapping around it.
            tau = float(rng.uniform(0.85, 0.95)) * 2.0 * math.pi / float(np.ptp(energies))
            configs.append({
                "model": {"type": "custom", "matrix_re": h.tolist()},
                "detection": {"vector": {"re": psi.real.tolist(), "im": psi.imag.tolist()}},
                "tau": tau,
                "experiment": "charges",
            })
    return configs


_CONFIGS = {"tree-d8": _tree_d8, "tau-sweep": _tau_sweep, "wide-charges": _wide_charges}


def make_job(workload, seed, index, job_dir):
    """Write job ``index``'s inputs under ``job_dir``; return its CLI argv lists."""
    os.makedirs(job_dir)
    if workload == "figures":
        # Fixed inputs: the figures ignore the seed.
        return [["reproduce", fig, "--out", os.path.join(job_dir, fig)] for fig in FIGURE_IDS]
    rng = np.random.default_rng([seed, index])
    runs = []
    for k, config in enumerate(_CONFIGS[workload](rng)):
        path = os.path.join(job_dir, f"config_{k}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        runs.append(["run", "--config", path, "--out", os.path.join(job_dir, f"out_{k}")])
    return runs
