"""Independent correctness oracle for the benchmark's CLI outputs.

Uses numpy only and never imports nullsteer.  Disk roots are the
eigenvalues of the w_eff x w_eff matrix (1 - b b^T) diag(z) with
b_k = sqrt(p_k) over the charged levels, the p_k taken from
``numpy.linalg.eigh`` of H and the single zero eigenvalue dropped; this is
the survival operator restricted to the bright states, so it shares no
code path with the program's polynomial root solver.  Each ``check_*``
function returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

#: Root and energy agreement, as in acceptance criterion 10.
ROOT_TOL = 1e-8
ENERGY_TOL = 1e-8
#: Level energies, charges and phases in charges.csv.
CHARGE_TOL = 1e-10
#: Figure CSV values against the seed commit's reference CSVs:
#: |value - reference| <= FIGURE_RTOL * max(1, |reference|).
FIGURE_RTOL = 1e-8
#: The charge picture's own definitions, documented by the program.
ZERO_CHARGE = 1e-12
TIE_TOL = 1e-6
DARK_OVERLAP_TOL = 1e-10
LEVEL_REL_TOL = 1e-8
CROSSOVER_RATIO = 0.01

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


# ---------------------------------------------------------------- models


def glued_tree(depth):
    """H = -adjacency of two depth-d binary trees glued leaf to leaf."""
    sizes = [2 ** min(j, 2 * depth - j) for j in range(2 * depth + 1)]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    h = np.zeros((offsets[-1], offsets[-1]))
    for j in range(2 * depth):
        for s in range(sizes[j]):
            for t in ((2 * s, 2 * s + 1) if j < depth else (s // 2,)):
                a, b = offsets[j] + s, offsets[j + 1] + t
                h[a, b] = h[b, a] = -1.0
    labels = [f"({j + 1},{s + 1})" for j in range(2 * depth + 1) for s in range(sizes[j])]
    return h, labels


def model_matrix(spec):
    if spec["type"] == "glued_tree":
        return glued_tree(spec["depth"])
    if spec["type"] != "custom":
        raise ValueError(f"oracle cannot build model type {spec['type']!r}")
    h = np.asarray(spec["matrix_re"], dtype=float).astype(complex)
    if "matrix_im" in spec:
        h = h + 1j * np.asarray(spec["matrix_im"], dtype=float)
    h = 0.5 * (h + h.conj().T)
    return h, spec.get("labels") or [str(i) for i in range(h.shape[0])]


def state_vector(spec, labels):
    """Unit vector of a site, vector or combination state spec."""
    if "site" in spec:
        v = np.zeros(len(labels), dtype=complex)
        v[labels.index(str(spec["site"]))] = 1.0
    elif "vector" in spec:
        re = np.asarray(spec["vector"]["re"], dtype=float)
        v = re + 1j * np.asarray(spec["vector"].get("im", np.zeros_like(re)), dtype=float)
    elif "combination" in spec:
        v = sum(complex(term.get("weight", 1.0))
                * state_vector({k: x for k, x in term.items() if k != "weight"}, labels)
                for term in spec["combination"])
    else:
        raise ValueError(f"oracle cannot resolve state spec {spec!r}")
    return v / np.linalg.norm(v)


class Eigen:
    """eigh of H, grouped into levels (one index array per level)."""

    def __init__(self, h):
        self.h = h
        self.energies, self.vectors = np.linalg.eigh(h)
        tol = LEVEL_REL_TOL * float(np.max(np.abs(self.energies)))
        cuts = np.flatnonzero(np.diff(self.energies) > tol) + 1
        self.levels = np.split(np.arange(self.energies.size), cuts)
        self.level_energies = np.array([self.energies[i].mean() for i in self.levels])


_EIGEN_CACHE = {}


def eigen_of(spec):
    """Cached Eigen and basis labels of a model spec."""
    key = json.dumps(spec, sort_keys=True)
    if key not in _EIGEN_CACHE:
        h, labels = model_matrix(spec)
        _EIGEN_CACHE.clear()
        _EIGEN_CACHE[key] = (Eigen(h), labels)
    return _EIGEN_CACHE[key]


# ------------------------------------------------------- charge picture


class ChargePicture:
    """Charges of a detector, and its dark weight for an initial state."""

    def __init__(self, eig, psi_d):
        self.eig = eig
        self.amps = eig.vectors.conj().T @ psi_d
        self.p = np.array([float(np.sum(np.abs(self.amps[i]) ** 2)) for i in eig.levels])
        self.charged = np.flatnonzero(self.p > ZERO_CHARGE)

    def dark_weight(self, psi):
        """Weight of psi on unit-circle states, and its mean energy there."""
        a = self.eig.vectors.conj().T @ psi
        weights = []
        for k, idx in enumerate(self.eig.levels):
            w = float(np.sum(np.abs(a[idx]) ** 2))
            if self.p[k] > ZERO_CHARGE:
                bright = self.amps[idx] / math.sqrt(self.p[k])
                w -= abs(np.vdot(bright, a[idx])) ** 2
            weights.append(max(w, 0.0))
        weights = np.array(weights)
        total = float(weights.sum())
        energy = float(weights @ self.eig.level_energies / total) if total > 0 else math.nan
        return total, energy

    def disk(self, tau):
        """Disk roots at tau (largest modulus first) and their mean energies."""
        return disk_roots(self.p[self.charged],
                          np.exp(-1j * self.eig.level_energies[self.charged] * tau),
                          self.eig.level_energies[self.charged])


def disk_roots(p, z, energies=None):
    """Eigenvalues of (1 - b b^T) diag(z), b = sqrt(p), the zero dropped.

    Returns the roots sorted by decreasing modulus and, when level
    energies are given, the mean energy of each root's right eigenvector.
    """
    b = np.sqrt(np.asarray(p, dtype=float))
    m = (np.eye(b.size) - np.outer(b, b)) * np.asarray(z)[None, :]
    values, vectors = np.linalg.eig(m)
    keep = np.ones(values.size, dtype=bool)
    keep[np.argmin(np.abs(values))] = False
    values, vectors = values[keep], vectors[:, keep]
    order = np.argsort(-np.abs(values), kind="stable")
    values, vectors = values[order], vectors[:, order]
    if energies is None:
        return values, None
    weights = np.abs(vectors) ** 2
    return values, (np.asarray(energies) @ weights) / weights.sum(axis=0)


def match_roots(computed, reference, tol=ROOT_TOL):
    """Number of computed roots inside the unit disk matching a reference root.

    Pairing is greedy nearest-first; each reference root is used once.
    """
    ref = list(np.asarray(reference, dtype=complex))
    good = 0
    for x in computed:
        x = complex(x)
        if not ref:
            break
        dist = np.abs(np.asarray(ref) - x)
        j = int(np.argmin(dist))
        if dist[j] <= tol and abs(x) < 1.0:
            good += 1
            ref.pop(j)
    return good


def config_root_match(config, roots):
    """Roots of a ChargeConfiguration that match its own charges' oracle."""
    active = [c for c in config.charges if c.p > config.zero_threshold]
    if len(active) < 2:
        return sum(1 for r in roots if abs(r) < ROOT_TOL)
    ref, _ = disk_roots([c.p for c in active], [c.phase for c in active])
    return match_roots(roots, ref)


# ------------------------------------------------------------ file reading


def read_csv(path):
    """(header, rows) with numeric cells as floats, others as strings."""
    with open(path, newline="") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = []
        for cell in ln.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows


def _close(a, b, tol):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


# ------------------------------------------------------------------ checks


def check_run(argv):
    """Problems with the outputs of one CLI run, given its argument vector."""
    out_dir = argv[argv.index("--out") + 1]
    try:
        if argv[0] == "reproduce":
            return check_figure(argv[1], out_dir)
        with open(argv[argv.index("--config") + 1]) as fh:
            config = json.load(fh)
        check = {
            "regime": check_regime,
            "evolve": check_evolve,
            "sweep-tau": check_sweep,
            "charges": check_charges,
        }[config["experiment"]]
        return check(config, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _setup(config):
    eig, labels = eigen_of(config["model"])
    psi_d = state_vector(config["detection"], labels)
    psi_in = state_vector(config["initial_state"], labels) if "initial_state" in config else None
    return eig, labels, ChargePicture(eig, psi_d), psi_d, psi_in


def _expected_regime(picture, psi_in, tau):
    """(kind or None when on a threshold, dark energy, roots, energies, n_tied)."""
    dark, dark_energy = picture.dark_weight(psi_in)
    roots, energies = picture.disk(tau)
    mods = np.abs(roots)
    gaps = mods[0] - mods
    tied = int(np.sum(gaps <= TIE_TOL))
    if abs(dark - DARK_OVERLAP_TOL) < 1e-3 * DARK_OVERLAP_TOL or np.any(
            np.abs(gaps - TIE_TOL) < 1e-3 * TIE_TOL):
        kind = None
    elif dark > DARK_OVERLAP_TOL:
        kind = "DarkDominated"
    else:
        kind = "FixedPoint" if tied == 1 else "Oscillatory"
    return kind, dark_energy, roots, energies, tied


def _crossover(kind, roots, tied):
    """Expected crossover step, or None when it sits on a ceil boundary."""
    mods = np.abs(roots)
    if kind == "DarkDominated":
        m1, m2 = 1.0, (mods[0] if mods.size else 0.0)
    else:
        if mods.size - tied < 1:
            return 1
        m1, m2 = mods[0], mods[tied]
    if m2 == 0.0 or mods.size == 0:
        return 1
    x = math.log(CROSSOVER_RATIO) / math.log(m2 / m1)
    if abs(x - round(x)) < 1e-6:
        return None
    return max(1, math.ceil(x))


def check_regime(config, out_dir):
    _, _, picture, _, psi_in = _setup(config)
    tau = config["tau"]
    with open(os.path.join(out_dir, "regime.json")) as fh:
        got = json.load(fh)
    kind, dark_energy, roots, energies, tied = _expected_regime(picture, psi_in, tau)
    problems = []
    if kind is not None and got["kind"] != kind:
        problems.append(f"regime kind {got['kind']} != oracle {kind}")
        return problems
    dominant = [complex(d["re_xi"], d["im_xi"]) for d in got["dominant"]]
    if got["kind"] == "DarkDominated":
        if abs(got["predicted_energy"] - dark_energy) > ENERGY_TOL:
            problems.append(f"dark energy {got['predicted_energy']} != oracle {dark_energy}")
        if any(abs(abs(x) - 1.0) > 1e-12 for x in dominant):
            problems.append("dark-dominated regime lists a root off the unit circle")
    else:
        if kind is not None and len(dominant) != tied:
            problems.append(f"{len(dominant)} dominant roots, oracle ties {tied}")
        matched = []
        for x in dominant:
            j = int(np.argmin(np.abs(roots - x)))
            if abs(roots[j] - x) > ROOT_TOL or abs(x) >= 1.0:
                problems.append(f"dominant root {x} not an oracle disk root")
            matched.append(j)
        if got["kind"] == "FixedPoint" and matched:
            if abs(got["predicted_energy"] - energies[matched[0]]) > ENERGY_TOL:
                problems.append(
                    f"fixed-point energy {got['predicted_energy']} != {energies[matched[0]]}")
        if got["kind"] == "Oscillatory" and matched:
            for e, j in zip(got["oscillation"]["energies"], matched):
                if abs(e - energies[j]) > ENERGY_TOL:
                    problems.append(f"oscillation energy {e} != oracle {energies[j]}")
    if kind is not None:
        expect = _crossover(kind, roots, tied)
        if expect is not None and got["crossover_step"] != expect:
            problems.append(f"crossover step {got['crossover_step']} != oracle {expect}")
    return problems


def dense_trajectory_end(eig, psi_d, psi_in, tau, n_steps):
    """Final mean energy and no-detection probability by dense iteration."""
    phases = np.exp(-1j * eig.energies * tau)
    u = (eig.vectors * phases) @ eig.vectors.conj().T
    s = u - np.outer(psi_d, psi_d.conj() @ u)
    psi = psi_in.copy()
    log_p = 0.0
    for _ in range(n_steps):
        raw = s @ psi
        amp = float(np.linalg.norm(raw))
        psi = raw / amp
        log_p += 2.0 * math.log(amp)
    return float(np.real(np.vdot(psi, eig.h @ psi))), log_p


def check_evolve(config, out_dir):
    eig, _, _, psi_d, psi_in = _setup(config)
    header, rows = read_csv(os.path.join(out_dir, "trajectory.csv"))
    n_steps = config.get("n_steps", 100)
    problems = []
    if header[:5] != ["n", "mean_energy", "survival_amplitude",
                      "cumulative_no_detection_probability", "phase"]:
        problems.append(f"unexpected trajectory header {header[:5]}")
    if [r[0] for r in rows] != list(range(n_steps + 1)):
        return problems + [f"trajectory rows are not n = 0..{n_steps}"]
    energy, log_p = dense_trajectory_end(eig, psi_d, psi_in, config["tau"], n_steps)
    if abs(rows[-1][1] - energy) > ENERGY_TOL:
        problems.append(f"final mean energy {rows[-1][1]!r} != dense oracle {energy!r}")
    got_p = rows[-1][3]
    if not got_p > 0 or abs(math.log(got_p) - log_p) > 1e-8 * max(1.0, abs(log_p)):
        problems.append(f"final no-detection probability {got_p!r} != exp({log_p!r})")
    return problems


def check_sweep(config, out_dir):
    eig, _, picture, _, psi_in = _setup(config)
    spec = config["tau"]
    taus = np.linspace(spec["start"], spec["stop"], spec["steps"])
    header, rows = read_csv(os.path.join(out_dir, "sweep.csv"))
    if header != ["tau", "re_xi_1", "im_xi_1", "abs_xi_1", "abs_xi_2", "n_circle",
                  "zeno_lower_bound", "regime"]:
        return [f"unexpected sweep header {header}"]
    if len(rows) != taus.size:
        return [f"{len(rows)} sweep rows, expected {taus.size}"]
    spread = float(eig.energies[-1] - eig.energies[0])
    n_circle = eig.energies.size - picture.charged.size
    problems = []
    for tau, row in zip(taus, rows):
        t, re1, im1, abs1, abs2, circle, bound, regime = row
        where = f"tau={tau:.6g}"
        if abs(t - tau) > 1e-15 * abs(tau):
            problems.append(f"{where}: tau column {t!r}")
        roots, _ = picture.disk(tau)
        mods = np.abs(roots)
        lead = complex(re1, im1)
        if np.min(np.abs(roots - lead)) > ROOT_TOL or abs(abs(lead) - mods[0]) > ROOT_TOL:
            problems.append(f"{where}: leading root {lead} is not the oracle's {roots[0]}")
        second = mods[1] if mods.size > 1 else math.nan
        if not (_close(abs1, mods[0], ROOT_TOL) and _close(abs2, second, ROOT_TOL)):
            problems.append(f"{where}: moduli {abs1}, {abs2} != oracle {mods[0]}, {second}")
        if not abs1 < 1.0:
            problems.append(f"{where}: |xi_1| = {abs1} is not inside the unit disk")
        if circle != n_circle:
            problems.append(f"{where}: n_circle {circle} != {n_circle}")
        x = spread * tau
        if abs(x - math.pi) > 1e-9:
            expect = math.cos(0.5 * x) if x < math.pi else math.nan
            if not _close(bound, expect, 1e-12):
                problems.append(f"{where}: zeno bound {bound} != {expect}")
        if psi_in is not None:
            kind = _expected_regime(picture, psi_in, tau)[0]
            if kind is not None and regime != kind:
                problems.append(f"{where}: regime {regime} != oracle {kind}")
    return problems


def check_charges(config, out_dir):
    eig, _, picture, _, _ = _setup(config)
    tau = config["tau"]
    problems = []
    _, charge_rows = read_csv(os.path.join(out_dir, "charges.csv"))
    if len(charge_rows) != len(eig.levels):
        return [f"{len(charge_rows)} charges, oracle has {len(eig.levels)} levels"]
    scale = max(1.0, float(np.max(np.abs(eig.level_energies))))
    for k, (e, p, re, im) in enumerate(charge_rows):
        phase = np.exp(-1j * eig.level_energies[k] * tau)
        if (abs(e - eig.level_energies[k]) > CHARGE_TOL * scale
                or abs(p - picture.p[k]) > CHARGE_TOL
                or abs(complex(re, im) - phase) > CHARGE_TOL * max(1.0, scale * tau)):
            problems.append(f"charge {k}: ({e}, {p}) != oracle "
                            f"({eig.level_energies[k]}, {picture.p[k]})")
    _, root_rows = read_csv(os.path.join(out_dir, "roots.csv"))
    roots = [complex(r[0], r[1]) for r in root_rows]
    reference, _ = picture.disk(tau)
    if len(roots) != reference.size:
        problems.append(f"{len(roots)} roots, oracle has {reference.size}")
    outside = sum(1 for r in roots if abs(r) >= 1.0)
    unmatched = len(roots) - match_roots(roots, reference)
    if outside or unmatched:
        problems.append(f"{outside} of {len(roots)} roots outside the unit disk, "
                        f"{unmatched} not matching the oracle within {ROOT_TOL:g}")
    return problems


def check_figure(figure_id, out_dir):
    problems = []
    header, rows = read_csv(os.path.join(out_dir, f"{figure_id}.csv"))
    ref_header, ref_rows = read_csv(os.path.join(REFERENCE_DIR, f"{figure_id}.csv"))
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{figure_id}.csv shape {len(rows)}x{header} != reference "
                f"{len(ref_rows)}x{ref_header}"]
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        bad = [(a, b) for a, b in zip(row, ref)
               if not _close(a, b, FIGURE_RTOL * max(1.0, 0.0 if isinstance(b, str) else abs(b)))]
        if bad:
            problems.append(f"{figure_id}.csv row {n}: {bad[0][0]!r} != reference {bad[0][1]!r}")
            break
    try:
        root = ET.parse(os.path.join(out_dir, f"{figure_id}.svg")).getroot()
        if not root.tag.endswith("svg"):
            problems.append(f"{figure_id}.svg root element is {root.tag}")
    except ET.ParseError as exc:
        problems.append(f"{figure_id}.svg is not well-formed XML: {exc}")
    return problems
