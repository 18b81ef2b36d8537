"""Command-line front end.

    nullsteer run --config cfg.json --out outdir [--dump-states]
                  [--tie-tol X] [--grouping-tol X]
    nullsteer reproduce fig5 --out outdir

Exit codes: 0 success, 2 invalid or inapplicable configuration, 3 certain
detection (null conditioning impossible, reported with the step index),
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .charges import (
    DEFAULT_TIE_TOL,
    ZERO_CHARGE_THRESHOLD,
    DetectorSplit,
    charges as compute_charges,
    stationary_points,
    zeno_bound,
)
from .configio import (
    build_model,
    check_tolerance,
    load_config,
    parse_config,
    resolve_detection,
    resolve_state,
)
from .csvio import write_csv
from .errors import (
    BoundNotApplicableError,
    CertainDetectionError,
    ConfigError,
    NotApplicableError,
    NullsteerError,
)
from .evolution import (
    DEFAULT_DARK_OVERLAP_TOL,
    classify_regime,
    evolve,
)
from .figures import FIGURES
from .models import (
    KRYLOV_BREAKDOWN_TOL,
    DetectionState,
    HermitianModel,
    krylov_basis,
    site_state,
    spectral_decompose,
)
from .perturbation import (
    triple_charge_estimate,
    two_merge_estimate,
    weak_charge_estimate,
    zeno_time_estimate,
)
from .survival import EigenSurvivalOperator, full_spectrum
from .svgplot import SvgFigure


class _Runtime:
    """Resolved model machinery shared by the experiment runners.

    A ``regime`` run whose detector and start name no ``energy_state``
    works in the block Krylov space of the two: its decomposition, split
    and start weights are those of the model Q^dag H Q, with ``basis`` = Q.
    Every other run, and a regime run whose space passes
    ``KRYLOV_MAX_SHARE`` of dim, decomposes H itself (``basis`` None).
    """

    def __init__(self, config, tie_tol=None, grouping_tol=None):
        tols = dict(config.tolerances)
        for key, value in (("tie_tol", tie_tol), ("grouping_tol", grouping_tol)):
            if value is not None:
                check_tolerance(key, value)
                tols[key] = value
        self.config = config
        self.grouping_tol = tols.get("grouping_tol")
        self.tie_tol = tols.get("tie_tol", DEFAULT_TIE_TOL)
        self.dark_overlap_tol = tols.get("dark_overlap_tol", DEFAULT_DARK_OVERLAP_TOL)
        self.model = build_model(config)
        self.basis, psi_d, reduced = None, None, None
        if config.experiment == "regime" and not any(
                map(_names_energy_state, (config.detection, config.initial_state))):
            # Neither state needs a decomposition to resolve.
            psi_d = resolve_detection(config, self.model, None)
            self.initial_state = resolve_state(config.initial_state, self.model, None)
            reduced = krylov_basis(self.model.hamiltonian, (psi_d, self.initial_state))
        if reduced is None or len(reduced[1]) < 2:  # a model needs dim >= 2
            self.decomp = spectral_decompose(self.model, self.grouping_tol)
            self.psi_d = psi_d or resolve_detection(config, self.model, self.decomp)
        else:
            self.basis, h = reduced
            self.decomp = spectral_decompose(
                HermitianModel(h, tuple(map(str, range(h.shape[0])))), self.grouping_tol)
            self.psi_d = DetectionState(self.basis.T.conj() @ psi_d.vector, psi_d.description)
        self.split = DetectorSplit(self.decomp, self.psi_d,
                                   tols.get("zero_threshold", ZERO_CHARGE_THRESHOLD))

    @functools.cached_property
    def initial_state(self):
        # Resolved once per run: the state is the same at every tau.
        if self.config.initial_state is None:
            return None
        return resolve_state(self.config.initial_state, self.model, self.decomp, self.split)

    @functools.cached_property
    def start(self):
        # The initial state's level weights, also the same at every tau.
        psi = self.initial_state
        if psi is None:
            return None
        return self.split.weigh(psi if self.basis is None else self.basis.T.conj() @ psi)

    def spectrum(self, tau):
        return full_spectrum(self.decomp, self.split, tau)

    def roots(self, tau):
        """The charge configuration at tau and its stationary points."""
        config = compute_charges(self.decomp, self.split, tau)
        return config, stationary_points(config)

    def regime(self, config, sp):
        return classify_regime(config, sp, self.start, tie_tol=self.tie_tol,
                               dark_overlap_tol=self.dark_overlap_tol)

    def resolved_tolerances(self):
        return {
            "grouping_tol": self.decomp.grouping_tol,
            "tie_tol": self.tie_tol,
            "zero_threshold": self.split.zero_threshold,
            "dark_overlap_tol": self.dark_overlap_tol,
            "krylov_breakdown_tol": KRYLOV_BREAKDOWN_TOL,
        }


def _names_energy_state(spec):
    """Whether a state spec, or a term of its combination, is an ``energy_state``."""
    return "energy_state" in spec or any(map(_names_energy_state, spec.get("combination", ())))


def _run_spectrum(rt, out_dir):
    spectrum = rt.spectrum(rt.config.tau_values[0])
    columns = (spectrum.kinds.tolist(), spectrum.xis.tolist(),
               spectrum.source_levels.tolist(), spectrum.biorthogonal_overlaps.tolist())
    rows = [(kind, xi.real, xi.imag, abs(xi), level, overlap)
            for kind, xi, level, overlap in zip(*columns)]
    path = os.path.join(out_dir, "spectrum.csv")
    write_csv(
        path,
        ("class", "re_xi", "im_xi", "abs_xi", "source_level", "biorthogonal_overlap"),
        rows,
    )
    return [path]


def _run_charges(rt, out_dir):
    tau = rt.config.tau_values[0]
    config = compute_charges(rt.decomp, rt.split, tau)
    charge_rows = [
        (c.energy, c.p, float(c.phase.real), float(c.phase.imag))
        for c in config.charges
    ]
    charges_path = os.path.join(out_dir, "charges.csv")
    write_csv(charges_path, ("E_k", "p_k", "re_phase", "im_phase"), charge_rows)

    sp = stationary_points(config)
    root_rows = [
        (
            float(r.real),
            float(r.imag),
            float(abs(r)),
            float(np.angle(r)),
            float(res),
        )
        for r, res in zip(sp.roots, sp.residuals)
    ]
    roots_path = os.path.join(out_dir, "roots.csv")
    write_csv(roots_path, ("re_xi", "im_xi", "abs_xi", "arg_xi", "residual"), root_rows)
    return [charges_path, roots_path]


def _run_evolve(rt, out_dir, dump_states):
    tau = rt.config.tau_values[0]
    psi_in = rt.initial_state
    if psi_in is None:
        raise ConfigError("experiment 'evolve' requires an initial_state")
    S = EigenSurvivalOperator(rt.decomp, rt.split, tau)
    traj = evolve(S, psi_in, rt.config.n_steps)

    header = [
        "n",
        "mean_energy",
        "survival_amplitude",
        "cumulative_no_detection_probability",
        "phase",
    ]
    columns = (traj.mean_energy, traj.survival_amplitude,
               traj.cumulative_no_detection_probability, traj.phase)
    rows = [[n, *values] for n, values in enumerate(zip(*(c.tolist() for c in columns)))]
    if dump_states:
        for label in rt.model.basis_labels:
            header += [f"re_{label}", f"im_{label}"]
        for row, state in zip(rows, traj.states()):
            for amp in state:
                row += [float(amp.real), float(amp.imag)]
    path = os.path.join(out_dir, "trajectory.csv")
    write_csv(path, tuple(header), rows)
    return [path]


def _run_regime(rt, out_dir):
    def regime_at(tau):
        return rt.regime(*rt.roots(tau))

    if rt.config.tau_is_sweep:
        def worker(tau):
            regime = regime_at(tau)
            energy = regime.predicted_energy
            return (
                tau,
                regime.kind,
                float("nan") if energy is None else float(energy),
                len(regime.dominant),
                regime.crossover_step,
            )

        rows = [worker(tau) for tau in rt.config.tau_values]
        path = os.path.join(out_dir, "regime_sweep.csv")
        write_csv(
            path,
            ("tau", "kind", "predicted_energy", "n_dominant", "crossover_step"),
            rows,
        )
        return [path]

    tau = rt.config.tau_values[0]
    regime = regime_at(tau)
    payload = {
        "tau": tau,
        "kind": regime.kind,
        "predicted_energy": regime.predicted_energy,
        "oscillation": None,
        "dominant": [
            {"re_xi": xi.real, "im_xi": xi.imag, "abs_xi": abs(xi)}
            for xi in regime.dominant
        ],
        "crossover_step": regime.crossover_step,
    }
    if regime.oscillation is not None:
        # A relative phase is defined only for a dominant pair.
        relative_phase = regime.oscillation.get("relative_phase")
        payload["oscillation"] = {
            "energies": [float(e) for e in regime.oscillation["energies"]],
            "relative_phase": None if relative_phase is None else float(relative_phase),
        }
    path = os.path.join(out_dir, "regime.json")
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


_SWEEP_HEADER = ("tau", "re_xi_1", "im_xi_1", "abs_xi_1", "abs_xi_2", "n_circle",
                 "zeno_lower_bound", "regime")


def _sweep_row(rt, tau):
    """One `sweep.csv` row, in _SWEEP_HEADER order."""
    config, sp = rt.roots(tau)
    kind = "" if rt.start is None else rt.regime(config, sp).kind
    mods = sorted((abs(r) for r in sp.roots), reverse=True)
    top = mods[0] if mods else float("nan")
    second = mods[1] if len(mods) > 1 else float("nan")
    lead = sp.roots[0] if sp.roots else 0j
    n_circle = rt.model.dim - len(sp.groups)
    try:
        bound = zeno_bound(rt.decomp, tau)[0]
    except BoundNotApplicableError:
        bound = float("nan")
    return (
        tau,
        float(lead.real),
        float(lead.imag),
        top,
        second,
        n_circle,
        bound,
        kind,
    )


def _run_sweep_tau(rt, out_dir):
    rows = [_sweep_row(rt, tau) for tau in rt.config.tau_values]
    path = os.path.join(out_dir, "sweep.csv")
    write_csv(path, _SWEEP_HEADER, rows)
    return [path]


def _run_perturb(rt, out_dir):
    tau = rt.config.tau_values[0]
    options = rt.config.perturb
    scheme = options["scheme"]
    config = compute_charges(rt.decomp, rt.split, tau)
    for key in ("weak_index", "index_a", "index_b", "center_index", "pair_indices"):
        if not all(0 <= i < config.p.size for i in np.ravel(options.get(key, []))):
            raise ConfigError(f"perturb {key} must name levels 0..{config.p.size - 1}")
    if scheme == "weak_charge":
        est = weak_charge_estimate(config, options["weak_index"], decomp=rt.decomp)
    elif scheme == "two_merge":
        est = two_merge_estimate(
            config,
            options["index_a"],
            options["index_b"],
            decomp=rt.decomp,
            psi_d=rt.psi_d,
        )
    elif scheme == "triple_charge":
        est = triple_charge_estimate(
            config,
            options["center_index"],
            tuple(options["pair_indices"]),
            delta=options.get("delta"),
        )
    else:
        est = zeno_time_estimate(rt.decomp, tau, config=config)

    compare = options.get("compare_exact", False)
    exact_roots = []
    if compare:
        exact_roots = list(stationary_points(config).roots)

    rows = []
    for xi in est.xi_estimates:
        re_exact = im_exact = err = float("nan")
        if compare and exact_roots:
            if scheme == "zeno":
                exact = max(exact_roots, key=abs)
                exact = complex(abs(exact))
            else:
                exact = min(exact_roots, key=lambda r: abs(r - xi))
            re_exact, im_exact = float(exact.real), float(exact.imag)
            err = float(abs(xi - exact))
        rows.append(
            (
                est.scheme,
                est.small_parameter,
                float(xi.real),
                float(xi.imag),
                re_exact,
                im_exact,
                err,
            )
        )
    path = os.path.join(out_dir, "estimates.csv")
    write_csv(
        path,
        (
            "scheme",
            "small_parameter",
            "re_xi_estimate",
            "im_xi_estimate",
            "re_xi_exact",
            "im_xi_exact",
            "abs_error",
        ),
        rows,
    )
    return [path]


def _versions():
    return {
        "nullsteer": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _write_manifest(out_dir, payload):
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def run_experiment(config_path, out_dir, dump_states=False, tie_tol=None,
                   grouping_tol=None):
    """Execute one config; returns the list of files written."""
    started = time.monotonic()
    config = load_config(config_path)
    rt = _Runtime(config, tie_tol=tie_tol, grouping_tol=grouping_tol)
    os.makedirs(out_dir, exist_ok=True)

    if config.experiment == "spectrum":
        files = _run_spectrum(rt, out_dir)
    elif config.experiment == "charges":
        files = _run_charges(rt, out_dir)
    elif config.experiment == "evolve":
        files = _run_evolve(rt, out_dir, dump_states)
    elif config.experiment == "regime":
        files = _run_regime(rt, out_dir)
    elif config.experiment == "sweep-tau":
        files = _run_sweep_tau(rt, out_dir)
    else:
        files = _run_perturb(rt, out_dir)

    manifest = {
        "command": "run",
        "config_path": str(config_path),
        "config": config.raw,
        "experiment": config.experiment,
        "tau_values": list(config.tau_values),
        "n_steps": config.n_steps,
        "dump_states": bool(dump_states),
        "tolerances": rt.resolved_tolerances(),
        "route": "eigh" if rt.basis is None else "krylov",
        "krylov_dim": None if rt.basis is None else rt.basis.shape[1],
        "versions": _versions(),
        "wall_time_s": time.monotonic() - started,
        "outputs": [os.path.basename(f) for f in files],
    }
    files.append(_write_manifest(out_dir, manifest))
    return files


def _figure_columns(fig):
    """The x name, x values and CSV columns of one bundled figure."""
    # One runtime per figure: its columns differ only in start and tau.
    taus = fig.get("taus") or [column[3] for column in fig["columns"]]
    rt = _Runtime(parse_config(json.dumps(dict(
        model=fig["model"], detection=fig["detection"], tau=taus[0], experiment="charges"))))
    if "taus" in fig:
        rows = [_sweep_row(rt, tau) for tau in taus]
        picks = [_SWEEP_HEADER.index(header) for header, _ in fig["columns"]]
        return "tau", taus, [[row[i] for row in rows] for i in picks]
    trajectories, columns = {}, []
    for _, _, state, tau, *site in fig["columns"]:
        key = (json.dumps(state), tau)
        if key not in trajectories:
            psi_in = resolve_state(state, rt.model, rt.decomp, rt.split)
            S = EigenSurvivalOperator(rt.decomp, rt.split, tau)
            trajectories[key] = evolve(S, psi_in, fig["n_steps"])
        traj = trajectories[key]
        columns.append(np.abs(traj.states() @ site_state(rt.model, *site)) ** 2
                       if site else traj.mean_energy)
    return "n", range(fig["n_steps"] + 1), columns


def run_reproduce(figure_id, out_dir):
    started = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    fig = FIGURES[figure_id]
    x_name, xs, columns = _figure_columns(fig)
    headers = [col[0] for col in fig["columns"]]
    csv_path = os.path.join(out_dir, f"{figure_id}.csv")
    write_csv(csv_path, [x_name] + headers, zip(xs, *columns))
    plot = SvgFigure(title=fig["title"], xlabel=x_name, ylabel=fig["ylabel"])
    for (header, label, *_), ys in zip(fig["columns"], columns):
        plot.add_line(xs, ys, label=label,
                      dash="4,3" if header in fig.get("dashed", ()) else None)
    svg_path = os.path.join(out_dir, f"{figure_id}.svg")
    plot.write(svg_path)
    files = [csv_path, svg_path]
    manifest = {
        "command": "reproduce",
        "figure": figure_id,
        "versions": _versions(),
        "wall_time_s": time.monotonic() - started,
        "outputs": [os.path.basename(f) for f in files],
    }
    files.append(_write_manifest(out_dir, manifest))
    return files


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nullsteer",
        description="Repeated conditional null measurements on finite quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--dump-states", action="store_true",
                       help="add per-component state columns to trajectory.csv")
    run_p.add_argument("--tie-tol", type=float, default=None,
                       help="override the dominant-eigenvalue tie tolerance")
    run_p.add_argument("--grouping-tol", type=float, default=None,
                       help="override the energy-level grouping tolerance")

    rep_p = sub.add_parser("reproduce", help="regenerate a bundled figure")
    rep_p.add_argument("figure_id", choices=sorted(FIGURES))
    rep_p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            files = run_experiment(
                args.config,
                args.out,
                dump_states=args.dump_states,
                tie_tol=args.tie_tol,
                grouping_tol=args.grouping_tol,
            )
        else:
            files = run_reproduce(args.figure_id, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotApplicableError, BoundNotApplicableError) as exc:
        print(f"error: not applicable: {exc}", file=sys.stderr)
        return 2
    except CertainDetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NullsteerError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
