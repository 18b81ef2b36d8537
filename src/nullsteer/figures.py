"""Canned experiments behind `nullsteer reproduce`.

Each figure builder writes one CSV of raw columns and one SVG rendering,
at desk scale (n of a few hundred, matrices no larger than 22x22).
"""

from __future__ import annotations

import math

import numpy as np

from . import models
from .charges import charges as compute_charges
from .charges import config_from_levels, stationary_points, zeno_bound
from .configio import aligned_member
from .csvio import write_csv
from .errors import BoundNotApplicableError
from .evolution import evolve
from .models import spectral_decompose, propagator, site_state, DetectionState
from .survival import build_survival
from .svgplot import SvgFigure


def _chain_setup():
    model = models.build_three_level_chain(1.0)
    decomp = spectral_decompose(model)
    psi_d = DetectionState(site_state(model, "0"), description="site 0")
    return model, decomp, psi_d


def _tree_setup():
    model = models.build_glued_tree(3)
    decomp = spectral_decompose(model)
    psi_d = DetectionState(site_state(model, "(1,1)"), description="root site")
    return model, decomp, psi_d


def _run_energy(model, decomp, psi_d, psi_in, tau, n_steps):
    U = propagator(decomp, tau)
    S = build_survival(U, psi_d.vector, tau=tau, source_decomp=decomp)
    traj = evolve(S, psi_in, n_steps, model.hamiltonian)
    return traj


def fig3(out_dir):
    """Chain stationary-point moduli and the Zeno lower bound versus tau."""
    _, decomp, psi_d = _chain_setup()
    base = compute_charges(decomp, psi_d, tau=1.0)
    energies = [c.energy for c in base.charges]
    p = [c.p for c in base.charges]
    taus = [0.02 + 0.02 * i for i in range(210)]
    rows = []
    for tau in taus:
        config = config_from_levels(energies, p, tau)
        sp = stationary_points(config)
        mods = sorted((abs(r) for r in sp.roots), reverse=True)
        mods += [0.0] * (2 - len(mods))
        try:
            bound = zeno_bound(decomp, tau)[0]
        except BoundNotApplicableError:
            bound = float("nan")
        rows.append((tau, mods[0], mods[1], bound))
    csv_path = f"{out_dir}/fig3.csv"
    write_csv(csv_path, ("tau", "abs_xi_1", "abs_xi_2", "zeno_lower_bound"), rows)

    fig = SvgFigure(title="Stationary-point moduli, three-level chain",
                    xlabel="tau", ylabel="|xi|")
    fig.add_line(taus, [r[1] for r in rows], label="|xi_1|")
    fig.add_line(taus, [r[2] for r in rows], label="|xi_2|")
    fig.add_line(taus, [r[3] for r in rows], label="cos(dE tau/2)", dash="4,3")
    svg_path = f"{out_dir}/fig3.svg"
    fig.write(svg_path)
    return [csv_path, svg_path]


def fig4(out_dir):
    """Chain energy trajectories from site 2 at four sampling times."""
    model, decomp, psi_d = _chain_setup()
    psi_in = site_state(model, "2")
    taus = (0.1, 2.0, 4.31697, 4.0)
    n = 300
    runs = [_run_energy(model, decomp, psi_d, psi_in, tau, n) for tau in taus]
    header = ("n",) + tuple(f"mean_energy_tau_{tau:g}" for tau in taus)
    rows = [
        (k,) + tuple(run.records[k].mean_energy for run in runs)
        for k in range(n + 1)
    ]
    csv_path = f"{out_dir}/fig4.csv"
    write_csv(csv_path, header, rows)

    fig = SvgFigure(title="Conditional mean energy, three-level chain",
                    xlabel="n", ylabel="mean energy")
    ns = list(range(n + 1))
    for tau, run in zip(taus, runs):
        fig.add_line(ns, run.energies(), label=f"tau={tau:g}")
    svg_path = f"{out_dir}/fig4.svg"
    fig.write(svg_path)
    return [csv_path, svg_path]


def fig5(out_dir):
    """V-atom shelving: energy pumped 0 to 3, population moved into D."""
    model = models.build_v_atom(E_G=0.0, E_D=3.0, E_B=5.0, gamma1=0.01, gamma2=1.0)
    decomp = spectral_decompose(model)
    psi_d = DetectionState(site_state(model, "B"), description="bright site")
    traj = _run_energy(model, decomp, psi_d, site_state(model, "G"), 0.5, 200)
    d_site = site_state(model, "D")
    rows = [
        (rec_n, rec.mean_energy, float(abs(np.vdot(d_site, rec.state)) ** 2))
        for rec_n, rec in enumerate(traj.records)
    ]
    csv_path = f"{out_dir}/fig5.csv"
    write_csv(csv_path, ("n", "mean_energy", "population_D"), rows)

    fig = SvgFigure(title="V-atom shelving under null measurements",
                    xlabel="n", ylabel="")
    ns = [r[0] for r in rows]
    fig.add_line(ns, [r[1] for r in rows], label="mean energy")
    fig.add_line(ns, [r[2] for r in rows], label="P(D)")
    svg_path = f"{out_dir}/fig5.svg"
    fig.write(svg_path)
    return [csv_path, svg_path]


def fig8(out_dir):
    """Glued-tree ground state: saturation at 0 (tau=1.2) vs 1.25."""
    model, decomp, psi_d = _tree_setup()
    psi_in = aligned_member(decomp, psi_d, 1.2, 0, 0)
    taus = (1.2, 1.25)
    n = 400
    runs = [_run_energy(model, decomp, psi_d, psi_in, tau, n) for tau in taus]
    header = ("n",) + tuple(f"mean_energy_tau_{tau:g}" for tau in taus)
    rows = [
        (k,) + tuple(run.records[k].mean_energy for run in runs)
        for k in range(n + 1)
    ]
    csv_path = f"{out_dir}/fig8.csv"
    write_csv(csv_path, header, rows)

    fig = SvgFigure(title="Glued tree (d=3), ground-state start",
                    xlabel="n", ylabel="mean energy")
    ns = list(range(n + 1))
    for tau, run in zip(taus, runs):
        fig.add_line(ns, run.energies(), label=f"tau={tau:g}")
    svg_path = f"{out_dir}/fig8.svg"
    fig.write(svg_path)
    return [csv_path, svg_path]


def fig9(out_dir):
    """Dark-dominated plateaus at -2 and -1 from mixed bright/dark starts."""
    model, decomp, psi_d = _tree_setup()
    tau = 1.1
    n = 400
    dark_2 = aligned_member(decomp, psi_d, tau, 2, 1)
    dark_5 = aligned_member(decomp, psi_d, tau, 5, 1)
    bright_10 = aligned_member(decomp, psi_d, tau, 10, 0)
    bright_6 = aligned_member(decomp, psi_d, tau, 6, 0)
    combos = (
        ("two_component", (dark_2 + bright_10) / math.sqrt(2.0)),
        ("three_component", (dark_2 + bright_10 + dark_5) / math.sqrt(3.0)),
        ("four_component", (dark_2 + bright_10 + dark_5 + bright_6) / 2.0),
    )
    for _, v in combos:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    runs = [_run_energy(model, decomp, psi_d, v, tau, n) for _, v in combos]
    header = ("n",) + tuple(f"mean_energy_{name}" for name, _ in combos)
    rows = [
        (k,) + tuple(run.records[k].mean_energy for run in runs)
        for k in range(n + 1)
    ]
    csv_path = f"{out_dir}/fig9.csv"
    write_csv(csv_path, header, rows)

    fig = SvgFigure(title="Glued tree (d=3), tau=1.1: dark-dominated plateaus",
                    xlabel="n", ylabel="mean energy")
    ns = list(range(n + 1))
    for (name, _), run in zip(combos, runs):
        fig.add_line(ns, run.energies(), label=name.replace("_", " "))
    svg_path = f"{out_dir}/fig9.svg"
    fig.write(svg_path)
    return [csv_path, svg_path]


def fig11(out_dir):
    """Persistent energy oscillation, faster at tau=2.3 than at 2.35."""
    model, decomp, psi_d = _tree_setup()
    psi_in = aligned_member(decomp, psi_d, 2.3, 0, 0)
    taus = (2.3, 2.35)
    n = 300
    runs = [_run_energy(model, decomp, psi_d, psi_in, tau, n) for tau in taus]
    header = ("n",) + tuple(f"mean_energy_tau_{tau:g}" for tau in taus)
    rows = [
        (k,) + tuple(run.records[k].mean_energy for run in runs)
        for k in range(n + 1)
    ]
    csv_path = f"{out_dir}/fig11.csv"
    write_csv(csv_path, header, rows)

    fig = SvgFigure(title="Glued tree (d=3), ground-state start: oscillations",
                    xlabel="n", ylabel="mean energy")
    ns = list(range(n + 1))
    for tau, run in zip(taus, runs):
        fig.add_line(ns, run.energies(), label=f"tau={tau:g}")
    svg_path = f"{out_dir}/fig11.svg"
    fig.write(svg_path)
    return [csv_path, svg_path]


FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig8": fig8,
    "fig9": fig9,
    "fig11": fig11,
}
