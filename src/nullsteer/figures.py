"""The bundled figures behind `nullsteer reproduce`, as data.

Each figure is a model and a detector in the `run` config format, its CSV
columns and its plot spec; `cli.run_reproduce` runs it through the code
`run` uses.  A trajectory column (header, plot label, initial_state, tau,
optional site) is the `run evolve` trajectory over the figure's ``n_steps``:
its mean energy, or the population of the site.  fig3's columns (header, plot label)
are `sweep.csv` columns at the figure's own ``taus``, with no initial state.
"""

_CHAIN = {"type": "three_level_chain", "gamma": 1.0}
_TREE = {"type": "glued_tree", "depth": 3}
_TREE_ROOT = {"site": "(1,1)"}
_TREE_GROUND = {"energy_state": [0, 0]}


def _tau_columns(initial_state, taus):
    return [(f"mean_energy_tau_{tau:g}", f"tau={tau:g}", initial_state, tau)
            for tau in taus]


def _mixed_column(name, members):
    state = {"combination": [{"energy_state": m} for m in members]}
    return (f"mean_energy_{name}", name.replace("_", " "), state, 1.1)


FIGURES = {
    "fig3": {
        "title": "Stationary-point moduli, three-level chain", "ylabel": "|xi|",
        "model": _CHAIN, "detection": {"site": "0"},
        "taus": [0.02 + 0.02 * i for i in range(210)],
        "columns": [("abs_xi_1", "|xi_1|"), ("abs_xi_2", "|xi_2|"),
                    ("zeno_lower_bound", "cos(dE tau/2)")],
        "dashed": ("zeno_lower_bound",),
    },
    "fig4": {
        "title": "Conditional mean energy, three-level chain",
        "ylabel": "mean energy",
        "model": _CHAIN, "detection": {"site": "0"}, "n_steps": 300,
        "columns": _tau_columns({"site": "2"}, (0.1, 2.0, 4.31697, 4.0)),
    },
    "fig5": {
        "title": "V-atom shelving under null measurements", "ylabel": "",
        "model": {"type": "v_atom", "E_G": 0.0, "E_D": 3.0, "E_B": 5.0,
                  "gamma1": 0.01, "gamma2": 1.0},
        "detection": {"site": "B"}, "n_steps": 200,
        "columns": [("mean_energy", "mean energy", {"site": "G"}, 0.5),
                    ("population_D", "P(D)", {"site": "G"}, 0.5, "D")],
    },
    "fig8": {
        "title": "Glued tree (d=3), ground-state start", "ylabel": "mean energy",
        "model": _TREE, "detection": _TREE_ROOT, "n_steps": 400,
        "columns": _tau_columns(_TREE_GROUND, (1.2, 1.25)),
    },
    "fig9": {
        "title": "Glued tree (d=3), tau=1.1: dark-dominated plateaus",
        "ylabel": "mean energy",
        "model": _TREE, "detection": _TREE_ROOT, "n_steps": 400,
        "columns": [
            _mixed_column("two_component", ([2, 1], [10, 0])),
            _mixed_column("three_component", ([2, 1], [10, 0], [5, 1])),
            _mixed_column("four_component", ([2, 1], [10, 0], [5, 1], [6, 0])),
        ],
    },
    "fig11": {
        "title": "Glued tree (d=3), ground-state start: oscillations",
        "ylabel": "mean energy",
        "model": _TREE, "detection": _TREE_ROOT, "n_steps": 300,
        "columns": _tau_columns(_TREE_GROUND, (2.3, 2.35)),
    },
}
