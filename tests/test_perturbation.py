import math
import warnings

import numpy as np
import pytest

import nullsteer as ns
from nullsteer import NotApplicableError, PerturbationRegimeWarning
from nullsteer.perturbation import (
    triple_charge_estimate,
    two_merge_estimate,
    weak_charge_estimate,
    zeno_time_estimate,
)

from helpers import regime_of

# Rounded three-level inputs reproduce the desk-scale merge numbers.
ROUNDED_CHAIN = ((-1.25, 0.445, 1.80), (0.108, 0.349, 0.543))


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def test_weak_charge_v_atom(v_atom):
    _, decomp, psi_d = v_atom
    config = ns.charges(decomp, psi_d, 0.5)
    est = weak_charge_estimate(config, 1, decomp=decomp)
    eps = config.charges[1].phase - est.xi_estimates[0]
    assert abs(eps - (1.942729301748769e-06 - 1.0709779570960976e-06j)) < 1e-12
    exact = max(ns.stationary_points(config).roots, key=abs)
    assert abs(est.xi_estimates[0] - exact) < 1e-9
    assert est.claimed_order == "O(p0^2)"
    assert est.warning is None
    # the predicted final state is the weak level itself
    right = ns.disk_eigenpairs(decomp, psi_d, 0.5, [exact])[1][:, 0]
    assert abs(np.vdot(est.state_estimate, right)) > 1.0 - 1e-4
    assert abs(est.energy_estimate - decomp.energies[1]) < 1e-12


def test_weak_charge_not_applicable():
    dark = ns.config_from_levels((0.0, 1.0, 2.0), (0.0, 0.5, 0.5), 1.0)
    with pytest.raises(NotApplicableError):
        weak_charge_estimate(dark, 0)
    lonely = ns.config_from_levels((0.0, 1.0), (1.0, 0.0), 1.0)
    with pytest.raises(NotApplicableError):
        weak_charge_estimate(lonely, 0)


def test_weak_charge_warnings():
    quiet = ns.config_from_levels((0.0, 1.0, 2.2), (1e-5, 0.4, 0.59999), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weak_charge_estimate(quiet, 0)
    marginal = ns.config_from_levels((0.0, 1.0, 2.2), (1e-3, 0.4, 0.599), 1.0)
    with pytest.warns(PerturbationRegimeWarning, match="marginal"):
        est = weak_charge_estimate(marginal, 0)
    assert est.warning is not None
    loud = ns.config_from_levels((0.0, 1.0, 2.2), (0.2, 0.4, 0.4), 1.0)
    with pytest.warns(PerturbationRegimeWarning, match="outside"):
        weak_charge_estimate(loud, 0)


def test_two_merge_rounded_chain():
    energies, ps = ROUNDED_CHAIN
    config = ns.config_from_levels(energies, ps, 2.0)
    est = two_merge_estimate(config, 0, 2)
    assert abs(est.xi_estimates[0] - (-0.8170059788111718 + 0.5725999725411558j)) < 1e-12
    assert abs(est.energy_estimate - (-0.7440092165898619)) < 1e-12
    assert est.claimed_order == "O(delta^2)"
    exact = max(ns.stationary_points(config).roots, key=abs)
    delta = est.small_parameter
    assert abs(est.xi_estimates[0] - exact) < 2.0 * delta**2
    assert abs(est.phase_estimate - np.angle(exact)) < delta**2


def test_two_merge_state_estimate(chain):
    model, decomp, psi_d = chain
    config = ns.charges(decomp, psi_d, 2.0)
    est = two_merge_estimate(config, 0, 2, decomp=decomp, psi_d=psi_d)
    exact = max(ns.stationary_points(config).roots, key=abs)
    right = ns.disk_eigenpairs(decomp, psi_d, 2.0, [exact])[1][:, 0]
    assert abs(np.linalg.norm(est.state_estimate) - 1.0) < 1e-12
    assert abs(np.vdot(est.state_estimate, right)) > 0.99


def test_two_merge_warnings():
    def cfg(delta):
        return ns.config_from_levels((-delta, delta, 2.0), (0.3, 0.3, 0.4), 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two_merge_estimate(cfg(0.05), 0, 1)
    with pytest.warns(PerturbationRegimeWarning, match="marginal"):
        two_merge_estimate(cfg(0.15), 0, 1)
    with pytest.warns(PerturbationRegimeWarning, match="outside"):
        two_merge_estimate(cfg(0.5), 0, 1)


def test_triple_charge_tree(tree):
    _, decomp, psi_d = tree
    config = ns.charges(decomp, psi_d, 2.3)
    est = _quiet(triple_charge_estimate, config, 5, (0, 10))
    plus, minus = est.xi_estimates
    assert abs(abs(plus) - abs(minus)) < 1e-14
    assert abs(abs(plus) - 0.9868158093310826) < 1e-12
    # theta and the oscillation family come straight from the charge data
    p0 = config.charges[5].p
    p = config.charges[0].p
    a_coef = math.sqrt(p0 / (p0 + 2 * p))
    assert abs(est.theta - a_coef * est.small_parameter) < 1e-12
    d0 = est.state_family(0)
    assert abs(d0 - p0 / p) < 1e-12
    half_period = math.pi / est.theta
    assert abs(est.state_family(half_period) + p0 / p) < 1e-9


def test_triple_charge_delta_override(tree):
    _, decomp, psi_d = tree
    config = ns.charges(decomp, psi_d, 2.3)
    est = triple_charge_estimate(config, 5, (0, 10), delta=0.05)
    assert est.small_parameter == 0.05
    assert est.warning is None


def test_triple_charge_rejects_noncommensurate():
    with pytest.raises(NotApplicableError, match="center"):
        triple_charge_estimate(
            ns.config_from_levels((-0.2, 0.0, 0.2, 2.0), (0.3, 0.0, 0.3, 0.4), 1.0),
            1,
            (0, 2),
        )
    with pytest.raises(NotApplicableError, match="differ"):
        triple_charge_estimate(
            ns.config_from_levels((-0.2, 0.0, 0.2, 2.0), (0.25, 0.2, 0.35, 0.2), 1.0),
            1,
            (0, 2),
        )
    with pytest.raises(NotApplicableError, match="symmetric"):
        triple_charge_estimate(
            ns.config_from_levels((0.15, 0.0, -0.4, 2.0), (0.3, 0.1, 0.3, 0.3), 1.0),
            1,
            (0, 2),
        )
    with pytest.raises(NotApplicableError, match="symmetric"):
        triple_charge_estimate(
            ns.config_from_levels((0.1, 0.0, 0.2, 2.0), (0.3, 0.1, 0.3, 0.3), 1.0),
            1,
            (0, 2),
        )


def test_zeno_timing_chain(chain):
    _, decomp, _ = chain
    de = ns.energy_spread(decomp)
    est = zeno_time_estimate(decomp, 0.1)
    assert abs(est.t_bound - 8.0 / (de * de * 0.1)) < 1e-9
    assert abs(est.n_bound - est.t_bound / 0.1) < 1e-9
    bound = math.cos(0.5 * de * 0.1)
    assert abs(est.t_bound_exact - (-0.1 / math.log(bound))) < 1e-12
    # the asymptotic form overshoots the exact bound time only slightly
    assert 0 < est.t_bound - est.t_bound_exact < 0.05 * est.t_bound
    with pytest.raises(NotApplicableError):
        zeno_time_estimate(decomp, 0.33)


def test_zeno_flat_spectrum_not_applicable():
    decomp = ns.spectral_decompose(ns.build_custom(np.diag([2.0, 2.0])))
    with pytest.raises(NotApplicableError):
        zeno_time_estimate(decomp, 0.5)


def test_zeno_warns_when_inactive_levels_widen_spread():
    decomp = ns.spectral_decompose(ns.build_custom(np.diag([0.0, 1.0, 5.0])))
    config = ns.config_from_levels((0.0, 1.0, 5.0), (0.5, 0.5, 0.0), 0.1)
    with pytest.warns(PerturbationRegimeWarning, match="widen"):
        zeno_time_estimate(decomp, 0.1, config=config)


def test_zeno_bound_never_exceeds_measured_crossover(chain):
    """n_b is a lower bound on the coefficient-free relaxation step count."""
    model, _, psi_d = chain
    for tau, tie_tol in ((0.05, 1e-9), (0.1, 1e-6), (0.2, 1e-6)):
        decomp = ns.spectral_decompose(model)
        est = zeno_time_estimate(decomp, tau)
        start = ns.site_state(model, "2")
        measured = regime_of(decomp, psi_d, tau, start, tie_tol=tie_tol).crossover_step
        assert est.n_bound <= measured


def test_estimate_rejects_nonfinite():
    with pytest.raises(NotApplicableError):
        ns.PerturbationEstimate("x", (complex("inf"),), 0.1, "O(1)")
    with pytest.raises(NotApplicableError):
        ns.PerturbationEstimate("x", (0.5 + 0.0j,), math.inf, "O(1)")
