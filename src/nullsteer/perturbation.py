"""Closed-form approximations to dominant disk eigenvalues and final states.

Four schemes: a single weak charge, two merging charges, a symmetric
charge triple near commensurability, and Zeno timing.  Marginal small
parameters produce warnings, not failures: the schemes remain usefully
accurate well past their nominal windows.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .charges import energy_spread, zeno_bound
from .errors import NotApplicableError
from .models import as_vector

WEAK_CHARGE = "WeakCharge"
TWO_MERGE = "TwoMerge"
TRIPLE_CHARGE = "TripleCharge"
ZENO_BOUND = "ZenoBound"

#: |delta| (or charge ratio) beyond which a scheme warns it is marginal.
MARGINAL_DELTA = 0.1
NOMINAL_DELTA = 0.3


class PerturbationRegimeWarning(UserWarning):
    """The requested scheme is being applied outside its nominal regime."""


@dataclasses.dataclass(frozen=True, eq=False)
class PerturbationEstimate:
    """Result of one perturbation scheme.

    ``xi_estimates`` holds the approximated disk eigenvalues.  Optional
    extras: ``theta``/``state_family`` for the triple-charge oscillation
    family, ``t_bound``/``n_bound``/``t_bound_exact`` for Zeno timing.
    """

    scheme: str
    xi_estimates: tuple
    small_parameter: float
    claimed_order: str
    state_estimate: np.ndarray = None
    energy_estimate: float = None
    phase_estimate: float = None
    warning: str = None
    theta: float = None
    state_family: object = None
    t_bound: float = None
    n_bound: float = None
    t_bound_exact: float = None

    def __post_init__(self):
        if not math.isfinite(self.small_parameter):
            raise NotApplicableError("small parameter must be finite")
        for xi in self.xi_estimates:
            if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
                raise NotApplicableError("estimates must be finite")


def _warn(message):
    warnings.warn(message, PerturbationRegimeWarning, stacklevel=3)
    return message


def _wrap(x):
    """Wrap an angle to [-pi, pi]."""
    return math.remainder(x, 2.0 * math.pi)


def weak_charge_estimate(config, weak_index, decomp=None):
    """Dominant root when one charge is far weaker than all others.

    xi ~ phase_0 - eps with eps = p_0 / sum_{k != 0} p_k / (phase_0 - phase_k).
    The final state is the weak level's eigenstate.
    """
    weak, active = config.charges[weak_index], config.active.tolist()
    if weak_index not in active:
        raise NotApplicableError(
            "the weak level is exactly dark; use the dark-state machinery"
        )
    others = [config.charges[i] for i in active if i != weak_index]
    if not others:
        raise NotApplicableError("weak-charge scheme needs at least one other charge")
    ratio = weak.p / min(c.p for c in others)
    note = None
    if ratio >= MARGINAL_DELTA:
        note = _warn(
            f"weak-charge ratio {ratio:.3g} is outside the nominal regime (< 1e-3)"
        )
    elif ratio >= 1e-3:
        note = _warn(f"weak-charge ratio {ratio:.3g} is marginal (nominal < 1e-3)")

    denom = sum(c.p / (weak.phase - c.phase) for c in others)
    eps = weak.p / denom
    xi = weak.phase - eps

    state = None
    if decomp is not None and decomp.degeneracies[weak_index] == 1:
        state = decomp.members(weak_index)[:, 0].copy()
    return PerturbationEstimate(
        WEAK_CHARGE,
        (complex(xi),),
        small_parameter=float(weak.p),
        claimed_order="O(p0^2)",
        state_estimate=state,
        energy_estimate=float(weak.energy),
        phase_estimate=float(np.angle(xi)),
        warning=note,
    )


def two_merge_estimate(config, index_a, index_b, decomp=None, psi_d=None):
    """Dominant root when two charges approach the resonance condition.

    With half phase gap delta, xi ~ (p_a phase_b + p_b phase_a)/(p_a + p_b);
    the final energy is the charge-weighted swap (p_b E_a + p_a E_b)/(p_a+p_b).
    """
    a, b = config.charges[index_a], config.charges[index_b]
    total = a.p + b.p
    if total <= config.zero_threshold:
        raise NotApplicableError("two-merge is ill-defined: both charges vanish")
    delta = 0.5 * _wrap((b.energy - a.energy) * config.tau)
    note = None
    if abs(delta) >= NOMINAL_DELTA:
        note = _warn(f"two-merge delta {delta:.3g} is outside the nominal |delta| < 0.3")
    elif abs(delta) >= MARGINAL_DELTA:
        note = _warn(f"two-merge delta {delta:.3g} is marginal")

    xi = (a.p * b.phase + b.p * a.phase) / total
    energy = (b.p * a.energy + a.p * b.energy) / total
    # midpoint via angle arithmetic: raw -(E_a+E_b)tau/2 picks the wrong
    # branch (off by pi) whenever the raw phase gap wraps past pi
    mid = float(np.angle(a.phase)) + 0.5 * _wrap(float(np.angle(b.phase / a.phase)))
    phase = _wrap(mid + delta * (b.p - a.p) / total)

    state = None
    if decomp is not None and psi_d is not None:
        psi = as_vector(psi_d)
        va, vb = decomp.members(index_a), decomp.members(index_b)
        state = (va @ (va.conj().T @ psi)) / a.p - (vb @ (vb.conj().T @ psi)) / b.p
        state = state / np.linalg.norm(state)
    return PerturbationEstimate(
        TWO_MERGE,
        (complex(xi),),
        small_parameter=abs(delta),
        claimed_order="O(delta^2)",
        state_estimate=state,
        energy_estimate=float(energy),
        phase_estimate=float(phase),
        warning=note,
    )


def triple_charge_estimate(config, center_index, pair_indices, delta=None):
    """Dominant pair for a symmetric triple of charges near commensurability.

    In the frame where the center phase is 1 and the outer pair sits at
    exp(+-i delta) with equal charges p around center charge p0:

        xi_pm ~ (1 +- i A delta - B delta^2) rotated back,

    A = sqrt(p0/(p0+2p)), B = (p0+p)/(2(p0+2p)) + p/(p0+2p)^2 * S with S
    the background sum over every other charge j of p_j/(1 - phase_j/center).
    The returned family includes theta ~ A delta and the component weight
    D(n) = [p0 cos(n theta) + i sqrt(p0(p0+2p)) sin(n theta)] / p.
    """
    ia, ib = pair_indices
    center = config.charges[center_index]
    ca, cb = config.charges[ia], config.charges[ib]
    active = config.active.tolist()
    if center_index not in active:
        raise NotApplicableError("triple-charge needs a nonzero center charge")
    if abs(ca.p - cb.p) > 1e-8 * max(ca.p, cb.p, 1e-30):
        raise NotApplicableError(
            f"not commensurate: outer charges differ ({ca.p:.6g} vs {cb.p:.6g})"
        )
    da = _wrap(float(np.angle(ca.phase / center.phase)))
    db = _wrap(float(np.angle(cb.phase / center.phase)))
    if da * db >= 0 or abs(da + db) > 1e-8:
        raise NotApplicableError(
            f"not commensurate: outer phases not symmetric about the center "
            f"(offsets {da:.3g}, {db:.3g})"
        )
    d = float(delta) if delta is not None else 0.5 * (abs(da) + abs(db))
    note = None
    if d >= NOMINAL_DELTA:
        note = _warn(f"triple-charge delta {d:.3g} is outside the nominal < 0.3")
    elif d >= MARGINAL_DELTA:
        note = _warn(f"triple-charge delta {d:.3g} is marginal")

    p0, p = center.p, 0.5 * (ca.p + cb.p)
    a_coef = math.sqrt(p0 / (p0 + 2.0 * p))
    background = sum(
        config.charges[i].p / (1.0 - config.charges[i].phase / center.phase)
        for i in active if i != center_index
    )
    b_coef = (p0 + p) / (2.0 * (p0 + 2.0 * p)) + p / (p0 + 2.0 * p) ** 2 * background
    xi_plus = center.phase * (1.0 + 1j * a_coef * d - b_coef * d * d)
    xi_minus = center.phase * (1.0 - 1j * a_coef * d - b_coef * d * d)
    theta = a_coef * d

    def d_of_n(n):
        return (
            p0 * math.cos(n * theta)
            + 1j * math.sqrt(p0 * (p0 + 2.0 * p)) * math.sin(n * theta)
        ) / p

    return PerturbationEstimate(
        TRIPLE_CHARGE,
        (complex(xi_plus), complex(xi_minus)),
        small_parameter=d,
        claimed_order="O(delta^2)",
        warning=note,
        theta=float(theta),
        state_family=d_of_n,
    )


def zeno_time_estimate(decomp, tau, config=None):
    """Zeno lower-bound timing in its small dE*tau asymptotic form.

    t_b ~ 8/(dE^2 tau), n_b ~ 8/(dE^2 tau^2); the exact -tau/ln cos form is
    reported alongside.  dE spans all levels; when supplied a charge
    configuration whose zero-charge levels widen dE, that is noted.
    """
    de = energy_spread(decomp)
    x = de * tau
    if x >= 1.0:
        raise NotApplicableError(f"Zeno timing needs dE*tau < 1, got {x:.6g}")
    bound, t_exact, _ = zeno_bound(decomp, tau)
    if de == 0.0:
        raise NotApplicableError("Zeno timing is meaningless for a flat spectrum")
    t_asym = 8.0 / (de * de * tau)
    note = None
    if config is not None:
        active_e = config.energies[config.active]
        if active_e.size and np.ptp(active_e) < de - 1e-12:
            note = _warn(
                "zero-charge levels widen dE: the convex hull of active charges "
                "would give a sharper bound"
            )
    return PerturbationEstimate(
        ZENO_BOUND,
        (complex(bound),),
        small_parameter=float(x),
        claimed_order="O((dE*tau)^2)",
        warning=note,
        t_bound=float(t_asym),
        n_bound=float(t_asym / tau),
        t_bound_exact=float(t_exact),
    )
