"""Electrostatic charge picture of the survival operator.

Each distinct level k carries a charge p_k = <psi_d|P_k|psi_d> sitting at
the unit-circle phase z_k = exp(-i E_k tau).  The nontrivial eigenvalues of
the survival operator are the stationary points of the 2-D field
F(xi) = sum_k p_k / (xi - z_k).  They are found as the eigenvalues of S on
the bright subspace, the w x w matrix (I - b b^T) diag(z) with b = sqrt(p);
roots at xi = 0 are counted from the charge moments and reported exact,
and every other root gets a few Newton steps on F, all roots at once.
Aliased charges (phases within ALIAS_TOL) act as one; ``stationary_points``
merges them.  Only the phases depend on tau: a ``DetectorSplit`` holds the
rest (detector overlaps, charges, dark vectors) for every tau.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np

from .errors import (
    BoundNotApplicableError,
    InvalidParameterError,
    NoBrightSubspaceError,
    PoleError,
)
from .models import SpectralDecomposition, _phase_fix, as_vector

#: Default bright/dark decision: a level with charge p_k at most this is dark.
ZERO_CHARGE_THRESHOLD = 1e-12

#: Inside a bright level, members with a smaller detector overlap are dark as
#: they stand; the others enter the Gram-Schmidt recursion.
ORTHOGONALITY_TOL = 1e-10

#: Unit-circle phases closer than this are aliased (distinct levels sharing
#: one survival eigenvalue).
ALIAS_TOL = 1e-10

#: Default |xi| tie tolerance when collecting the dominant root set.
DEFAULT_TIE_TOL = 1e-6

#: Two stationary points closer than this are reported as coalesced.
COALESCENCE_TOL = 1e-8

#: Leading charge moments sum_k p_k conj(z_k)^j below this count as zero,
#: each one an exact stationary point at xi = 0 (keeps defective
#: configurations at xi = 0 exact).
DEFLATION_REL_TOL = 1e-13


@dataclasses.dataclass(frozen=True)
class Charge:
    """One level's weight in the detection state, with its circle phase."""

    p: float
    energy: float
    phase: complex


@dataclasses.dataclass(frozen=True, eq=False)
class ChargeConfiguration:
    """All level charges at a fixed sampling time tau.

    Zero charges are kept (they mark fully dark levels) but are skipped by
    the field and the stationary points.
    """

    tau: float
    charges: tuple
    zero_threshold: float = ZERO_CHARGE_THRESHOLD

    def __post_init__(self):
        total = sum(c.p for c in self.charges)
        if abs(total - 1.0) > 1e-10:
            raise InvalidParameterError(
                f"charges must sum to 1 (detection state normalization), got {total!r}"
            )
        for c in self.charges:
            if c.p < 0:
                raise InvalidParameterError("charges must be nonnegative")
            if abs(abs(c.phase) - 1.0) > 1e-12:
                raise InvalidParameterError("charge phases must lie on the unit circle")

    def active_indices(self):
        """Indices of the charges above the zero threshold, in level order."""
        return [i for i, c in enumerate(self.charges) if c.p > self.zero_threshold]

    def active(self):
        """Charges above the zero threshold, in level order."""
        return [self.charges[i] for i in self.active_indices()]


@dataclasses.dataclass(frozen=True)
class StationaryPoints:
    """Stationary points of the charge field: the disk eigenvalues.

    ``roots`` run by descending modulus; roots whose moduli agree to
    COALESCENCE_TOL (a conjugate pair) run by descending imaginary part,
    then real part.  Which roots tie for the dominant modulus is decided
    only by ``classify_regime``, from its ``tie_tol``; the same decision
    gives its crossover step.

    ``residuals[i]`` is the Newton step |F/F'| at ``roots[i]``, i.e. the
    root's position error: near a weak charge |F'| is huge, so |F| itself
    can be far from 0 at a root exact to working precision.  A root counted
    at xi = 0 from the vanishing moments reports |F(0)| instead, and a root
    on a charge, or within its own Newton step of one, reports inf.

    ``groups`` are the configuration's active charge indices grouped by
    aliased phase (``_alias_groups``); w_eff is their number.
    """

    roots: tuple
    residuals: tuple
    max_abs: float
    groups: tuple


@dataclasses.dataclass(frozen=True)
class ExceptionalReport:
    is_exceptional: bool
    coalesced_roots: tuple


def dark_combination_coeffs(alphas):
    """Dark combinations of level members with detector overlaps ``alphas``.

    Given m overlaps a_l = <E_l|psi_d>, returns an (m-1, m) array whose row
    i is the normalized coefficient vector of the (i+1)-th dark state:
    each row uses the first i+2 members and is orthogonal to the detector
    weight vector and to all previous rows.  The result depends on the
    member ordering, which callers fix deterministically.
    """
    a = np.asarray(alphas, dtype=complex)
    m = a.size
    out = np.zeros((m - 1, m), dtype=complex)
    for i in range(1, m):
        row = np.zeros(m, dtype=complex)
        row[:i] = -np.conj(a[i]) * a[:i]
        row[i] = np.sum(np.abs(a[:i]) ** 2)
        out[i - 1] = row / np.linalg.norm(row)
    return out


def _dark_combinations(vectors, alphas):
    """Unit, phase-fixed ``dark_combination_coeffs(alphas)`` combinations of
    the orthonormal columns of ``vectors``, whose detector overlaps are ``alphas``."""
    out = []
    for row in dark_combination_coeffs(alphas):
        v = _phase_fix(vectors @ row)
        out.append(v / np.linalg.norm(v))
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class DetectorSplit:
    """The tau-independent part of one detector in one decomposition.

    ``c`` = V^dag psi_d, the level charges ``p`` and the dark vectors
    ``darks`` do not depend on tau, so a tau sweep builds them once.
    ``bright_levels`` is the bright/dark decision for every level, made
    here once from ``zero_threshold``: the charges, the bright states, the
    dark vectors, the charge groups and ``energy_state`` members all read it.
    ``vector`` is the detection state, so a split may be passed wherever a
    detection state is expected; the functions taking (decomp, psi_d) read
    from it when it belongs to their decomposition.  Building a split is
    the one way to set a threshold other than ZERO_CHARGE_THRESHOLD.
    """

    decomp: SpectralDecomposition
    detection: object
    zero_threshold: float = ZERO_CHARGE_THRESHOLD

    @functools.cached_property
    def vector(self):
        return as_vector(self.detection)

    @functools.cached_property
    def c(self):
        return self.decomp.coords(self.vector)

    @functools.cached_property
    def starts(self):
        """Index of each level's first column in V."""
        return np.cumsum([0] + [lv.degeneracy for lv in self.decomp.levels[:-1]])

    @functools.cached_property
    def p(self):
        return np.add.reduceat((self.c * self.c.conj()).real, self.starts)

    @functools.cached_property
    def bright_levels(self):
        """Indices of the bright levels, those with p_k > zero_threshold."""
        return np.flatnonzero(self.p > self.zero_threshold)

    def overlaps(self, k):
        """Detector overlaps <E_l|psi_d> of level k's members."""
        start = self.starts[k]
        return self.c[start : start + self.decomp.levels[k].degeneracy]

    def bright(self, k):
        """Normalized projection of the detector onto level k (p_k > 0)."""
        lv = self.decomp.levels[k]
        return (lv.eigenvectors @ self.overlaps(k)) / math.sqrt(self.p[k])

    @functools.cached_property
    def darks(self):
        """(level index, read-only unit vector) for each per-level dark state.

        A dark level gives each of its members as it stands.  A bright
        level of degeneracy g gives g - 1: its members are sorted by
        descending overlap magnitude (ties by index); the first one seeds
        the Gram-Schmidt recursion, which also takes every member whose
        overlap is at least ORTHOGONALITY_TOL, and the others are given as
        they stand.
        """
        bright = set(self.bright_levels.tolist())
        out = []
        for k, lv in enumerate(self.decomp.levels):
            a, seeds = self.overlaps(k), []
            if k in bright:
                order = sorted(range(lv.degeneracy), key=lambda l: (-abs(a[l]), l))
                seeds = order[:1] + [l for l in order[1:] if abs(a[l]) >= ORTHOGONALITY_TOL]
            rest = [l for l in range(lv.degeneracy) if l not in seeds]
            out += [(k, v) for v in _phase_fix(lv.eigenvectors[:, rest]).T.copy()]
            if seeds:
                out += [(k, v) for v in _dark_combinations(lv.eigenvectors[:, seeds], a[seeds])]
        for _, v in out:
            v.setflags(write=False)
        return tuple(out)


def _as_split(decomp, psi_d):
    """``psi_d`` when it is a split of ``decomp``, else a new split of it at
    the default threshold."""
    if isinstance(psi_d, DetectorSplit) and psi_d.decomp is decomp:
        return psi_d
    return DetectorSplit(decomp, psi_d)


def config_from_levels(energies, charge_values, tau, zero_threshold=ZERO_CHARGE_THRESHOLD):
    """Assemble a ChargeConfiguration directly from level data."""
    charges_ = tuple(
        Charge(float(p), float(e), complex(np.exp(-1j * float(e) * float(tau))))
        for p, e in zip(charge_values, energies)
    )
    return ChargeConfiguration(float(tau), charges_, float(zero_threshold))


def charges(decomp, psi_d, tau):
    """Charge of every level of the decomposition at sampling time tau.

    The configuration carries the split's ``zero_threshold`` (that of a
    split ``psi_d``), so its active charges are its bright levels.
    """
    split = _as_split(decomp, psi_d)
    return config_from_levels(decomp.energies, split.p, tau, split.zero_threshold)


def _alias_groups(config):
    """Groups of active charge indices whose phases chain within ALIAS_TOL.

    The phases are sorted by angle and cut wherever two neighbors lie at
    least ALIAS_TOL apart, the last and first neighbors across +-pi
    included; groups run by their smallest index.
    """
    active = config.active_indices()
    z = [config.charges[i].phase for i in active]
    order = sorted(range(len(z)), key=lambda j: cmath.phase(z[j]))
    cuts = [n for n in range(1, len(order)) if abs(z[order[n]] - z[order[n - 1]]) >= ALIAS_TOL]
    runs = [order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)])]
    if len(runs) > 1 and abs(z[order[-1]] - z[order[0]]) < ALIAS_TOL:
        runs[0] += runs.pop()
    return tuple(sorted(tuple(sorted(active[j] for j in r)) for r in runs if r))


def merged_charge_config(config, groups=None):
    """Aliased active charges merged into single effective charges.

    ``groups`` is ``_alias_groups(config)``, computed here when not given.
    """
    if groups is None:
        groups = _alias_groups(config)
    if all(len(g) == 1 for g in groups):
        return config
    merged = []
    for g in groups:
        p = sum(config.charges[i].p for i in g)
        phase = sum(config.charges[i].p * config.charges[i].phase for i in g) / p
        phase = phase / abs(phase)
        energy = sum(config.charges[i].p * config.charges[i].energy for i in g) / p
        merged.append(Charge(p, energy, phase))
    grouped = {i for g in groups for i in g}
    inert = [c for i, c in enumerate(config.charges) if i not in grouped]
    # Zero charges are kept for the normalization invariant.
    return ChargeConfiguration(config.tau, tuple(merged) + tuple(inert), config.zero_threshold)


def _active_arrays(config):
    """Weights p and phases z of the active charges, as arrays."""
    active = config.active()
    p = np.array([c.p for c in active], dtype=float)
    return p, np.array([c.phase for c in active], dtype=complex)


def _field_terms(p, z, xi):
    """F and F' at every point of the array ``xi``."""
    inv = 1.0 / (np.asarray(xi, dtype=complex)[:, None] - z)
    return inv @ p, -(inv * inv) @ p


def field(config, xi):
    """F(xi) = sum over nonzero charges of p_k / (xi - phase_k)."""
    p, z = _active_arrays(config)
    xi = complex(xi)
    near = np.flatnonzero(np.abs(xi - z) < 1e-12)
    if near.size:
        raise PoleError(
            f"field evaluated within 1e-12 of the charge at phase {z[near[0]]:.6g}"
        )
    return complex(_field_terms(p, z, [xi])[0][0])


def _by_descending_modulus(polished):
    """(root, residual) pairs sorted by descending |root|, rounding-proof.

    Moduli within COALESCENCE_TOL of the largest one in their run count as
    equal: a conjugate pair's moduli differ only by rounding, so comparing
    them would order the pair by noise.  Tied roots come by descending
    imaginary part, then descending real part.
    """
    rest = sorted(polished, key=lambda t: -abs(t[0]))
    ordered = []
    while rest:
        top = abs(rest[0][0])
        n = next((i for i, t in enumerate(rest) if top - abs(t[0]) > COALESCENCE_TOL),
                 len(rest))
        ordered += sorted(rest[:n], key=lambda t: (-t[0].imag, -t[0].real))
        rest = rest[n:]
    return ordered


def _refine_roots(p, z, xis):
    """Three Newton steps on F for every root at once.

    Each root keeps its iterate of least |F| and reports the Newton step
    |F/F'| there as its residual.  A root whose step is not small against
    its distance to the nearest charge is that charge, not a root: next to
    a pole |F/F'| is the distance to it.  Such a root keeps its place with
    residual inf.
    """
    best = x = xis
    least = step = np.full(xis.shape, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            f, fp = _field_terms(p, z, x)
            dx = f / fp
            better = np.abs(f) < least  # false for nan
            best = np.where(better, x, best)
            least = np.where(better, np.abs(f), least)
            step = np.where(better, np.abs(dx), step)
            x = x - dx
    gap = np.abs(best[:, None] - z).min(axis=1)
    return best, np.where(step < 0.5 * gap, step, math.inf)  # false for nan


def stationary_points(config):
    """All stationary points of the charge field, polished to full precision.

    Aliased charges are merged first (``merged_charge_config``), so callers
    pass ``config`` as it stands.  On the bright subspace, spanned by the
    normalized level projections of the detector, S is the w x w matrix
    S_B = (I - b b^T) diag(z) with b = sqrt(p) and z the charge phases.
    Its eigenvalues are xi = 0, whose right vector is conj(z) b, and the
    w - 1 stationary points.  The stationary points at xi = 0, counted from
    the vanishing charge moments, are reported as exact zeros rather than
    the 1e-8 cloud an eigensolver gives for a defective matrix; the others
    get a few Newton steps on F.
    """
    groups = _alias_groups(config)
    p, z = _active_arrays(merged_charge_config(config, groups))
    if not p.size:
        raise NoBrightSubspaceError(
            "all charges are zero: the detection state is fully dark"
        )
    b = np.sqrt(p / p.sum())
    eig = np.linalg.eigvals((np.eye(p.size) - np.outer(b, b)) * z)
    # Near 0, F(xi) = -sum_j M_{j+1} xi^j with the moments
    # M_j = sum_k p_k conj(z_k)^j: xi = 0 is a root as many times as the
    # leading moments M_1, M_2, ... vanish.
    moments = p @ np.vander(np.conj(z), p.size, increasing=True)[:, 1:]
    zeros = int(np.cumprod(np.abs(moments) <= DEFLATION_REL_TOL).sum())
    xis, res = _refine_roots(p, z, eig[np.argsort(np.abs(eig))[1 + zeros:]])
    xis = np.append(xis, np.zeros(zeros))
    res = np.append(res, np.abs(_field_terms(p, z, np.zeros(zeros))[0]))

    polished = _by_descending_modulus(list(zip(xis.tolist(), res.tolist())))
    roots = tuple(r for r, _ in polished)
    residuals = tuple(e for _, e in polished)
    max_abs = max((abs(r) for r in roots), default=0.0)
    return StationaryPoints(roots, residuals, max_abs, groups)


def energy_spread(decomp):
    energies = decomp.energies
    return float(energies.max() - energies.min())


def zeno_bound(decomp, tau):
    """Lower bound cos(dE tau / 2) on every |xi|, with the bound time.

    Returns (bound, t_b, n_b) where t_b = -tau / ln bound and n_b = t_b/tau.
    dE is the full spectral spread including zero-charge levels.
    """
    de = energy_spread(decomp)
    x = de * tau
    if x >= math.pi:
        raise BoundNotApplicableError(
            f"Zeno bound needs dE*tau < pi, got {x:.6g}"
        )
    bound = math.cos(0.5 * x)
    if bound >= 1.0:
        return 1.0, math.inf, math.inf
    t_b = -tau / math.log(bound)
    return bound, t_b, t_b / tau


def _coalesced(roots):
    """Each of ``roots`` and xi = 0 that lies within COALESCENCE_TOL of a
    later one: the coalesced points of the exceptional-point test."""
    pts = np.append(np.asarray(roots, dtype=complex), 0j)
    close = np.triu(np.abs(pts[:, None] - pts) < COALESCENCE_TOL, 1)
    return tuple(complex(pts[i]) for i in np.nonzero(close)[0])


def detect_exceptional(config):
    """Flag configurations whose stationary points coalesce.

    Coalescence is tested among all stationary points plus the ever-present
    xi = 0, after aliased charges are merged.
    """
    coalesced = _coalesced(stationary_points(config).roots)
    return ExceptionalReport(bool(coalesced), coalesced)
