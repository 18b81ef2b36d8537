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
rest (detector overlaps, charges, dark vectors) for every tau, and
``DetectorSplit.weigh`` the level-wise weights of a start state.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (
    BoundNotApplicableError,
    InvalidParameterError,
    NoBrightSubspaceError,
    PoleError,
    RootTooCloseError,
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
    """All level charges at a fixed sampling time tau, as level-ordered arrays.

    ``p[k]``, ``energies[k]`` and ``phases[k]`` are level k's charge, energy
    and unit-circle phase.  Zero charges are kept (they mark fully dark
    levels) but are skipped by the field and the stationary points:
    ``active`` indexes the others.  ``charges`` is the same data as
    per-level ``Charge`` records of Python scalars.
    """

    tau: float
    p: np.ndarray
    energies: np.ndarray
    phases: np.ndarray
    zero_threshold: float = ZERO_CHARGE_THRESHOLD

    def __post_init__(self):
        total = float(self.p.sum())
        if abs(total - 1.0) > 1e-10:
            raise InvalidParameterError(
                f"charges must sum to 1 (detection state normalization), got {total!r}"
            )
        if (self.p < 0).any():
            raise InvalidParameterError("charges must be nonnegative")
        if (np.abs(np.abs(self.phases) - 1.0) > 1e-12).any():
            raise InvalidParameterError("charge phases must lie on the unit circle")

    @functools.cached_property
    def active(self):
        """Indices of the charges above the zero threshold, in level order."""
        return np.flatnonzero(self.p > self.zero_threshold)

    @functools.cached_property
    def charges(self):
        """Every level's ``Charge``, in level order."""
        return tuple(map(Charge, self.p.tolist(), self.energies.tolist(),
                         self.phases.tolist()))


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
    the orthonormal columns of ``vectors``, whose detector overlaps are
    ``alphas``, as the columns of one array, real when they all are."""
    out = []
    for row in dark_combination_coeffs(alphas):
        v = _phase_fix(vectors @ row)
        out.append(v / np.linalg.norm(v))
    out = np.array(out, dtype=complex).reshape(-1, vectors.shape[0]).T
    return out if out.imag.any() else out.real


@dataclasses.dataclass(frozen=True, eq=False)
class DetectorSplit:
    """The tau-independent part of one detector in one decomposition.

    ``c`` = V^dag psi_d, the level charges ``p`` and the dark vectors
    ``dark_vectors`` do not depend on tau, so a tau sweep builds them once.
    ``bright_levels`` is the bright/dark decision for every level, made
    here once from ``zero_threshold``: the charges, the bright states, the
    dark vectors, the charge groups and ``energy_state`` members all read it.
    ``vector`` is the detection state, so a split may be passed wherever a
    detection state is expected; the functions taking (decomp, psi_d) read
    from it when it belongs to their decomposition, and otherwise split
    its detection state at its threshold.  Building a split is the one way
    to set a threshold other than ZERO_CHARGE_THRESHOLD.
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
    def p(self):
        return np.add.reduceat((self.c * self.c.conj()).real, self.decomp.starts[:-1])

    @functools.cached_property
    def bright_levels(self):
        """Indices of the bright levels, those with p_k > zero_threshold."""
        return np.flatnonzero(self.p > self.zero_threshold)

    def overlaps(self, k):
        """Detector overlaps <E_l|psi_d> of level k's members."""
        return self.c[self.decomp.starts[k] : self.decomp.starts[k + 1]]

    def bright(self, k):
        """Normalized projection of the detector onto level k (p_k > 0)."""
        return (self.decomp.members(k) @ self.overlaps(k)) / math.sqrt(self.p[k])

    @functools.cached_property
    def dark_levels(self):
        """The level of each column of ``dark_vectors``: g_k entries for a
        dark level of degeneracy g_k, g_k - 1 for a bright one."""
        bright = np.isin(np.arange(self.decomp.w), self.bright_levels)
        return np.repeat(np.arange(self.decomp.w), self.decomp.degeneracies - bright)

    @functools.cached_property
    def dark_vectors(self):
        """Read-only (dim, n_dark) array of the per-level dark states, level
        by level; it is real when they all are (a real H and detector).

        A dark level gives each of its members as it stands.  A bright
        level of degeneracy g gives g - 1: its members are sorted by
        descending overlap magnitude (ties by index); the first one seeds
        the Gram-Schmidt recursion, which also takes every member whose
        overlap is at least ORTHOGONALITY_TOL, and the others are given as
        they stand, before the combinations.
        """
        bright = set(self.bright_levels.tolist())
        out = []
        for k in range(self.decomp.w):
            members, a, seeds = self.decomp.members(k), self.overlaps(k), []
            if k in bright:
                order = sorted(range(a.size), key=lambda l: (-abs(a[l]), l))
                seeds = order[:1] + [l for l in order[1:] if abs(a[l]) >= ORTHOGONALITY_TOL]
            out.append(_phase_fix(members[:, [l for l in range(a.size) if l not in seeds]]))
            if seeds:
                out.append(_dark_combinations(members[:, seeds], a[seeds]))
        vectors = np.column_stack(out)
        vectors.setflags(write=False)
        return vectors

    def weigh(self, psi):
        """The StartWeights of a start state, from its coordinates x = V^dag psi.

        A level's own dark weight is the norm of what is left of x on the
        level once the detector's projection is taken out (all of it on a
        dark level), summed with ``np.add.reduceat`` like the charges.
        """
        firsts = self.decomp.starts[:-1]
        x = self.decomp.coords(psi)
        x = x / np.linalg.norm(x)
        o = np.add.reduceat(self.c.conj() * x, firsts)
        ratio = np.zeros(o.size, dtype=complex)
        ratio[self.bright_levels] = o[self.bright_levels] / self.p[self.bright_levels]
        rest = x - self.c * np.repeat(ratio, self.decomp.degeneracies)
        return StartWeights(self, np.add.reduceat((rest * rest.conj()).real, firsts), o)


@dataclasses.dataclass(frozen=True, eq=False)
class StartWeights:
    """One unit start state psi seen level by level through a DetectorSplit.

    ``dark[k]`` is its weight on level k's own dark states, the part of
    ||P_k psi||^2 orthogonal to the detector's projection P_k psi_d (all of
    it on a dark level).  ``o[k]`` = <P_k psi_d|psi>, from which
    ``evolution.classify_regime`` takes the dark part of each alias
    group's bright span at a given tau.  Neither depends on tau, so a run
    weighs its start once.
    """

    split: DetectorSplit
    dark: np.ndarray
    o: np.ndarray


def _as_split(decomp, psi_d):
    """``psi_d`` when it is a split of ``decomp``; a split of another
    decomposition is rebuilt on ``decomp`` with its own threshold, and a
    plain detection state is split at the default one."""
    if not isinstance(psi_d, DetectorSplit):
        return DetectorSplit(decomp, psi_d)
    if psi_d.decomp is decomp:
        return psi_d
    return DetectorSplit(decomp, psi_d.detection, psi_d.zero_threshold)


def config_from_levels(energies, charge_values, tau, zero_threshold=ZERO_CHARGE_THRESHOLD):
    """Assemble a ChargeConfiguration directly from level data."""
    energies, tau = np.asarray(energies, dtype=float), float(tau)
    return ChargeConfiguration(tau, np.asarray(charge_values, dtype=float), energies,
                               np.exp(-1j * energies * tau), float(zero_threshold))


def charges(decomp, psi_d, tau):
    """Charge of every level of the decomposition at sampling time tau.

    The configuration carries the split's ``zero_threshold`` (that of a
    split ``psi_d``), so its active charges are its bright levels.
    """
    split = _as_split(decomp, psi_d)
    return config_from_levels(decomp.energies, split.p, tau, split.zero_threshold)


def _alias_groups(phases, indices):
    """Groups of ``indices`` whose ``phases`` chain within ALIAS_TOL.

    The phases are sorted by angle and cut wherever two neighbors lie at
    least ALIAS_TOL apart, the last and first neighbors across +-pi
    included; groups run by their smallest index.
    """
    indices = np.asarray(indices, dtype=int)
    z = phases[indices]
    order = np.argsort(np.angle(z), kind="stable")
    z = z[order]
    # The run of each phase in angle order: a new one at every cut.
    runs = np.zeros(indices.size, dtype=int)
    runs[1:] = np.cumsum(np.abs(z[1:] - z[:-1]) >= ALIAS_TOL)
    if indices.size and runs[-1] and abs(z[-1] - z[0]) < ALIAS_TOL:
        runs[runs == runs[-1]] = 0
    groups = {}
    for i, run in zip(indices[order].tolist(), runs.tolist()):
        groups.setdefault(run, []).append(i)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def merged_charge_config(config, groups=None):
    """Aliased active charges merged into single effective charges.

    ``groups`` is ``_alias_groups(config.phases, config.active)``, computed
    here when not given.  The merged charges come first, then every other
    level as it stands.
    """
    if groups is None:
        groups = _alias_groups(config.phases, config.active)
    if all(len(g) == 1 for g in groups):
        return config
    p, e, z = config.p.tolist(), config.energies.tolist(), config.phases.tolist()
    merged = []
    for g in groups:
        total = sum(p[i] for i in g)
        phase = sum(p[i] * z[i] for i in g) / total
        merged.append((total, sum(p[i] * e[i] for i in g) / total, phase / abs(phase)))
    grouped = {i for g in groups for i in g}
    # Zero charges are kept for the normalization invariant.
    merged += [(p[i], e[i], z[i]) for i in range(len(p)) if i not in grouped]
    return ChargeConfiguration(config.tau, *map(np.array, zip(*merged)), config.zero_threshold)


def _field_terms(p, z, xi):
    """F and F' at every point of the array ``xi``."""
    inv = 1.0 / (np.asarray(xi, dtype=complex)[:, None] - z)
    return inv @ p, -(inv * inv) @ p


def field(config, xi):
    """F(xi) = sum over nonzero charges of p_k / (xi - phase_k)."""
    p, z = config.p[config.active], config.phases[config.active]
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
    groups = _alias_groups(config.phases, config.active)
    merged = merged_charge_config(config, groups)
    p, z = merged.p[merged.active], merged.phases[merged.active]
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


def _guard_roots(xis, phases, p):
    """Refuse roots within 1e-10 of any level phase: the resolvent is singular there.

    The message names the level and its charge, since a zero_threshold at
    or above that charge makes the level dark and its root goes.
    """
    close = np.argwhere(np.abs(xis[:, None] - phases) < 1e-10)
    if close.size:
        i, k = close[0]
        raise RootTooCloseError(
            f"root {xis[i]:.6g} is within 1e-10 of a unit-circle phase, that of "
            f"level {k} with charge {p[k]:.3g}; a zero_threshold at or above "
            "that charge treats the level as dark"
        )


def disk_root_levels(config, roots):
    """Mean energy and biorthogonal overlap of each disk root's eigenvectors.

    Both come level by level.  The right vector V (c / (xi - z)) puts the
    weight p_k / |xi - z_k|^2 on level k, so its energy is
    sum_k E_k p_k / |xi - z_k|^2 / sum_k p_k / |xi - z_k|^2, and
    |<left|right>| / (|left| |right|) is
    |sum_k p_k z_k / (xi - z_k)^2| / sum_k p_k / |xi - z_k|^2.  Every
    level's charge counts, dark ones included.  Roots within 1e-10 of a
    level phase raise RootTooCloseError.
    """
    p, z = config.p, config.phases
    xis = np.asarray(roots, dtype=complex)
    _guard_roots(xis, z, p)
    inv = 1.0 / (xis[:, None] - z)
    weights = p * (inv * inv.conj()).real
    norm = weights.sum(axis=1)
    energies = weights @ config.energies / norm
    return energies, np.abs((inv * inv) @ (p * z)) / norm


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
