"""Electrostatic charge picture of the survival operator.

Each distinct level k carries a charge p_k = <psi_d|P_k|psi_d> sitting at
the unit-circle phase z_k = exp(-i E_k tau).  The nontrivial eigenvalues of
the survival operator are the stationary points of the 2-D field
F(xi) = sum_k p_k / (xi - z_k).  They are found as the eigenvalues of S on
the bright subspace, the w x w matrix (I - b b^T) diag(z) with b = sqrt(p);
roots at xi = 0 are counted from the charge moments and reported exact,
and every other root gets a few Newton steps on F, all roots at once.
Only the phases depend on tau: a ``DetectorSplit`` holds the rest
(detector overlaps, charges, dark vectors) for every tau.
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
)
from .models import SpectralDecomposition, _phase_fix, as_vector

#: Charges below this absolute value are treated as exactly zero (level dark).
ZERO_CHARGE_THRESHOLD = 1e-12

#: Overlaps below this count as exact detector orthogonality (state is dark).
ORTHOGONALITY_TOL = 1e-10

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

    def active(self):
        """Charges above the zero threshold, in level order."""
        return [c for c in self.charges if c.p > self.zero_threshold]


@dataclasses.dataclass(frozen=True)
class StationaryPoints:
    """Stationary points of the charge field: the disk eigenvalues.

    ``roots`` run by descending modulus; roots whose moduli agree to
    COALESCENCE_TOL (a conjugate pair) run by descending imaginary part,
    then real part.  ``argmax_set`` indexes every root whose modulus ties
    the maximum within the tie tolerance used to compute it.
    """

    roots: tuple
    residuals: tuple
    max_abs: float
    argmax_set: tuple


@dataclasses.dataclass(frozen=True)
class ExceptionalReport:
    is_exceptional: bool
    coalesced_roots: tuple
    min_biorthogonality: float


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


@dataclasses.dataclass(frozen=True, eq=False)
class DetectorSplit:
    """The tau-independent part of one detector in one decomposition.

    ``c`` = V^dag psi_d, the level charges ``p`` and the dark vectors
    ``darks`` do not depend on tau, so a tau sweep builds them once.
    ``vector`` is the detection state, so a split may be passed wherever a
    detection state is expected; the functions taking (decomp, psi_d) read
    from it when it belongs to their decomposition.
    """

    decomp: SpectralDecomposition
    detection: object
    ortho_tol: float = ORTHOGONALITY_TOL

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

        Members orthogonal to the detector within ``ortho_tol`` are dark as
        they stand; each level's remaining members are sorted by descending
        overlap magnitude (ties by index) and fed to the Gram-Schmidt
        recursion, yielding g_eff - 1 dark combinations.
        """
        out = []
        for k, lv in enumerate(self.decomp.levels):
            a = self.overlaps(k)
            effective = []
            for l in range(lv.degeneracy):
                if abs(a[l]) < self.ortho_tol:
                    out.append((k, _phase_fix(lv.eigenvectors[:, l].copy())))
                else:
                    effective.append(l)
            if len(effective) > 1:
                order = sorted(effective, key=lambda l: (-abs(a[l]), l))
                w = lv.eigenvectors[:, order]
                for row in dark_combination_coeffs(a[order]):
                    v = _phase_fix(w @ row)
                    out.append((k, v / np.linalg.norm(v)))
        for _, v in out:
            v.setflags(write=False)
        return tuple(out)


def _as_split(decomp, psi_d, ortho_tol=ORTHOGONALITY_TOL):
    """``psi_d`` when it is already the split wanted, else a new split of it."""
    if (isinstance(psi_d, DetectorSplit) and psi_d.decomp is decomp
            and psi_d.ortho_tol == ortho_tol):
        return psi_d
    return DetectorSplit(decomp, psi_d, ortho_tol)


def config_from_levels(energies, charge_values, tau, zero_threshold=ZERO_CHARGE_THRESHOLD):
    """Assemble a ChargeConfiguration directly from level data."""
    charges_ = tuple(
        Charge(float(p), float(e), complex(np.exp(-1j * float(e) * float(tau))))
        for p, e in zip(charge_values, energies)
    )
    return ChargeConfiguration(float(tau), charges_, float(zero_threshold))


def charges(decomp, psi_d, tau, zero_threshold=ZERO_CHARGE_THRESHOLD):
    """Charge of every level of the decomposition at sampling time tau."""
    p = _as_split(decomp, psi_d).p
    return config_from_levels(decomp.energies, p, tau, zero_threshold)


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

    Each root keeps its iterate of least |F|; a root on a charge (aliased
    phases left unmerged) keeps its place with residual inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f, fp = _field_terms(p, z, xis)
        best, res = xis, np.nan_to_num(np.abs(f), nan=math.inf)
        x = xis
        for _ in range(3):
            x = x - f / fp
            f, fp = _field_terms(p, z, x)
            better = np.abs(f) < res  # false for nan
            best, res = np.where(better, x, best), np.where(better, np.abs(f), res)
    return best, res


def stationary_points(config, tie_tol=DEFAULT_TIE_TOL):
    """All stationary points of the charge field, polished to full precision.

    On the bright subspace, spanned by the normalized level projections of
    the detector, S is the w x w matrix S_B = (I - b b^T) diag(z) with
    b = sqrt(p) and z the charge phases.  Its eigenvalues are xi = 0, whose
    right vector is conj(z) b, and the w - 1 stationary points.  The
    stationary points at xi = 0, counted from the vanishing charge moments,
    are reported as exact zeros rather than the 1e-8 cloud an eigensolver
    gives for a defective matrix; the others get a few Newton steps on F.
    """
    p, z = _active_arrays(config)
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
    argmax = tuple(i for i, r in enumerate(roots) if max_abs - abs(r) <= tie_tol)
    return StationaryPoints(roots, residuals, max_abs, argmax)


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


def _coalesced_points(roots):
    """Each of ``roots`` and xi = 0 within COALESCENCE_TOL of a later one."""
    pts = np.append(np.asarray(roots, dtype=complex), 0j)
    close = np.triu(np.abs(pts[:, None] - pts) < COALESCENCE_TOL, 1)
    return [complex(pts[i]) for i in np.nonzero(close)[0]]


def detect_exceptional(config, spectrum_hint=None):
    """Flag configurations whose stationary points coalesce.

    Coalescence is tested among all stationary points plus the ever-present
    xi = 0; when a spectrum is supplied its minimum disk biorthogonal
    overlap is also consulted.
    """
    coalesced = _coalesced_points(stationary_points(config).roots)
    min_biorth = math.nan
    if spectrum_hint is not None:
        overlaps = [
            abs(np.vdot(t.left, t.right))
            for t in spectrum_hint.triples
            if t.kind == "disk"
        ]
        if overlaps:
            min_biorth = float(min(overlaps))
    is_exceptional = bool(coalesced) or (
        not math.isnan(min_biorth) and min_biorth < COALESCENCE_TOL
    )
    return ExceptionalReport(is_exceptional, tuple(coalesced), min_biorth)
