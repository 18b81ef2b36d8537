"""Electrostatic charge picture of the survival operator.

Each distinct level k carries a charge p_k = <psi_d|P_k|psi_d> sitting at
the unit-circle phase exp(-i E_k tau).  The nontrivial eigenvalues of the
survival operator are the stationary points of the 2-D field
F(xi) = sum_k p_k / (xi - exp(-i E_k tau)), i.e. roots of its numerator
polynomial.  Only the phases depend on tau: a ``DetectorSplit`` holds the
rest (detector overlaps, charges, dark vectors) for every tau.
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

#: Trailing polynomial coefficients below this relative size are deflated
#: into exact zero roots (keeps defective configurations at xi = 0 exact).
DEFLATION_REL_TOL = 1e-13

_NEWTON_MAX_ITER = 80


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
    the field and the stationary-point polynomial.
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
    """Roots of the field numerator: the disk eigenvalues.

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


def field(config, xi):
    """F(xi) = sum over nonzero charges of p_k / (xi - phase_k)."""
    xi = complex(xi)
    total = 0.0 + 0.0j
    for c in config.active():
        dz = xi - c.phase
        if abs(dz) < 1e-12:
            raise PoleError(
                f"field evaluated within 1e-12 of the charge at phase {c.phase:.6g}"
            )
        total += c.p / dz
    return total


def _field_and_derivative(active, xi):
    f = 0.0 + 0.0j
    fp = 0.0 + 0.0j
    for c in active:
        dz = xi - c.phase
        if abs(dz) < 1e-300:
            return None, None
        inv = 1.0 / dz
        f += c.p * inv
        fp -= c.p * inv * inv
    return f, fp


def _numerator_coefficients(active):
    # N(xi) = sum_k p_k prod_{j != k} (xi - phase_j), highest degree first.
    phases = [c.phase for c in active]
    coeffs = np.zeros(len(active), dtype=complex)
    for k, c in enumerate(active):
        others = phases[:k] + phases[k + 1 :]
        coeffs += c.p * np.poly(others)
    return coeffs


def _polish(active, xi):
    best = xi
    f, _ = _field_and_derivative(active, best)
    best_res = abs(f) if f is not None else math.inf
    x = xi
    for _ in range(_NEWTON_MAX_ITER):
        f, fp = _field_and_derivative(active, x)
        if f is None or fp == 0:
            break
        step = f / fp
        x = x - step
        f2, _ = _field_and_derivative(active, x)
        if f2 is not None and abs(f2) < best_res:
            best, best_res = x, abs(f2)
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return best, best_res


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


def stationary_points(config, tie_tol=DEFAULT_TIE_TOL):
    """All stationary points of the charge field, polished to full precision.

    Root finding uses the companion matrix of the numerator polynomial with
    Newton polishing on F itself.  Trailing coefficients that vanish to
    machine precision are deflated into exact zero roots first, so defective
    configurations report xi = 0 exactly rather than a 1e-8 cloud.
    """
    active = config.active()
    if not active:
        raise NoBrightSubspaceError(
            "all charges are zero: the detection state is fully dark"
        )
    coeffs = _numerator_coefficients(active)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    zero_roots = 0
    while len(coeffs) > 1 and abs(coeffs[-1]) <= DEFLATION_REL_TOL * scale:
        coeffs = coeffs[:-1]
        zero_roots += 1
    raw = list(np.roots(coeffs)) if len(coeffs) > 1 else []

    polished = []
    for r in raw:
        root, res = _polish(active, complex(r))
        polished.append((root, res))
    for _ in range(zero_roots):
        f, _ = _field_and_derivative(active, 0.0 + 0.0j)
        polished.append((0.0 + 0.0j, abs(f) if f is not None else math.inf))

    polished = _by_descending_modulus(polished)
    roots = tuple(p[0] for p in polished)
    residuals = tuple(p[1] for p in polished)
    max_abs = max((abs(r) for r in roots), default=0.0)
    argmax = tuple(i for i, r in enumerate(roots) if max_abs - abs(r) <= tie_tol)
    if not roots:
        argmax = ()
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
    pts = list(roots) + [0.0 + 0.0j]
    coalesced = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < COALESCENCE_TOL:
                coalesced.append(pts[i])
    return coalesced


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
