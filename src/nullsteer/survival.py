"""The survival operator S = (1 - |psi_d><psi_d|) U(tau) and its eigensystem.

The spectrum is assembled analytically rather than by a general
non-Hermitian eigensolver: one eigenvalue is always 0 (right vector
U^-1 psi_d), unit-circle eigenvalues come from dark states (level members
orthogonal to the detector, completed by a Gram-Schmidt recursion inside
degenerate levels), and the remaining eigenvalues are the charge-field
stationary points with resolvent-formula eigenvectors.

All of it works in the eigen-coordinates of H, where U(tau) is the vector
z = exp(-i e tau) and S is diagonal plus rank one.  The dense
``propagator``, ``build_survival`` and ``zero_eigenpair(U, ...)`` remain as
oracles for tests.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .charges import (
    Charge,
    ChargeConfiguration,
    DEFAULT_TIE_TOL,
    ZERO_CHARGE_THRESHOLD,
    _coalesced_points,
    charges as compute_charges,
    stationary_points,
)
from .errors import (
    ExceptionalSpectrumError,
    InvalidParameterError,
    NumericalFailureError,
    RootTooCloseError,
)
from .models import SpectralDecomposition, as_vector, spectral_decompose

#: Overlaps below this count as exact detector orthogonality (state is dark).
ORTHOGONALITY_TOL = 1e-10

#: |xi| below this is classified as the zero eigenvalue.
ZERO_CLASS_TOL = 1e-10

#: Unit-circle phases closer than this are aliased (distinct levels sharing
#: one survival eigenvalue).
ALIAS_TOL = 1e-10

KIND_ZERO = "zero"
KIND_DISK = "disk"
KIND_CIRCLE = "circle"


@dataclasses.dataclass(frozen=True, eq=False)
class SurvivalOperator:
    """Matrix of one conditional step, with its provenance."""

    matrix: np.ndarray
    tau: float = None
    detection: object = None
    source_decomp: object = None

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclasses.dataclass(frozen=True, eq=False)
class EigenSurvivalOperator:
    """S in the eigen-coordinates x = V^dag v of H: x -> z*x - c (c^dag (z*x)).

    ``c`` = V^dag psi_d is the detector and ``z`` = exp(-i e tau) the
    diagonal of U(tau).  ``matrix``, the dense site-basis S, is built only
    on first access; it serves tests as an oracle.
    """

    decomp: SpectralDecomposition
    detection: object
    tau: float

    @functools.cached_property
    def c(self):
        return self.decomp.coords(self.detection)

    @functools.cached_property
    def z(self):
        return np.exp(-1j * self.decomp.column_energies * self.tau)

    @functools.cached_property
    def matrix(self):
        v = self.decomp.vectors
        u = (v * self.z) @ v.conj().T
        psi = as_vector(self.detection)
        return u - np.outer(psi, psi.conj() @ u)

    def apply(self, x):
        y = self.z * x
        return y - self.c * np.vdot(self.c, y)

    def energy(self, x):
        """Mean energy of an eigen-coordinate vector, sum_j e_j |x_j|^2."""
        return float(self.decomp.column_energies @ (np.abs(x) ** 2))


@dataclasses.dataclass(frozen=True, eq=False)
class EigenTriple:
    """One eigenvalue of S with unit-norm right and left eigenvectors.

    ``kind`` is "zero", "disk", or "circle".  ``source_level`` is the level
    index for per-level circle states (None for cross-level aliased
    combinations and for disk/zero states).  ``energy`` is <right|H|right>
    for circle states (the level energy when single-level).
    """

    xi: complex
    right: np.ndarray
    left: np.ndarray
    kind: str
    source_level: int = None
    energy: float = None


@dataclasses.dataclass(frozen=True, eq=False)
class SurvivalSpectrum:
    """Complete classified eigensystem of one survival operator."""

    triples: tuple
    counts: tuple
    exceptional_flag: bool
    min_biorthogonal_overlap: float
    operator: EigenSurvivalOperator = None
    charge_config: object = None
    stationary: object = None
    aliased_level_pairs: tuple = ()

    def by_kind(self, kind):
        return [t for t in self.triples if t.kind == kind]


def _phase_fix(v):
    idx = int(np.argmax(np.abs(v)))
    a = v[idx]
    if abs(a) == 0:
        return v
    return v * (abs(a) / a)


def build_survival(U, psi_d, tau=None, source_decomp=None):
    """Dense S = (1 - |psi_d><psi_d|) U for a unitary U (test oracle)."""
    U = np.asarray(U, dtype=complex)
    psi = as_vector(psi_d)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] != psi.size:
        raise InvalidParameterError("U must be square and match the detection state")
    if np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) > 1e-8:
        raise InvalidParameterError("U must be unitary")
    s = U - np.outer(psi, psi.conj() @ U)
    return SurvivalOperator(s, tau=tau, detection=psi_d, source_decomp=source_decomp)


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


def phase_aliasing(decomp, tau, tol=ALIAS_TOL):
    """Pairs (k, k') of distinct levels sharing a circle phase at this tau."""
    phases = np.exp(-1j * decomp.energies * tau)
    pairs = []
    for i in range(len(phases)):
        for j in range(i + 1, len(phases)):
            if abs(phases[i] - phases[j]) < tol:
                pairs.append((i, j))
    return tuple(pairs)


def dark_states(decomp, psi_d, tau, ortho_tol=ORTHOGONALITY_TOL):
    """All unit-circle eigenstates built per level.

    Members orthogonal to the detector are dark as they stand; each level's
    remaining members are sorted by descending overlap magnitude (ties by
    index) and fed to the Gram-Schmidt recursion, yielding g_eff - 1 dark
    combinations.  Each dark state carries xi = exp(-i E_k tau), equal left
    and right vectors, and its level energy.
    """
    psi = as_vector(psi_d)
    triples = []
    for k, lv in enumerate(decomp.levels):
        xi = complex(np.exp(-1j * lv.energy * tau))
        a = lv.eigenvectors.conj().T @ psi
        direct = [l for l in range(lv.degeneracy) if abs(a[l]) < ortho_tol]
        effective = [l for l in range(lv.degeneracy) if abs(a[l]) >= ortho_tol]
        for l in direct:
            v = _phase_fix(lv.eigenvectors[:, l].copy())
            triples.append(
                EigenTriple(xi, v, v, KIND_CIRCLE, source_level=k, energy=lv.energy)
            )
        if len(effective) > 1:
            order = sorted(effective, key=lambda l: (-abs(a[l]), l))
            w = lv.eigenvectors[:, order]
            coeffs = dark_combination_coeffs(a[order])
            for row in coeffs:
                v = _phase_fix(w @ row)
                v = v / np.linalg.norm(v)
                triples.append(
                    EigenTriple(xi, v, v, KIND_CIRCLE, source_level=k, energy=lv.energy)
                )
    return triples


def _cross_level_darks(decomp, psi_d, tau, config):
    """Extra circle states when distinct bright levels alias in phase.

    Bright states of levels sharing one phase support combinations with
    zero detector weight; the same recursion applies with alphas sqrt(p).
    """
    psi = as_vector(psi_d)
    groups = _alias_groups(config)
    triples = []
    for group in groups:
        if len(group) < 2:
            continue
        brights = []
        roots_p = []
        for k in group:
            lv = decomp.levels[k]
            amp = lv.eigenvectors.conj().T @ psi
            p = config.charges[k].p
            brights.append((lv.eigenvectors @ amp) / math.sqrt(p))
            roots_p.append(math.sqrt(p))
        coeffs = dark_combination_coeffs(np.array(roots_p))
        phase = config.charges[group[0]].phase
        for row in coeffs:
            v = sum(c * b for c, b in zip(row, brights))
            v = _phase_fix(v / np.linalg.norm(v))
            energy = decomp.mean_energy(v)
            triples.append(
                EigenTriple(phase, v, v, KIND_CIRCLE, source_level=None, energy=energy)
            )
    return triples


def _alias_groups(config):
    """Transitive groups of active charge indices with coinciding phases."""
    active_idx = [
        i for i, c in enumerate(config.charges) if c.p > config.zero_threshold
    ]
    groups = []
    used = set()
    for i in active_idx:
        if i in used:
            continue
        group = [i]
        used.add(i)
        changed = True
        while changed:
            changed = False
            for j in active_idx:
                if j in used:
                    continue
                if any(
                    abs(config.charges[j].phase - config.charges[g].phase) < ALIAS_TOL
                    for g in group
                ):
                    group.append(j)
                    used.add(j)
                    changed = True
        groups.append(sorted(group))
    return groups


def merged_charge_config(config):
    """Aliased active charges merged into single effective charges."""
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
    inert = [c for c in config.charges if c.p <= config.zero_threshold]
    # Zero charges are kept for the normalization invariant.
    return ChargeConfiguration(
        config.tau, tuple(merged) + tuple(inert), config.zero_threshold
    )


def bright_states(decomp, psi_d, zero_threshold=ZERO_CHARGE_THRESHOLD):
    """(level index, normalized projected detector) for each charged level."""
    psi = as_vector(psi_d)
    out = []
    for k, lv in enumerate(decomp.levels):
        amp = lv.eigenvectors.conj().T @ psi
        p = float(np.real(np.vdot(amp, amp)))
        if p > zero_threshold:
            out.append((k, (lv.eigenvectors @ amp) / math.sqrt(p)))
    return out


def zero_eigenpair(U, psi_d):
    """The always-present xi = 0 pair: right U^-1|psi_d>, left |psi_d> (dense oracle)."""
    U = np.asarray(U, dtype=complex)
    psi = as_vector(psi_d)
    right = _phase_fix(U.conj().T @ psi)
    return EigenTriple(0.0 + 0.0j, right, psi.copy(), KIND_ZERO)


def disk_eigenpairs(decomp, psi_d, tau, roots):
    """Resolvent-formula eigenvectors for the supplied disk roots.

    right ~ (xi - U)^-1 |psi_d> = V (c / (xi - z)) and
    left ~ (conj(xi) - U^dag)^-1 U^dag |psi_d> = V (conj(z) c / (conj(xi) - conj(z))),
    each root one column of a single product with V.  Roots within 1e-10 of
    any level phase are refused: the resolvent is singular there.
    """
    s = EigenSurvivalOperator(decomp, psi_d, tau)
    c, z = s.c, s.z
    xis = np.array([complex(xi) for xi in roots], dtype=complex)
    for xi in xis:
        if np.min(np.abs(xi - z)) < 1e-10:
            raise RootTooCloseError(
                f"root {xi:.6g} is within 1e-10 of a unit-circle phase"
            )
    zc = np.conj(z)[:, None]
    rights = decomp.vectors @ (c[:, None] / (xis - z[:, None]))
    lefts = decomp.vectors @ (zc * c[:, None] / (np.conj(xis) - zc))
    triples = []
    for xi, right, left in zip(xis, rights.T, lefts.T):
        right = _phase_fix(right / np.linalg.norm(right))
        left = _phase_fix(left / np.linalg.norm(left))
        triples.append(EigenTriple(complex(xi), right, left, KIND_DISK))
    return triples


def full_spectrum(model, psi_d, tau, grouping_tol=None, tie_tol=DEFAULT_TIE_TOL):
    """Assemble and classify the complete eigensystem of S.

    ``model`` is a HermitianModel, decomposed here with ``grouping_tol``, or
    an existing SpectralDecomposition, which is used as it stands.
    Non-exceptional spectra satisfy the count partition
    dim = 1 + (number of distinct charged phases - 1) + circle states.
    Total coalescence at 0 (and any stationary-point coalescence or loss of
    disk biorthogonality) sets the exceptional flag; the spectrum is still
    returned, but spectral evolution and the completeness identity refuse it.
    """
    if isinstance(model, SpectralDecomposition):
        if grouping_tol is not None:
            raise InvalidParameterError(
                "grouping_tol applies only when full_spectrum decomposes a model"
            )
        decomp = model
    else:
        decomp = spectral_decompose(model, grouping_tol)
    s_op = EigenSurvivalOperator(decomp, psi_d, tau)
    config = compute_charges(decomp, psi_d, tau)
    aliased = phase_aliasing(decomp, tau)

    darks = dark_states(decomp, psi_d, tau)
    darks += _cross_level_darks(decomp, psi_d, tau, config)
    effective = merged_charge_config(config)
    sp = stationary_points(effective, tie_tol=tie_tol)

    zero_right = _phase_fix(decomp.vectors @ (np.conj(s_op.z) * s_op.c))
    zero = EigenTriple(0.0 + 0.0j, zero_right, as_vector(psi_d).copy(), KIND_ZERO)
    triples = [zero]
    disk_roots = [r for r in sp.roots if abs(r) >= ZERO_CLASS_TOL]
    extra_zero = [r for r in sp.roots if abs(r) < ZERO_CLASS_TOL]
    for r in extra_zero:
        triples.append(EigenTriple(complex(r), zero.right, zero.left, KIND_ZERO))
    disk = disk_eigenpairs(decomp, psi_d, tau, disk_roots)
    triples += disk
    triples += darks

    overlaps = [abs(np.vdot(t.left, t.right)) for t in disk]
    min_biorth = float(min(overlaps)) if overlaps else 1.0
    exceptional = (
        bool(_coalesced_points(sp.roots)) or min_biorth < 1e-8 or bool(extra_zero)
    )

    counts = (1 + len(extra_zero), len(disk), len(darks))
    if not exceptional:
        w_eff = len(_alias_groups(config))
        expected = (1, w_eff - 1, decomp.dim - 1 - (w_eff - 1))
        if counts != expected:
            raise NumericalFailureError(
                f"spectrum partition {counts} does not match expected {expected}"
            )
    return SurvivalSpectrum(
        tuple(triples),
        counts,
        exceptional,
        min_biorth,
        operator=s_op,
        charge_config=config,
        stationary=sp,
        aliased_level_pairs=aliased,
    )


def completeness_check(spectrum):
    """Max deviation of sum |R><L| / <L|R> from the identity."""
    if spectrum.exceptional_flag:
        raise ExceptionalSpectrumError(
            "completeness identity is invalid at an exceptional point"
        )
    dim = spectrum.triples[0].right.size
    acc = np.zeros((dim, dim), dtype=complex)
    for t in spectrum.triples:
        acc += np.outer(t.right, t.left.conj()) / np.vdot(t.left, t.right)
    return float(np.max(np.abs(acc - np.eye(dim))))
