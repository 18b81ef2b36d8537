"""The survival operator S = (1 - |psi_d><psi_d|) U(tau) and its eigensystem.

The spectrum is assembled analytically; no dim x dim non-Hermitian matrix
is diagonalized: one eigenvalue is always 0 (right vector U^-1 psi_d),
unit-circle eigenvalues come from dark states (level members orthogonal to
the detector, completed by a Gram-Schmidt recursion inside degenerate
levels), and the remaining eigenvalues are the charge-field stationary
points (eigenvalues of the w x w bright-space block of S) with
resolvent-formula eigenvectors.

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
    ORTHOGONALITY_TOL,
    ZERO_CHARGE_THRESHOLD,
    _as_split,
    _coalesced_points,
    charges as compute_charges,
    dark_combination_coeffs,
    stationary_points,
)
from .errors import (
    ExceptionalSpectrumError,
    InvalidParameterError,
    NumericalFailureError,
    RootTooCloseError,
)
from .models import SpectralDecomposition, _phase_fix, as_vector, spectral_decompose

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

    ``c`` = V^dag psi_d is the detector (read from ``detection`` when that
    is a DetectorSplit of ``decomp``) and ``z`` = exp(-i e tau) the
    diagonal of U(tau).  ``matrix``, the dense site-basis S, is built only
    on first access; it serves tests as an oracle.
    """

    decomp: SpectralDecomposition
    detection: object
    tau: float

    @functools.cached_property
    def c(self):
        return _as_split(self.decomp, self.detection).c

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
    """Complete classified eigensystem of one survival operator.

    ``alias_groups`` are the charged levels grouped by shared phase (see
    ``_alias_groups``); their number is w_eff, the count of distinct charges.
    """

    triples: tuple
    counts: tuple
    exceptional_flag: bool
    min_biorthogonal_overlap: float
    operator: EigenSurvivalOperator = None
    charge_config: object = None
    stationary: object = None
    aliased_level_pairs: tuple = ()
    alias_groups: tuple = ()

    def by_kind(self, kind):
        return [t for t in self.triples if t.kind == kind]


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


def phase_aliasing(decomp, tau, tol=ALIAS_TOL):
    """Pairs (k, k') of distinct levels sharing a circle phase at this tau."""
    phases = np.exp(-1j * decomp.energies * tau)
    close = np.triu(np.abs(phases[:, None] - phases[None, :]) < tol, 1)
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(close)))


def dark_states(decomp, psi_d, tau, ortho_tol=ORTHOGONALITY_TOL):
    """All unit-circle eigenstates built per level.

    The vectors are the DetectorSplit's ``darks`` (``psi_d`` may be that
    split); each dark state carries xi = exp(-i E_k tau), equal left and
    right vectors, and its level energy.
    """
    phases = np.exp(-1j * decomp.energies * tau)
    return [
        EigenTriple(complex(phases[k]), v, v, KIND_CIRCLE, source_level=k,
                    energy=decomp.levels[k].energy)
        for k, v in _as_split(decomp, psi_d, ortho_tol).darks
    ]


def _cross_level_darks(split, config, groups):
    """Extra circle states when distinct bright levels alias in phase.

    Bright states of levels sharing one phase (the ``groups`` of
    ``_alias_groups(config)``) support combinations with zero detector
    weight; the same recursion applies with alphas sqrt(p).
    """
    triples = []
    for group in groups:
        if len(group) < 2:
            continue
        brights = [split.bright(k) for k in group]
        coeffs = dark_combination_coeffs(
            np.array([math.sqrt(config.charges[k].p) for k in group])
        )
        phase = config.charges[group[0]].phase
        for row in coeffs:
            v = sum(c * b for c, b in zip(row, brights))
            v = _phase_fix(v / np.linalg.norm(v))
            energy = split.decomp.mean_energy(v)
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
        groups.append(tuple(sorted(group)))
    return tuple(groups)


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
    inert = [c for c in config.charges if c.p <= config.zero_threshold]
    # Zero charges are kept for the normalization invariant.
    return ChargeConfiguration(
        config.tau, tuple(merged) + tuple(inert), config.zero_threshold
    )


def bright_states(decomp, psi_d, zero_threshold=ZERO_CHARGE_THRESHOLD):
    """(level index, normalized projected detector) for each charged level."""
    split = _as_split(decomp, psi_d)
    return [(int(k), split.bright(k)) for k in np.flatnonzero(split.p > zero_threshold)]


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
    close = np.min(np.abs(xis[:, None] - z), axis=1) < 1e-10
    if close.any():
        raise RootTooCloseError(
            f"root {xis[close][0]:.6g} is within 1e-10 of a unit-circle phase"
        )
    zc = np.conj(z)[:, None]
    rights = decomp.vectors @ (c[:, None] / (xis - z[:, None]))
    lefts = decomp.vectors @ (zc * c[:, None] / (np.conj(xis) - zc))
    rights = _phase_fix(rights / np.linalg.norm(rights, axis=0))
    lefts = _phase_fix(lefts / np.linalg.norm(lefts, axis=0))
    return [
        EigenTriple(complex(xi), right, left, KIND_DISK)
        for xi, right, left in zip(xis, rights.T, lefts.T)
    ]


def full_spectrum(model, psi_d, tau, grouping_tol=None, tie_tol=DEFAULT_TIE_TOL,
                  zero_threshold=ZERO_CHARGE_THRESHOLD):
    """Assemble and classify the complete eigensystem of S.

    ``model`` is a HermitianModel, decomposed here with ``grouping_tol``, or
    an existing SpectralDecomposition, which is used as it stands.
    ``psi_d`` may be a DetectorSplit of that decomposition: a tau sweep
    then reuses its overlaps, charges and dark vectors, and only the
    phases, the stationary points and the disk vectors are redone.
    ``zero_threshold`` is the charge below which a level counts as dark.
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
    split = _as_split(decomp, psi_d)
    s_op = EigenSurvivalOperator(decomp, split, tau)
    config = compute_charges(decomp, split, tau, zero_threshold)
    aliased = phase_aliasing(decomp, tau)
    groups = _alias_groups(config)

    darks = dark_states(decomp, split, tau)
    darks += _cross_level_darks(split, config, groups)
    effective = merged_charge_config(config, groups)
    sp = stationary_points(effective, tie_tol=tie_tol)

    zero_right = _phase_fix(decomp.vectors @ (np.conj(s_op.z) * s_op.c))
    zero = EigenTriple(0.0 + 0.0j, zero_right, split.vector.copy(), KIND_ZERO)
    triples = [zero]
    if sp.max_abs >= 1.0:
        raise NumericalFailureError(
            f"stationary point |xi| = {sp.max_abs:.6g} is not strictly inside "
            "the unit disk"
        )
    disk_roots = [r for r in sp.roots if abs(r) >= ZERO_CLASS_TOL]
    extra_zero = [r for r in sp.roots if abs(r) < ZERO_CLASS_TOL]
    for r in extra_zero:
        triples.append(EigenTriple(complex(r), zero.right, zero.left, KIND_ZERO))
    disk = disk_eigenpairs(decomp, split, tau, disk_roots)
    triples += disk
    triples += darks

    overlaps = [abs(np.vdot(t.left, t.right)) for t in disk]
    min_biorth = float(min(overlaps)) if overlaps else 1.0
    exceptional = (
        bool(_coalesced_points(sp.roots)) or min_biorth < 1e-8 or bool(extra_zero)
    )

    counts = (1 + len(extra_zero), len(disk), len(darks))
    if not exceptional:
        w_eff = len(groups)
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
        alias_groups=groups,
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
