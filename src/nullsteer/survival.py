"""The survival operator S = (1 - |psi_d><psi_d|) U(tau) and its eigensystem.

The spectrum is assembled analytically; no dim x dim non-Hermitian matrix
is diagonalized: one eigenvalue is always 0 (right vector U^-1 psi_d),
unit-circle eigenvalues come from dark states (members of dark levels, and
a Gram-Schmidt recursion inside bright ones), and the remaining eigenvalues
are the charge-field stationary points (eigenvalues of the w x w
bright-space block of S) with resolvent-formula eigenvectors.

All of it works in the eigen-coordinates of H, where U(tau) is the vector
z = exp(-i e tau) and S is diagonal plus rank one.  The dense
``propagator``, ``build_survival`` and ``zero_eigenpair(U, ...)`` remain as
oracles for tests.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .charges import (
    COALESCENCE_TOL,
    _as_split,
    _coalesced,
    _dark_combinations,
    charges as compute_charges,
    stationary_points,
)
from .errors import (
    ExceptionalSpectrumError,
    InvalidParameterError,
    NumericalFailureError,
    RootTooCloseError,
)
from .models import SpectralDecomposition, _phase_fix, as_vector, spectral_decompose

KIND_ZERO = "zero"
KIND_DISK = "disk"
KIND_CIRCLE = "circle"


@dataclasses.dataclass(frozen=True, eq=False)
class SurvivalOperator:
    """Matrix of one conditional step."""

    matrix: np.ndarray


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

    ``stationary.groups`` are the charged levels grouped by shared phase;
    their number is w_eff, the count of distinct charges.
    """

    triples: tuple
    counts: tuple
    exceptional_flag: bool
    min_biorthogonal_overlap: float
    operator: EigenSurvivalOperator
    charge_config: object
    stationary: object

    def by_kind(self, kind):
        return [t for t in self.triples if t.kind == kind]


def build_survival(U, psi_d):
    """Dense S = (1 - |psi_d><psi_d|) U for a unitary U (test oracle)."""
    U = np.asarray(U, dtype=complex)
    psi = as_vector(psi_d)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] != psi.size:
        raise InvalidParameterError("U must be square and match the detection state")
    if np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) > 1e-8:
        raise InvalidParameterError("U must be unitary")
    s = U - np.outer(psi, psi.conj() @ U)
    return SurvivalOperator(s)


def dark_states(decomp, psi_d, tau):
    """All unit-circle eigenstates built per level.

    The vectors are the DetectorSplit's ``darks`` (``psi_d`` may be that
    split, whose threshold then decides which levels are dark); each dark
    state carries xi = exp(-i E_k tau), equal left and right vectors, and
    its level energy.
    """
    phases = np.exp(-1j * decomp.energies * tau)
    return [
        EigenTriple(complex(phases[k]), v, v, KIND_CIRCLE, source_level=k,
                    energy=decomp.levels[k].energy)
        for k, v in _as_split(decomp, psi_d).darks
    ]


def _cross_level_darks(split, config, groups):
    """Extra circle states when distinct bright levels alias in phase.

    Bright states of levels sharing one phase (the ``groups`` of
    ``stationary_points(config)``) support combinations with zero detector
    weight; the same recursion applies with alphas sqrt(p).
    """
    triples = []
    for group in (g for g in groups if len(g) > 1):
        brights = np.column_stack([split.bright(k) for k in group])
        alphas = np.sqrt([config.charges[k].p for k in group])
        phase = config.charges[group[0]].phase
        for v in _dark_combinations(brights, alphas):
            energy = split.decomp.mean_energy(v)
            triples.append(
                EigenTriple(phase, v, v, KIND_CIRCLE, source_level=None, energy=energy)
            )
    return triples


def bright_states(decomp, psi_d):
    """(level index, normalized projected detector) for each bright level
    (of a split ``psi_d``, by its threshold)."""
    split = _as_split(decomp, psi_d)
    return [(int(k), split.bright(k)) for k in split.bright_levels]


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
    any level phase are refused: the resolvent is singular there.  The
    message names the level and its charge, since a zero_threshold at or
    above that charge makes the level dark and its root goes.
    """
    split = _as_split(decomp, psi_d)
    s = EigenSurvivalOperator(decomp, split, tau)
    c, z = s.c, s.z
    xis = np.array([complex(xi) for xi in roots], dtype=complex)
    close = np.argwhere(np.abs(xis[:, None] - np.exp(-1j * decomp.energies * tau)) < 1e-10)
    if close.size:
        i, k = close[0]
        raise RootTooCloseError(
            f"root {xis[i]:.6g} is within 1e-10 of a unit-circle phase, that of "
            f"level {k} with charge {split.p[k]:.3g}; a zero_threshold at or above "
            "that charge treats the level as dark"
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


def full_spectrum(model, psi_d, tau, grouping_tol=None):
    """Assemble and classify the complete eigensystem of S.

    ``model`` is a HermitianModel, decomposed here with ``grouping_tol``, or
    an existing SpectralDecomposition, which is used as it stands.
    ``psi_d`` may be a DetectorSplit of that decomposition: a tau sweep
    then reuses its overlaps, charges and dark vectors, and only the
    phases, the stationary points and the disk vectors are redone.  The
    split's threshold decides which levels are dark (the default one for a
    plain detection state).
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
    config = compute_charges(decomp, split, tau)
    sp = stationary_points(config)
    darks = dark_states(decomp, split, tau) + _cross_level_darks(split, config, sp.groups)
    if sp.max_abs >= 1.0:
        raise NumericalFailureError(
            f"stationary point |xi| = {sp.max_abs:.6g} is not strictly inside "
            "the unit disk"
        )

    zero_right = _phase_fix(decomp.vectors @ (np.conj(s_op.z) * s_op.c))
    zero = EigenTriple(0.0 + 0.0j, zero_right, split.vector.copy(), KIND_ZERO)
    # Roots at xi = 0 are the exact zeros stationary_points counted.
    n_zero = sp.roots.count(0)
    disk = disk_eigenpairs(decomp, split, tau, [r for r in sp.roots if r != 0])
    min_biorth = float(min((abs(np.vdot(t.left, t.right)) for t in disk), default=1.0))
    exceptional = bool(_coalesced(sp.roots)) or min_biorth < COALESCENCE_TOL

    counts = (1 + n_zero, len(disk), len(darks))
    if not exceptional:
        w_eff = len(sp.groups)
        expected = (1, w_eff - 1, decomp.dim - 1 - (w_eff - 1))
        if counts != expected:
            raise NumericalFailureError(
                f"spectrum partition {counts} does not match expected {expected}"
            )
    return SurvivalSpectrum(
        tuple([zero] * (1 + n_zero) + disk + darks),
        counts,
        exceptional,
        min_biorth,
        operator=s_op,
        charge_config=config,
        stationary=sp,
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
