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
oracles for tests.  The regime needs none of the vectors: its checks
(``_disk_roots``, ``_exceptional``) are shared with ``full_spectrum``, and
``evolution.classify_regime`` feeds them level-wise overlaps.
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
    _guard_roots,
    charges as compute_charges,
    stationary_points,
)
from .errors import (
    ExceptionalSpectrumError,
    InvalidParameterError,
    NumericalFailureError,
)
from .models import SpectralDecomposition, _phase_fix, as_vector, spectral_decompose

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
class SurvivalSpectrum:
    """Complete classified eigensystem of one survival operator, as arrays.

    Column j of ``rights`` and ``lefts`` holds the unit right and left
    eigenvectors of ``xis[j]``.  The columns run zero, disk, circle, with
    ``counts`` columns of each kind (``kinds`` names them), and
    ``source_levels[j]`` is the level of a per-level circle state, -1
    for every other column (cross-level combinations included).
    ``stationary.groups`` are the charged levels grouped by shared phase;
    their number is w_eff, the count of distinct charges.
    """

    xis: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    source_levels: np.ndarray
    counts: tuple
    exceptional_flag: bool
    min_biorthogonal_overlap: float
    operator: EigenSurvivalOperator
    charge_config: object
    stationary: object

    @property
    def kinds(self):
        """The kind of every column, read off ``counts``."""
        return np.repeat(("zero", "disk", "circle"), self.counts)

    @functools.cached_property
    def overlaps(self):
        """<left_j|right_j> of every column."""
        return _vdots(self.lefts, self.rights)


def _vdots(lefts, rights):
    """np.vdot of each column pair, one column at a time."""
    return np.array([np.vdot(l, r) for l, r in zip(lefts.T, rights.T)], dtype=complex)


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
    """All unit-circle eigenstates built per level: (xis, vectors, levels).

    The columns of ``vectors`` are the DetectorSplit's ``dark_vectors``
    (``psi_d`` may be that split, whose threshold then decides which
    levels are dark); column j is its own left vector, with eigenvalue
    ``xis[j]`` = exp(-i E_k tau) of its level k = ``levels[j]``.
    """
    split = _as_split(decomp, psi_d)
    phases = np.exp(-1j * decomp.energies * tau)
    return phases[split.dark_levels], split.dark_vectors, split.dark_levels


def _cross_level_darks(split, config, groups):
    """Extra circle states (xis, vectors) when distinct bright levels alias
    in phase.

    Bright states of levels sharing one phase (the ``groups`` of
    ``stationary_points(config)``) support combinations with zero detector
    weight; the same recursion applies with alphas sqrt(p).
    """
    xis, vectors = [], [np.empty((split.decomp.dim, 0), dtype=complex)]
    for group in (g for g in groups if len(g) > 1):
        brights = np.column_stack([split.bright(k) for k in group])
        vectors.append(_dark_combinations(brights, np.sqrt(config.p[list(group)])))
        xis += [complex(config.phases[group[0]])] * (len(group) - 1)
    return np.array(xis, dtype=complex), np.column_stack(vectors)


def zero_eigenpair(U, psi_d):
    """The always-present xi = 0 pair (right U^-1|psi_d>, left |psi_d>) (dense oracle)."""
    U = np.asarray(U, dtype=complex)
    psi = as_vector(psi_d)
    return _phase_fix(U.conj().T @ psi), psi.copy()


def disk_eigenpairs(decomp, psi_d, tau, roots):
    """Resolvent-formula eigenvectors (xis, rights, lefts) for the supplied
    disk roots, column j for root j.

    right ~ (xi - U)^-1 |psi_d> = V (c / (xi - z)) and
    left ~ (conj(xi) - U^dag)^-1 U^dag |psi_d> = V (conj(z) c / (conj(xi) - conj(z))),
    each root one column of a single product with V.  Roots within 1e-10 of
    any level phase raise RootTooCloseError (``charges._guard_roots``).
    """
    split = _as_split(decomp, psi_d)
    s = EigenSurvivalOperator(decomp, split, tau)
    c, z = s.c, s.z
    xis = np.array([complex(xi) for xi in roots], dtype=complex)
    _guard_roots(xis, np.exp(-1j * decomp.energies * tau), split.p)
    zc = np.conj(z)[:, None]
    rights = decomp.vectors @ (c[:, None] / (xis - z[:, None]))
    lefts = decomp.vectors @ (zc * c[:, None] / (np.conj(xis) - zc))
    rights = _phase_fix(rights / np.linalg.norm(rights, axis=0))
    lefts = _phase_fix(lefts / np.linalg.norm(lefts, axis=0))
    return xis, rights, lefts


def _disk_roots(sp):
    """The stationary points other than xi = 0, all strictly inside the unit
    disk: a root on or outside the circle is a numerical failure."""
    if sp.max_abs >= 1.0:
        raise NumericalFailureError(
            f"stationary point |xi| = {sp.max_abs:.6g} is not strictly inside "
            "the unit disk"
        )
    return [r for r in sp.roots if r != 0]


def _exceptional(sp, min_biorth, n_circle, dim):
    """The exceptional flag and the (zero, disk, circle) counts of a spectrum.

    Coalesced stationary points (xi = 0 included) or a disk pair whose
    biorthogonal overlap is below COALESCENCE_TOL make it exceptional; any
    other spectrum must satisfy the partition
    dim = 1 + (w_eff - 1) + circle states.
    """
    n_zero = sp.roots.count(0)
    exceptional = bool(_coalesced(sp.roots)) or min_biorth < COALESCENCE_TOL
    counts = (1 + n_zero, len(sp.roots) - n_zero, n_circle)
    if not exceptional:
        w_eff = len(sp.groups)
        expected = (1, w_eff - 1, dim - w_eff)
        if counts != expected:
            raise NumericalFailureError(
                f"spectrum partition {counts} does not match expected {expected}"
            )
    return exceptional, counts


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
    dark_xis, darks, levels = dark_states(decomp, split, tau)
    cross_xis, cross = _cross_level_darks(split, config, sp.groups)

    zero_right = _phase_fix(decomp.vectors @ (np.conj(s_op.z) * s_op.c))
    disk_xis, disk_rights, disk_lefts = disk_eigenpairs(decomp, split, tau, _disk_roots(sp))
    min_biorth = float(min(map(abs, _vdots(disk_lefts, disk_rights)), default=1.0))
    exceptional, counts = _exceptional(sp, min_biorth, levels.size + cross_xis.size,
                                       decomp.dim)
    # Roots at xi = 0 are the exact zeros stationary_points counted.
    n_zero = counts[0]
    return SurvivalSpectrum(
        np.concatenate([np.zeros(n_zero, dtype=complex), disk_xis, dark_xis, cross_xis]),
        np.column_stack([zero_right] * n_zero + [disk_rights, darks, cross]),
        np.column_stack([split.vector] * n_zero + [disk_lefts, darks, cross]),
        np.concatenate([np.full(n_zero + disk_xis.size, -1), levels,
                        np.full(cross_xis.size, -1)]),
        counts,
        exceptional,
        min_biorth,
        operator=s_op,
        charge_config=config,
        stationary=sp,
    )


def completeness_check(spectrum):
    """Max deviation of sum |R><L| / <L|R> from the identity, in one product
    (R / <L|R>) L^dag of the spectrum's columns."""
    if spectrum.exceptional_flag:
        raise ExceptionalSpectrumError(
            "completeness identity is invalid at an exceptional point"
        )
    acc = (spectrum.rights / spectrum.overlaps) @ spectrum.lefts.conj().T
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))
