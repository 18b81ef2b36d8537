"""The survival operator S = (1 - |psi_d><psi_d|) U(tau) and its eigensystem.

The spectrum is assembled analytically; no dim x dim non-Hermitian matrix
is diagonalized: one eigenvalue is always 0 (right vector U^-1 psi_d),
unit-circle eigenvalues come from dark states (members of dark levels, and
a Gram-Schmidt recursion inside bright ones), and the remaining eigenvalues
are the charge-field stationary points (eigenvalues of the w x w
bright-space block of S) with rank-one resolvent eigenvectors (Golub,
"Some modified matrix eigenvalue problems", SIAM Rev. 15, 1973).

All of it works in the eigen-coordinates of H, where U(tau) is the vector
z = exp(-i e tau) and S is diagonal plus rank one.  ``_classify`` reads the
roots, counts, exceptional flag and disk |<L|R>| off the charges, for
``full_spectrum`` and ``evolution.classify_regime`` alike; eigenvectors are
built only when a spectrum's are read.  The dense ``propagator``,
``build_survival`` and ``zero_eigenpair(U, ...)`` remain as test oracles.
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
    disk_root_levels,
    stationary_points,
)
from .errors import (
    ExceptionalSpectrumError,
    InvalidParameterError,
    NumericalFailureError,
)
from .models import SpectralDecomposition, _phase_fix, _to_sites, as_vector, spectral_decompose

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

    The columns run zero, disk, circle, with ``counts`` columns of each
    kind (``kinds`` names them).  Column j has eigenvalue ``xis[j]``, unit
    eigenvectors of |<L|R>| = ``biorthogonal_overlaps[j]`` and, for a
    per-level circle state, ``source_levels[j]`` its level (-1 otherwise).
    ``stationary.groups`` are the charged levels grouped by shared phase;
    their number is w_eff.  The eigenvectors (columns of ``rights`` and
    ``lefts``) and their complex ``overlaps`` are built on first read.
    """

    xis: np.ndarray
    source_levels: np.ndarray
    biorthogonal_overlaps: np.ndarray
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
    def _blocks(self):
        """The disk rights and lefts, then the circle columns (their own lefts)."""
        s, split, (n_zero, n_disk, _) = self.operator, self.operator.detection, self.counts
        disk = disk_eigenpairs(s.decomp, split, s.tau, self.xis[n_zero : n_zero + n_disk])
        cross = _cross_level_darks(split, self.charge_config, self.stationary.groups)
        return disk[1], disk[2], split.dark_vectors, cross

    @functools.cached_property
    def rights(self):
        """Unit right eigenvectors, column j for ``xis[j]``; xi = 0 has U^-1 psi_d."""
        s, (disk, _, *circle) = self.operator, self._blocks
        zero = _phase_fix(_to_sites(s.decomp.vectors, np.conj(s.z) * s.c))
        return np.column_stack([zero] * self.counts[0] + [disk, *circle])

    @functools.cached_property
    def lefts(self):
        """Unit left eigenvectors, column j for ``xis[j]``; xi = 0 has psi_d."""
        _, disk, *circle = self._blocks
        psi = self.operator.detection.vector
        return np.column_stack([psi] * self.counts[0] + [disk, *circle])

    @functools.cached_property
    def overlaps(self):
        """<left_j|right_j> of every column."""
        return np.array([np.vdot(l, r) for l, r in zip(self.lefts.T, self.rights.T)])


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
    """Extra circle states, as columns, when distinct bright levels alias
    in phase: len(g) - 1 for each group g.

    Bright states of levels sharing one phase (the ``groups`` of
    ``stationary_points(config)``) support combinations with zero detector
    weight; the same recursion applies with alphas sqrt(p).
    """
    vectors = [np.empty((split.decomp.dim, 0), dtype=complex)]
    for group in (g for g in groups if len(g) > 1):
        brights = np.column_stack([split.bright(k) for k in group])
        vectors.append(_dark_combinations(brights, np.sqrt(config.p[list(group)])))
    return np.column_stack(vectors)


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
    each root one column of a single ``_to_sites`` product.  Roots within
    1e-10 of any level phase raise RootTooCloseError (``charges._guard_roots``).
    """
    split = _as_split(decomp, psi_d)
    s = EigenSurvivalOperator(decomp, split, tau)
    c, z = s.c, s.z
    xis = np.array([complex(xi) for xi in roots], dtype=complex)
    _guard_roots(xis, compute_charges(decomp, split, tau))
    zc = np.conj(z)[:, None]
    rights = _to_sites(decomp.vectors, c[:, None] / (xis - z[:, None]))
    lefts = _to_sites(decomp.vectors, zc * c[:, None] / (np.conj(xis) - zc))
    rights = _phase_fix(rights / np.linalg.norm(rights, axis=0))
    lefts = _phase_fix(lefts / np.linalg.norm(lefts, axis=0))
    return xis, rights, lefts


def _classify(split, config, sp):
    """The disk roots (those other than xi = 0), their ``disk_root_levels``
    energies and overlaps, the (zero, disk, circle) counts and the
    exceptional flag, read off the charges ``config`` of ``split`` and
    their stationary points ``sp``.

    A root on or outside the unit circle is a numerical failure.  Coalesced
    stationary points (xi = 0 included) or a disk overlap below
    COALESCENCE_TOL make the spectrum exceptional; any other spectrum must
    satisfy the partition dim = 1 + (w_eff - 1) + circle states.
    """
    if sp.max_abs >= 1.0:
        raise NumericalFailureError(
            f"stationary point |xi| = {sp.max_abs:.6g} is not strictly inside "
            "the unit disk"
        )
    disk = [r for r in sp.roots if r != 0]
    energies, overlaps = disk_root_levels(config, disk)
    n_circle = split.dark_levels.size + sum(len(g) - 1 for g in sp.groups)
    counts = (1 + len(sp.roots) - len(disk), len(disk), n_circle)
    exceptional = bool(_coalesced(sp.roots)) or min(overlaps, default=1.0) < COALESCENCE_TOL
    expected = (1, len(sp.groups) - 1, split.decomp.dim - len(sp.groups))
    if not exceptional and counts != expected:
        raise NumericalFailureError(
            f"spectrum partition {counts} does not match expected {expected}"
        )
    return disk, energies, overlaps, counts, exceptional


def full_spectrum(model, psi_d, tau, grouping_tol=None):
    """Classify the complete eigensystem of S from the charges.

    ``model`` is a HermitianModel, decomposed here with ``grouping_tol``, or
    an existing SpectralDecomposition, which is used as it stands.
    ``psi_d`` may be a DetectorSplit of that decomposition: a tau sweep
    then reuses its overlaps, charges and dark vectors, and only the
    phases and the stationary points are redone.  The split's threshold
    decides which levels are dark (the default one for a plain detection
    state).  No dim-sized vector is formed: |<L|R>| is |sum_k p_k conj(z_k)|
    at xi = 0, the ``disk_root_levels`` overlap on the disk and 1 on the
    circle (``_classify`` makes the checks); eigenvectors are built when read.
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
    config = compute_charges(decomp, split, tau)
    sp = stationary_points(config)
    disk, _, disk_overlaps, counts, exceptional = _classify(split, config, sp)
    # Each alias group adds a circle state per level beyond its first.
    n_zero, cross = counts[0], [g[0] for g in sp.groups for _ in g[1:]]
    return SurvivalSpectrum(
        np.concatenate([np.zeros(n_zero, dtype=complex), disk,
                        config.phases[split.dark_levels], config.phases[cross]]),
        np.concatenate([np.full(n_zero + len(disk), -1), split.dark_levels,
                        np.full(len(cross), -1)]),
        np.concatenate([np.full(n_zero, abs(config.p @ config.phases.conj())),
                        disk_overlaps, np.ones(counts[2])]),
        counts,
        exceptional,
        float(min(disk_overlaps, default=1.0)),
        operator=EigenSurvivalOperator(decomp, split, tau),
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
