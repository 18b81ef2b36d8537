"""Conditional evolution under repeated null measurements.

Two equivalent routes are provided and kept independent: iterated
application of the survival operator with per-step renormalization, and
the spectral formula summing disk and circle eigencomponents.  The
asymptotic regime (dark dominated, fixed point, oscillatory, exceptional)
is classified level by level from the charges, their stationary points
and the initial state's level weights.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .charges import DEFAULT_TIE_TOL, _alias_groups, disk_root_levels
from .errors import (
    CertainDetectionError,
    ExceptionalSpectrumError,
    InvalidParameterError,
    UnsupportedMultiplicityError,
)
from .models import as_vector
from .survival import _disk_roots, _exceptional

#: A raw step norm below this means the next measurement detects for sure.
CERTAIN_DETECTION_TOL = 1e-14

#: Default dark-overlap threshold separating regime A from the disk regimes.
DEFAULT_DARK_OVERLAP_TOL = 1e-10

#: Amplitude-ratio threshold defining the reported crossover step.
CROSSOVER_RATIO = 0.01

DARK_DOMINATED = "DarkDominated"
FIXED_POINT = "FixedPoint"
OSCILLATORY = "Oscillatory"
EXCEPTIONAL = "Exceptional"


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """Arrays over the steps n = 0..n_steps, the initial state included.

    Row n of ``coords`` is the state after n steps in the coordinates
    evolve worked in; ``basis`` maps them to the site basis (None when
    they are the site basis).  The other arrays hold one value per step.
    """

    coords: np.ndarray
    survival_amplitude: np.ndarray
    cumulative_no_detection_probability: np.ndarray
    mean_energy: np.ndarray
    phase: np.ndarray
    basis: np.ndarray = None

    @property
    def n_steps(self):
        return self.coords.shape[0] - 1

    def states(self):
        """(n_steps + 1, dim) site-basis states, converted in one product."""
        x = self.coords
        return x if self.basis is None else (self.basis @ x.T).T


@dataclasses.dataclass(frozen=True, eq=False)
class AsymptoticRegime:
    """Large-n classification of one start at one tau.

    ``dominant`` holds the dominant disk roots, or for ``DarkDominated``
    the phases that carry dark weight (one per group of aliased levels).
    """

    kind: str
    dominant: tuple
    crossover_step: int
    predicted_energy: float = None
    oscillation: dict = None


@dataclasses.dataclass(frozen=True, eq=False)
class OscillationDescriptor:
    """Two-eigenvalue oscillation data and the closed-form state family."""

    a1: complex
    a2: complex
    energies: tuple
    mean_phase: float
    relative_phase: float
    state_at: object


def _dense_matrix(S):
    return S.matrix if hasattr(S, "matrix") else np.asarray(S, dtype=complex)


def step(S, psi):
    """One conditional step: apply S, record the norm, renormalize."""
    raw = _dense_matrix(S) @ as_vector(psi)
    amp = float(np.linalg.norm(raw))
    if amp < CERTAIN_DETECTION_TOL:
        raise CertainDetectionError()
    return raw / amp, amp


def evolve(S, psi_in, n_steps, H=None):
    """Iterate the survival operator, recording energy, norm, and phase.

    ``psi_in`` is a site-basis state.  An EigenSurvivalOperator supplies
    its own step and mean energy in the eigen-coordinates of H, where the
    loop then runs (``H`` is not needed); a dense matrix or
    SurvivalOperator is applied as it stands, with ``H`` for the energy.
    The cumulative no-detection probability is accumulated in log space;
    the phase record accumulates arg <psi_{n-1}|S|psi_{n-1}>, which equals
    n arg(xi) when starting in an eigenvector.  It is defined modulo 2 pi:
    when that overlap is negative real, rounding picks +pi or -pi.
    """
    if hasattr(S, "apply"):
        apply, energy, basis = S.apply, S.energy, S.decomp.vectors
        psi = S.decomp.coords(psi_in)
    else:
        if H is None:
            raise InvalidParameterError("a dense survival operator needs H")
        m = _dense_matrix(S)
        h = np.asarray(H, dtype=complex)
        basis = None
        psi = as_vector(psi_in)

        def apply(v):
            return m @ v

        def energy(v):
            return float(np.real(np.vdot(v, h @ v)))

    psi = psi / np.linalg.norm(psi)
    coords = np.empty((n_steps + 1, psi.size), dtype=complex)
    amps, probs, energies, phases = np.ones((4, n_steps + 1))
    coords[0], energies[0], phases[0] = psi, energy(psi), 0.0
    log_p = 0.0
    phase = 0.0
    for n in range(1, n_steps + 1):
        raw = apply(psi)
        amp = float(np.linalg.norm(raw))
        if amp < CERTAIN_DETECTION_TOL:
            raise CertainDetectionError(step=n)
        phase += float(np.angle(np.vdot(psi, raw)))
        psi = raw / amp
        log_p += 2.0 * math.log(amp)
        coords[n], amps[n], probs[n] = psi, amp, math.exp(log_p)
        energies[n], phases[n] = energy(psi), phase
    return Trajectory(coords, amps, probs, energies, phases, basis)


def evolve_spectral(spectrum, psi_in, n, H):
    """State and mean energy after n steps from the eigensystem sum.

    The coefficients <L_j|psi> / <L_j|R_j> of the disk and circle columns
    come in one product.  Powers xi^n are evaluated with a shared
    log-modulus shift so that deep-disk components underflow gracefully
    instead of zeroing the whole sum.
    """
    if spectrum.exceptional_flag:
        raise ExceptionalSpectrumError("spectral evolution needs a diagonalizable S")
    psi = as_vector(psi_in)
    psi = psi / np.linalg.norm(psi)
    h = np.asarray(H, dtype=complex)
    if n == 0:
        return psi, float(np.real(np.vdot(psi, h @ psi)))

    cols = slice(spectrum.counts[0], None)
    xis = spectrum.xis[cols]
    coeffs = (spectrum.lefts[:, cols].conj().T @ psi) / spectrum.overlaps[cols]
    logmods = n * np.log(np.abs(xis))
    active = logmods[np.abs(coeffs) > 0]
    if not active.size:
        raise CertainDetectionError(step=1)
    # Every active column lies at or below the shift, and exp underflows to
    # 0 far below it; the clamp only keeps columns of coefficient 0 finite.
    mags = np.exp(np.minimum(logmods - active.max(), 0.0))
    weights = coeffs * mags * np.exp(1j * n * np.angle(xis))
    out = spectrum.rights[:, cols] @ weights
    norm = np.linalg.norm(out)
    if norm < CERTAIN_DETECTION_TOL:
        raise CertainDetectionError(step=1)
    out = out / norm
    return out, float(np.real(np.vdot(out, h @ out)))


def classify_regime(
    config,
    stationary,
    start,
    tie_tol=DEFAULT_TIE_TOL,
    dark_overlap_tol=DEFAULT_DARK_OVERLAP_TOL,
):
    """Classify the large-n behaviour of one start at one tau, level by level.

    ``config`` is the charge configuration at tau of the detector split
    that weighed the start, ``stationary`` its ``stationary_points`` and
    ``start`` that split's ``weigh(psi_in)``, formed once per run.  No
    dim-sized vector is formed here: the spectrum's checks (roots inside
    the disk, the 1e-10 phase guard, the exceptional test and the count
    partition) and both decisions read the charges.

    Two decisions make the regime.  Dark weight is checked first: any
    weight above ``dark_overlap_tol`` outlives every disk component.  It is
    each level's own dark weight plus, for each alias group g, the dark
    part of the group's bright span, sum_k |a_k|^2 with
    a_k = o_k / sqrt(p_k) - sqrt(p_k) (sum_g o) / (sum_g p); the predicted
    energy weighs each level's energy by its share, cross-level terms
    included, and ``dominant`` holds the phase of each alias group of levels,
    dark ones too, weighing above ``dark_overlap_tol``.  Otherwise the disk roots
    within ``tie_tol`` of the top modulus decide between a fixed point
    (single root) and persistent oscillation (tied pair or larger,
    reported with the full tie); ``dominant`` holds those roots.

    ``crossover_step`` is the first n at which the coefficient-free ratio
    (|xi_2| / |xi_1|)^n falls below CROSSOVER_RATIO: with dark weight
    |xi_1| = 1 and xi_2 is the top disk root, otherwise xi_1 is the top
    disk root and xi_2 the largest one outside its tie.
    """
    split = start.split
    if config.zero_threshold != split.zero_threshold or config.p.size != start.o.size:
        raise InvalidParameterError("the charges and the start come from different splits")
    disk = _disk_roots(stationary)
    root_energies, overlaps = disk_root_levels(config, disk)
    aliased = [list(g) for g in stationary.groups if len(g) > 1]
    n_circle = split.decomp.dim - split.bright_levels.size + sum(len(g) - 1 for g in aliased)
    exceptional, _ = _exceptional(stationary, min(overlaps, default=1.0), n_circle,
                                  split.decomp.dim)

    weights = start.dark.copy()
    for g in aliased:
        p, o = config.p[g], start.o[g]
        weights[g] += np.abs(o / np.sqrt(p) - np.sqrt(p) * (o.sum() / p.sum())) ** 2
    total = float(weights.sum())
    dark_dominated = total > dark_overlap_tol

    moduli = [abs(xi) for xi in disk]
    top = max(moduli, default=None)
    tied = [top - m <= tie_tol for m in moduli]
    dominant = tuple(xi for xi, tie in zip(disk, tied) if tie)
    second = max((m for m, tie in zip(moduli, tied) if not tie), default=None)
    m1, m2 = (1.0, top) if dark_dominated else (top, second)
    crossover = 1 if not m2 else max(
        1, math.ceil(math.log(CROSSOVER_RATIO) / math.log(m2 / m1)))

    if exceptional:
        return AsymptoticRegime(EXCEPTIONAL, (), crossover)
    if dark_dominated:
        energy = float(weights @ config.energies / total)
        dominant = tuple(complex(config.phases[g[0]])
                         for g in _alias_groups(config.phases, range(weights.size))
                         if weights[list(g)].sum() > dark_overlap_tol)
        return AsymptoticRegime(DARK_DOMINATED, dominant, crossover,
                                predicted_energy=energy)
    if not disk:
        raise CertainDetectionError(step=1)
    energies = tuple(float(e) for e, tie in zip(root_energies, tied) if tie)
    if len(dominant) == 1:
        return AsymptoticRegime(FIXED_POINT, dominant, crossover,
                                predicted_energy=energies[0])
    osc = {"energies": energies}
    if len(dominant) == 2:
        phi = [float(np.angle(xi)) for xi in dominant]
        osc["relative_phase"] = 0.5 * (phi[0] - phi[1])
    return AsymptoticRegime(OSCILLATORY, dominant, crossover, oscillation=osc)


def oscillation_descriptor(regime, spectrum, psi_in):
    """Closed-form large-n family for a dominant eigenvalue pair.

    ``spectrum`` is the ``full_spectrum`` at the regime's tau: its disk
    columns give the pair's eigenvectors.
    """
    if regime.kind != OSCILLATORY or len(regime.dominant) != 2:
        raise UnsupportedMultiplicityError(
            f"oscillation descriptor needs exactly 2 dominant eigenvalues, "
            f"got {len(regime.dominant)} ({regime.kind})"
        )
    n_zero, n_disk, _ = spectrum.counts
    disk = spectrum.xis[n_zero : n_zero + n_disk].tolist()
    if not all(xi in disk for xi in regime.dominant):
        raise InvalidParameterError("the spectrum does not hold the regime's dominant roots")
    psi = as_vector(psi_in)
    psi = psi / np.linalg.norm(psi)
    cols = [n_zero + disk.index(xi) for xi in regime.dominant]
    xi1, xi2 = spectrum.xis[cols]
    r1, r2 = spectrum.rights[:, cols].T
    a1, a2 = (spectrum.lefts[:, cols].conj().T @ psi) / spectrum.overlaps[cols]

    def state_at(n):
        v = a1 * (xi1 ** n) * r1 + a2 * (xi2 ** n) * r2
        return v / np.linalg.norm(v)

    return OscillationDescriptor(
        complex(a1),
        complex(a2),
        tuple(regime.oscillation["energies"]),
        0.5 * float(np.angle(xi1) + np.angle(xi2)),
        regime.oscillation["relative_phase"],
        state_at,
    )


def energy_conservation_check(trajectory, tolerance):
    """True iff the mean energy never drifts from its initial value."""
    e = trajectory.mean_energy
    return bool(np.max(np.abs(e - e[0])) < tolerance)
