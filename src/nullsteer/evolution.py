"""Conditional evolution under repeated null measurements.

Two equivalent routes are provided and kept independent: iterated
application of the survival operator with per-step renormalization, and
the spectral formula summing disk and circle eigencomponents.  The
asymptotic regime (dark dominated, fixed point, oscillatory, exceptional)
is classified from the spectrum and the initial state.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .charges import DEFAULT_TIE_TOL
from .errors import (
    CertainDetectionError,
    ExceptionalSpectrumError,
    InvalidParameterError,
    UnsupportedMultiplicityError,
)
from .models import as_vector

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
class TrajectoryRecord:
    """One step; ``vector`` is the state in the coordinates evolve worked in.

    ``basis`` maps those coordinates to the site basis (None when they are
    the site basis); ``state`` is the site-basis state, formed on access.
    """

    vector: np.ndarray
    survival_amplitude: float
    cumulative_no_detection_probability: float
    mean_energy: float
    phase: float
    basis: np.ndarray = None

    @property
    def state(self):
        return self.vector if self.basis is None else self.basis @ self.vector


@dataclasses.dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step records, including the n = 0 initial state."""

    records: tuple
    n_steps: int

    def states(self):
        """(n_steps + 1, dim) site-basis states, converted in one product."""
        x = np.array([r.vector for r in self.records])
        basis = self.records[0].basis
        return x if basis is None else (basis @ x.T).T

    def energies(self):
        return np.array([r.mean_energy for r in self.records])

    def amplitudes(self):
        return np.array([r.survival_amplitude for r in self.records])


@dataclasses.dataclass(frozen=True, eq=False)
class AsymptoticRegime:
    """Large-n classification of one (spectrum, initial state) pair."""

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
    records = [TrajectoryRecord(psi, 1.0, 1.0, energy(psi), 0.0, basis)]
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
        records.append(
            TrajectoryRecord(psi, amp, math.exp(log_p), energy(psi), phase, basis)
        )
    return Trajectory(tuple(records), n_steps)


def _spectral_terms(spectrum, psi):
    """(xi, coefficient, right) for every non-zero-class triple."""
    terms = []
    for t in spectrum.triples:
        if t.kind == "zero":
            continue
        denom = np.vdot(t.left, t.right)
        coeff = np.vdot(t.left, psi) / denom
        terms.append((t.xi, coeff, t.right))
    return terms


def evolve_spectral(spectrum, psi_in, n, H):
    """State and mean energy after n steps from the eigensystem sum.

    Powers xi^n are evaluated with a shared log-modulus shift so that
    deep-disk components underflow gracefully instead of zeroing the
    whole sum.
    """
    if spectrum.exceptional_flag:
        raise ExceptionalSpectrumError("spectral evolution needs a diagonalizable S")
    psi = as_vector(psi_in)
    psi = psi / np.linalg.norm(psi)
    h = np.asarray(H, dtype=complex)
    if n == 0:
        return psi, float(np.real(np.vdot(psi, h @ psi)))

    terms = _spectral_terms(spectrum, psi)
    logmods = [
        n * math.log(abs(xi)) if abs(xi) > 0 else -math.inf
        for xi, coeff, _ in terms
    ]
    active = [lm for lm, (_, c, _) in zip(logmods, terms) if abs(c) > 0]
    if not active:
        raise CertainDetectionError(step=1)
    shift = max(active)
    out = np.zeros(psi.size, dtype=complex)
    for lm, (xi, coeff, right) in zip(logmods, terms):
        if lm == -math.inf:
            continue
        mag = math.exp(lm - shift) if lm - shift > -745.0 else 0.0
        out += coeff * mag * np.exp(1j * n * np.angle(xi)) * right
    norm = np.linalg.norm(out)
    if norm < CERTAIN_DETECTION_TOL:
        raise CertainDetectionError(step=1)
    out = out / norm
    return out, float(np.real(np.vdot(out, h @ out)))


def classify_regime(
    spectrum,
    psi_in,
    tie_tol=DEFAULT_TIE_TOL,
    dark_overlap_tol=DEFAULT_DARK_OVERLAP_TOL,
):
    """Classify the large-n behaviour for one initial state.

    Two decisions make the regime.  Dark overlap is checked first: any
    dark weight above ``dark_overlap_tol`` outlives every disk component.
    Otherwise the disk roots within ``tie_tol`` of the top modulus decide
    between a fixed point (single root) and persistent oscillation (tied
    pair or larger, reported with the full tie).

    ``crossover_step`` is the first n at which the coefficient-free ratio
    (|xi_2| / |xi_1|)^n falls below CROSSOVER_RATIO: with dark weight
    |xi_1| = 1 and xi_2 is the top disk root, otherwise xi_1 is the top
    disk root and xi_2 the largest one outside its tie.
    """
    psi = as_vector(psi_in)
    psi = psi / np.linalg.norm(psi)
    darks = spectrum.by_kind("circle")
    # |<dark|psi>|^2 for every circle triple, as one product.
    rights = np.array([t.right for t in darks]).reshape(len(darks), psi.size)
    weights = np.abs(rights.conj() @ psi) ** 2
    total = float(weights.sum())
    dark_dominated = total > dark_overlap_tol

    disk = spectrum.by_kind("disk")
    moduli = [abs(t.xi) for t in disk]
    top = max(moduli, default=None)
    tied = [top - m <= tie_tol for m in moduli]
    dominant = tuple(t for t, tie in zip(disk, tied) if tie)
    second = max((m for m, tie in zip(moduli, tied) if not tie), default=None)
    m1, m2 = (1.0, top) if dark_dominated else (top, second)
    crossover = 1 if not m2 else max(
        1, math.ceil(math.log(CROSSOVER_RATIO) / math.log(m2 / m1)))

    if spectrum.exceptional_flag:
        return AsymptoticRegime(EXCEPTIONAL, (), crossover)
    if dark_dominated:
        energy = float(weights @ np.array([t.energy for t in darks]) / total)
        dominant = tuple(
            t for w, t in zip(weights, darks) if w > dark_overlap_tol
        )
        return AsymptoticRegime(DARK_DOMINATED, dominant, crossover,
                                predicted_energy=energy)
    if not disk:
        raise CertainDetectionError(step=1)
    decomp = spectrum.operator.decomp
    if len(dominant) == 1:
        energy = decomp.mean_energy(dominant[0].right)
        return AsymptoticRegime(FIXED_POINT, dominant, crossover, predicted_energy=energy)
    energies = tuple(decomp.mean_energy(t.right) for t in dominant)
    osc = {"energies": energies}
    if len(dominant) == 2:
        phi = [float(np.angle(t.xi)) for t in dominant]
        osc["relative_phase"] = 0.5 * (phi[0] - phi[1])
    return AsymptoticRegime(OSCILLATORY, dominant, crossover, oscillation=osc)


def oscillation_descriptor(regime, psi_in):
    """Closed-form large-n family for a dominant eigenvalue pair."""
    if regime.kind != OSCILLATORY or len(regime.dominant) != 2:
        raise UnsupportedMultiplicityError(
            f"oscillation descriptor needs exactly 2 dominant eigenvalues, "
            f"got {len(regime.dominant)} ({regime.kind})"
        )
    psi = as_vector(psi_in)
    psi = psi / np.linalg.norm(psi)
    t1, t2 = regime.dominant
    a1 = np.vdot(t1.left, psi) / np.vdot(t1.left, t1.right)
    a2 = np.vdot(t2.left, psi) / np.vdot(t2.left, t2.right)

    def state_at(n):
        v = a1 * (t1.xi ** n) * t1.right + a2 * (t2.xi ** n) * t2.right
        return v / np.linalg.norm(v)

    return OscillationDescriptor(
        complex(a1),
        complex(a2),
        tuple(regime.oscillation["energies"]),
        0.5 * float(np.angle(t1.xi) + np.angle(t2.xi)),
        regime.oscillation["relative_phase"],
        state_at,
    )


def energy_conservation_check(trajectory, tolerance):
    """True iff the mean energy never drifts from its initial value."""
    e = trajectory.energies()
    return bool(np.max(np.abs(e - e[0])) < tolerance)
