"""Model Hamiltonians, spectral decomposition, block Krylov bases, and the propagator.

All Hamiltonians are finite Hermitian matrices (hbar = 1).  The spectral
decomposition groups numerically degenerate eigenvalues into levels, which
downstream code relies on: the dark-state count per level is discontinuous
in the degeneracy, so the grouping tolerance is an explicit parameter.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import InvalidMatrixError, InvalidParameterError, NumericalFailureError

#: Relative factor applied to the spectral radius for the default level grouping.
DEFAULT_GROUPING_REL_TOL = 1e-8

#: Absolute per-entry Hermiticity tolerance accepted by build_custom.
HERMITICITY_TOL = 1e-10

#: A new block Krylov direction whose norm, once orthogonalized, is at most
#: this times the largest ||H q|| met so far (1 for the start vectors) is
#: rounding, not a direction: the build ends when a block has none left.
KRYLOV_BREAKDOWN_TOL = 1e-12

#: ``krylov_basis`` gives up once the space passes this share of dim: on a
#: dense H each block of two columns reads all of H, and at dim 800 a tenth
#: of dim already costs about a third of an ``eigh``.
KRYLOV_MAX_SHARE = 0.1


@dataclasses.dataclass(frozen=True, eq=False)
class HermitianModel:
    """A finite Hermitian Hamiltonian with labeled basis sites.

    Attributes
    ----------
    hamiltonian : (dim, dim) float64 or complex128 ndarray
        Exactly Hermitian matrix (stored symmetrized).  It is stored as
        float64 when it has no imaginary part, complex128 otherwise.
    basis_labels : tuple of str
        One label per basis vector, e.g. "(1,1)" for tree vertices or
        "G"/"D"/"B" for the atom.
    """

    hamiltonian: np.ndarray
    basis_labels: tuple

    def __post_init__(self):
        h = np.asarray(self.hamiltonian)
        if np.iscomplexobj(h) and h.imag.any():
            h = h.astype(complex, copy=False)
        else:
            h = np.ascontiguousarray(h.real, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
            raise InvalidParameterError("hamiltonian must be square with dim >= 2")
        if h.shape[0] != len(self.basis_labels):
            raise InvalidParameterError("dim must equal the number of basis labels")
        # max |H - H^dag| tile by tile over the upper triangle: no dim x dim
        # temporary, and each transposed tile is read from cache.
        n, t = h.shape[0], 256
        for i, j in ((i, j) for i in range(0, n, t) for j in range(i, n, t)):
            if np.max(np.abs(h[i : i + t, j : j + t] - h[j : j + t, i : i + t].conj().T)) > 1e-12:
                raise InvalidMatrixError("stored hamiltonian must be Hermitian to 1e-12")
        labels = tuple(str(s) for s in self.basis_labels)
        if len(set(labels)) < len(labels):
            repeated = sorted({s for s in labels if labels.count(s) > 1})
            raise InvalidParameterError(f"basis labels must be distinct; {repeated} repeat")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct levels of a Hermitian model, sorted ascending in energy.

    ``vectors`` is the eigenvector matrix V, columns in level order.  Level
    k has energy ``energies[k]`` and owns the columns
    ``starts[k]:starts[k + 1]`` of V, its orthonormal eigenbasis
    ``members(k)``; ``starts`` has w + 1 entries, the last one dim.  V is
    real when H is real; all three arrays are read-only.
    ``column_energies`` gives each column its level energy, so
    H = V diag(e) V^dag.
    """

    energies: np.ndarray
    starts: np.ndarray
    vectors: np.ndarray
    grouping_tol: float

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def w(self):
        return self.energies.size

    @functools.cached_property
    def degeneracies(self):
        return np.diff(self.starts)

    @functools.cached_property
    def column_energies(self):
        return np.repeat(self.energies, self.degeneracies)

    def members(self, k):
        """Level k's eigenvectors, a (dim, degeneracy) column view of V."""
        return self.vectors[:, self.starts[k] : self.starts[k + 1]]

    def coords(self, v):
        """Eigen-coordinates V^dag v of a site-basis state (``_to_sites`` inverts it)."""
        v = as_vector(v)
        if np.iscomplexobj(self.vectors):
            return (v.conj() @ self.vectors).conj()
        return _to_sites(self.vectors.T, v)

    def projector(self, k):
        v = self.members(k)
        return v @ v.conj().T

    def hamiltonian(self):
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for k, energy in enumerate(self.energies.tolist()):
            h += energy * self.projector(k)
        return h


@dataclasses.dataclass(frozen=True, eq=False)
class DetectionState:
    """Unit vector that the repeated projective measurement probes."""

    vector: np.ndarray
    description: str = ""

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).ravel()
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InvalidParameterError("detection state must be normalized to 1e-12")
        object.__setattr__(self, "vector", v)


def as_vector(psi):
    """Complex 1-D array of a state given as a vector or a DetectionState."""
    return np.asarray(psi.vector if hasattr(psi, "vector") else psi, dtype=complex).ravel()


def _to_sites(vectors, x):
    """``vectors @ x`` for complex x (a vector or columns); with V, the inverse of
    ``coords``.  A real ``vectors`` takes two real products, never a complex copy."""
    if np.iscomplexobj(vectors):
        return vectors @ x
    out = np.empty(vectors.shape[:1] + x.shape[1:], dtype=complex)
    out.real, out.imag = vectors @ x.real, vectors @ x.imag
    return out


def _phase_fix(v):
    """``v`` times the phase that makes its largest component real positive.

    A 2-D ``v`` is fixed column by column.
    """
    idx = np.argmax(np.abs(v), axis=0)
    a = v[idx, np.arange(v.shape[1])] if v.ndim == 2 else v[idx]
    a = np.where(a == 0, 1.0, a)
    return v * (np.abs(a) / a)


def _require_finite(**params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def _require_positive(**params):
    _require_finite(**params)
    for name, value in params.items():
        if value <= 0:
            raise InvalidParameterError(f"{name} must be positive, got {value!r}")


def build_two_level(gamma):
    """Two sites coupled by a hopping amplitude gamma; spectrum {-gamma, +gamma}."""
    _require_positive(gamma=gamma)
    h = np.array([[0.0, -gamma], [-gamma, 0.0]])
    return HermitianModel(h, ("l", "r"))


def build_three_level_chain(gamma):
    """Three-site chain with an onsite term on site 0.

    Sign convention: the onsite and hopping terms carry +gamma so that the
    gamma=1 spectrum is (-1.247, 0.445, 1.802) with trace +1.
    """
    _require_positive(gamma=gamma)
    h = gamma * np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return HermitianModel(h, ("0", "1", "2"))


def build_v_atom(E_G, E_D, E_B, gamma1, gamma2):
    """V-shaped three-level atom on basis (D, G, B).

    Diagonal (E_D, E_G, E_B); gamma1 couples G to D, gamma2 couples G to B.
    """
    _require_finite(E_G=E_G, E_D=E_D, E_B=E_B, gamma1=gamma1, gamma2=gamma2)
    h = np.array(
        [
            [E_D, gamma1, 0.0],
            [gamma1, E_G, gamma2],
            [0.0, gamma2, E_B],
        ]
    )
    return HermitianModel(h, ("D", "G", "B"))


def glued_tree_column_sizes(d):
    """Vertex counts per column j = 0..2d of the depth-d glued binary tree."""
    return [2 ** min(j, 2 * d - j) for j in range(2 * d + 1)]


def build_glued_tree(d):
    """Two balanced binary trees of depth d glued leaf-to-leaf; H = -adjacency.

    Vertices are labeled "(column,site)" with both indices 1-based, so the
    left root is "(1,1)".  Columns j = 0..2d hold 2^min(j, 2d-j) vertices;
    for j < d vertex (j,s) links to (j+1,2s) and (j+1,2s+1), for j >= d it
    links to (j+1, floor(s/2)).
    """
    if not isinstance(d, (int, np.integer)):
        raise InvalidParameterError("tree depth d must be an integer")
    if d < 1 or d > 10:
        raise InvalidParameterError(f"tree depth d must be in [1, 10], got {d}")
    sizes = glued_tree_column_sizes(d)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    dim = int(offsets[-1])
    # Every edge by its left end (j, s), vertex `left`: j < d links down to
    # (j+1, 2s) and (j+1, 2s+1), j >= d up to (j+1, s // 2).
    left = np.arange(dim - 1)
    col = np.repeat(np.arange(2 * d), sizes[:-1])
    site = left - offsets[col]
    down, up = left[col < d], left[col >= d]
    rows = np.concatenate((down, down, up))
    ends = offsets[col[rows] + 1] + np.concatenate((2 * site[down], 2 * site[down] + 1,
                                                    site[up] // 2))
    # -0.0 off the edges, the bits of -adjacency: eigh's reflections read them.
    h = np.full((dim, dim), -0.0)
    h[rows, ends] = h[ends, rows] = -1.0
    labels = [f"({j + 1},{s + 1})" for j in range(2 * d + 1) for s in range(sizes[j])]
    return HermitianModel(h, tuple(labels))


def build_exceptional_three_level(gamma):
    """Three-level model engineered so all three charges equal 1/3 at the
    first basis site; at tau*gamma = 2*pi/3 the survival operator is a
    defective cube root of zero.
    """
    _require_positive(gamma=gamma)
    s2, s6, s3 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(3.0)
    h = -gamma * np.array(
        [
            [0.0, -1.0 / s2, 1.0 / s6],
            [-1.0 / s2, -0.5, -1.0 / (2.0 * s3)],
            [1.0 / s6, -1.0 / (2.0 * s3), 0.5],
        ]
    )
    return HermitianModel(h, ("0", "1", "2"))


def build_custom(matrix, labels=None):
    """Wrap an arbitrary Hermitian matrix as a model.

    Rejects non-finite entries and inputs with max |H - H^dag| entry above
    1e-10; accepted inputs are stored exactly symmetrized so the model
    invariant holds.
    """
    h = np.asarray(matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidMatrixError("matrix must be square")
    if not np.isfinite(h).all():
        raise InvalidMatrixError("matrix entries must be finite")
    dev = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if dev > HERMITICITY_TOL:
        raise InvalidMatrixError(
            f"matrix is not Hermitian: max |H - H^dag| entry = {dev:.3e} > {HERMITICITY_TOL:.0e}"
        )
    h = 0.5 * (h + h.conj().T)
    if labels is None:
        labels = tuple(str(i) for i in range(h.shape[0]))
    return HermitianModel(h, tuple(labels))


def site_state(model, label):
    """Unit vector localized on one labeled basis site."""
    try:
        idx = model.basis_labels.index(str(label))
    except ValueError:
        raise InvalidParameterError(
            f"label {label!r} not in model basis {model.basis_labels!r}"
        ) from None
    v = np.zeros(model.dim, dtype=complex)
    v[idx] = 1.0
    return v


def spectral_decompose(model, grouping_tol=None):
    """Eigendecompose a model and group degenerate levels.

    The solver gets the stored H, so a real H (stored as float64) gives a
    real V.  Eigenvalues are clustered by transitive closure of
    |E_i - E_j| <= grouping_tol (default 1e-8 times the spectral radius):
    a level ends wherever two neighbours lie further apart.  Each level's
    energy is the mean of its eigenvalues.
    """
    try:
        evals, vecs = np.linalg.eigh(model.hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    radius = float(np.max(np.abs(evals))) if evals.size else 0.0
    if grouping_tol is None:
        grouping_tol = DEFAULT_GROUPING_REL_TOL * radius
    if grouping_tol < 0:
        raise InvalidParameterError("grouping_tol must be nonnegative")

    cuts = np.flatnonzero(np.diff(evals) > grouping_tol) + 1
    starts = np.concatenate(([0], cuts, [evals.size]))
    energies = np.array([np.mean(evals[a:b]) for a, b in zip(starts[:-1], starts[1:])])
    for array in (energies, starts, vecs):
        array.flags.writeable = False
    return SpectralDecomposition(energies, starts, vecs, float(grouping_tol))


def krylov_basis(h, vectors):
    """Orthonormal basis Q of span{H^j v : v in vectors, j >= 0}, and Q^dag H Q.

    Block Lanczos: each block is H times the previous one, orthogonalized
    column by column against every column so far, twice ("twice is
    enough"); directions at or below KRYLOV_BREAKDOWN_TOL are dropped, and
    a block left empty ends the build.  The space is invariant under H, so
    the Hermitian k x k model Q^dag H Q (symmetrized) has H's levels that
    the vectors reach, each at most len(vectors) times.  Q is real when H
    and the vectors are.  Returns None once k passes KRYLOV_MAX_SHARE * dim.
    """
    vectors = [as_vector(v) for v in vectors]
    real = not np.iscomplexobj(h) and not any(v.imag.any() for v in vectors)
    dim, width = h.shape[0], len(vectors)
    cap = int(KRYLOV_MAX_SHARE * dim)
    # Column-major, so the pages of the columns never reached stay untouched.
    q = np.empty((dim, cap + width), dtype=float if real else complex, order="F")
    hq = np.empty_like(q)
    block = np.column_stack([v.real if real else v for v in vectors])
    k, tol, largest = 0, KRYLOV_BREAKDOWN_TOL, 0.0
    while True:
        first = k
        for v in block.T:
            for _ in range(2):
                v = v - q[:, :k] @ (q[:, :k].conj().T @ v)
            norm = np.linalg.norm(v)
            if norm > tol:
                q[:, k] = v / norm
                k += 1
        if k > cap:
            return None
        if k == first:
            break
        block = hq[:, first:k] = h @ q[:, first:k] if real else _to_sites(h, q[:, first:k])
        largest = max(largest, float(np.linalg.norm(block, axis=0).max()))
        tol = KRYLOV_BREAKDOWN_TOL * largest
    t = q[:, :k].conj().T @ hq[:, :k]
    return q[:, :k], 0.5 * (t + t.conj().T)


def propagator(decomp, tau):
    """U(tau) = sum_k exp(-i E_k tau) P_k over the distinct levels."""
    _require_finite(tau=tau)
    u = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for k, energy in enumerate(decomp.energies.tolist()):
        u += np.exp(-1j * energy * tau) * decomp.projector(k)
    return u
