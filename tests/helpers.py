"""Oracles and generators shared across the test suite.

The dense non-symmetric eigensolver of the full dim x dim S lives here and
only here.  Production code diagonalizes only the w x w bright-space block
of S, so comparing against the full matrix is an independent check, not a
tautology.
"""

import dataclasses
import math

import numpy as np

import nullsteer as ns


def dense_eigenvalues(matrix):
    """Oracle: full eigenvalue set of an arbitrary square matrix."""
    return np.linalg.eig(np.asarray(matrix, dtype=complex))[0]


def match_eigenvalues(computed, reference):
    """Greedy nearest pairing of two equal-size multisets; max pair distance.

    Greedy is sound at our tolerances: whenever two reference values are
    closer to each other than the matching error, either pairing is within
    tolerance anyway.
    """
    comp = [complex(x) for x in computed]
    ref = [complex(x) for x in np.ravel(np.asarray(reference, dtype=complex))]
    assert len(comp) == len(ref), f"size mismatch {len(comp)} vs {len(ref)}"
    worst = 0.0
    for x in comp:
        dists = [abs(x - r) for r in ref]
        j = min(range(len(ref)), key=dists.__getitem__)
        worst = max(worst, dists[j])
        ref.pop(j)
    return worst


def disk_pair_residual(matrix, triples):
    """Largest of |S r - xi r| and |l^dag S - xi l^dag| over eigentriples."""
    s = np.asarray(matrix, dtype=complex)
    worst = 0.0
    for t in triples:
        worst = max(
            worst,
            float(np.linalg.norm(s @ t.right - t.xi * t.right)),
            float(np.linalg.norm(t.left.conj() @ s - t.xi * t.left.conj())),
        )
    return worst


def glued_tree_reference_energies(d):
    """Analytic eigenvalue multiset of the depth-d glued-tree Hamiltonian.

    Two mode families diagonalize H = -A exactly.  States uniform on each
    column reduce H to an open chain of 2d+1 sites with hopping sqrt(2).
    Under every branching node at 1-based column j, the combination that is
    antisymmetric between its two sibling subtrees vanishes where the
    subtrees merge again, leaving an open chain of 2(d-j)+1 shadow columns
    with the same hopping; there are 2^(j-1) such nodes per column.
    The counts sum to the full dimension, so the list is complete.
    """
    vals = []
    length = 2 * d + 1
    k = np.arange(1, length + 1)
    vals.extend(-2.0 * math.sqrt(2.0) * np.cos(k * np.pi / (length + 1)))
    for j in range(1, d + 1):
        lj = 2 * (d - j) + 1
        m = np.arange(1, lj + 1)
        branch = -2.0 * math.sqrt(2.0) * np.cos(m * np.pi / (lj + 1))
        for _ in range(2 ** (j - 1)):
            vals.extend(branch)
    return np.sort(np.array(vals))


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _separated_energies(rng, n):
    # resample until levels are well split so grouping is unambiguous
    while True:
        e = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if n == 1 or float(np.min(np.diff(e))) > 0.15:
            return e


def random_model(seed):
    """Seeded random Hermitian model, detector, and sampling time.

    Cycles through three styles by seed: fully generic, degenerate levels,
    and a detector confined to a strict subset of levels (the rest become
    exactly dark).
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 17))
    style = seed % 3
    n_levels = dim if style == 0 else int(rng.integers(max(2, dim // 2), dim + 1))
    energies = _separated_energies(rng, n_levels)
    mult = np.ones(n_levels, dtype=int)
    for _ in range(dim - n_levels):
        mult[int(rng.integers(0, n_levels))] += 1
    diag = np.repeat(energies, mult)
    q = random_unitary(rng, dim)
    model = ns.build_custom((q * diag) @ q.conj().T)

    if style == 2 and n_levels >= 3:
        n_active = int(rng.integers(1, n_levels))
        active = sorted(rng.choice(n_levels, size=n_active, replace=False))
        start = np.concatenate(([0], np.cumsum(mult)))
        cols = [c for k in active for c in range(start[k], start[k + 1])]
        psi = q[:, cols] @ (rng.normal(size=len(cols)) + 1j * rng.normal(size=len(cols)))
    else:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = psi / np.linalg.norm(psi)
    tau = float(rng.uniform(0.3, 3.0))
    return model, psi, tau


def expected_partition(model, psi, tau, phase_tol=1e-10, zero_threshold=1e-12):
    """Partition (zero, disk, circle) predicted from charges alone."""
    decomp = ns.spectral_decompose(model)
    config = ns.charges(decomp, psi, tau)
    merged = []
    for c in config.charges:
        if c.p <= zero_threshold:
            continue
        if not any(abs(c.phase - m) < phase_tol for m in merged):
            merged.append(c.phase)
    w_c = len(merged)
    return (1, w_c - 1, model.dim - w_c)


def with_root_outside_disk(monkeypatch):
    """Make full_spectrum's stationary points put one root at |xi| = 1.5."""
    solve = ns.survival.stationary_points

    def outside(*args, **kwargs):
        sp = solve(*args, **kwargs)
        return dataclasses.replace(sp, roots=(1.5 + 0j,) + sp.roots[1:], max_abs=1.5)

    monkeypatch.setattr(ns.survival, "stationary_points", outside)
