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


def disk_pair_residual(matrix, spectrum, kind="disk"):
    """Largest of |S r - xi r| and |l^dag S - xi l^dag| over a spectrum's
    columns of one kind."""
    s = np.asarray(matrix, dtype=complex)
    cols = spectrum.kinds == kind
    worst = 0.0
    for xi, right, left in zip(spectrum.xis[cols], spectrum.rights[:, cols].T,
                               spectrum.lefts[:, cols].T):
        worst = max(
            worst,
            float(np.linalg.norm(s @ right - xi * right)),
            float(np.linalg.norm(left.conj() @ s - xi * left.conj())),
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


def aliased_model(seed, aliased, rotate):
    """A random model whose 2-4 aliased levels sit at E_0 + 2 pi m / tau.

    ``aliased`` says which of them the detector reaches: none ("dark"), all
    ("bright") or some ("both"); every other level is bright.  H is
    diagonal, or in a random basis when ``rotate``.  Returns
    (model, detector, start, tau).
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 9))
    tau = float(rng.uniform(1.0, 2.0))
    levels = rng.choice(dim, size=int(rng.integers(2, min(4, dim - 1) + 1)), replace=False)
    energies = rng.uniform(-2.0, 2.0, size=dim)
    m = rng.choice([-2, -1, 1, 2], size=levels.size - 1, replace=False)
    energies[levels[1:]] = energies[levels[0]] + 2.0 * math.pi * m / tau
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    n_dark = {"dark": levels.size, "bright": 0,
              "both": int(rng.integers(1, levels.size))}[aliased]
    c[levels[:n_dark]] = 0.0
    q = random_unitary(rng, dim) if rotate else np.eye(dim)
    model = ns.build_custom((q * energies) @ q.conj().T)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return model, q @ c / np.linalg.norm(c), psi / np.linalg.norm(psi), tau


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


def regime_of(model, psi_d, tau, psi_in, **tolerances):
    """``classify_regime`` on the level-wise inputs a run forms: one split
    and its start weights, then the charges and their stationary points."""
    decomp = model if isinstance(model, ns.SpectralDecomposition) else ns.spectral_decompose(model)
    split = ns.DetectorSplit(decomp, psi_d)
    config = ns.charges(decomp, split, tau)
    return ns.classify_regime(config, ns.stationary_points(config), split.weigh(psi_in),
                              **tolerances)


def vector_route_regime(spectrum, psi_in, tie_tol=1e-6, dark_overlap_tol=1e-10):
    """Oracle: (kind, crossover step, energies) from ``full_spectrum``'s vectors.

    The dark weight is summed as |<v|psi>|^2 over the circle columns and
    each disk energy is <r|H|r> of the root's right vector.  ``energies``
    is (predicted energy,) for a fixed point or dark weight, the dominant
    roots' energies for an oscillation and () at an exceptional point.
    """
    psi = np.asarray(psi_in, dtype=complex) / np.linalg.norm(psi_in)
    decomp = spectrum.operator.decomp
    h = decomp.hamiltonian()

    def mean_energy(v):
        return float(np.vdot(v, h @ v).real)

    circle = spectrum.kinds == "circle"
    darks = spectrum.rights[:, circle].T
    weights = np.array([abs(np.vdot(v, psi)) ** 2 for v in darks])
    # a per-level dark state has its level's energy
    dark_energies = [decomp.energies[k] if k >= 0 else mean_energy(v)
                     for v, k in zip(darks, spectrum.source_levels[circle])]
    total = float(weights.sum())
    dark = total > dark_overlap_tol
    disk = spectrum.kinds == "disk"
    moduli = [abs(xi) for xi in spectrum.xis[disk].tolist()]
    top = max(moduli, default=None)
    tied = [r for r, m in zip(spectrum.rights[:, disk].T, moduli) if top - m <= tie_tol]
    second = max((m for m in moduli if top - m > tie_tol), default=None)
    m1, m2 = (1.0, top) if dark else (top, second)
    crossover = 1 if not m2 else max(1, math.ceil(math.log(0.01) / math.log(m2 / m1)))
    if spectrum.exceptional_flag:
        return "Exceptional", crossover, ()
    if dark:
        return "DarkDominated", crossover, (weights @ dark_energies / total,)
    energies = tuple(mean_energy(r) for r in tied)
    return ("FixedPoint" if len(tied) == 1 else "Oscillatory"), crossover, energies
