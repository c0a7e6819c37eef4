"""Reference forms the tests check envma against.  No command needs them,
so they live beside the tests, not in the package:

* matrix algebra: the complex structure J, the projection onto the
  J-commuting subspace, its Hermitian eigenvalues, det^{1/2n} of the
  projection (of one matrix or a stack), the trace pairing and the spectral
  norm;
* the envelope: one-matrix values, the conjugate intercept g(p) alone, the
  increment under a PSD perturbation with its two-sided bounds, the slope
  averaging over equal-eigenvalue runs done on every row, and the grid
  oracle `envelope_eval_bruteforce`, which uses no eigen-ordering reduction;
* the built-in manufactured solutions as callables of the 2n coordinates;
* samplers, one matrix per call: a symmetric matrix, a unitary, an in-box
  matrix and a PSD perturbation of each kind.  They draw what
  `envma.verify` draws for one sample of a block, in the same order, so
  `reference_draw` in test_kernel.py rebuilds a verify sample from them.
"""

import functools

import numpy as np

from envma import envelope
from envma import matrixcore as mc
from envma.envelope import _RUN_TOL, _row_sum, conjugate_maximizer, envelope_batch
from envma.solver import BUILTIN_SOLUTIONS
from envma.verify import _gap_bounds


def sample_symmetric(rng, d: int, shift: float = 0.0) -> np.ndarray:
    """Symmetric matrix with iid uniform [-1, 1] entries, shifted by shift*I."""
    S = rng.uniform(-1.0, 1.0, size=(d, d))
    return (S + S.T) / 2.0 + shift * np.eye(d)


def _complex_gaussian(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _hermitian_part(X) -> np.ndarray:
    return (X + X.conj().T) / 2


def sample_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish random n x n unitary: the Q of the QR decomposition of a
    complex Gaussian, with the phases of diag(R) moved into Q."""
    Q, R = np.linalg.qr(_complex_gaussian(rng, n))
    ph = np.diag(R).copy()
    ph = ph / np.abs(ph)
    return Q * ph[np.newaxis, :].conj()


def sample_in_box(rng, box, rng_Z=None, rng_S=None) -> np.ndarray:
    """Matrix whose projection has spectrum uniform in the box, plus a random
    J-anticommuting component (which the envelope must ignore).  The
    spectrum is drawn from rng, then the eigenbasis from rng_Z and the
    symmetric part from rng_S, each of those two defaulting to rng."""
    rng_Z = rng if rng_Z is None else rng_Z
    rng_S = rng if rng_S is None else rng_S
    mu = rng.uniform(box.theta, box.hi, size=box.n)
    U = sample_unitary(rng_Z, box.n)
    core = mc.embed(_hermitian_part((U * mu) @ U.conj().T))
    S = sample_symmetric(rng_S, 2 * box.n, 0.0)
    return core + (S - project(S))


def sample_psd(rng, d: int, kind: str) -> np.ndarray:
    """PSD perturbation of the requested kind: gram, embedded, rank1 or scalar."""
    if kind == "gram":
        G = rng.uniform(-1.0, 1.0, size=(d, d))
        return (G @ G.T) / d
    if kind == "embedded":
        Z = _complex_gaussian(rng, d // 2)
        return mc.embed(_hermitian_part((Z @ Z.conj().T) / (d // 2)))
    if kind == "rank1":
        v = rng.normal(size=d)
        return np.outer(v, v) / float(v @ v)
    return float(rng.uniform(0.1, 2.0)) * np.eye(d)


def complex_structure(n: int) -> np.ndarray:
    """The canonical complex structure J on R^{2n}: J^2 = -I, J^T = -J."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def project(M) -> np.ndarray:
    """Trace-orthogonal projection of Sym(2n) onto the J-commuting subspace."""
    return mc.embed(mc.hermitian_blocks(mc.as_symmetric(M)))


def hermitian_eigs_of(M) -> np.ndarray:
    """Eigenvalues (ascending) of the Hermitian part extract(proj(M))."""
    return mc.herm_eigensystem(mc.hermitian_blocks(mc.as_symmetric(M)))[0]


def det_root(M):
    """det^{1/2n} of proj(M), the operator envma extends: a float for one
    2n x 2n matrix, an array for a stack (N, 2n, 2n).

    Equals det_C^{1/n} of the Hermitian part.  Only defined where proj(M)
    is positive definite; raises ValueError otherwise.
    """
    M = np.asarray(M, dtype=float)
    stack = mc.symmetric_stack(M) if M.ndim == 3 else mc.as_symmetric(M)[np.newaxis]
    mu = mc.herm_eigensystem(mc.hermitian_blocks(stack))[0]
    if np.any(mu[:, 0] <= 0.0):
        raise ValueError(f"smallest eigenvalue of the projection is {np.min(mu[:, 0]):g}")
    root = np.exp(np.mean(np.log(mu), axis=1))
    return root if M.ndim == 3 else float(root[0])


def envelope_value(M, box) -> float:
    """Ftilde(M): the envelope value of one matrix."""
    return float(envelope_batch(mc.as_symmetric(M)[np.newaxis], box).value[0])


def conjugate_intercept(p, box) -> float:
    """g(p): the minimal intercept making slope p majorize F on the box."""
    return conjugate_maximizer(p, box)[0]


def ellipticity_gap(M, P, box) -> tuple[float, float, float]:
    """(lower, gap, upper) for the increment gap = Ftilde(M+P) - Ftilde(M),
    with the bounds `verify` checks (`verify._gap_bounds`)."""
    M = mc.as_symmetric(M)
    P = mc.as_symmetric(P)
    lower, upper, _ = _gap_bounds(P[np.newaxis], box)
    f, _ = envelope._certify_values(envelope._hermitian_parts(np.stack([M + P, M]), box), box)
    return float(lower[0]), float(f[0] - f[1]), float(upper[0])


def _max_minus_pairing(T: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """out[k, m] = max over j of T[m, j] - axis[k] * axis[j], in chunks of k
    whose temporaries stay below 2^22 entries."""
    out = np.empty((len(axis), T.shape[0]))
    px = np.outer(axis, axis)
    step = max(1, (1 << 22) // T.size)
    for lo in range(0, len(axis), step):
        hi = min(lo + step, len(axis))
        out[lo:hi] = np.max(T[np.newaxis] - px[lo:hi, np.newaxis, :], axis=2)
    return out


@functools.lru_cache(maxsize=8)
def _brute_grids(theta: float, n: int, resolution: int):
    """Slope grid and its exact discrete conjugate, cached per configuration.

    The discrete conjugate g(p) = max over the grid points x of
    (prod x)^{1/n} - p.x covers the whole product grid.  For n = 2 the
    maximum is taken one coordinate at a time,
    max_{x1} [max_{x2} (sqrt(x1 x2) - p2 x2) - p1 x1],
    which costs resolution^3 instead of resolution^4 operations.
    """
    axis = np.linspace(theta, 1.0 / theta, resolution)
    if n == 1:
        return axis[:, np.newaxis], _max_minus_pairing(axis[np.newaxis], axis).ravel()
    a, b = np.meshgrid(axis, axis, indexing="ij")
    fx = np.outer(axis, axis) ** 0.5            # fx[i, j] = sqrt(x1_i x2_j)
    inner = _max_minus_pairing(fx, axis)         # inner[k2, i]: max over x2
    g = _max_minus_pairing(inner, axis)          # g[k1, k2]: then over x1
    return np.column_stack([a.ravel(), b.ravel()]), g.ravel()


def envelope_eval_bruteforce(M, box: envelope.ThetaBox, resolution: int) -> float:
    """Grid-discretized envelope: an independent oracle for envelope_eval.

    Discretizes both the slope box and the inner box on uniform grids with
    `resolution` points per axis and takes min over slopes of
    [pairing + discrete conjugate]; no eigen-ordering reduction is used (the
    grid covers all slope orderings).  Accurate to O(1/resolution).
    Supported for n <= 2 only (cost grows like resolution^{2n}).
    """
    if box.n > 2:
        raise ValueError(f"brute force supports n <= 2, got n={box.n}")
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    mu = hermitian_eigs_of(M)
    if mu.shape[0] != box.n:
        raise ValueError(f"matrix has n={mu.shape[0]} but the box has n={box.n}")
    pts, g = _brute_grids(box.theta, box.n, int(resolution))
    return float(np.min(pts @ mu + g))


def builtin_solution(name: str, n: int):
    """(u_exact, rhs) of a name of `solver.BUILTIN_SOLUTIONS`, callables of the 2n coordinates."""
    return tuple(functools.partial(fn, n) for fn in BUILTIN_SOLUTIONS[name])


def trace_inner(A, B) -> float:
    """The trace pairing tr(A B)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.einsum("ij,ji->", A, B))


def spectral_norm(A) -> float:
    """Largest absolute eigenvalue of a real symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(mc.as_symmetric(A)))))


def average_equal_runs_all_rows(p, m) -> np.ndarray:
    """`envelope._average_equal_runs` with the run bookkeeping on every row:
    a row without equal eigenvalues is averaged over runs of one member."""
    N, n = m.shape
    gap = np.diff(m, axis=1)
    m_abs = np.maximum(-m[:, :1], m[:, -1:])
    scale = np.maximum(1.0, _row_sum(np.abs(p * m)))[:, np.newaxis]
    with np.errstate(over="ignore"):
        same = (gap <= _RUN_TOL * m_abs) & (-np.diff(p, axis=1) * gap <= _RUN_TOL * scale)
    run = np.concatenate([np.zeros((N, 1), dtype=np.int64), np.cumsum(~same, axis=1)], axis=1)
    member = run[:, :, np.newaxis] == np.arange(n)
    mean = np.einsum("ij,ijk->ik", p, member) / np.maximum(member.sum(axis=1), 1)
    return np.take_along_axis(mean, run, axis=1)
