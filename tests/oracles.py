"""Reference forms the tests check envma against.  No command needs them,
so they live beside the tests, not in the package:

* matrix algebra: the complex structure J, the projection onto the
  J-commuting subspace, det^{1/2n} of the projection (of one matrix or a
  stack), the trace pairing and the spectral norm;
* the envelope: one-matrix values, the conjugate intercept g(p) alone, the
  increment under a PSD perturbation with its two-sided bounds, and the
  slope averaging over equal-eigenvalue runs done on every row;
* samplers, one matrix per call: a symmetric matrix, a unitary, an in-box
  matrix and a PSD perturbation of each kind.  They draw what
  `envma.verify` draws for one sample of a block, in the same order, so
  `reference_draw` in test_kernel.py rebuilds a verify sample from them.
"""

import numpy as np

from envma import envelope
from envma import matrixcore as mc
from envma.envelope import _RUN_TOL, _row_sum, conjugate_maximizer, envelope_batch
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
