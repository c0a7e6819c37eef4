"""Reference forms the tests check envma against: one-matrix envelope
values, the conjugate intercept g(p) alone, the trace pairing, the spectral
norm, a random symmetric draw and the slope averaging over equal-eigenvalue
runs done on every row.  No command needs them, so they live beside the
tests, not in the package."""

import numpy as np

from envma import matrixcore as mc
from envma.envelope import _RUN_TOL, _row_sum, conjugate_maximizer, envelope_batch


def sample_symmetric(rng, d: int, shift: float = 0.0) -> np.ndarray:
    """Symmetric matrix with iid uniform [-1, 1] entries, shifted by shift*I."""
    S = rng.uniform(-1.0, 1.0, size=(d, d))
    return (S + S.T) / 2.0 + shift * np.eye(d)


def envelope_value(M, box) -> float:
    """Ftilde(M): the envelope value of one matrix."""
    return float(envelope_batch(mc.as_symmetric(M)[np.newaxis], box).value[0])


def conjugate_intercept(p, box) -> float:
    """g(p): the minimal intercept making slope p majorize F on the box."""
    return conjugate_maximizer(p, box)[0]


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
