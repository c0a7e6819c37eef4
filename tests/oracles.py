"""Reference forms the tests check envma against: one-matrix envelope
values, the trace pairing, the spectral norm and a random symmetric draw.
No command needs them, so they live beside the tests, not in the package."""

import numpy as np

from envma import matrixcore as mc
from envma.envelope import envelope_batch


def sample_symmetric(rng, d: int, shift: float = 0.0) -> np.ndarray:
    """Symmetric matrix with iid uniform [-1, 1] entries, shifted by shift*I."""
    S = rng.uniform(-1.0, 1.0, size=(d, d))
    return (S + S.T) / 2.0 + shift * np.eye(d)


def envelope_value(M, box) -> float:
    """Ftilde(M): the envelope value of one matrix."""
    return float(envelope_batch(mc.as_symmetric(M)[np.newaxis], box).value[0])


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
