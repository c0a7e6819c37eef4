"""Linear-algebra substrate: the complex structure J on R^{2n}, the embedding
of n x n Hermitian matrices into 2n x 2n real symmetric matrices, the trace
projection onto the J-commuting subspace, determinant-root evaluation, and
the Hermitian eigen-reduction of stacks of symmetric matrices (one LAPACK
`eigh` call on the complex stack A + iB, no per-matrix loop).

Conventions
-----------
* J = [[0, -I], [I, 0]] identifies R^{2n} with C^n via (x, y) <-> x + iy.
* A Hermitian matrix H = A + iB embeds as iota(H) = [[A, -B], [B, A]]; the
  image is exactly the J-commuting subspace of Sym(2n).
* proj(M) = (M + J^T M J) / 2 is the trace-orthogonal projection onto that
  subspace.  Each Hermitian eigenvalue of extract(proj(M)) shows up twice in
  the real spectrum of proj(M).
* For M = [[M11, M12], [M21, M22]], extract(proj(M)) = A + iB with
  A = (M11 + M22) / 2 and B = (M21 - M12) / 2, so the Hermitian spectrum of a
  whole stack of matrices needs no projection and no real 2n x 2n solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotJCommuting, NotPositiveDefinite

# Largest supported real dimension (2n); the package targets desk-scale
# matrices, not general linear algebra.
MAX_DIM = 16

_SYM_TOL = 1e-9


def complex_structure(n: int) -> np.ndarray:
    """The canonical complex structure J on R^{2n}: J^2 = -I, J^T = -J."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def symmetric_stack(m, tol: float = _SYM_TOL) -> np.ndarray:
    """Validate and symmetrize a stack of 2n x 2n real matrices, shape (N, 2n, 2n).

    Asymmetry up to `tol` in max-entry norm is silently symmetrized;
    anything beyond is rejected as malformed input.
    """
    M = np.asarray(m, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {M.shape}")
    d = M.shape[1]
    if d % 2 != 0:
        raise ValueError(f"dimension must be even (2n), got {d}")
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    MT = M.swapaxes(1, 2)
    asym = float(np.max(np.abs(M - MT), initial=0.0))
    if asym > tol:
        raise ValueError(f"matrix asymmetry {asym:g} exceeds tolerance {tol:g}")
    return (M + MT) / 2.0


def as_symmetric(m, tol: float = _SYM_TOL) -> np.ndarray:
    """Validate and symmetrize one 2n x 2n real matrix (see symmetric_stack)."""
    M = np.asarray(m, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return symmetric_stack(M[np.newaxis], tol)[0]


@dataclass(frozen=True)
class HermitianMatrix:
    """n x n complex Hermitian matrix stored as real blocks H = A + iB.

    A is symmetric and B antisymmetric; both are snapped exactly on
    construction so the embedding is exact in floating point.
    """

    real: np.ndarray
    imag: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.real, dtype=float)
        B = np.asarray(self.imag, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
            raise ValueError(f"blocks must be square and matching, got {A.shape}, {B.shape}")
        if 2 * A.shape[0] > MAX_DIM:
            raise ValueError(f"n={A.shape[0]} exceeds the supported maximum {MAX_DIM // 2}")
        if float(np.max(np.abs(A - A.T), initial=0.0)) > _SYM_TOL:
            raise ValueError("real block is not symmetric")
        if float(np.max(np.abs(B + B.T), initial=0.0)) > _SYM_TOL:
            raise ValueError("imaginary block is not antisymmetric")
        object.__setattr__(self, "real", (A + A.T) / 2.0)
        object.__setattr__(self, "imag", (B - B.T) / 2.0)

    @property
    def n(self) -> int:
        return self.real.shape[0]


def embed_complex(Z: np.ndarray) -> np.ndarray:
    """iota for a stack of complex matrices A + iB: [[A, -B], [B, A]] per item."""
    A, B = Z.real, Z.imag
    return np.block([[A, -B], [B, A]])


def embed(H: HermitianMatrix) -> np.ndarray:
    """iota(H): the 2n x 2n block matrix [[A, -B], [B, A]]; commutes with J."""
    return embed_complex(H.real + 1j * H.imag)


def extract(M, tol: float | None = None) -> HermitianMatrix:
    """Inverse of `embed` on the J-commuting subspace.

    Raises NotJCommuting when max-entry |MJ - JM| exceeds `tol`
    (default 1e-12 relative to the largest entry of M).
    """
    M = as_symmetric(M)
    n = M.shape[0] // 2
    J = complex_structure(n)
    comm = float(np.max(np.abs(M @ J - J @ M)))
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(M))))
    if comm > tol:
        raise NotJCommuting(f"commutator norm {comm:g} exceeds tolerance {tol:g}")
    Z = hermitian_blocks(M)
    return HermitianMatrix(Z.real, Z.imag)


def project(M) -> np.ndarray:
    """Trace-orthogonal projection of Sym(2n) onto the J-commuting subspace."""
    return embed_complex(hermitian_blocks(as_symmetric(M)))


def jacobi_eigh(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a real symmetric matrix (LAPACK `eigh`).

    Returns (w, V) with eigenvalues ascending and orthonormal columns,
    S @ V = V @ diag(w).  The name survives from an earlier cyclic-Jacobi
    implementation.
    """
    return np.linalg.eigh(np.asarray(S, dtype=float))


def herm_eigensystem(H: HermitianMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and a unitary eigenbasis of H as real blocks.

    Returns (mu, U_re, U_im) with H U = U diag(mu) in complex arithmetic and
    U unitary.
    """
    mu, U = np.linalg.eigh(H.real + 1j * H.imag)
    return mu, np.ascontiguousarray(U.real), np.ascontiguousarray(U.imag)


def herm_eigenvalues(H: HermitianMatrix) -> np.ndarray:
    """The n real eigenvalues of H, ascending."""
    return herm_eigensystem(H)[0]


def hermitian_blocks(S: np.ndarray) -> np.ndarray:
    """extract(proj(S)) as the complex stack A + iB, shape (..., n, n).

    S must already be symmetric (see symmetric_stack); the result is then
    exactly Hermitian.
    """
    n = S.shape[-1] // 2
    A = (S[..., :n, :n] + S[..., n:, n:]) / 2.0
    B = (S[..., n:, :n] - S[..., :n, n:]) / 2.0
    return A + 1j * B


def hermitian_eigs_stack(m) -> np.ndarray:
    """Eigenvalues (ascending) of extract(proj(M)) for a stack, shape (N, n)."""
    return np.linalg.eigvalsh(hermitian_blocks(symmetric_stack(m)))


def hermitian_eigs_of(M) -> np.ndarray:
    """Eigenvalues (ascending) of the Hermitian part extract(proj(M))."""
    return hermitian_eigs_stack(as_symmetric(M)[np.newaxis])[0]


def geometric_mean(x) -> float:
    """Geometric mean of strictly positive values."""
    x = np.asarray(x, dtype=float)
    return float(np.exp(np.mean(np.log(x))))


def det_root(M) -> float:
    """det^{1/2n} of proj(M), the operator this package extends.

    Equals det_C^{1/n} of the Hermitian part.  Only defined where proj(M)
    is positive definite; raises NotPositiveDefinite otherwise.
    """
    mu = hermitian_eigs_of(M)
    if float(mu[0]) <= 0.0:
        raise NotPositiveDefinite(f"smallest eigenvalue of the projection is {mu[0]:g}")
    return geometric_mean(mu)


def in_theta_box(M, theta: float, tol: float = 1e-9) -> bool:
    """True iff theta*I <= proj(M) <= I/theta up to `tol` on the spectrum."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    mu = hermitian_eigs_of(M)
    return bool(mu[0] >= theta - tol and mu[-1] <= 1.0 / theta + tol)


def admissible_theta(lam: float, Lam: float) -> float:
    """The box parameter min{lambda, 1/Lambda} induced by two-sided
    eigenvalue bounds lambda*I <= proj(D^2 u) <= Lambda*I."""
    if lam <= 0.0 or Lam <= 0.0:
        raise ValueError("eigenvalue bounds must be positive")
    if lam > Lam:
        raise ValueError(f"inconsistent bounds: lambda={lam} > Lambda={Lam}")
    return min(lam, 1.0 / Lam)


def trace_inner(A, B) -> float:
    """The trace pairing tr(A B)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.einsum("ij,ji->", A, B))


def spectral_norm(A) -> float:
    """Largest absolute eigenvalue of a real symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(as_symmetric(A)))))
