"""Linear-algebra substrate: the complex structure J on R^{2n}, the embedding
of n x n Hermitian matrices into 2n x 2n real symmetric matrices, the trace
projection onto the J-commuting subspace, and the Hermitian eigen-reduction
of stacks of symmetric matrices.

`herm_eigensystem` is the package's one Hermitian eigensolver: at n = 2 one
closed-form plane rotation per matrix, vectorized over the stack with the
arithmetic of LAPACK's zlaev2/dlaev2; for every other n one LAPACK `eigh`
call on the complex stack A + iB.  It does not loop over matrices, and a
caller that needs only eigenvalues takes its first output.
`herm_from_eigensystem` is its inverse, U diag(p) U^H, written entry by
entry for every n, so that it is exactly Hermitian.

Conventions
-----------
* J = [[0, -I], [I, 0]] identifies R^{2n} with C^n via (x, y) <-> x + iy.
* A Hermitian matrix H = A + iB is a complex ndarray, one n x n matrix or a
  stack (..., n, n); there is no other representation.  `embed` is the one
  map iota(H) = [[A, -B], [B, A]] to the real form, whose image is exactly
  the J-commuting subspace of Sym(2n), and `extract` names its inverse
  there.  Validation happens on the real form (`symmetric_stack`): a
  Hermitian matrix is valid exactly when its embedding is.
* proj(M) = (M + J^T M J) / 2 is the trace-orthogonal projection onto that
  subspace.  Each Hermitian eigenvalue of extract(proj(M)) shows up twice in
  the real spectrum of proj(M).
* For M = [[M11, M12], [M21, M22]], extract(proj(M)) = A + iB with
  A = (M11 + M22) / 2 and B = (M21 - M12) / 2, which `hermitian_blocks`
  computes as a complex array, so the Hermitian spectrum of a whole stack of
  matrices needs no projection and no real 2n x 2n solve.  It is the one map
  from real Hessian indices to Hermitian coordinates: the solver's discrete
  Hessian is mapped by it too, one stencil weight matrix at a time.
"""

from __future__ import annotations

import functools

import numpy as np

# Largest supported real dimension (2n); the package targets desk-scale
# matrices, not general linear algebra.
MAX_DIM = 16

_SYM_TOL = 1e-9


def symmetric_stack(m) -> np.ndarray:
    """Validate and symmetrize a stack of 2n x 2n real matrices, shape (N, 2n, 2n).

    Asymmetry up to _SYM_TOL in max-entry norm is silently symmetrized;
    anything beyond is rejected as malformed input.  Halves are added, so
    finite entries stay finite.
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
    with np.errstate(over="ignore"):   # an infinite asymmetry is rejected too
        asym = float(np.max(np.abs(M - MT), initial=0.0))
    if asym > _SYM_TOL:
        raise ValueError(f"matrix asymmetry {asym:g} exceeds tolerance {_SYM_TOL:g}")
    return M / 2.0 + MT / 2.0


def as_symmetric(m) -> np.ndarray:
    """Validate and symmetrize one 2n x 2n real matrix (see symmetric_stack)."""
    M = np.asarray(m, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return symmetric_stack(M[np.newaxis])[0]


def embed(Z: np.ndarray) -> np.ndarray:
    """iota(Z) = [[A, -B], [B, A]] of a complex matrix Z = A + iB, or of each
    matrix of a stack (..., n, n); it commutes with J when Z is Hermitian."""
    A, B = Z.real, Z.imag
    return np.block([[A, -B], [B, A]])


def hermitian_blocks(S: np.ndarray) -> np.ndarray:
    """extract(proj(S)) as the complex stack A + iB, shape (..., n, n).

    S must already be symmetric (see symmetric_stack); the result is then
    exactly Hermitian.  Halves are added, so finite entries stay finite.
    """
    n = S.shape[-1] // 2
    A = S[..., :n, :n] / 2.0 + S[..., n:, n:] / 2.0
    B = S[..., n:, :n] / 2.0 - S[..., :n, n:] / 2.0
    return A + 1j * B


def herm_eigensystem(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (..., n) and unitary eigenvectors, in columns
    (..., n, n), of a Hermitian stack Z (..., n, n), read from its lower
    triangle as `np.linalg.eigh` reads it.  At n = 2 one plane rotation per
    matrix in closed form (`_eig2`); `np.linalg.eigh` for every other n."""
    if Z.shape[-1] != 2:
        return np.linalg.eigh(Z)
    return _eig2(Z)


def _eig2(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of 2 x 2 Hermitian matrices [[a, conj(b)], [b, c]] with
    the arithmetic of LAPACK's zlaev2/dlaev2, halved so that finite
    eigenvalues stay finite.  Z = D R D^H with D = diag(1, w), w = b/|b|, and
    R the real [[a, |b|], [|b|, c]]: rt1 = sm +- rt, sm = (a + c)/2,
    rt = hypot(df, |b|), df = (a - c)/2, is R's eigenvalue of larger
    magnitude, and the other, det/rt1 = (acmx/rt1) acmn - (|b|/rt1) |b|,
    keeps its relative accuracy.  R's lower eigenvector (x, y) is (-|b|/2, s)
    if a >= c and (s, -|b|/2) otherwise, up to norm, with s = (rt + |df|)/2
    free of cancellation; U = D [[x, -y], [y, x]]."""
    a, c, b = Z[..., 0, 0].real, Z[..., 1, 1].real, Z[..., 1, 0]
    ab = np.abs(b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sm, df = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
        rt = np.hypot(df, ab)
        a_big = np.abs(a) > np.abs(c)
        rt1 = np.where(sm < 0.0, sm - rt, sm + rt)
        rt2 = np.where(sm != 0.0, (np.where(a_big, a, c) / rt1) * np.where(a_big, c, a)
                       - (ab / rt1) * ab, -rt)
        # sorted, as LAPACK sorts: near a double eigenvalue rounding may swap them
        mu = np.stack([np.minimum(rt1, rt2), np.maximum(rt1, rt2)], axis=-1)
        s, tb = 0.5 * rt + 0.5 * np.abs(df), 0.5 * ab
        h = np.hypot(tb, s)   # 0 only for a scalar matrix, where U = I
        x = np.where(h > 0.0, np.where(df >= 0.0, -tb, s) / h, 1.0)
        y = np.where(h > 0.0, np.where(df >= 0.0, s, -tb) / h, 0.0)
        w_re, w_im = np.where(ab > 0.0, b.real / ab, 1.0), np.where(ab > 0.0, b.imag / ab, 0.0)
    U = np.zeros(Z.shape, dtype=complex)
    U.real[..., 0, 0], U.real[..., 0, 1] = x, -y
    U.real[..., 1, 0], U.real[..., 1, 1] = w_re * y, w_re * x
    U.imag[..., 1, 0], U.imag[..., 1, 1] = w_im * y, w_im * x
    return mu, U


def herm_from_eigensystem(U: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The exactly Hermitian U diag(p) U^H of a unitary stack U (N, n, n) and
    real p (N, n), entry by entry, each term with its own weight:
    Q_ii = sum_k p_k |U_ik|^2, Q_ij = sum_k p_k U_ik conj(U_jk) for i > j,
    and Q_ji = conj(Q_ij).  A diagonal entry is a convex combination of the
    p_k, so it keeps its relative accuracy where p_1 >> p_n; the shorter
    p_1 I + (p_n - p_1) v v^H at n = 2 would cancel."""
    n = U.shape[-1]
    Q = np.empty(U.shape, dtype=complex)
    for i in range(n):
        Q[..., i, i] = functools.reduce(np.add, (
            p[..., k] * (U[..., i, k].real ** 2 + U[..., i, k].imag ** 2) for k in range(n)))
        for j in range(i):
            Q[..., i, j] = functools.reduce(np.add, (
                p[..., k] * (U[..., i, k] * U[..., j, k].conj()) for k in range(n)))
            Q[..., j, i] = Q[..., i, j].conj()
    return Q


def hermitian_part(X: np.ndarray) -> np.ndarray:
    """(X + X^H)/2 for a stack of complex matrices (..., n, n)."""
    return (X + X.conj().swapaxes(-1, -2)) / 2.0


def geometric_mean(x):
    """Geometric mean of strictly positive values over the last axis: an
    np.float64 for one vector, an array for a stack."""
    return np.exp(np.mean(np.log(np.asarray(x, dtype=float)), axis=-1))


def admissible_theta(lam: float, Lam: float) -> float:
    """The box parameter min{lambda, 1/Lambda} induced by two-sided
    eigenvalue bounds lambda*I <= proj(D^2 u) <= Lambda*I."""
    if not (0.0 < lam < np.inf and 0.0 < Lam < np.inf):
        raise ValueError(f"eigenvalue bounds must be finite and positive, "
                         f"got lambda={lam}, Lambda={Lam}")
    if lam > Lam:
        raise ValueError(f"inconsistent bounds: lambda={lam} > Lambda={Lam}")
    return min(lam, 1.0 / Lam)

