"""Tests for the linear-algebra substrate."""

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envma import matrixcore as mc
from envma.envelope import ThetaBox, in_box, tangent_in_box
from oracles import (complex_structure, det_root, hermitian_eigs_of, project, spectral_norm,
                     trace_inner)


def rand_sym(rng, d, lo=-10.0, hi=10.0):
    S = rng.uniform(lo, hi, size=(d, d))
    return (S + S.T) / 2.0


def rand_herm(rng, n, psd=False):
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    H = Z @ Z.conj().T if psd else Z
    return (H + H.conj().T) / 2.0


N2_KINDS = ("random", "rotated", "b=0", "a=d", "near-double", "zero", "negative-definite")


def n2_stack(rng, kind, m=16):
    """m Hermitian 2 x 2 matrices of one kind, entries of order 1."""
    G = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
    Z = (G + G.conj().swapaxes(1, 2)) / 2.0
    if kind == "rotated":
        # U diag(mu) U^H, every other row with a double eigenvalue
        mu = rng.uniform(-2.0, 2.0, size=(m, 2))
        mu[::2, 1] = mu[::2, 0]
        U = np.linalg.qr(G)[0]
        Z = (U * mu[:, np.newaxis, :]) @ U.conj().swapaxes(1, 2)
    elif kind == "b=0":
        Z[:, 0, 1] = Z[:, 1, 0] = 0.0
    elif kind == "a=d":
        Z[:, 1, 1] = Z[:, 0, 0]
    elif kind == "near-double":
        # a and d a few roundings apart, b at rounding level
        Z[:, 1, 1] = Z[:, 0, 0] * (1.0 + rng.integers(-3, 4, size=m) * np.finfo(float).eps)
        Z[:, 1, 0] *= np.finfo(float).eps * rng.uniform(0.0, 4.0, size=m)
        Z[:, 0, 1] = Z[:, 1, 0].conj()
    elif kind == "zero":
        Z[:] = 0.0
    elif kind == "negative-definite":
        Z = -(G @ G.conj().swapaxes(1, 2))
    return Z


def exact_eigs(Z):
    """Ascending eigenvalues of a stack of 2 x 2 Hermitian matrices, from
    (a + d -+ sqrt((a - d)^2 + 4|b|^2))/2 in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        out = []
        for z in Z:
            a, d = decimal.Decimal(z[0, 0].real), decimal.Decimal(z[1, 1].real)
            b2 = decimal.Decimal(z[1, 0].real) ** 2 + decimal.Decimal(z[1, 0].imag) ** 2
            rt = ((a - d) ** 2 + 4 * b2).sqrt()
            out.append([float((a + d - rt) / 2), float((a + d + rt) / 2)])
    return np.array(out)


class TestComplexStructure:
    def test_involution_identities_exact(self):
        for n in (1, 2, 3, 4):
            J = complex_structure(n)
            assert np.array_equal(J @ J, -np.eye(2 * n))
            assert np.array_equal(J.T, -J)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            complex_structure(0)


class TestEmbedExtract:
    def test_embed_identity(self):
        assert np.array_equal(mc.embed(np.eye(2) + 0j), np.eye(4))

    def test_embed_pure_imaginary(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        H = 1j * B
        want = np.array([
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ])
        assert np.array_equal(mc.embed(H), want)

    def test_embed_diagonal(self):
        H = np.diag([1.0, 4.0]) + 0j
        assert np.array_equal(mc.embed(H), np.diag([1.0, 4.0, 1.0, 4.0]))

    def test_embed_commutes_with_j(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            M = mc.embed(rand_herm(rng, n))
            J = complex_structure(n)
            assert np.max(np.abs(M @ J - J @ M)) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            H = rand_herm(rng, n)
            H2 = mc.hermitian_blocks(mc.embed(H))
            assert np.max(np.abs(H.real - H2.real)) <= 1e-14
            assert np.max(np.abs(H.imag - H2.imag)) <= 1e-14

    def test_hermitian_block_validation(self):
        # a Hermitian matrix is validated as its embedding
        with pytest.raises(ValueError):
            mc.as_symmetric(mc.embed(np.array([[0.0, 1.0], [0.0, 0.0]]) + 0j))
        with pytest.raises(ValueError):
            mc.as_symmetric(mc.embed(np.eye(2) + 1j * np.eye(2)))
        # a NaN on the diagonal passes both symmetry checks
        with pytest.raises(ValueError, match="finite"):
            mc.as_symmetric(mc.embed(np.diag([1.0, np.nan]) + 0j))
        Z = np.eye(2, dtype=complex)
        Z.imag[0, 1], Z.imag[1, 0] = np.inf, -np.inf
        with pytest.raises(ValueError, match="finite"):
            mc.as_symmetric(mc.embed(Z))


class TestProject:
    def test_two_by_two_diagonal(self):
        a, b = 1.7, -0.3
        P = project(np.diag([a, b]))
        assert np.allclose(P, (a + b) / 2.0 * np.eye(2), atol=1e-15)

    def test_fixed_point_on_embedded(self):
        rng = np.random.default_rng(5)
        M = mc.embed(rand_herm(rng, 2))
        assert np.max(np.abs(project(M) - M)) < 1e-14

    def test_identity_plus_corner(self):
        M = np.eye(2)
        M[0, 0] = 2.0
        assert np.allclose(project(M), np.diag([1.5, 1.5]), atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            M = rand_sym(rng, 8)
            P = project(M)
            assert np.max(np.abs(project(P) - P)) <= 1e-14

    def test_result_commutes_with_j(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 4):
            M = rand_sym(rng, 2 * n)
            P = project(M)
            J = complex_structure(n)
            assert np.max(np.abs(P @ J - J @ P)) <= 1e-13 * max(1.0, np.max(np.abs(M)))

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            N = rand_sym(rng, 4)
            M = rand_sym(rng, 4)
            r = trace_inner(project(N), M - project(M))
            assert abs(r) <= 1e-12 * max(1.0, np.max(np.abs(N)) * np.max(np.abs(M)))

    def test_pairing_sees_only_projection(self):
        rng = np.random.default_rng(29)
        N = rand_sym(rng, 8)
        M = rand_sym(rng, 8)
        lhs = trace_inner(project(N), M)
        rhs = trace_inner(project(N), project(M))
        assert abs(lhs - rhs) <= 1e-12 * np.max(np.abs(N)) * np.max(np.abs(M))


class TestHermitianEigen:
    def test_diagonal(self):
        H = np.diag([1.0, 4.0]) + 0j
        assert np.allclose(hermitian_eigs_of(mc.embed(H)), [1.0, 4.0], atol=1e-13)

    def test_pure_imaginary_pair(self):
        # H = [[0, i], [-i, 0]] has characteristic polynomial l^2 - 1
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        H = 1j * B
        assert np.allclose(hermitian_eigs_of(mc.embed(H)), [-1.0, 1.0], atol=1e-13)

    def test_identity(self):
        for n in (1, 2, 3):
            H = np.eye(n, dtype=complex)
            assert np.allclose(hermitian_eigs_of(mc.embed(H)), np.ones(n), atol=1e-14)

    def test_against_numpy(self):
        rng = np.random.default_rng(37)
        for n in (1, 2, 3, 4):
            H = rand_herm(rng, n)
            mu = hermitian_eigs_of(mc.embed(H))
            ref = np.linalg.eigvalsh(H)
            assert np.max(np.abs(mu - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_embedded_spectrum_comes_in_pairs(self):
        rng = np.random.default_rng(59)
        for n in (2, 3):
            H = rand_herm(rng, n)
            w = np.linalg.eigvalsh(mc.embed(H))
            scale = max(1.0, float(np.max(np.abs(w))))
            assert np.max(np.abs(w[0::2] - w[1::2])) <= 1e-12 * scale
            assert np.max(np.abs(w[0::2] - hermitian_eigs_of(mc.embed(H)))) <= 1e-11 * scale


class TestHermEigensystem:
    @settings(max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(N2_KINDS),
           exponent=st.sampled_from((0, 8, -8, 150, -150, "max")))
    def test_n2_closed_form(self, seed, kind, exponent):
        # LAPACK's own eigenvalues stray up to ~6 eps max|Z| from the exact
        # ones on random stacks, so the closed form is held to 4 eps max|Z|
        # of the exact eigenvalues and to 8 eps max|Z| of LAPACK's
        Z = n2_stack(np.random.default_rng(seed), kind)
        if exponent == "max":
            # each matrix scaled so its largest |eigenvalue| lies in
            # (DBL_MAX/2, DBL_MAX), where a + c and the like overflow
            big = np.max(np.abs(exact_eigs(Z)), axis=1)
            Z = Z / np.where(big > 0.0, big, 1.0)[:, None, None] * (0.75 * np.finfo(float).max)
        else:
            Z = Z * 10.0 ** exponent
        eps = np.finfo(float).eps
        size = np.max(np.abs(Z), axis=(1, 2))[:, np.newaxis]
        mu, U = mc.herm_eigensystem(Z)
        assert np.all(mu[:, 0] <= mu[:, 1])   # np.diff may overflow at "max"
        assert np.all(np.abs(mu - exact_eigs(Z)) <= 4 * eps * size)
        assert np.all(np.abs(mu - np.linalg.eigvalsh(Z)) <= 8 * eps * size)
        UH = U.conj().swapaxes(1, 2)
        assert np.max(np.abs(UH @ U - np.eye(2))) <= 1e-15
        residual = np.abs((U * mu[:, np.newaxis, :]) @ UH - Z)
        assert np.all(residual <= 8 * eps * size[..., np.newaxis])

    def test_reads_the_lower_triangle(self):
        Z = n2_stack(np.random.default_rng(5), "random")
        garbled = Z.copy()
        garbled[:, 0, 1] = 7.0 - 3.0j
        garbled[:, 0, 0] += 2.0j
        for want, got in zip(mc.herm_eigensystem(Z), mc.herm_eigensystem(garbled)):
            assert np.array_equal(want, got)

    def test_lapack_for_other_n(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 4):
            Hs = [rand_herm(rng, n) for _ in range(5)]
            Z = np.array(Hs)
            mu, U = mc.herm_eigensystem(Z)
            ref_mu, ref_U = np.linalg.eigh(Z)
            assert np.array_equal(mu, ref_mu) and np.array_equal(U, ref_U)


class TestHermFromEigensystem:
    @pytest.mark.parametrize("kind", N2_KINDS)
    @pytest.mark.parametrize("theta", [0.5, 1e-8])
    def test_n2_diagonal_keeps_its_relative_accuracy(self, kind, theta):
        # a diagonal entry of U diag(p) U^H is a convex combination of the
        # slopes, so it keeps its relative accuracy near the smaller one even
        # where p1 = 1/theta >> p2 = theta; p1 I + (p2 - p1) v v^H would not
        rng = np.random.default_rng(9)
        U = mc.herm_eigensystem(n2_stack(rng, kind))[1]
        p = np.where(rng.uniform(size=(len(U), 2)) < 0.5, theta, 1.0 / theta)
        p[::3] = rng.uniform(theta, 1.0 / theta, size=(len(p[::3]), 2))
        got = mc.herm_from_eigensystem(U, p).diagonal(axis1=1, axis2=2)
        want = ((U * p[:, np.newaxis, :]) @ U.conj().swapaxes(1, 2)).diagonal(axis1=1, axis2=2)
        assert np.all(got.imag == 0.0)
        assert np.all(np.abs(got.real - want.real) <= 4 * np.finfo(float).eps * want.real)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_other_n_is_hermitian_and_keeps_diagonal_accuracy(self, n):
        # the same entrywise sums at every n: Q is its own conjugate
        # transpose bit for bit, and a diagonal entry, a sum of n positive
        # terms, keeps its relative accuracy near theta; every other matrix
        # is nearly diagonal, so there the slope 1/theta reaches the
        # diagonal only through |U_ik|^2 ~ 1e-18
        rng = np.random.default_rng(10)
        theta = 1e-8
        Z = np.array([rand_herm(rng, n) for _ in range(64)])
        Z[::2] = np.array([np.diag(rng.normal(size=n)) for _ in range(32)]) + 1e-9 * Z[::2]
        U = mc.herm_eigensystem(Z)[1]
        p = np.where(rng.uniform(size=(len(U), n)) < 0.5, theta, 1.0 / theta)
        Q = mc.herm_from_eigensystem(U, p)
        assert np.array_equal(Q, Q.conj().swapaxes(1, 2))
        got = Q.diagonal(axis1=1, axis2=2)
        want = ((U * p[:, np.newaxis, :]) @ U.conj().swapaxes(1, 2)).diagonal(axis1=1, axis2=2)
        assert np.all(got.imag == 0.0)
        assert np.all(np.abs(got.real - want.real) <= (n + 2) * np.finfo(float).eps * want.real)


class TestDetRoot:
    def test_identity(self):
        for n in (1, 2, 4):
            assert abs(det_root(np.eye(2 * n)) - 1.0) < 1e-14

    def test_embedded_diagonal(self):
        M = mc.embed(np.diag([1.0, 4.0]) + 0j)
        assert abs(det_root(M) - 2.0) < 1e-13

    def test_two_by_two(self):
        assert abs(det_root(np.diag([1.0, 3.0])) - 2.0) < 1e-14

    def test_rejects_indefinite_projection(self):
        with pytest.raises(ValueError, match="smallest eigenvalue of the projection is -1"):
            det_root(np.diag([1.0, -3.0]))

    def test_determinant_bridge(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            H = rand_herm(rng, n, psd=True)
            mu = hermitian_eigs_of(mc.embed(H))
            det_c = float(np.prod(mu))
            val = det_root(mc.embed(H))
            assert abs(val - det_c ** (1.0 / n)) <= 1e-10 * max(1.0, val)
            # cross-check the complex determinant against an external route
            ref = float(np.linalg.det(H).real)
            assert abs(det_c - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            H = rand_herm(rng, 2, psd=True)
            M = mc.embed(H)
            t = float(rng.uniform(0.1, 5.0))
            v1 = det_root(t * M)
            v2 = t * det_root(M)
            assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v2))

    def test_minkowski_concavity(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            M1 = mc.embed(rand_herm(rng, 2, psd=True))
            M2 = mc.embed(rand_herm(rng, 2, psd=True))
            mid = det_root((M1 + M2) / 2.0)
            avg = (det_root(M1) + det_root(M2)) / 2.0
            assert mid >= avg - 1e-10


class TestBoxAndNorms:
    def test_in_theta_box_examples(self):
        # envelope.in_box, eval's in_theta_box, on the Hermitian eigenvalues
        box = ThetaBox(0.5, 2)
        assert in_box(hermitian_eigs_of(np.eye(4)), box)
        assert not in_box(hermitian_eigs_of(3.0 * np.eye(4)), box)
        M = mc.embed(np.diag([0.5, 2.0]) + 0j)
        assert in_box(hermitian_eigs_of(M), box)
        # 1e-9 of slack on either side, row by row on a stack
        mu = np.array([[0.5 - 1e-10, 2.0 + 1e-10], [0.5 - 1e-8, 1.0], [1.0, 2.0 + 1e-8]])
        assert in_box(mu, box).tolist() == [True, False, False]

    def test_in_box_slack_is_relative_at_the_upper_face(self):
        # one ulp at 1/theta = 1e10 is 1.9e-6, far above an absolute 1e-9:
        # the slack must be relative to reach the next float above the face
        box = ThetaBox(1e-10, 1)
        assert in_box(np.array([np.nextafter(box.hi, np.inf)]), box)
        assert in_box(np.array([box.hi * (1 + 5e-10)]), box)
        assert not in_box(np.array([box.hi * (1 + 2e-9)]), box)

    def test_tangent_in_box_slack_is_relative_at_the_lower_face(self):
        # at theta = 1e-13 the tangent slope of mu = (theta, 1/theta) is
        # (1/(2 theta), theta/2), and theta/2 lies below the box by 5e-14:
        # within an absolute 1e-12, outside the relative slack
        box = ThetaBox(1e-13, 2)
        assert not tangent_in_box(np.array([1e-13, 1e13]), box)
        assert tangent_in_box(np.array([1e-13, 1e-13]), box)

    def test_admissible_theta(self):
        assert mc.admissible_theta(1.0, 1.0) == 1.0
        assert mc.admissible_theta(0.3, 4.0) == 0.25
        assert mc.admissible_theta(0.1, 5.0) == 0.1

    def test_admissible_theta_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            mc.admissible_theta(3.0, 2.0)
        with pytest.raises(ValueError):
            mc.admissible_theta(-1.0, 2.0)
        for lam, Lam in ((np.nan, 2.0), (1.0, np.nan), (1.0, np.inf), (np.inf, np.inf)):
            with pytest.raises(ValueError, match="finite and positive, got lambda="):
                mc.admissible_theta(lam, Lam)

    def test_trace_inner(self):
        assert trace_inner(np.eye(4), np.eye(4)) == 4.0

    def test_spectral_norm(self):
        assert abs(spectral_norm(np.diag([1.0, -3.0, 2.0, 0.0])) - 3.0) < 1e-13


class TestSymmetrize:
    def test_silent_symmetrization_below_tolerance(self):
        M = np.eye(2)
        M[0, 1] = 1e-12
        S = mc.as_symmetric(M)
        assert S[0, 1] == S[1, 0]

    def test_rejects_large_asymmetry(self):
        M = np.eye(2)
        M[0, 1] = 1e-6
        with pytest.raises(ValueError):
            mc.as_symmetric(M)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            mc.as_symmetric(np.eye(3))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            mc.as_symmetric(np.eye(18))
