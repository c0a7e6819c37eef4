"""Tests for the slope-box envelope: conjugate intercepts, exact evaluation
against the grid oracle, certificates, ellipticity, and the randomized
property checks."""

import numpy as np
import pytest

from envma import matrixcore as mc
from envma.envelope import (
    ThetaBox,
    conjugate_intercept,
    conjugate_maximizer,
    ellipticity_gap,
    envelope_eval,
    envelope_eval_bruteforce,
    envelope_value,
    sample_in_box,
    sample_psd,
    sample_symmetric,
    sample_unitary_blocks,
    tangent_in_box,
    unitary_rotation,
    verify_envelope,
    _saddle,
)
from envma.errors import NotPSD, ResolutionTooCoarse

BOX1 = ThetaBox(0.5, 1)
BOX2 = ThetaBox(0.5, 2)


def mu_matrix(mu):
    """Symmetric matrix whose projection has Hermitian eigenvalues mu."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.shape[0]
    return mc.embed(mc.HermitianMatrix(np.diag(mu), np.zeros((n, n))))


def envelope_1d_closed_form(mu, theta):
    """Reference piecewise-linear envelope for n = 1."""
    if mu < theta:
        return mu / theta + theta - 1.0
    if mu > 1.0 / theta:
        return theta * mu + 1.0 / theta - 1.0
    return mu


def grid_conjugate(p, theta, n=1, res=200001):
    """Independent 1-D grid-search oracle for the minimal intercept."""
    assert n == 1
    x = np.linspace(theta, 1.0 / theta, res)
    return float(np.max(x - p * x))


class TestConjugateIntercept:
    def test_spot_values(self):
        # frozen values confirmed by the 1-D grid oracle below
        assert abs(conjugate_intercept(np.array([1.0]), BOX1) - 0.0) < 1e-12
        assert abs(conjugate_intercept(np.array([0.5]), BOX1) - 1.0) < 1e-12
        assert abs(conjugate_intercept(np.array([2.0]), BOX1) + 0.5) < 1e-12

    def test_against_grid_oracle(self):
        for p in (0.5, 0.7, 1.0, 1.3, 2.0):
            g = conjugate_intercept(np.array([p]), BOX1)
            ref = grid_conjugate(p, 0.5)
            assert abs(g - ref) < 1e-5

    def test_maximizers(self):
        g, x = conjugate_maximizer(np.array([0.5]), BOX1)
        assert abs(x[0] - 2.0) < 1e-12
        g, x = conjugate_maximizer(np.array([2.0]), BOX1)
        assert abs(x[0] - 0.5) < 1e-12

    def test_duality_on_grid(self):
        rng = np.random.default_rng(61)
        for n, box in ((1, BOX1), (2, BOX2)):
            for _ in range(10):
                p = rng.uniform(box.theta, box.hi, size=n)
                g, xstar = conjugate_maximizer(p, box)
                axis = np.linspace(box.theta, box.hi, 41)
                grids = np.meshgrid(*([axis] * n), indexing="ij")
                pts = np.column_stack([gr.ravel() for gr in grids])
                fx = np.prod(pts, axis=1) ** (1.0 / n)
                assert np.all(g + pts @ p >= fx - 1e-9)
                assert abs(g + p @ xstar - float(np.prod(xstar)) ** (1.0 / n)) <= 1e-9

    def test_rejects_slope_outside_box(self):
        with pytest.raises(ValueError):
            conjugate_intercept(np.array([0.1]), BOX1)
        with pytest.raises(ValueError):
            conjugate_intercept(np.array([1.0, 3.0]), BOX2)

    def test_degenerate_theta_one(self):
        box = ThetaBox(1.0, 2)
        g = conjugate_intercept(np.array([1.0, 1.0]), box)
        assert abs(g - (1.0 - 2.0)) < 1e-12  # F(1,1) - <1, (1,1)> = 1 - n


class TestEnvelopeClosedForms:
    def test_n1_spot_values(self):
        assert abs(envelope_value(mu_matrix([1.0]), BOX1) - 1.0) < 1e-12
        assert abs(envelope_value(mu_matrix([4.0]), BOX1) - 3.0) < 1e-12
        assert abs(envelope_value(mu_matrix([0.0]), BOX1) + 0.5) < 1e-12

    def test_n1_certificate_slopes(self):
        cert = envelope_eval(mu_matrix([4.0]), BOX1)
        assert abs(cert.slope_eigs[0] - 0.5) < 1e-12
        cert = envelope_eval(mu_matrix([0.0]), BOX1)
        assert abs(cert.slope_eigs[0] - 2.0) < 1e-12

    def test_n1_piecewise_branches(self):
        for theta in (0.3, 0.5, 0.9):
            box = ThetaBox(theta, 1)
            for mu in np.linspace(-2.0, 2.0 / theta, 41):
                v = envelope_value(mu_matrix([mu]), box)
                assert abs(v - envelope_1d_closed_form(mu, theta)) < 1e-11

    def test_not_positively_homogeneous(self):
        # envelopes lose 1-homogeneity outside the box
        f4 = envelope_value(mu_matrix([4.0]), BOX1)
        f8 = envelope_value(mu_matrix([8.0]), BOX1)
        assert abs(f8 - 5.0) < 1e-12
        assert abs(f8 - 2.0 * f4) > 0.5

    def test_n2_hand_values(self):
        assert abs(_saddle(np.array([3.0, 0.1]), BOX2)[0] - 0.95) < 1e-12
        assert abs(_saddle(np.array([0.6, 1.8]), BOX2)[0] - 1.2) < 1e-12
        assert abs(_saddle(np.array([1.0, 1.0]), BOX2)[0] - 1.0) < 1e-12

    def test_value_at_zero_matrix(self):
        # suffix-railed structure: value theta - n
        for n, theta in ((1, 0.5), (2, 0.5), (2, 0.3), (3, 0.7)):
            box = ThetaBox(theta, n)
            v = envelope_value(np.zeros((2 * n, 2 * n)), box)
            assert abs(v - (theta - n)) < 1e-12

    def test_theta_one_envelope_is_affine(self):
        rng = np.random.default_rng(67)
        for n in (1, 2, 3):
            box = ThetaBox(1.0, n)
            for _ in range(5):
                M = sample_symmetric(rng, 2 * n, float(rng.uniform(0, 2)))
                mu = mc.hermitian_eigs_of(M)
                v = envelope_value(M, box)
                assert abs(v - (float(np.sum(mu)) - n + 1.0)) < 1e-10


class TestOracleEquivalence:
    def test_brute_matches_exact_random(self):
        rng = np.random.default_rng(71)
        for n, res in ((1, 1024), (2, 96)):
            box_thetas = (0.3, 0.5, 0.9)
            for k in range(36):
                theta = box_thetas[k % 3]
                box = ThetaBox(theta, n)
                shift = float(rng.uniform(0.0, 3.0)) if k % 2 == 0 else 0.0
                M = sample_symmetric(rng, 2 * n, shift)
                ve = envelope_value(M, box)
                vb = envelope_eval_bruteforce(M, box, res)
                assert abs(ve - vb) <= 5.0 / res, (n, theta, ve, vb)

    def test_brute_spot_guarantees(self):
        assert abs(envelope_eval_bruteforce(mu_matrix([4.0]), BOX1, 4096) - 3.0) <= 1e-3
        assert abs(envelope_eval_bruteforce(mu_matrix([1.0]), BOX1, 4096) - 1.0) <= 1e-3
        assert abs(envelope_eval_bruteforce(mu_matrix([1.0, 1.0]), BOX2, 256) - 1.0) <= 1e-2

    def test_brute_validation(self):
        with pytest.raises(ResolutionTooCoarse):
            envelope_eval_bruteforce(mu_matrix([1.0]), BOX1, 4)
        with pytest.raises(ValueError):
            envelope_eval_bruteforce(np.eye(6), ThetaBox(0.5, 3), 64)


class TestAgreementOnBox:
    def test_n1_agreement_everywhere_on_box(self):
        rng = np.random.default_rng(73)
        for theta in (0.3, 0.5, 0.9):
            box = ThetaBox(theta, 1)
            for _ in range(60):
                M = sample_in_box(rng, box)
                f = mc.det_root(M)
                v = envelope_value(M, box)
                assert abs(v - f) <= 1e-8 * max(1.0, abs(f))

    def test_envelope_dominates_on_box(self):
        rng = np.random.default_rng(79)
        for box in (BOX1, BOX2, ThetaBox(0.9, 2)):
            for _ in range(40):
                M = sample_in_box(rng, box)
                assert envelope_value(M, box) >= mc.det_root(M) - 1e-9

    def test_n2_agreement_where_tangent_admissible(self):
        rng = np.random.default_rng(83)
        box = ThetaBox(0.3, 2)
        hits = 0
        for _ in range(200):
            M = sample_in_box(rng, box)
            mu = mc.hermitian_eigs_of(M)
            if not tangent_in_box(mu, box):
                continue
            hits += 1
            f = mc.det_root(M)
            assert abs(envelope_value(M, box) - f) <= 1e-8 * max(1.0, abs(f))
        assert hits > 10

    def test_n2_strict_gap_at_anisotropic_points(self):
        # with slopes confined to the box, the envelope sits strictly above
        # the operator at strongly anisotropic box points for n >= 2
        M = mu_matrix([0.6, 1.8])
        f = mc.det_root(M)
        v = envelope_value(M, BOX2)
        assert abs(v - 1.2) < 1e-12
        assert v > f + 0.1
        vb = envelope_eval_bruteforce(M, BOX2, 256)
        assert abs(v - vb) <= 5.0 / 256


class TestCertificates:
    def test_trace_identity(self):
        rng = np.random.default_rng(89)
        for n, box in ((1, BOX1), (2, BOX2), (2, ThetaBox(0.3, 2))):
            for k in range(15):
                M = sample_symmetric(rng, 2 * n, float(rng.uniform(0, 3)) if k % 2 else 0.0)
                cert = envelope_eval(M, box)
                lhs = mc.trace_inner(cert.slope_matrix, M) + cert.intercept
                assert abs(lhs - cert.value) <= 1e-9 * max(1.0, abs(cert.value))

    def test_value_entry_points_agree(self):
        rng = np.random.default_rng(91)
        for box in (BOX1, BOX2):
            M = sample_symmetric(rng, 2 * box.n, 1.5)
            assert envelope_eval(M, box).value == envelope_value(M, box)

    def test_value_equals_eig_pairing(self):
        rng = np.random.default_rng(97)
        box = ThetaBox(0.4, 2)
        for _ in range(10):
            M = sample_symmetric(rng, 4, 1.0)
            cert = envelope_eval(M, box)
            pairing = float(cert.slope_eigs @ cert.mu)
            assert abs(cert.value - (pairing + cert.intercept)) <= 1e-10

    def test_slope_eigs_in_box_and_sorted(self):
        rng = np.random.default_rng(101)
        for box in (BOX1, BOX2):
            for _ in range(20):
                M = sample_symmetric(rng, 2 * box.n, float(rng.uniform(0, 3)))
                cert = envelope_eval(M, box)
                assert np.all(cert.slope_eigs >= box.theta - 1e-12)
                assert np.all(cert.slope_eigs <= box.hi + 1e-12)
                assert np.all(np.diff(cert.slope_eigs) <= 1e-12)
                assert np.all(np.diff(cert.mu) >= -1e-12)

    def test_doubled_slope_matrix_is_box_member(self):
        rng = np.random.default_rng(103)
        for box in (BOX1, BOX2):
            M = sample_symmetric(rng, 2 * box.n, 1.0)
            cert = envelope_eval(M, box)
            assert mc.in_theta_box(2.0 * cert.slope_matrix, box.theta)

    def test_majorant_property(self):
        rng = np.random.default_rng(107)
        for box in (BOX1, BOX2):
            M = sample_symmetric(rng, 2 * box.n, float(rng.uniform(0, 3)))
            cert = envelope_eval(M, box)
            for _ in range(60):
                X = sample_in_box(rng, box)
                lhs = mc.trace_inner(cert.slope_matrix, X) + cert.intercept
                assert lhs >= mc.det_root(X) - 1e-9

    def test_intercept_is_minimal_feasible(self):
        rng = np.random.default_rng(109)
        box = BOX2
        M = sample_symmetric(rng, 4, 2.0)
        cert = envelope_eval(M, box)
        g = conjugate_intercept(np.sort(cert.slope_eigs), box)
        assert abs(cert.intercept - g) <= 1e-9 * max(1.0, abs(g))

    def test_directional_derivative_matches_slope(self):
        # envelope theorem at points with a unique optimizer
        for mu, box in (([4.0], BOX1), ([3.0, 0.1], BOX2)):
            M = mu_matrix(mu)
            cert = envelope_eval(M, box)
            rng = np.random.default_rng(113)
            D = sample_symmetric(rng, M.shape[0])
            t = 1e-6
            fd = (envelope_value(M + t * D, box) - cert.value) / t
            assert abs(fd - mc.trace_inner(cert.slope_matrix, D)) <= 1e-5


class TestStructuralProperties:
    def test_midpoint_concavity(self):
        rng = np.random.default_rng(127)
        for box in (BOX1, BOX2, ThetaBox(0.9, 2)):
            for k in range(60):
                d = 2 * box.n
                m1 = sample_symmetric(rng, d, float(rng.uniform(0, 3)) if k % 2 else 0.0)
                m2 = sample_symmetric(rng, d, float(rng.uniform(0, 3)) if k % 3 else 0.0)
                lhs = envelope_value((m1 + m2) / 2.0, box)
                rhs = (envelope_value(m1, box) + envelope_value(m2, box)) / 2.0
                assert lhs >= rhs - 1e-9

    def test_projection_factorization(self):
        rng = np.random.default_rng(131)
        for box in (BOX1, BOX2):
            for _ in range(20):
                M = sample_symmetric(rng, 2 * box.n, 1.0)
                v1 = envelope_value(M, box)
                v2 = envelope_value(mc.project(M), box)
                assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(137)
        for box in (BOX1, BOX2):
            for _ in range(10):
                M = sample_symmetric(rng, 2 * box.n, 1.0)
                R = unitary_rotation(*sample_unitary_blocks(rng, box.n))
                assert np.max(np.abs(R @ R.T - np.eye(2 * box.n))) < 1e-12
                v1 = envelope_value(M, box)
                v2 = envelope_value(R @ M @ R.T, box)
                assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))

    def test_monotonicity_in_psd_direction(self):
        rng = np.random.default_rng(139)
        for box in (BOX1, BOX2):
            for k in range(20):
                M = sample_symmetric(rng, 2 * box.n, float(rng.uniform(0, 2)))
                P = sample_psd(rng, 2 * box.n, ("gram", "embedded", "rank1", "scalar")[k % 4])
                assert envelope_value(M + P, box) >= envelope_value(M, box) - 1e-10


class TestEllipticityGap:
    def test_identity_example(self):
        M = np.eye(2)
        P = np.eye(2)
        lower, gap, upper = ellipticity_gap(M, P, BOX1)
        assert abs(gap - 1.0) < 1e-12
        assert abs(lower - 0.5) < 1e-12
        assert abs(upper - 4.0) < 1e-12
        assert lower - 1e-9 <= gap <= upper + 1e-9

    def test_zero_perturbation(self):
        lower, gap, upper = ellipticity_gap(np.eye(2), np.zeros((2, 2)), BOX1)
        assert lower == 0.0 and gap == 0.0 and upper == 0.0

    def test_linear_branch_gap(self):
        # above the box the envelope has slope theta exactly
        M = mu_matrix([4.0])
        P = np.eye(2)
        lower, gap, upper = ellipticity_gap(M, P, BOX1)
        assert abs(gap - 0.5) < 1e-12
        assert abs(lower - 0.5) < 1e-12  # the bound is tight here

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            ellipticity_gap(np.eye(2), np.diag([1.0, -0.5]), BOX1)

    def test_two_sided_bounds_random(self):
        rng = np.random.default_rng(149)
        kinds = ("gram", "embedded", "rank1", "scalar")
        for box in (BOX1, BOX2, ThetaBox(0.3, 2), ThetaBox(0.9, 1)):
            d = 2 * box.n
            for k in range(40):
                M = sample_symmetric(rng, d, float(rng.uniform(0, 3)) if k % 2 else 0.0)
                P = sample_psd(rng, d, kinds[k % 4])
                lower, gap, upper = ellipticity_gap(M, P, box)
                assert lower - 1e-9 <= gap <= upper + 1e-9
                nrm = mc.spectral_norm(P)
                # the looser dimensional lower constant holds for every psd P
                assert gap >= box.theta / (4 * box.n) * nrm - 1e-9
                if kinds[k % 4] in ("embedded", "scalar"):
                    # J-commuting perturbations get the full theta*||P|| bound
                    assert gap >= box.theta * nrm - 1e-9

    def test_general_psd_ratio_can_drop_to_half_theta(self):
        # gap/||P|| is exactly theta/2 for a rank-one perturbation on the
        # linear branch: the J-anticommuting half of P does not move the
        # projection, so the literal theta*||P|| bound fails off the
        # J-commuting class (the theta*lambda_max(proj P) bound is tight)
        M = mu_matrix([4.0])
        P = np.diag([1.0, 0.0])
        lower, gap, upper = ellipticity_gap(M, P, BOX1)
        assert abs(gap - 0.25) < 1e-12
        assert abs(lower - 0.25) < 1e-12
        assert gap < BOX1.theta * mc.spectral_norm(P) - 0.2


class TestVerifyEnvelope:
    def test_all_properties_pass_n1(self):
        report = verify_envelope(BOX1, samples=300, seed=7)
        assert report.all_pass, report.format()
        assert report.passed["concavity"] == 300
        assert report.gap_ratio_min is not None

    def test_empty_report(self):
        report = verify_envelope(BOX1, samples=0, seed=7)
        assert report.samples == 0
        assert report.all_pass
        assert all(v == 0 for v in report.passed.values())

    def test_theta_one_degenerate(self):
        report = verify_envelope(ThetaBox(1.0, 1), samples=50, seed=11)
        assert report.all_pass, report.format()

    def test_n2_report_passes(self):
        report = verify_envelope(ThetaBox(0.3, 2), samples=100, seed=13)
        assert report.all_pass, report.format()

    def test_higher_n_structural_properties(self):
        # beyond the grid oracle's range the structural checks still certify
        # the evaluation (concavity, domination, ellipticity, projection,
        # rotation invariance)
        for n in (3, 4):
            report = verify_envelope(ThetaBox(0.3, n), samples=40, seed=5)
            assert report.all_pass, report.format()


class TestThetaBox:
    def test_normalization(self):
        box = ThetaBox(1.5, 1)
        assert abs(box.theta - 2.0 / 3.0) < 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ThetaBox(0.0, 1)
        with pytest.raises(ValueError):
            ThetaBox(0.5, 0)
