import math

import numpy as np
import pytest

from thetacoble.characteristics import Characteristic, enumerate_characteristics
from thetacoble.sampling import random_tau, random_z, stream
import importlib

th = importlib.import_module("thetacoble.theta")


RNG = stream(99, "test_theta")
TAUS = {g: [random_tau(RNG, g) for _ in range(3)] for g in (1, 2, 3)}


class TestPeriodMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            th.PeriodMatrix(2, np.array([[1j, 0.5], [0.2, 1j]]))

    def test_rejects_non_positive_imaginary(self):
        with pytest.raises(ValueError):
            th.PeriodMatrix(2, np.array([[1j, 0], [0, -1j]]))

    def test_json_round_trip(self):
        tau = TAUS[2][0]
        again = th.PeriodMatrix.from_json(tau.to_json())
        assert np.allclose(again.tau, tau.tau)

    def test_phase_point_round_trip(self):
        z = random_z(RNG, 3)
        again = th.PhasePoint.from_json(z.to_json())
        assert np.allclose(again.z, z.z)


class TestTruncation:
    def test_tail_bound_below_tol(self):
        for g in (1, 2, 3):
            spec = th.truncation_radius(TAUS[g][0], th.PhasePoint.zero(g), 1e-12)
            assert spec.certified_tail_bound < 1e-12

    def test_oversampling_oracle(self):
        # recomputing with radius + 3 extra shells must agree within tol
        for g in (1, 2, 3):
            tau = TAUS[g][0]
            z = random_z(RNG, g)
            m = Characteristic(g, 1)
            base = th.theta(tau, z, m, 1e-12)

            spec = th.truncation_radius(tau, z, 1e-12)
            p = th._lattice(g, spec.radius + 3)
            q = p + np.array(m.mp, float) / 2
            shift = z.z + np.array(m.mpp, float) / 2
            expo = np.einsum("ni,ij,nj->n", q, tau.tau, q) + 2.0 * (q @ shift)
            oracle = complex(np.exp(1j * math.pi * expo).sum())
            assert abs(base - oracle) < 1e-11


class TestThetaSymmetries:
    def test_odd_at_zero_is_exact_zero(self):
        for g in (1, 2, 3):
            z0 = th.PhasePoint.zero(g)
            for m in enumerate_characteristics(g, "odd"):
                assert th.theta(TAUS[g][0], z0, m) == 0.0

    def test_z_parity(self):
        # theta_m(tau, -z) = parity(m) * theta_m(tau, z)
        for g in (1, 2, 3):
            tau = TAUS[g][1]
            z = random_z(RNG, g)
            for m in list(enumerate_characteristics(g, "all"))[:6]:
                a = th.theta(tau, th.PhasePoint(g, -z.z), m)
                b = m.parity * th.theta(tau, z, m)
                assert abs(a - b) < 1e-10

    def test_integer_shift_quasiperiodicity(self):
        # theta_m(tau, z + b) = (-1)^{m'.b} theta_m(tau, z) for integer b
        g = 2
        tau = TAUS[g][2]
        z = random_z(RNG, g)
        b = np.array([1.0, 0.0])
        for m in list(enumerate_characteristics(g, "all"))[:8]:
            lhs = th.theta(tau, th.PhasePoint(g, z.z + b), m)
            sign = (-1) ** int(np.dot(m.mp, b) % 2)
            assert abs(lhs - sign * th.theta(tau, z, m)) < 1e-9

    def test_lattice_shift_quasiperiodicity(self):
        # theta_m(z + tau a) = exp(-pi i a tau a - 2 pi i a.(z + m''/2)) theta_m(z)
        g = 2
        tau = TAUS[g][0]
        z = random_z(RNG, g)
        a = np.array([1.0, 0.0])
        for m in list(enumerate_characteristics(g, "all"))[:8]:
            lhs = th.theta(tau, th.PhasePoint(g, z.z + tau.tau @ a), m, 1e-13)
            factor = np.exp(
                -1j * math.pi * (a @ tau.tau @ a)
                - 2j * math.pi * (a @ (z.z + np.array(m.mpp) / 2))
            )
            rhs = factor * th.theta(tau, z, m, 1e-13)
            assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-9


class TestGradient:
    def test_finite_difference_oracle(self):
        h = 1e-5
        for g in (1, 2, 3):
            tau = TAUS[g][0]
            m = list(enumerate_characteristics(g, "odd"))[0]
            grad = th.theta_gradient(tau, m)
            for k in range(g):
                zp = np.zeros(g, complex)
                zp[k] = h
                fd = (
                    th.theta(tau, th.PhasePoint(g, zp), m)
                    - th.theta(tau, th.PhasePoint(g, -zp), m)
                ) / (2 * h)
                assert abs(grad[k] - fd) < 1e-6 * max(1.0, abs(grad[k]))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            th.theta_gradient(TAUS[2][0], Characteristic(2, 0))


class TestJacobianDet:
    def test_antisymmetry(self):
        tau = TAUS[2][0]
        odds = list(enumerate_characteristics(2, "odd"))
        a = th.jacobian_det(tau, odds[:2])
        b = th.jacobian_det(tau, [odds[1], odds[0]])
        assert abs(a + b) < 1e-12 * abs(a)

    def test_cached_gradient_is_theta_gradient(self):
        # a tau no other test evaluates, so the first call is a memo miss
        tau = random_tau(stream(7, "test_theta.cached_gradient"), 3)
        m = list(enumerate_characteristics(3, "odd"))[0]
        want = th.theta_gradient(tau, m)
        miss = th.cached_gradient(tau, m)
        hit = th.cached_gradient(tau, m)
        assert np.array_equal(miss, want)
        assert hit is miss

    def test_cached_gradient_rejects_genus_mismatch(self):
        # the memo key holds the index, not the genus, of the characteristic
        tau = TAUS[3][0]
        m = list(enumerate_characteristics(3, "odd"))[0]
        th.cached_gradient(tau, m)
        with pytest.raises(ValueError, match="genus mismatch"):
            th.cached_gradient(tau, Characteristic(2, m.idx))

    def test_rejects_wrong_count(self):
        odds = list(enumerate_characteristics(3, "odd"))
        with pytest.raises(ValueError, match="need exactly 3"):
            th.jacobian_det(TAUS[3][0], odds[:2])

    def test_rejects_duplicates(self):
        odds = list(enumerate_characteristics(2, "odd"))
        with pytest.raises(ValueError):
            th.jacobian_det(TAUS[2][0], [odds[0], odds[0]])


class TestSecondOrder:
    def test_definition_consistency(self):
        g = 2
        tau = TAUS[g][0]
        z = random_z(RNG, g)
        for e in range(1 << g):
            bits = format(e, f"0{g}b")
            direct = th.theta2(tau, z, bits)
            m = Characteristic.from_bits([int(b) for b in bits], [0] * g)
            expect = th.theta(
                th.PeriodMatrix(g, 2 * tau.tau), th.PhasePoint(g, 2 * z.z), m
            )
            assert direct == expect

    def test_rejects_non_binary_digits(self):
        with pytest.raises(ValueError):
            th.theta2(TAUS[3][0], th.PhasePoint.zero(3), "012")

    def test_even_in_z(self):
        g = 3
        tau = TAUS[g][0]
        z = random_z(RNG, g)
        for e in ("000", "101"):
            a = th.theta2(tau, z, e)
            b = th.theta2(tau, th.PhasePoint(g, -z.z), e)
            assert abs(a - b) < 1e-10
