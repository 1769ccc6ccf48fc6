import math

import numpy as np
import pytest

from thetacoble.characteristics import (
    ARONHOLD_EXAMPLE,
    FANO_TRIPLE_FAMILY,
    Characteristic,
    enumerate_characteristics,
)
from thetacoble.gopel import enumerate_gopel, even_coset, fano_from_aronhold
from thetacoble import modular
from thetacoble.sampling import random_tau, stream
from thetacoble.theta import PhasePoint, even_theta_constants, theta

RNG = stream(7, "test_modular")
TAU3 = random_tau(RNG, 3)
TAU2 = random_tau(RNG, 2)


class TestChi:
    def test_product_of_even_constants(self):
        # division-free value agrees with the naive product (same quantity)
        consts = even_theta_constants(TAU3)
        assert modular.chi(TAU3) == pytest.approx(math.prod(consts.values()), rel=1e-12)

    def test_rejects_genus_1(self):
        with pytest.raises(ValueError):
            modular.chi(random_tau(RNG, 1))


class TestHForms:
    def test_h_fano_division_oracle(self):
        # complement product equals chi / prod at generic tau
        sys = next(s for s in enumerate_gopel(3) if s.kind == "fano")
        hf = modular.h_fano(TAU3, sys)
        consts = even_theta_constants(TAU3)
        denom = math.prod(consts[i] for i in sys.idx_set())
        assert hf == pytest.approx(modular.chi(TAU3) / denom, rel=1e-10)

    def test_h_pascal_division_oracle(self):
        sys = next(s for s in enumerate_gopel(3) if s.kind == "pascal")
        hp = modular.h_pascal(TAU3, sys)
        consts = even_theta_constants(TAU3)
        denom = math.prod(consts[i] for i in even_coset(sys))
        assert hp == pytest.approx(modular.chi(TAU3) / denom, rel=1e-10)

    def test_h_goepel_dispatch(self):
        for s in enumerate_gopel(3)[:4]:
            want = modular.h_fano(TAU3, s) if s.kind == "fano" else modular.h_pascal(TAU3, s)
            assert modular.h_goepel(TAU3, s) == want

    def test_kind_mismatch_rejected(self):
        fano = next(s for s in enumerate_gopel(3) if s.kind == "fano")
        pascal = next(s for s in enumerate_gopel(3) if s.kind == "pascal")
        with pytest.raises(ValueError):
            modular.h_fano(TAU3, pascal)
        with pytest.raises(ValueError):
            modular.h_pascal(TAU3, fano)

    def test_genus_mismatch_rejected(self):
        tau2 = modular.reference_tau2()
        fano = next(s for s in enumerate_gopel(3) if s.kind == "fano")
        pascal = next(s for s in enumerate_gopel(3) if s.kind == "pascal")
        for h, s in ((modular.h_fano, fano), (modular.h_pascal, pascal), (modular.h_goepel, pascal)):
            with pytest.raises(ValueError, match="genus mismatch"):
                h(tau2, s)


class TestDualRoute:
    def test_ratio_is_constant_sign_times_pi21(self):
        sys = fano_from_aronhold(ARONHOLD_EXAMPLE, FANO_TRIPLE_FAMILY)
        ratios = []
        for _ in range(3):
            tau = random_tau(RNG, 3)
            ratios.append(
                modular.h_via_jacobian(tau, ARONHOLD_EXAMPLE, FANO_TRIPLE_FAMILY)
                / (modular.PI21 * modular.h_fano(tau, sys))
            )
        sign = 1.0 if ratios[0].real > 0 else -1.0
        assert all(abs(r - sign) < 1e-8 for r in ratios)


class TestRiemann:
    def test_signs_stable_on_samples(self):
        taus = [random_tau(RNG, 3) for _ in range(3)]
        pascals = [s for s in enumerate_gopel(3) if s.kind == "pascal"]
        for s in pascals[:10]:
            e1, e2 = modular.riemann_relation(s, taus)
            assert e1 in (1, -1) and e2 in (1, -1)

    def test_relation_value(self):
        pascal = next(s for s in enumerate_gopel(3) if s.kind == "pascal")
        e1, e2 = modular.riemann_relation(pascal, [TAU3])
        from thetacoble.gopel import pascal_decomposition

        dec = pascal_decomposition(pascal)
        hp = modular.h_pascal(TAU3, pascal)
        rhs = e1 * modular.h_fano(TAU3, dec.fano1) + e2 * modular.h_fano(TAU3, dec.fano2)
        assert abs(hp - rhs) / abs(hp) < 1e-8


class TestSVector:
    def test_shapes(self):
        assert modular.s_vector(TAU3).shape == (15,)
        assert modular.s_vector(TAU2).shape == (5,)

    def test_genus3_matches_fano_basis(self):
        from thetacoble.gopel import fano_basis

        s = modular.s_vector(TAU3)
        for i, f in enumerate(fano_basis()[:3]):
            assert s[i] == modular.h_fano(TAU3, f)

    def test_genus2_is_squared_complement(self):
        s = modular.s_vector(TAU2)
        consts = even_theta_constants(TAU2)
        q0 = modular.GENUS2_QUADRUPLES[0]
        expect = math.prod(v for i, v in consts.items() if i not in q0.idx_set()) ** 2
        assert s[0] == pytest.approx(expect, rel=1e-12)


class TestGenus2Triples:
    def test_partition_covers_all_evens(self):
        odds = list(enumerate_characteristics(2, "odd"))
        for n in enumerate_characteristics(2, "even"):
            t, u = modular.odd_triple_partition(n)
            assert sorted(t + u) == list(range(6))
            assert odds[t[0]] + odds[t[1]] + odds[t[2]] == n
            assert odds[u[0]] + odds[u[1]] + odds[u[2]] == n

    def test_triple_product_magnitude(self):
        n = list(enumerate_characteristics(2, "even"))[0]
        prod = modular.phi_star_triple(TAU2, n)
        target = math.pi**6 * modular.chi(TAU2) * theta(TAU2, PhasePoint.zero(2), n) ** 2
        assert abs(abs(prod) / abs(target) - 1) < 1e-10

    def test_rejects_odd_input(self):
        odd = list(enumerate_characteristics(2, "odd"))[0]
        with pytest.raises(ValueError):
            modular.odd_triple_partition(odd)


class TestGoepelMatrix:
    def test_shape_and_rank(self):
        taus = [random_tau(RNG, 3) for _ in range(18)]
        matrix = modular.goepel_form_matrix(taus)
        assert matrix.shape == (18, 135)
        sv = np.linalg.svd(matrix, compute_uv=False)
        assert int((sv > 1e-8 * sv[0]).sum()) == 15
