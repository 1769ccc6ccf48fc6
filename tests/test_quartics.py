import numpy as np
import pytest

from thetacoble import quartics
from thetacoble.sampling import random_tau, random_z, stream
from thetacoble.suites import run_suite
from thetacoble.theta import PhasePoint

RNG = stream(13, "test_quartics")
TAU3 = random_tau(RNG, 3)
TAU2 = random_tau(RNG, 2)


def _naive_q(label, x):
    """Independent oracle: the defining sums with their 1/2, 1/4 prefactors."""
    if label == "Q000":
        return sum(x[e] ** 4 for e in range(8))
    a = int(label.replace("'", "")[1:], 2)
    if label.startswith("Q'"):
        perp = [mu for mu in range(8) if bin(mu & a).count("1") % 2 == 0]
        return sum(np.prod([x[e ^ mu] for mu in perp]) for e in range(8)) / 4
    return sum(x[e] ** 2 * x[e ^ a] ** 2 for e in range(8)) / 2


def _kummer2_terms(s, x):
    """Independent oracle: the genus-2 Kummer quartic written out by hand, as
    its five terms a(Q) Q(x)."""
    terms = [s[0] * (x**4).sum()]
    # (s index pairing with the coefficient -(s1 + 2 s_i), unordered pairs of eps)
    for s_index, pairs in (
        (2, ((0, 2), (1, 3))),  # x00^2 x10^2 + x01^2 x11^2
        (3, ((0, 1), (2, 3))),  # x00^2 x01^2 + x10^2 x11^2
        (4, ((0, 3), (2, 1))),  # x00^2 x11^2 + x10^2 x01^2
    ):
        quad = sum(x[a] ** 2 * x[b] ** 2 for a, b in pairs)
        terms.append(-2 * (s[0] + 2 * s[s_index - 1]) * quad)
    terms.append(8 * (s[0] + s[1] + s[2] + s[3] + 2 * s[4]) * x.prod())
    return terms


class TestQuarticBasis:
    def test_labels(self):
        labels = quartics.quartic_labels()
        assert len(labels) == 15
        assert labels[0] == "Q000"
        assert labels.count("Q111") == 1 and labels.count("Q'111") == 1

    def test_monomial_counts(self):
        assert len(quartics.quartic_monomials("Q000")) == 8
        for a in ("001", "010", "011", "100", "101", "110", "111"):
            assert len(quartics.quartic_monomials(f"Q{a}")) == 4
            assert len(quartics.quartic_monomials(f"Q'{a}")) == 2
        # genus 2, read from the bit count: Q'00 is the product of all four x
        assert [len(quartics.quartic_monomials(label)) for label in quartics.KUMMER2_TABLE] == [
            4, 2, 2, 2, 1
        ]

    def test_eval_matches_naive_oracle(self):
        x = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
        for label in quartics.quartic_labels():
            assert quartics.q_basis_eval(label, x) == pytest.approx(
                _naive_q(label, x), rel=1e-12
            )

    def test_bad_label(self):
        # a-perp has 4 elements only for a != 0 in genus 3 and a = 0 in genus 2
        for label in ("Q1000", "Q0000", "Q'01", "Q'000", "Q0", "Q'", "P00", "Q02"):
            with pytest.raises(ValueError, match="bad label"):
                quartics.quartic_monomials(label)


class TestCobleTable:
    def test_monomial_count_134(self):
        assert quartics.coble_monomial_count() == 134

    def test_export_records(self):
        records = quartics.export_coble_formula()
        assert len(records) == 15
        by_label = {r["quartic_label"]: r["integer_combination"] for r in records}
        assert by_label["Q000"] == {"1": 1}
        assert by_label["Q111"] == {"1": -2, "10": 4}
        assert by_label["Q'111"] == {"1": 8, "4": 8, "7": 8, "9": 8, "15": 16}

    def test_coefficients_linear_in_s(self):
        s = np.arange(1.0, 16.0)
        a = quartics.coble_coefficients(s)
        assert a["Q000"] == s[0]
        assert a["Q100"] == -2 * s[0] - 4 * s[1]
        assert a["Q'001"] == 8 * (s[0] + s[1] + s[2] + s[3]) + 16 * s[4]


class TestCobleEval:
    def test_vanishing_on_theta_locus(self):
        z = random_z(RNG, 3)
        value, scale = quartics.coble_eval(TAU3, z)
        assert abs(value) / scale < 1e-10

    def test_gradient_vanishing(self):
        z = random_z(RNG, 3)
        values, scales = quartics.coble_gradient(TAU3, z)
        assert len(values) == 8
        assert max(abs(v) / s for v, s in zip(values, scales)) < 1e-10

    def test_gradient_finite_difference_oracle(self):
        # the x-level gradient coble_gradient returns, against central
        # differences of the full quartic built from the naive oracle, at an
        # arbitrary x (not on the locus), for all 8 variables
        from thetacoble.modular import s_vector

        a = quartics.coble_coefficients(s_vector(TAU3))
        x = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)

        def full(xv):
            return sum(a[l] * _naive_q(l, xv) for l in quartics.quartic_labels())

        values, scales = quartics.coble_gradient_at(a, x)
        h = 1e-6
        for var in range(8):
            step = np.zeros(8)
            step[var] = h
            fd = (full(x + step) - full(x - step)) / (2 * h)
            assert abs(values[var] - fd) < 1e-7 * scales[var]

    def test_coble_at_needs_8_values(self):
        a = quartics.coble_coefficients(np.arange(1.0, 16.0))
        with pytest.raises(ValueError, match="8 variable values"):
            quartics.coble_at(a, np.ones(7))

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            quartics.coble_eval(TAU2, PhasePoint.zero(2))


def _relabelled(a, old, new):
    return {new if label == old else label: value for label, value in a.items()}


class TestCoefficientDicts:
    """coble_at and coble_gradient_at read a coefficient dict only when its
    keys are exactly the labels of one table."""

    COBLE = quartics.coble_coefficients(np.arange(1.0, 16.0))
    KUMMER = dict(zip(quartics.KUMMER2_TABLE, np.arange(1.0, 6.0)))

    @pytest.mark.parametrize("evaluate", [quartics.coble_at, quartics.coble_gradient_at])
    def test_empty_dict_names_every_missing_label(self, evaluate):
        with pytest.raises(ValueError, match=r"genus-3 table: missing \['Q000', 'Q001', .*"
                                             r"\"Q'111\"\], unexpected \[\]"):
            evaluate({}, np.ones(8))

    @pytest.mark.parametrize("evaluate", [quartics.coble_at, quartics.coble_gradient_at])
    def test_one_wrong_label_is_named_both_ways(self, evaluate):
        a = _relabelled(self.COBLE, "Q001", "Q0001")
        with pytest.raises(ValueError, match=r"missing \['Q001'\], unexpected \['Q0001'\]"):
            evaluate(a, np.ones(8))
        with pytest.raises(ValueError, match=r"missing \[\], unexpected \[7\]"):
            evaluate({**self.COBLE, 7: 1.0}, np.ones(8))

    def test_kummer_dict_is_checked_against_its_own_table(self):
        a = _relabelled(self.KUMMER, "Q'00", "Q'01")
        with pytest.raises(ValueError, match=r"genus-2 table: missing \[\"Q'00\"\], "
                                             r"unexpected \[\"Q'01\"\]"):
            quartics.coble_at(a, np.ones(4))
        with pytest.raises(ValueError, match=r"genus-3 table"):
            quartics.coble_gradient_at(self.KUMMER, np.ones(8))

    def test_exact_dicts_evaluate_as_the_table_paths(self):
        # the public dicts give the values coble_eval and kummer2_eval compute
        # from coefficient arrays
        from thetacoble.modular import s_vector

        for tau, g, evaluate in ((TAU3, 3, quartics.coble_eval), (TAU2, 2, quartics.kummer2_eval)):
            z = random_z(RNG, g)
            s, x = s_vector(tau), quartics.theta2_vector(tau, z)
            labels = quartics._coble_tables(g)[0]
            a = dict(zip(labels, quartics._coefficients(g, s).tolist()))
            assert quartics.coble_at(a, x) == evaluate(tau, z)
        a = quartics.coble_coefficients(s_vector(TAU3))
        z = random_z(RNG, 3)
        assert quartics.coble_gradient_at(a, quartics.theta2_vector(TAU3, z)) == \
            quartics.coble_gradient(TAU3, z)


class TestKummer2:
    def test_vanishing(self):
        z = random_z(RNG, 2)
        value, scale = quartics.kummer2_eval(TAU2, z)
        assert abs(value) / scale < 1e-12

    def test_nonvanishing_off_locus(self):
        # perturbing one second-order coordinate must leave the surface
        x = quartics.theta2_vector(TAU2, random_z(RNG, 2))
        from thetacoble.modular import s_vector

        s = s_vector(TAU2)
        x = x.copy()
        x[0] *= 1.1
        terms = _kummer2_terms(s, x)
        assert abs(sum(terms)) / max(abs(t) for t in terms) > 1e-4

    def test_table_path_matches_oracle(self, monkeypatch):
        # kummer2_eval against the written-out formula at random (s, x) off
        # the surface; n = 16 bounds the roundings along one term: the s sum,
        # the monomial product, a(Q) Q(x) and the sums over monomials and labels
        bound = 16 * np.finfo(float).eps
        for _ in range(50):
            s = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
            x = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
            monkeypatch.setattr(quartics, "s_vector", lambda tau, tol: s)
            monkeypatch.setattr(quartics, "theta2_vector", lambda tau, z, tol: x)
            terms = _kummer2_terms(s, x)
            value, scale = quartics.kummer2_eval(TAU2, PhasePoint.zero(2))
            assert abs(value - sum(terms)) <= bound * sum(abs(t) for t in terms)
            assert abs(scale - max(abs(t) for t in terms)) <= bound * scale


class TestModularity:
    def test_translation_zero_exact(self):
        z = random_z(RNG, 3)
        assert quartics.jacobi_form_residual(("S", np.zeros((3, 3))), TAU3, z) == 0.0

    def test_translation_generator(self):
        # an int S and the float S of the same integers are one translation
        z = random_z(RNG, 3)
        s = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]])
        residual = quartics.jacobi_form_residual(("S", s), TAU3, z)
        assert residual < 1e-9
        assert quartics.jacobi_form_residual(("S", s.astype(float)), TAU3, z) == residual

    def test_translation_residual_equals_the_factor_formula(self):
        # C = 0 and D = I: the residual without the factor is the residual
        # with det(I)^16 exp(0) bit for bit
        rng = stream(67, "test_quartics.translation_factor")
        for _ in range(6):
            tau, z = random_tau(rng, 3), random_z(rng, 3)
            s = rng.integers(-2, 3, (3, 3))
            s = s + s.T
            lhs, lhs_scale = quartics.coble_eval(tau._translated(s), z)
            rhs0, rhs_scale = quartics.coble_eval(tau, z)
            c, czd = np.zeros((3, 3)), np.zeros((3, 3)) @ tau.tau + np.eye(3)
            factor = np.linalg.det(czd) ** 16 * np.exp(8j * np.pi * (z.z @ np.linalg.solve(czd, c @ z.z)))
            want = float(abs(lhs - factor * rhs0) / max(lhs_scale, abs(factor) * rhs_scale))
            assert quartics.jacobi_form_residual(("S", s), tau, z) == want

    def test_only_the_inversion_computes_its_factor(self, monkeypatch):
        z, calls = random_z(RNG, 3), []
        for name in ("det", "solve"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        quartics.jacobi_form_residual(("S", np.eye(3, dtype=int)), TAU3, z)
        assert calls == []
        quartics.jacobi_form_residual(("J",), TAU3, z)
        assert set(calls) == {"det", "solve"}

    def test_inversion_generator(self):
        z = random_z(RNG, 3)
        assert quartics.jacobi_form_residual(("J",), TAU3, z) < 1e-9

    def test_rejects_non_symmetric_translation(self):
        z = random_z(RNG, 3)
        with pytest.raises(ValueError):
            quartics.jacobi_form_residual(("S", np.triu(np.ones((3, 3)))), TAU3, z)

    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            quartics.jacobi_form_residual(("X",), TAU3, random_z(RNG, 3))

    @pytest.mark.parametrize("s", [1j * np.eye(3), np.eye(3, dtype=complex), {"a": 1},
                                   [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]])
    def test_complex_or_non_numeric_translation_is_a_value_error(self, s):
        with pytest.raises(ValueError, match="integer symmetric matrix"):
            quartics.jacobi_form_residual(("S", s), TAU3, PhasePoint.zero(3))

    def test_right_hand_side_is_built_once_per_sample(self, monkeypatch, fresh_memos):
        # 2 samples of 6 generators: one theta-2 vector per transformed point
        # and one per sample; translation_zero_exact reads the first sample,
        # built already, and builds one at tau + 0, a new tau
        fresh_memos()
        calls, vector = [], quartics.theta2_vector

        def counted(*args):
            calls.append(None)
            return vector(*args)

        monkeypatch.setattr(quartics, "theta2_vector", counted)
        assert run_suite("modularity", 1, 2).passed
        assert len(calls) == 15

    @pytest.mark.parametrize("gen", [("S",), (), None, ("J", np.eye(3)), (np.eye(3),), "J"])
    def test_malformed_generator_is_a_value_error(self, gen):
        with pytest.raises(ValueError, match=r"\('J',\) or \('S', S\)"):
            quartics.jacobi_form_residual(gen, TAU3, PhasePoint.zero(3))


class TestGradientTables:
    """The exponent tables of the gradient cubics and the power gathers are
    built once and read-only."""

    def test_tables_are_cached_and_read_only(self):
        tables = [*quartics._gradient_tables(), quartics._power_index(2), quartics._power_index(3)]
        assert quartics._gradient_tables()[0] is tables[0]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 1

    def test_tables_are_the_exponents(self):
        expo = quartics._coble_tables(3)[1]
        lowered, expo_t = quartics._gradient_tables()
        assert np.array_equal(expo_t, expo.T)
        for v in range(8):
            clipped = np.maximum(expo - np.eye(8, dtype=int)[v], 0)
            assert np.array_equal(lowered[v], clipped * 8 + np.arange(8))
        for g in (2, 3):
            expo, n = quartics._coble_tables(g)[1], 1 << g
            assert np.array_equal(quartics._power_index(g), expo * n + np.arange(n))
