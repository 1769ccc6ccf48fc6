import importlib
import math
import sys
from itertools import combinations

import numpy as np
import pytest

from thetacoble.characteristics import (
    ARONHOLD_EXAMPLE,
    FANO_TRIPLE_FAMILY,
    enumerate_characteristics,
    fano_plane_families,
)
from thetacoble.gopel import (
    enumerate_gopel,
    even_coset,
    fano_basis,
    fano_from_aronhold,
    pascal_decomposition,
    pascal_rows,
    split_lagrangians,
)
from thetacoble import modular
from thetacoble.sampling import random_tau, stream
from thetacoble.suites import run_suite
from thetacoble.theta import PhasePoint, even_theta_constants, jacobian_det, theta

th = importlib.import_module("thetacoble.theta")

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
        with pytest.raises(ValueError, match="genus mismatch"):
            modular.goepel_form_matrix([TAU3, tau2])


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

    @pytest.mark.parametrize("k, reverse", [(0, False), (7, True), (29, False)])
    def test_equals_the_determinant_loop(self, k, reverse):
        # the product of seven jacobian_det over the family, as h_via_jacobian
        # took it before it read g_fano of the gradient rows; reversed
        # triples flip the sign of each determinant and bracket alike
        family = tuple(t[::-1] if reverse else t for t in fano_plane_families()[k])
        ms = ARONHOLD_EXAMPLE.members
        for tau in (TAU3, modular.reference_tau3()):
            num = 1.0 + 0.0j
            for i, j, l in family:
                num *= th.jacobian_det(tau, (ms[i - 1], ms[j - 1], ms[l - 1]))
            n0 = modular.aronhold_base_point(ARONHOLD_EXAMPLE)
            want = num / theta(tau, PhasePoint.zero(3), n0) ** 7
            assert modular.h_via_jacobian(tau, ARONHOLD_EXAMPLE, family) == want


def _scalar_riemann_signs(pascal, taus, tol=1e-8):
    """The sign pair of the per-form loop riemann_relation ran before it read
    riemann_residuals: three scalar H per probe, the first pair of least
    worst residual; None when that residual is not below tol."""
    dec = pascal_decomposition(pascal)
    values = []
    for tau in [modular.reference_tau3()] + list(taus):
        hp = modular.h_pascal(tau, pascal)
        h1 = modular.h_fano(tau, dec.fano1)
        h2 = modular.h_fano(tau, dec.fano2)
        values.append((hp, h1, h2, max(abs(hp), abs(h1), abs(h2))))
    best = None
    for e1 in (1, -1):
        for e2 in (1, -1):
            worst = np.max([abs(hp - e1 * h1 - e2 * h2) / scale for hp, h1, h2, scale in values])
            if best is None or worst < best[0]:
                best = (worst, e1, e2)
    return best[1:] if best[0] < tol else None


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
        dec = pascal_decomposition(pascal)
        hp = modular.h_pascal(TAU3, pascal)
        rhs = e1 * modular.h_fano(TAU3, dec.fano1) + e2 * modular.h_fano(TAU3, dec.fano2)
        assert abs(hp - rhs) / abs(hp) < 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_signs_equal_the_scalar_loop(self, seed):
        # the suite's draws, for all 105 Pascal systems
        rng = stream(seed, "riemann.taus")
        taus = [random_tau(rng, 3) for _ in range(10)]
        residuals = modular.riemann_residuals(taus)
        pascals = [s for s in enumerate_gopel(3) if s.kind == "pascal"]
        assert residuals.shape == (105, 4) and len(pascals) == 105
        for s, row in zip(pascals, residuals):
            want = _scalar_riemann_signs(s, taus)
            assert want is not None and row.min() < 1e-8
            assert modular._SIGN_PAIRS[int(np.argmin(row))] == want
            assert modular.riemann_relation(s, taus) == want

    def test_columns_are_the_pascal_decompositions(self):
        systems = enumerate_gopel(3)
        columns = pascal_rows()
        assert columns.shape == (105, 3) and not columns.flags.writeable
        pascals = [s for s in systems if s.kind == "pascal"]
        for (p, f1, f2), s in zip(columns, pascals):
            dec = pascal_decomposition(s)
            assert (systems[p], systems[f1], systems[f2]) == (s, dec.fano1, dec.fano2)

    def test_fano_input_and_unstable_signs_raise(self):
        fano = next(s for s in enumerate_gopel(3) if s.kind == "fano")
        pascal = next(s for s in enumerate_gopel(3) if s.kind == "pascal")
        with pytest.raises(ValueError, match="not a Pascal configuration"):
            modular.riemann_relation(fano, [TAU3])
        with pytest.raises(modular.RiemannSignError, match="no stable sign pair"):
            modular.riemann_relation(pascal, [TAU3], tol=0.0)


class TestTablesOnly:
    def test_riemann_and_dual_route_make_no_per_form_call(self, monkeypatch):
        # every binding of the scalar H-forms and of jacobian_det raises; the
        # riemann suite, riemann_relation and h_via_jacobian read tables only
        ref = modular.reference_tau3()
        want = modular.h_via_jacobian(ref, ARONHOLD_EXAMPLE, FANO_TRIPLE_FAMILY)
        pascal = next(s for s in enumerate_gopel(3) if s.kind == "pascal")
        signs = modular.riemann_relation(pascal, [TAU3])

        def refuse(*args, **kwargs):
            raise AssertionError("per-form call")

        originals = (modular.h_goepel, modular.h_pascal, modular.h_fano, th.jacobian_det)
        for name, module in list(sys.modules.items()):
            if name.startswith("thetacoble") and module is not None:
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in originals):
                        monkeypatch.setattr(module, attr, refuse)
        with pytest.raises(AssertionError, match="per-form call"):
            modular.h_fano(ref, fano_basis()[0])
        assert run_suite("riemann", 1, 3).passed
        assert modular.riemann_relation(pascal, [TAU3]) == signs
        assert modular.h_via_jacobian(ref, ARONHOLD_EXAMPLE, FANO_TRIPLE_FAMILY) == want


class TestSVector:
    def test_shapes(self):
        assert modular.s_vector(TAU3).shape == (15,)
        assert modular.s_vector(TAU2).shape == (5,)

    def test_genus3_matches_fano_basis(self):
        from thetacoble.gopel import fano_basis

        s = modular.s_vector(TAU3)
        for i, f in enumerate(fano_basis()[:3]):
            assert s[i] == modular.h_fano(TAU3, f)

    def test_memoized_and_read_only(self):
        for tau in (TAU3, TAU2):
            s = modular.s_vector(tau)
            assert modular.s_vector(tau) is s
            with pytest.raises(ValueError, match="read-only"):
                s[0] = 0

    def test_genus2_is_squared_complement(self):
        s = modular.s_vector(TAU2)
        consts = even_theta_constants(TAU2)
        q0 = split_lagrangians(2)[0]
        expect = math.prod(v for i, v in consts.items() if i not in q0.idx_set()) ** 2
        assert s[0] == pytest.approx(expect, rel=1e-12)


def _combinations_triple_table():
    """The genus-2 odd-triple table as a loop over combinations(range(6), 3)
    wrote it: even index -> (the first odd position triple, in lexicographic
    order, summing to it; the other three)."""
    odds = list(enumerate_characteristics(2, "odd"))
    table = {}
    for triple in combinations(range(6), 3):
        n = odds[triple[0]] + odds[triple[1]] + odds[triple[2]]
        table.setdefault(n.idx, (triple, tuple(i for i in range(6) if i not in triple)))
    return table


class TestGenus2Triples:
    def test_partition_covers_all_evens(self):
        # each even n: two triples of odd positions, read back off their
        # pairs, that partition the 6 odds and each sum to n
        odds, pairs = list(enumerate_characteristics(2, "odd")), list(combinations(range(6), 2))
        for row, n in zip(modular._triple_pairs().tolist(), enumerate_characteristics(2, "even")):
            t, u = (pairs[ab] + pairs[bc][1:] for ab, _, bc in row)
            assert sorted(t + u) == list(range(6))
            assert odds[t[0]] + odds[t[1]] + odds[t[2]] == n
            assert odds[u[0]] + odds[u[1]] + odds[u[2]] == n

    def test_partition_table_holds_the_ten_evens(self):
        # the table equals the combinations loop, entry for entry
        table, pairs = modular._triple_pairs(), list(combinations(range(6), 2))
        assert table.shape == (10, 2, 3) and not table.flags.writeable
        loop = _combinations_triple_table()
        for row, n in zip(table.tolist(), enumerate_characteristics(2, "even")):
            assert row == [[pairs.index((a, b)), pairs.index((a, c)), pairs.index((b, c))]
                           for a, b, c in loop[n.idx]]

    @pytest.mark.parametrize("tau", [TAU2, modular.reference_tau2()])
    def test_products_equal_three_determinants_bit_for_bit(self, tau):
        odds = enumerate_characteristics(2, "odd").members
        loop = _combinations_triple_table()
        for pq, n in zip(modular.triple_products(tau), enumerate_characteristics(2, "even")):
            want = []
            for a, b, c in ([odds[i] for i in triple] for triple in loop[n.idx]):
                want.append(jacobian_det(tau, (a, b)) * jacobian_det(tau, (a, c))
                            * jacobian_det(tau, (b, c)))
            assert pq == tuple(want)

    def test_triple_product_magnitude(self):
        z0, chi5 = PhasePoint.zero(2), modular.chi(TAU2)
        for pq, n in zip(modular.triple_products(TAU2), enumerate_characteristics(2, "even")):
            target = math.pi**6 * chi5 * theta(TAU2, z0, n) ** 2
            for product in pq:
                assert abs(abs(product) / abs(target) - 1) < 1e-10

    def test_rejects_genus_3(self):
        with pytest.raises(ValueError, match="genus-2"):
            modular.triple_products(TAU3)

    def test_kummer2_suite_takes_15_determinants_per_tau(self, monkeypatch):
        # the reference tau and 4 sampled tau, one determinant per odd pair at each
        calls, det = [], modular.jacobian_det

        def counted(*args, **kwargs):
            calls.append(None)
            return det(*args, **kwargs)

        monkeypatch.setattr(modular, "jacobian_det", counted)
        assert run_suite("kummer2", 1, 4).passed
        assert len(calls) == 75


class TestGoepelMatrix:
    def test_shape_and_rank(self):
        taus = [random_tau(RNG, 3) for _ in range(18)]
        matrix = modular.goepel_form_matrix(taus)
        assert matrix.shape == (18, 135)
        sv = np.linalg.svd(matrix, compute_uv=False)
        assert int((sv > 1e-8 * sv[0]).sum()) == 15


def _filtered_product(tau, excluded):
    """The complement product as a filter over every even constant."""
    consts = even_theta_constants(tau)
    return math.prod(v for i, v in consts.items() if i not in excluded)


class TestComplementTables:
    def test_h_forms_equal_the_filtered_product_bit_for_bit(self):
        for tau in (TAU3, random_tau(RNG, 3)):
            for s in enumerate_gopel(3):
                assert modular.h_goepel(tau, s) == _filtered_product(tau, even_coset(s))
            assert modular.chi(tau) == _filtered_product(tau, frozenset())
        assert modular.chi(TAU2) == _filtered_product(TAU2, frozenset())
        for q, value in zip(split_lagrangians(2), modular.s_vector(TAU2)):
            assert value == _filtered_product(TAU2, q.idx_set()) ** 2

    def test_position_rows_are_the_complements(self):
        evens = [m.idx for m in enumerate_characteristics(3, "even")]
        positions = modular._goepel_positions()
        assert positions.shape == (135, 28) and not positions.flags.writeable
        for row, s in zip(positions, enumerate_gopel(3)):
            assert len(set(row.tolist())) == 28
            assert not {evens[k] for k in row} & even_coset(s)

    def test_tables_are_the_per_object_construction(self):
        # a scalar filter of the even enumeration, one set at a time
        def keys(g, excluded):
            return tuple(m.idx for m in enumerate_characteristics(g, "even") if m.idx not in excluded)

        evens = [m.idx for m in enumerate_characteristics(3, "even")]
        cosets = [frozenset(even_coset(s)) for s in enumerate_gopel(3)]
        assert modular._goepel_positions().tolist() == [[evens.index(i) for i in keys(3, c)]
                                                       for c in cosets]
        for g, sets in ((3, [frozenset(), *cosets]),
                        (2, [frozenset(), *(q.idx_set() for q in split_lagrangians(2))])):
            for excluded in sets:
                assert modular._complement_keys(g, excluded) == keys(g, excluded)

    def test_matrix_equals_the_per_system_h_forms(self):
        taus = [random_tau(RNG, 3) for _ in range(6)]
        matrix = modular.goepel_form_matrix(iter(taus))
        want = np.array([[modular.h_goepel(tau, s) for s in enumerate_gopel(3)] for tau in taus])
        assert np.all(np.abs(matrix - want) <= 1e-14 * np.abs(want))
        assert modular.goepel_form_matrix([]).shape == (0, 135)

    @pytest.mark.parametrize("kind, caught", [
        ("fano", {"w_rank", "riemann_stable_pascals", "coble_vanishing"}),
        ("pascal", {"w_rank", "riemann_stable_pascals"}),
    ])
    def test_swapped_table_entry_is_caught(self, monkeypatch, fresh_memos, kind, caught):
        # the first complement entry of one system swapped for a member of its
        # even coset, in the one complement body that h_goepel (through
        # s_vector, which coble reads) and the position table of
        # goepel_form_matrix (which wrank reads, and riemann through
        # riemann_residuals) both read
        target = fano_basis()[0] if kind == "fano" else next(
            s for s in enumerate_gopel(3) if s.kind == "pascal")
        coset = even_coset(target)
        member = np.isin(np.arange(64), list(coset))
        swapped_in = [m.idx for m in enumerate_characteristics(3, "even")].index(min(coset))
        positions = modular._complement_positions

        def faulty(g, rows):
            out = positions(g, rows)
            if g == 3:
                out[(rows == member).all(axis=1), 0] = swapped_in
            return out

        def clear_tables():
            modular._complement_keys.cache_clear()
            modular._goepel_positions.cache_clear()

        monkeypatch.setattr(modular, "_complement_positions", faulty)
        fresh_memos()
        clear_tables()
        try:
            failed = {r.name for name, samples in (("wrank", 16), ("riemann", 3), ("coble", 2))
                      for r in run_suite(name, 1, samples).records if not r.passed}
        finally:
            monkeypatch.undo()
            clear_tables()
        assert caught <= failed

