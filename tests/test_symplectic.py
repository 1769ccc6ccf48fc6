import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacoble.characteristics import Characteristic, enumerate_characteristics, parity, triple_sign
from thetacoble import symplectic as sp


def word_strategy(g, max_len=6):
    gens = sp.group_generators(g)
    return st.lists(st.integers(0, len(gens) - 1), min_size=0, max_size=max_len).map(
        lambda ws: _product(g, ws)
    )


def _product(g, word):
    out = sp.SymplecticMatF2.identity(g)
    gens = sp.group_generators(g)
    for w in word:
        out = out * gens[w]
    return out


class TestBitMatrix:
    def test_transpose_involution(self):
        rows = (0b101, 0b011, 0b110)
        assert sp.bm_transpose(sp.bm_transpose(rows, 3), 3) == rows

    def test_mul_identity(self):
        rows = (0b1011, 0b0110, 0b1000, 0b0001)
        assert sp.bm_mul(rows, sp.bm_identity(4)) == rows
        assert sp.bm_mul(sp.bm_identity(4), rows) == rows

    def test_block_round_trip(self):
        a, b, c, d = (1, 2), (3, 0), (2, 1), (0, 3)
        assert sp.bm_unblock(sp.bm_block(a, b, c, d, 2), 2) == (a, b, c, d)

    def test_matvec_matches_mul(self):
        rows = (0b110, 0b011, 0b101)
        for v in range(8):
            expect = 0
            for bit in range(3):
                if (v >> (2 - bit)) & 1:
                    col = tuple((r >> (2 - bit)) & 1 for r in rows)
                    expect ^= sum(c << (2 - i) for i, c in enumerate(col))
            assert sp.bm_matvec(rows, v) == expect


class TestGroupStructure:
    def test_j_and_generators_symplectic(self):
        for g in (1, 2, 3):
            assert sp.is_symplectic(sp.symplectic_j(g))
            for gen in sp.group_generators(g):
                assert sp.is_symplectic(gen.rows)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            sp.SymplecticMatF2(2, (0b1000, 0b1100, 0b0010, 0b0001))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((1, 2)), st.data())
    def test_inverse_and_closure(self, g, data):
        a = data.draw(word_strategy(g))
        b = data.draw(word_strategy(g))
        ident = sp.SymplecticMatF2.identity(g)
        assert a * a.inverse() == ident
        assert (a * b).inverse() == b.inverse() * a.inverse()

    def test_small_orders(self):
        assert len(sp.enumerate_group(1)) == 6
        assert len(sp.enumerate_group(2)) == 720

    @pytest.mark.parametrize("g", (1, 2))
    def test_enumeration_equals_generator_closure(self, g):
        # reference: closure of the identity under bm_mul products of the generators
        gens = sp.group_generators(g)
        ident = sp.SymplecticMatF2.identity(g)
        seen = {ident.packed()}
        frontier = [ident]
        while frontier:
            new = []
            for a in frontier:
                for gen in gens:
                    b = a * gen
                    if b.packed() not in seen:
                        seen.add(b.packed())
                        new.append(b)
            frontier = new
        assert {int(p) for p in sp.enumerate_group(g).packed} == seen

    def test_g3_enumeration_sorted_and_symplectic(self):
        enum = sp.enumerate_group(3)
        assert len(enum) == 1451520
        assert np.all(enum.packed[1:] > enum.packed[:-1])
        rng = np.random.default_rng(5)
        for i in rng.integers(len(enum), size=1000):
            gamma = sp.SymplecticMatF2.from_packed(3, int(enum.packed[i]))
            assert sp.is_symplectic(gamma.rows)

    def test_packed_round_trip(self):
        for gen in sp.group_generators(2):
            assert sp.SymplecticMatF2.from_packed(2, gen.packed()) == gen


class TestAction:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.data())
    def test_action_is_homomorphism(self, g, data):
        a = data.draw(word_strategy(g, max_len=4))
        b = data.draw(word_strategy(g, max_len=4))
        m = Characteristic(g, data.draw(st.integers(0, (1 << (2 * g)) - 1)))
        assert (a * b).act(m) == a.act(b.act(m))

    def test_parity_invariance_exhaustive_g2(self):
        enum = sp.enumerate_group(2)
        chars = list(enumerate_characteristics(2, "all"))
        for i in range(len(enum)):
            gamma = enum.element(i)
            assert all(parity(gamma.act(m)) == parity(m) for m in chars)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_triple_sign_invariance(self, data):
        g = 3
        gamma = data.draw(word_strategy(g, max_len=5))
        ms = [
            Characteristic(g, data.draw(st.integers(0, 63))) for _ in range(3)
        ]
        assert triple_sign(*(gamma.act(m) for m in ms)) == triple_sign(*ms)

    @pytest.mark.parametrize("g, n", [(2, None), (3, 1000)])
    def test_action_tables_match_scalar_action(self, g, n):
        # all of Sp(4, F2); 1000 seeded elements of Sp(6, F2)
        enum = sp.enumerate_group(g)
        rng = np.random.default_rng(17)
        picks = np.arange(len(enum)) if n is None else rng.integers(len(enum), size=n)
        tables = sp.action_tables(g, enum.packed[picks])
        chars = [Characteristic(g, m) for m in range(1 << (2 * g))]
        expected = [[sp.act_on_characteristic(enum.element(int(i)), m).idx for m in chars] for i in picks]
        assert np.array_equal(tables, expected)

    def test_action_bijective(self):
        gamma = _product(3, [0, 1, 0, 3, 2])
        images = {gamma.act(Characteristic(3, i)).idx for i in range(64)}
        assert len(images) == 64


class TestParabolic:
    def test_coset_count_and_images(self):
        reps = sp.parabolic_cosets(3)
        assert len(reps) == 135
        assert reps[0] == sp.SymplecticMatF2.identity(3)
        images = {sp.lagrangian_image(r) for r in reps}
        assert len(images) == 135

    def test_rep_image_matches_target(self):
        from thetacoble.gopel import enumerate_lagrangian_subspaces

        lags = enumerate_lagrangian_subspaces(3)
        reps = sp.parabolic_cosets(3)
        # identity was moved to the front; compare as sets of images
        assert {sp.lagrangian_image(r) for r in reps} == set(lags)

    def test_factorization_through_parabolic(self):
        enum = sp.enumerate_group(3)
        by_image = {sp.lagrangian_image(r): r for r in sp.parabolic_cosets(3)}
        rng = np.random.default_rng(11)
        for _ in range(50):
            gamma = enum.element(int(rng.integers(len(enum))))
            rep = by_image[sp.lagrangian_image(gamma)]
            assert sp.has_zero_c_block(rep.inverse() * gamma)

    def test_c_zero_stabilizes_l0(self):
        l0 = frozenset(range(8))
        for gen in sp.translation_generators(3):
            assert sp.lagrangian_image(gen) == l0
