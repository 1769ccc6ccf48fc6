import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacoble.characteristics import (
    Characteristic,
    enumerate_characteristics,
    pairing_table,
    parity,
    triple_sign,
)
from thetacoble.gopel import lagrangian_bases
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


def scalar_action(g, packed):
    """Reference images of all 2^{2g} indices under one packed element, in
    plain integers: (D -C; -B A)(m'; m'') + (diag(C D^t); diag(A B^t)).
    The blocks are read once per element."""
    w, lo = 2 * g, (1 << g) - 1
    rows = [(packed >> (w * (w - 1 - i))) & ((1 << w) - 1) for i in range(w)]
    # the rows of (D C; B A): those of (C D), then those of (A B), halves swapped
    lin = [((r & lo) << g) | (r >> g) for r in rows[g:] + rows[:g]]
    # diag(C D^t)_i and diag(A B^t)_i: parity of the two halves of a row anded
    offset = [((r >> g) & r & lo).bit_count() & 1 for r in rows[g:] + rows[:g]]
    return [
        sum((((row & v).bit_count() ^ off) & 1) << (w - 1 - i)
            for i, (row, off) in enumerate(zip(lin, offset)))
        for v in range(1 << w)
    ]


ENUMERATION_SHA256 = {
    1: "fe93b55b5cd9fc752b0052fba6c192952b5b19d16006f334ab5c276ac11d25a2",
    2: "20e4c9f6e606e1417ff1186b2fcaefd1341499fafbc1a0bb512d3f06ec21ab16",
    3: "d94ea4020c13c76abb5a89d907dde21484390e47fb6f6a211bca43c807364134",
}


class TestGroupStructure:
    def test_j_and_generators_symplectic(self):
        for g in (1, 2, 3):
            assert sp.is_symplectic(sp.symplectic_j(g))
            gens = [gen.packed() for gen in sp.group_generators(g)]
            assert sp.is_symplectic(sp.unpack(g, gens)).all()

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError, match="not symplectic"):
            sp.SymplecticMatF2(2, 0b1000_1100_0010_0001)
        with pytest.raises(ValueError, match="does not fit"):
            sp.SymplecticMatF2(1, 1 << 4)

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
        # reference: closure of the identity under products with the generators
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
        assert {int(p) for p in sp.enumerate_group(g)} == seen

    def test_g3_enumeration_sorted_and_symplectic(self):
        enum = sp.enumerate_group(3)
        assert len(enum) == 1451520
        assert np.all(enum[1:] > enum[:-1])
        rng = np.random.default_rng(5)
        assert sp.is_symplectic(sp.unpack(3, enum[rng.integers(len(enum), size=1000)])).all()

    @pytest.mark.parametrize("g", (1, 2, 3))
    def test_enumeration_pinned(self, g):
        digest = hashlib.sha256(sp.enumerate_group(g).tobytes()).hexdigest()
        assert digest == ENUMERATION_SHA256[g]

    def test_packed_round_trip(self):
        for gen in sp.group_generators(2):
            assert sp.SymplecticMatF2.from_packed(2, gen.packed()) == gen


class TestIndexing:
    """elements(g, index) picks the rows by mixed-radix index, with no list."""

    @pytest.mark.parametrize("g", (1, 2))
    def test_all_indices_give_the_enumeration(self, g):
        order = math.prod(sp.extension_counts(g))
        assert np.array_equal(np.sort(sp.elements(g, np.arange(order))), sp.enumerate_group(g))

    def test_g3_draws_lie_in_the_enumeration(self):
        enum = sp.enumerate_group(3)
        assert math.prod(sp.extension_counts(3)) == len(enum)
        index = np.random.default_rng(23).integers(len(enum), size=1000)
        packed = sp.elements(3, index)
        assert np.isin(packed, enum).all()
        # equal indices give equal elements, distinct ones distinct elements
        assert len(set(zip(index.tolist(), packed.tolist()))) == len(set(index.tolist()))
        assert len(set(packed.tolist())) == len(set(index.tolist()))

    def test_shape_is_kept(self):
        index = np.arange(12).reshape(3, 2, 2)
        assert np.array_equal(sp.elements(3, index), sp.elements(3, index.ravel()).reshape(3, 2, 2))

    @pytest.mark.parametrize("g", (1, 2, 3))
    def test_out_of_range_index_rejected(self, g):
        order = math.prod(sp.extension_counts(g))
        for bad in ([-1], [0, order], np.array([0.0]), np.array([True])):
            with pytest.raises(ValueError, match=f"need integer indices in \\[0, {order}\\)"):
                sp.elements(g, bad)

    def test_count_check_has_teeth(self, monkeypatch):
        # with e(1, 2) flipped, the partial bases with e_1 = 1 have 7 or 9
        # candidates for f_1 (row 2), not Witt's 8
        flipped = pairing_table(2).copy()
        flipped[1, 2] *= -1
        monkeypatch.setattr(sp, "pairing_table", lambda g: flipped)
        with pytest.raises(AssertionError, match="other than 8 candidates for row 2$"):
            sp.elements(2, np.arange(720))


class TestAction:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.data())
    def test_action_is_homomorphism(self, g, data):
        a = data.draw(word_strategy(g, max_len=4))
        b = data.draw(word_strategy(g, max_len=4))
        m = Characteristic(g, data.draw(st.integers(0, (1 << (2 * g)) - 1)))
        assert (a * b).act(m) == a.act(b.act(m))

    def test_parity_invariance_exhaustive_g2(self):
        chars = list(enumerate_characteristics(2, "all"))
        for packed in sp.enumerate_group(2):
            gamma = sp.SymplecticMatF2.from_packed(2, packed)
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
        tables = sp.action_tables(g, enum[picks])
        expected = [scalar_action(g, int(p)) for p in enum[picks]]
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
        images = set(sp.lagrangian_image(3, [r.packed() for r in reps]))
        assert len(images) == 135

    def test_rep_image_matches_target(self):
        from thetacoble.gopel import enumerate_lagrangian_subspaces

        lags = enumerate_lagrangian_subspaces(3)
        reps = sp.parabolic_cosets(3)
        # one rep per Lagrangian, in enumeration order, {m' = 0} first
        assert sp.lagrangian_image(3, [r.packed() for r in reps]) == list(lags)

    def test_reps_complete_the_echelon_bases(self):
        # the linear part (D C; B A) of each rep, in enumeration order, has the
        # echelon basis w as its last 3 columns and, as its first 3, the least
        # u_i with e(u_i, w_j) = (-1)^{delta_ij} and e(u_i, u_k) = 1, k < i
        pt = pairing_table(3)
        weights = 1 << np.arange(5, -1, -1)
        reps = sp.parabolic_cosets(3)
        assert all(isinstance(r, sp.SymplecticMatF2) for r in reps)
        for rep, basis in zip(reps, lagrangian_bases(3).tolist(), strict=True):
            cols = (sp.swap_blocks(sp.unpack(3, rep.packed())).T.astype(int) @ weights).tolist()
            assert cols[3:] == basis
            for i, u in enumerate(cols[:3]):
                want = [-1 if j == i else 1 for j in range(3)] + [1] * i
                assert u == int((pt[:, basis + cols[:i]] == want).all(axis=1).argmax())

    def test_factorization_through_parabolic(self):
        enum = sp.enumerate_group(3)
        reps = [r.packed() for r in sp.parabolic_cosets(3)]
        by_image = dict(zip(sp.lagrangian_image(3, reps), reps))
        rng = np.random.default_rng(11)
        for _ in range(50):
            gamma = sp.SymplecticMatF2.from_packed(3, enum[rng.integers(len(enum))])
            (image,) = sp.lagrangian_image(3, gamma.packed())
            quotient = sp.SymplecticMatF2.from_packed(3, by_image[image]).inverse() * gamma
            assert sp.has_zero_c_block(sp.unpack(3, quotient.packed()))

    def test_c_zero_stabilizes_l0(self):
        l0 = frozenset(range(8))
        gens = [gen.packed() for gen in sp.translation_generators(3)]
        assert sp.lagrangian_image(3, gens) == [l0] * len(gens)


class TestIntegerInputs:
    """The genus and every packed value are integers, in range and
    symplectic; anything else is a ValueError that names it."""

    J3 = 4328915976  # symplectic_j(3), packed

    @pytest.mark.parametrize("g, bits, named", [
        (True, 9, "genus must be an integer, not True"),
        (3.0, J3, "genus must be an integer, not 3.0"),
        (3, 34630287489.0, "packed value must be an integer, not 34630287489.0"),
        (3, "5", "packed value must be an integer, not '5'"),
        (3, np.True_, "packed value must be an integer, not np.True_"),
        (3, 5, "packed value 5: matrix is not symplectic"),
        (3, -1, "packed value -1 does not fit a 6 x 6 matrix"),
        (3, 2**36, f"packed value {2**36} does not fit"),
        (3, 2**70, f"packed value {2**70} does not fit"),
    ])
    def test_element_rejects(self, g, bits, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            sp.SymplecticMatF2(g, bits)

    def test_numpy_integers_are_stored_as_int(self):
        gamma = sp.SymplecticMatF2(np.int64(3), np.uint64(self.J3))
        assert type(gamma.g) is int and type(gamma.bits) is int
        assert gamma == sp.SymplecticMatF2.j(3)
        assert type(sp.SymplecticMatF2.from_packed(3, np.uint64(self.J3)).bits) is int

    @pytest.mark.parametrize("packed, named", [
        ([-1], "packed value -1 does not fit"),
        ([2**36], f"packed value {2**36} does not fit"),
        ([0, 2**70], f"packed value {2**70} does not fit"),
        ([-1, 2**63], "packed value -1 does not fit"),
        ([J3, 5], "packed value 5: matrix is not symplectic"),
        (np.array([1.0]), "packed value must be an integer, not 1.0"),
        ([True], "packed value must be an integer, not True"),
    ])
    def test_tables_reject(self, packed, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            sp.action_tables(3, packed)
        with pytest.raises(ValueError, match=re.escape(named)):
            sp.lagrangian_image(3, packed)

    @pytest.mark.parametrize("g", [True, 3.0, 4])
    def test_tables_reject_the_genus(self, g):
        with pytest.raises(ValueError, match="genus"):
            sp.action_tables(g, [0])
        with pytest.raises(ValueError, match="genus"):
            sp.generator_tables(g)

    def test_an_empty_batch_has_no_rows(self):
        assert sp.action_tables(3, []).shape == (0, 64)


def _reference_generators(g):
    """J and then (I S; 0 I) for each symmetric S != 0, S's upper triangle
    read row by row as the bits of a mask, in increasing mask: each packed
    with plain integers, as the per-object construction made them."""
    w = 2 * g
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    matrices = [[[int(abs(i - j) == g) for j in range(w)] for i in range(w)]]
    for mask in range(1, 1 << len(pairs)):
        m = [[int(i == j) for j in range(w)] for i in range(w)]
        for t, (i, j) in enumerate(pairs):
            m[i][g + j] = m[j][g + i] = (mask >> t) & 1
        matrices.append(m)
    return [int("".join(str(b) for row in m for b in row), 2) for m in matrices]


class TestGeneratorTables:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_generators_are_the_per_object_construction(self, g):
        want = _reference_generators(g)
        gens = sp.group_generators(g)
        assert [gen.packed() for gen in gens] == want
        assert [gen.packed() for gen in sp.translation_generators(g)] == want[1:]
        assert all(type(gen.bits) is int and gen.g == g for gen in gens)
        assert all(sp.SymplecticMatF2(g, p) == gen for p, gen in zip(want, gens))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_tables_are_the_scalar_action(self, g):
        tables = sp.generator_tables(g)
        assert not tables.flags.writeable
        assert tables.tolist() == [scalar_action(g, p) for p in _reference_generators(g)]

    def test_the_lists_are_fresh(self):
        gens = sp.group_generators(3)
        gens.clear()
        assert len(sp.group_generators(3)) == 64

    def test_orbits_build_the_generator_tables_once(self, monkeypatch):
        from thetacoble import suites

        calls = []
        images = sp._images
        monkeypatch.setattr(sp, "_images", lambda g, *rest: calls.append(g) or images(g, *rest))
        sp._generator_pack.cache_clear()
        sp._generators.cache_clear()
        sp.generator_tables.cache_clear()
        assert len(suites._orbit(frozenset({0}))) == 36
        assert len(suites._orbit(frozenset({0}))) == 36
        assert calls == [3]

    def test_parabolic_cosets_are_checked_elements(self):
        reps = sp.parabolic_cosets(3)
        assert all(sp.SymplecticMatF2(3, r.packed()) == r for r in reps)
