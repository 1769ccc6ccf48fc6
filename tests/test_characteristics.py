import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from thetacoble.characteristics import (
    ARONHOLD_EXAMPLE,
    Characteristic,
    CharacteristicSet,
    aronhold_classify,
    enumerate_aronhold_sets,
    enumerate_characteristics,
    is_fundamental_system,
    pairing,
    parity,
    special_fundamental_completion,
    triple_sign,
)

GENERA = (1, 2, 3)


def char_strategy(g):
    return st.integers(0, (1 << (2 * g)) - 1).map(lambda i: Characteristic(g, i))


class TestBasics:
    def test_counts(self):
        expected = {1: (3, 1), 2: (10, 6), 3: (36, 28)}
        for g, (n_even, n_odd) in expected.items():
            assert len(enumerate_characteristics(g, "even")) == n_even
            assert len(enumerate_characteristics(g, "odd")) == n_odd
            assert len(enumerate_characteristics(g, "all")) == 1 << (2 * g)

    def test_parity_examples(self):
        assert Characteristic.from_string("000;000").is_even
        assert Characteristic.from_string("111;111").is_odd
        assert Characteristic.from_string("1;1").is_odd
        assert Characteristic.from_string("11;11").is_even

    @settings(max_examples=60)
    @given(st.sampled_from(GENERA), st.data())
    def test_string_round_trip(self, g, data):
        m = data.draw(char_strategy(g))
        assert Characteristic.from_string(str(m)) == m
        assert Characteristic.parse(g, m.idx) == m
        assert Characteristic.parse(g, str(m)) == m

    @settings(max_examples=60)
    @given(st.sampled_from(GENERA), st.data())
    def test_parity_via_bits(self, g, data):
        m = data.draw(char_strategy(g))
        dot = sum(a * b for a, b in zip(m.mp, m.mpp)) % 2
        assert parity(m) == (-1) ** dot

    @settings(max_examples=60)
    @given(st.sampled_from(GENERA), st.data())
    def test_addition_is_xor(self, g, data):
        a = data.draw(char_strategy(g))
        b = data.draw(char_strategy(g))
        s = a + b
        assert s.mp == tuple((x + y) % 2 for x, y in zip(a.mp, b.mp))
        assert s.mpp == tuple((x + y) % 2 for x, y in zip(a.mpp, b.mpp))

    def test_malformed_strings(self):
        for bad in ("000", "00;0", ";", "00;abc", "222;222", "012;000"):
            with pytest.raises(ValueError):
                Characteristic.from_string(bad)


class TestTripleSign:
    @settings(max_examples=60)
    @given(st.sampled_from(GENERA), st.data())
    def test_permutation_invariance(self, g, data):
        a, b, c = (data.draw(char_strategy(g)) for _ in range(3))
        ref = triple_sign(a, b, c)
        assert triple_sign(b, a, c) == ref
        assert triple_sign(c, b, a) == ref

    @settings(max_examples=60)
    @given(st.sampled_from(GENERA), st.data())
    def test_degenerate_triples_syzygetic(self, g, data):
        a = data.draw(char_strategy(g))
        b = data.draw(char_strategy(g))
        assert triple_sign(a, a, b) == 1

    def test_odd_triples_azygetic_iff_even_sum(self):
        # independent oracle for the Aronhold search's pair condition
        odds = list(enumerate_characteristics(3, "odd"))[:12]
        for a, b, c in combinations(odds, 3):
            assert (triple_sign(a, b, c) == -1) == ((a + b + c).is_even)

    @settings(max_examples=60)
    @given(st.sampled_from(GENERA), st.data())
    def test_pairing_symmetry_and_bilinearity(self, g, data):
        a, b, c = (data.draw(char_strategy(g)) for _ in range(3))
        assert pairing(a, b) == pairing(b, a)
        assert pairing(a + b, c) == pairing(a, c) * pairing(b, c)


class TestCharacteristicSet:
    def test_rejects_duplicates(self):
        m = Characteristic(3, 5)
        with pytest.raises(ValueError):
            CharacteristicSet([m, m])

    def test_rejects_mixed_genus(self):
        with pytest.raises(ValueError):
            CharacteristicSet([Characteristic(2, 1), Characteristic(3, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CharacteristicSet([])

    def test_membership_and_equality(self):
        s = CharacteristicSet.parse(3, ["000;000", "111;111"])
        t = CharacteristicSet.parse(3, ["111;111", "000;000"])
        assert s == t
        assert Characteristic(3, 0) in s
        assert Characteristic(3, 1) not in s


class TestFundamentalSystems:
    def test_aronhold_example_with_zero(self):
        zero = Characteristic(3, 0)
        assert all(m.is_odd for m in ARONHOLD_EXAMPLE)
        assert is_fundamental_system(
            CharacteristicSet([zero] + list(ARONHOLD_EXAMPLE))
        )

    def test_wrong_size_not_fundamental(self):
        assert not is_fundamental_system(CharacteristicSet(list(ARONHOLD_EXAMPLE)))

    def test_completion_worked_example(self):
        triple = CharacteristicSet(list(ARONHOLD_EXAMPLE)[:3])
        comp = special_fundamental_completion(triple)
        assert comp == CharacteristicSet.parse(
            3, ["000;000", "111;000", "101;111", "110;001", "000;100"]
        )

    def test_completion_excludes_triple_sum(self):
        ms = list(ARONHOLD_EXAMPLE)
        triple = CharacteristicSet([ms[0], ms[3], ms[4]])
        comp = special_fundamental_completion(triple)
        assert (ms[0] + ms[3] + ms[4]) not in comp
        assert is_fundamental_system(CharacteristicSet(list(triple) + list(comp)))

    def test_completion_rejects_even_input(self):
        with pytest.raises(ValueError):
            special_fundamental_completion(
                CharacteristicSet.parse(3, ["000;000", "111;111", "110;100"])
            )

    def test_genus2_completion_unique_and_even(self):
        odds = list(enumerate_characteristics(2, "odd"))
        comp = special_fundamental_completion(CharacteristicSet(odds[:2]))
        assert len(comp) == 4
        assert all(n.is_even for n in comp)


class TestAronhold:
    def test_count_288(self):
        sets = enumerate_aronhold_sets()
        assert len(sets) == 288
        assert len({s.idx_set() for s in sets}) == 288

    def test_example_is_enumerated(self):
        assert ARONHOLD_EXAMPLE.idx_set() in {
            s.idx_set() for s in enumerate_aronhold_sets()
        }

    def test_classification_partition(self):
        out = aronhold_classify(ARONHOLD_EXAMPLE, Characteristic(3, 0))
        tags = [tag for tag, _ in out.values()]
        assert sorted(
            (tags.count(t) for t in ("n0", "m", "odd_sum", "even_sum"))
        ) == sorted((1, 7, 21, 35))
        assert len(out) == 64

    def test_member_sum_is_even_base_point(self):
        from thetacoble.modular import aronhold_base_point

        for s in enumerate_aronhold_sets()[:24]:
            n0 = aronhold_base_point(s)
            assert n0.is_even
            assert is_fundamental_system(CharacteristicSet([n0] + list(s)))
