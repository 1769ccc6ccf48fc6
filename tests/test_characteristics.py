import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from thetacoble import characteristics
from thetacoble.characteristics import (
    ARONHOLD_EXAMPLE,
    Characteristic,
    CharacteristicSet,
    _pairing_idx,
    _parity_idx,
    all_azygetic,
    aronhold_classify,
    azygetic_odd_sets,
    enumerate_aronhold_sets,
    enumerate_characteristics,
    is_fundamental_system,
    pairing,
    pairing_table,
    parity,
    parity_table,
    special_fundamental_completion,
    special_fundamental_completions,
    triple_sign,
    triple_signs,
)
from thetacoble.modular import aronhold_base_point

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

    @pytest.mark.parametrize("bad", ["\uff111;11", "1x;11", "11;1\u0661", "1;1;1", "1 ;11"])
    def test_only_ascii_zeros_and_ones_are_bits(self, bad):
        # int() reads a fullwidth or Arabic-Indic 1 as 1, so "\uff111;11" was 11;11
        with pytest.raises(ValueError, match=f"^malformed characteristic string {re.escape(repr(bad))}: "):
            Characteristic.from_string(bad)
        with pytest.raises(ValueError, match="^malformed characteristic string"):
            Characteristic.parse(2, bad)


class TestIntegerFields:
    """A Characteristic takes integer genera and indices only: a float or bool
    passed the range check and failed later, in a bit operation or as an
    index of the interned table."""

    @pytest.mark.parametrize("g, idx, bad", [
        (3, 5.5, 5.5), (3, 5.0, 5.0), (3, True, True), (True, 1, True), (3, "5", "5"),
        (3.0, 5, 3.0), (3, None, None), (3, np.bool_(True), np.bool_(True)),
        (3, np.float64(5.0), np.float64(5.0)), (np.float64(3.0), 5, np.float64(3.0)),
    ])
    def test_non_integer_is_a_value_error_naming_it(self, g, idx, bad):
        with pytest.raises(ValueError, match=f"must be an integer, not {re.escape(repr(bad))}$"):
            Characteristic(g, idx)

    @pytest.mark.parametrize("g, idx", [(np.int64(3), np.uint8(5)), (3, np.int32(5)),
                                        (np.int8(3), 5)])
    def test_numpy_integers_are_stored_as_int(self, g, idx):
        m = Characteristic(g, idx)
        assert type(m.g) is int and type(m.idx) is int
        assert m == Characteristic(3, 5) and hash(m) == hash(Characteristic(3, 5))
        assert m.is_odd == Characteristic(3, 5).is_odd
        assert Characteristic.parse(3, idx) == m

    def test_range_is_still_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            Characteristic(np.int64(2), np.int64(16))
        with pytest.raises(ValueError, match="unsupported genus"):
            Characteristic(np.int64(4), 0)


class TestGenusArguments:
    """The genus-keyed tables read the genus through _integer.  True cached a
    second table beside genus 1's and 3.0 failed in a shift with TypeError;
    both are a ValueError naming the genus.  A numpy integer is read as its
    int."""

    TABLES = {
        "parity_table": parity_table,
        "pairing_table": pairing_table,
        "enumerate_characteristics": enumerate_characteristics,
        "azygetic_odd_sets": lambda g: azygetic_odd_sets(g, 3),
    }

    @pytest.mark.parametrize("name", TABLES)
    @pytest.mark.parametrize("bad", [True, 3.0, "3"])
    def test_non_integer_genus_is_a_value_error_naming_it(self, name, bad):
        self.TABLES[name](1), self.TABLES[name](3)  # cached: a typed key does not hit them
        with pytest.raises(ValueError, match=f"genus must be an integer, not {re.escape(repr(bad))}$"):
            self.TABLES[name](bad)

    def test_a_bool_caches_no_table(self):
        parity_table(1)
        size = parity_table.cache_info().currsize
        with pytest.raises(ValueError, match="genus must be an integer"):
            parity_table(True)
        assert parity_table.cache_info().currsize == size

    @pytest.mark.parametrize("name", ["parity_table", "pairing_table", "azygetic_odd_sets"])
    def test_numpy_integer_genus_gives_the_int_table(self, name):
        want, got = self.TABLES[name](3), self.TABLES[name](np.int64(3))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_numpy_integer_genus_gives_the_int_characteristics(self):
        want, got = enumerate_characteristics(3), enumerate_characteristics(np.int64(3))
        assert type(got.g) is int and got == want
        assert all(a is b for a, b in zip(got, want))  # the interned objects


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


class TestTables:
    """The bulk tables against the scalar definitions they are built from."""

    @pytest.mark.parametrize("g", GENERA)
    def test_parity_table_matches_definition(self, g):
        table = parity_table(g)
        assert table.tolist() == [_parity_idx(g, i) for i in range(1 << (2 * g))]
        assert table is parity_table(g) and not table.flags.writeable

    @pytest.mark.parametrize("g", GENERA)
    def test_pairing_table_matches_definition(self, g):
        n = 1 << (2 * g)
        table = pairing_table(g)
        assert table.tolist() == [[_pairing_idx(g, a, b) for b in range(n)] for a in range(n)]
        assert table is pairing_table(g) and not table.flags.writeable

    def test_triple_signs_match_scalar_on_all_genus3_triples(self):
        triples = list(combinations(range(64), 3))
        a, b, c = np.array(triples).T
        scalar = [triple_sign(*(Characteristic(3, i) for i in t)) for t in triples]
        assert triple_signs(3, a, b, c).tolist() == scalar


class TestParityOnTheObject:
    """The parity a Characteristic keeps after its first read."""

    @pytest.mark.parametrize("g", GENERA)
    def test_agrees_with_the_parity_table(self, g):
        for i, e in enumerate(parity_table(g).tolist()):
            m = Characteristic(g, i)
            assert (m.parity, m.is_even, m.is_odd) == (e, e == 1, e == -1)
            assert m.parity == parity(m)  # again, from the kept value

    @pytest.mark.parametrize("g", GENERA)
    def test_read_parity_compares_hashes_and_sorts_like_a_fresh_one(self, g):
        n = 1 << (2 * g)
        read = [Characteristic(g, i) for i in reversed(range(n))]
        for m in read[::2]:
            assert m.is_odd in (True, False)
        fresh = [Characteristic(g, i) for i in reversed(range(n))]
        assert read == fresh
        assert [hash(m) for m in read] == [hash(m) for m in fresh]
        assert sorted(read) == sorted(fresh) == [Characteristic(g, i) for i in range(n)]
        assert set(read) == set(fresh) and len(set(read + fresh)) == n
        assert all(a < b for a, b in zip(sorted(read), sorted(fresh)[1:]))


def _fundamental_oracle(idxs) -> bool:
    """The scalar triple loop the batched check replaced."""
    ms = [Characteristic(3, int(i)) for i in idxs]
    return len(ms) == 8 and all(triple_sign(*t) == -1 for t in combinations(ms, 3))


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
        # every azygetic odd triple: 5 evens, the triple sum not among them,
        # and a fundamental system with the triple
        n = 0
        for t in combinations(enumerate_characteristics(3, "odd"), 3):
            if triple_sign(*t) != -1:
                continue
            comp = special_fundamental_completion(CharacteristicSet(t))
            assert len(comp) == 5 and all(m.is_even for m in comp)
            assert (t[0] + t[1] + t[2]) not in comp
            assert is_fundamental_system(CharacteristicSet(list(t) + list(comp)))
            n += 1
        assert n == 2016

    def test_completion_rejects_even_input(self):
        for g, members in [
            (3, ["000;000", "111;111", "110;100"]),
            (2, ["00;00", "11;11"]),
            (1, ["0;0"]),
        ]:
            with pytest.raises(ValueError, match="must be odd"):
                special_fundamental_completion(CharacteristicSet.parse(g, members))

    @pytest.mark.parametrize("g, k", [(3, 2), (2, 1), (2, 3)])
    def test_completion_rejects_wrong_count(self, g, k):
        odds = CharacteristicSet(list(enumerate_characteristics(g, "odd"))[:k])
        with pytest.raises(ValueError, match=f"exactly {g} odd"):
            special_fundamental_completion(odds)

    def test_genus1_completion_is_the_three_evens(self):
        odd = CharacteristicSet.parse(1, ["1;1"])
        comp = special_fundamental_completion(odd)
        assert comp.to_strings() == ["0;0", "0;1", "1;0"]
        assert is_fundamental_system(CharacteristicSet(list(odd) + list(comp)))

    def test_batched_check_matches_scalar_oracle(self):
        odds = list(enumerate_characteristics(3, "odd"))
        completed = []
        for t in combinations(odds, 3):
            if triple_sign(*t) == -1:
                comp = special_fundamental_completion(CharacteristicSet(t))
                completed.append([m.idx for m in t] + [n.idx for n in comp])
        assert len(completed) == 2016
        rng = np.random.default_rng(20121212)
        random_sets = [rng.choice(64, size=8, replace=False).tolist() for _ in range(500)]
        rows = np.array(completed + random_sets)
        expected = [_fundamental_oracle(r) for r in rows]
        assert not all(expected[2016:])  # the random sets exercise the False branch
        assert all_azygetic(3, rows).tolist() == expected
        scalar_api = [is_fundamental_system(CharacteristicSet.parse(3, r.tolist())) for r in rows]
        assert scalar_api == expected

    def test_genus2_completion_unique_and_even(self):
        # every odd pair against a search over all 210 even quadruples
        odds = enumerate_characteristics(2, "odd")
        evens = [m.idx for m in enumerate_characteristics(2, "even")]
        for a, b in combinations(odds, 2):
            found = [q for q in combinations(evens, 4) if all_azygetic(2, [a.idx, b.idx, *q])]
            assert len(found) == 1
            comp = special_fundamental_completion(CharacteristicSet([a, b]))
            assert [m.idx for m in comp] == list(found[0])


def _azygetic_triples_oracle(g: int) -> np.ndarray:
    """The combinations-and-triple_signs filter the level loop replaced."""
    odds = np.flatnonzero(parity_table(g) == -1)
    triples = odds[np.array(list(combinations(range(len(odds)), 3)))]
    return triples[triple_signs(g, *triples.T) == -1]


def _azygetic_sets_oracle(g: int, k: int) -> np.ndarray:
    """The pair-by-pair level loop the carried candidate masks replaced: at
    each level every pair of members is tested again over every row."""
    odds = np.flatnonzero(parity_table(g) == -1)
    rows = np.arange(len(odds))[:, None]
    for level in range(1, k):
        keep = np.arange(len(odds)) > rows[:, -1:]
        for i, j in combinations(range(level), 2):
            keep &= triple_signs(g, odds[rows[:, i : i + 1]], odds[rows[:, j : j + 1]], odds) == -1
        t, v = np.nonzero(keep)
        rows = np.column_stack([rows[t], v])
    return odds[rows]


def _classify_oracle(aronhold, n0) -> dict:
    """The nested loops of Characteristic sums the index tables replaced."""
    ms = list(aronhold.members)
    out = {n0.idx: ("n0", ()), **{m.idx: ("m", (i,)) for i, m in enumerate(ms)}}
    for i, j in combinations(range(7), 2):
        out[(n0 + ms[i] + ms[j]).idx] = ("odd_sum", (i, j))
    for i, j, k in combinations(range(7), 3):
        out[(ms[i] + ms[j] + ms[k]).idx] = ("even_sum", (i, j, k))
    return out


class TestAzygeticOddSets:
    @pytest.mark.parametrize("g, n", [(2, 20), (3, 2016)])
    def test_triples_are_the_filtered_combinations(self, g, n):
        triples = azygetic_odd_sets(g, 3)
        assert len(triples) == n
        assert triples.tolist() == _azygetic_triples_oracle(g).tolist()

    @pytest.mark.parametrize("g, k", [(g, k) for g in GENERA for k in range(1, 2 * g + 3)])
    def test_equals_the_pair_by_pair_builder(self, g, k):
        rows, oracle = azygetic_odd_sets(g, k), _azygetic_sets_oracle(g, k)
        assert rows.shape == oracle.shape and rows.dtype == oracle.dtype
        assert np.array_equal(rows, oracle)

    def test_aronhold_sets_are_the_level_seven_rows(self):
        rows = azygetic_odd_sets(3, 7)
        assert rows.shape == (288, 7)
        assert rows.tolist() == [[m.idx for m in s] for s in enumerate_aronhold_sets()]

    @pytest.mark.parametrize("g, k, n", [(1, 1, 1), (2, 2, 15), (2, 6, 1), (3, 1, 28), (3, 8, 0)])
    def test_cached_read_only_and_counted(self, g, k, n):
        rows = azygetic_odd_sets(g, k)
        assert rows.shape == (n, k) and rows is azygetic_odd_sets(g, k)
        assert not rows.flags.writeable

    @pytest.mark.parametrize("g, k", [(3, 0), (3, 9), (2, 7), (4, 3)])
    def test_out_of_range_rejected(self, g, k):
        with pytest.raises(ValueError):
            azygetic_odd_sets(g, k)

    @pytest.mark.parametrize("bad", [3.0, True, "3"])
    def test_non_integer_k_is_named(self, bad):
        # 3.0 raised TypeError from range, and True built the k = 1 sets
        with pytest.raises(ValueError, match=f"k must be an integer, not {re.escape(repr(bad))}$"):
            azygetic_odd_sets(3, bad)

    def test_numpy_integer_k_builds_as_its_int(self):
        rows = azygetic_odd_sets(3, np.int64(3))
        assert np.array_equal(rows, azygetic_odd_sets(3, 3)) and rows.shape == (2016, 3)


class TestBatchedCompletion:
    @pytest.mark.parametrize("g, k, n", [(1, 1, 1), (2, 2, 15), (3, 3, 2016)])
    def test_rows_are_the_one_row_completions(self, g, k, n):
        odds = azygetic_odd_sets(g, k)
        rows = special_fundamental_completions(g, odds)
        assert rows.shape == (n, g + 2)
        one_row = [
            [m.idx for m in special_fundamental_completion(CharacteristicSet.parse(g, t))]
            for t in odds.tolist()
        ]
        assert rows.tolist() == one_row

    def test_one_row_is_memoized_by_the_set(self):
        t = list(ARONHOLD_EXAMPLE)[:3]
        special_fundamental_completion.cache_clear()
        first = special_fundamental_completion(CharacteristicSet(t))
        assert special_fundamental_completion(CharacteristicSet(t[::-1])) == first
        assert special_fundamental_completion.cache_info()[:2] == (1, 1)  # hits, misses

    @pytest.mark.parametrize("g", GENERA)
    def test_completion_checks_itself_at_every_genus(self, monkeypatch, g):
        odds = CharacteristicSet(list(enumerate_characteristics(g, "odd"))[:g]
                                 if g < 3 else list(ARONHOLD_EXAMPLE)[:3])
        monkeypatch.setattr(characteristics, "all_azygetic",
                            lambda g, sets: np.zeros(np.shape(sets)[:-1], dtype=bool))
        special_fundamental_completion.cache_clear()  # a memoized row skips the body
        with pytest.raises(AssertionError, match="completion is not a fundamental system"):
            special_fundamental_completion(odds)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (1, 3, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"need an \(n, 3\) array of odd indices"):
            special_fundamental_completions(3, np.ones(shape, dtype=int))


class TestInternedTables:
    """The enumerations, the Aronhold sets and the completions equal the
    per-object constructions they replaced, order included, and take their
    members from the one interned characteristic per index."""

    @pytest.mark.parametrize("g", GENERA)
    def test_interned_by_index_and_built_once(self, g):
        table = characteristics._interned(g)
        assert table == tuple(Characteristic(g, i) for i in range(1 << (2 * g)))
        assert table is characteristics._interned(g)
        assert parity_table(g).dtype == pairing_table(g).dtype == np.int8
        assert pairing_table(g).shape == (len(table), len(table))

    @pytest.mark.parametrize("g", GENERA)
    @pytest.mark.parametrize("which", ["all", "even", "odd"])
    def test_enumerations_are_the_per_object_construction(self, g, which):
        keep = {"all": (1, -1), "even": (1,), "odd": (-1,)}[which]
        want = tuple(Characteristic(g, i) for i in range(1 << (2 * g)) if _parity_idx(g, i) in keep)
        got = enumerate_characteristics(g, which)
        assert got.members == want and got.idx_set() == {m.idx for m in want}
        assert all(m is characteristics._interned(g)[m.idx] for m in got)

    def test_aronhold_sets_are_the_per_object_construction(self):
        rows = _azygetic_sets_oracle(3, 7).tolist()
        sets = enumerate_aronhold_sets()
        assert [s.members for s in sets] == [tuple(Characteristic(3, i) for i in r) for r in rows]
        assert [s.idx_set() for s in sets] == [frozenset(r) for r in rows]
        assert all(m is characteristics._interned(3)[m.idx] for s in sets for m in s)

    @pytest.mark.parametrize("g", GENERA)
    def test_completions_of_every_valid_input_are_the_scalar_filter(self, g):
        evens = list(enumerate_characteristics(g, "even"))
        inputs = [t for t in combinations(enumerate_characteristics(g, "odd"), g)
                  if g < 3 or triple_sign(*t) == -1]
        want = []
        for t in inputs:
            total = Characteristic(g, int(np.bitwise_xor.reduce([m.idx for m in t])))
            want.append([n.idx for n in evens if n != total and all(
                triple_sign(a, b, n) == -1 for a, b in combinations(t, 2))])
        assert len(inputs) == {1: 1, 2: 15, 3: 2016}[g]
        rows = special_fundamental_completions(g, [[m.idx for m in t] for t in inputs])
        assert rows.tolist() == want
        one_row = [special_fundamental_completion(CharacteristicSet(t)) for t in inputs]
        assert [[m.idx for m in c] for c in one_row] == want
        assert all(m is characteristics._interned(g)[m.idx] for c in one_row for m in c)

    def test_rows_keep_the_duplicate_check(self):
        with pytest.raises(ValueError, match="duplicate characteristic 000;101"):
            CharacteristicSet._rows(3, [[1, 5, 5]])


class TestAronhold:
    def test_count_288(self):
        sets = enumerate_aronhold_sets()
        assert len(sets) == 288
        assert len({s.idx_set() for s in sets}) == 288

    def test_every_set_azygetic_under_scalar_sign(self):
        for s in enumerate_aronhold_sets():
            assert all(m.is_odd for m in s)
            assert all(triple_sign(*t) == -1 for t in combinations(s.members, 3))

    def test_sets_in_lexicographic_order(self):
        keys = [tuple(m.idx for m in s) for s in enumerate_aronhold_sets()]
        assert all(list(k) == sorted(k) for k in keys)
        assert keys == sorted(keys)

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
        for s in enumerate_aronhold_sets()[:24]:
            n0 = aronhold_base_point(s)
            assert n0.is_even
            assert is_fundamental_system(CharacteristicSet([n0] + list(s)))

    def test_base_point_is_the_characteristic_sum(self):
        for s in enumerate_aronhold_sets():
            total = Characteristic(3, 0)
            for m in s:
                total = total + m
            assert aronhold_base_point(s) == total

    def test_classification_matches_the_loop_oracle_in_order(self):
        for s in enumerate_aronhold_sets():
            n0 = aronhold_base_point(s)
            out = aronhold_classify(s, n0)
            assert list(out.items()) == list(_classify_oracle(s, n0).items())
