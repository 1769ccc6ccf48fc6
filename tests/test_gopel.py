import math
from itertools import combinations

import numpy as np
import pytest

from thetacoble.characteristics import (
    ARONHOLD_EXAMPLE,
    FANO_TRIPLE_FAMILY,
    PASCAL_FAMILY,
    Characteristic,
    CharacteristicSet,
    _pairing_idx,
    _parity_idx,
    fano_plane_families,
    pairing_table,
    pascal_families,
    triple_sign,
)
from thetacoble import gopel as gp
from thetacoble import points


def _recursive_lagrangians(g):
    """The earlier enumeration: extend every isotropic span by each orthogonal
    vector past the last one added, deduplicating the spans reached through
    several bases."""
    pt = pairing_table(g)
    seen, out = set(), []

    def extend(span, basis_size, start):
        if basis_size == g:
            if span not in seen:
                seen.add(span)
                out.append(span)
            return
        orthogonal = (pt[list(span), start:] == 1).all(axis=0)
        for v in (np.flatnonzero(orthogonal) + start).tolist():
            if v not in span:
                extend(span | frozenset(s ^ v for s in span), basis_size + 1, v + 1)

    extend(frozenset([0]), 0, 1)
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


# The 15 Fano configurations of the modular-form basis and the 5 genus-2
# quadruples of the s-vector, as written out by hand; the split Lagrangians
# must reproduce them member for member and in order.
FANO_BASIS_STRINGS = (
    ("000;000", "000;001", "000;010", "000;011", "000;100", "000;101", "000;110", "000;111"),
    ("000;000", "000;001", "000;010", "000;011", "100;000", "100;001", "100;010", "100;011"),
    ("000;000", "000;001", "000;100", "000;101", "010;000", "010;001", "010;100", "010;101"),
    ("000;000", "000;001", "000;110", "000;111", "110;000", "110;001", "110;110", "110;111"),
    ("000;000", "000;001", "010;000", "010;001", "100;000", "100;001", "110;000", "110;001"),
    ("000;000", "000;010", "000;100", "000;110", "001;000", "001;010", "001;100", "001;110"),
    ("000;000", "000;010", "000;101", "000;111", "101;000", "101;010", "101;101", "101;111"),
    ("000;000", "000;010", "001;000", "001;010", "100;000", "100;010", "101;000", "101;010"),
    ("000;000", "000;011", "000;100", "000;111", "011;000", "011;011", "011;100", "011;111"),
    ("000;000", "000;011", "000;101", "000;110", "111;000", "111;011", "111;101", "111;110"),
    ("000;000", "000;011", "011;000", "011;011", "100;000", "100;011", "111;000", "111;011"),
    ("000;000", "000;100", "001;000", "001;100", "010;000", "010;100", "011;000", "011;100"),
    ("000;000", "000;101", "010;000", "010;101", "101;000", "101;101", "111;000", "111;101"),
    ("000;000", "000;110", "001;000", "001;110", "110;000", "110;110", "111;000", "111;110"),
    ("000;000", "000;111", "011;000", "011;111", "101;000", "101;111", "110;000", "110;111"),
)

GENUS2_QUADRUPLES = (
    ("00;00", "00;01", "00;10", "00;11"),
    ("00;00", "00;01", "10;00", "10;01"),
    ("00;00", "00;10", "01;00", "01;10"),
    ("00;00", "00;11", "11;00", "11;11"),
    ("00;00", "01;00", "10;00", "11;00"),
)


def _scalar_system(g, span):
    """The member-by-member construction the batched checks replaced: the
    increasing members and the even count of a Lagrangian subspace."""
    assert 0 in span
    assert all(a ^ b in span for a in span for b in span)
    assert all(_pairing_idx(g, a, b) == 1 for a in span for b in span)
    return sorted(span), sum(_parity_idx(g, i) == 1 for i in span)


def _scalar_even_coset(g, span):
    """The translate-by-translate search even_coset ran per system."""
    found = {frozenset(t ^ i for i in span) for t in range(1 << (2 * g))
             if all(_parity_idx(g, t ^ i) == 1 for i in span)}
    assert len(found) == 1
    return found.pop()


def _scalar_fano_pair(pascal, systems):
    """The mask-dictionary search pascal_decomposition ran per system."""
    def mask(idxs):
        return sum(1 << i for i in idxs)

    fanos = {mask(s.idx_set()): s for s in systems if s.kind == "fano"}
    target = mask(_scalar_even_coset(3, pascal.idx_set()))
    found = [(f, fanos[m ^ target]) for m, f in fanos.items() if m ^ target in fanos]
    assert len(found) == 2
    return found[0]


class TestBatchedTables:
    """Each table built in one batched body equals the per-object
    construction it replaced, order included."""

    @pytest.mark.parametrize("g", [2, 3])
    def test_systems_are_the_per_object_construction(self, g):
        spans = _recursive_lagrangians(g)
        systems = gp.enumerate_gopel(g)
        assert len(systems) == len(spans)
        for s, span in zip(systems, spans):
            members, even_count = _scalar_system(g, span)
            assert s.members.members == tuple(Characteristic(g, i) for i in members)
            assert s.even_count == even_count and hash(s) == hash((g, s.members))
            assert s == gp.GopelSystem.from_idxs(g, span)
        assert gp.lagrangian_spans(g).tolist() == [sorted(span) for span in spans]
        assert not gp.lagrangian_spans(g).flags.writeable

    @pytest.mark.parametrize("g, count", [(2, 5), (3, 16)])
    def test_split_lagrangians_are_the_split_subspaces_in_order(self, g, count):
        low = (1 << g) - 1
        spans = [span for span in _recursive_lagrangians(g)
                 if len({i >> g for i in span}) * len({i & low for i in span}) == 1 << g]
        systems = gp.split_lagrangians(g)
        assert len(systems) == len(spans) == count
        for s, span in zip(systems, spans):
            members, even_count = _scalar_system(g, span)
            assert [m.idx for m in s.members] == members and s.even_count == even_count

    @pytest.mark.parametrize("g", [2, 3])
    def test_even_cosets_are_the_translate_search(self, g):
        systems = gp.enumerate_gopel(g)
        want = [_scalar_even_coset(g, s.idx_set()) for s in systems]
        assert gp.even_cosets(g).tolist() == [sorted(c) for c in want]
        assert not gp.even_cosets(g).flags.writeable
        assert [gp.even_coset(s) for s in systems] == want

    def test_pascal_decompositions_are_the_mask_search(self):
        systems = gp.enumerate_gopel(3)
        position = {s: k for k, s in enumerate(systems)}
        pascals = [s for s in systems if s.kind == "pascal"]
        pairs = [_scalar_fano_pair(s, systems) for s in pascals]
        assert len(pascals) == 105
        assert gp.pascal_rows().tolist() == [[position[p], position[f1], position[f2]]
                                             for p, (f1, f2) in zip(pascals, pairs)]
        assert not gp.pascal_rows().flags.writeable
        for p, (f1, f2) in zip(pascals, pairs):
            s1 = f1.idx_set() & f2.idx_set()
            want = gp.PascalDecomposition(p, f1, f2, s1, f1.idx_set() - s1, f2.idx_set() - s1)
            d = gp.pascal_decomposition(p)
            assert d == want and d.fano1 is f1 and d.fano2 is f2

    @pytest.mark.parametrize("row, message", [
        ([1, 2, 4, 8], "contains the zero characteristic"),
        ([0, 1, 2, 4], "not closed under addition"),
        ([0, 1, 4, 5], "not pairwise orthogonal"),
    ])
    def test_every_row_is_checked(self, row, message):
        with pytest.raises(ValueError, match=message):
            gp.GopelSystem.from_idxs(2, row)
        with pytest.raises(ValueError, match=message):
            gp._systems(2, np.vstack([gp.lagrangian_spans(2), [row]]))


class TestEnumeration:
    def test_counts(self):
        systems = gp.enumerate_gopel(3)
        assert len(systems) == 135
        kinds = [s.kind for s in systems]
        assert kinds.count("fano") == 30
        assert kinds.count("pascal") == 105
        assert len(gp.enumerate_gopel(2)) == 15

    @pytest.mark.parametrize("g, count", [(2, 15), (3, 135)])
    def test_echelon_enumeration_matches_recursive_search(self, g, count):
        # same subspaces, same order, each built once
        lags = gp.enumerate_lagrangian_subspaces(g)
        assert len(lags) == count == len(set(lags))
        assert lags == _recursive_lagrangians(g)

    @pytest.mark.parametrize("g", [2, 3])
    def test_bases_span_the_subspaces_in_order(self, g):
        bases = gp.lagrangian_bases(g)
        assert bases.shape == (len(gp.enumerate_lagrangian_subspaces(g)), g)
        assert not bases.flags.writeable
        for basis, lag in zip(bases.tolist(), gp.enumerate_lagrangian_subspaces(g)):
            span = {0}
            for v in basis:
                span |= {s ^ v for s in span}
            assert span == lag
            # reduced echelon: strictly decreasing leading bits, each vector
            # zero at the others' leading bits
            tops = [1 << (v.bit_length() - 1) for v in basis]
            assert tops == sorted(tops, reverse=True) and len(set(tops)) == g
            assert all(v & t == 0 for v in basis for t in tops if t != 1 << (v.bit_length() - 1))

    def test_systems_are_isotropic_subspaces(self):
        for s in gp.enumerate_gopel(2):
            idxs = s.idx_set()
            assert 0 in idxs
            assert all((a ^ b) in idxs for a in idxs for b in idxs)

    def test_no_azygetic_triples(self):
        for s in gp.enumerate_gopel(3)[:20]:
            for a, b, c in combinations(list(s.members), 3):
                assert triple_sign(a, b, c) == 1

    def test_validation_rejects_bad_sets(self):
        # {m' = 0} itself is valid; swapping one member breaks closure
        with pytest.raises(ValueError):
            gp.GopelSystem.from_idxs(3, [0, 1, 2, 3, 4, 5, 6, 8])

    def test_validation_rejects_genus_mismatch(self):
        genus3 = CharacteristicSet.parse(3, ["000;000", "000;001", "000;010", "000;011"])
        genus2 = CharacteristicSet(Characteristic(2, i) for i in range(8))
        with pytest.raises(ValueError, match="genus mismatch"):
            gp.GopelSystem(2, genus3)
        with pytest.raises(ValueError, match="genus mismatch"):
            gp.GopelSystem(3, genus2)


class TestFromAronhold:
    def test_fano_worked_example(self):
        sys = gp.fano_from_aronhold(ARONHOLD_EXAMPLE, FANO_TRIPLE_FAMILY)
        expected = CharacteristicSet.parse(
            3,
            ["000;000", "100;010", "001;010", "101;000",
             "001;000", "101;010", "000;010", "100;000"],
        )
        assert sys.idx_set() == expected.idx_set()
        assert sys.kind == "fano"

    def test_pascal_worked_example(self):
        sys = gp.pascal_from_aronhold(ARONHOLD_EXAMPLE, PASCAL_FAMILY)
        expected = CharacteristicSet.parse(
            3,
            ["000;000", "100;010", "001;010", "101;000",
             "111;111", "011;101", "110;101", "010;111"],
        )
        assert sys.idx_set() == expected.idx_set()
        assert sys.kind == "pascal"
        assert sys.even_count == 4

    def test_every_fano_family_gives_fano(self):
        systems = [gp.fano_from_aronhold(ARONHOLD_EXAMPLE, fam) for fam in fano_plane_families()]
        assert all(s.kind == "fano" for s in systems)
        # distinct families give distinct systems: the dual-route check of the
        # jacobi suite takes the first five families without a dedupe
        assert len({s.idx_set() for s in systems}) == 30

    @pytest.mark.parametrize(
        "members",
        [
            # odd members with an even sum, but only 23 of the 35 triples azygetic
            ["001;011", "001;101", "011;010", "100;111", "110;100", "110;101", "111;010"],
            # odd members whose Fano-family sums span a Pascal configuration
            ["001;011", "001;111", "011;101", "101;110", "110;010", "111;001", "111;100"],
        ],
        ids=["S", "T"],
    )
    def test_non_aronhold_input_rejected(self, members):
        from thetacoble import modular

        s = CharacteristicSet.parse(3, members)
        with pytest.raises(ValueError, match="not an Aronhold set"):
            gp.fano_from_aronhold(s, FANO_TRIPLE_FAMILY)
        with pytest.raises(ValueError, match="not an Aronhold set"):
            gp.pascal_from_aronhold(s, PASCAL_FAMILY)
        with pytest.raises(ValueError, match="not an Aronhold set"):
            modular.aronhold_base_point(s)
        with pytest.raises(ValueError, match="not an Aronhold set"):
            modular.h_via_jacobian(modular.reference_tau3(), s, FANO_TRIPLE_FAMILY)

    def test_invalid_family_rejected(self):
        from thetacoble import modular

        bad = tuple(list(FANO_TRIPLE_FAMILY[:6]) + [(1, 2, 4)])
        with pytest.raises(ValueError):
            gp.fano_from_aronhold(ARONHOLD_EXAMPLE, bad)
        # index 0 would wrap to the seventh member
        for family in (bad, ((0, 1, 2),)):
            with pytest.raises(ValueError):
                modular.h_via_jacobian(modular.reference_tau3(), ARONHOLD_EXAMPLE, family)


def _shuffled(family, rng) -> tuple:
    """The family with its parts, and the entries of each part, permuted."""
    parts = [tuple(rng.permutation(part).tolist()) for part in family]
    return tuple(parts[i] for i in rng.permutation(len(parts)))


def _permutation_sign(t) -> int:
    return (-1) ** sum(a > b for a, b in combinations(t, 2))


def _replaced(family, i, part) -> tuple:
    return family[:i] + (part,) + family[i + 1:]


# Each malformed Fano spec is one of FANO_TRIPLE_FAMILY's 30 relatives
# spoiled in one way; each malformed P-spec likewise from PASCAL_FAMILY.
BAD_FANO = {
    "duplicated_part": _replaced(FANO_TRIPLE_FAMILY, 6, (1, 2, 3)),
    "repeated_index": _replaced(FANO_TRIPLE_FAMILY, 0, (1, 1, 3)),
    "index_0": _replaced(FANO_TRIPLE_FAMILY, 0, (0, 2, 3)),
    "index_8": _replaced(FANO_TRIPLE_FAMILY, 0, (8, 2, 3)),
    "6_parts": FANO_TRIPLE_FAMILY[:6],
    "8_parts": FANO_TRIPLE_FAMILY + ((2, 3, 4),),
    "not_a_plane": _replaced(FANO_TRIPLE_FAMILY, 6, (1, 2, 4)),
    "p_shape": PASCAL_FAMILY,
    "part_not_iterable": _replaced(FANO_TRIPLE_FAMILY, 6, 7),
    "spec_not_iterable": 7,
}
BAD_PASCAL = {
    "duplicated_part": _replaced(PASCAL_FAMILY, 5, (2, 3)),
    "repeated_index": _replaced(PASCAL_FAMILY, 0, (1, 2, 2)),
    "index_0": _replaced(_replaced(PASCAL_FAMILY, 2, (1, 6, 0)), 6, (6, 0)),
    "index_8": _replaced(_replaced(PASCAL_FAMILY, 2, (1, 6, 8)), 6, (6, 8)),
    "6_parts": PASCAL_FAMILY[:6],
    "8_parts": PASCAL_FAMILY + ((1,),),
    "triple_misses_singleton": _replaced(PASCAL_FAMILY, 2, (2, 6, 7)),
    "pairs_do_not_match": PASCAL_FAMILY[:4] + ((2, 4), (3, 5), (6, 7)),
    "fano_shape": FANO_TRIPLE_FAMILY,
    "int_singleton": _replaced(PASCAL_FAMILY, 3, 1),
    "spec_not_iterable": 1,
}
CFG = np.random.default_rng(7).uniform(-1, 1, (7, 3)).astype(complex)


class TestFamilyMembership:
    """A family is any listing of one of the 30 Fano or 105 P-shaped
    families; everything else is a ValueError."""

    def test_shuffled_fano_members_accepted(self):
        rng = np.random.default_rng(20121)
        for fam in fano_plane_families():
            spec = _shuffled(fam, rng)
            assert gp.fano_from_aronhold(ARONHOLD_EXAMPLE, spec) == gp.fano_from_aronhold(
                ARONHOLD_EXAMPLE, fam
            )
            # the brackets follow the caller's order of entries
            sign = math.prod(_permutation_sign(t) for t in spec)
            expected = sign * points.g_fano(CFG, fam)
            assert abs(points.g_fano(CFG, spec) - expected) <= 1e-12 * abs(expected)

    def test_shuffled_pascal_members_accepted(self):
        rng = np.random.default_rng(20122)
        for fam in pascal_families():
            spec = _shuffled(fam, rng)
            assert gp.pascal_from_aronhold(ARONHOLD_EXAMPLE, spec) == gp.pascal_from_aronhold(
                ARONHOLD_EXAMPLE, fam
            )
            assert points.g_pascal(CFG, spec) == points.g_pascal(CFG, fam)

    @pytest.mark.parametrize("spec", list(BAD_FANO.values()), ids=list(BAD_FANO))
    def test_malformed_fano_family_rejected(self, spec):
        with pytest.raises(ValueError, match="not one of the 30 Fano-plane families"):
            gp.fano_from_aronhold(ARONHOLD_EXAMPLE, spec)
        with pytest.raises(ValueError, match="not one of the 30 Fano-plane families"):
            points.g_fano(CFG, spec)

    @pytest.mark.parametrize("spec", list(BAD_PASCAL.values()), ids=list(BAD_PASCAL))
    def test_malformed_pascal_family_rejected(self, spec):
        with pytest.raises(ValueError, match="not one of the 105 P-shaped families"):
            gp.pascal_from_aronhold(ARONHOLD_EXAMPLE, spec)
        with pytest.raises(ValueError, match="not one of the 105 P-shaped families"):
            points.g_pascal(CFG, spec)


class TestSystemHash:
    """A system's hash is computed once, equal to the dataclass hash of
    (g, members), so set orders and reports do not move."""

    @pytest.mark.parametrize("g, count", [(2, 15), (3, 135)])
    def test_hash_is_that_of_g_and_members(self, g, count):
        systems = gp.enumerate_gopel(g)
        assert len(systems) == count
        assert all(hash(s) == hash((s.g, s.members)) for s in systems)

    @pytest.mark.parametrize("g", [2, 3])
    def test_permuted_members_compare_and_hash_equal(self, g):
        for s in gp.enumerate_gopel(g):
            permuted = gp.GopelSystem(g, CharacteristicSet(reversed(s.members.members)))
            assert permuted.members.members != s.members.members
            assert permuted == s and hash(permuted) == hash(s)
            assert gp.even_coset(permuted) == gp.even_coset(s)


class TestEvenCoset:
    def test_even_coset_is_even_and_unique(self):
        for s in gp.enumerate_gopel(3)[:30]:
            coset = gp.even_coset(s)
            assert len(coset) == 8
            assert all(_parity_idx(3, i) == 1 for i in coset)
            # a coset of the subspace
            x = next(iter(coset))
            assert frozenset(x ^ i for i in s.idx_set()) == coset

    def test_fano_coset_is_itself(self):
        for s in gp.enumerate_gopel(3):
            if s.kind == "fano":
                assert gp.even_coset(s) == s.idx_set()
                break


class TestPascalDecomposition:
    def test_unique_decomposition_structure(self):
        pascals = [s for s in gp.enumerate_gopel(3) if s.kind == "pascal"]
        for s in pascals[:15]:
            dec = gp.pascal_decomposition(s)
            assert dec.fano1.kind == "fano" and dec.fano2.kind == "fano"
            assert dec.s1 == dec.fano1.idx_set() & dec.fano2.idx_set()
            assert dec.s2 | dec.s3 == gp.even_coset(s)
            assert len(dec.s1) == 4 and len(dec.s2) == 4 and len(dec.s3) == 4

    def test_rejects_fano_input(self):
        fano = next(s for s in gp.enumerate_gopel(3) if s.kind == "fano")
        with pytest.raises(ValueError):
            gp.pascal_decomposition(fano)

    def test_decomposition_pair_in_enumeration_order(self):
        order = {s.idx_set(): k for k, s in enumerate(gp.enumerate_gopel(3))}
        for s in gp.enumerate_gopel(3):
            if s.kind == "pascal":
                dec = gp.pascal_decomposition(s)
                assert order[dec.fano1.idx_set()] < order[dec.fano2.idx_set()]


class TestSplitLagrangians:
    def test_fano_basis_is_the_written_out_basis(self):
        assert [tuple(s.members.to_strings()) for s in gp.fano_basis()] == list(FANO_BASIS_STRINGS)

    def test_genus2_systems_are_the_written_out_quadruples(self):
        got = [tuple(s.members.to_strings()) for s in gp.split_lagrangians(2)]
        assert got == list(GENUS2_QUADRUPLES)

    @pytest.mark.parametrize("g, count", [(2, 5), (3, 16)])
    def test_one_split_lagrangian_per_subspace_of_the_m_prime_space(self, g, count):
        systems = gp.split_lagrangians(g)
        assert len(systems) == count
        order = {s: k for k, s in enumerate(gp.enumerate_lagrangian_subspaces(g))}
        positions = [order[s.idx_set()] for s in systems]
        assert positions == sorted(positions)
        low = (1 << g) - 1
        subspaces = set()
        for s in systems:
            a = frozenset(i >> g for i in s.idx_set())
            perp = frozenset(i & low for i in s.idx_set())
            # A + A^perp: every a' paired with every a'' of the orthogonal
            assert s.idx_set() == {(x << g) | y for x in a for y in perp}
            assert all((x & y).bit_count() % 2 == 0 for x in a for y in perp)
            assert len(a) * len(perp) == 1 << g
            subspaces.add(a)
        assert len(subspaces) == count
        # the one left out of the basis: A the whole m' space, A^perp = 0
        assert systems[-1].idx_set() == {x << g for x in range(1 << g)}


class TestFanoBasis:
    def test_basis_fixture_valid(self):
        basis = gp.fano_basis()
        assert len(basis) == 15
        assert all(s.kind == "fano" for s in basis)
        assert all(Characteristic(3, 0) in s for s in basis)

    def test_f1_is_top_vector_zero(self):
        f1 = gp.fano_basis()[0]
        assert all(m.mp_int == 0 for m in f1.members)

    def test_basis_members_enumerated(self):
        all_sets = {s.idx_set() for s in gp.enumerate_gopel(3)}
        assert all(f.idx_set() in all_sets for f in gp.fano_basis())
