import math
from itertools import combinations, permutations, product

import numpy as np
import pytest

from thetacoble import characteristics as chars
from thetacoble import points
from thetacoble.characteristics import FANO_TRIPLE_FAMILY, PASCAL_FAMILY
from thetacoble.sampling import random_tau, stream

RNG = stream(21, "test_points")


def random_config1():
    while True:
        x = RNG.uniform(-2, 2, 6) + 1j * RNG.uniform(-2, 2, 6)
        if min(abs(a - b) for i, a in enumerate(x) for b in x[i + 1:]) > 0.05:
            return x


def random_config2():
    return RNG.uniform(-1, 1, (7, 3)) + 1j * RNG.uniform(-1, 1, (7, 3))


class TestTableaux:
    def test_standard_listing(self):
        t0 = points.STANDARD_TABLEAUX[0]
        t4 = points.STANDARD_TABLEAUX[4]
        assert (t0.top, t0.bottom) == ((1, 3, 5), (2, 4, 6))
        assert (t4.top, t4.bottom) == ((1, 2, 3), (4, 5, 6))
        assert all(t.is_standard for t in points.STANDARD_TABLEAUX)

    def test_first_and_last_product_forms(self):
        x = random_config1()
        assert points.tableau_invariant(points.STANDARD_TABLEAUX[0], x) == pytest.approx(
            (x[0] - x[1]) * (x[2] - x[3]) * (x[4] - x[5]), rel=1e-12
        )
        assert points.tableau_invariant(points.STANDARD_TABLEAUX[4], x) == pytest.approx(
            (x[0] - x[3]) * (x[1] - x[4]) * (x[2] - x[5]), rel=1e-12
        )

    def test_coincident_points_vanish(self):
        x = random_config1()
        x[1] = x[0]
        assert points.tableau_invariant(points.STANDARD_TABLEAUX[0], x) == 0

    def test_invalid_tableaux_rejected(self):
        with pytest.raises(ValueError):
            points.Tableau((1, 2, 3), (4, 5, 5))
        with pytest.raises(ValueError):
            points.Tableau((2, 3, 5), (1, 4, 6))


class TestSegreIgusa:
    def test_segre_identity_on_invariants(self):
        for _ in range(10):
            x = random_config1()
            t = points.standard_invariants(x)
            assert abs(points.segre_eval(t)) / points.segre_scale(t) < 1e-10

    def test_zero_inputs(self):
        assert points.segre_eval([0] * 5) == 0
        assert points.igusa_eval([0] * 5) == 0

    def test_igusa_polynomial_value(self):
        # hand-computed point: X = (1, 1, 1, 1, 1) -> (3-1)^2 - 4*5 = -16
        assert points.igusa_eval([1, 1, 1, 1, 1]) == pytest.approx(-16)

    def test_igusa_search_requires_samples(self):
        with pytest.raises(ValueError):
            points.igusa_tuple_search([])

    def test_no_plain_theta4_tuple_satisfies_igusa(self):
        # the quartic needs a linear change of basis: no ordered 5-tuple of
        # plain even theta^4 satisfies it (the smallest residual here is 0.2)
        rng = stream(21, "test_points.plain_igusa")
        values = np.array([points.theta4_constants(random_tau(rng, 2)) for _ in range(3)])
        tuples = np.array(list(permutations(range(10), 5)))
        x = values[:, tuples].transpose(2, 0, 1)  # (slot, tau, tuple)
        worst = points.igusa_residual(x).max(axis=0)
        assert len(worst) == 30240
        assert worst.min() > 1e-8

    def test_search_finds_forms_satisfying_igusa(self):
        rng = stream(21, "test_points.igusa_search")
        taus = [random_tau(rng, 2) for _ in range(3)]
        forms = points.igusa_tuple_search(taus)
        assert forms.shape == (5, 10)
        assert (forms[:3].sum(axis=1) == 1).all() and (forms[:3] >= 0).all()
        for tau in [random_tau(rng, 2) for _ in range(3)]:
            assert points.igusa_residual(forms @ points.theta4_constants(tau)) < 1e-12


def _distinct_forms_oracle(values, tol):
    """The form-by-form loop the agreement table replaced: each form against
    every form already kept."""
    eye = np.eye(10, dtype=int)
    forms = [eye[i] for i in range(10)] + [eye[a] - eye[b] for a, b in permutations(range(10), 2)]
    normed = values / abs(values).max(axis=1, keepdims=True)
    kept, seen = [], []
    for f in forms:
        v = normed @ f
        if not any(np.all(abs(w - v) <= tol) for w in seen):
            kept.append(f)
            seen.append(v)
    return np.array(kept)


def _theta4_samples(seed):
    rng = stream(seed, "test_points.distinct_forms")
    taus = [random_tau(rng, 2) for _ in range(3)]
    return taus, np.array([points.theta4_constants(tau) for tau in taus])


class TestDistinctForms:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_form_by_form_loop(self, seed):
        _, values = _theta4_samples(seed)
        for tol in (1e-12, 1e-8, 1e-4, 0.1, 0.5):
            forms, oracle = points._distinct_forms(values, tol), _distinct_forms_oracle(values, tol)
            assert forms.shape == oracle.shape and forms.dtype == oracle.dtype
            assert np.array_equal(forms, oracle)

    def test_loose_tol_agreement_is_not_transitive(self):
        # at tol 0.5 some forms a ~ b and b ~ c have a, c apart, so the
        # equality above holds the first-of-class rule, not a transitive closure
        for seed in range(12):
            _, values = _theta4_samples(seed)
            forms = _distinct_forms_oracle(values, 0.0)
            v = values / abs(values).max(axis=1, keepdims=True) @ forms.T
            agree = (abs(v[:, :, None] - v[:, None, :]) <= 0.5).all(axis=0).astype(int)
            assert ((agree @ agree > 0) & (agree == 0)).any()

    @pytest.mark.parametrize("seed", range(12))
    def test_search_returns_the_loop_forms(self, seed, monkeypatch):
        taus, _ = _theta4_samples(seed)
        forms = points.igusa_tuple_search(taus)
        monkeypatch.setattr(points, "_distinct_forms", _distinct_forms_oracle)
        assert np.array_equal(forms, points.igusa_tuple_search(taus))


class TestBrackets:
    def test_antisymmetry_and_determinant(self):
        cfg = random_config2()
        b = points.bracket(cfg, 1, 2, 3)
        assert b == pytest.approx(np.linalg.det(cfg[[0, 1, 2]]), rel=1e-12)
        assert points.bracket(cfg, 2, 1, 3) == pytest.approx(-b, rel=1e-12)

    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError):
            points.bracket(random_config2(), 1, 1, 2)

    @pytest.mark.parametrize("triple", [(0, 1, 2), (1, 2, 8), (-1, 3, 4)])
    def test_rejects_out_of_range_indices(self, triple):
        with pytest.raises(ValueError):
            points.bracket(random_config2(), *triple)

    def test_g_fano_vanishes_on_collinear(self):
        cfg = random_config2()
        cfg[2] = 0.3 * cfg[0] + 0.7 * cfg[1]
        assert abs(points.g_fano(cfg, FANO_TRIPLE_FAMILY)) < 1e-10

    def test_g_pascal_reference_expansion(self):
        # the generalized product/difference form, checked against a direct
        # transcription for the family with common index 1, pairs (23)(45)(67)
        cfg = random_config2()

        def br(i, j, k):
            return points.bracket(cfg, i, j, k)

        direct = (
            br(1, 2, 3) * br(1, 4, 5) * br(1, 6, 7)
            * (
                br(2, 4, 6) * br(3, 5, 6) * br(2, 5, 7) * br(3, 4, 7)
                - br(2, 5, 6) * br(3, 4, 6) * br(2, 4, 7) * br(3, 5, 7)
            )
        )
        got = points.g_pascal(cfg, PASCAL_FAMILY)
        assert abs(got - direct) < 1e-9 * max(1.0, abs(direct))

    def test_one_shot_iterables_give_the_tuple_value(self):
        # the family is read once: generators of parts, and of entries, work
        cfg = random_config2()
        for g_form, family in ((points.g_fano, FANO_TRIPLE_FAMILY), (points.g_pascal, PASCAL_FAMILY)):
            want = g_form(cfg, family)
            assert g_form(cfg, (part for part in family)) == want
            assert g_form(cfg, ((i for i in part) for part in family)) == want

    def test_family_counts(self):
        assert len(points.fano_plane_families()) == 30
        assert len(points.pascal_families()) == 105

    def test_families_match_recursive_search(self):
        # the direct constructions give the tuples, and the order, of a search
        assert points.fano_plane_families() == _searched_fano_families()
        assert points.pascal_families() == _searched_pascal_families()

    def test_span_rank_15(self):
        cfgs = [random_config2() for _ in range(40)]
        sv = np.linalg.svd(points.bracket_value_matrix(cfgs), compute_uv=False)
        assert int((sv > 1e-8 * sv[0]).sum()) == 15

    @pytest.mark.parametrize("shape", [(6, 3), (7, 2), (3, 7)])
    def test_value_matrix_rejects_non_7x3(self, shape):
        bad = np.ones(shape, dtype=complex)
        for cfgs in ([bad, bad], [random_config2(), bad]):
            with pytest.raises(ValueError):
                points.bracket_value_matrix(cfgs)


def _searched_fano_families() -> tuple:
    """Reference: every 7-subset of the increasing triples on {1..7} whose
    triples pairwise meet in one point, by a recursive search in
    lexicographic order."""
    triples = list(combinations(range(1, 8), 3))
    out = []

    def extend(chosen, start):
        if len(chosen) == 7:
            out.append(tuple(chosen))
            return
        for t in range(start, len(triples)):
            if all(len(set(triples[t]) & set(c)) == 1 for c in chosen):
                extend(chosen + [triples[t]], t + 1)

    extend([], 0)
    return tuple(out)


def _searched_pascal_families() -> tuple:
    """Reference: for each common index c, every partition of the other six
    indices into three pairs, in lexicographic order, laid out as the triples
    (c a b), then (c,), then the pairs."""

    def pairings(items):
        if not items:
            yield []
            return
        a = items[0]
        for b in items[1:]:
            for tail in pairings([x for x in items[1:] if x != b]):
                yield [(a, b)] + tail

    return tuple(
        tuple([(c,) + p for p in ps] + [(c,)] + ps)
        for c in range(1, 8)
        for ps in pairings([i for i in range(1, 8) if i != c])
    )


def _scalar_family_products(cfg) -> np.ndarray:
    """Reference row of bracket_value_matrix: every family product written
    out with scalar brackets, in the same column order."""

    def br(t):
        return points.bracket(cfg, *t)

    row = [math.prod(br(t) for t in fam) for fam in points.fano_plane_families()]
    for fam in points.pascal_families():
        pairs = fam[4:]
        picks = {0: [], 1: []}
        for choice in product((0, 1), repeat=3):
            picks[sum(choice) % 2].append(br(tuple(p[c] for p, c in zip(pairs, choice))))
        row.append(math.prod(br(t) for t in fam[:3]) * (math.prod(picks[0]) - math.prod(picks[1])))
    return np.array(row)


def _max_column_error(cfgs) -> float:
    matrix = points.bracket_value_matrix(cfgs)
    reference = np.array([_scalar_family_products(cfg) for cfg in cfgs])
    return float((abs(matrix - reference) / abs(reference)).max())


class TestBracketTable:
    CFGS = [
        rng.uniform(-1, 1, (7, 3)) + 1j * rng.uniform(-1, 1, (7, 3))
        for rng in (stream(seed, "test_points.bracket_table") for seed in (1, 2, 3))
    ]

    def test_columns_match_scalar_products(self):
        assert _max_column_error(self.CFGS) < 1e-12

    def test_flipped_column_sign_is_caught(self, monkeypatch):
        table = points._bracket_table

        def flipped(cfgs):
            out = table(cfgs).copy()
            out[:, 0] *= -1
            return out

        monkeypatch.setattr(points, "_bracket_table", flipped)
        assert _max_column_error(self.CFGS) > 1.0


def _reference_signed(triples) -> list:
    """The per-triple construction of signed columns: the sign of the
    permutation sorting (i, j, k), by its inversion count, times 1 + the
    position of the sorted triple among the increasing triples."""
    column = {t: c for c, t in enumerate(combinations(range(1, 8), 3))}
    return [(-1) ** ((i > j) + (i > k) + (j > k)) * (column[tuple(sorted((i, j, k)))] + 1)
            for i, j, k in triples]


def _reference_pascal_triples(family) -> list:
    """The 3 common triples (c a b) of a P-shaped family, then its 4 even and
    its 4 odd choices of one entry per pair, as g_pascal multiplies them."""
    (common,), pairs = family[3], family[4:]
    choices = sorted(product((0, 1), repeat=3), key=lambda ch: sum(ch) % 2)
    return ([(common, a, b) for a, b in pairs]
            + [tuple(pair[c] for pair, c in zip(pairs, ch)) for ch in choices])


class TestFamilyTables:
    """The batched family tables against the per-family constructions,
    order included."""

    def test_columns_are_the_per_family_construction(self):
        fano, pascal = points._family_columns()
        assert not fano.flags.writeable and not pascal.flags.writeable
        assert fano.shape == (30, 7) and pascal.shape == (105, 11)
        fano_want = [_reference_signed(f) for f in points.fano_plane_families()]
        pascal_want = [_reference_signed(_reference_pascal_triples(p))
                       for p in points.pascal_families()]
        assert fano.tolist() == fano_want
        assert pascal.tolist() == pascal_want
        assert [points._fano_columns(f).tolist() for f in points.fano_plane_families()] == fano_want
        assert [points._pascal_columns(p).tolist() for p in points.pascal_families()] == pascal_want

    def test_one_family_is_signed_in_the_callers_order(self):
        family = [t[::-1] for t in reversed(points.fano_plane_families()[7])]
        assert points._fano_columns(family).tolist() == _reference_signed(family)
        spec = tuple(p[::-1] for p in reversed(PASCAL_FAMILY))
        assert points._pascal_columns(spec).tolist() == _reference_signed(
            _reference_pascal_triples(points.pascal_family(spec)))

    def test_families_by_key_are_the_per_family_keys(self):
        for families in (chars.fano_plane_families, chars.pascal_families):
            by_key = chars._families_by_key(families)
            want = [(chars._family_key(f), f) for f in families()]
            assert list(by_key.items()) == want
            assert by_key is chars._families_by_key(families)
        # a Fano family is its own key
        assert list(chars._families_by_key(chars.fano_plane_families)) == list(
            chars.fano_plane_families())


# (1 2) and (1 2 ... 7), which generate S_7, as the images of 1..7
S7_GENERATORS = ((2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1))


def _relabelled(family, image) -> tuple:
    """The family with each index i replaced by image[i - 1]."""
    return tuple(tuple(image[i - 1] for i in part) for part in family)


class TestS7Structure:
    """Each family table, built directly, is one S_7-orbit: of
    FANO_TRIPLE_FAMILY and of PASCAL_FAMILY."""

    TABLES = {"fano": (chars.fano_plane_families, FANO_TRIPLE_FAMILY, chars.fano_family, 30),
              "pascal": (chars.pascal_families, PASCAL_FAMILY, chars.pascal_family, 105)}

    @pytest.mark.parametrize("kind", TABLES)
    def test_closed_under_the_generators(self, kind):
        families, _, _, _ = self.TABLES[kind]
        keys = set(chars._families_by_key(families))
        for f in families():
            for image in S7_GENERATORS:
                assert chars._family_key(_relabelled(f, image)) in keys

    def test_reference_families_are_members(self):
        assert FANO_TRIPLE_FAMILY in chars.fano_plane_families()
        assert PASCAL_FAMILY in chars.pascal_families()

    @pytest.mark.parametrize("kind", TABLES)
    def test_orbit_of_the_reference_is_the_table(self, kind):
        families, reference, _, count = self.TABLES[kind]

        def images(frontier):
            return (chars._family_key(_relabelled(f, image))
                    for f in frontier for image in S7_GENERATORS)

        found = chars.orbit(chars._family_key(reference), images)
        assert len(found) == count
        assert found == set(chars._families_by_key(families))

    @pytest.mark.parametrize("kind", TABLES)
    def test_a_swap_in_one_part_only_is_rejected(self, kind):
        _, reference, member, count = self.TABLES[kind]
        swaps = 0
        for k, part in enumerate(reference):
            for a, b in combinations(range(1, 8), 2):
                moved = tuple(b if i == a else a if i == b else i for i in part)
                if sorted(moved) == sorted(part):
                    continue
                swaps += 1
                with pytest.raises(ValueError, match=f"not one of the {count} "):
                    member(reference[:k] + (moved,) + reference[k + 1:])
        assert swaps > 0


class TestNonFiniteBrackets:
    """Every bracket reader returns a finite value or raises ValueError
    naming the cause; a NaN never comes back."""

    rng = stream(31, "test_points.non_finite")
    CFG = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    READERS = {
        "g_fano": lambda cfg: points.g_fano(cfg, FANO_TRIPLE_FAMILY),
        "g_pascal": lambda cfg: points.g_pascal(cfg, PASCAL_FAMILY),
        "bracket_value_matrix":
            lambda cfg: points.bracket_value_matrix([TestNonFiniteBrackets.CFG, cfg]),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_configuration_is_named(self, reader, entry):
        cfg = self.CFG.copy()
        cfg[4, 1] = entry
        with pytest.raises(ValueError, match="non-finite entry"):
            self.READERS[reader](cfg)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("scale", [1e60, 1e110])
    def test_overflowing_brackets_are_named(self, reader, scale):
        # at 1e60 the brackets are finite and their products overflow; at
        # 1e110 the brackets themselves do
        with pytest.raises(ValueError, match="overflow"):
            self.READERS[reader](self.CFG * scale)

    @pytest.mark.parametrize("reader", READERS)
    def test_a_large_finite_configuration_still_has_a_value(self, reader):
        assert np.isfinite(self.READERS[reader](self.CFG * 1e10)).all()

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_bracket_of_a_non_finite_configuration_is_named(self, entry):
        # it gave nan+nanj; the entry need not be in one of the three rows
        cfg = self.CFG.copy()
        cfg[4, 1] = entry
        for triple in ((5, 1, 2), (1, 2, 3)):
            with pytest.raises(ValueError, match="non-finite entry"):
                points.bracket(cfg, *triple)

    def test_overflowing_bracket_is_named(self):
        # at 1e110 the determinant passes the double range: it gave inf+nanj
        with pytest.raises(ValueError, match="overflow"):
            points.bracket(self.CFG * 1e110, 1, 2, 3)
        assert np.isfinite(points.bracket(self.CFG * 1e60, 1, 2, 3))

    def test_bracket_is_the_determinant_of_the_rows_in_the_callers_order(self):
        # a bracket read off the sorted triple and its sign would make
        # (ijk) + (jik) vanish identically, and bracket_antisymmetry could
        # not fail
        for triple in permutations((2, 5, 7)):
            want = complex(np.linalg.det(self.CFG[[i - 1 for i in triple]]))
            assert points.bracket(self.CFG, *triple) == want


def _numpy_scalar_tableau(n, xs) -> complex:
    """tableau_invariant as it was written before, on the numpy complex
    scalars of an array."""
    out = 1.0 + 0.0j
    for i, j in zip(n.top, n.bottom):
        out *= xs[i - 1] - xs[j - 1]
    return complex(out)


def _numpy_scalar_segre(t: np.ndarray) -> tuple[complex, float]:
    """segre_eval and segre_scale as they were written before, on the numpy
    complex scalars of an array."""
    t0, t1, t2, t3, t4 = t
    value = complex(t1 * t2 * t4 - t3 * (t0 * t4 + t1 * t2 - t0 * t1 - t0 * t2 + t0 * t0))
    mons = (t1 * t2 * t4, t3 * t0 * t4, t3 * t1 * t2, t3 * t0 * t1, t3 * t0 * t2, t3 * t0 * t0)
    return value, max(abs(m) for m in mons)


class TestPythonComplexProducts:
    """tableau_invariant, segre_eval and segre_scale read an array's entries
    as Python complex numbers, whose products are numpy's complex128 scalar
    products bit for bit."""

    def test_equal_to_numpy_scalar_products_bit_for_bit(self):
        rng = stream(5, "test_points.python_complex")
        xs = rng.uniform(-2, 2, (400, 6)) + 1j * rng.uniform(-2, 2, (400, 6))
        for x in xs:
            t = points.standard_invariants(x)
            assert t.tolist() == [_numpy_scalar_tableau(n, x) for n in points.STANDARD_TABLEAUX]
            assert (points.segre_eval(t), points.segre_scale(t)) == _numpy_scalar_segre(t)

    def test_a_list_of_numpy_scalars_gives_the_same_value(self):
        x = random_config1()
        t = points.standard_invariants(x)
        assert points.standard_invariants(list(x)).tolist() == t.tolist()
        assert points.segre_eval(list(t)) == points.segre_eval(t)
        assert points.segre_scale(list(t)) == points.segre_scale(t)


class TestNonFiniteBinaryInvariants:
    """tableau_invariant, standard_invariants, segre_eval and segre_scale
    return finite values or raise ValueError, as the bracket readers do; on
    Python complex numbers an overflow or a NaN passes without a warning."""

    X = random_config1()

    def test_overflowing_invariants_are_named(self):
        # at 1e103 the tableau products pass the double range: they gave -inf
        with pytest.raises(ValueError, match="tableau invariant is not finite"):
            points.standard_invariants(self.X * 1e103)
        with pytest.raises(ValueError, match="tableau invariant is not finite"):
            points.tableau_invariant(points.STANDARD_TABLEAUX[0], self.X * 1e103)

    def test_overflowing_segre_products_are_named(self):
        # the invariants are finite at 1e60, the cubic's products are not:
        # segre_eval gave nan+nanj
        t = points.standard_invariants(self.X * 1e60)
        assert np.isfinite(t).all()
        with pytest.raises(ValueError, match="Segre cubic is not finite"):
            points.segre_eval(t)
        with pytest.raises(ValueError, match="Segre monomial is not finite"):
            points.segre_scale(t)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(np.nan, 0)])
    def test_non_finite_point_is_named(self, entry):
        x = self.X.copy()
        x[2] = entry
        with pytest.raises(ValueError, match="tableau invariant is not finite"):
            points.standard_invariants(x)
        t = points.standard_invariants(self.X).tolist()
        t[3] = entry
        with pytest.raises(ValueError, match="Segre cubic is not finite"):
            points.segre_eval(t)
        with pytest.raises(ValueError, match="Segre monomial is not finite"):
            points.segre_scale(t)

    def test_a_large_finite_configuration_still_has_a_value(self):
        t = points.standard_invariants(self.X * 1e30)
        assert math.isfinite(points.segre_scale(t))
        assert abs(points.segre_eval(t)) / points.segre_scale(t) < 1e-10
