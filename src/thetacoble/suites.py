"""Named verification suites with machine-readable reports.

Each suite runs a family of checks with a seeded PRNG stream per check and
returns a Report whose JSON serialization is bit-identical for identical
(name, seed, samples, tol) apart from the wall time field, provided the BLAS
thread count is fixed.  The singular-value gaps `w_sv_gap` (wrank) and
`bracket_sv_gap` (points) divide by the 16th singular value of a rank-15
matrix, which is round-off; its last digits follow the BLAS summation order,
which changes with the thread count.  Their pass/fail does not: the gaps sit
many decades above the 1e6 threshold.

Every sampled check runs through one driver, `_sampled`, which draws all its
samples first and keeps the worst of each residual (`_worst`): a NaN at any
sample fails the record.  A sign that does not depend on tau is read at the
reference tau of `modular` by `_reference_sign`; a NaN or a tie there makes it
NaN, which fails every record that reads it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import characteristics as chars
from . import gopel as gp
from . import modular, points, quartics, symplectic
from .characteristics import (
    ARONHOLD_EXAMPLE,
    FANO_TRIPLE_FAMILY,
    PASCAL_FAMILY,
    Characteristic,
    CharacteristicSet,
    admissible_evens,
    azygetic_odd_sets,
    enumerate_aronhold_sets,
    enumerate_characteristics,
    is_fundamental_system,
    parity_table,
    special_fundamental_completion,
    special_fundamental_completions,
    triple_sign,
    triple_signs,
)
from .sampling import random_tau, random_z, stream
from .theta import PhasePoint, _abs, even_theta_constants, jacobian_det, theta


@dataclass
class CheckRecord:
    name: str
    value: float
    threshold: float
    passed: bool
    error: str = ""  # type and message of the exception that stopped the suite

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class Report:
    suite: str
    seed: int
    samples: int
    tol: float
    records: list[CheckRecord] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "tol": self.tol,
            "records": [r.to_json() for r in sorted(self.records, key=lambda r: r.name)],
            "pass": bool(self.passed),
            "wall_time": self.wall_time,
        }


def _count(name: str, got: int, expected: int) -> CheckRecord:
    return CheckRecord(name, float(got), float(expected), got == expected)


def _residual(name: str, value: float, tol: float) -> CheckRecord:
    return CheckRecord(name, float(value), float(tol), value < tol)


def _flag(name: str, ok: bool) -> CheckRecord:
    return CheckRecord(name, 1.0 if ok else 0.0, 1.0, ok)


def _worst(residuals) -> float:
    """The largest of residuals, 0 for none.  A NaN anywhere makes it NaN,
    which fails any threshold (Python's max drops a NaN that follows a
    number)."""
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def _sampled(seed: int, stream_name: str, n: int, draw, evaluate) -> list[float]:
    """The worst of each residual position over n samples.  The samples are
    drawn first, each by draw(rng) in turn from stream(seed, stream_name);
    evaluate(*sample) then gives the residuals of one sample, in a fixed
    order."""
    rng = stream(seed, stream_name)
    rows = [evaluate(*sample) for sample in [draw(rng) for _ in range(n)]]
    return [_worst(column) for column in zip(*rows)]


def _reference_sign(ratio: complex) -> float:
    """The nearer of +-1 to ratio, a quotient at the reference tau that is +-1
    at every tau; NaN when ratio is NaN or equally near to both."""
    plus, minus = _abs(ratio - 1), _abs(ratio + 1)
    return 1.0 if plus < minus else -1.0 if minus < plus else math.nan


def _relative(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| relative to the larger side."""
    return _abs(lhs - rhs) / max(_abs(lhs), _abs(rhs))


def _gopel_counts(systems) -> list[CheckRecord]:
    """The genus-3 Goepel systems: 135, of which 30 Fano and 105 Pascal."""
    kinds = [s.kind for s in systems]
    return [_count("gopel135", len(systems), 135), _count("fano30", kinds.count("fano"), 30),
            _count("pascal105", kinds.count("pascal"), 105)]


# ---------------------------------------------------------------------------
# combinatorics


def suite_combinatorics(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    recs = []
    recs.append(_count("even36", len(enumerate_characteristics(3, "even")), 36))
    recs.append(_count("odd28", len(enumerate_characteristics(3, "odd")), 28))
    recs.append(_count("even10_g2", len(enumerate_characteristics(2, "even")), 10))
    recs.append(_count("odd6_g2", len(enumerate_characteristics(2, "odd")), 6))
    recs.append(_count("even3_g1", len(enumerate_characteristics(1, "even")), 3))
    recs.append(_count("odd1_g1", len(enumerate_characteristics(1, "odd")), 1))
    recs.append(_count("aronhold288", len(enumerate_aronhold_sets()), 288))

    recs += _gopel_counts(gp.enumerate_gopel(3))
    recs.append(_count("gopel15_g2", len(gp.enumerate_gopel(2)), 15))

    zero = Characteristic(3, 0)
    recs.append(
        _flag(
            "aronhold_example_fundamental",
            all(m.is_odd for m in ARONHOLD_EXAMPLE)
            and is_fundamental_system(
                CharacteristicSet([zero] + list(ARONHOLD_EXAMPLE))
            ),
        )
    )

    # Every azygetic odd triple has a special fundamental completion, which
    # checks itself (6 admissible evens, one of them the triple sum, the
    # other 5 completing a fundamental system) and raises on a failure.
    triples = azygetic_odd_sets(3, 3)  # (2016, 3)
    completions = special_fundamental_completions(3, triples)
    recs.append(_flag("azygetic_triple_completion", completions.shape == (len(triples), 5)))
    recs.append(_count("azygetic_odd_triple_count", len(triples), 2016))

    # Within the fixed fundamental system {0} u (example): any two
    # azygetic odd triples sharing exactly m_i have completions meeting in
    # {m_i, n0}.  The completion depends only on the unordered triple.
    ms = list(ARONHOLD_EXAMPLE)
    keys = list(combinations(range(7), 3))
    rows = np.array([[ms[t].idx for t in key] for key in keys])
    sfs = {key: set(row + comp) for key, row, comp
           in zip(keys, rows.tolist(), special_fundamental_completions(3, rows).tolist())}
    meets = [(a, b, set(a) & set(b)) for a, b in combinations(sfs, 2)]  # 595 pairs
    intersections_ok = all(sfs[a] & sfs[b] == {ms[i].idx for i in common} | {0}
                           for a, b, common in meets if len(common) == 1)  # 315 of them
    recs.append(_flag("fixed_system_intersections", intersections_ok))

    # Aronhold classification partition 1 + 7 + 21 + 35 (raises internally on failure).
    classification = chars.aronhold_classify(ARONHOLD_EXAMPLE, zero)
    tags = [tag for tag, _ in classification.values()]
    recs.append(_count("aronhold_partition_n0", tags.count("n0"), 1))
    recs.append(_count("aronhold_partition_m", tags.count("m"), 7))
    recs.append(_count("aronhold_partition_odd_sums", tags.count("odd_sum"), 21))
    recs.append(_count("aronhold_partition_even_sums", tags.count("even_sum"), 35))

    # genus-2: unique even n0 with azygetic quadruple, n0 = m1+m2+m3.
    triples2 = azygetic_odd_sets(2, 3)
    evens2, admissible2 = admissible_evens(2, triples2)
    is_sum2 = evens2 == np.bitwise_xor.reduce(triples2, axis=1)[:, None]
    recs.append(_flag("genus2_unique_even_completion", bool((admissible2 == is_sum2).all())))

    # genus-2: every odd pair (all 15 are azygetic, having no triple) has a
    # unique even 4-element completion.
    completions2 = special_fundamental_completions(2, azygetic_odd_sets(2, 2))
    recs.append(_flag("genus2_pair_completion", completions2.shape == (15, 4)
                      and bool((parity_table(2)[completions2] == 1).all())))

    # A fixed worked example of a special fundamental completion.
    comp = special_fundamental_completion(CharacteristicSet(ms[:3]))
    expected = CharacteristicSet.parse(
        3, ["000;000", "111;000", "101;111", "110;001", "000;100"]
    )
    recs.append(_flag("worked_completion_example", comp == expected))
    return recs


# ---------------------------------------------------------------------------
# group


def _orbit(start: frozenset) -> set[frozenset]:
    """Orbit of a set of genus-3 characteristic indices under the affine
    action of Sp(6, F2), closed over the action tables of its generators.
    No orbit record needs a proof that they generate Sp(6, F2): each orbit
    fills a set that the group keeps (the 36 evens, the 288 Aronhold sets,
    the 135 even cosets), and the orbit of a subgroup that fills such a set
    is the orbit of the group."""
    tables = symplectic.action_tables(3, [gm.packed() for gm in symplectic.group_generators(3)])
    return chars.orbit(start, lambda s: map(frozenset, tables[:, list(s)].tolist()))


def suite_group(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    # the group is indexed by its extension counts, never listed
    orders = {g: math.prod(symplectic.extension_counts(g)) for g in symplectic.SP_ORDERS}
    recs = [_count(f"order_g{g}", orders[g], order) for g, order in symplectic.SP_ORDERS.items()]

    rng = stream(seed, "group.closure")
    # row t is the pair (a_t, b_t), drawn in turn
    a, b = symplectic.unpack(3, symplectic.elements(3, rng.integers(orders[3], size=(200, 2))).T)
    products = symplectic.multiply(a, b)
    inverses = symplectic.invert(a)
    # membership alone would pass any inverse that stays in the group
    ok = bool(symplectic.is_symplectic(products).all() and symplectic.is_symplectic(inverses).all()
              and (symplectic.multiply(a, inverses) == np.eye(6, dtype=np.uint8)).all())
    recs.append(_flag("closure_and_inverse_sampled", ok))

    reps = np.array([r.packed() for r in symplectic.parabolic_cosets(3)], dtype=np.uint64)
    recs.append(_count("parabolic_index", len(reps), 135))
    by_image = dict(zip(symplectic.lagrangian_image(3, reps), reps))
    recs.append(_count("parabolic_distinct_images", len(by_image), 135))
    rng = stream(seed, "group.factorization")
    gmm = symplectic.elements(3, rng.integers(orders[3], size=100))
    coset_rep = np.array([by_image[im] for im in symplectic.lagrangian_image(3, gmm)])
    # rep^{-1} gamma lies in the parabolic subgroup {C = 0}
    quotient = symplectic.multiply(symplectic.invert(symplectic.unpack(3, coset_rep)),
                                   symplectic.unpack(3, gmm))
    ok = bool(symplectic.has_zero_c_block(quotient).all())
    recs.append(_flag("parabolic_factorization_sampled", ok))

    # parity and triple-sign invariance, exhaustive over Sp(4, F2)
    tables = symplectic.action_tables(2, symplectic.elements(2, np.arange(orders[2])))  # (720, 16)
    parity = parity_table(2)
    a, b, c = np.array(list(combinations(range(16), 3))).T
    ta, tb, tc = tables[:, a], tables[:, b], tables[:, c]
    same = triple_signs(2, ta, tb, tc) == triple_signs(2, a, b, c)
    ok = bool((parity[tables] == parity).all() and same.all())
    recs.append(_flag("invariance_exhaustive_g2", ok))

    # randomized invariance for g=3: ~1e5 sampled (gamma, triple) pairs
    rng = stream(seed, "group.invariance3")
    n_gamma, n_triple = 200, 500
    picks, idxs = [], []
    for _ in range(n_gamma):
        picks.append(int(rng.integers(orders[3])))
        idxs.append(rng.integers(0, 64, size=(n_triple, 4)))
    tables = symplectic.action_tables(3, symplectic.elements(3, picks))  # (200, 64)
    a, b, c, d = np.moveaxis(np.array(idxs), 2, 0)  # each (200, 500)
    ta, tb, tc, td = (np.take_along_axis(tables, v, axis=1) for v in (a, b, c, d))
    parity = parity_table(3)
    same = triple_signs(3, ta, tb, tc) == triple_signs(3, a, b, c)
    ok = bool((parity[ta] == parity[a]).all() and same.all())
    # affine action preserves even-length linear relations
    lin_ok = bool((((a ^ b ^ c ^ d) == 0) == ((ta ^ tb ^ tc ^ td) == 0)).all())
    recs.append(_flag("invariance_sampled_g3", ok))
    recs.append(_flag("even_relations_preserved_g3", lin_ok))

    # orbit of the zero characteristic = all 36 even characteristics
    orbit = _orbit(frozenset({0}))
    recs.append(_count("zero_orbit_even36", len(orbit), 36))
    recs.append(
        _flag("zero_orbit_all_even", bool((parity_table(3)[[i for (i,) in orbit]] == 1).all()))
    )

    # transitivity on the 288 unordered Aronhold sets
    recs.append(_count("aronhold_orbit", len(_orbit(ARONHOLD_EXAMPLE.idx_set())), 288))

    j_ok = bool(symplectic.is_symplectic(symplectic.symplectic_j(3)))
    recs.append(_flag("j_is_symplectic", j_ok))
    return recs


# ---------------------------------------------------------------------------
# gopel


def suite_gopel(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    systems = gp.enumerate_gopel(3)
    recs = _gopel_counts(systems)

    ex1 = gp.fano_from_aronhold(ARONHOLD_EXAMPLE, FANO_TRIPLE_FAMILY)
    expected_ex1 = CharacteristicSet.parse(
        3,
        ["000;000", "100;010", "001;010", "101;000", "001;000", "101;010", "000;010", "100;000"],
    )
    recs.append(_flag("fano_example_matches", ex1.idx_set() == expected_ex1.idx_set()))
    recs.append(_flag("fano_example_enumerated", any(s.idx_set() == ex1.idx_set() for s in systems)))

    swapped = tuple(
        tuple(7 if i == 6 else 6 if i == 7 else i for i in t) for t in FANO_TRIPLE_FAMILY
    )
    recs.append(_flag("fano_swapped_family", gp.fano_from_aronhold(ARONHOLD_EXAMPLE, swapped).kind == "fano"))

    ex2 = gp.pascal_from_aronhold(ARONHOLD_EXAMPLE, PASCAL_FAMILY)
    expected_ex2 = CharacteristicSet.parse(
        3,
        ["000;000", "100;010", "001;010", "101;000", "111;111", "011;101", "110;101", "010;111"],
    )
    recs.append(_flag("pascal_example_matches", ex2.idx_set() == expected_ex2.idx_set()))
    recs.append(_count("pascal_example_even_count", ex2.even_count, 4))

    # no Goepel system contains an azygetic triple
    members = np.array([sorted(s.idx_set()) for s in systems])  # (135, 8)
    a, b, c = (members[:, t] for t in np.array(list(combinations(range(8), 3))).T)
    signs = triple_signs(3, a, b, c)
    recs.append(_flag("no_azygetic_triples", bool((signs == 1).all())))

    # unique Fano-pair decomposition for all 105 Pascal configurations
    decs = [gp.pascal_decomposition(s) for s in systems if s.kind == "pascal"]
    recs.append(_count("pascal_decompositions", len(decs), 105))
    recs.append(_flag("decomposition_quartets_even", all(
        len(d.s1) == 4 and 0 in d.s1 and {a ^ b for a in d.s1 for b in d.s1} == d.s1
        and (parity_table(3)[list(d.s1 | d.s2 | d.s3)] == 1).all() for d in decs)))

    basis = gp.fano_basis()
    recs.append(_count("fano_basis_size", len(basis), 15))
    recs.append(_flag("fano_basis_f1_top_zero", all(m.mp_int == 0 for m in basis[0].members)))
    recs.append(
        _flag(
            "fano_basis_distinct_enumerated",
            all(any(s.idx_set() == f.idx_set() for s in systems) for f in basis),
        )
    )
    recs.append(_flag("fano_basis_contains_zero", all(Characteristic(3, 0) in f for f in basis)))

    # orbit structure of the affine action on the 135 even cosets
    cosets = {gp.even_coset(s) for s in systems}
    orbit = _orbit(gp.even_coset(systems[0]))
    recs.append(_flag("even_cosets_closed_under_action", orbit <= cosets))
    recs.append(_count("even_coset_orbit_size", len(orbit), 135))
    return recs


# ---------------------------------------------------------------------------
# jacobi derivative identities + dual-route H(F)


def _jacobi_sides(tau, odds) -> tuple[complex, complex]:
    """The two sides of Jacobi's derivative formula at tau: D(m_1 ... m_g)
    and -pi^g times the theta constants of the special fundamental
    completion of the odd m_i.  They agree up to a sign that depends on the
    order of the m_i.  The determinant comes first, so that the pass at
    tau sums its gradient columns once and the constants read that table."""
    lhs = jacobian_det(tau, odds)
    z0 = PhasePoint.zero(tau.g)
    completion = special_fundamental_completion(CharacteristicSet(odds))
    return lhs, -math.pi**tau.g * math.prod(theta(tau, z0, n) for n in completion)


def _jacobi_sign(ref, odds) -> float:
    """The sign s with D = s * rhs, read at the reference tau ref."""
    lhs, rhs = _jacobi_sides(ref, odds)
    return _reference_sign(lhs / rhs)


def _jacobi_residual(tau, odds, sign: float) -> float:
    """|D - sign * rhs| relative to the larger side, at tau."""
    lhs, rhs = _jacobi_sides(tau, odds)
    return _relative(lhs, sign * rhs)


def suite_jacobi(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 20
    tol = tol or 1e-8

    # g = 1: the single odd characteristic, with sign +1
    odd1 = [Characteristic.from_string("1;1")]
    worst = _sampled(seed, "jacobi.g1", samples, lambda rng: (random_tau(rng, 1),),
                     lambda tau: (_jacobi_residual(tau, odd1, 1.0),))

    # g = 2: all 15 odd pairs.  The determinant sign depends on the ordering
    # of the odd pair, so the per-pair sign is read at the reference tau.
    pairs = list(combinations(enumerate_characteristics(2, "odd"), 2))
    signs2 = [_jacobi_sign(modular.reference_tau2(), pair) for pair in pairs]
    worst += _sampled(seed, "jacobi.g2", samples,
                      lambda rng: (random_tau(rng, 2), int(rng.integers(15))),
                      lambda tau, k: (_jacobi_residual(tau, pairs[k], signs2[k]),))

    # g = 3: random azygetic odd triples; the sign of each ordered triple is
    # read at the reference tau too.
    odds3 = list(enumerate_characteristics(3, "odd"))

    def draw3(rng):
        while True:
            triple = [odds3[int(i)] for i in rng.choice(28, size=3, replace=False)]
            if triple_sign(*triple) == -1:
                return triple, random_tau(rng, 3)

    def residual3(triple, tau):
        return (_jacobi_residual(tau, triple, _jacobi_sign(modular.reference_tau3(), triple)),)

    worst += _sampled(seed, "jacobi.g3", samples, draw3, residual3)

    # dual route: Jacobian-determinant quotient vs chi_18 product, for the
    # Fano systems of the first 5 families built from the example Aronhold
    # set; distinct families give distinct systems, as its 35 triple sums
    # differ.  Each quotient is a sign, read at the reference tau.
    systems = [(fam, gp.fano_from_aronhold(ARONHOLD_EXAMPLE, fam))
               for fam in points.fano_plane_families()[:5]]

    def dual_ratios(tau):
        return [modular.h_via_jacobian(tau, ARONHOLD_EXAMPLE, fam)
                / (modular.PI21 * modular.h_fano(tau, sys)) for fam, sys in systems]

    signs = [_reference_sign(r) for r in dual_ratios(modular.reference_tau3())]
    worst += _sampled(seed, "jacobi.dualroute", 10, lambda rng: (random_tau(rng, 3),),
                      lambda tau: [_abs(r - s) for r, s in zip(dual_ratios(tau), signs)])
    names = [f"jacobi_g{g}" for g in (1, 2, 3)] + [f"dual_route_f{k}" for k in range(5)]
    return [_residual(name, value, tol) for name, value in zip(names, worst)]


# ---------------------------------------------------------------------------
# riemann addition relations


def suite_riemann(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 10
    tol = tol or 1e-8
    rng = stream(seed, "riemann.taus")
    taus = [random_tau(rng, 3) for _ in range(samples)]
    # a NaN in any sign pair of a row makes its minimum NaN, which is not < tol
    stable = int((modular.riemann_residuals(taus).min(axis=1) < tol).sum())
    return [_count("riemann_stable_pascals", stable, 105)]


# ---------------------------------------------------------------------------
# W rank

# The rank-15 certificate reads the 16th singular value, so its matrix needs
# at least this many rows (one per sample).
RANK_ROWS = 16
RANK_SUITES = ("wrank", "points")


def _rank_records(rank_name: str, gap_name: str, matrix: np.ndarray) -> list[CheckRecord]:
    """Rank 15 of matrix: its numerical rank at 1e-8 sigma_1, and the gap
    sigma_15 / sigma_16 against 1e6."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    rank = int((sv > 1e-8 * sv[0]).sum())
    gap = sv[14] / sv[15] if sv[15] > 0 else math.inf
    return [_count(rank_name, rank, 15), CheckRecord(gap_name, float(gap), 1e6, gap >= 1e6)]


def suite_wrank(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 40
    rng = stream(seed, "wrank.taus")
    taus = [random_tau(rng, 3) for _ in range(samples)]
    return _rank_records("w_rank", "w_sv_gap", modular.goepel_form_matrix(taus))


# ---------------------------------------------------------------------------
# coble quartic


def suite_coble(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 20
    tol = tol or 1e-7

    def residuals(tau, z):
        value, scale = quartics.coble_eval(tau, z)
        grads, scales = quartics.coble_gradient(tau, z)
        value_neg, _ = quartics.coble_eval(tau, PhasePoint(3, -z.z))
        return (_abs(value) / scale, _worst(_abs(v) / s for v, s in zip(grads, scales)),
                _abs(value_neg - value) / scale)

    worst = _sampled(seed, "coble.samples", samples,
                     lambda rng: (random_tau(rng, 3), random_z(rng, 3)), residuals)
    recs = list(map(_residual, ("coble_vanishing", "coble_gradient_vanishing",
                                "coble_z_symmetry"), worst, (tol, tol, 1e-10)))

    # negative control: generic x not of theta form is not on the quartic
    tau = random_tau(stream(seed, "coble.control"), 3)
    a = quartics.coble_coefficients(modular.s_vector(tau))
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    value, scale = quartics.coble_at(a, x)
    recs.append(_flag("coble_nonvanishing_generic", _abs(value) / scale > 0.5))
    return recs


# ---------------------------------------------------------------------------
# modularity


def suite_modularity(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 10
    tol = tol or 1e-6
    srng = stream(seed, "modularity.translations")
    upper = [srng.integers(0, 2, size=(3, 3)) for _ in range(5)]
    gens = [("J",)] + [("S", np.triu(s) + np.triu(s, 1).T) for s in upper]

    def draw(rng):
        return random_tau(rng, 3), random_z(rng, 3)

    worst = _sampled(seed, "modularity.samples", samples, draw,
                     lambda tau, z: [quartics.jacobi_form_residual(gen, tau, z) for gen in gens])
    names = ["inversion_residual"] + [f"translation_residual_{k}" for k in range(5)]
    recs = [_residual(name, value, tol) for name, value in zip(names, worst)]

    tau, z = draw(stream(seed, "modularity.samples"))  # the first pair
    zero = quartics.jacobi_form_residual(("S", np.zeros((3, 3))), tau, z)
    return recs + [_flag("translation_zero_exact", zero == 0.0)]


# ---------------------------------------------------------------------------
# genus-2 Kummer


def _triple_rows(tau) -> list[tuple[complex, complex, complex]]:
    """(p, q, pi^6 chi_5 theta_n^2) for each even genus-2 n, in enumeration
    order, p and q from modular.triple_products.  The determinants come
    first, so that the pass at tau sums its gradient columns once and the
    constants read that table."""
    pairs = modular.triple_products(tau)
    consts, chi = even_theta_constants(tau), math.pi**6 * modular.chi(tau)
    evens = enumerate_characteristics(2, "even")
    return [(p, q, chi * consts[n.idx] ** 2) for (p, q), n in zip(pairs, evens)]


def suite_kummer2(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 20
    tol = tol or 1e-8

    def residuals(tau, z):
        value, scale = quartics.kummer2_eval(tau, z)
        value_neg, _ = quartics.kummer2_eval(tau, PhasePoint(2, -z.z))
        return _abs(value) / scale, _abs(value_neg - value) / scale

    worst = _sampled(seed, "kummer2.samples", samples,
                     lambda rng: (random_tau(rng, 2), random_z(rng, 2)), residuals)
    recs = list(map(_residual, ("kummer2_vanishing", "kummer2_z_symmetry"), worst, (tol, 1e-10)))

    # triple-product identity |p| = |t| = pi^6 |chi_5 theta_n^2| for all 10
    # even n, p and q the products over the two odd triples summing to n;
    # p / q and p q / t^2 are signs, read at the reference tau
    signs = [(_reference_sign(p / q), _reference_sign(p * q / t**2))
             for p, q, t in _triple_rows(modular.reference_tau2())]

    def residuals3(tau):
        rows = [(abs(_abs(p) / _abs(t) - 1), _abs(p / q - s), _abs(p * q / t**2 - s2))
                for (p, q, t), (s, s2) in zip(_triple_rows(tau), signs)]
        return [_worst(column) for column in zip(*rows)]

    magnitude, complement, phi_psi = _sampled(seed, "kummer2.triples", min(samples, 10),
                                              lambda rng: (random_tau(rng, 2),), residuals3)
    recs.append(_residual("triple_product_magnitude", magnitude, tol))
    recs.append(_flag("triple_product_complement_sign", complement <= tol))
    recs.append(_flag("phi_psi_star_identity", phi_psi <= tol))
    return recs


# ---------------------------------------------------------------------------
# segre / igusa / points


def _random_config1(rng) -> np.ndarray:
    while True:
        x = rng.uniform(-2, 2, 6) + 1j * rng.uniform(-2, 2, 6)
        if min(abs(a - b) for a, b in combinations(x, 2)) > 0.05:
            return x


def suite_segre(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 50
    tol = tol or 1e-10

    def residual(x):
        t = points.standard_invariants(x)
        return (_abs(points.segre_eval(t)) / points.segre_scale(t),)

    (segre,) = _sampled(seed, "segre.configs", samples, lambda rng: (_random_config1(rng),),
                        residual)

    # PGL invariance of the degree-1 binary invariants
    def moebius(rng):
        x = _random_config1(rng)
        return (x, *(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)))

    def invariance(x, a, b, c, d):
        det = a * d - b * c
        if abs(det) < 0.1:
            return (0.0,)  # a near-singular map is skipped
        gx = (a * x + b) / (c * x + d)
        return (_worst(_relative(points.tableau_invariant(t, gx),
                                 points.tableau_invariant(t, x) / np.prod(c * x + d) * det**3)
                       for t in points.STANDARD_TABLEAUX),)

    (pgl,) = _sampled(seed, "segre.moebius", 10, moebius, invariance)
    return [_residual("segre_identity", segre, tol), _residual("pgl_invariance", pgl, 1e-9)]


def suite_igusa(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    """One record, igusa_search_succeeds, that passes only when the search
    succeeds on 3 sample tau, the found forms satisfy the quartic below tol at
    10 holdout tau, and swapping slots X0 and X3 breaks it on the samples."""
    tol = tol or 1e-8
    rng = stream(seed, "igusa.search")
    search_taus = [random_tau(rng, 2) for _ in range(3)]
    try:
        forms = points.igusa_tuple_search(search_taus, tol)
    except RuntimeError:
        return [_flag("igusa_search_succeeds", False)]

    (holdout,) = _sampled(
        seed, "igusa.holdout", 10, lambda rng: (random_tau(rng, 2),),
        lambda tau: (points.igusa_residual(forms @ points.theta4_constants(tau)),))

    # negative control: swapping two slots of the found tuple breaks the
    # relation on the search samples
    wrong = forms[[3, 1, 2, 0, 4]]
    control = _worst(
        points.igusa_residual(wrong @ points.theta4_constants(tau)) for tau in search_taus
    )
    return [_flag("igusa_search_succeeds", holdout < tol and control > tol)]


def _random_config2(rng) -> np.ndarray:
    return rng.uniform(-1, 1, (7, 3)) + 1j * rng.uniform(-1, 1, (7, 3))


def suite_points(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 60
    rng = stream(seed, "points.configs")
    recs = []

    cfg = _random_config2(rng)
    recs.append(
        _flag(
            "bracket_antisymmetry",
            _abs(points.bracket(cfg, 1, 2, 3) + points.bracket(cfg, 2, 1, 3)) < 1e-12,
        )
    )
    collinear = cfg.copy()
    collinear[2] = 0.5 * collinear[0] + 0.25 * collinear[1]
    recs.append(
        _flag(
            "gfano_vanishes_collinear",
            _abs(points.g_fano(collinear, FANO_TRIPLE_FAMILY)) < 1e-10,
        )
    )
    recs.append(
        _flag("gfano_generic_nonzero", _abs(points.g_fano(cfg, FANO_TRIPLE_FAMILY)) > 1e-8)
    )

    # SL3 covariance: each bracket scales by det(A), G_F by det(A)^7
    a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    lhs = points.g_fano(cfg @ a.T, FANO_TRIPLE_FAMILY)
    rhs = np.linalg.det(a) ** 7 * points.g_fano(cfg, FANO_TRIPLE_FAMILY)
    recs.append(_residual("sl3_covariance", _relative(lhs, rhs), 1e-9))

    recs.append(_count("fano_families", len(points.fano_plane_families()), 30))
    recs.append(_count("pascal_families", len(points.pascal_families()), 105))

    cfgs = [_random_config2(rng) for _ in range(samples)]
    matrix = points.bracket_value_matrix(cfgs)
    return recs + _rank_records("bracket_span_rank", "bracket_sv_gap", matrix)


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "combinatorics": suite_combinatorics,
    "group": suite_group,
    "gopel": suite_gopel,
    "jacobi": suite_jacobi,
    "riemann": suite_riemann,
    "wrank": suite_wrank,
    "coble": suite_coble,
    "modularity": suite_modularity,
    "kummer2": suite_kummer2,
    "segre": suite_segre,
    "igusa": suite_igusa,
    "points": suite_points,
}


def _suite_records(name: str, seed: int, samples: int, tol: float) -> list[CheckRecord]:
    """The records of one suite.  An exception inside the suite becomes one
    failing record <name>_error carrying its type and message."""
    try:
        return SUITES[name](seed, samples, tol)
    except Exception as exc:  # noqa: BLE001 - a fault in any check is a FAIL, not a traceback
        return [CheckRecord(f"{name}_error", 0.0, 1.0, False, f"{type(exc).__name__}: {exc}")]


def run_suite(name: str, seed: int = 1, samples: int = 0, tol: float = 0.0) -> Report:
    """Run a named suite (or "all") and assemble its report.  samples and tol
    of 0 mean the suite defaults.  A suite that raises gives one failing
    <suite>_error record, and the other suites of "all" still run."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} + ['all']")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"need a non-negative integer seed, got {seed!r}")
    if (isinstance(samples, bool) or not isinstance(samples, int) or isinstance(tol, bool)
            or not isinstance(tol, (int, float)) or not (samples >= 0 and 0 <= tol < math.inf)):
        raise ValueError(f"need samples >= 0 and 0 <= tol < inf, got {samples!r} and {tol!r}")
    if name in RANK_SUITES + ("all",) and 0 < samples < RANK_ROWS:
        raise ValueError(f"need samples >= {RANK_ROWS} (or 0) for the rank checks of "
                         f"{' and '.join(RANK_SUITES)}, got {samples}")
    start = time.monotonic()
    records = [r for sub in (SUITES if name == "all" else [name])
               for r in _suite_records(sub, seed, samples, tol)]
    report = Report(name, seed, samples, tol, records)
    report.wall_time = time.monotonic() - start
    return report
