"""Named verification suites with machine-readable reports.

Each suite runs a family of checks with a seeded PRNG stream per check and
returns a Report whose JSON serialization is bit-identical for identical
(name, seed, samples, tol) apart from the wall time field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
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
    _parity_idx,
    enumerate_aronhold_sets,
    enumerate_characteristics,
    is_fundamental_system,
    special_fundamental_completion,
    triple_sign,
)
from .sampling import random_tau, random_z, stream
from .theta import PhasePoint, jacobian_det, theta


@dataclass
class CheckRecord:
    name: str
    value: float
    threshold: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }


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


# ---------------------------------------------------------------------------
# combinatorics


def _azygetic_odd_triples_g3():
    odds = [m.idx for m in enumerate_characteristics(3, "odd")]
    for a, b, c in combinations(odds, 3):
        if _parity_idx(3, a ^ b ^ c) == 1:  # three odds: azygetic iff sum even
            yield a, b, c


def suite_combinatorics(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    recs = []
    recs.append(_count("even36", len(enumerate_characteristics(3, "even")), 36))
    recs.append(_count("odd28", len(enumerate_characteristics(3, "odd")), 28))
    recs.append(_count("even10_g2", len(enumerate_characteristics(2, "even")), 10))
    recs.append(_count("odd6_g2", len(enumerate_characteristics(2, "odd")), 6))
    recs.append(_count("even3_g1", len(enumerate_characteristics(1, "even")), 3))
    recs.append(_count("odd1_g1", len(enumerate_characteristics(1, "odd")), 1))
    recs.append(_count("aronhold288", len(enumerate_aronhold_sets()), 288))

    systems = gp.enumerate_gopel(3)
    kinds = [s.kind for s in systems]
    recs.append(_count("gopel135", len(systems), 135))
    recs.append(_count("fano30", kinds.count("fano"), 30))
    recs.append(_count("pascal105", kinds.count("pascal"), 105))
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

    # Every azygetic odd triple: 6 admissible evens, one equal
    # to the triple sum, the other 5 completing a special fundamental system.
    triples_ok = True
    n_triples = 0
    evens = [m.idx for m in enumerate_characteristics(3, "even")]
    for a, b, c in _azygetic_odd_triples_g3():
        n_triples += 1
        admissible = [
            n
            for n in evens
            if _parity_idx(3, a ^ b ^ n) == -1
            and _parity_idx(3, a ^ c ^ n) == -1
            and _parity_idx(3, b ^ c ^ n) == -1
        ]
        if len(admissible) != 6 or (a ^ b ^ c) not in admissible:
            triples_ok = False
            break
        rest = [Characteristic(3, n) for n in admissible if n != a ^ b ^ c]
        sfs = CharacteristicSet([Characteristic(3, i) for i in (a, b, c)] + rest)
        if not is_fundamental_system(sfs):
            triples_ok = False
            break
    recs.append(_flag("azygetic_triple_completion", triples_ok))
    recs.append(_count("azygetic_odd_triple_count", n_triples, 2016))

    # Within the fixed fundamental system {0} u (example): any two
    # azygetic odd triples sharing m1 have completions meeting in {m1, n0}.
    ms = list(ARONHOLD_EXAMPLE)
    intersections_ok = True
    sfs_cache = {}
    for i1 in range(7):
        others = [t for t in range(7) if t != i1]
        for pair_a in combinations(others, 2):
            for pair_b in combinations([t for t in others if t not in pair_a], 2):
                if pair_a > pair_b:
                    continue
                key_a = (i1,) + pair_a
                key_b = (i1,) + pair_b

                def sfs_for(key):
                    if key not in sfs_cache:
                        triple = CharacteristicSet([ms[t] for t in key])
                        comp = special_fundamental_completion(triple)
                        sfs_cache[key] = triple.idx_set() | comp.idx_set()
                    return sfs_cache[key]

                inter = sfs_for(key_a) & sfs_for(key_b)
                if inter != {ms[i1].idx, 0}:
                    intersections_ok = False
    recs.append(_flag("fixed_system_intersections", intersections_ok))

    # Aronhold classification partition 1 + 7 + 21 + 35 (raises internally on failure).
    classification = chars.aronhold_classify(ARONHOLD_EXAMPLE, zero)
    tags = [tag for tag, _ in classification.values()]
    recs.append(_count("aronhold_partition_n0", tags.count("n0"), 1))
    recs.append(_count("aronhold_partition_m", tags.count("m"), 7))
    recs.append(_count("aronhold_partition_odd_sums", tags.count("odd_sum"), 21))
    recs.append(_count("aronhold_partition_even_sums", tags.count("even_sum"), 35))

    # genus-2: unique even n0 with azygetic quadruple, n0 = m1+m2+m3.
    odds2 = [m.idx for m in enumerate_characteristics(2, "odd")]
    evens2 = [m.idx for m in enumerate_characteristics(2, "even")]
    g2_ok = True
    for a, b, c in combinations(odds2, 3):
        if _parity_idx(2, a ^ b ^ c) != 1:
            continue
        admissible = [
            n
            for n in evens2
            if _parity_idx(2, a ^ b ^ n) == -1
            and _parity_idx(2, a ^ c ^ n) == -1
            and _parity_idx(2, b ^ c ^ n) == -1
        ]
        if admissible != [a ^ b ^ c]:
            g2_ok = False
    recs.append(_flag("genus2_unique_even_completion", g2_ok))

    # genus-2: every odd pair has a unique even 4-element completion.
    g2_pairs_ok = True
    for a, b in combinations(odds2, 2):
        comp = special_fundamental_completion(
            CharacteristicSet([Characteristic(2, a), Characteristic(2, b)])
        )
        if len(comp) != 4 or any(m.is_odd for m in comp):
            g2_pairs_ok = False
    recs.append(_flag("genus2_pair_completion", g2_pairs_ok))

    # A fixed worked example of a special fundamental completion.
    comp = special_fundamental_completion(CharacteristicSet(ms[:3]))
    expected = CharacteristicSet.parse(
        3, ["000;000", "111;000", "101;111", "110;001", "000;100"]
    )
    recs.append(_flag("worked_completion_example", comp == expected))
    return recs


# ---------------------------------------------------------------------------
# group


def _action_table(gamma: symplectic.SymplecticMatF2) -> list[int]:
    g = gamma.g
    return [gamma.act(Characteristic(g, i)).idx for i in range(1 << (2 * g))]


@lru_cache(maxsize=1)
def _generator_tables() -> tuple[list[int], ...]:
    return tuple(_action_table(gmm) for gmm in symplectic.group_generators(3))


def _orbit(start: frozenset) -> set[frozenset]:
    """Orbit of a set of genus-3 characteristic indices under the affine
    action of Sp(6, F2), by breadth-first search over its generators."""
    tables = _generator_tables()
    orbit = {start}
    frontier = [start]
    while frontier:
        new = []
        for s in frontier:
            for t in tables:
                img = frozenset(t[i] for i in s)
                if img not in orbit:
                    orbit.add(img)
                    new.append(img)
        frontier = new
    return orbit


def suite_group(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    recs = []
    for g, order in symplectic.SP_ORDERS.items():
        enum = symplectic.enumerate_group(g)
        recs.append(_count(f"order_g{g}", len(enum), order))

    enum3 = symplectic.enumerate_group(3)
    rng = stream(seed, "group.closure")
    ok = True
    for _ in range(200):
        a = enum3.element(int(rng.integers(len(enum3))))
        b = enum3.element(int(rng.integers(len(enum3))))
        if (a * b) not in enum3 or a.inverse() not in enum3:
            ok = False
    recs.append(_flag("closure_and_inverse_sampled", ok))

    reps = symplectic.parabolic_cosets(3)
    recs.append(_count("parabolic_index", len(reps), 135))
    images = {symplectic.lagrangian_image(r) for r in reps}
    recs.append(_count("parabolic_distinct_images", len(images), 135))
    by_image = {symplectic.lagrangian_image(r): r for r in reps}
    rng = stream(seed, "group.factorization")
    ok = True
    for _ in range(100):
        gmm = enum3.element(int(rng.integers(len(enum3))))
        rep = by_image[symplectic.lagrangian_image(gmm)]
        if not symplectic.has_zero_c_block(rep.inverse() * gmm):
            ok = False
    recs.append(_flag("parabolic_factorization_sampled", ok))

    # parity and triple-sign invariance, exhaustive over Sp(4, F2)
    enum2 = symplectic.enumerate_group(2)
    all2 = [Characteristic(2, i) for i in range(16)]
    triples2 = list(combinations(range(16), 3))
    ok = True
    for i in range(len(enum2)):
        table = _action_table(enum2.element(i))
        if any(
            _parity_idx(2, table[m.idx]) != m.parity for m in all2
        ):
            ok = False
            break
        for a, b, c in triples2:
            if triple_sign(
                Characteristic(2, table[a]),
                Characteristic(2, table[b]),
                Characteristic(2, table[c]),
            ) != triple_sign(all2[a], all2[b], all2[c]):
                ok = False
                break
        if not ok:
            break
    recs.append(_flag("invariance_exhaustive_g2", ok))

    # randomized invariance for g=3: ~1e5 sampled (gamma, triple) pairs
    rng = stream(seed, "group.invariance3")
    ok = True
    lin_ok = True
    n_gamma, n_triple = 200, 500
    for _ in range(n_gamma):
        table = _action_table(enum3.element(int(rng.integers(len(enum3)))))
        idxs = rng.integers(0, 64, size=(n_triple, 4))
        for a, b, c, d in idxs:
            a, b, c, d = int(a), int(b), int(c), int(d)
            if _parity_idx(3, table[a]) != _parity_idx(3, a):
                ok = False
            if triple_sign(
                Characteristic(3, table[a]),
                Characteristic(3, table[b]),
                Characteristic(3, table[c]),
            ) != triple_sign(
                Characteristic(3, a), Characteristic(3, b), Characteristic(3, c)
            ):
                ok = False
            # affine action preserves even-length linear relations
            if ((a ^ b ^ c ^ d) == 0) != (
                (table[a] ^ table[b] ^ table[c] ^ table[d]) == 0
            ):
                lin_ok = False
    recs.append(_flag("invariance_sampled_g3", ok))
    recs.append(_flag("even_relations_preserved_g3", lin_ok))

    # orbit of the zero characteristic = all 36 even characteristics
    orbit = _orbit(frozenset({0}))
    recs.append(_count("zero_orbit_even36", len(orbit), 36))
    recs.append(
        _flag("zero_orbit_all_even", all(_parity_idx(3, i) == 1 for (i,) in orbit))
    )

    # transitivity on the 288 unordered Aronhold sets
    recs.append(_count("aronhold_orbit", len(_orbit(ARONHOLD_EXAMPLE.idx_set())), 288))

    recs.append(_flag("j_is_symplectic", symplectic.is_symplectic(symplectic.symplectic_j(3))))
    return recs


# ---------------------------------------------------------------------------
# gopel


def suite_gopel(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    recs = []
    systems = gp.enumerate_gopel(3)
    recs.append(_count("gopel135", len(systems), 135))
    kinds = [s.kind for s in systems]
    recs.append(_count("fano30", kinds.count("fano"), 30))
    recs.append(_count("pascal105", kinds.count("pascal"), 105))

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
    ok = True
    for s in systems:
        members = list(s.members)
        for a, b, c in combinations(members, 3):
            if triple_sign(a, b, c) != 1:
                ok = False
    recs.append(_flag("no_azygetic_triples", ok))

    # unique Fano-pair decomposition for all 105 Pascal configurations
    n_ok = 0
    planes_ok = True
    for s in systems:
        if s.kind != "pascal":
            continue
        dec = gp.pascal_decomposition(s)
        n_ok += 1
        if len(dec.s1) != 4 or 0 not in dec.s1:
            planes_ok = False
        if any(_parity_idx(3, i) != 1 for i in dec.s1 | dec.s2 | dec.s3):
            planes_ok = False
        span = {a ^ b for a in dec.s1 for b in dec.s1}
        if span != dec.s1:
            planes_ok = False
    recs.append(_count("pascal_decompositions", n_ok, 105))
    recs.append(_flag("decomposition_quartets_even", planes_ok))

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


def suite_jacobi(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 20
    tol = tol or 1e-8
    recs = []

    # g = 1
    rng = stream(seed, "jacobi.g1")
    worst = 0.0
    z0 = PhasePoint.zero(1)
    odd1 = Characteristic.from_string("1;1")
    for _ in range(samples):
        tau = random_tau(rng, 1)
        lhs = jacobian_det(tau, [odd1])
        rhs = -math.pi * math.prod(
            theta(tau, z0, Characteristic(1, i)) for i in (0, 1, 2)
        )
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    recs.append(_residual("jacobi_g1", worst, tol))

    # g = 2: all 15 odd pairs with their even completions.  The determinant
    # sign depends on the ordering of the odd pair, so the per-pair sign is
    # resolved once at a reference tau and asserted stable on the samples.
    rng = stream(seed, "jacobi.g2")
    odds2 = list(enumerate_characteristics(2, "odd"))
    completions = {
        (a.idx, b.idx): special_fundamental_completion(CharacteristicSet([a, b]))
        for a, b in combinations(odds2, 2)
    }

    def g2_values(tau, pair):
        comp = completions[(pair[0].idx, pair[1].idx)]
        z0 = PhasePoint.zero(2)
        lhs = jacobian_det(tau, pair)
        rhs = -math.pi**2 * math.prod(theta(tau, z0, n) for n in comp)
        return lhs, rhs

    ref2 = modular.reference_tau2()
    signs2 = {}
    for pair in combinations(odds2, 2):
        lhs, rhs = g2_values(ref2, pair)
        signs2[(pair[0].idx, pair[1].idx)] = 1.0 if abs(lhs - rhs) < abs(lhs + rhs) else -1.0
    worst = 0.0
    for _ in range(samples):
        tau = random_tau(rng, 2)
        pair = list(combinations(odds2, 2))[int(rng.integers(15))]
        lhs, rhs = g2_values(tau, pair)
        sign = signs2[(pair[0].idx, pair[1].idx)]
        worst = max(worst, abs(lhs - sign * rhs) / max(abs(lhs), abs(rhs)))
    recs.append(_residual("jacobi_g2", worst, tol))

    # g = 3: random azygetic odd triples with their 5-even completions; same
    # reference-tau sign resolution per ordered triple.
    rng = stream(seed, "jacobi.g3")
    odds3 = list(enumerate_characteristics(3, "odd"))
    ref3 = modular.reference_tau3()
    worst = 0.0
    z0 = PhasePoint.zero(3)
    for _ in range(samples):
        while True:
            pick = rng.choice(28, size=3, replace=False)
            triple = [odds3[int(i)] for i in pick]
            if triple_sign(*triple) == -1:
                break
        comp = special_fundamental_completion(CharacteristicSet(triple))

        def g3_values(tau):
            lhs = jacobian_det(tau, triple)
            rhs = -math.pi**3 * math.prod(theta(tau, PhasePoint.zero(3), n) for n in comp)
            return lhs, rhs

        lhs, rhs = g3_values(ref3)
        sign = 1.0 if abs(lhs - rhs) < abs(lhs + rhs) else -1.0
        tau = random_tau(rng, 3)
        lhs, rhs = g3_values(tau)
        worst = max(worst, abs(lhs - sign * rhs) / max(abs(lhs), abs(rhs)))
    recs.append(_residual("jacobi_g3", worst, tol))

    # dual route: Jacobian-determinant quotient vs chi_18 product, for 5
    # distinct Fano systems built from the example Aronhold set
    rng = stream(seed, "jacobi.dualroute")
    taus = [random_tau(rng, 3) for _ in range(10)]
    families = []
    seen = set()
    for fam in points.fano_plane_families():
        sys = gp.fano_from_aronhold(ARONHOLD_EXAMPLE, fam)
        if sys.idx_set() not in seen:
            seen.add(sys.idx_set())
            families.append((fam, sys))
        if len(families) == 5:
            break
    for k, (fam, sys) in enumerate(families):
        ratios = []
        for tau in taus:
            via_d = modular.h_via_jacobian(tau, ARONHOLD_EXAMPLE, fam)
            via_chi = modular.h_fano(tau, sys)
            ratios.append(via_d / (modular.PI21 * via_chi))
        sign = 1.0 if ratios[0].real > 0 else -1.0
        worst = max(abs(r - sign) for r in ratios)
        recs.append(_residual(f"dual_route_f{k}", worst, tol))
    return recs


# ---------------------------------------------------------------------------
# riemann addition relations


def suite_riemann(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 10
    tol = tol or 1e-8
    rng = stream(seed, "riemann.taus")
    taus = [random_tau(rng, 3) for _ in range(samples)]
    stable = 0
    for s in gp.enumerate_gopel(3):
        if s.kind != "pascal":
            continue
        try:
            modular.riemann_relation(s, taus, tol)
            stable += 1
        except modular.RiemannSignError:
            continue
    return [_count("riemann_stable_pascals", stable, 105)]


# ---------------------------------------------------------------------------
# W rank


def suite_wrank(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 40
    rng = stream(seed, "wrank.taus")
    taus = [random_tau(rng, 3) for _ in range(samples)]
    matrix = modular.goepel_form_matrix(taus)
    sv = np.linalg.svd(matrix, compute_uv=False)
    gap = sv[14] / sv[15] if sv[15] > 0 else math.inf
    rank = int((sv > 1e-8 * sv[0]).sum())
    return [
        _count("w_rank", rank, 15),
        CheckRecord("w_sv_gap", float(gap), 1e6, gap >= 1e6),
    ]


# ---------------------------------------------------------------------------
# coble quartic


def suite_coble(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 20
    tol = tol or 1e-7
    rng = stream(seed, "coble.samples")
    worst_val = 0.0
    worst_grad = 0.0
    worst_sym = 0.0
    for _ in range(samples):
        tau = random_tau(rng, 3)
        z = random_z(rng, 3)
        value, scale = quartics.coble_eval(tau, z)
        worst_val = max(worst_val, abs(value) / scale)
        grads, scales = quartics.coble_gradient(tau, z)
        worst_grad = max(worst_grad, max(abs(v) / s for v, s in zip(grads, scales)))
        neg = PhasePoint(3, -z.z)
        value_neg, _ = quartics.coble_eval(tau, neg)
        worst_sym = max(worst_sym, abs(value_neg - value) / scale)
    recs = [
        _residual("coble_vanishing", worst_val, tol),
        _residual("coble_gradient_vanishing", worst_grad, tol),
        _residual("coble_z_symmetry", worst_sym, 1e-10),
    ]

    # negative control: generic x not of theta form is not on the quartic
    tau = random_tau(stream(seed, "coble.control"), 3)
    a = quartics.coble_coefficients(modular.s_vector(tau))
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    value, scale = quartics.coble_at(a, x)
    recs.append(_flag("coble_nonvanishing_generic", abs(value) / scale > 0.5))
    return recs


# ---------------------------------------------------------------------------
# modularity


def suite_modularity(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 10
    tol = tol or 1e-6
    rng = stream(seed, "modularity.samples")
    pairs = [(random_tau(rng, 3), random_z(rng, 3)) for _ in range(samples)]

    recs = []
    worst = 0.0
    for tau, z in pairs:
        worst = max(worst, quartics.jacobi_form_residual(("J",), tau, z))
    recs.append(_residual("inversion_residual", worst, tol))

    srng = stream(seed, "modularity.translations")
    for k in range(5):
        s = srng.integers(0, 2, size=(3, 3))
        s = np.triu(s) + np.triu(s, 1).T
        worst = 0.0
        for tau, z in pairs:
            worst = max(worst, quartics.jacobi_form_residual(("S", s), tau, z))
        recs.append(_residual(f"translation_residual_{k}", worst, tol))

    tau, z = pairs[0]
    recs.append(
        _flag(
            "translation_zero_exact",
            quartics.jacobi_form_residual(("S", np.zeros((3, 3))), tau, z) == 0.0,
        )
    )
    return recs


# ---------------------------------------------------------------------------
# genus-2 Kummer


def suite_kummer2(seed: int, samples: int, tol: float) -> list[CheckRecord]:
    samples = samples or 20
    tol = tol or 1e-8
    rng = stream(seed, "kummer2.samples")
    worst = 0.0
    worst_sym = 0.0
    for _ in range(samples):
        tau = random_tau(rng, 2)
        z = random_z(rng, 2)
        value, scale = quartics.kummer2_eval(tau, z)
        worst = max(worst, abs(value) / scale)
        value_neg, _ = quartics.kummer2_eval(tau, PhasePoint(2, -z.z))
        worst_sym = max(worst_sym, abs(value_neg - value) / scale)
    recs = [
        _residual("kummer2_vanishing", worst, tol),
        _residual("kummer2_z_symmetry", worst_sym, 1e-10),
    ]

    # triple-product identity |D D D| = pi^6 |chi_5 theta_n^2| for all 10
    # even n, with complementary-triple and phi*psi* consistency
    rng = stream(seed, "kummer2.triples")
    taus = [random_tau(rng, 2) for _ in range(min(samples, 10))]
    odds = list(enumerate_characteristics(2, "odd"))
    worst_mag = 0.0
    comp_sign_ok = True
    phi_psi_ok = True
    z0 = PhasePoint.zero(2)
    for n in enumerate_characteristics(2, "even"):
        (t1, t2, t3), (u1, u2, u3) = modular.odd_triple_partition(n)
        comp_signs = set()
        phi_signs = set()
        for tau in taus:
            prod1 = modular.phi_star_triple(tau, n)
            prod2 = (
                jacobian_det(tau, (odds[u1], odds[u2]))
                * jacobian_det(tau, (odds[u1], odds[u3]))
                * jacobian_det(tau, (odds[u2], odds[u3]))
            )
            target = math.pi**6 * modular.chi(tau) * theta(tau, z0, n) ** 2
            worst_mag = max(worst_mag, abs(abs(prod1) / abs(target) - 1))
            ratio = prod1 / prod2
            comp_signs.add(1 if ratio.real > 0 else -1)
            if abs(abs(ratio) - 1) > tol:
                comp_sign_ok = False
            # product of the two triple products = +- pi^12 chi_5^2 theta_n^4
            full = prod1 * prod2
            target2 = math.pi**12 * modular.chi(tau) ** 2 * theta(tau, z0, n) ** 4
            phi_signs.add(1 if (full / target2).real > 0 else -1)
            if abs(abs(full) / abs(target2) - 1) > tol:
                phi_psi_ok = False
        if len(comp_signs) != 1 or len(phi_signs) != 1:
            comp_sign_ok = False
    recs.append(_residual("triple_product_magnitude", worst_mag, tol))
    recs.append(_flag("triple_product_complement_sign", comp_sign_ok))
    recs.append(_flag("phi_psi_star_identity", phi_psi_ok))
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
    rng = stream(seed, "segre.configs")
    worst = 0.0
    for _ in range(samples):
        x = _random_config1(rng)
        t = points.standard_invariants(x)
        worst = max(worst, abs(points.segre_eval(t)) / points.segre_scale(t))
    recs = [_residual("segre_identity", worst, tol)]

    # PGL invariance of the degree-1 binary invariants
    rng = stream(seed, "segre.moebius")
    worst = 0.0
    for _ in range(10):
        x = _random_config1(rng)
        a, b, c, d = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        if abs(a * d - b * c) < 0.1:
            continue
        gx = (a * x + b) / (c * x + d)
        for t in points.STANDARD_TABLEAUX:
            lhs = points.tableau_invariant(t, gx)
            rhs = points.tableau_invariant(t, x) / np.prod(c * x + d) * (a * d - b * c) ** 3
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    recs.append(_residual("pgl_invariance", worst, 1e-9))
    return recs


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

    rng = stream(seed, "igusa.holdout")
    holdout = max(
        points.igusa_residual(forms @ points.theta4_constants(random_tau(rng, 2)))
        for _ in range(10)
    )

    # negative control: swapping two slots of the found tuple breaks the
    # relation on the search samples
    wrong = forms[[3, 1, 2, 0, 4]]
    control = max(
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
            abs(points.bracket(cfg, 1, 2, 3) + points.bracket(cfg, 2, 1, 3)) < 1e-12,
        )
    )
    collinear = cfg.copy()
    collinear[2] = 0.5 * collinear[0] + 0.25 * collinear[1]
    recs.append(
        _flag(
            "gfano_vanishes_collinear",
            abs(points.g_fano(collinear, FANO_TRIPLE_FAMILY)) < 1e-10,
        )
    )
    recs.append(
        _flag("gfano_generic_nonzero", abs(points.g_fano(cfg, FANO_TRIPLE_FAMILY)) > 1e-8)
    )

    # SL3 covariance: each bracket scales by det(A), G_F by det(A)^7
    a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    lhs = points.g_fano(cfg @ a.T, FANO_TRIPLE_FAMILY)
    rhs = np.linalg.det(a) ** 7 * points.g_fano(cfg, FANO_TRIPLE_FAMILY)
    recs.append(_residual("sl3_covariance", abs(lhs - rhs) / max(abs(lhs), abs(rhs)), 1e-9))

    recs.append(_count("fano_families", len(points.fano_plane_families()), 30))
    recs.append(_count("pascal_families", len(points.pascal_families()), 105))

    cfgs = [_random_config2(rng) for _ in range(samples)]
    matrix = points.bracket_value_matrix(cfgs)
    sv = np.linalg.svd(matrix, compute_uv=False)
    rank = int((sv > 1e-8 * sv[0]).sum())
    gap = sv[14] / sv[15] if sv[15] > 0 else math.inf
    recs.append(_count("bracket_span_rank", rank, 15))
    recs.append(CheckRecord("bracket_sv_gap", float(gap), 1e6, gap >= 1e6))
    return recs


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


def run_suite(name: str, seed: int = 1, samples: int = 0, tol: float = 0.0) -> Report:
    """Run a named suite (or "all") and assemble its report."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)} + ['all']")
    start = time.monotonic()
    records = []
    if name == "all":
        for sub in SUITES.values():
            records.extend(sub(seed, samples, tol))
    else:
        records = SUITES[name](seed, samples, tol)
    report = Report(name, seed, samples, tol, records)
    report.wall_time = time.monotonic() - start
    return report
