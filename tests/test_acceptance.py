"""Acceptance criteria, one test per criterion, each printing a single
PASS/FAIL line.  Tolerances are pinned here and must not be loosened.
"""

import sys
from functools import lru_cache

from thetacoble.suites import SUITES

from conftest import criterion_lines

SEED = 1


@lru_cache(maxsize=None)
def _records(suite, seed, samples, tol):
    """Run a suite once per (suite, seed, samples, tol); criteria share it."""
    return tuple(SUITES[suite](seed, samples, tol))


def _criterion(number, title, records, wanted=None):
    """Evaluate a criterion from suite records (optionally a subset by name)
    and print its pass/fail line."""
    if wanted is not None:
        records = [r for r in records if r.name in wanted]
        missing = set(wanted) - {r.name for r in records}
        assert not missing, f"missing records: {missing}"
    ok = all(r.passed for r in records)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title}"
    criterion_lines.append(line)
    print(line, file=sys.stderr)
    detail = "; ".join(
        f"{r.name}={r.value:.3g} (thr {r.threshold:.3g}, {'ok' if r.passed else 'FAIL'})"
        for r in records
    )
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_exact_counts():
    combo = _records("combinatorics", SEED, 0, 0.0)
    group = _records("group", SEED, 0, 0.0)
    _criterion(
        1,
        "exact counts (36/28, 135 = 30 + 105, 288, |Sp(6,F2)|, parabolic 135)",
        combo + group,
        wanted={
            "even36", "odd28", "gopel135", "fano30", "pascal105",
            "aronhold288", "order_g3", "parabolic_index",
        },
    )


def test_criterion_02_completion_suite():
    combo = _records("combinatorics", SEED, 0, 0.0)
    _criterion(
        2,
        "completion suite (triples, intersections, 1+7+21+35, genus-2 uniqueness)",
        combo,
        wanted={
            "azygetic_triple_completion", "fixed_system_intersections",
            "aronhold_partition_n0", "aronhold_partition_m",
            "aronhold_partition_odd_sums", "aronhold_partition_even_sums",
            "genus2_unique_even_completion",
        },
    )


def test_criterion_03_jacobi_identities():
    recs = _records("jacobi", SEED, 20, 1e-8)
    _criterion(
        3,
        "Jacobi derivative identities g=1,2,3 at 20 seeded tau, rel < 1e-8",
        recs,
        wanted={"jacobi_g1", "jacobi_g2", "jacobi_g3"},
    )


def test_criterion_04_dual_route_hf():
    recs = _records("jacobi", SEED, 20, 1e-8)
    _criterion(
        4,
        "dual-route H(F) = +-pi^21 for 5 Fano systems at 10 tau, rel < 1e-8",
        recs,
        wanted={f"dual_route_f{k}" for k in range(5)},
    )


def test_criterion_05_riemann_addition():
    recs = _records("riemann", SEED, 10, 1e-8)
    _criterion(
        5, "all 105 Riemann sign pairs stable at 10 tau, rel < 1e-8", recs
    )


def test_criterion_06_w_rank():
    recs = _records("wrank", SEED, 40, 0.0)
    _criterion(
        6, "135 Goepel forms span rank 15 with sv gap >= 1e6 over 40 samples", recs
    )


def test_criterion_07_coble_vanishing():
    recs = _records("coble", SEED, 20, 1e-7)
    _criterion(
        7,
        "Coble quartic and all 8 gradient cubics vanish (< 1e-7) at 20 (tau, z)",
        recs,
        wanted={"coble_vanishing", "coble_gradient_vanishing"},
    )


def test_criterion_08_coble_modularity():
    recs = _records("modularity", SEED, 10, 1e-6)
    _criterion(
        8,
        "modularity residual < 1e-6 for inversion and 5 translations at 10 (tau, z)",
        recs,
        wanted={"inversion_residual"} | {f"translation_residual_{k}" for k in range(5)},
    )


def test_criterion_09_kummer_surface():
    recs = _records("kummer2", SEED, 20, 1e-8)
    _criterion(
        9,
        "universal Kummer vanishing at 20 (tau, z) and triple-product identity, < 1e-8",
        recs,
        wanted={
            "kummer2_vanishing", "triple_product_magnitude",
            "triple_product_complement_sign", "phi_psi_star_identity",
        },
    )


def test_criterion_10_segre_identity():
    recs = _records("segre", SEED, 50, 1e-10)
    _criterion(
        10, "Segre cubic identity < 1e-10 at 50 configurations", recs,
        wanted={"segre_identity"},
    )


def test_criterion_11_igusa_tuple():
    recs = _records("igusa", SEED, 0, 1e-8)
    _criterion(
        11,
        "Igusa tuple search succeeds and holdout residual < 1e-8 at 10 fresh tau",
        recs,
    )


def test_criterion_12_bracket_span():
    recs = _records("points", SEED, 60, 0.0)
    _criterion(
        12, "G_F / G_P values span rank 15 over 60 configurations", recs,
        wanted={"bracket_span_rank", "bracket_sv_gap"},
    )


def test_criterion_13_export_fidelity():
    from thetacoble.quartics import COBLE_TABLE, coble_monomial_count, export_coble_formula

    records = export_coble_formula()
    ok = len(records) == 15
    fixture = {
        label: {str(i): c for i, c in sorted(combo.items())}
        for label, combo in COBLE_TABLE.items()
    }
    got = {r["quartic_label"]: r["integer_combination"] for r in records}
    ok = ok and got == fixture and coble_monomial_count() == 134
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion 13: export emits 15 verbatim "
        "records with 134 (s, Q)-monomials"
    )
    criterion_lines.append(line)
    print(line, file=sys.stderr)
    assert ok
