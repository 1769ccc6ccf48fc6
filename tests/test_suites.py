import importlib
import json
import math
import sys

import pytest

from thetacoble import characteristics, gopel, modular, suites, symplectic
from thetacoble.characteristics import _parity_idx
from thetacoble.suites import SUITES, run_suite
from thetacoble.theta import PhasePoint, even_theta_constants, jacobian_det

# the package re-exports the function theta under the submodule's name
theta = importlib.import_module("thetacoble.theta")


class TestReportPlumbing:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_deterministic_given_seed(self):
        a = run_suite("segre", seed=3).to_json()
        b = run_suite("segre", seed=3).to_json()
        a.pop("wall_time")
        b.pop("wall_time")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_a_warm_process_gives_the_same_report(self, fresh_memos):
        # the reference taus are cached for the process and keep their
        # memos, so a second run at seed 1 reads tables the first one built
        def records(seed):
            return json.dumps(run_suite("all", seed).to_json()["records"])

        fresh_memos()
        cold = records(1)
        records(2)
        assert records(1) == cold

    def test_records_sorted_by_name(self):
        data = run_suite("kummer2", seed=2, samples=4).to_json()
        names = [r["name"] for r in data["records"]]
        assert names == sorted(names)

    @pytest.mark.parametrize(
        "name, samples, tol",
        [
            ("coble", -1, 0.0),
            ("jacobi", -2, 0.0),
            ("modularity", -1, 0.0),
            ("wrank", -1, 0.0),
            ("coble", 0, math.inf),
            ("coble", 0, math.nan),
            ("segre", 0, -1e-10),
            ("combinatorics", 2.5, 0.0),
            ("combinatorics", True, 0.0),
            ("coble", 2.5, 0.0),
            ("combinatorics", 0, "x"),
            ("segre", 0, True),
        ],
    )
    def test_out_of_range_samples_or_tol_rejected(self, name, samples, tol):
        # a negative sample count checks nothing and an infinite tol passes
        # every residual, so neither may produce a report; nor may a samples
        # that is not an int or a tol that is not a number (a bool is neither)
        with pytest.raises(ValueError, match="need samples >= 0 and 0 <= tol < inf"):
            run_suite(name, 1, samples, tol)

    @pytest.mark.parametrize("name, seed", [("jacobi", -1), ("combinatorics", -1),
                                            ("all", -3), ("segre", 1.5), ("coble", True)])
    def test_bad_seed_rejected(self, name, seed):
        # numpy's SeedSequence rejects a negative seed only inside the seeded
        # suites, and the seed-free ones would report a pass
        with pytest.raises(ValueError, match=f"need a non-negative integer seed, got {seed!r}$"):
            run_suite(name, seed)

    @pytest.mark.parametrize("samples", (1, 8, 15))
    @pytest.mark.parametrize("name", ("wrank", "points", "all"))
    def test_too_few_samples_for_a_rank_check_rejected(self, name, samples):
        # the rank-15 certificate reads the 16th singular value
        with pytest.raises(ValueError, match=f"need samples >= 16 .* got {samples}$"):
            run_suite(name, 1, samples)

    @pytest.mark.parametrize("name", ("wrank", "points"))
    def test_sixteen_samples_suffice(self, name):
        report = run_suite(name, 1, 16)
        assert report.passed and len(report.records) >= 2

    def test_other_suites_of_all_still_run(self, monkeypatch):
        def raises(seed, samples, tol):
            raise ZeroDivisionError("seeded fault")

        for name in ("combinatorics", "group", "gopel", "wrank", "igusa"):
            monkeypatch.setitem(SUITES, name, raises)
        report = run_suite("all", seed=1, samples=16)
        assert not report.passed
        assert dict(_error_records(report)) == {
            f"{name}_error": "ZeroDivisionError: seeded fault"
            for name in ("combinatorics", "group", "gopel", "wrank", "igusa")
        }
        names = {r["name"] for r in report.to_json()["records"]}
        assert {"jacobi_g3", "coble_vanishing", "kummer2_vanishing", "segre_identity"} <= names

    def test_all_suites_registered(self):
        assert set(SUITES) == {
            "combinatorics", "group", "gopel", "jacobi", "riemann", "wrank",
            "coble", "modularity", "kummer2", "segre", "igusa", "points",
        }


class TestQuickSuites:
    """Fast runs with reduced sample counts; full runs live in acceptance."""

    def test_combinatorics(self):
        assert run_suite("combinatorics", seed=1).passed

    def test_jacobi_small(self):
        assert run_suite("jacobi", seed=2, samples=4).passed

    def test_coble_small(self):
        assert run_suite("coble", seed=2, samples=4).passed

    def test_kummer2_small(self):
        assert run_suite("kummer2", seed=2, samples=4).passed

    def test_wrank_small(self):
        assert run_suite("wrank", seed=2, samples=25).passed

    def test_segre(self):
        assert run_suite("segre", seed=2).passed

    def test_modularity_small(self):
        assert run_suite("modularity", seed=2, samples=3).passed

    def test_points_small(self):
        assert run_suite("points", seed=2, samples=40).passed


class TestGroupMutations:
    """A corrupted action table must fail the invariance check that reads it."""

    @pytest.mark.parametrize(
        "g, rows, record",
        [(2, 720, "invariance_exhaustive_g2"), (3, 200, "invariance_sampled_g3")],
    )
    def test_swapped_images_fail(self, monkeypatch, g, rows, record):
        action_tables = symplectic.action_tables

        def swapped(genus, packed):
            tables = action_tables(genus, packed)
            if (genus, len(tables)) != (g, rows):
                return tables  # leave the generator tables of the orbit checks intact
            # swap two images of equal parity, so only the triple signs can see it
            row = tables[0]
            parity = [_parity_idx(g, int(i)) for i in row]
            j = next(k for k in range(1, len(row)) if parity[k] == parity[0])
            tables = tables.copy()
            tables[0, [0, j]] = row[[j, 0]]
            return tables

        monkeypatch.setattr(symplectic, "action_tables", swapped)
        records = {r["name"]: r["pass"] for r in run_suite("group", seed=1).to_json()["records"]}
        assert records[record] is False
        assert records["zero_orbit_even36"] and records["aronhold_orbit"]


def _flipped_product(a, b):
    """The product with its last D entry flipped: outside the group, same C block."""
    m = (a @ b) & 1
    m[..., -1, -1] ^= 1
    return m


class TestBatchedGroupChecks:
    """A fault in the batched product or inverse fails the record that reads it."""

    @pytest.mark.parametrize(
        "name, fault, failing",
        [
            # the transpose of a symplectic matrix is symplectic, so membership
            # alone would not see it
            ("invert", lambda m: m.swapaxes(-2, -1),
             {"closure_and_inverse_sampled", "parabolic_factorization_sampled"}),
            ("multiply", _flipped_product, {"closure_and_inverse_sampled"}),
        ],
    )
    def test_fault_fails_its_record(self, monkeypatch, name, fault, failing):
        assert run_suite("group", seed=1).passed
        monkeypatch.setattr(symplectic, name, fault)
        records = run_suite("group", seed=1).to_json()["records"]
        assert {r["name"] for r in records if not r["pass"]} == failing


class TestGroupIndexing:
    def test_suite_reads_no_list_of_the_group(self, monkeypatch):
        def raises(g):
            raise AssertionError("the group suite listed Sp(2g, F2)")

        monkeypatch.setattr(symplectic, "enumerate_group", raises)
        monkeypatch.setattr(symplectic, "_symplectic_bases", raises)
        assert run_suite("group", seed=1).passed


def _error_records(report) -> list[tuple[str, str]]:
    """(name, error) of the records that carry an exception."""
    return [(r["name"], r["error"]) for r in report.to_json()["records"] if "error" in r]


class TestParityMutations:
    """A flipped even entry of the parity table, seen at every binding of
    parity_table, must not pass: the batched checks read a non-empty table."""

    @staticmethod
    def flip(monkeypatch, g, idx):
        table = characteristics.parity_table
        flipped = table(g).copy()
        assert flipped[idx] == 1
        flipped[idx] = -1

        def mutated(genus):
            return flipped if genus == g else table(genus)

        for name, module in list(sys.modules.items()):
            if name.startswith("thetacoble") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is table:
                        monkeypatch.setattr(module, attr, mutated)

    def test_combinatorics_mask_sees_the_flip(self, monkeypatch):
        assert run_suite("combinatorics", seed=1).passed  # warms the memoized enumerations
        self.flip(monkeypatch, 3, 1)
        # The admissible-evens mask of the batched completion of the 2016
        # azygetic triples loses the flipped even; the completion's own check
        # stops the suite, which reports it as its one failing record.
        assert _error_records(run_suite("combinatorics", seed=1)) == [
            ("combinatorics_error", "AssertionError: expected 6 admissible evens, got 5")
        ]

    def test_gopel_stops_with_an_error_record(self, monkeypatch):
        assert run_suite("gopel", seed=1).passed
        self.flip(monkeypatch, 3, 1)
        ((name, error),) = _error_records(run_suite("gopel", seed=1))
        assert name == "gopel_error"
        assert error.startswith("ValueError: {") and error.endswith("is not an Aronhold set "
                                                                    "(members odd, every triple azygetic)")

    @pytest.mark.parametrize(
        "g, failing",
        [(2, {"invariance_exhaustive_g2"}), (3, {"invariance_sampled_g3", "zero_orbit_all_even"})],
    )
    def test_group_records_fail(self, monkeypatch, g, failing):
        self.flip(monkeypatch, g, 1)
        records = run_suite("group", seed=1).to_json()["records"]
        assert {r["name"] for r in records if not r["pass"]} == failing


def _with_nan(out):
    """out with its value made NaN: the first entry of a (value, scale)
    pair, the first pair of a list of pairs, every entry of any other list,
    or the value itself."""
    if isinstance(out, tuple):
        return (_with_nan(out[0]),) + out[1:]
    if isinstance(out, list) and isinstance(out[0], tuple):
        return [_with_nan(out[0])] + out[1:]
    if isinstance(out, list):
        return [v * math.nan for v in out]
    return out * math.nan


def _failing_with_nan_at(monkeypatch, target, suite, samples, call):
    """The failing records of suite when target returns NaN at its call-th call."""
    module, name = target.split(".")
    evaluate = getattr(sys.modules[f"thetacoble.{module}"], name)
    calls = []

    def nan_at_call(*args, **kwargs):
        calls.append(None)
        out = evaluate(*args, **kwargs)
        return _with_nan(out) if len(calls) == call else out

    monkeypatch.setattr(f"thetacoble.{target}", nan_at_call)
    report = run_suite(suite, seed=1, samples=samples)
    assert len(calls) > call and not _error_records(report)
    return {r["name"] for r in report.to_json()["records"] if not r["pass"]}


class TestNaNResiduals:
    """A residual that is NaN at one sample, not the first, fails its record;
    a worst-of kept by Python's max would drop it and pass.  So does a NaN at
    the reference tau of a sign that the record reads."""

    @pytest.mark.parametrize(
        "target, suite, samples, call, failing",
        [
            ("quartics.coble_eval", "coble", 4, 3, {"coble_vanishing", "coble_z_symmetry"}),
            ("quartics.coble_gradient", "coble", 4, 2, {"coble_gradient_vanishing"}),
            ("quartics.kummer2_eval", "kummer2", 4, 3,
             {"kummer2_vanishing", "kummer2_z_symmetry"}),
            # each (tau, z) pair evaluates the inversion, then translations 0-4
            ("quartics.jacobi_form_residual", "modularity", 3, 7, {"inversion_residual"}),
            ("quartics.jacobi_form_residual", "modularity", 3, 8, {"translation_residual_0"}),
            ("points.segre_eval", "segre", 0, 2, {"segre_identity"}),
            # the first 250 calls are the 50 segre_identity samples
            ("points.tableau_invariant", "segre", 0, 300, {"pgl_invariance"}),
            # 5 reference calls, then f0-f4 at each tau: f0 at the second tau
            ("modular.h_fano", "jacobi", 4, 11, {"dual_route_f0"}),
            # one call per tau, the reference tau first: p of n0 at the second
            # sampled tau
            ("modular.triple_products", "kummer2", 4, 3,
             {"triple_product_magnitude", "triple_product_complement_sign",
              "phi_psi_star_identity"}),
        ],
    )
    def test_nan_at_one_sample_fails_its_record(self, monkeypatch, target, suite, samples,
                                                call, failing):
        assert _failing_with_nan_at(monkeypatch, target, suite, samples, call) == failing

    @pytest.mark.parametrize(
        "target, suite, samples, call, failing",
        [
            # calls 1-20 are the g = 1 samples, 21-35 the reference determinants
            # of the 15 pairs; the 8th pair has sign -1 (the old nearer-of-+-1
            # test read -1 off a NaN) and is sampled
            ("suites.jacobian_det", "jacobi", 20, 28, {"jacobi_g2"}),
            ("modular.h_fano", "jacobi", 4, 1, {"dual_route_f0"}),
            ("modular.triple_products", "kummer2", 4, 1,
             {"triple_product_complement_sign", "phi_psi_star_identity"}),
        ],
    )
    def test_nan_at_the_reference_tau_fails(self, monkeypatch, target, suite, samples, call,
                                            failing):
        assert _failing_with_nan_at(monkeypatch, target, suite, samples, call) == failing

    @pytest.mark.parametrize("ratio", (math.nan, complex(math.nan, 0.0), 0.0, 2j))
    def test_reference_sign_of_a_nan_or_a_tie_is_nan(self, ratio):
        assert math.isnan(suites._reference_sign(ratio))

    @pytest.mark.parametrize("ratio, sign", ((1 + 1e-9j, 1.0), (-0.99, -1.0), (-1e-3 + 5j, -1.0)))
    def test_reference_sign_is_the_nearer_of_plus_minus_one(self, ratio, sign):
        assert suites._reference_sign(ratio) == sign

    @staticmethod
    def riemann_record(monkeypatch, probe, underflow=False):
        """The riemann record at 3 samples when the Goepel-form column of the
        first Pascal system is NaN at one probe (0: the reference tau)."""
        matrix, column = modular.goepel_form_matrix, gopel.pascal_rows()[0, 0]

        def nan_in_column(taus, *args):
            out = matrix(taus, *args)
            out[probe, column] = complex(math.nan, 0.0)
            if underflow:
                math.exp(-1000)
            return out

        monkeypatch.setattr(modular, "goepel_form_matrix", nan_in_column)
        report = run_suite("riemann", 1, 3)
        assert not _error_records(report)
        (record,) = report.to_json()["records"]
        assert record["name"] == "riemann_stable_pascals"
        return record

    @pytest.mark.parametrize("probe", [1, 0])
    def test_nan_in_one_pascal_column_fails_its_record(self, monkeypatch, probe):
        # the column is read by its own Pascal system only
        record = self.riemann_record(monkeypatch, probe)
        assert record["value"] == 104.0 and not record["pass"]

    def test_nan_after_an_underflow_fails_its_record(self, monkeypatch):
        # math.exp(-1000) leaves errno at ERANGE, which CPython 3.11's abs of
        # a complex NaN reads as an overflow; the NaN is at the second probe
        assert run_suite("riemann", 1, 3).passed
        record = self.riemann_record(monkeypatch, 1, underflow=True)
        assert record["value"] == 104.0 and not record["pass"]

    def test_nan_bracket_after_an_underflow_fails_its_flag(self, monkeypatch):
        # Python's abs of the NaN sum would raise OverflowError, and the
        # points suite would be one points_error record
        def nan_bracket(*args):
            math.exp(-1000)
            return complex(math.nan, 0.0)

        monkeypatch.setattr("thetacoble.points.bracket", nan_bracket)
        report = run_suite("points", 1)
        assert not _error_records(report)
        failing = {r["name"] for r in report.to_json()["records"] if not r["pass"]}
        assert failing == {"bracket_antisymmetry"}

    def test_abs_of_a_complex_nan_is_nan_after_an_underflow(self):
        math.exp(-1000)  # leaves errno at ERANGE, which CPython 3.11's complex abs reads
        assert math.isnan(suites._abs(complex(math.nan, 1.0)))
        assert suites._abs(3 + 4j) == 5.0


# the sample counts of the identities workload (perfbench/workloads.py) for
# the suites that evaluate theta, in its order
IDENTITIES_THETA_SAMPLES = {"jacobi": 40, "riemann": 20, "wrank": 80, "coble": 40,
                            "modularity": 20, "kummer2": 40, "igusa": 0}
# modularity's translation_zero_exact reads its first sample, whose memo holds
# its values, and evaluates tau + 0, a new tau: 2 of its halves
PHASE_HALVES = {"jacobi": 132, "riemann": 20, "wrank": 80, "coble": 121,
                "modularity": 282, "kummer2": 130, "igusa": 13}


def _constants_first_jacobi_sides(tau, odds):
    """suites._jacobi_sides with the constants computed before the determinant."""
    completion = characteristics.special_fundamental_completion(characteristics.CharacteristicSet(odds))
    rhs = -math.pi**tau.g * math.prod(theta.theta(tau, PhasePoint.zero(tau.g), n) for n in completion)
    return jacobian_det(tau, odds), rhs


def _constants_first_triple_rows(tau):
    """suites._triple_rows with the constants computed before the determinants."""
    consts, chi = even_theta_constants(tau), math.pi**6 * modular.chi(tau)
    pairs = modular.triple_products(tau)
    evens = characteristics.enumerate_characteristics(2, "even")
    return [(p, q, chi * consts[n.idx] ** 2) for (p, q), n in zip(pairs, evens)]


class TestPhaseHalves:
    """The class-sum tables each suite builds (phase halves of a pass) at
    seed 1 with the identities samples, the suites run in order in one process.
    A caller that reads gradients asks for them before the constants at its
    tau, so that tau's z = 0 pass runs once, with its gradient columns."""

    @staticmethod
    def _counts(monkeypatch, fresh_memos) -> dict:
        class_sums, built = theta._class_sums, []

        def counted(tau, z, radius, *args):
            before = theta._memo(tau, z).get((z.key, radius))
            table = class_sums(tau, z, radius, *args)
            built.append(table is not before)
            return table

        monkeypatch.setattr(theta, "_class_sums", counted)
        fresh_memos()
        counts = {}
        for name, samples in IDENTITIES_THETA_SAMPLES.items():
            built.clear()
            assert run_suite(name, 1, samples).passed
            counts[name] = sum(built)
        return counts

    def test_pinned_per_suite(self, monkeypatch, fresh_memos):
        assert self._counts(monkeypatch, fresh_memos) == PHASE_HALVES

    @pytest.mark.parametrize("name, reverted, suite, count", [
        ("_jacobi_sides", _constants_first_jacobi_sides, "jacobi", 254),
        ("_triple_rows", _constants_first_triple_rows, "kummer2", 140),
    ])
    def test_constants_first_are_caught(self, monkeypatch, fresh_memos, name, reverted, suite, count):
        monkeypatch.setattr(suites, name, reverted)
        assert self._counts(monkeypatch, fresh_memos) == {**PHASE_HALVES, suite: count}
