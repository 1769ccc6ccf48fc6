import dataclasses
import gc
import json
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacoble import modular, quartics
from thetacoble.characteristics import Characteristic, enumerate_characteristics
from thetacoble.modular import chi
from thetacoble.sampling import random_tau, random_z, stream
from thetacoble.suites import run_suite
import importlib

th = importlib.import_module("thetacoble.theta")


RNG = stream(99, "test_theta")
TAUS = {g: [random_tau(RNG, g) for _ in range(3)] for g in (1, 2, 3)}
EPS = np.finfo(float).eps


def _direct_terms(tau, z, m, radius):
    """The lattice points p with |p|_inf <= radius and the terms of the theta
    sum at them, from the three-operand quadratic form."""
    ax = np.arange(-radius, radius + 1)
    p = np.stack([a.ravel() for a in np.meshgrid(*([ax] * tau.g), indexing="ij")], axis=1)
    q = p + np.array(m.mp, float) / 2
    shift = z.z + np.array(m.mpp, float) / 2
    expo = np.einsum("ni,ij,nj->n", q, tau.tau, q) + 2.0 * (q @ shift)
    return p, expo


def _meshgrid_lattice(radius, mp):
    """Every q = p + m'/2 with |p|_inf <= radius and, where m'_i = 1, also
    p_i = -radius - 1, in meshgrid order."""
    axes = [np.arange(-radius - b, radius + 1) + b / 2 for b in mp]
    return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)


def _reference_sum(tau, z, m, radius):
    """theta[m'; m''](tau, z) and its z-gradient as one lattice sum per
    characteristic, exp(pi i (q^t tau q + 2 q.(z + m''/2))) over the meshgrid
    lattice, each with its rounding allowance n_terms * eps * sum |term|."""
    q = _meshgrid_lattice(radius, m.mp)
    shift = z.z + np.array(m.mpp, float) / 2
    terms = np.exp(1j * math.pi * (np.einsum("ni,ni->n", q @ tau.tau, q) + 2.0 * (q @ shift)))
    grads = 2j * math.pi * q * terms[:, None]
    n = len(terms)
    return terms.sum(), n * EPS * np.abs(terms).sum(), grads.sum(0), n * EPS * np.abs(grads).sum(0)


def _anisotropic_tau(rng, g, lam_min):
    """Im tau = Q diag(lam_min, up to 4 lam_min) Q^t with Q random orthogonal,
    Re tau symmetric uniform in [-1/2, 1/2]."""
    x = rng.uniform(-0.5, 0.5, (g, g))
    q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    lam = lam_min * np.concatenate([[1.0], rng.uniform(1.0, 4.0, g - 1)])
    y = (q * lam) @ q.T
    return th.PeriodMatrix(g, (x + x.T) / 2 + 1j * (y + y.T) / 2)


def _z_with_imz_l1(rng, g, imz_l1):
    """Re z uniform in [-1/2, 1/2]; Im z with negative entries summing to
    -imz_l1, against which q = p + m'/2 reaches |q|_inf = r + 1/2 on shell r,
    so the linear part of the term bound is attained."""
    v = rng.uniform(-1.0, -0.1, g)
    return th.PhasePoint(g, rng.uniform(-0.5, 0.5, g) + 1j * v * (imz_l1 / np.abs(v).sum()))


def _reference_radius(g, lam, imz_l1, tol):
    """The tight tail bound as a plain loop: shells r > radius up to 599,
    each (2r + 1)^g - (2r - 1)^g points at exp(-pi lam (r - 1/2)^2
    + 2 pi (r + 1/2) |Im z|_1)."""
    for radius in range(1, 200):
        tail = 0.0
        for r in range(radius + 1, 600):
            log_term = -math.pi * lam * (r - 0.5) ** 2 + 2 * math.pi * (r + 0.5) * imz_l1
            tail += ((2 * r + 1) ** g - (2 * r - 1) ** g) * math.exp(max(log_term, -745.0))
        if tail < tol:
            return radius, tail


class TestPeriodMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            th.PeriodMatrix(2, np.array([[1j, 0.5], [0.2, 1j]]))

    def test_rejects_non_positive_imaginary(self):
        with pytest.raises(ValueError):
            th.PeriodMatrix(2, np.array([[1j, 0], [0, -1j]]))

    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_rejects_non_finite(self, g, bad, part):
        tau = np.array(TAUS[g][0].tau)
        if part == "re":
            tau[0, 0] = bad + 1j * tau[0, 0].imag
        else:
            tau[0, 0] = tau[0, 0].real + 1j * bad
        with pytest.raises(ValueError, match="tau entries must be finite"):
            th.PeriodMatrix(g, tau)

    def test_json_round_trip(self):
        tau = TAUS[2][0]
        again = th.PeriodMatrix.from_json(tau.to_json())
        assert np.allclose(again.tau, tau.tau)

    def test_phase_point_round_trip(self):
        z = random_z(RNG, 3)
        again = th.PhasePoint.from_json(z.to_json())
        assert np.allclose(again.z, z.z)

    @pytest.mark.parametrize("re, im", [
        (0.1, [[1.0, 0.0], [0.0, 1.0]]),
        ([[0.1, 0.0], [0.0, 0.1]], [1.0, 1.0]),
        ([[0.1]], [[1.0, 0.0], [0.0, 1.0]]),
    ])
    def test_json_arrays_must_be_g_by_g(self, re, im):
        # each of these would broadcast to a valid 2 x 2 tau
        with pytest.raises(ValueError, match=r"must both have shape \(2, 2\)"):
            th.PeriodMatrix.from_json({"g": 2, "re": re, "im": im})

    @pytest.mark.parametrize("re, im", [
        ([0.1, 0.2, 0.3], [0.5]),
        ([0.1], [0.5, 0.5, 0.5]),
        (0.1, 0.5),
        ([[0.1, 0.2]], [[0.5, 0.5]]),
    ])
    def test_phase_point_json_arrays_must_match(self, re, im):
        with pytest.raises(ValueError, match="must both be lists of one length"):
            th.PhasePoint.from_json({"re": re, "im": im})

    @pytest.mark.parametrize("bad", [{"a": 1}, "0.1", True, None, [1.0, "x"], 10 ** 400])
    def test_json_arrays_must_hold_numbers(self, bad):
        re = [[0.1, 0.0], [0.0, bad]]
        with pytest.raises(ValueError, match="tau JSON 're'"):
            th.PeriodMatrix.from_json({"g": 2, "re": re, "im": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ValueError, match="tau JSON 're'"):
            th.PeriodMatrix.from_json({"g": 2, "re": bad, "im": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ValueError, match="z JSON 'im'"):
            th.PhasePoint.from_json({"re": [0.1, 0.2], "im": [0.0, bad]})

    def test_json_numbers_keep_their_values(self):
        tau = th.PeriodMatrix.from_json({"g": 2, "re": [[0, 1], [1, -2]], "im": [[2, 0.5], [0.5, 1.0]]})
        assert np.array_equal(tau.tau, [[2j, 1 + 0.5j], [1 + 0.5j, -2 + 1j]])
        z = th.PhasePoint.from_json({"re": [1, -0.5], "im": [0, 2]})
        assert np.array_equal(z.z, [1, -0.5 + 2j])

    @pytest.mark.parametrize("g", [None, 3.9, 3.0, True, "3", [3]])
    def test_json_genus_must_be_an_integer(self, g):
        data = dict(TAUS[3][0].to_json(), g=g)
        with pytest.raises(ValueError, match="'g' must be an integer"):
            th.PeriodMatrix.from_json(data)

    def test_huge_entries_are_a_clean_error(self):
        # 1e308 + 1e308 overflows; the check, and the symmetrization, must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at most 1e[+]300 in modulus"):
                th.PeriodMatrix(3, 1e308j * np.eye(3))
            tau = th.PeriodMatrix(3, 1e299j * (np.eye(3) - np.eye(3)[::-1] / 4))
            assert tau.lambda_min == pytest.approx(0.75e299)
            assert th.theta(tau, th.PhasePoint.zero(3), Characteristic(3, 0)) == 1.0
            assert th.theta2(tau, random_z(RNG, 3), "000") == 1.0
            # 2 tau passes the bound on tau and is not checked again
            tau = th.PeriodMatrix(3, 6e299j * np.eye(3))
            assert th.theta2(tau, random_z(RNG, 3), "000") == 1.0

    def test_symmetry_tolerance(self):
        base = np.array(TAUS[2][0].tau)
        for asym, ok in ((2e-12, False), (5e-13, True)):
            tau = base.copy()
            tau[0, 1] += asym
            if ok:
                assert np.array_equal(th.PeriodMatrix(2, tau).tau, th.PeriodMatrix(2, tau).tau.T)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    th.PeriodMatrix(2, tau)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_inverse_of_im_tau_is_held_read_only(self, g):
        tau = TAUS[g][1]
        assert np.allclose(tau.y_inv @ tau.tau.imag, np.eye(g), rtol=0, atol=1e-12)
        assert not tau.y_inv.flags.writeable
        two = tau.doubled
        assert np.array_equal(two.y_inv, tau.y_inv / 2) and not two.y_inv.flags.writeable

    def test_doubled_is_built_once_with_a_memo_of_its_own(self):
        tau = th.PeriodMatrix(3, TAUS[3][1].tau)
        assert tau.memo == {} and tau.memo is not TAUS[3][1].memo
        assert tau.doubled is tau.doubled and tau.doubled.memo == {}
        th.theta2(tau, th.PhasePoint(3, [0.1, 0.2j, -0.3]), "101")
        assert tau.doubled.memo and tau.memo == {}

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_doubled_equals_the_checked_2tau(self, g):
        # 2 tau's lambda_min is tau's doubled, with no eigvalsh of its own: the
        # same float as eigvalsh(2 Im tau), here over lambda_min from 0.05 to 3
        # and, at g = 3, conditions 1e3 to 1e12 (y_inv None from 1e9 on)
        rng = stream(43, f"test_theta.doubled.{g}")
        taus = TAUS[g] + [_anisotropic_tau(rng, g, lam) for lam in (0.05, 0.25, 3.0) for _ in range(10)]
        if g == 3:
            taus += [_conditioned_tau(rng, cond) for cond in (1e3, 1e6, 1e9, 1e12) for _ in range(10)]
        for tau in taus:
            two, checked = tau.doubled, th.PeriodMatrix(g, 2 * tau.tau)
            assert np.array_equal(two.tau, checked.tau) and not two.tau.flags.writeable
            assert (two.g, two.lambda_min, two.tau.tobytes()) == \
                (g, checked.lambda_min, checked.tau.tobytes())
            assert two.lambda_min == float(np.linalg.eigvalsh(2 * tau.tau.imag).min())
            assert (two.y_inv is None) == (checked.y_inv is None)
            assert two.y_inv is None or np.array_equal(two.y_inv, checked.y_inv)


def _translations(g):
    """Symmetric integer S with entries in -1..1, one with entries 5 and -7
    (so |Re tau + S| > 4 is reduced), and the float S of the same integers."""
    rng = stream(47, f"test_theta.translated.{g}")
    out = []
    for _ in range(4):
        s = rng.integers(-1, 2, size=(g, g))
        out.append(np.triu(s) + np.triu(s, 1).T)
    big = np.full((g, g), -7) + 12 * np.eye(g, dtype=int)
    return out + [big, big.astype(float)]


class TestIdentityEquality:
    """A period matrix and a phase point equal only themselves and hash by
    identity, the semantics each tau's own memo rests on; equal arrays in two
    objects are two keys."""

    @pytest.mark.parametrize("make", [lambda: th.PeriodMatrix(2, 1j * np.eye(2)),
                                      lambda: th.PhasePoint(2, np.zeros(2))])
    def test_equal_only_to_itself(self, make):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert a != "tau" and not a == None  # noqa: E711
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2 and {a: 1}[a] == 1


class TestTranslated:
    """tau + S for a modular translation reuses tau's lambda_min and y_inv."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_facts_equal_the_checked_tau_plus_s(self, g):
        rng = stream(53, f"test_theta.translated.taus.{g}")
        taus = TAUS[g] + [_anisotropic_tau(rng, g, lam) for lam in (0.05, 1.0)]
        if g == 3:
            taus.append(_conditioned_tau(rng, 1e12))  # y_inv None
        for tau in taus:
            for s in _translations(g):
                moved, checked = tau._translated(s), th.PeriodMatrix(g, tau.tau + s)
                assert np.array_equal(moved.tau, checked.tau) and not moved.tau.flags.writeable
                assert (moved.g, moved.lambda_min, moved.tau.tobytes()) == \
                    (g, checked.lambda_min, checked.tau.tobytes())
                assert (moved.y_inv is None) == (checked.y_inv is None)
                assert moved.y_inv is None or np.array_equal(moved.y_inv, checked.y_inv)
                assert np.array_equal(moved.re_reduced, checked.re_reduced)
                assert np.abs(moved.re_reduced).max() <= 4 and not moved.re_reduced.flags.writeable
        assert np.abs(taus[0]._translated(_translations(g)[-2]).tau.real).max() > 4

    def test_transform_builds_no_eigvalsh_or_inverse(self, monkeypatch):
        tau, z, s = TAUS[3][0], random_z(RNG, 3), _translations(3)[0]
        calls = []
        for name in ("eigvalsh", "inv"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        moved = quartics._transform(tau, z, ("S", s))[0]
        assert calls == []
        assert moved.tau.tobytes() == th.PeriodMatrix(3, tau.tau + s).tau.tobytes()
        assert calls == ["eigvalsh", "inv"]  # the checked constructor makes both

    @pytest.mark.parametrize("s, match", [
        (np.triu(np.ones((3, 3))), "integer symmetric"),
        (np.full((3, 3), 0.5), "integer symmetric"),
        (np.full((3, 3), math.nan), "integer symmetric"),
        (1j * np.eye(3), "integer symmetric"),
        (np.eye(2), "integer symmetric"),
        (np.full((3, 3), math.inf), "must be finite"),
        (np.full((3, 3), 2e300), "at most 1e[+]300"),
    ])
    def test_keeps_the_constructor_errors(self, s, match):
        with pytest.raises(ValueError, match=match):
            TAUS[3][0]._translated(s)


def _numpy_checked(tau):
    """The symmetrized tau and reduced Re tau of the constructor's numpy
    checks, or the message of the ValueError they raise."""
    tau = np.asarray(tau, dtype=complex)
    if not np.isfinite(tau).all():
        return "tau entries must be finite"
    if np.abs(tau).max() > 1e300:
        return "tau entries must be at most 1e+300 in modulus"
    if np.abs(tau - tau.T).max() > 1e-12:
        return "tau must be symmetric"
    sym = tau / 2 + tau.T / 2
    x = sym.real
    if np.abs(x).max() > 4:
        x = x - np.where(np.abs(x) > 4, 8 * np.round(x / 8), 0.0)
    return sym, x


def _point_facts(point):
    """Every fact of a PhasePoint, as bytes where a float's sign of zero counts."""
    return (point.g, point.z.tobytes(), point.reduced.tobytes(), point.is_zero,
            np.float64(point.imz_l1).tobytes(), point.key, np.array(point.parts).tobytes(),
            point.z.flags.writeable, point.reduced.flags.writeable)


class TestUncheckedFacts:
    """The constructors check tau on Python floats and build 2 z without
    checks; every fact and every error is that of numpy's checks."""

    @staticmethod
    def _taus(g):
        rng = stream(59, f"test_theta.unchecked.{g}")
        base = [_anisotropic_tau(rng, g, lam).tau for lam in (0.05, 1.0, 3.0)]
        out = []
        for tau in base:
            out.append(tau.copy())
            signed = tau.copy()
            signed[0, 0] = complex(-0.0, signed[0, 0].imag)
            signed.flat[-1] = complex(-0.0, -0.0)
            out.append(signed)
            out.append(tau + 12.5 + 1e-300j)  # Re tau above 4, a subnormal-scale part
            for gap in (3e-13, 6e-13, 9e-13, 2e-12, 1e-12 * (1 + 1j)):
                off = tau.copy()
                off.flat[g - 1] += gap  # tau_{0, g-1}, the diagonal at g = 1
                out.append(off)
            for scale in (1e299, 3e299, 7.1e299, 1e300, 1.5e300):
                out.append(tau * scale)
            for bad in (math.nan, math.inf, -math.inf):
                broken = tau.copy()
                broken.flat[-1] = complex(0.5, bad)
                out.append(broken)
        return out

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_period_matrix_facts_equal_numpy_checks(self, g):
        seen = set()
        for raw in self._taus(g):
            want = _numpy_checked(raw)
            try:
                tau = th.PeriodMatrix(g, raw)
            except ValueError as exc:
                assert str(exc) == (want if isinstance(want, str) else
                                    "Im(tau) must be positive definite")
                seen.add(str(exc))
                continue
            sym, x = want
            assert tau.tau.tobytes() == sym.tobytes() and not tau.tau.flags.writeable
            assert tau.re_reduced.tobytes() == x.tobytes() and not tau.re_reduced.flags.writeable
            assert tau.lambda_min == float(np.linalg.eigvalsh(sym.imag).min())
            assert (tau.g, tau.tau.tobytes()) == (g, sym.tobytes())
            seen.add("ok")
        assert {"ok", "tau entries must be finite",
                "tau entries must be at most 1e+300 in modulus"} <= seen
        assert ("tau must be symmetric" in seen) == (g > 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_translated_facts_equal_numpy_checks(self, g):
        tau = TAUS[g][0]
        for s in _translations(g) + [np.full((g, g), 1e300), np.full((g, g), 4e299)]:
            want = _numpy_checked(tau.tau + s)
            try:
                moved = tau._translated(s)
            except ValueError as exc:
                assert str(exc) == want
                continue
            assert moved.tau.tobytes() == want[0].tobytes()
            assert moved.re_reduced.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_doubled_facts_equal_the_checked_constructor(self, g):
        rng = stream(61, f"test_theta.unchecked_doubled.{g}")
        points = [random_z(rng, g).z for _ in range(4)]
        points += [rng.uniform(-3, 3, g) + 1j * rng.uniform(-2, 2, g) for _ in range(4)]
        points += [np.full(g, x) + 1j * np.full(g, y)
                   for x in (1.0, -1.0, 0.5, -0.75, 0.25, -0.0, 0.0, 2.5e-310, 3.0)
                   for y in (0.0, -0.0, 0.3, -1e-310, 37.0)]
        for z in points:
            point = th.PhasePoint(g, z)
            assert _point_facts(point.doubled) == _point_facts(th.PhasePoint(g, 2 * point.reduced))
            assert point.doubled.imz_l1 == 2 * point.imz_l1

    @pytest.mark.parametrize("cls, args", [
        (th.PeriodMatrix, (0, np.zeros((0, 0)))),
        (th.PhasePoint, (0, [])),
        (th.PhasePoint, (0, np.zeros(0, complex))),
    ])
    def test_genus_zero_is_a_value_error(self, cls, args):
        with pytest.raises(ValueError, match="^genus must be at least 1, not 0$"):
            cls(*args)

    # (3.0, 3.0) == (3, 3), so a float genus passed the shape check, and the
    # kernel failed later on a shift by a float; True == 1 likewise
    @pytest.mark.parametrize("g", [3.0, True, np.int64(3), "3"])
    def test_period_matrix_genus_is_a_python_int(self, g):
        with pytest.raises(ValueError, match=f"^genus must be an integer, not {re.escape(repr(g))}$"):
            th.PeriodMatrix(g, 1j * np.eye(int(g)))

    @pytest.mark.parametrize("g", [3.0, True, np.int64(3), "3"])
    def test_phase_point_genus_is_a_python_int(self, g):
        with pytest.raises(ValueError, match=f"^genus must be an integer, not {re.escape(repr(g))}$"):
            th.PhasePoint(g, np.zeros(int(g)))

    @pytest.mark.parametrize("z, shown", [
        ([1e308j, 1e308j, 0], "inf"),
        ([1e308j, 0, 0], "1e+308"),
        ([1e308 + 0.5j, 113j, -113j], "226.5"),
        ([0, 100j, -126j], "226"),
    ])
    def test_overflowing_imaginary_z_is_a_value_error_without_warning(self, z, shown):
        # pi |Im z|_1 >= log(DBL_MAX) overflows the q = 0 term at every tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                th.PhasePoint(3, z)
        assert str(info.value) == ("theta terms overflow double precision at every tau: "
                                   f"|Im z|_1 = {shown}")

    def test_largest_imaginary_z_below_the_bound_is_accepted(self):
        # 225.9 is below log(DBL_MAX) / pi = 225.94: accepted, and the sum at
        # any tau still overflows at its radius search
        point = th.PhasePoint(3, [0, 100j, -125.9j])
        assert point.imz_l1 == 225.9 and math.isfinite(point.doubled.imz_l1)
        with pytest.raises(ValueError, match="overflow double precision at lambda_min"):
            th.truncation_radius(TAUS[3][0], point)


class TestPhasePointFacts:
    """is_zero, |Im z|_1, the key bytes and 2 z are computed once per point."""

    @pytest.mark.parametrize("z", [
        [0.0, 0.0, 0.0],
        [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)],
        [0.0, 1e-300j, 0.0],
        [-2.5e-310, 0.0, 0.0],
        [0.3 - 0.2j, -0.1 + 0.4j, 0.05j],
    ])
    def test_facts_match_their_definitions(self, z):
        point = th.PhasePoint(3, np.array(z, dtype=complex))
        assert point.is_zero == (not any(v != 0 for v in z))
        assert point.imz_l1 == sum(abs(complex(v).imag) for v in z)
        assert point.key == np.array(z, dtype=complex).tobytes()

    def test_reduced_point_is_an_exact_even_shift(self):
        z = np.array([3.7 - 0.2j, -1e17 + 0.1j, 1.0, -1.0 - 0.0j, 1e308, -2.5, 1 + 2 ** -52, 0.3j])
        point = th.PhasePoint(len(z), z)
        x, r = point.z.real, point.reduced.real
        assert np.all(np.abs(r) <= 1) and not point.reduced.flags.writeable
        assert np.all((x - r) % 2 == 0) and np.array_equal(point.reduced.imag, z.imag)
        assert np.array_equal(r[[2, 3, 7]], x[[2, 3, 7]])
        assert point.key == point.reduced.tobytes() and not point.is_zero
        assert th.PhasePoint(2, [2.0, -4.0]).is_zero
        near = th.PhasePoint(3, [1.0, -0.0, 0.5j])
        assert near.reduced is near.z

    def test_doubled_point_is_built_once(self, monkeypatch):
        z = random_z(stream(21, "test_theta.doubled"), 3)
        built = []
        set_facts = th.PhasePoint._set

        def counted(self, *args):
            built.append(self)
            return set_facts(self, *args)

        monkeypatch.setattr(th.PhasePoint, "_set", counted)
        quartics.theta2_vector(TAUS[3][2], z)
        assert len(built) == 1 and np.array_equal(built[0].z, 2 * z.z)
        assert z.doubled is built[0]
        quartics.theta2_vector(TAUS[3][0], z)
        assert len(built) == 1

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_zero_is_one_read_only_instance(self, g):
        zero = th.PhasePoint.zero(g)
        assert th.PhasePoint.zero(g) is zero and zero.is_zero and zero.g == g
        assert np.array_equal(zero.z, np.zeros(g)) and zero.reduced is zero.z
        for array in (zero.z, zero.reduced):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert zero.parts == ((0.0,) * g, (0.0,) * g)

    def test_shared_zero_leaves_reports_unchanged(self, monkeypatch, fresh_memos):
        def reports():
            fresh_memos()
            return [{k: v for k, v in run_suite(name, 2).to_json().items() if k != "wall_time"}
                    for name in ("jacobi", "coble", "kummer2", "points")]

        shared = reports()
        monkeypatch.setattr(th.PhasePoint, "zero", classmethod(lambda cls, g: cls(g, np.zeros(g, complex))))
        assert th.PhasePoint.zero(3) is not th.PhasePoint.zero(3)
        assert reports() == shared

    def test_equal_inputs_share_one_truncation_spec(self):
        tau, z = TAUS[2][1], random_z(RNG, 2)
        spec = th.truncation_radius(tau, z, 1e-10)
        again = th.truncation_radius(th.PeriodMatrix(2, tau.tau.copy()), th.PhasePoint(2, z.z.copy()), 1e-10)
        assert again is spec and spec.tol == 1e-10
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.radius = 1


class TestTruncation:
    def test_shell_tables_give_the_term_bound_bit_for_bit(self):
        rng = stream(6, "test_theta.shells")
        r = np.arange(1, th._SHELLS + 1, dtype=float)
        for g in (1, 2, 3):
            log_count, sq, lin = th._shells(g)
            assert np.array_equal(log_count, g * np.log(2 * r + 1)
                                  + np.log1p(-(((2 * r - 1) / (2 * r + 1)) ** g)))
            for _ in range(50):
                lam, imz_l1 = float(np.exp(rng.uniform(-6.0, 2.0))), float(rng.uniform(0.0, 40.0))
                assert np.array_equal(-math.pi * lam * sq + lin * imz_l1,
                                      th._term_log_bound(lam, imz_l1, r))

    def test_tail_bound_below_tol(self):
        for g in (1, 2, 3):
            spec = th.truncation_radius(TAUS[g][0], th.PhasePoint.zero(g), 1e-12)
            assert spec.certified_tail_bound < 1e-12

    def test_oversampling_oracle(self):
        # recomputing with radius + 3 extra shells must agree within tol
        for g in (1, 2, 3):
            tau = TAUS[g][0]
            z = random_z(RNG, g)
            m = Characteristic(g, 1)
            base = th.theta(tau, z, m, 1e-12)

            spec = th.truncation_radius(tau, z, 1e-12)
            _, expo = _direct_terms(tau, z, m, spec.radius + 3)
            oracle = complex(np.exp(1j * math.pi * expo).sum())
            assert abs(base - oracle) < 1e-11

    def test_radius_matches_python_loop(self):
        rng = stream(5, "test_theta.reference_radius")
        for _ in range(120):
            g = int(rng.integers(1, 4))
            lam = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            tol = float(rng.choice([1e-7, 1e-8, 1e-12, 1e-15]))
            tau = th.PeriodMatrix(g, 1j * lam * np.eye(g))
            z = th.PhasePoint(g, 1j * np.full(g, rng.uniform(0.0, 3.0) / g))
            spec = th.truncation_radius(tau, z, tol)
            imz_l1 = float(np.abs(z.z.imag).sum())
            radius, tail = _reference_radius(g, tau.lambda_min, imz_l1, tol)
            assert spec.radius == radius
            assert spec.certified_tail_bound == pytest.approx(tail, rel=1e-10, abs=1e-300)


    def test_window_radius_equals_the_599_shell_radius(self):
        # g = 1-3, lambda_min 0.01-20, |Im z|_1 0-3 (a fifth at 0), tol
        # 1e-16-1e-6: the same radius, or the same ValueError, as the tail sum
        # over all 599 shells, and a tail bound within 1e-12 relative
        rng = stream(7, "test_theta.window_radius")
        outcomes = {"radius": 0, "overflow": 0, "range": 0}
        for _ in range(3000):
            g = int(rng.integers(1, 4))
            lam = float(np.exp(rng.uniform(math.log(0.01), math.log(20.0))))
            imz_l1 = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 3.0))
            tol = float(10.0 ** rng.uniform(-16.0, -6.0))
            want = _radius_over_all_shells(g, lam, imz_l1, tol)
            try:
                spec = th._radius.__wrapped__(g, lam, imz_l1, tol)
            except ValueError as exc:
                assert str(exc) == want
                outcomes["overflow" if "overflow" in want else "range"] += 1
                continue
            radius, tail = want
            assert spec.radius == radius
            assert spec.certified_tail_bound == pytest.approx(tail, rel=1e-12, abs=0)
            outcomes["radius"] += 1
        assert min(outcomes.values()) >= 20, outcomes


def _radius_over_all_shells(g, lam, imz_l1, tol):
    """(radius, tail bound) from the log-domain tail sum over all 599 shells,
    or the message of the ValueError it raises."""
    log_count, sq, lin = th._shells(g)
    log_shell = log_count + (-math.pi * lam * sq + lin * imz_l1)
    log_tail = np.logaddexp.accumulate(log_shell[::-1])[::-1]
    if np.logaddexp(math.pi * imz_l1, log_tail[0]) >= math.log(sys.float_info.max):
        return (f"theta terms overflow double precision at lambda_min = {lam:.6g}, "
                f"|Im z|_1 = {imz_l1:.6g}")
    tails = np.exp(log_tail[1:200])
    below = np.flatnonzero(tails < tol)
    if below.size == 0:
        return "truncation radius exceeds the supported range"
    return int(below[0]) + 1, float(tails[below[0]])


# The second-order regime: theta[eps; 0](2 tau, 2 z) at anisotropic tau, so
# the lattice sum sees lambda_min in {0.5, 1} and |Im z|_1 up to 3.
TIGHT_CASES = [
    (g, lam, imz_l1, top)
    for g in (1, 2, 3)
    for lam in (0.25, 0.5)
    for imz_l1 in (0.5, 1.5)
    for top in (0, 1)
]


@pytest.mark.parametrize("g, lam, imz_l1, top", TIGHT_CASES)
class TestTightBound:
    def _case(self, g, lam, imz_l1, top):
        rng = stream(11, f"test_theta.tight.{g}.{lam}.{imz_l1}.{top}")
        tau = _anisotropic_tau(rng, g, lam)
        z = _z_with_imz_l1(rng, g, imz_l1)
        m = Characteristic.from_bits([top] * g, [0] * g)
        return th.PeriodMatrix(g, 2 * tau.tau), th.PhasePoint(g, 2 * z.z), m

    def test_truncation_error_within_certified_bound(self, g, lam, imz_l1, top):
        tau, z, m = self._case(g, lam, imz_l1, top)
        spec = th.truncation_radius(tau, z)
        _, expo = _direct_terms(tau, z, m, spec.radius + 12)
        terms = np.exp(1j * math.pi * expo)
        # rounding allowance of the two sums: n_terms * eps * sum |term|
        allowance = len(terms) * EPS * np.abs(terms).sum()
        error = abs(th.theta(tau, z, m) - terms.sum())
        assert error <= spec.certified_tail_bound + allowance

    def test_every_term_obeys_its_shell_bound(self, g, lam, imz_l1, top):
        tau, z, m = self._case(g, lam, imz_l1, top)
        spec = th.truncation_radius(tau, z)
        p, expo = _direct_terms(tau, z, m, spec.radius + 12)
        shell = np.abs(p).max(axis=1)
        log_modulus = -math.pi * expo.imag
        bound = th._term_log_bound(tau.lambda_min, float(np.abs(z.z.imag).sum()), shell)
        outer = shell >= 1
        assert np.all(log_modulus[outer] <= bound[outer] + 1e-9 * np.abs(bound[outer]))


def _exactly_reduced(tau):
    """tau with every Re tau_ij of modulus above 4 shifted by
    8 round(Re tau_ij / 8), in rational arithmetic; the result is a float."""
    out = tau.copy()
    for (i, j), x in np.ndenumerate(tau.real):
        if abs(x) > 4:
            exact = Fraction(x) - 8 * round(Fraction(x) / 8)
            assert float(exact) == exact
            out[i, j] = complex(float(exact), tau[i, j].imag)
    return out


class TestRobustness:
    def test_large_imaginary_z_is_finite(self):
        tau = th.PeriodMatrix(1, np.array([[1j]]))
        z = th.PhasePoint(1, [5j])
        m = Characteristic(1, 0)
        value = th.theta(tau, z, m)
        assert np.isfinite(value)
        spec = th.truncation_radius(tau, z)
        _, expo = _direct_terms(tau, z, m, spec.radius + 12)
        oracle = np.exp(1j * math.pi * expo).sum()
        assert abs(value - oracle) <= 1e-12 + len(expo) * EPS * abs(oracle)
        tau3 = th.PeriodMatrix(3, 1j * np.eye(3))
        assert np.isfinite(th.theta(tau3, th.PhasePoint(3, [5j, 0, 0]), Characteristic(3, 0)))

    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("imz", [30.0, 60.0, 100.0])
    def test_overflowing_terms_raise_value_error(self, g, imz):
        tau = th.PeriodMatrix(g, 1j * np.eye(g))
        z = th.PhasePoint(g, [imz * 1j] + [0] * (g - 1))
        with pytest.raises(ValueError, match="lambda_min = 1, [|]Im z[|]_1 = " + str(int(imz))):
            th.theta(tau, z, Characteristic(g, 0))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_even_integer_shift_of_z(self, g):
        # theta[m](z + 2 b) = theta[m](z) for integer b
        rng = stream(31, f"test_theta.even_shift.{g}")
        tau, z = TAUS[g][0], random_z(rng, g)
        shifted = th.PhasePoint(g, z.z + 2 * rng.integers(-4, 5, g))
        radius = th.truncation_radius(tau, z).radius
        for m in enumerate_characteristics(g, "all"):
            want, allowance, _, _ = _reference_sum(tau, z, m, radius)
            assert abs(th.theta(tau, shifted, m) - want) <= 1e-12 + allowance

    def test_huge_real_z(self):
        # Re z = 1e17 is an even integer: the terms' phases are those at Re z = 0,
        # which a sum at 1e17 loses (normalized Coble residual 0.011)
        tau = th.PeriodMatrix(3, 1j * np.eye(3) + 0.05)
        far, near = (th.PhasePoint(3, np.array([x0, 0.1, 0.2]) + 0.1j) for x0 in (1e17, 0.0))
        value, scale = quartics.coble_eval(tau, far)
        assert abs(value) / scale < 1e-12
        assert (value, scale) == quartics.coble_eval(tau, near)
        z = th.PhasePoint(3, [1e308, 0.3, -1e308 + 0.1j])
        for value in (th.theta(tau, z, Characteristic(3, 0)), th.theta2(tau, z, "101")):
            assert np.isfinite(value) and value != 0

    @pytest.mark.parametrize("re01", [0.07 + 8e8, 0.07 + 8e12, 1e17, 1e300])
    def test_huge_real_tau_equals_the_exactly_reduced_tau(self, re01):
        # theta[m](tau + 8 T, z) = theta[m](tau, z) for T integer symmetric; a
        # sum at Re tau as given loses the phase (normalized Coble residuals
        # 9.0e-7, 6.7e-3, 1.28 and 1.79 at these four Re tau_01)
        far = modular.reference_tau3().tau.copy()
        far[0, 1] = far[1, 0] = complex(re01, far[0, 1].imag)
        far[2, 2] += 40
        far, near = th.PeriodMatrix(3, far), th.PeriodMatrix(3, _exactly_reduced(far))
        assert np.array_equal(far.tau.imag, near.tau.imag) and np.abs(near.tau.real).max() <= 4
        z = th.PhasePoint(3, [0.1 + 0.05j, -0.2 + 0.1j, 0.05 - 0.04j])
        for m in enumerate_characteristics(3, "all"):
            assert th.theta(far, z, m) == th.theta(near, z, m)
        value, scale = quartics.coble_eval(far, z)
        assert (value, scale) == quartics.coble_eval(near, z) and abs(value) / scale < 1e-12

    def test_non_positive_tol_rejected(self):
        for tol in (0.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                th.truncation_radius(TAUS[2][0], th.PhasePoint.zero(2), tol)

    def test_radius_beyond_supported_range_rejected(self):
        tau = th.PeriodMatrix(1, np.array([[1e-5j]]))
        with pytest.raises(ValueError, match="exceeds the supported range"):
            th.truncation_radius(tau, th.PhasePoint.zero(1))


class TestThetaSymmetries:
    def test_odd_at_zero_is_exact_zero(self):
        for g in (1, 2, 3):
            z0 = th.PhasePoint.zero(g)
            for m in enumerate_characteristics(g, "odd"):
                assert th.theta(TAUS[g][0], z0, m) == 0.0

    def test_z_parity(self):
        # theta_m(tau, -z) = parity(m) * theta_m(tau, z)
        for g in (1, 2, 3):
            tau = TAUS[g][1]
            z = random_z(RNG, g)
            for m in list(enumerate_characteristics(g, "all"))[:6]:
                a = th.theta(tau, th.PhasePoint(g, -z.z), m)
                b = m.parity * th.theta(tau, z, m)
                assert abs(a - b) < 1e-10

    def test_integer_shift_quasiperiodicity(self):
        # theta_m(tau, z + b) = (-1)^{m'.b} theta_m(tau, z) for integer b
        g = 2
        tau = TAUS[g][2]
        z = random_z(RNG, g)
        b = np.array([1.0, 0.0])
        for m in list(enumerate_characteristics(g, "all"))[:8]:
            lhs = th.theta(tau, th.PhasePoint(g, z.z + b), m)
            sign = (-1) ** int(np.dot(m.mp, b) % 2)
            assert abs(lhs - sign * th.theta(tau, z, m)) < 1e-9

    def test_lattice_shift_quasiperiodicity(self):
        # theta_m(z + tau a) = exp(-pi i a tau a - 2 pi i a.(z + m''/2)) theta_m(z)
        g = 2
        tau = TAUS[g][0]
        z = random_z(RNG, g)
        a = np.array([1.0, 0.0])
        for m in list(enumerate_characteristics(g, "all"))[:8]:
            lhs = th.theta(tau, th.PhasePoint(g, z.z + tau.tau @ a), m, 1e-13)
            factor = np.exp(
                -1j * math.pi * (a @ tau.tau @ a)
                - 2j * math.pi * (a @ (z.z + np.array(m.mpp) / 2))
            )
            rhs = factor * th.theta(tau, z, m, 1e-13)
            assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-9


class TestGradient:
    def test_finite_difference_oracle(self):
        h = 1e-5
        for g in (1, 2, 3):
            tau = TAUS[g][0]
            m = list(enumerate_characteristics(g, "odd"))[0]
            grad = th.theta_gradient(tau, m)
            for k in range(g):
                zp = np.zeros(g, complex)
                zp[k] = h
                fd = (
                    th.theta(tau, th.PhasePoint(g, zp), m)
                    - th.theta(tau, th.PhasePoint(g, -zp), m)
                ) / (2 * h)
                assert abs(grad[k] - fd) < 1e-6 * max(1.0, abs(grad[k]))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            th.theta_gradient(TAUS[2][0], Characteristic(2, 0))


class TestJacobianDet:
    def test_antisymmetry(self):
        tau = TAUS[2][0]
        odds = list(enumerate_characteristics(2, "odd"))
        a = th.jacobian_det(tau, odds[:2])
        b = th.jacobian_det(tau, [odds[1], odds[0]])
        assert abs(a + b) < 1e-12 * abs(a)

    def test_cached_gradient_is_theta_gradient(self):
        # a tau no other test evaluates, so the first call is a memo miss
        tau = random_tau(stream(7, "test_theta.cached_gradient"), 3)
        m = list(enumerate_characteristics(3, "odd"))[0]
        want = th.theta_gradient(tau, m)
        miss = th.cached_gradient(tau, m)
        hit = th.cached_gradient(tau, m)
        assert np.array_equal(miss, want)
        assert hit is miss

    def test_cached_gradient_rejects_genus_mismatch(self):
        # the memo key holds the index, not the genus, of the characteristic
        tau = TAUS[3][0]
        m = list(enumerate_characteristics(3, "odd"))[0]
        th.cached_gradient(tau, m)
        with pytest.raises(ValueError, match="genus mismatch"):
            th.cached_gradient(tau, Characteristic(2, m.idx))

    def test_rejects_wrong_count(self):
        odds = list(enumerate_characteristics(3, "odd"))
        with pytest.raises(ValueError, match="need exactly 3"):
            th.jacobian_det(TAUS[3][0], odds[:2])

    def test_rejects_duplicates(self):
        odds = list(enumerate_characteristics(2, "odd"))
        with pytest.raises(ValueError):
            th.jacobian_det(TAUS[2][0], [odds[0], odds[0]])


class TestSecondOrder:
    def test_definition_consistency(self):
        g = 2
        tau = TAUS[g][0]
        z = random_z(RNG, g)
        for e in range(1 << g):
            bits = format(e, f"0{g}b")
            direct = th.theta2(tau, z, bits)
            m = Characteristic.from_bits([int(b) for b in bits], [0] * g)
            expect = th.theta(
                th.PeriodMatrix(g, 2 * tau.tau), th.PhasePoint(g, 2 * z.z), m
            )
            assert direct == expect

    def test_rejects_non_binary_digits(self):
        with pytest.raises(ValueError):
            th.theta2(TAUS[3][0], th.PhasePoint.zero(3), "012")

    @pytest.mark.parametrize("eps", ["\uff1101", "1x1", "1\u06f11", " 01"])
    def test_only_ascii_zeros_and_ones_are_bits(self, eps):
        # int() reads a fullwidth or Arabic-Indic 1 as 1, and names only the
        # digit it cannot read
        with pytest.raises(ValueError, match=f"^malformed second-order top row {re.escape(repr(eps))}: "):
            th.theta2(TAUS[3][0], th.PhasePoint.zero(3), eps)

    @pytest.mark.parametrize("eps", [["1", "0", "1"], ("1", "0", "1"), 101, b"101", None])
    def test_a_top_row_that_is_not_a_string_is_a_value_error(self, eps):
        with pytest.raises(ValueError, match=f"^malformed second-order top row {re.escape(repr(eps))}: "):
            th.theta2(TAUS[3][0], th.PhasePoint.zero(3), eps)

    @pytest.mark.parametrize("kind", ["theta2", "coble_eval", "coble_gradient"])
    def test_overflow_at_doubled_point_names_the_callers_inputs(self, kind):
        # the pass at (2 tau, 2 z) overflows; the caller gave lambda_min = 1
        # and |Im z|_1 = 150, not the 2 and 300 of that pass
        tau, z = th.PeriodMatrix(3, 1j * np.eye(3)), th.PhasePoint(3, [150j, 0, 0])
        call = (lambda: th.theta2(tau, z, "000")) if kind == "theta2" else (
            lambda: getattr(quartics, kind)(tau, z))
        want = ("theta terms overflow double precision at (2 tau, 2 z), for tau with "
                "lambda_min = 1 and z with |Im z|_1 = 150")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_even_in_z_up_to_rounding(self, g):
        # at tol = 1e-3 the truncation error is far above round-off (2.5e-4
        # at g = 1), but the summed set of q = p + m'/2 is symmetric under
        # q -> -q, so theta2 at -z sums the same terms and differs by round-off
        tau = th.PeriodMatrix(g, 0.25j * np.eye(g) + 0.1)
        z = th.PhasePoint(g, np.full(g, 0.3 + 0.05j))
        for tol in (1e-12, 1e-3):
            a = th.theta2(tau, z, "1" * g, tol)
            b = th.theta2(tau, th.PhasePoint(g, -z.z), "1" * g, tol)
            assert abs(a - b) < 1e-14

    def test_even_in_z(self):
        g = 3
        tau = TAUS[g][0]
        z = random_z(RNG, g)
        for e in ("000", "101"):
            a = th.theta2(tau, z, e)
            b = th.theta2(tau, th.PhasePoint(g, -z.z), e)
            assert abs(a - b) < 1e-10


def _addition_residual(g):
    """The worst normalized residual of Riemann's second-order addition
    formula theta[a; b](tau, z)^2 = sum_eps (-1)^{eps.b} Theta[eps](tau, z)
    Theta[eps + a](tau, 0), over all 4^g characteristics [a; b] at 4 seeded
    (tau, z): |lhs - sum of terms| / sum |terms|."""
    rng = stream(17, f"test_theta.addition.{g}")
    n, worst = 1 << g, 0.0
    labels = [format(e, f"0{g}b") for e in range(n)]
    for _ in range(4):
        tau, z = random_tau(rng, g), random_z(rng, g)
        at_z = [th.theta2(tau, z, eps) for eps in labels]
        at_0 = [th.theta2(tau, th.PhasePoint.zero(g), eps) for eps in labels]
        for m in enumerate_characteristics(g, "all"):
            a, b = m.mp_int, m.mpp_int
            terms = [(-1) ** (e & b).bit_count() * at_z[e] * at_0[e ^ a] for e in range(n)]
            worst = max(worst, abs(th.theta(tau, z, m) ** 2 - sum(terms)) / sum(map(abs, terms)))
    return worst


class TestSecondOrderAddition:
    """theta[m](tau, z) at z != 0 for every characteristic, against the
    second-order thetas at (2 tau, 2 z) and (2 tau, 0), which come from other
    passes.  The worst residuals measured are 3.8e-16, 4.9e-16 and 6.9e-16
    at g = 1, 2, 3; the bound is 20 times the largest.  A radius one short
    reads 5.2e-10, 1.3e-11 and 1.2e-11, a swapped sign-matrix column about 1."""

    BOUND = 1.4e-14

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_holds_for_every_characteristic(self, g):
        assert _addition_residual(g) < self.BOUND

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_radius_one_short_fails(self, monkeypatch, fresh_memos, g):
        spec = th.truncation_radius
        monkeypatch.setattr(th, "truncation_radius", lambda tau, z, tol=th.DEFAULT_TOL:
                            dataclasses.replace(spec(tau, z, tol), radius=spec(tau, z, tol).radius - 1))
        fresh_memos()
        assert _addition_residual(g) > 100 * self.BOUND

    @pytest.mark.parametrize("g", [2, 3])
    def test_swapped_sign_matrix_column_fails(self, monkeypatch, fresh_memos, g):
        # columns c = 0 and 1 of every m' matrix; at g = 1 that swap only
        # negates theta[a; 1], which the square cannot see
        swapped = th._sign_matrices(g)[:, :, [1, 0, *range(2, 1 << g)]]
        monkeypatch.setattr(th, "_sign_matrices", lambda _: swapped)
        fresh_memos()
        assert _addition_residual(g) > 100 * self.BOUND


def _block_diagonal(rng, g):
    """A seeded tau = diag(tau_1, tau_2) and z = (z_1, z_2) of genus g, with
    blocks of genus 1 and g - 1, and the blocks themselves."""
    h = g - 1
    tau1, tau2 = random_tau(rng, 1), random_tau(rng, h)
    z1, z2 = random_z(rng, 1), random_z(rng, h)
    tau = th.PeriodMatrix(g, np.block([[tau1.tau, np.zeros((1, h))], [np.zeros((h, 1)), tau2.tau]]))
    return tau, th.PhasePoint(g, np.concatenate([z1.z, z2.z])), (tau1, z1), (tau2, z2)


def _reducible_residual(g):
    """The worst relative residual |theta[m](tau, z) - theta[m_1](tau_1, z_1)
    theta[m_2](tau_2, z_2)| / |theta[m_1] theta[m_2]| over all 4^g
    characteristics m = (m_1, m_2) at 5 seeded block-diagonal (tau, z), the
    blocks of genus 1 and g - 1: lattice sums of dimension g against 1 and
    g - 1, each with its own radius and floor."""
    rng = stream(19, f"test_theta.reducible.{g}")
    h, worst = g - 1, 0.0
    for _ in range(5):
        tau, z, (tau1, z1), (tau2, z2) = _block_diagonal(rng, g)
        for m in enumerate_characteristics(g, "all"):
            a, b = m.mp_int, m.mpp_int  # block 1 holds the top bit of each row
            m1 = Characteristic(1, ((a >> h) << 1) | (b >> h))
            m2 = Characteristic(h, ((a & ((1 << h) - 1)) << h) | (b & ((1 << h) - 1)))
            product = th.theta(tau1, z1, m1) * th.theta(tau2, z2, m2)
            worst = max(worst, abs(th.theta(tau, z, m) - product) / abs(product))
    return worst


def _jacobi_sign_residual():
    """The worst |theta'[1;1](tau, 0) / (pi theta[0;0] theta[0;1] theta[1;0])
    + 1| at 5 seeded genus-1 tau: Jacobi's derivative formula with its sign,
    which the genus-1 block of the reducible locus carries."""
    rng = stream(19, "test_theta.reducible.sign")
    worst = 0.0
    for _ in range(5):
        tau, z0 = random_tau(rng, 1), th.PhasePoint.zero(1)
        constants = math.prod(th.theta(tau, z0, Characteristic(1, i)) for i in (0, 1, 2))
        ratio = th.theta_gradient(tau, Characteristic(1, 3))[0] / (math.pi * constants)
        worst = max(worst, abs(ratio + 1))
    return worst


class TestReducibleLocus:
    """theta at tau = diag(tau_1, tau_2), z = (z_1, z_2) is the product of the
    block thetas, for every characteristic, odd ones too: an exact oracle for
    the kernel at z != 0 with no 2 tau pass.  The worst residuals measured are
    6.7e-16 (g = 2, 1 + 1) and 1.2e-15 (g = 3, 1 + 2), and 3.3e-16 for the
    genus-1 sign; each bound is 20 times its worst.  A radius one short reads
    1.3e-10 and 2.0e-10 for the product and 1.7e-13 for the sign."""

    BOUND = 2.4e-14
    SIGN_BOUND = 6.7e-15

    @pytest.mark.parametrize("g", [2, 3])
    def test_theta_factors_over_the_blocks(self, g):
        assert _reducible_residual(g) < self.BOUND

    def test_genus_one_jacobi_sign(self):
        assert _jacobi_sign_residual() < self.SIGN_BOUND

    @pytest.fixture
    def radius_one_short(self, monkeypatch, fresh_memos):
        spec = th.truncation_radius
        monkeypatch.setattr(th, "truncation_radius", lambda tau, z, tol=th.DEFAULT_TOL:
                            dataclasses.replace(spec(tau, z, tol), radius=spec(tau, z, tol).radius - 1))
        fresh_memos()

    @pytest.mark.parametrize("g", [2, 3])
    def test_radius_one_short_fails(self, radius_one_short, g):
        assert _reducible_residual(g) > 100 * self.BOUND

    def test_radius_one_short_fails_the_sign(self, radius_one_short):
        assert _jacobi_sign_residual() > 10 * self.SIGN_BOUND


KERNEL_CASES = [(g, lam, at_zero) for g in (1, 2, 3) for lam in (0.25, 1.0) for at_zero in (True, False)]


def _kernel_mismatches(g, lam, at_zero):
    """The values (every characteristic) and z = 0 gradients (every odd one)
    that differ from the per-characteristic reference by more than its
    rounding allowance."""
    rng = stream(13, f"test_theta.kernel.{g}.{lam}.{at_zero}")
    tau = _anisotropic_tau(rng, g, lam)
    z = th.PhasePoint.zero(g) if at_zero else _z_with_imz_l1(rng, g, 0.5)
    radius = th.truncation_radius(tau, z).radius
    bad = []
    for m in enumerate_characteristics(g, "all"):
        value, allowance, grad, grad_allowance = _reference_sum(tau, z, m, radius)
        if abs(th.theta(tau, z, m) - value) > allowance:
            bad.append(f"theta {m}")
        if at_zero and m.is_odd and np.any(np.abs(th.theta_gradient(tau, m) - grad) > grad_allowance):
            bad.append(f"gradient {m}")
    return bad


class TestClassKernel:
    """One exp per top row m' gives all 2^g characteristics [m'; m'']."""

    @pytest.mark.parametrize("g, lam, at_zero", KERNEL_CASES)
    def test_matches_per_characteristic_sum(self, g, lam, at_zero):
        assert _kernel_mismatches(g, lam, at_zero) == []

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_lattice_is_the_meshgrid_grouped_by_class(self, g):
        # the cube is the meshgrid of one axis, and the bits of _half_cube give
        # every q = p + m'/2 in it the segment (m' << g) | (p mod 2), read with
        # coordinate 0 most significant
        weights = 1 << np.arange(g - 1, -1, -1)
        for radius in (1, 2, 5):
            axis, bits = th._half_cube(g, radius)
            assert np.array_equal(axis, np.arange(-2 * radius - 1, 2 * radius + 2) / 2)
            ij = np.indices((len(axis),) * g).reshape(g, -1)
            q = axis[ij.T]
            mp = np.rint(2 * q).astype(int) % 2
            p = np.rint(q - mp / 2).astype(int)
            want = ((mp @ weights) << g) | (p % 2) @ weights
            seg = np.bitwise_or.reduce([b[i] for b, i in zip(bits, ij)])
            assert np.array_equal(seg, want)

    def test_swapped_sign_columns_are_caught(self, monkeypatch, fresh_memos):
        sign_matrices = th._sign_matrices

        def swapped(g):
            return sign_matrices(g)[..., [1, 0, *range(2, 1 << g)]]

        for name, module in list(sys.modules.items()):
            if name.startswith("thetacoble") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is sign_matrices:
                        monkeypatch.setattr(module, attr, swapped)
        fresh_memos()
        assert _kernel_mismatches(3, 0.25, True) and _kernel_mismatches(3, 0.25, False)
        records = run_suite("coble", 1).to_json()["records"]
        assert not all(r["pass"] for r in records)


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace original at every binding in the thetacoble modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("thetacoble") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _cube_moduli(tau, z, radius):
    """Every q in (Z/2)^g with |q|_inf <= radius + 1/2, in meshgrid order,
    and the modulus exp(-pi (q^t Im(tau) q + 2 q.Im z)) of its term."""
    axis = np.arange(-2 * radius - 1, 2 * radius + 2) / 2
    cube = np.stack([a.ravel() for a in np.meshgrid(*([axis] * tau.g), indexing="ij")], axis=1)
    return cube, np.exp(-math.pi * (np.einsum("ni,ij,nj->n", cube, tau.tau.imag, cube)
                                    + 2 * cube @ z.z.imag))


def _whole_kept_points(tau, z, radius):
    """The K kept points of _kept_points, their segment numbers and
    log-moduli: where Im z = 0 it returns the head, the first (K + 1) // 2,
    and the tail is the head's mirror, reversed: coordinates -q, equal
    log-moduli and segment numbers seg ^ (seg >> g)."""
    qs, seg, log_mod = th._kept_points(tau, z, radius)
    if np.any(z.z.imag):
        return list(qs), seg, log_mod
    tail = seg[-2::-1]
    return ([np.concatenate([x, -x[-2::-1]]) for x in qs],
            np.concatenate([seg, tail ^ (tail >> tau.g)]),
            np.concatenate([log_mod, log_mod[-2::-1]]))


FLOOR_CASES = [
    (g, ratio, lam, imz_l1)
    for g in (1, 2, 3)
    for ratio in (4.0, 100.0)
    for lam in (0.25, 1.0)
    for imz_l1 in (0.0, 1.5)
    if g > 1 or ratio == 4.0
]


class TestRoundingFloor:
    """One pass exponentiates only the terms above the rounding floor; the
    rest of the certified cube adds at most eps max|term|."""

    @staticmethod
    def _case(g, ratio, lam, imz_l1):
        rng = stream(17, f"test_theta.floor.{g}.{ratio}.{lam}.{imz_l1}")
        x = rng.uniform(-0.5, 0.5, (g, g))
        q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        y = (q * (lam * ratio ** np.linspace(0.0, 1.0, g))) @ q.T
        tau = th.PeriodMatrix(g, (x + x.T) / 2 + 1j * (y + y.T) / 2)
        z = _z_with_imz_l1(rng, g, imz_l1) if imz_l1 else th.PhasePoint.zero(g)
        return tau, z

    @pytest.mark.parametrize("g, ratio, lam, imz_l1", FLOOR_CASES)
    def test_skipped_mass_below_eps_max_term(self, g, ratio, lam, imz_l1):
        tau, z = self._case(g, ratio, lam, imz_l1)
        radius = th.truncation_radius(tau, z).radius
        cube, modulus = _cube_moduli(tau, z, radius)
        kept = np.stack(_whole_kept_points(tau, z, radius)[0], axis=1)
        # q -> its row in the meshgrid order of the cube
        digits = np.rint(2 * kept + 2 * radius + 1).astype(int)
        rows = np.ravel_multi_index(digits.T, (4 * radius + 3,) * g)
        assert np.array_equal(cube[rows], kept) and len(np.unique(rows)) == len(rows)
        skipped = np.ones(len(cube), dtype=bool)
        skipped[rows] = False
        bound = EPS * modulus.max()
        assert modulus[skipped].sum() <= bound
        assert np.all((2 * math.pi * np.abs(cube[skipped]) * modulus[skipped, None]).sum(0) <= bound)

    # ratio 4 is the regime of TestClassKernel
    @pytest.mark.parametrize("g, ratio, lam, imz_l1", [c for c in FLOOR_CASES if c[1] == 100.0])
    def test_values_match_the_full_cube(self, g, ratio, lam, imz_l1):
        tau, z = self._case(g, ratio, lam, imz_l1)
        radius = th.truncation_radius(tau, z).radius
        skipped_bound = EPS * _cube_moduli(tau, z, radius)[1].max()
        for m in enumerate_characteristics(g, "all"):
            value, allowance, grad, grad_allowance = _reference_sum(tau, z, m, radius)
            assert abs(th.theta(tau, z, m) - value) <= allowance + skipped_bound
            if not imz_l1 and m.is_odd:
                assert np.all(np.abs(th.theta_gradient(tau, m) - grad) <= grad_allowance + skipped_bound)

    def test_loosened_floor_is_caught(self, monkeypatch, fresh_memos):
        log_floor = th._log_floor

        def loosened(n_points, radius):
            return log_floor(n_points, radius) + math.log(1e6)

        _patch_everywhere(monkeypatch, log_floor, loosened)
        fresh_memos()
        assert _kernel_mismatches(1, 0.25, True) and _kernel_mismatches(3, 1.0, True)


def _whole_cube_form(a, b, qs):
    """q^t a q + 2 q.b axis by axis, with numpy coefficients, as the
    whole-cube pass summed it."""
    form = 0.0
    for i, q in enumerate(qs):
        row = a[i, i] * q + 2 * b[i]
        for j in range(i + 1, len(qs)):
            row = row + 2 * a[i, j] * qs[j]
        form = form + row * q
    return form


def _whole_cube_class_sums(tau, z, radius):
    """The class-sum table of the whole-cube pass: the log-modulus of every
    point of the half-integer cube, the floor relative to the cube's largest
    term, the segment numbers or-ed from the bits of each coordinate, and one
    exp of the complex quadratic form per kept point."""
    g, n = tau.g, 1 << tau.g
    axis, bits = th._half_cube(g, radius)
    qs = [axis.reshape((-1,) + (1,) * (g - 1 - i)) for i in range(g)]
    log_mod = -math.pi * _whole_cube_form(tau.tau.imag, z.z.imag, qs)
    ij = np.nonzero(log_mod >= log_mod.max() + th._log_floor(log_mod.size, radius))
    seg = bits[0][ij[0]]
    for b, i in zip(bits[1:], ij[1:]):
        seg = seg | b[i]
    qs = list(axis[np.stack(ij, axis=1)].T)
    terms = np.exp(1j * math.pi * _whole_cube_form(tau.tau, z.reduced, qs))
    cols = [terms] + ([x * terms for x in qs] if z.is_zero else [])
    sums = np.array([np.bincount(seg, col.real, n * n) + 1j * np.bincount(seg, col.imag, n * n)
                     for col in cols]).T
    sums[:, 1:] *= 2j * math.pi
    return th._sign_matrices(g) @ sums.reshape(n, n, -1)


def _box_cases():
    """(tau, z, radius): the FLOOR_CASES at their certified radius, each at
    z = 0 and at a z != 0, plus Im z = 0 with Re z != 0, |Re z| > 1, and
    radii below the certified one, where the cube clips the box."""
    cases = []
    for g, ratio, lam, imz_l1 in FLOOR_CASES:
        tau, z = TestRoundingFloor._case(g, ratio, lam, imz_l1 or 0.8)
        for point in (z, th.PhasePoint.zero(g)):
            cases.append((tau, point, th.truncation_radius(tau, point).radius))
    rng = stream(23, "test_theta.box")
    for g in (1, 2, 3):
        tau = _anisotropic_tau(rng, g, 0.3)
        far = th.PhasePoint(g, rng.uniform(-40.0, 40.0, g) + 3 + 1j * rng.uniform(-0.4, 0.4, g))
        real = th.PhasePoint(g, rng.uniform(-0.5, 0.5, g))
        for point in (far, real):
            cases.append((tau, point, th.truncation_radius(tau, point).radius))
        for radius in (1, 2):
            cases.append((tau, th.PhasePoint.zero(g), radius))
            cases.append((tau, far, radius))
    for cond in (1e6, 1e9):
        tau = _conditioned_tau(rng, cond)
        for point in (th.PhasePoint.zero(3), _z_with_imz_l1(rng, 3, 0.5)):
            cases.append((tau, point, 3))
    # the replay regime: lambda_min 0.25, the other eigenvalues up to 4 times
    # larger, |Im z|_1 from 0 to 1.5, at the certified radius
    rng = stream(23, "test_theta.box.replay")
    for g in (2, 3):
        for _ in range(2):
            tau = _anisotropic_tau(rng, g, 0.25)
            for imz_l1 in (0.0, 0.5, 1.0, 1.5):
                point = _z_with_imz_l1(rng, g, imz_l1) if imz_l1 else th.PhasePoint.zero(g)
                cases.append((tau, point, th.truncation_radius(tau, point).radius))
    return cases


def _conditioned_tau(rng, cond):
    """A genus-3 tau whose Im tau has eigenvalues 2, 4 and 2 cond, in a
    random orthonormal basis."""
    x = rng.uniform(-0.5, 0.5, (3, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    y = (q * np.array([2.0, 4.0, 2.0 * cond])) @ q.T
    return th.PeriodMatrix(3, (x + x.T) / 2 + 1j * (y + y.T) / 2)


BOX_CASES = _box_cases()


class TestFloorBox:
    """A pass sums only the box around the floor ellipsoid, and its tables
    are those of the whole-cube pass bit for bit."""

    @pytest.mark.parametrize("k", range(len(BOX_CASES)))
    def test_tables_equal_the_whole_cube_pass_bit_for_bit(self, fresh_memos, k):
        tau, z, radius = BOX_CASES[k]
        fresh_memos(tau)
        got = th._class_sums(tau, z, radius)
        assert got.tobytes() == _whole_cube_class_sums(tau, z, radius).tobytes()

    def test_cases_cover_clipped_and_strict_boxes(self):
        size = {k: 4 * r + 3 for k, (_, _, r) in enumerate(BOX_CASES)}
        boxes = {k: th._floor_box(tau, z, r, th._log_floor(size[k] ** tau.g, r))
                 for k, (tau, z, r) in enumerate(BOX_CASES)}
        clipped = [k for k, box in boxes.items() if any(s.start == 0 or s.stop == size[k] for s in box)]
        strict = [k for k, box in boxes.items() if all(0 < s.start and s.stop < size[k] for s in box)]
        assert clipped and strict
        assert any(not z.is_zero and np.abs(z.z.real).max() > 1 for tau, z, r in BOX_CASES)
        assert {tau.g for tau, _, _ in BOX_CASES} == {1, 2, 3}

    def test_ill_conditioned_tau_sums_the_whole_cube(self):
        rng = stream(31, "test_theta.conditioned")
        well, ill = _conditioned_tau(rng, 1e6), _conditioned_tau(rng, 1e9)
        assert well.y_inv is not None and ill.y_inv is None and ill.doubled.y_inv is None
        z = _z_with_imz_l1(rng, 3, 0.5)
        assert th._floor_box(ill, z, 3, th._log_floor(15 ** 3, 3)) == (slice(0, 15),) * 3
        assert th._floor_box(well, z, 3, th._log_floor(15 ** 3, 3)) != (slice(0, 15),) * 3

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_mirror_of_the_kept_points_at_zero(self, g):
        # where Im z = 0 the geometry is the head, up to q = 0, and the head
        # with its mirrored tail is the whole cube's kept set, in meshgrid
        # order, with its segment numbers and log-moduli; so the kept set is
        # symmetric under q -> -q, log-moduli and all
        rng = stream(29, f"test_theta.mirror.{g}")
        tau = _anisotropic_tau(rng, g, 0.25)
        z0 = th.PhasePoint.zero(g)
        radius = th.truncation_radius(tau, z0).radius
        axis, bits = th._half_cube(g, radius)
        qs = [axis.reshape((-1,) + (1,) * (g - 1 - i)) for i in range(g)]
        log_mod = -math.pi * _whole_cube_form(tau.tau.imag, np.zeros(g), qs)
        ij = np.nonzero(log_mod >= log_mod.max() + th._log_floor(log_mod.size, radius))
        want_seg = np.bitwise_or.reduce([b[i] for b, i in zip(bits, ij)])
        for z in (z0, th.PhasePoint(g, rng.uniform(-0.5, 0.5, g))):
            head = th._kept_points(tau, z, radius)
            kept, seg, kept_log_mod = _whole_kept_points(tau, z, radius)
            q = np.stack(kept, axis=1)
            assert len(head[1]) == (len(q) + 1) // 2 and not q[len(head[1]) - 1].any()
            assert np.array_equal(q, axis[np.stack(ij, axis=1)]) and np.array_equal(seg, want_seg)
            assert np.array_equal(kept_log_mod, log_mod[ij])
            assert np.array_equal(q[::-1], -q) and np.array_equal(kept_log_mod[::-1], kept_log_mod)

    def test_a_small_box_in_a_large_cube_allocates_little(self, fresh_memos):
        # the radius-150 cube holds 603^3 points, 219 MB at one byte each; the
        # pass allocates only what its floor box and its kept points need
        tau = random_tau(stream(37, "test_theta.large_cube"), 3)
        fresh_memos()
        tracemalloc.start()
        try:
            table = th._class_sums(tau, th.PhasePoint.zero(3), 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (8, 8, 4) and peak < 5 * 2 ** 20

    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.05, 3.0),
           ratio=st.floats(1.0, 200.0), imz=st.floats(0.0, 2.0), radius=st.integers(1, 6))
    def test_points_outside_the_box_are_below_the_floor(self, g, seed, lam, ratio, imz, radius):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        y = (q * (lam * ratio ** np.linspace(0.0, 1.0, g))) @ q.T
        x = rng.uniform(-0.5, 0.5, (g, g))
        tau = th.PeriodMatrix(g, (x + x.T) / 2 + 1j * (y + y.T) / 2)
        v = rng.uniform(-1.0, 1.0, g)
        z = th.PhasePoint(g, rng.uniform(-3.0, 3.0, g) + 1j * v * (imz / max(np.abs(v).sum(), 1e-300)))
        cube, modulus = _cube_moduli(tau, z, radius)
        with np.errstate(divide="ignore"):
            log_mod = np.log(modulus)
        log_floor = th._log_floor(len(cube), radius)
        box = th._floor_box(tau, z, radius, log_floor)
        k = np.rint(2 * cube + 2 * radius + 1).astype(int)
        inside = np.all([(s.start <= k[:, i]) & (k[:, i] < s.stop) for i, s in enumerate(box)], axis=0)
        assert inside[np.flatnonzero(np.all(cube == 0, axis=1))].all()
        assert np.all(log_mod[~inside] < log_mod.max() + log_floor)

    @settings(max_examples=300, deadline=None)
    @given(g=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.05, 3.0),
           log_cond=st.floats(0.0, 7.6), imz=st.floats(0.0, 2.0), radius=st.integers(1, 6))
    def test_points_outside_the_box_are_below_the_floor_up_to_condition_1e8(
            self, g, seed, lam, log_cond, imz, radius):
        # Im tau with eigenvalues lam and lam 10^log_cond in a random basis:
        # trace / lambda_min stays below _BOX_CONDITION, so the box is built
        # from the float inverse, whose rounding the margin covers
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        y = (q * (lam * 10.0 ** (log_cond * np.linspace(0.0, 1.0, g)))) @ q.T
        tau = th.PeriodMatrix(g, 1j * (y + y.T) / 2)
        assert tau.y_inv is not None
        v = rng.uniform(-1.0, 1.0, g)
        z = th.PhasePoint(g, 1j * v * (imz / max(np.abs(v).sum(), 1e-300)))
        cube, modulus = _cube_moduli(tau, z, radius)
        with np.errstate(divide="ignore"):
            log_mod = np.log(modulus)
        log_floor = th._log_floor(len(cube), radius)
        box = th._floor_box(tau, z, radius, log_floor)
        k = np.rint(2 * cube + 2 * radius + 1).astype(int)
        inside = np.all([(s.start <= k[:, i]) & (k[:, i] < s.stop) for i, s in enumerate(box)], axis=0)
        assert np.all(log_mod[~inside] < log_mod.max() + log_floor)

    def test_face_moved_in_by_a_grid_step_is_caught(self, monkeypatch, fresh_memos):
        # The box is widened only by a rounding margin, so the lower face of
        # axis 0 moved in by one grid step drops the kept points of its outer
        # row, where it holds any: the tables then differ from the whole-cube
        # pass, both where the cube clips the face and where it does not.
        # Those terms lie a few decades above the rounding floor at most,
        # below every residual check; with every face moved in by three
        # steps, the coble records fail.
        floor_box = th._floor_box
        steps = [1, 0]  # in from the lower face of axis 0, in from every face

        def moved(tau, z, radius, log_floor):
            lower, every = steps
            box = floor_box(tau, z, radius, log_floor)
            box = (slice(box[0].start + lower, box[0].stop),) + box[1:]
            return tuple(slice(s.start + every, s.stop - every) for s in box)

        _patch_everywhere(monkeypatch, floor_box, moved)
        unchanged = {False: set(), True: set()}  # by whether the cube clips the face
        for tau, z, radius in BOX_CASES:
            fresh_memos(tau)
            clipped = floor_box(tau, z, radius, th._log_floor((4 * radius + 3) ** tau.g, radius))[0].start == 0
            table = th._class_sums(tau, z, radius).tobytes()
            unchanged[clipped].add(table == _whole_cube_class_sums(tau, z, radius).tobytes())
        assert unchanged == {False: {True, False}, True: {True, False}}
        steps[:] = [0, 3]
        fresh_memos()
        assert not all(r["pass"] for r in run_suite("coble", 1).to_json()["records"])


class TestPassMemory:
    """A pass holds few arrays of its K kept points at once: one grid index
    array at a time, in-place exponentials, one weight column at a time, and
    the imaginary parts built in place.  The bounds lie below the peaks of
    all g index arrays, a second exponent array and all gradient columns at
    once: 8 such arrays in _kept_points, 15 (z = 0) or 10 in _class_sums; and
    at z != 0 below the 9 of a form with three temporaries.  K counts every
    kept point, though at z = 0 the geometry is the head, (K + 1) // 2 of
    them.  The z != 0 geometry here is above _GEOMETRY_BYTES, so its pass
    frees its log-moduli early; the z = 0 head is below it, and kept."""

    @staticmethod
    def _peaks(fresh_memos, imz_l1, *calls):
        """The K-entry array size at the pass case, and the traced peak of
        each call(tau, z, radius) on fresh memos."""
        rng = stream(41, "test_theta.pass_memory")
        tau = _anisotropic_tau(rng, 3, 0.05)
        z = _z_with_imz_l1(rng, 3, imz_l1) if imz_l1 else th.PhasePoint.zero(3)
        radius = th.truncation_radius(tau, z).radius
        peaks = []
        for call in calls:
            fresh_memos(tau)
            tracemalloc.start()
            try:
                out = call(tau, z, radius)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del out
        k_array = _whole_kept_points(tau, z, radius)[1].nbytes  # one intp (8-byte) array of K entries
        qs, _, log_mod = th._kept_points(tau, z, radius)
        assert k_array > 2 ** 19 and ((len(qs) + 2) * log_mod.nbytes > th._GEOMETRY_BYTES) == bool(imz_l1)
        return k_array, peaks

    @pytest.mark.parametrize("imz_l1, kept_bound, sums_bound", [(0.0, 7, 8), (0.5, 7, 8.5)])
    def test_peak_in_kept_point_arrays(self, fresh_memos, imz_l1, kept_bound, sums_bound):
        k_array, peaks = self._peaks(fresh_memos, imz_l1, th._kept_points, th._class_sums)
        assert peaks[0] < kept_bound * k_array and peaks[1] < sums_bound * k_array

    def test_peak_of_a_values_only_pass(self, fresh_memos):
        # measured at 7.0 arrays, the geometry's five and the complex terms'
        # two, as with the gradient columns; the bound is 7% above it
        k_array, (peak,) = self._peaks(fresh_memos, 0.0, lambda *args: th._class_sums(*args, False))
        assert peak < 7.5 * k_array


class TestPassCount:
    """A cold evaluation makes one kernel pass for the theta-2 vector and one
    for the theta constants, which sums no gradient columns."""

    @pytest.mark.parametrize("kind, g", [("coble_eval", 3), ("kummer2_eval", 2)])
    def test_two_passes_per_cold_eval(self, monkeypatch, fresh_memos, kind, g):
        passes = []
        kept_points = th._kept_points

        def counted(tau, z, radius):
            passes.append(z.is_zero)
            return kept_points(tau, z, radius)

        _patch_everywhere(monkeypatch, kept_points, counted)
        fresh_memos()
        rng = stream(19, f"test_theta.passes.{kind}")
        value, scale = getattr(quartics, kind)(random_tau(rng, g), random_z(rng, g))
        assert abs(value) < 1e-8 * scale
        assert sorted(passes) == [False, True]


def _values_only_cases():
    """(tau, radius) at z = 0: the TAUS at their certified radius, an
    anisotropic tau per genus at radius 1 and at its own, and an
    ill-conditioned genus-3 tau with no y_inv."""
    rng = stream(59, "test_theta.values_only")
    z0 = {g: th.PhasePoint.zero(g) for g in (1, 2, 3)}
    cases = [(tau, th.truncation_radius(tau, z0[g]).radius) for g in (1, 2, 3) for tau in TAUS[g]]
    for g in (1, 2, 3):
        tau = _anisotropic_tau(rng, g, 0.3)
        cases += [(tau, 1), (tau, th.truncation_radius(tau, z0[g]).radius)]
    ill = _conditioned_tau(rng, 1e9)
    assert ill.y_inv is None
    return cases + [(ill, 3)]


VALUES_ONLY_CASES = _values_only_cases()


class TestValuesOnlyPass:
    """theta reads a z = 0 table without its gradient columns; a gradient
    request replaces it by the full table.  Its value column is the full
    table's bit for bit, whichever comes first."""

    @pytest.mark.parametrize("k", range(len(VALUES_ONLY_CASES)))
    def test_value_column_equals_the_full_tables_in_both_orders(self, fresh_memos, k):
        tau, radius = VALUES_ONLY_CASES[k]
        g, z0 = tau.g, th.PhasePoint.zero(tau.g)
        fresh_memos(tau)
        values = th._class_sums(tau, z0, radius, False)
        full = th._class_sums(tau, z0, radius)
        assert values.shape == (1 << g, 1 << g, 1) and full.shape == (1 << g, 1 << g, 1 + g)
        assert th._class_sums(tau, z0, radius, False) is full
        fresh_memos(tau)
        first = th._class_sums(tau, z0, radius)
        assert th._class_sums(tau, z0, radius, False) is first
        assert first.tobytes() == full.tobytes()
        assert values.tobytes() == np.ascontiguousarray(full[..., :1]).tobytes()
        whole_cube = _whole_cube_class_sums(tau, z0, radius)
        assert values.tobytes() == np.ascontiguousarray(whole_cube[..., :1]).tobytes()

    @pytest.mark.parametrize("kind, g", [("coble_eval", 3), ("kummer2_eval", 2)])
    def test_cold_eval_keeps_the_value_column_and_a_gradient_adds_the_rest(self, fresh_memos, kind, g):
        fresh_memos()
        rng = stream(61, f"test_theta.values_only.{kind}")
        tau, z0 = random_tau(rng, g), th.PhasePoint.zero(g)
        getattr(quartics, kind)(tau, random_z(rng, g))
        key = (z0.key, th.truncation_radius(tau, z0).radius)
        assert tau.memo[key].shape == (1 << g, 1 << g, 1)
        consts = dict(th.even_theta_constants(tau))
        th.jacobian_det(tau, list(enumerate_characteristics(g, "odd"))[:g])
        assert tau.memo[key].shape == (1 << g, 1 << g, 1 + g)
        assert all(th.theta(tau, z0, Characteristic(g, i)) == v for i, v in consts.items())


class _Forgetful(dict):
    """A memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


class TestGeometryMemo:
    """A pass reuses the kept points of the last two passes at the same
    (g, Im tau, Im z, radius), which a modular translation tau -> tau + S
    does not change; a geometry above _GEOMETRY_BYTES is not kept."""

    @staticmethod
    def _count_builds(monkeypatch):
        built = []
        kept_points = th._kept_points

        def counted(tau, z, radius):
            built.append(radius)
            return kept_points(tau, z, radius)

        _patch_everywhere(monkeypatch, kept_points, counted)
        return built

    def test_translations_reuse_the_geometry(self, monkeypatch, fresh_memos):
        # per sample the J check builds the two geometries of its transformed
        # (tau, z) and of (tau, z); the five translations reuse the latter.
        # translation_zero_exact draws the first sample again, a new tau with
        # a memo of its own, and builds its two once more; tau + 0 reuses them
        built = self._count_builds(monkeypatch)
        fresh_memos()
        assert run_suite("modularity", 1, 2).passed
        assert len(built) == 10

    def test_reports_equal_those_without_the_memos(self, monkeypatch, fresh_memos):
        built = self._count_builds(monkeypatch)

        def reports(geometry_memo):
            fresh_memos()
            monkeypatch.setattr(th, "_GEOMETRY", geometry_memo)
            return [json.dumps({k: v for k, v in run_suite(name, seed).to_json().items() if k != "wall_time"})
                    for name in ("jacobi", "coble", "modularity", "kummer2") for seed in (1, 2)]

        memoized = reports({})
        builds = len(built)
        monkeypatch.setattr(modular, "_memoized", lambda memo, key, build, *args: build(*args))
        assert reports(_Forgetful()) == memoized
        assert len(built) - builds > builds

    def test_at_most_two_geometries_none_above_the_cap(self, monkeypatch, fresh_memos):
        built = self._count_builds(monkeypatch)
        fresh_memos()
        rng = stream(47, "test_theta.geometry_memo")
        z0 = th.PhasePoint.zero(3)
        a, b, c = (random_tau(rng, 3) for _ in range(3))
        # a + 1 and a + 2 (in every entry) reuse the geometry of a; it was used
        # after b's when c arrives, so b's goes
        for tau in (a, b, th.PeriodMatrix(3, a.tau + 1), c, th.PeriodMatrix(3, a.tau + 2)):
            th._class_sums(tau, z0, 3)
        assert built == [3] * 3 and len(th._GEOMETRY) == 2
        # 253k kept points, of which the geometry holds the head, 126k
        th._class_sums(_anisotropic_tau(rng, 3, 0.02), z0, 40)
        assert built == [3] * 3 + [40] and len(th._GEOMETRY) == 2
        assert all((len(qs) + 2) * log_mod.nbytes <= th._GEOMETRY_BYTES
                   for qs, _, log_mod in th._GEOMETRY.values())
        assert {key[-1] for key in th._GEOMETRY} == {3}


class TestReadOnlyMemo:
    """The memo hands out read-only values, so a caller's in-place write
    cannot change later results at the same tau."""

    def test_gradient_write_raises(self):
        tau = random_tau(stream(8, "test_theta.read_only_gradient"), 3)
        z0 = th.PhasePoint.zero(3)
        radius = th.truncation_radius(tau, z0).radius
        odds = list(enumerate_characteristics(3, "odd"))[:3]
        want = np.array([_reference_sum(tau, z0, m, radius)[2] for m in odds])
        grad = th.cached_gradient(tau, odds[0])
        with pytest.raises(ValueError, match="read-only"):
            grad[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            th.theta_gradient(tau, odds[1])[0] = 0
        assert np.allclose(th.cached_gradient(tau, odds[0]), want[0], rtol=1e-12, atol=0)
        assert th.jacobian_det(tau, odds) == pytest.approx(np.linalg.det(want), rel=1e-10)

    def test_constants_write_raises(self):
        tau = random_tau(stream(8, "test_theta.read_only_constants"), 3)
        z0 = th.PhasePoint.zero(3)
        radius = th.truncation_radius(tau, z0).radius
        evens = list(enumerate_characteristics(3, "even"))
        want = {m.idx: _reference_sum(tau, z0, m, radius)[0] for m in evens}
        consts = th.even_theta_constants(tau)
        with pytest.raises(TypeError):
            consts[0] = 0
        again = th.even_theta_constants(tau)
        assert all(abs(again[k] - v) < 1e-13 for k, v in want.items())
        assert chi(tau) == pytest.approx(math.prod(want.values()), rel=1e-10)

    def test_geometry_write_raises(self, fresh_memos):
        fresh_memos()
        tau = random_tau(stream(8, "test_theta.read_only_geometry"), 3)
        th.even_theta_constants(tau)
        ((qs, seg, log_mod),) = th._GEOMETRY.values()
        for array in (*qs, seg, log_mod):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestMemoLifetime:
    """Each tau holds its memo: a dropped tau takes its values with it, and a
    kept tau holds its values at z = 0 and at the last z != 0 asked at it.
    One memo that never drops a value retained 1.36 MB more after 200 cold
    genus-3 evaluations than after 20, and a memo per tau that keeps every z
    0.32 MB more after 200 z at one tau than after 20.  The slack covers
    small blocks that numpy and the interpreter keep for reuse: they held
    26-30 KB after 200, 600 or 1200 cold evaluations alike, with or without
    any memo, and 10-16 KB after 20."""

    SLACK = 64 * 2 ** 10

    @staticmethod
    def _retained(run) -> int:
        """The traced bytes still held once run() has returned and its result
        is still referenced, with the geometry memo and the radius cache
        emptied: each of those is bounded on its own."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = run()
            gc.collect()
            th._GEOMETRY.clear()
            th._radius.cache_clear()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del kept
        return retained

    @staticmethod
    def _cold_evals(n, name):
        rng = stream(71, f"test_theta.memo_lifetime.{name}")
        for _ in range(n):
            quartics.coble_eval(random_tau(rng, 3), random_z(rng, 3))

    @staticmethod
    def _evals_at_one_tau(n, name):
        rng = stream(73, f"test_theta.memo_lifetime.{name}")
        tau = random_tau(rng, 3)
        for _ in range(n):
            quartics.coble_eval(tau, random_z(rng, 3))
        return tau

    def test_dropped_taus_retain_nothing(self, fresh_memos):
        fresh_memos()
        self._cold_evals(20, "warm")
        few = self._retained(lambda: self._cold_evals(20, "few"))
        many = self._retained(lambda: self._cold_evals(200, "many"))
        assert many <= few + self.SLACK

    def test_one_tau_keeps_the_last_z_only(self, fresh_memos):
        fresh_memos()
        self._evals_at_one_tau(20, "warm")
        few = self._retained(lambda: self._evals_at_one_tau(20, "few"))
        many = self._retained(lambda: self._evals_at_one_tau(200, "many"))
        assert many <= few + self.SLACK
