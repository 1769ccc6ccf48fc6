"""The 15 translation-invariant quartics in second-order theta variables, the
explicit Coble quartic (g=3) with its gradient cubics, the genus-2 universal
Kummer surface, and the Jacobi-form functional-equation residuals.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .modular import s_vector
from .theta import DEFAULT_TOL, PeriodMatrix, PhasePoint, theta2

# ---------------------------------------------------------------------------
# quartic basis, g = 3: labels "Q000", "Q001".."Q111", "Q'001".."Q'111"


def _alpha_labels():
    return [format(a, "03b") for a in range(1, 8)]


def quartic_labels() -> list[str]:
    return ["Q000"] + [f"Q{a}" for a in _alpha_labels()] + [f"Q'{a}" for a in _alpha_labels()]


def _dot3(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


@lru_cache(maxsize=None)
def quartic_monomials(label: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The labelled quartic as a sparse monomial map: (exponents over the 8
    variables x_eps, coefficient).  All coefficients come out 1 by design of
    the 1/2 and 1/4 prefactors."""
    if label == "Q000":
        mons = {}
        for eps in range(8):
            e = [0] * 8
            e[eps] = 4
            mons[tuple(e)] = mons.get(tuple(e), 0) + 1
    elif label.startswith("Q'"):
        a = int(label[2:], 2)
        if not 1 <= a <= 7:
            raise ValueError(f"bad label {label!r}")
        perp = [mu for mu in range(8) if _dot3(mu, a) == 0]
        mons = {}
        for eps in range(8):
            e = [0] * 8
            for mu in perp:
                e[eps ^ mu] += 1
            key = tuple(e)
            mons[key] = mons.get(key, 0) + 1
        mons = {k: v // 4 for k, v in mons.items()}
    elif label.startswith("Q"):
        a = int(label[1:], 2)
        if not 1 <= a <= 7:
            raise ValueError(f"bad label {label!r}")
        mons = {}
        for eps in range(8):
            e = [0] * 8
            e[eps] += 2
            e[eps ^ a] += 2
            key = tuple(e)
            mons[key] = mons.get(key, 0) + 1
        mons = {k: v // 2 for k, v in mons.items()}
    else:
        raise ValueError(f"bad label {label!r}")
    if any(sum(k) != 4 for k in mons) or any(v != 1 for v in mons.values()):
        raise AssertionError("quartic basis construction error")
    return tuple(sorted(mons.items()))


def _eval_monomials(mons, x) -> complex:
    total = 0.0 + 0.0j
    for expo, coef in mons:
        term = complex(coef)
        for i, e in enumerate(expo):
            if e:
                term = term * x[i] ** e
        total += term
    return complex(total)


def q_basis_eval(label: str, x) -> complex:
    """Evaluate the labelled invariant quartic at x in C^8."""
    x = np.asarray(x)
    if x.shape != (8,):
        raise ValueError("need 8 variable values")
    return _eval_monomials(quartic_monomials(label), x)


def _gradient_monomials(label: str, var: int):
    out = []
    for expo, coef in quartic_monomials(label):
        e = expo[var]
        if e:
            d = list(expo)
            d[var] -= 1
            out.append((tuple(d), coef * e))
    return out


# ---------------------------------------------------------------------------
# Coble coefficients: the integer combination table a(Q) in the s basis.
# Keys are quartic labels; values map 1-based s indices to integers.

COBLE_TABLE: dict[str, dict[int, int]] = {
    "Q000": {1: 1},
    "Q001": {1: -2, 6: -4},
    "Q010": {1: -2, 3: -4},
    "Q011": {1: -2, 9: -4},
    "Q100": {1: -2, 2: -4},
    "Q101": {1: -2, 7: -4},
    "Q110": {1: -2, 4: -4},
    "Q111": {1: -2, 10: 4},
    "Q'001": {1: 8, 2: 8, 3: 8, 4: 8, 5: 16},
    "Q'010": {1: 8, 2: 8, 6: 8, 7: 8, 8: 16},
    "Q'011": {1: 8, 2: 8, 9: 8, 10: -8, 11: 16},
    "Q'100": {1: 8, 3: 8, 6: 8, 9: 8, 12: 16},
    "Q'101": {1: 8, 3: 8, 7: 8, 10: -8, 13: 16},
    "Q'110": {1: 8, 4: 8, 6: 8, 10: -8, 14: 16},
    "Q'111": {1: 8, 4: 8, 7: 8, 9: 8, 15: 16},
}


def coble_coefficients(s) -> dict[str, complex]:
    """The 15 coefficients a(Q) as integer combinations of s_1..s_15."""
    s = np.asarray(s)
    if s.shape != (15,):
        raise ValueError("need a 15-component s vector")
    return {
        label: complex(sum(c * s[i - 1] for i, c in combo.items()))
        for label, combo in COBLE_TABLE.items()
    }


def coble_monomial_count() -> int:
    """Number of (s, Q)-monomials in the assembled polynomial."""
    return sum(
        len(combo) * len(quartic_monomials(label)) for label, combo in COBLE_TABLE.items()
    )


def export_coble_formula() -> list[dict]:
    """The 15 records of the explicit formula, bit-exact integers."""
    return [
        {
            "quartic_label": label,
            "integer_combination": {str(i): c for i, c in sorted(combo.items())},
        }
        for label, combo in COBLE_TABLE.items()
    ]


# ---------------------------------------------------------------------------
# evaluation at theta arguments


def theta2_vector(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL) -> np.ndarray:
    g = tau.g
    return np.array([theta2(tau, z, format(e, f"0{g}b"), tol) for e in range(1 << g)])


def coble_at(a: dict[str, complex], x) -> tuple[complex, float]:
    """The quartic sum_Q a(Q) Q(x) at x in C^8 and its term scale
    max |a(Q) Q(x)|."""
    terms = [a[label] * q_basis_eval(label, x) for label in quartic_labels()]
    return complex(sum(terms)), float(max(abs(t) for t in terms))


def coble_eval(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL):
    """Value of the Coble quartic at x = Theta(tau, z) and the term scale
    max |a(Q) Q(x)| used for residual normalization."""
    if tau.g != 3:
        raise ValueError("the Coble quartic is a genus-3 object")
    x = theta2_vector(tau, z, tol)
    return coble_at(coble_coefficients(s_vector(tau, tol)), x)


def coble_gradient(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL):
    """The 8 gradient cubics dC/dx_eps at x = Theta(tau, z), each paired with
    its own term scale."""
    if tau.g != 3:
        raise ValueError("the Coble quartic is a genus-3 object")
    x = theta2_vector(tau, z, tol)
    a = coble_coefficients(s_vector(tau, tol))
    values = []
    scales = []
    for var in range(8):
        terms = []
        for label in quartic_labels():
            mons = _gradient_monomials(label, var)
            if mons:
                terms.append(a[label] * _eval_monomials(mons, x))
        values.append(complex(sum(terms)))
        scales.append(max(abs(t) for t in terms))
    return values, scales


KUMMER2_PAIR_TERMS = (
    # (s index pairing with the coefficient -(s1 + 2 s_i), unordered pairs of eps)
    (2, (((0, 2), (1, 3)))),  # x00^2 x10^2 + x01^2 x11^2
    (3, (((0, 1), (2, 3)))),  # x00^2 x01^2 + x10^2 x11^2
    (4, (((0, 3), (2, 1)))),  # x00^2 x11^2 + x10^2 x01^2
)


def kummer2_eval(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL):
    """The explicit genus-2 universal Kummer surface; returns (value, scale)."""
    if tau.g != 2:
        raise ValueError("the universal Kummer surface is a genus-2 object")
    x = theta2_vector(tau, z, tol)
    s = s_vector(tau, tol)
    terms = [s[0] * (x**4).sum()]
    for s_index, pairs in KUMMER2_PAIR_TERMS:
        quad = sum(x[a] ** 2 * x[b] ** 2 for a, b in pairs)
        terms.append(-2 * (s[0] + 2 * s[s_index - 1]) * quad)
    terms.append(8 * (s[0] + s[1] + s[2] + s[3] + 2 * s[4]) * x.prod())
    value = sum(terms)
    scale = max(abs(t) for t in terms)
    return complex(value), float(scale)


# ---------------------------------------------------------------------------
# modularity: functional-equation residuals on the two generator families


def _transform(tau: PeriodMatrix, z: PhasePoint, gen):
    """Apply a generator to (tau, z); returns (tau', z', c_block, d_block)."""
    g = tau.g
    if gen[0] == "S":
        s = np.asarray(gen[1], dtype=float)
        if s.shape != (g, g) or not np.array_equal(s, s.T) or not np.array_equal(s, np.round(s)):
            raise ValueError("translation generator needs an integer symmetric matrix")
        return PeriodMatrix(g, tau.tau + s), z, np.zeros((g, g)), np.eye(g)
    if gen[0] == "J":
        c = -np.eye(g)
        d = np.zeros((g, g))
        new_tau = PeriodMatrix(g, -np.linalg.inv(tau.tau))
        czd = c @ tau.tau + d
        new_z = PhasePoint(g, np.linalg.solve(czd.T, z.z))
        return new_tau, new_z, c, d
    raise ValueError(f"unknown generator tag {gen[0]!r}")


def jacobi_form_residual(gen, tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL) -> float:
    """Normalized residual of the weight-(16, 4) functional equation
    C(gamma tau, (C tau + D)^{-t} z)
      = det(C tau + D)^16 exp(8 pi i z^t (C tau + D)^{-1} C z) C(tau, z)
    on a translation (tau -> tau + S) or the inversion (tau -> -tau^{-1})."""
    if tau.g != 3:
        raise ValueError("genus-3 check")
    new_tau, new_z, c, d = _transform(tau, z, gen)
    lhs, lhs_scale = coble_eval(new_tau, new_z, tol)
    rhs0, rhs_scale = coble_eval(tau, z, tol)
    czd = c @ tau.tau + d
    factor = np.linalg.det(czd) ** 16 * np.exp(
        8j * math.pi * (z.z @ np.linalg.solve(czd, c @ z.z))
    )
    scale = max(lhs_scale, abs(factor) * rhs_scale)
    return float(abs(lhs - factor * rhs0) / scale)
