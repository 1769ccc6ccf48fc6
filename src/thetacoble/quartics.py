"""The translation-invariant quartics in second-order theta variables, the
explicit Coble quartic (g=3) with its gradient cubics, the genus-2 universal
Kummer surface, and the Jacobi-form functional-equation residuals.

Both quartics are tables of integer combinations of s over the invariant
quartics Q, evaluated by one table path on a(Q) = A @ s as an array in label
order; label-keyed dicts are only for coble_coefficients, coble_at and coble_gradient_at.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np

from .characteristics import _read_only
from .modular import s_vector
from .theta import DEFAULT_TOL, PeriodMatrix, PhasePoint, _memo, _memoized, theta2

# ---------------------------------------------------------------------------
# quartic basis: labels "Q" + a and "Q'" + a for a in F_2^g written in g bits;
# g = 3: "Q000", "Q001".."Q111", "Q'001".."Q'111"


def quartic_labels() -> list[str]:
    return list(COBLE_TABLE)


def _dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


@lru_cache(maxsize=None)
def quartic_monomials(label: str) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The labelled quartic as a sparse monomial map: (exponents over the 2^g
    variables x_eps, coefficient), g being the bit count of the label.  Each
    quartic is (1/k) sum_eps prod_mu x_{eps + mu} over a multiset of four
    shifts mu: {0, 0, a, a} for Q_a (k = 2, or 1 for a = 0) and a-perp for Q'_a
    (k = 4), so a != 0 in genus 3 and a = 0 in genus 2.  Every monomial then
    occurs exactly k times, so all coefficients are 1."""
    primed = label.startswith("Q'")
    bits = label[1 + primed:]
    if not label.startswith("Q") or len(bits) not in (2, 3) or set(bits) - {"0", "1"}:
        raise ValueError(f"bad label {label!r}")
    g, a = len(bits), int(bits, 2)
    perp = tuple(mu for mu in range(1 << g) if _dot(mu, a) == 0)
    shifts, k = (perp, 4) if primed else ((0, 0, a, a), 2 if a else 1)
    if len(shifts) != 4:
        raise ValueError(f"bad label {label!r}: a-perp must have 4 elements")
    mons = Counter()
    for eps in range(1 << g):
        e = [0] * (1 << g)
        for mu in shifts:
            e[eps ^ mu] += 1
        mons[tuple(e)] += 1
    if any(v != k for v in mons.values()):
        raise AssertionError("quartic basis construction error")
    return tuple(sorted((e, 1) for e in mons))


def q_basis_eval(label: str, x) -> complex:
    """Evaluate the labelled genus-3 invariant quartic at x in C^8."""
    labels, _, starts, _ = _coble_tables(3)
    if label not in labels:
        raise ValueError(f"bad label {label!r}")
    return complex(np.add.reduceat(_powers(x, _power_index(3)), starts)[labels.index(label)])


# ---------------------------------------------------------------------------
# Quartic coefficients: the integer combination tables a(Q) in the s basis.
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

# The genus-2 universal Kummer surface in the same format, on s_1..s_5.
KUMMER2_TABLE: dict[str, dict[int, int]] = {
    "Q00": {1: 1},
    "Q01": {1: -2, 3: -4},
    "Q10": {1: -2, 2: -4},
    "Q11": {1: -2, 4: -4},
    "Q'00": {1: 8, 2: 8, 3: 8, 4: 8, 5: 16},
}


@lru_cache(maxsize=None)
def _coble_tables(g: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The quartic table of genus g as index tables: its n labels, the
    exponent matrix of their monomials in label order (each with coefficient
    1), the first row of each label, and the integer (n, n) matrix A with
    a(Q) = A @ s."""
    table = {3: COBLE_TABLE, 2: KUMMER2_TABLE}[g]
    labels, n = tuple(table), len(table)
    mons = [quartic_monomials(label) for label in labels]
    expo = np.array([e for label_mons in mons for e, _ in label_mons])
    starts = np.cumsum([0] + [len(m) for m in mons[:-1]])
    a_of_s = np.array([[table[label].get(i, 0) for i in range(1, n + 1)] for label in labels])
    return labels, expo, starts, a_of_s


@lru_cache(maxsize=None)
def _power_index(g: int) -> np.ndarray:
    """The genus-g exponent matrix E as flat positions E[i, j] n + j into
    the (5, n) table of the powers x_j^k, n = 2^g (read-only)."""
    expo = _coble_tables(g)[1]
    n = expo.shape[1]
    return _read_only(expo * n + np.arange(n))


def _powers(x, index: np.ndarray) -> np.ndarray:
    """x ** E multiplied along the last axis, for x in C^n and an exponent
    table E (entries 0..4) given as flat positions like _power_index's."""
    x = np.asarray(x)
    n = index.shape[-1]
    if x.shape != (n,):
        raise ValueError(f"need {n} variable values")
    return (x ** np.arange(5)[:, None]).ravel().take(index).prod(axis=-1)


def _terms(a: np.ndarray, tables, mons: np.ndarray) -> np.ndarray:
    """a(Q) times the sum of the monomial values of label Q on the last axis."""
    return a * np.add.reduceat(mons, tables[2], axis=-1)


def _coefficients(g: int, s) -> np.ndarray:
    return (_coble_tables(g)[3] @ s).astype(complex)


def _coefficient_array(g: int, a: dict) -> np.ndarray:
    """The dict a in label order; ValueError unless it holds the genus-g table's labels."""
    labels = _coble_tables(g)[0]
    if a.keys() != set(labels):
        raise ValueError(f"coefficient labels must be those of the genus-{g} table: missing "
                         f"{[q for q in labels if q not in a]}, unexpected "
                         f"{sorted(a.keys() - set(labels), key=repr)}")
    return np.array([a[label] for label in labels])


def coble_coefficients(s) -> dict[str, complex]:
    """The 15 coefficients a(Q) as integer combinations of s_1..s_15."""
    s = np.asarray(s)
    if s.shape != (15,):
        raise ValueError("need a 15-component s vector")
    return dict(zip(_coble_tables(3)[0], _coefficients(3, s).tolist()))


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


@lru_cache(maxsize=None)
def _eps_labels(g: int) -> tuple[str, ...]:
    return tuple(format(e, f"0{g}b") for e in range(1 << g))


def theta2_vector(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL) -> np.ndarray:
    return np.array([theta2(tau, z, eps, tol) for eps in _eps_labels(tau.g)])


def coble_at(a: dict[str, complex], x) -> tuple[complex, float]:
    """The quartic sum_Q a(Q) Q(x) at x in C^(2^g), for the coefficients of
    either table (the one sharing more labels with a), and its term scale
    max |a(Q) Q(x)|; ValueError unless a holds exactly that table's labels."""
    g = 2 if len(a.keys() & KUMMER2_TABLE.keys()) > len(a.keys() & COBLE_TABLE.keys()) else 3
    return _quartic_at(g, _coefficient_array(g, a), x)


def _quartic_at(g: int, a: np.ndarray, x) -> tuple[complex, float]:
    tables = _coble_tables(g)
    terms = _terms(a, tables, _powers(x, _power_index(g)))
    return complex(terms.sum()), float(abs(terms).max())


def coble_gradient_at(a: dict[str, complex], x) -> tuple[list[complex], list[float]]:
    """The 8 gradient cubics dC/dx_eps at x in C^8, each paired with its own
    term scale max_Q |a(Q) dQ/dx_eps(x)|; a holds exactly the 15 Coble labels."""
    return _gradient_at(_coefficient_array(3, a), x)


def _gradient_at(a: np.ndarray, x) -> tuple[list[complex], list[float]]:
    """Row v of the monomial table is E[:, v] x^(E - e_v); the exponent is
    clipped at 0 where E[:, v] = 0, so no x_v is ever divided out."""
    lowered, expo_t = _gradient_tables()
    terms = _terms(a, _coble_tables(3), expo_t * _powers(x, lowered))
    return terms.sum(axis=1).tolist(), abs(terms).max(axis=1).tolist()


@lru_cache(maxsize=None)
def _gradient_tables() -> tuple[np.ndarray, np.ndarray]:
    """The (8, 50, 8) exponents E - e_v clipped at 0, as flat positions like
    _power_index's, and E^t (8, 50); read-only."""
    expo = _coble_tables(3)[1]
    lowered = np.maximum(expo - np.eye(8, dtype=int)[:, None, :], 0)
    return _read_only(lowered * 8 + np.arange(8)), _read_only(expo.T.copy())


def coble_eval(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL):
    """Value of the Coble quartic at x = Theta(tau, z) and the term scale
    max |a(Q) Q(x)| used for residual normalization; memoized per (z, tol) in
    tau's memo, for the last z != 0 asked at tau (see theta._memo)."""
    if tau.g != 3:
        raise ValueError("the Coble quartic is a genus-3 object")
    return _memoized(_memo(tau, z), ("coble", z.key, tol), _coble_value, tau, z, tol)


def _coble_value(tau: PeriodMatrix, z: PhasePoint, tol: float) -> tuple[complex, float]:
    return _quartic_at(3, _coefficients(3, s_vector(tau, tol)), theta2_vector(tau, z, tol))


def coble_gradient(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL):
    """The 8 gradient cubics dC/dx_eps at x = Theta(tau, z), each paired with
    its own term scale."""
    if tau.g != 3:
        raise ValueError("the Coble quartic is a genus-3 object")
    return _gradient_at(_coefficients(3, s_vector(tau, tol)), theta2_vector(tau, z, tol))


def kummer2_eval(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL):
    """Value of the genus-2 universal Kummer surface (KUMMER2_TABLE) at
    x = Theta(tau, z) and its term scale max |a(Q) Q(x)|."""
    if tau.g != 2:
        raise ValueError("the universal Kummer surface is a genus-2 object")
    return _quartic_at(2, _coefficients(2, s_vector(tau, tol)), theta2_vector(tau, z, tol))


# ---------------------------------------------------------------------------
# modularity: functional-equation residuals on the two generator families


def _transform(tau: PeriodMatrix, z: PhasePoint, gen):
    """Apply a generator ("J",) or ("S", S) to (tau, z); returns (tau', z',
    c_block, d_block)."""
    g = tau.g
    if not (isinstance(gen, (tuple, list)) and gen and isinstance(gen[0], str)
            and len(gen) == {"J": 1, "S": 2}.get(gen[0])):
        raise ValueError(f"a generator is ('J',) or ('S', S) with S integer symmetric, "
                         f"not {gen!r}")
    if gen[0] == "S":
        return tau._translated(gen[1]), z, np.zeros((g, g)), np.eye(g)
    c, d = -np.eye(g), np.zeros((g, g))
    new_tau = PeriodMatrix(g, -np.linalg.inv(tau.tau))
    new_z = PhasePoint(g, np.linalg.solve((c @ tau.tau + d).T, z.z))
    return new_tau, new_z, c, d


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
    if gen[0] == "S":  # C = 0 and D = I: the factor is exactly 1
        return float(abs(lhs - rhs0) / max(lhs_scale, rhs_scale))
    czd = c @ tau.tau + d
    factor = np.linalg.det(czd) ** 16 * np.exp(
        8j * math.pi * (z.z @ np.linalg.solve(czd, c @ z.z))
    )
    scale = max(lhs_scale, abs(factor) * rhs_scale)
    return float(abs(lhs - factor * rhs0) / scale)
