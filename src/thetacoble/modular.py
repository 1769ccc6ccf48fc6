"""Scalar modular forms built from theta constants: chi_5 / chi_18, the Goepel
forms H(F) and H(P), the s-vector, Riemann quartic addition signs, and the
genus-2 triple-product identity behind the phi* substitution.

Quotients by theta constants are never taken numerically: every H-form is
computed as the product of the even theta constants in the complement of the
relevant even coset.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .characteristics import (
    ARONHOLD_EXAMPLE,
    Characteristic,
    CharacteristicSet,
    enumerate_characteristics,
)
from .gopel import GopelSystem, even_coset, fano_basis, pascal_decomposition
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    even_theta_constants,
    jacobian_det,
)


class RiemannSignError(RuntimeError):
    """Raised when no stable sign pair certifies a Riemann addition relation."""


def chi(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> complex:
    """Product of all even theta constants: chi_5 (g=2) or chi_18 (g=3)."""
    if tau.g not in (2, 3):
        raise ValueError("chi is defined for g in {2, 3}")
    return math.prod(even_theta_constants(tau, tol).values())


def _complement_product(tau: PeriodMatrix, excluded: frozenset, tol: float) -> complex:
    consts = even_theta_constants(tau, tol)
    return math.prod(v for i, v in consts.items() if i not in excluded)


def h_fano(tau: PeriodMatrix, system: GopelSystem, tol: float = DEFAULT_TOL) -> complex:
    """H(F) = chi_18 / prod_{n in F} theta_n, computed in product form as the
    product of the 28 even constants outside F."""
    if system.kind != "fano":
        raise ValueError("h_fano requires a Fano configuration")
    return h_goepel(tau, system, tol)


def h_pascal(tau: PeriodMatrix, system: GopelSystem, tol: float = DEFAULT_TOL) -> complex:
    """H(P): the chi_18 / (r2 r3) quotient over the even coset modeled on P,
    again in complement-product form."""
    if system.kind != "pascal":
        raise ValueError("h_pascal requires a Pascal configuration")
    return h_goepel(tau, system, tol)


def h_goepel(tau: PeriodMatrix, system: GopelSystem, tol: float = DEFAULT_TOL) -> complex:
    """H for either kind of Goepel system, via its even coset (a Fano system
    is its own even coset)."""
    if tau.g != system.g:
        raise ValueError("genus mismatch")
    return _complement_product(tau, even_coset(system), tol)


def aronhold_base_point(aronhold: CharacteristicSet) -> Characteristic:
    """The even characteristic n0 completing an Aronhold set to a fundamental
    system; it is the sum of the seven members."""
    n0 = Characteristic(3, 0)
    for m in aronhold:
        n0 = n0 + m
    if n0.is_odd:
        raise ValueError("input is not an Aronhold set (sum is odd)")
    return n0


def h_via_jacobian(
    tau: PeriodMatrix,
    aronhold: CharacteristicSet,
    triples,
    tol: float = DEFAULT_TOL,
) -> complex:
    """H(F) along the Jacobian-determinant route:
    D(M_1) ... D(M_7) / theta_{n0}^7, which equals +-pi^21 h_fano(F)."""
    from .theta import PhasePoint, theta

    if aronhold.g != 3 or len(aronhold) != 7:
        raise ValueError("need a 7-element Aronhold set")
    ms = aronhold.members
    n0 = aronhold_base_point(aronhold)
    num = 1.0 + 0.0j
    for (i, j, k) in triples:
        num *= jacobian_det(tau, (ms[i - 1], ms[j - 1], ms[k - 1]), tol)
    t0 = theta(tau, PhasePoint.zero(3), n0, tol)
    return num / t0**7


PI21 = math.pi**21


def riemann_relation(
    pascal: GopelSystem,
    taus=None,
    tol: float = 1e-8,
    theta_tol: float = DEFAULT_TOL,
):
    """Sign pair (eps1, eps2) with H(P) = eps1 H(F') + eps2 H(F'').

    Signs are resolved at a fixed reference tau and then asserted stable on
    the supplied sample matrices (relative residual below tol at each).
    """
    dec = pascal_decomposition(pascal)
    if taus is None:
        taus = []
    probes = [reference_tau3()] + list(taus)
    values = []
    for tau in probes:
        hp = h_pascal(tau, pascal, theta_tol)
        h1 = h_fano(tau, dec.fano1, theta_tol)
        h2 = h_fano(tau, dec.fano2, theta_tol)
        values.append((hp, h1, h2, max(abs(hp), abs(h1), abs(h2))))
    best = None
    for e1 in (1, -1):
        for e2 in (1, -1):
            worst = max(
                abs(hp - e1 * h1 - e2 * h2) / scale for hp, h1, h2, scale in values
            )
            if best is None or worst < best[0]:
                best = (worst, e1, e2)
    worst, e1, e2 = best
    if worst >= tol:
        raise RiemannSignError(
            f"no stable sign pair (best residual {worst:.3e} >= {tol:.1e})"
        )
    return e1, e2


@lru_cache(maxsize=1)
def reference_tau3() -> PeriodMatrix:
    """i I_3 plus a fixed small symmetric perturbation; generic enough to
    separate the sign branches."""
    x = np.array(
        [
            [0.13, 0.07, -0.11],
            [0.07, -0.05, 0.17],
            [-0.11, 0.17, 0.02],
        ]
    )
    y = np.array(
        [
            [1.00, 0.08, 0.03],
            [0.08, 1.10, -0.06],
            [0.03, -0.06, 1.20],
        ]
    )
    return PeriodMatrix(3, x + 1j * y)


@lru_cache(maxsize=1)
def reference_tau2() -> PeriodMatrix:
    x = np.array([[0.11, -0.07], [-0.07, 0.05]])
    y = np.array([[1.00, 0.09], [0.09, 1.15]])
    return PeriodMatrix(2, x + 1j * y)


# Genus-2 theta-constant quadruples defining s_1..s_5.

GENUS2_QUADRUPLES = tuple(
    CharacteristicSet.parse(2, strings)
    for strings in (
        ("00;00", "00;01", "00;10", "00;11"),
        ("00;00", "00;01", "10;00", "10;01"),
        ("00;00", "00;10", "01;00", "01;10"),
        ("00;00", "00;11", "11;00", "11;11"),
        ("00;00", "01;00", "10;00", "11;00"),
    )
)


def s_vector(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """g=3: (H(F_1), ..., H(F_15)); g=2: s_i = chi_5^2 / (prod over Q_i)^2,
    computed as squared complement products."""
    if tau.g == 3:
        return np.array([h_fano(tau, f, tol) for f in fano_basis()])
    if tau.g == 2:
        return np.array(
            [_complement_product(tau, q.idx_set(), tol) ** 2 for q in GENUS2_QUADRUPLES]
        )
    raise ValueError("s_vector is defined for g in {2, 3}")


def odd_triple_partition(n: Characteristic):
    """Split of an even genus-2 characteristic as two odd triple sums.

    Returns two disjoint index triples into the sorted list of the 6 odd
    characteristics, each summing to n.
    """
    if n.g != 2:
        raise ValueError("genus-2 operation")
    if n.is_odd:
        raise ValueError("characteristic must be even")
    odds = list(enumerate_characteristics(2, "odd"))
    for triple in combinations(range(6), 3):
        s = odds[triple[0]] + odds[triple[1]] + odds[triple[2]]
        if s == n:
            rest = tuple(i for i in range(6) if i not in triple)
            check = odds[rest[0]] + odds[rest[1]] + odds[rest[2]]
            if check != n:
                raise AssertionError("complementary triple does not sum to n")
            return triple, rest
    raise ValueError(f"no odd-triple partition for {n}")


def phi_star_triple(tau: PeriodMatrix, n: Characteristic, tol: float = DEFAULT_TOL) -> complex:
    """D(m_i1, m_i2) D(m_i1, m_i3) D(m_i2, m_i3) over the first odd triple
    summing to n; equals -+pi^6 chi_5 theta_n^2 up to a tau-independent sign."""
    if tau.g != 2:
        raise ValueError("genus-2 operation")
    (i1, i2, i3), _ = odd_triple_partition(n)
    odds = list(enumerate_characteristics(2, "odd"))
    return (
        jacobian_det(tau, (odds[i1], odds[i2]), tol)
        * jacobian_det(tau, (odds[i1], odds[i3]), tol)
        * jacobian_det(tau, (odds[i2], odds[i3]), tol)
    )


def goepel_form_matrix(taus, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rows: sample tau; columns: H over all 135 Goepel systems (30 Fano +
    105 Pascal quotients).  Used for the rank-15 certificate of W."""
    from .gopel import enumerate_gopel

    systems = enumerate_gopel(3)
    return np.array([[h_goepel(tau, s, tol) for s in systems] for tau in taus])
