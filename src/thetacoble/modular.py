"""Scalar modular forms built from theta constants: chi_5 / chi_18, the Goepel
forms H(F) and H(P), the s-vector, Riemann quartic addition signs, and the
genus-2 triple-product identity behind the phi* substitution.

Quotients by theta constants are never taken numerically: every H-form is the
product of the even theta constants in the complement of the relevant even
coset.  Each complement is one cached tuple of even indices in enumeration
order (chi is the complement of the empty set), read by one operator.itemgetter
per tuple, cached by the tuple (the same factors in the same order), and
goepel_form_matrix multiplies the columns of one cached (135, 28) position
table over the (n_tau, 36) array of constants.  The tuples (one set at a time)
and the table (all 135 even cosets at once) come from one complement body,
_complement_positions, over membership masks.  The Riemann signs read its
columns H(P), H(F'), H(F'') for all 105 Pascal systems at once, and the dual
route to H(F) is G_F of the seven odd theta gradients over theta_{n0}^7.
The 20 triple products of genus 2 read the 15 odd-pair Jacobians.  The
s-vector is memoized per tol in tau's memo, beside the constants it is built
from, and read-only: the modularity check evaluates the Coble quartic
at one tau under several transformations, and each evaluation reads it again.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations

import numpy as np

from .characteristics import (
    Characteristic,
    CharacteristicSet,
    _check_aronhold,
    _read_only,
    azygetic_odd_sets,
    enumerate_characteristics,
    parity_table,
)
from .gopel import (
    GopelSystem,
    enumerate_gopel,
    even_coset,
    even_cosets,
    fano_basis,
    pascal_decomposition,
    pascal_rows,
    split_lagrangians,
)
from .points import g_fano
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    PhasePoint,
    _memoized,
    cached_gradient,
    even_theta_constants,
    jacobian_det,
    theta,
)


class RiemannSignError(RuntimeError):
    """Raised when no stable sign pair certifies a Riemann addition relation."""


def chi(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> complex:
    """Product of all even theta constants: chi_5 (g=2) or chi_18 (g=3)."""
    if tau.g not in (2, 3):
        raise ValueError("chi is defined for g in {2, 3}")
    return _complement_product(tau, frozenset(), tol)


def _complement_positions(g: int, member: np.ndarray) -> np.ndarray:
    """Row t: the positions, among the even characteristics of genus g in
    enumeration order (the key order of even_theta_constants), of the evens
    outside row t of an (n, 2^{2g}) membership mask.  The one complement body
    behind every H-form; each row must leave the same number outside."""
    _, positions = np.nonzero(~member[:, parity_table(g) == 1])
    return positions.reshape(len(member), -1)


@lru_cache(maxsize=None)
def _complement_keys(g: int, excluded: frozenset) -> tuple[int, ...]:
    """The indices of the even characteristics of genus g outside excluded, in
    enumeration order: _complement_positions on one row."""
    member = np.zeros((1, 1 << (2 * g)), dtype=bool)
    member[0, list(excluded)] = True
    evens = np.flatnonzero(parity_table(g) == 1)
    return tuple(evens[_complement_positions(g, member)[0]].tolist())


_getter = lru_cache(maxsize=None)(operator.itemgetter)  # keyed by the tuple it reads


def _complement_product(tau: PeriodMatrix, excluded: frozenset, tol: float) -> complex:
    consts = even_theta_constants(tau, tol)
    return math.prod(_getter(*_complement_keys(tau.g, excluded))(consts))


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
    _check_aronhold(aronhold)
    return Characteristic(3, int(np.bitwise_xor.reduce([m.idx for m in aronhold])))


def h_via_jacobian(
    tau: PeriodMatrix,
    aronhold: CharacteristicSet,
    triples,
    tol: float = DEFAULT_TOL,
) -> complex:
    """D(M_1) ... D(M_7) / theta_{n0}^7 = +-pi^21 h_fano(F), the numerator being
    g_fano of the seven odd gradient rows; ValueError for a non-Fano family."""
    n0 = aronhold_base_point(aronhold)
    rows = [cached_gradient(tau, m, tol) for m in aronhold.members]
    return g_fano(rows, triples) / theta(tau, PhasePoint.zero(3), n0, tol) ** 7


PI21 = math.pi**21

# The sign pairs (eps1, eps2) of a Riemann relation; the first of least
# residual wins.  Column j of the coefficients is (1, -eps1, -eps2) of pair j.
_SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_RIEMANN_COEFFICIENTS = np.vstack([np.ones(4, dtype=int), -np.array(_SIGN_PAIRS).T])


def riemann_residuals(taus) -> np.ndarray:
    """(105, 4): the worst relative residual |H(P) - eps1 H(F') - eps2 H(F'')|
    / max(|H(P)|, |H(F')|, |H(F'')|) of each Pascal system (rows, as in
    gopel.pascal_rows) and sign pair (columns, as in _SIGN_PAIRS) over the
    probes [reference_tau3(), *taus]: the columns of goepel_form_matrix
    holding H(P), H(F') and H(F'').  A NaN at a probe makes its entry NaN."""
    forms = goepel_form_matrix([reference_tau3(), *taus])[:, pascal_rows()]
    scale = np.abs(forms).max(axis=-1, keepdims=True)
    return (np.abs(forms @ _RIEMANN_COEFFICIENTS) / scale).max(axis=0)


def riemann_relation(pascal: GopelSystem, taus, tol: float = 1e-8):
    """Sign pair (eps1, eps2) with H(P) = eps1 H(F') + eps2 H(F''): the first
    pair of least residual in P's row of riemann_residuals, which resolves the
    signs at a fixed reference tau and asserts them stable on the supplied
    sample matrices (relative residual below tol at each; a NaN raises)."""
    pascal_decomposition(pascal)  # ValueError for a Fano system
    pascals = [s for s in enumerate_gopel(3) if s.kind == "pascal"]
    row = riemann_residuals(taus)[pascals.index(pascal)]
    best = int(np.argmin(row))
    if not row[best] < tol:
        raise RiemannSignError(
            f"no stable sign pair (best residual {row[best]:.3e} >= {tol:.1e})"
        )
    return _SIGN_PAIRS[best]


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


def s_vector(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """g=3: (H(F_1), ..., H(F_15)); g=2: s_i = chi_5^2 / (prod over Q_i)^2,
    computed as squared complement products, Q_1..Q_5 the split Lagrangians
    of genus 2.  Memoized per (tau, tol) beside the theta constants, and
    read-only."""
    if tau.g not in (2, 3):
        raise ValueError("s_vector is defined for g in {2, 3}")
    return _memoized(tau.memo, ("s_vector", tol), _s_vector, tau, tol)


def _s_vector(tau: PeriodMatrix, tol: float) -> np.ndarray:
    if tau.g == 3:
        return _read_only(np.array([h_fano(tau, f, tol) for f in fano_basis()]))
    return _read_only(np.array(
        [_complement_product(tau, q.idx_set(), tol) ** 2 for q in split_lagrangians(2)]))


@lru_cache(maxsize=1)
def _triple_pairs() -> np.ndarray:
    """(10, 2, 3): for each even genus-2 n, in enumeration order, the two odd
    triples (a, b, c) of azygetic_odd_sets(2, 3) summing to n, the
    lexicographically first one first, each as the positions of its pairs
    (a, b), (a, c), (b, c) in combinations(odds, 2)."""
    odds = [m.idx for m in enumerate_characteristics(2, "odd")]
    pair = {p: k for k, p in enumerate(combinations(odds, 2))}
    triples = azygetic_odd_sets(2, 3)
    sums = np.bitwise_xor.reduce(triples, axis=1)
    return _read_only(np.array([
        [[pair[a, b], pair[a, c], pair[b, c]] for a, b, c in triples[sums == n.idx].tolist()]
        for n in enumerate_characteristics(2, "even")]))


def triple_products(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> list[tuple[complex, complex]]:
    """(p, q) for each even genus-2 n, in enumeration order: D(m_a, m_b)
    D(m_a, m_c) D(m_b, m_c) over the two triples of _triple_pairs, from one
    determinant per odd pair; each is -+pi^6 chi_5 theta_n^2 up to a sign."""
    if tau.g != 2:
        raise ValueError("genus-2 operation")
    dets = [jacobian_det(tau, pair, tol)
            for pair in combinations(enumerate_characteristics(2, "odd").members, 2)]
    return [tuple(dets[i] * dets[j] * dets[k] for i, j, k in row)
            for row in _triple_pairs().tolist()]


@lru_cache(maxsize=1)
def _goepel_positions() -> np.ndarray:
    """(135, 28): row k holds the positions, in the vector of the 36 even
    constants, of the evens outside the even coset of the k-th Goepel system
    of enumerate_gopel(3), in the order h_goepel multiplies them: one
    _complement_positions pass over the coset masks."""
    cosets = even_cosets(3)
    member = np.zeros((len(cosets), 64), dtype=bool)
    member[np.arange(len(cosets))[:, None], cosets] = True
    return _read_only(_complement_positions(3, member))


def goepel_form_matrix(taus, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rows: sample tau; columns: H over all 135 Goepel systems (30 Fano +
    105 Pascal quotients).  Used for the rank-15 certificate of W.

    The 28 constant columns of each H are multiplied into the (n_tau, 135)
    result one at a time, in place, so no (n_tau, 135, 28) gather is built."""
    taus = list(taus)
    if any(tau.g != 3 for tau in taus):
        raise ValueError("genus mismatch")
    consts = np.array([tuple(even_theta_constants(tau, tol).values()) for tau in taus],
                      dtype=complex).reshape(-1, 36)
    positions = _goepel_positions()
    out = consts[:, positions[:, 0]]
    for column in positions.T[1:]:
        out *= consts[:, column]
    return out
