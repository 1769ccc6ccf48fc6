"""GIT invariants of point configurations: binary invariants of 6 points on
P^1 (tableaux, Segre cubic, Igusa quartic) and bracket invariants of 7 points
on P^2 (G_F and G_P).  The 30 Fano and the 105 P-shaped index families of
G_F and G_P are built in ``characteristics`` from the pairings of six
indices, and a family passed to g_fano or g_pascal is accepted when it is
one of them.  Each family's signed bracket columns are read from one table
of all ordered index triples (_signed_table).  Every bracket reader, and
the tableau and Segre readers, return finite values or raise ValueError: for
a non-finite configuration, and for one whose products overflow.

The Igusa quartic is the image of the ten even genus-2 theta fourth powers,
which span a 5-dimensional space.  Its 12-monomial form holds in coordinates
that are integer linear forms in the theta^4 constants, not in any five plain
theta^4; ``igusa_tuple_search`` finds such forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations, product

import numpy as np

from .characteristics import (
    _read_only,
    fano_family,
    fano_plane_families,
    pascal_families,
    pascal_family,
)
from .theta import DEFAULT_TOL, PeriodMatrix, _abs, even_theta_constants


@dataclass(frozen=True)
class Tableau:
    """A 2 x 3 filling ((i1, i2, i3), (j1, j2, j3)) of the indices 1..6."""

    top: tuple[int, int, int]
    bottom: tuple[int, int, int]

    def __post_init__(self):
        i1, i2, i3 = self.top
        j1, j2, j3 = self.bottom
        if sorted(self.top + self.bottom) != [1, 2, 3, 4, 5, 6]:
            raise ValueError("tableau must use each of 1..6 exactly once")
        if not (i1 < i2 < i3 and i1 < j1 and i2 < j2 and i3 < j3):
            raise ValueError("invalid tableau ordering")

    @property
    def is_standard(self) -> bool:
        j1, j2, j3 = self.bottom
        return j1 < j2 < j3


# The five standard tableaux in the conventional listing order T_0 .. T_4.
STANDARD_TABLEAUX = (
    Tableau((1, 3, 5), (2, 4, 6)),
    Tableau((1, 2, 5), (3, 4, 6)),
    Tableau((1, 3, 4), (2, 5, 6)),
    Tableau((1, 2, 4), (3, 5, 6)),
    Tableau((1, 2, 3), (4, 5, 6)),
)


def _entries(values) -> list:
    """values as a list; an ndarray's entries as Python numbers.  A product of
    two Python complex numbers is numpy's complex128 scalar product bit for
    bit (the same four products and two sums), at a fraction of its cost."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def _finite_value(value: complex, what: str):
    """value, a Python complex or float, once it is finite; ValueError naming
    what otherwise (a non-finite input gives inf or NaN, and so does a
    finite one whose products pass the double range, silently on Python
    numbers)."""
    if not cmath.isfinite(value):
        raise ValueError(f"{what} is not finite ({value}): a non-finite point, "
                         "or products that overflow at this scale")
    return value


def tableau_invariant(n: Tableau, xs) -> complex:
    """B(N) = (x_i1 - x_j1)(x_i2 - x_j2)(x_i3 - x_j3); ValueError unless it is
    finite."""
    xs = _entries(xs)
    if len(xs) != 6:
        raise ValueError("need 6 point coordinates")
    out = 1.0 + 0.0j
    for i, j in zip(n.top, n.bottom):
        out *= xs[i - 1] - xs[j - 1]
    return _finite_value(complex(out), "the tableau invariant")


def standard_invariants(xs) -> np.ndarray:
    """(T_0(x), ..., T_4(x)); ValueError unless each is finite."""
    xs = _entries(xs)
    return np.array([tableau_invariant(t, xs) for t in STANDARD_TABLEAUX])


def segre_eval(t) -> complex:
    """The Segre cubic T1 T2 T4 - T3 (T0 T4 + T1 T2 - T0 T1 - T0 T2 + T0^2);
    ValueError unless it is finite."""
    t0, t1, t2, t3, t4 = _entries(t)
    return _finite_value(
        complex(t1 * t2 * t4 - t3 * (t0 * t4 + t1 * t2 - t0 * t1 - t0 * t2 + t0 * t0)),
        "the Segre cubic")


def segre_scale(t) -> float:
    """Max monomial magnitude, for residual normalization; ValueError unless
    each is finite (max would pass over a NaN that is not first)."""
    t0, t1, t2, t3, t4 = _entries(t)
    mons = (t1 * t2 * t4, t3 * t0 * t4, t3 * t1 * t2, t3 * t0 * t1, t3 * t0 * t2, t3 * t0 * t0)
    return max(_finite_value(_abs(m), "a Segre monomial") for m in mons)


def igusa_eval(x):
    """The Igusa quartic (X0X1 + X0X2 + X1X2 - X3X4)^2
    - 4 X0X1X2 (X0 + X1 + X2 + X3 + X4).  The X may be arrays, which broadcast."""
    x0, x1, x2, x3, x4 = x
    return (x0 * x1 + x0 * x2 + x1 * x2 - x3 * x4) ** 2 - 4 * x0 * x1 * x2 * (
        x0 + x1 + x2 + x3 + x4
    )


def igusa_scale(x):
    """Max monomial magnitude, for residual normalization; broadcasts like
    igusa_eval."""
    x0, x1, x2, x3, x4 = x
    head = reduce(np.maximum, (abs(x0 * x1), abs(x0 * x2), abs(x1 * x2), abs(x3 * x4))) ** 2
    tail = 4 * abs(x0 * x1 * x2) * reduce(np.maximum, [abs(v) for v in x])
    return np.maximum(head, tail)


def igusa_residual(x):
    """|igusa_eval(x)| / igusa_scale(x), elementwise."""
    return abs(igusa_eval(x)) / igusa_scale(x)


def theta4_constants(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The ten even genus-2 theta^4 constants at tau, in the order of
    enumerate_characteristics(2, "even")."""
    return np.array([c ** 4 for c in even_theta_constants(tau, tol).values()])


def _distinct_forms(values: np.ndarray, tol: float) -> np.ndarray:
    """The plain theta^4 (unit vectors) and then the differences
    theta^4[a] - theta^4[b] over ordered pairs (a, b), keeping only the first
    of any forms that agree on every row of ``values`` (the Riemann theta
    relations make many of them equal).  Agreement within tol is not
    transitive, so a form is kept unless it agrees with a form already kept,
    read off one table of agreement between all 100 forms."""
    eye = np.eye(10, dtype=int)
    forms = np.array([*eye, *(eye[a] - eye[b] for a, b in permutations(range(10), 2))])
    normed = values / abs(values).max(axis=1, keepdims=True)
    v = normed @ forms.T  # (n_tau, 100): a normalized theta^4 or a difference of two
    agree = (abs(v[:, :, None] - v[:, None, :]) <= tol).all(axis=0)
    kept: list[int] = []
    for f in range(len(forms)):
        if not agree[f, kept].any():
            kept.append(f)
    return forms[kept]


def igusa_tuple_search(taus, tol: float = 1e-8) -> np.ndarray:
    """Integer linear forms X0..X4 in the even genus-2 theta^4 constants that
    satisfy the Igusa quartic at every sample tau, as a (5, 10) array whose
    columns follow enumerate_characteristics(2, "even"): X = forms @ theta^4.

    X0, X1, X2 range over the plain theta^4; X3, X4 over the plain theta^4 and
    their differences theta^4[a] - theta^4[b], deduplicated as functions on the
    samples.  All five forms are distinct.  The first hit in lexicographic
    order of (X0, X1, X2, X3, X4) is returned.
    """
    taus = list(taus)
    if len(taus) < 3:
        raise ValueError("need at least 3 sample period matrices")
    values = np.array([theta4_constants(tau) for tau in taus])  # (n_tau, 10)
    forms = _distinct_forms(values, tol)
    tails = values @ forms.T  # (n_tau, n_forms)
    n = len(forms)
    for head in permutations(range(10), 3):
        x0, x1, x2 = (values[:, i, None, None] for i in head)
        worst = igusa_residual((x0, x1, x2, tails[:, :, None], tails[:, None, :])).max(axis=0)
        # plain forms come first in ``forms``, so index i < 10 is theta^4[i]
        clash = np.isin(np.arange(n), head)
        worst[clash, :] = np.inf
        worst[:, clash] = np.inf
        np.fill_diagonal(worst, np.inf)
        hits = np.argwhere(worst < tol)
        if len(hits):
            i, j = hits[0]
            return np.array([forms[head[0]], forms[head[1]], forms[head[2]], forms[i], forms[j]])
    raise RuntimeError("no tuple of theta^4 linear forms satisfies the Igusa quartic")


# ---------------------------------------------------------------------------
# seven points on P^2


def bracket(cfg, i: int, j: int, k: int) -> complex:
    """(ijk) = det(v_i, v_j, v_k) on 1-based indices, the rows in the order
    given (so (jik) = -(ijk) is a check, not a rewrite).  ValueError, as for
    the batched readers, for a non-finite configuration or an overflowing
    determinant."""
    if len({i, j, k}) != 3 or not {i, j, k} <= set(range(1, 8)):
        raise ValueError("indices must be three distinct values in 1..7")
    vs = np.asarray(cfg)
    if vs.shape != (7, 3):
        raise ValueError("need 7 vectors in C^3")
    return complex(_finite(np.linalg.det, _finite_entries(vs)[[i - 1, j - 1, k - 1]]))


# The 35 increasing index triples, the columns of a bracket table.
_TRIPLES = tuple(combinations(range(1, 8), 3))

# The 11 bracket triples of a P-shaped family, as positions in its index
# vector (c, a1, b1, a2, b2, a3, b3): the 3 common triples (c a_i b_i), then
# the choices of one entry from each pair, the 4 even (an even number of b
# picks) and then the 4 odd, in product order within each parity.
_PASCAL_TRIPLES = ((0, 1, 2), (0, 3, 4), (0, 5, 6)) + tuple(
    tuple(1 + 2 * pair + pick for pair, pick in enumerate(choice))
    for choice in sorted(product((0, 1), repeat=3), key=lambda ch: sum(ch) % 2))


def _bracket_table(cfgs) -> np.ndarray:
    """(n, 35) brackets of the increasing triples of each configuration.
    ValueError for a configuration with a non-finite entry, whose brackets
    and products would be NaN."""
    vs = np.asarray(cfgs, dtype=complex)
    if vs.ndim != 3 or vs.shape[1:] != (7, 3):
        raise ValueError("need configurations of 7 vectors in C^3")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.det(_finite_entries(vs)[:, np.array(_TRIPLES) - 1])


def _finite_entries(vs: np.ndarray) -> np.ndarray:
    """vs, once every entry is finite; ValueError otherwise (its brackets and
    their products would be NaN)."""
    if not np.isfinite(vs).all():
        raise ValueError("configuration has a non-finite entry (inf or NaN)")
    return vs


def _finite(values, *args) -> np.ndarray:
    """values(*args), bracket products computed with numpy's overflow and
    invalid-value warnings off, once each is finite; ValueError naming the
    overflow otherwise (a finite configuration whose brackets, or products
    of them, pass the double range gives inf, and inf - inf gives NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = values(*args)
    if not np.isfinite(out).all():
        raise ValueError("the brackets or their products overflow (inf or NaN) "
                         "at this configuration's scale")
    return out


@lru_cache(maxsize=1)
def _signed_table() -> np.ndarray:
    """(8, 8, 8): entry (i, j, k), for distinct i, j, k in 1..7, the signed
    column s of the bracket (ijk): (ijk) = sign(s) table[:, |s| - 1], the
    sign the inversion parity of (i, j, k), the column that of the sorted
    triple in _TRIPLES, read off its 7-bit mask; 0 elsewhere.  One batched
    pass over all 512 index triples, read-only."""
    column = np.zeros(128, dtype=np.intp)
    column[(1 << (np.array(_TRIPLES) - 1)).sum(axis=1)] = np.arange(1, len(_TRIPLES) + 1)
    i, j, k = np.indices((8, 8, 8))
    odd = (i > j) ^ (i > k) ^ (j > k)
    distinct = (i != j) & (i != k) & (j != k) & (i * j * k > 0)
    mask = ((1 << i) | (1 << j) | (1 << k)) >> 1  # bit i - 1 stands for i
    return _read_only(np.where(distinct, (1 - 2 * odd) * column[mask], 0))


def _signed_columns(triples) -> np.ndarray:
    """Each ordered triple (ijk) of an (..., 3) array of distinct indices in
    1..7 as its signed column of the bracket table (see _signed_table)."""
    t = np.asarray(triples, dtype=np.intp)
    return _signed_table()[t[..., 0], t[..., 1], t[..., 2]]


def _fano_columns(triples) -> np.ndarray:
    """The 7 signed columns of a Fano-plane family, in the caller's order of
    triples and of their entries.  The triples are read once, so a one-shot
    iterable is checked and signed alike."""
    try:
        triples = tuple(map(tuple, triples))
    except TypeError:
        pass  # not an iterable of iterables: fano_family raises ValueError
    fano_family(triples)
    return _signed_columns(triples)


def _pascal_triples(families) -> np.ndarray:
    """(n, 11, 3): the bracket triples of each P-shaped family in canonical
    form, read off its index vector (see _PASCAL_TRIPLES)."""
    vectors = np.array([family[3] + sum(family[4:], ()) for family in families])
    return vectors[:, list(_PASCAL_TRIPLES)]


def _pascal_columns(spec) -> np.ndarray:
    """The 11 signed columns of a P-shaped family, read off its canonical
    form."""
    return _signed_columns(_pascal_triples([pascal_family(spec)]))[0]


def _product(table: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """Product of the brackets named by the last axis of signed columns."""
    return np.sign(signed).prod(axis=-1) * table[:, abs(signed) - 1].prod(axis=-1)


def _pascal_values(table: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """G_P of each configuration from the 11 signed columns of each family."""
    common, even, odd = (_product(table, part) for part in np.split(signed, [3, 7], axis=-1))
    return common * (even - odd)


def g_fano(cfg, triples) -> complex:
    """Product of the 7 brackets of a Fano-plane family of index triples."""
    table = _bracket_table([cfg])
    return complex(_finite(_product, table, _fano_columns(triples))[0])


def g_pascal(cfg, spec) -> complex:
    """The Pascal bracket polynomial, generalized from the reference family
    by relabeling: with common index c and pairs {a_i, b_i} (sorted, in the
    order of pascal_family(spec)),

    G_P = (c a1 b1)(c a2 b2)(c a3 b3)
          (prod over even choices - prod over odd choices)

    where a choice picks one element from each pair and its parity counts the
    b picks; each product multiplies the four brackets of the chosen triples.
    """
    table = _bracket_table([cfg])
    return complex(_finite(_pascal_values, table, _pascal_columns(spec))[0])


@lru_cache(maxsize=None)
def _family_columns() -> tuple[np.ndarray, np.ndarray]:
    """Signed columns of the 30 Fano families, (30, 7), and of the 105
    P-shaped families, (105, 11), each signed in one batch: read-only."""
    return (_read_only(_signed_columns(fano_plane_families())),
            _read_only(_signed_columns(_pascal_triples(pascal_families()))))


def bracket_value_matrix(cfgs) -> np.ndarray:
    """Rows: configurations; columns: the 30 G_F then the 105 G_P values."""
    table = _bracket_table(cfgs)
    fano, pascal = _family_columns()
    return np.hstack([_finite(_product, table, fano), _finite(_pascal_values, table, pascal)])
