"""The symplectic group Sp(2g, F_2): bit-matrix arithmetic, the affine action
on theta characteristics, full enumeration for g <= 3, and the 135 cosets of
the parabolic subgroup {C = 0} for g = 3.

Matrices are tuples of row integers; within a row the leftmost column is the
most significant bit, matching the characteristic encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characteristics import Characteristic, _check_genus, pairing_table
from .gopel import enumerate_lagrangian_subspaces

# ---------------------------------------------------------------------------
# bit-matrix helpers (rows as integers, width bits per row)


def bm_identity(n: int) -> tuple[int, ...]:
    return tuple(1 << (n - 1 - i) for i in range(n))


def bm_zero(n: int) -> tuple[int, ...]:
    return (0,) * n


def bm_transpose(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    n = len(rows)
    out = []
    for j in range(width):
        col = 0
        for i in range(n):
            col = (col << 1) | ((rows[i] >> (width - 1 - j)) & 1)
        out.append(col)
    return tuple(out)


def bm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product over F_2; a is n x k (k = len(b)), b is k x width."""
    k = len(b)
    out = []
    for row in a:
        acc = 0
        for j in range(k):
            if (row >> (k - 1 - j)) & 1:
                acc ^= b[j]
        out.append(acc)
    return tuple(out)


def bm_matvec(rows: tuple[int, ...], v: int) -> int:
    """Apply to a column vector packed as an int (leftmost entry = msb)."""
    out = 0
    for row in rows:
        out = (out << 1) | ((row & v).bit_count() & 1)
    return out


def bm_diag(rows: tuple[int, ...]) -> int:
    n = len(rows)
    out = 0
    for i, row in enumerate(rows):
        out = (out << 1) | ((row >> (n - 1 - i)) & 1)
    return out


def bm_block(tl, tr, bl, br, n: int) -> tuple[int, ...]:
    """Assemble a 2n x 2n matrix from four n x n blocks."""
    top = tuple((tl[i] << n) | tr[i] for i in range(n))
    bot = tuple((bl[i] << n) | br[i] for i in range(n))
    return top + bot


def bm_unblock(rows: tuple[int, ...], n: int):
    mask = (1 << n) - 1
    tl = tuple(r >> n for r in rows[:n])
    tr = tuple(r & mask for r in rows[:n])
    bl = tuple(r >> n for r in rows[n:])
    br = tuple(r & mask for r in rows[n:])
    return tl, tr, bl, br


def symplectic_j(n: int) -> tuple[int, ...]:
    """The standard form matrix J = (0 I; I 0) over F_2."""
    return bm_block(bm_zero(n), bm_identity(n), bm_identity(n), bm_zero(n), n)


def is_symplectic(rows: tuple[int, ...]) -> bool:
    """True iff the 2n x 2n bit matrix preserves the standard pairing."""
    m = len(rows)
    if m % 2 or m > 6:
        raise ValueError("need a square even-dimension matrix of size <= 6")
    n = m // 2
    j = symplectic_j(n)
    return bm_mul(bm_mul(bm_transpose(rows, m), j), rows) == j


@dataclass(frozen=True)
class SymplecticMatF2:
    """An element of Sp(2g, F_2) in block form (A B; C D)."""

    g: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_genus(self.g)
        if len(self.rows) != 2 * self.g:
            raise ValueError("row count does not match genus")
        if not is_symplectic(self.rows):
            raise ValueError("matrix is not symplectic over F_2")

    @classmethod
    def from_blocks(cls, g, a, b, c, d) -> "SymplecticMatF2":
        return cls(g, bm_block(a, b, c, d, g))

    @classmethod
    def identity(cls, g: int) -> "SymplecticMatF2":
        return cls(g, bm_identity(2 * g))

    @classmethod
    def j(cls, g: int) -> "SymplecticMatF2":
        return cls(g, symplectic_j(g))

    @property
    def blocks(self):
        return bm_unblock(self.rows, self.g)

    def __mul__(self, other: "SymplecticMatF2") -> "SymplecticMatF2":
        if self.g != other.g:
            raise ValueError("genus mismatch")
        return SymplecticMatF2(self.g, bm_mul(self.rows, other.rows))

    def inverse(self) -> "SymplecticMatF2":
        # over F_2: M^{-1} = J M^t J since J^2 = I
        j = symplectic_j(self.g)
        return SymplecticMatF2(
            self.g, bm_mul(bm_mul(j, bm_transpose(self.rows, 2 * self.g)), j)
        )

    def packed(self) -> int:
        w = 2 * self.g
        out = 0
        for r in self.rows:
            out = (out << w) | r
        return out

    @classmethod
    def from_packed(cls, g: int, packed: int) -> "SymplecticMatF2":
        w = 2 * g
        mask = (1 << w) - 1
        rows = tuple((packed >> (w * (w - 1 - i))) & mask for i in range(w))
        return cls(g, rows)

    def act(self, m: Characteristic) -> Characteristic:
        return act_on_characteristic(self, m)


def act_on_characteristic(gamma: SymplecticMatF2, m: Characteristic) -> Characteristic:
    """The affine action (D -C; -B A)(m'; m'') + (diag(C D^t); diag(A B^t))."""
    if gamma.g != m.g:
        raise ValueError("genus mismatch")
    g = gamma.g
    a, b, c, d = gamma.blocks
    lin = bm_block(d, c, b, a, g)  # signs vanish mod 2
    bt = bm_transpose(b, g)
    dt = bm_transpose(d, g)
    offset = (bm_diag(bm_mul(c, dt)) << g) | bm_diag(bm_mul(a, bt))
    return Characteristic(g, bm_matvec(lin, m.idx) ^ offset)


def action_tables(g: int, packed) -> np.ndarray:
    """act_on_characteristic of each packed gamma_t on all 2^{2g} indices:
    entry (t, i) is the index of gamma_t . m_i, from the linear part (D C; B A)
    and the offset (diag(C D^t); diag(A B^t)) applied to every index at once."""
    _check_genus(g)
    w = 2 * g
    packed = np.asarray(packed, dtype=np.uint64).reshape(-1)
    shifts = np.arange(w * w - 1, -1, -1, dtype=np.uint64).reshape(w, w)
    m = ((packed[:, None, None] >> shifts) & np.uint64(1)).astype(np.uint8)  # (n, w, w)
    a, b, c, d = m[:, :g, :g], m[:, :g, g:], m[:, g:, :g], m[:, g:, g:]
    lin = np.block([[d, c], [b, a]])
    offset = np.concatenate([(c * d).sum(axis=2), (a * b).sum(axis=2)], axis=1).astype(np.uint8)
    weights = 1 << np.arange(w - 1, -1, -1)  # msb first
    vecs = ((np.arange(1 << w)[:, None] & weights) > 0).astype(np.uint8)  # (2^{2g}, w)
    images = (lin @ vecs.T + offset[:, :, None]) & 1  # (n, w, 2^{2g})
    return images.transpose(0, 2, 1) @ weights


def translation_generators(g: int):
    """All matrices (I S; 0 I) with S symmetric over F_2."""
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    gens = []
    for mask in range(1, 1 << len(pairs)):
        s = [0] * g
        for t, (i, j) in enumerate(pairs):
            if (mask >> t) & 1:
                s[i] |= 1 << (g - 1 - j)
                s[j] |= 1 << (g - 1 - i)
        gens.append(
            SymplecticMatF2.from_blocks(g, bm_identity(g), tuple(s), bm_zero(g), bm_identity(g))
        )
    return gens


def group_generators(g: int):
    return [SymplecticMatF2.j(g)] + translation_generators(g)


SP_ORDERS = {1: 6, 2: 720, 3: 1451520}


class GroupEnumeration:
    """The full enumeration of Sp(2g, F_2), sorted.

    Elements are stored packed as (2g)^2-bit integers in a sorted numpy
    uint64 array, which gives O(log n) membership tests.
    """

    def __init__(self, g: int, packed: np.ndarray):
        self.g = g
        self.packed = packed

    def __len__(self) -> int:
        return len(self.packed)

    def __contains__(self, gamma: SymplecticMatF2) -> bool:
        p = np.uint64(gamma.packed())
        i = int(np.searchsorted(self.packed, p))
        return i < len(self.packed) and self.packed[i] == p

    def element(self, i: int) -> SymplecticMatF2:
        return SymplecticMatF2.from_packed(self.g, int(self.packed[i]))


def _symplectic_bases(g: int) -> np.ndarray:
    """All row tuples of F_2^{2g} with Gram matrix J under the pairing, packed
    and sorted.  Such rows are a basis, so these are the matrices of Sp(2g, F_2).

    Row k is chosen among all 2^{2g} vectors, keeping for each partial basis
    those whose pairing with every earlier row i equals J[i][k].
    """
    w = 2 * g
    n = 1 << w
    odd = pairing_table(g) == -1
    match = (~odd, odd)  # match[e][a, b]: the pairing of a and b is e
    j = symplectic_j(g)
    rows: list[np.ndarray] = []  # rows[i][t]: row i of partial basis t
    for k in range(w):
        keep = np.ones((len(rows[0]) if rows else 1, n), dtype=bool)
        for i, row in enumerate(rows):
            keep &= match[(j[i] >> (w - 1 - k)) & 1][row]
        t, v = np.nonzero(keep)
        rows = [row[t] for row in rows] + [v.astype(np.uint8)]
    packed = np.zeros(len(rows[0]), dtype=np.uint64)
    for row in rows:
        packed = (packed << np.uint64(w)) | row
    return np.sort(packed)


@lru_cache(maxsize=None)
def enumerate_group(g: int) -> GroupEnumeration:
    """Enumerate Sp(2g, F_2); built once per process and cached."""
    _check_genus(g)
    packed = _symplectic_bases(g)
    if len(packed) != SP_ORDERS[g]:
        raise AssertionError(f"|Sp({2*g}, F2)| = {len(packed)}, expected {SP_ORDERS[g]}")
    if not np.all(packed[1:] > packed[:-1]):
        raise AssertionError(f"Sp({2*g}, F2) enumeration has repeated elements")
    return GroupEnumeration(g, packed)


def has_zero_c_block(gamma: SymplecticMatF2) -> bool:
    return all(r == 0 for r in gamma.blocks[2])


def _complete_to_symplectic_basis(g: int, lag_basis: list[int]) -> SymplecticMatF2:
    """Build gamma in Sp(2g, F2) whose linear action maps {m'=0} onto the
    Lagrangian spanned by lag_basis (packed 2g-bit vectors)."""
    w = 2 * g
    pt = pairing_table(g)
    # greedily pick the least u_i with e(u_i, w_j) = (-1)^{delta_ij}, e(u_i, u_k) = 1
    us: list[int] = []
    for i in range(g):
        want = [-1 if j == i else 1 for j in range(g)] + [1] * len(us)
        ok = (pt[:, lag_basis + us] == want).all(axis=1)
        if not ok.any():
            raise AssertionError("failed to complete symplectic basis")
        us.append(int(ok.argmax()))
    cols = us + lag_basis
    n_rows = tuple(
        sum(((cols[j] >> (w - 1 - i)) & 1) << (w - 1 - j) for j in range(w))
        for i in range(w)
    )
    # N = (D C; B A) must be symplectic; recover gamma = (A B; C D)
    d, c, b, a = bm_unblock(n_rows, g)
    return SymplecticMatF2.from_blocks(g, a, b, c, d)


def parabolic_cosets(g: int = 3) -> list[SymplecticMatF2]:
    """Representatives of Sp(6,F2) / {C = 0}; one per Lagrangian subspace.

    The representative for the Lagrangian {m' = 0} is the identity; each rep
    maps {m' = 0} onto its Lagrangian under the linearized action.
    """
    if g != 3:
        raise ValueError("parabolic cosets implemented for g = 3")
    reps = []
    l0 = frozenset(range(1 << g))  # idx of {m'=0} members
    for lag in enumerate_lagrangian_subspaces(g):
        if lag == l0:
            reps.insert(0, SymplecticMatF2.identity(g))
            continue
        basis = _subspace_basis(lag)
        reps.append(_complete_to_symplectic_basis(g, basis))
    return reps


def _subspace_basis(subspace: frozenset) -> list[int]:
    """A basis of a linear subspace of F_2^w given as a set of packed ints."""
    basis: list[int] = []
    span = {0}
    for v in sorted(subspace):
        if v and v not in span:
            basis.append(v)
            span |= {s ^ v for s in span}
    return basis


def lagrangian_image(gamma: SymplecticMatF2) -> frozenset:
    """Image of the Lagrangian {m' = 0} under the linearized action."""
    table = action_tables(gamma.g, [gamma.packed()])[0]
    return frozenset((table[: 1 << gamma.g] ^ table[0]).tolist())
