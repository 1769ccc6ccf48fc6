"""The symplectic group Sp(2g, F_2): the affine action on theta
characteristics, full enumeration for g <= 3, and the 135 cosets of the
parabolic subgroup {C = 0} for g = 3.

An element is one packed integer: its (2g)^2 entries row by row, entry
(0, 0) the most significant bit, so that within a row the leftmost column
is the most significant bit, matching the characteristic encoding.  The
arithmetic unpacks to (..., 2g, 2g) uint8 bit arrays, so one call handles
one element or a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characteristics import Characteristic, _check_genus, _read_only, pairing_table
from .gopel import lagrangian_bases


def unpack(g: int, packed) -> np.ndarray:
    """The (..., 2g, 2g) bit arrays of packed elements (an int or an array)."""
    w = 2 * g
    shifts = np.arange(w * w - 1, -1, -1, dtype=np.uint64).reshape(w, w)
    packed = np.asarray(packed, dtype=np.uint64)[..., None, None]
    return ((packed >> shifts) & np.uint64(1)).astype(np.uint8)


def pack(m: np.ndarray) -> np.ndarray:
    """The packed uint64 values of (..., 2g, 2g) bit arrays."""
    w = m.shape[-1]
    weights = np.uint64(1) << np.arange(w * w - 1, -1, -1, dtype=np.uint64)
    return (m.reshape(*m.shape[:-2], w * w).astype(np.uint64) * weights).sum(axis=-1)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a_t b_t over F_2."""
    return (a @ b) & 1


def swap_blocks(m: np.ndarray) -> np.ndarray:
    """(A B; C D) -> (D C; B A), which is J M J."""
    w = m.shape[-1]
    p = (np.arange(w) + w // 2) % w
    return m[..., p[:, None], p]


def invert(m: np.ndarray) -> np.ndarray:
    # over F_2: M^{-1} = J M^t J since J^2 = I
    return swap_blocks(m.swapaxes(-2, -1))


def symplectic_j(g: int) -> np.ndarray:
    """The standard form matrix J = (0 I; I 0) over F_2."""
    return np.eye(2 * g, k=g, dtype=np.uint8) | np.eye(2 * g, k=-g, dtype=np.uint8)


def is_symplectic(m: np.ndarray) -> np.ndarray:
    """Whether each (..., 2g, 2g) bit matrix preserves the standard pairing."""
    w = m.shape[-1]
    if m.shape[-2] != w or w % 2 or w > 6:
        raise ValueError("need a square even-dimension matrix of size <= 6")
    j = symplectic_j(w // 2)
    return (((m.swapaxes(-2, -1) @ j @ m) & 1) == j).all(axis=(-2, -1))


def has_zero_c_block(m: np.ndarray) -> np.ndarray:
    """Whether each matrix lies in the parabolic subgroup {C = 0}."""
    g = m.shape[-1] // 2
    return ~m[..., g:, :g].any(axis=(-2, -1))


@dataclass(frozen=True)
class SymplecticMatF2:
    """An element (A B; C D) of Sp(2g, F_2), held as its packed integer."""

    g: int
    bits: int

    def __post_init__(self):
        _check_genus(self.g)
        if not 0 <= self.bits < 1 << (4 * self.g * self.g):
            raise ValueError("packed value does not fit a 2g x 2g matrix")
        if not is_symplectic(unpack(self.g, self.bits)):
            raise ValueError("matrix is not symplectic over F_2")

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SymplecticMatF2":
        return cls(m.shape[-1] // 2, int(pack(m)))

    @classmethod
    def identity(cls, g: int) -> "SymplecticMatF2":
        return cls.from_matrix(np.eye(2 * g, dtype=np.uint8))

    @classmethod
    def j(cls, g: int) -> "SymplecticMatF2":
        return cls.from_matrix(symplectic_j(g))

    def __mul__(self, other: "SymplecticMatF2") -> "SymplecticMatF2":
        if self.g != other.g:
            raise ValueError("genus mismatch")
        return SymplecticMatF2.from_matrix(multiply(*unpack(self.g, [self.bits, other.bits])))

    def inverse(self) -> "SymplecticMatF2":
        return SymplecticMatF2.from_matrix(invert(unpack(self.g, self.bits)))

    def packed(self) -> int:
        return self.bits

    @classmethod
    def from_packed(cls, g: int, packed: int) -> "SymplecticMatF2":
        return cls(g, int(packed))

    def act(self, m: Characteristic) -> Characteristic:
        return act_on_characteristic(self, m)


def act_on_characteristic(gamma: SymplecticMatF2, m: Characteristic) -> Characteristic:
    """gamma . m, the one image of the affine action.  The one body behind
    SymplecticMatF2.act; perfbench's tracer wraps it by name."""
    if gamma.g != m.g:
        raise ValueError("genus mismatch")
    return Characteristic(m.g, int(_images(m.g, gamma.bits, [m.idx])[0, 0]))


def action_tables(g: int, packed) -> np.ndarray:
    """The affine action of each packed gamma_t on all 2^{2g} indices: entry
    (t, i) is the index of gamma_t . m_i."""
    _check_genus(g)
    return _images(g, packed, slice(None))


@lru_cache(maxsize=None)
def _action_layout(g: int) -> tuple[np.ndarray, np.ndarray]:
    """The msb-first bit weights of an index and the bit vectors of all
    2^{2g} indices."""
    w = 2 * g
    weights = 1 << np.arange(w - 1, -1, -1)
    bits = ((np.arange(1 << w)[:, None] & weights) > 0).astype(np.uint8)
    return _read_only(weights), _read_only(bits)


def _images(g: int, packed, idx) -> np.ndarray:
    """Entry (t, k): the index of gamma_t . m_{idx_k} under the affine action
    (D -C; -B A)(m'; m'') + (diag(C D^t); diag(A B^t)).  The signs vanish
    mod 2, so the linear part is (D C; B A), applied to every index at once."""
    weights, bits = _action_layout(g)
    lin = swap_blocks(unpack(g, np.reshape(packed, -1)))  # (n, w, w)
    # (diag(C D^t); diag(A B^t)): row i of (D C; B A) pairs D_i with C_i, then B_i with A_i
    offset = (lin[:, :, :g] & lin[:, :, g:]).sum(axis=2, dtype=np.uint8)
    images = (lin @ bits[idx].T + offset[:, :, None]) & 1  # (n, w, k)
    return images.transpose(0, 2, 1) @ weights


def translation_generators(g: int):
    """All matrices (I S; 0 I) with S symmetric over F_2, S != 0."""
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    masks = np.arange(1, 1 << len(pairs))
    m = np.tile(np.eye(2 * g, dtype=np.uint8), (len(masks), 1, 1))
    for t, (i, j) in enumerate(pairs):
        m[:, i, g + j] = m[:, j, g + i] = (masks >> t) & 1
    return [SymplecticMatF2(g, int(p)) for p in pack(m)]


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
        return bool(self.contains(gamma.packed()))

    def contains(self, packed) -> np.ndarray:
        """Membership of each packed value (an int or an array)."""
        packed = np.asarray(packed, dtype=np.uint64)
        i = np.minimum(np.searchsorted(self.packed, packed), len(self.packed) - 1)
        return self.packed[i] == packed

    def element(self, i: int) -> SymplecticMatF2:
        return SymplecticMatF2.from_packed(self.g, int(self.packed[i]))


def _symplectic_bases(g: int) -> np.ndarray:
    """All row tuples of F_2^{2g} with Gram matrix J under the pairing, packed
    in increasing order.  Such rows are a basis, so these are the matrices of
    Sp(2g, F_2).

    Row k is chosen among all 2^{2g} vectors, keeping for each partial basis
    those whose pairing with every earlier row i equals J[i][k].  np.nonzero
    yields the extensions basis by basis, each in increasing row k, and row 0
    sits in the high bits, so the packed values come out increasing without
    a sort (enumerate_group asserts it).
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
            keep &= match[j[i, k]][row]
        t, v = np.nonzero(keep)
        rows = [row[t] for row in rows] + [v.astype(np.uint8)]
    packed = np.zeros(len(rows[0]), dtype=np.uint64)
    for row in rows:
        packed = (packed << np.uint64(w)) | row
    return packed


@lru_cache(maxsize=None)
def enumerate_group(g: int) -> GroupEnumeration:
    """Enumerate Sp(2g, F_2); built once per process and cached."""
    _check_genus(g)
    packed = _symplectic_bases(g)
    if len(packed) != SP_ORDERS[g]:
        raise AssertionError(f"|Sp({2*g}, F2)| = {len(packed)}, expected {SP_ORDERS[g]}")
    if not np.all(packed[1:] > packed[:-1]):
        raise AssertionError(f"Sp({2*g}, F2) enumeration is not strictly increasing")
    return GroupEnumeration(g, packed)


def parabolic_cosets(g: int = 3) -> list[SymplecticMatF2]:
    """Representatives of Sp(6,F2) / {C = 0}; one per Lagrangian subspace,
    in enumeration order, each mapping {m' = 0} onto its Lagrangian under
    the linearized action.

    Each echelon basis w_1..w_g of lagrangian_bases is completed by the
    least u_i with e(u_i, w_j) = (-1)^{delta_ij} and e(u_i, u_k) = 1 for
    k < i, all bases at once.  The matrix with columns u + w is the linear
    part (D C; B A) of the representative.  {m' = 0} comes first, with the
    unit vectors as its basis, so its representative is the identity.
    """
    if g != 3:
        raise ValueError("parabolic cosets implemented for g = 3")
    pt = pairing_table(g)
    ws = lagrangian_bases(g)
    us = np.zeros((len(ws), 0), dtype=int)
    for i in range(g):
        want = np.where(np.arange(g) == i, -1, 1)[:, None]
        ok = (pt[ws] == want).all(axis=1) & (pt[us] == 1).all(axis=1)
        if not ok.any(axis=1).all():
            raise AssertionError("failed to complete symplectic basis")
        us = np.column_stack([us, ok.argmax(axis=1)])
    cols = np.hstack([us, ws])
    n = ((cols[:, None, :] >> np.arange(2 * g - 1, -1, -1)[:, None]) & 1).astype(np.uint8)
    return [SymplecticMatF2(g, int(p)) for p in pack(swap_blocks(n))]


def lagrangian_image(g: int, packed) -> list[frozenset]:
    """Image of the Lagrangian {m' = 0} under the linearized action of each
    packed element."""
    tables = action_tables(g, packed)[:, : 1 << g]
    return [frozenset(row) for row in (tables ^ tables[:, :1]).tolist()]
