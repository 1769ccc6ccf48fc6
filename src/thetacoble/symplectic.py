"""The symplectic group Sp(2g, F_2), g <= 3: the affine action on theta
characteristics, the elements at given indices (elements, which the group
suite samples with no list of the group), the full enumeration (the
reference for tests), and the 135 cosets of the parabolic subgroup {C = 0}
for g = 3.

An element is one packed integer: its (2g)^2 entries row by row, entry
(0, 0) the most significant bit, so that within a row the leftmost column
is the most significant bit, matching the characteristic encoding.  The
arithmetic unpacks to (..., 2g, 2g) uint8 bit arrays, so one call handles
one element or a batch.  Every packed input is checked by one batched body,
_packed (an integer in range, and symplectic), which SymplecticMatF2 runs
on one row; the generators of group_generators and their action tables are
packed, checked and built once per genus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characteristics import Characteristic, _check_genus, _integer, _read_only, pairing_table
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


def _genus(g) -> int:
    """g as an int in SUPPORTED_GENERA; ValueError naming it otherwise (True
    would pass the membership test as 1)."""
    g = _integer(g, "genus")
    _check_genus(g)
    return g


def _packed(g: int, packed) -> np.ndarray:
    """Packed elements of Sp(2g, F_2), an integer or an array of them, as a
    uint64 array of the same shape, all checked in one batch: each an integer
    (not a bool or float) in [0, 2^{4g^2}) whose matrix is symplectic.
    ValueError naming the first value that is not."""
    values = np.asarray(packed)
    if values.dtype.kind not in "iu":  # floats, bools, or Python ints past 64 bits
        values = np.asarray(packed, dtype=object)
        values = np.array([_integer(v, "packed value") for v in values.ravel().tolist()],
                          dtype=object).reshape(values.shape)
    outside = (values < 0) | (values >= 1 << (4 * g * g))
    if outside.any():
        bad = values.ravel()[np.argmax(outside.ravel())]
        raise ValueError(f"packed value {bad} does not fit a {2 * g} x {2 * g} matrix")
    values = values.astype(np.uint64)
    symplectic = is_symplectic(unpack(g, values))
    if not symplectic.all():
        bad = values.ravel()[np.argmin(symplectic.ravel())]
        raise ValueError(f"packed value {bad}: matrix is not symplectic over F_2")
    return values


@dataclass(frozen=True)
class SymplecticMatF2:
    """An element (A B; C D) of Sp(2g, F_2), held as its packed integer.  The
    genus and the packed value are stored as ints; any other type, a value
    out of range or a matrix that is not symplectic raises ValueError."""

    g: int
    bits: int

    def __post_init__(self):
        g = _genus(self.g)
        bits = _integer(self.bits, "packed value")
        _packed(g, [bits])
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _checked(cls, g: int, bits: int) -> "SymplecticMatF2":
        """An element whose row _packed has passed, built without running
        the check again."""
        element = cls.__new__(cls)
        vars(element).update(g=g, bits=bits)
        return element

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
        return cls(g, packed)

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
    (t, i) is the index of gamma_t . m_i.  Every gamma_t is checked first
    (see _packed)."""
    g = _genus(g)
    return _images(g, _packed(g, packed), slice(None))


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


@lru_cache(maxsize=None)
def _generator_pack(g: int) -> np.ndarray:
    """J, then the translations (I S; 0 I) for every symmetric S != 0 over
    F_2, in increasing order of the bit mask of S's upper triangle, row by
    row: the 2^{g(g+1)/2} packed generators of Sp(2g, F_2), a cached,
    read-only array checked by one _packed call over the stack.  Mask 0, the
    identity, is the slot of J."""
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    masks = np.arange(1 << len(pairs))
    m = np.tile(np.eye(2 * g, dtype=np.uint8), (len(masks), 1, 1))
    for t, (i, j) in enumerate(pairs):
        m[:, i, g + j] = m[:, j, g + i] = (masks >> t) & 1
    m[0] = symplectic_j(g)
    return _read_only(_packed(g, pack(m)))


@lru_cache(maxsize=None)
def _generators(g: int) -> tuple[SymplecticMatF2, ...]:
    """The elements of _generator_pack(g), made once."""
    return tuple(SymplecticMatF2._checked(g, p) for p in _generator_pack(g).tolist())


@lru_cache(maxsize=None, typed=True)  # typed: True and 3.0 are not keyed as 1 and 3
def generator_tables(g: int) -> np.ndarray:
    """The action tables of group_generators(g), row t for generator t: a
    cached, read-only (2^{g(g+1)/2}, 2^{2g}) array."""
    g = _genus(g)
    return _read_only(_images(g, _generator_pack(g), slice(None)))


def translation_generators(g: int) -> list[SymplecticMatF2]:
    """All matrices (I S; 0 I) with S symmetric over F_2, S != 0, in the
    order of _generator_pack."""
    return list(_generators(_genus(g))[1:])


def group_generators(g: int) -> list[SymplecticMatF2]:
    """J and the translation_generators, which generate Sp(2g, F_2)."""
    return list(_generators(_genus(g)))


SP_ORDERS = {1: 6, 2: 720, 3: 1451520}


def _row_filter(g: int, rows: dict[int, np.ndarray], k: int) -> np.ndarray:
    """Entry (t, v): whether v can be row k of partial basis t, that is, v is
    nonzero and pairs with each placed row i, rows[i][t], as J[i][k], which
    is 1 exactly when rows i and k are a hyperbolic pair, |i - k| = g."""
    odd = pairing_table(g) == -1
    match = (~odd, odd)  # match[e][a, b]: the pairing of a and b is e
    keep = (np.arange(1 << 2 * g) > 0)[None, :]
    for i, row in rows.items():
        keep = keep & match[abs(i - k) == g][row]
    return keep


def _symplectic_bases(g: int) -> np.ndarray:
    """All row tuples of F_2^{2g} with Gram matrix J under the pairing, packed
    in increasing order.  Such rows are a basis, so these are the matrices of
    Sp(2g, F_2).

    np.nonzero of _row_filter yields the extensions basis by basis, each in
    increasing row k, and row 0 sits in the high bits, so the packed values
    come out increasing without a sort (enumerate_group asserts it).
    """
    rows: dict[int, np.ndarray] = {}  # rows[i][t]: row i of partial basis t
    for k in range(2 * g):
        t, v = np.nonzero(_row_filter(g, rows, k))
        rows = {i: row[t] for i, row in rows.items()} | {k: v.astype(np.uint8)}
    packed = np.zeros(len(rows[0]), dtype=np.uint64)
    for i in range(2 * g):
        packed = (packed << np.uint64(2 * g)) | rows[i]
    return packed


@lru_cache(maxsize=None)
def enumerate_group(g: int) -> np.ndarray:
    """The packed elements of Sp(2g, F_2), a cached, read-only, increasing
    array: the reference that elements is tested against."""
    _check_genus(g)
    packed = _symplectic_bases(g)
    if len(packed) != SP_ORDERS[g]:
        raise AssertionError(f"|Sp({2*g}, F2)| = {len(packed)}, expected {SP_ORDERS[g]}")
    if not np.all(packed[1:] > packed[:-1]):
        raise AssertionError(f"Sp({2*g}, F2) enumeration is not strictly increasing")
    return _read_only(packed)


def extension_counts(g: int) -> list[int]:
    """The candidates for each row in hyperbolic-pair order e_1, f_1, ...,
    e_g, f_g: by Witt's theorem every partial basis in this order has
    2^{2k} - 1 nonzero e and then 2^{2k-1} f to choose from, k = g, ..., 1,
    and each choice completes.  Their product is |Sp(2g, F_2)|."""
    _check_genus(g)
    return [c for k in range(g, 0, -1) for c in ((1 << 2 * k) - 1, 1 << (2 * k - 1))]


def elements(g: int, index) -> np.ndarray:
    """The packed elements of Sp(2g, F_2) at an int array of indices in
    [0, |Sp|), with no list of the group: an index is a mixed-radix choice
    among the extension_counts, e_1 most significant, and the count is
    checked at every prefix drawn."""
    counts = extension_counts(g)
    index = np.asarray(index)
    if index.dtype.kind not in "iu" or ((index < 0) | (index >= math.prod(counts))).any():
        raise ValueError(f"need integer indices in [0, {math.prod(counts)}) for Sp({2*g}, F2)")
    rows = {}
    for s, digit in enumerate(np.unravel_index(index.ravel(), counts)):
        k = s // 2 + g * (s % 2)  # e_1, f_1, ..., e_g, f_g are rows 0, g, 1, g + 1, ...
        keep = _row_filter(g, rows, k)
        if (keep.sum(axis=1) != counts[s]).any():
            raise AssertionError(f"a partial basis has other than {counts[s]} candidates for row {k}")
        rows[k] = (keep.cumsum(axis=1) > digit[:, None]).argmax(axis=1)
    bits = _action_layout(g)[1][np.stack([rows[i] for i in range(2 * g)], axis=-1)]  # (n, 2g, 2g)
    return pack(bits).reshape(index.shape)


def parabolic_cosets(g: int = 3) -> list[SymplecticMatF2]:
    """Representatives of Sp(6,F2) / {C = 0}; one per Lagrangian subspace,
    in enumeration order, each mapping {m' = 0} onto its Lagrangian under
    the linearized action.

    Each echelon basis w_1..w_g of lagrangian_bases, placed as rows g..2g-1,
    is completed by _row_filter with the least u_i as row i, that is, with
    e(u_i, w_j) = (-1)^{delta_ij} and e(u_i, u_k) = 1 for k < i, all bases
    at once.  The matrix with columns u + w is the linear part (D C; B A) of
    the representative.  {m' = 0} comes first, with the unit vectors as its
    basis, so its representative is the identity.
    """
    if g != 3:
        raise ValueError("parabolic cosets implemented for g = 3")
    rows = {g + j: w for j, w in enumerate(lagrangian_bases(g).T)}
    for i in range(g):
        keep = _row_filter(g, rows, i)
        if not keep.any(axis=1).all():
            raise AssertionError("failed to complete symplectic basis")
        rows[i] = keep.argmax(axis=1)
    cols = np.column_stack([rows[i] for i in range(2 * g)])
    n = ((cols[:, None, :] >> np.arange(2 * g - 1, -1, -1)[:, None]) & 1).astype(np.uint8)
    return [SymplecticMatF2._checked(g, p) for p in _packed(g, pack(swap_blocks(n))).tolist()]


def lagrangian_image(g: int, packed) -> list[frozenset]:
    """Image of the Lagrangian {m' = 0} under the linearized action of each
    packed element."""
    tables = action_tables(g, packed)[:, : 1 << g]
    return [frozenset(row) for row in (tables ^ tables[:, :1]).tolist()]
