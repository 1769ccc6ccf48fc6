"""Goepel systems: Lagrangian subspaces of F_2^{2g}, the Fano/Pascal split for
g = 3, construction from Aronhold sets, the split Lagrangians behind the
s-vector, and the unique Fano-pair decomposition of each Pascal configuration.

Each table is one batched body over an (n, 2^g) array of member indices, one
row per system: the subspace checks (_check_spans), the even cosets
(_even_cosets) and the Fano pairs (_fano_pairs).  The one-object entry points
(GopelSystem(...), even_coset, pascal_decomposition) run the same body on one
row, and the enumerations make their objects last, from interned members.
The 105 Fano-pair decompositions are one array of positions (pascal_rows);
only pascal_decomposition makes a decomposition object, for its one input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characteristics import (
    Characteristic,
    CharacteristicSet,
    _check_aronhold,
    _read_only,
    fano_family,
    pairing_table,
    parity_table,
    pascal_family,
)


@dataclass(frozen=True)
class GopelSystem:
    """A Lagrangian subspace of F_2^{2g}, as a set of 2^g characteristics.
    Its hash, that of (g, members), is computed once, since the lru_caches
    keyed by a system (even_coset) hash it on every call."""

    g: int
    members: CharacteristicSet
    even_count: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.members.g != self.g:
            raise ValueError("genus mismatch")
        if len(self.members) != 1 << self.g:
            raise ValueError("a Goepel system has 2^g members")
        (even_count,) = _check_spans(self.g, np.array([[m.idx for m in self.members]])).tolist()
        object.__setattr__(self, "even_count", even_count)
        object.__setattr__(self, "_hash", hash((self.g, self.members)))

    @classmethod
    def _checked(cls, g: int, members: CharacteristicSet, even_count: int) -> "GopelSystem":
        """A system whose row _check_spans has passed, built without
        running the check again."""
        system = cls.__new__(cls)
        vars(system).update(g=g, members=members, even_count=even_count,
                            _hash=hash((g, members)))
        return system

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_idxs(cls, g: int, idxs) -> "GopelSystem":
        return cls(g, CharacteristicSet(Characteristic(g, i) for i in sorted(idxs)))

    @property
    def kind(self) -> str:
        """"fano" if all members are even, "pascal" if exactly half (g=3)."""
        if self.g != 3:
            raise ValueError("Fano/Pascal classification is for g = 3")
        # a Lagrangian subspace of F_2^6 holds 8 or 4 even characteristics
        return "fano" if self.even_count == 8 else "pascal"

    def idx_set(self) -> frozenset:
        return self.members.idx_set()

    def to_json(self) -> dict:
        return {"kind": self.kind if self.g == 3 else "goepel",
                "members": self.members.to_strings()}

    def __contains__(self, m: Characteristic) -> bool:
        return m in self.members


def _check_spans(g: int, spans: np.ndarray) -> np.ndarray:
    """The number of even members of each row of an (n, 2^g) array of
    distinct indices, once every row is checked to be a Lagrangian subspace:
    it holds zero, is closed under addition, and its members pair to 1."""
    rows = np.arange(len(spans))[:, None]
    member = np.zeros((len(spans), 1 << (2 * g)), dtype=bool)
    member[rows, spans] = True
    if not member[:, 0].all():
        raise ValueError("a Goepel system contains the zero characteristic")
    sums = (spans[:, :, None] ^ spans[:, None, :]).reshape(len(spans), -1)
    if not member[rows, sums].all():
        raise ValueError("members are not closed under addition")
    if (pairing_table(g)[spans[:, :, None], spans[:, None, :]] != 1).any():
        raise ValueError("members are not pairwise orthogonal")
    return (parity_table(g)[spans] == 1).sum(axis=1)


def _systems(g: int, spans: np.ndarray) -> tuple[GopelSystem, ...]:
    """The system of each row of an (n, 2^g) array of increasing indices,
    all rows checked at once."""
    even_counts = _check_spans(g, spans).tolist()
    return tuple(GopelSystem._checked(g, members, count)
                 for members, count in zip(CharacteristicSet._rows(g, spans), even_counts))


@lru_cache(maxsize=None)
def lagrangian_bases(g: int) -> np.ndarray:
    """The reduced echelon basis of every Lagrangian subspace of F_2^{2g}, in
    the order of enumerate_lagrangian_subspaces: a read-only (n, g) array.

    Its vectors have strictly decreasing leading bits, each zero at the
    others' leading bits.  Level k extends every such isotropic basis of k
    vectors by each vector orthogonal to it, below its last leading bit,
    zero at its leading bits and with a leading bit where it is zero.
    """
    if g not in (2, 3):
        raise ValueError("Lagrangian enumeration implemented for g in {2, 3}")
    vs = np.arange(1, 1 << (2 * g))
    orthogonal = pairing_table(g)[1:, 1:] == 1  # entry (i, j): vs[i] and vs[j] pair to 1
    top = 2 ** (np.frexp(vs)[1] - 1)  # the leading bit of each vector
    bases, union = np.zeros((1, 0), dtype=int), np.zeros(1, dtype=int)
    allowed = np.ones((1, vs.size), dtype=bool)  # the first three conditions, per basis
    for _ in range(g):
        rows, cols = np.nonzero(allowed & (union[:, None] & top == 0))
        bases, union = np.column_stack([bases[rows], vs[cols]]), union[rows] | vs[cols]
        lead = top[cols, None]
        allowed = allowed[rows] & orthogonal[cols] & (vs < lead) & (vs & lead == 0)
    spans = np.sort(_spans(bases), axis=1)
    return _read_only(bases[np.lexsort(spans.T[::-1])])


def _spans(bases: np.ndarray) -> np.ndarray:
    """(n, 2^k): the span of each row of an (n, k) array of packed vectors."""
    spans = np.zeros((len(bases), 1), dtype=int)
    for column in bases.T:
        spans = np.hstack([spans, spans ^ column[:, None]])
    return spans


@lru_cache(maxsize=None)
def lagrangian_spans(g: int) -> np.ndarray:
    """The members of every Lagrangian subspace of F_2^{2g}, each row the
    increasing span of its row of lagrangian_bases: a read-only (n, 2^g)
    array in increasing order of rows."""
    return _read_only(np.sort(_spans(lagrangian_bases(g)), axis=1))


@lru_cache(maxsize=None)
def enumerate_lagrangian_subspaces(g: int) -> tuple[frozenset, ...]:
    """All Lagrangian subspaces of F_2^{2g} as frozensets of packed indices,
    the rows of lagrangian_spans."""
    return tuple(map(frozenset, lagrangian_spans(g).tolist()))


@lru_cache(maxsize=None)
def split_lagrangians(g: int) -> tuple[GopelSystem, ...]:
    """The Lagrangians A + A^perp (A in the m' space, A^perp its orthogonal in
    the m'' space), in enumeration order: those whose echelon vectors are each
    purely m' or purely m''.  5 for g = 2; 16 for g = 3, the last A = F_2^3."""
    bases = lagrangian_bases(g)
    low = (1 << g) - 1
    split = ((bases & low == 0) | (bases <= low)).all(axis=1)
    return _systems(g, np.sort(_spans(bases[split]), axis=1))


@lru_cache(maxsize=None)
def enumerate_gopel(g: int) -> tuple[GopelSystem, ...]:
    """All Goepel systems, the rows of lagrangian_spans; 15 for g=2, 135 for
    g=3 (30 Fano + 105 Pascal)."""
    return _systems(g, lagrangian_spans(g))


def fano_from_aronhold(aronhold: CharacteristicSet, triples) -> GopelSystem:
    """Zero plus the seven triple sums m_i + m_j + m_k of a Fano-plane family
    of index triples, in any order (see fano_family); always a Fano Goepel
    system."""
    _check_aronhold(aronhold)
    ms = aronhold.members
    idxs = {0}
    for (i, j, k) in fano_family(triples):
        idxs.add(ms[i - 1].idx ^ ms[j - 1].idx ^ ms[k - 1].idx)
    sys = GopelSystem.from_idxs(3, idxs)
    if sys.kind != "fano":
        raise AssertionError("triple family did not produce a Fano configuration")
    return sys


def pascal_from_aronhold(aronhold: CharacteristicSet, spec) -> GopelSystem:
    """Goepel system from a P-shaped family: three triple sums through one
    common index, the singleton, and the three complementary pair sums.  The
    parts may come in any order (see pascal_family)."""
    _check_aronhold(aronhold)
    family = pascal_family(spec)
    (common,), pairs = family[3], family[4:]
    ms = aronhold.members
    c = ms[common - 1].idx
    idxs = {0, c}
    for (a, b) in pairs:
        s = ms[a - 1].idx ^ ms[b - 1].idx
        idxs.add(s)
        idxs.add(s ^ c)
    sys = GopelSystem.from_idxs(3, idxs)
    if sys.kind != "pascal":
        raise AssertionError("P-family did not produce a Pascal configuration")
    return sys


@lru_cache(maxsize=1)
def fano_basis() -> tuple[GopelSystem, ...]:
    """The basis F_1..F_15 of the modular forms H(F): the split Lagrangians
    A + A^perp of genus 3 with A^perp != 0, that is all but the last."""
    return tuple(s for s in split_lagrangians(3) if sum(m.mp_int == 0 for m in s.members) > 1)


def _even_cosets(g: int, spans: np.ndarray) -> np.ndarray:
    """The even coset of each row of an (n, 2^g) array of Lagrangian
    subspaces V, as increasing indices.  The translates t + V over all t
    split into the cosets of V, each reached from its 2^g members; so V has
    exactly one all-even coset when exactly 2^g of the t give an all-even
    translate, and those t are that coset."""
    t = np.arange(1 << (2 * g))[:, None]
    even = (parity_table(g)[t ^ spans[:, None, :]] == 1).all(axis=2)
    counts = even.sum(axis=1)
    if (counts == 0).any():
        raise AssertionError("no even coset exists")
    if (counts != spans.shape[1]).any():
        raise AssertionError("even coset is not unique")
    return np.nonzero(even)[1].reshape(spans.shape)


@lru_cache(maxsize=None)
def even_coset(system: GopelSystem) -> frozenset:
    """The unique affine translate of the system consisting of 8 even
    characteristics; the system itself for a Fano configuration."""
    (coset,) = _even_cosets(system.g, np.array([[m.idx for m in system.members]])).tolist()
    return frozenset(coset)


@lru_cache(maxsize=None)
def even_cosets(g: int) -> np.ndarray:
    """The even coset of each system of enumerate_gopel(g), in that order:
    a cached, read-only (n, 2^g) array of increasing indices."""
    return _read_only(_even_cosets(g, lagrangian_spans(g)))


@dataclass(frozen=True)
class PascalDecomposition:
    pascal: GopelSystem
    fano1: GopelSystem
    fano2: GopelSystem
    s1: frozenset  # fano1 & fano2 (a 2-dim isotropic subspace, all even)
    s2: frozenset  # fano1 - s1
    s3: frozenset  # fano2 - s1


def _masks(rows: np.ndarray) -> np.ndarray:
    """The 64-bit member mask of each row of an (n, k) array of genus-3
    indices."""
    return np.bitwise_or.reduce(np.left_shift(np.uint64(1), rows.astype(np.uint64)), axis=1)


def _fano_pairs(cosets: np.ndarray) -> np.ndarray:
    """(n, 2): for each row of an (n, 8) array of Pascal even cosets, the
    positions in enumerate_gopel(3) of the unique Fano pair F', F'' with
    F' = S1 u S2, F'' = S1 u S3 and S2 u S3 the coset.

    Two 8-sets with symmetric difference the 8-set S2 u S3 meet in 4 members,
    so the pairs are exactly the Fano F' whose mask XOR the coset's is a Fano
    mask; F' is the member that comes first in enumerate_gopel order."""
    fano, fano_masks = _fano_masks()
    partner = _masks(cosets)[:, None] ^ fano_masks
    found = partner[:, :, None] == fano_masks  # (n, F', F'')
    counts = found.sum(axis=(1, 2))
    if (counts == 0).any():
        raise AssertionError("no Fano pair decomposes this Pascal configuration")
    if (counts > 2).any():  # each pair is found from both of its members
        raise AssertionError("Fano pair is not unique")
    first, second = np.divmod(found.reshape(len(cosets), -1).argmax(axis=1), len(fano))
    return fano[np.column_stack([first, second])]


@lru_cache(maxsize=1)
def _fano_masks() -> tuple[np.ndarray, np.ndarray]:
    """The positions in enumerate_gopel(3) of the 30 Fano systems, in order,
    and their member masks."""
    spans = lagrangian_spans(3)
    fano = np.flatnonzero((parity_table(3)[spans] == 1).all(axis=1))
    return fano, _masks(spans[fano])


@lru_cache(maxsize=None)
def pascal_decomposition(pascal: GopelSystem) -> PascalDecomposition:
    """The unique pair of Fano configurations F', F'' with F' = S1 u S2,
    F'' = S1 u S3 and S2 u S3 the even coset of the Pascal input (see
    _fano_pairs): S1 = F' & F'', S2 = F' - S1 and S3 = F'' - S1."""
    if pascal.kind != "pascal":
        raise ValueError("input is not a Pascal configuration")
    systems = enumerate_gopel(3)
    ((f1, f2),) = _fano_pairs(np.array([sorted(even_coset(pascal))])).tolist()
    fano1, fano2 = systems[f1], systems[f2]
    s1 = fano1.idx_set() & fano2.idx_set()
    return PascalDecomposition(pascal, fano1, fano2, s1, fano1.idx_set() - s1,
                               fano2.idx_set() - s1)


@lru_cache(maxsize=1)
def pascal_rows() -> np.ndarray:
    """(105, 3): the positions in enumerate_gopel(3) of each Pascal system P,
    in that order, and of its Fano pair F', F'' (see pascal_decomposition):
    a cached, read-only array."""
    pascal = np.flatnonzero((parity_table(3)[lagrangian_spans(3)] == -1).any(axis=1))
    return _read_only(np.column_stack([pascal, _fano_pairs(even_cosets(3)[pascal])]))
