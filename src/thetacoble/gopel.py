"""Goepel systems: Lagrangian subspaces of F_2^{2g}, the Fano/Pascal split for
g = 3, construction from Aronhold sets, the split Lagrangians behind the
s-vector, and the unique Fano-pair decomposition of each Pascal configuration.
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
    """A Lagrangian subspace of F_2^{2g}, as a set of 2^g characteristics."""

    g: int
    members: CharacteristicSet
    even_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.members.g != self.g:
            raise ValueError("genus mismatch")
        if len(self.members) != 1 << self.g:
            raise ValueError("a Goepel system has 2^g members")
        idx = np.array([m.idx for m in self.members])
        if 0 not in idx:
            raise ValueError("a Goepel system contains the zero characteristic")
        member = np.zeros(1 << (2 * self.g), dtype=bool)
        member[idx] = True
        if not member[idx[:, None] ^ idx].all():
            raise ValueError("members are not closed under addition")
        if (pairing_table(self.g)[idx[:, None], idx] != 1).any():
            raise ValueError("members are not pairwise orthogonal")
        object.__setattr__(self, "even_count", int((parity_table(self.g)[idx] == 1).sum()))

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
def enumerate_lagrangian_subspaces(g: int) -> tuple[frozenset, ...]:
    """All Lagrangian subspaces of F_2^{2g} as frozensets of packed indices,
    in increasing order of their sorted members; each is the span of its
    row of lagrangian_bases."""
    return tuple(map(frozenset, _spans(lagrangian_bases(g)).tolist()))


@lru_cache(maxsize=None)
def split_lagrangians(g: int) -> tuple[GopelSystem, ...]:
    """The Lagrangians A + A^perp (A in the m' space, A^perp its orthogonal in
    the m'' space), in enumeration order: those whose echelon vectors are each
    purely m' or purely m''.  5 for g = 2; 16 for g = 3, the last A = F_2^3."""
    bases = lagrangian_bases(g)
    low = (1 << g) - 1
    split = ((bases & low == 0) | (bases <= low)).all(axis=1)
    return tuple(GopelSystem.from_idxs(g, span) for span in _spans(bases[split]).tolist())


@lru_cache(maxsize=None)
def enumerate_gopel(g: int) -> tuple[GopelSystem, ...]:
    """All Goepel systems; 15 for g=2, 135 for g=3 (30 Fano + 105 Pascal)."""
    return tuple(GopelSystem.from_idxs(g, s) for s in enumerate_lagrangian_subspaces(g))


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


@lru_cache(maxsize=None)
def even_coset(system: GopelSystem) -> frozenset:
    """The unique affine translate of the system consisting of 8 even
    characteristics; the system itself for a Fano configuration."""
    g = system.g
    translates = np.arange(1 << (2 * g))[:, None] ^ [m.idx for m in system.members]
    even = (parity_table(g)[translates] == 1).all(axis=1)
    found = {frozenset(t) for t in translates[even].tolist()}
    if not found:
        raise AssertionError("no even coset exists")
    if len(found) > 1:
        raise AssertionError("even coset is not unique")
    return found.pop()


@dataclass(frozen=True)
class PascalDecomposition:
    pascal: GopelSystem
    fano1: GopelSystem
    fano2: GopelSystem
    s1: frozenset  # fano1 & fano2 (a 2-dim isotropic subspace, all even)
    s2: frozenset  # fano1 - s1
    s3: frozenset  # fano2 - s1


def _mask(idxs) -> int:
    return sum(1 << i for i in idxs)


@lru_cache(maxsize=1)
def _fano_by_mask() -> dict:
    """The 30 Fano configurations keyed by their 64-bit member mask, in
    enumerate_gopel order."""
    return {_mask(s.idx_set()): s for s in enumerate_gopel(3) if s.kind == "fano"}


@lru_cache(maxsize=None)
def pascal_decomposition(pascal: GopelSystem) -> PascalDecomposition:
    """The unique pair of Fano configurations F', F'' with F' = S1 u S2,
    F'' = S1 u S3 and S2 u S3 the even coset of the Pascal input.

    Two 8-sets with symmetric difference the 8-set S2 u S3 meet in 4 members,
    so the pairs are exactly the Fano F' whose mask XOR the target is a Fano
    mask; F' is the member that comes first in enumerate_gopel order."""
    if pascal.kind != "pascal":
        raise ValueError("input is not a Pascal configuration")
    target = _mask(even_coset(pascal))
    fanos = _fano_by_mask()
    found = [(f, fanos[m ^ target]) for m, f in fanos.items() if m ^ target in fanos]
    if not found:
        raise AssertionError("no Fano pair decomposes this Pascal configuration")
    if len(found) > 2:  # each pair is found from both of its members
        raise AssertionError("Fano pair is not unique")
    f1, f2 = found[0]
    s1 = f1.idx_set() & f2.idx_set()
    return PascalDecomposition(pascal, f1, f2, s1, f1.idx_set() - s1, f2.idx_set() - s1)
