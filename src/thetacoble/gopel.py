"""Goepel systems: Lagrangian subspaces of F_2^{2g}, the Fano/Pascal split for
g = 3, construction from Aronhold sets, the pinned 15-configuration basis, and
the unique Fano-pair decomposition of each Pascal configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characteristics import (
    Characteristic,
    CharacteristicSet,
    _check_aronhold,
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
        if not np.isin(idx[:, None] ^ idx, idx).all():
            raise ValueError("members are not closed under addition")
        if (pairing_table(self.g)[np.ix_(idx, idx)] != 1).any():
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
def enumerate_lagrangian_subspaces(g: int) -> tuple[frozenset, ...]:
    """All Lagrangian subspaces of F_2^{2g} as frozensets of packed indices.

    Each subspace is built once, from its reduced echelon basis: vectors with
    strictly decreasing leading bits, each zero at the others' leading bits.
    Level k extends every such isotropic basis of k vectors by each
    orthogonal vector below its last leading bit that keeps it reduced.
    """
    if g not in (2, 3):
        raise ValueError("Lagrangian enumeration implemented for g in {2, 3}")
    pt = pairing_table(g)
    vs = np.arange(1, 1 << (2 * g))
    top = 2 ** (np.frexp(vs)[1] - 1)  # the leading bit of each vector
    bases = np.zeros((1, 0), dtype=int)
    for _ in range(g):
        pivots = np.bitwise_or.reduce(top[bases - 1], axis=1)[:, None]
        union = np.bitwise_or.reduce(bases, axis=1)[:, None]
        ok = (
            (vs < np.where(pivots, pivots & -pivots, vs.size + 1))
            & (vs & pivots == 0)
            & (union & top == 0)
            & (pt[bases][:, :, vs] == 1).all(axis=1)
        )
        rows, cols = np.nonzero(ok)
        bases = np.column_stack([bases[rows], vs[cols]])
    spans = np.zeros((len(bases), 1), dtype=int)
    for column in bases.T:
        spans = np.hstack([spans, spans ^ column[:, None]])
    return tuple(sorted(map(frozenset, spans.tolist()), key=lambda s: tuple(sorted(s))))


@lru_cache(maxsize=None)
def enumerate_gopel(g: int) -> tuple[GopelSystem, ...]:
    """All Goepel systems; 15 for g=2, 135 for g=3 (30 Fano + 105 Pascal)."""
    return tuple(
        GopelSystem.from_idxs(g, s) for s in enumerate_lagrangian_subspaces(g)
    )


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


# The 15 Fano configurations pinned as the modular-form basis; transcribed
# literally and validated on first use.

_FANO_BASIS_STRINGS = (
    ("000;000", "000;001", "000;010", "000;011", "000;100", "000;101", "000;110", "000;111"),
    ("000;000", "000;001", "000;010", "000;011", "100;000", "100;001", "100;010", "100;011"),
    ("000;000", "000;001", "000;100", "000;101", "010;000", "010;001", "010;100", "010;101"),
    ("000;000", "000;001", "000;110", "000;111", "110;000", "110;001", "110;110", "110;111"),
    ("000;000", "000;001", "010;000", "010;001", "100;000", "100;001", "110;000", "110;001"),
    ("000;000", "000;010", "000;100", "000;110", "001;000", "001;010", "001;100", "001;110"),
    ("000;000", "000;010", "000;101", "000;111", "101;000", "101;010", "101;101", "101;111"),
    ("000;000", "000;010", "001;000", "001;010", "100;000", "100;010", "101;000", "101;010"),
    ("000;000", "000;011", "000;100", "000;111", "011;000", "011;011", "011;100", "011;111"),
    ("000;000", "000;011", "000;101", "000;110", "111;000", "111;011", "111;101", "111;110"),
    ("000;000", "000;011", "011;000", "011;011", "100;000", "100;011", "111;000", "111;011"),
    ("000;000", "000;100", "001;000", "001;100", "010;000", "010;100", "011;000", "011;100"),
    ("000;000", "000;101", "010;000", "010;101", "101;000", "101;101", "111;000", "111;101"),
    ("000;000", "000;110", "001;000", "001;110", "110;000", "110;110", "111;000", "111;110"),
    ("000;000", "000;111", "011;000", "011;111", "101;000", "101;111", "110;000", "110;111"),
)


@lru_cache(maxsize=1)
def fano_basis() -> tuple[GopelSystem, ...]:
    """The pinned basis F_1..F_15; each validated as a Fano configuration."""
    out = []
    for strings in _FANO_BASIS_STRINGS:
        sys = GopelSystem(3, CharacteristicSet.parse(3, strings))
        if sys.kind != "fano":
            raise AssertionError("basis fixture transcription error: not Fano")
        out.append(sys)
    if len(set(s.idx_set() for s in out)) != 15:
        raise AssertionError("basis fixture transcription error: duplicates")
    return tuple(out)


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
