"""Goepel systems: Lagrangian subspaces of F_2^{2g}, the Fano/Pascal split for
g = 3, construction from Aronhold sets, the pinned 15-configuration basis, and
the unique Fano-pair decomposition of each Pascal configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .characteristics import (
    Characteristic,
    CharacteristicSet,
    _pairing_idx,
    _parity_idx,
)


@dataclass(frozen=True)
class GopelSystem:
    """A Lagrangian subspace of F_2^{2g}, as a set of 2^g characteristics."""

    g: int
    members: CharacteristicSet

    def __post_init__(self):
        if len(self.members) != 1 << self.g:
            raise ValueError("a Goepel system has 2^g members")
        idxs = self.members.idx_set()
        if 0 not in idxs:
            raise ValueError("a Goepel system contains the zero characteristic")
        for a in idxs:
            for b in idxs:
                if (a ^ b) not in idxs:
                    raise ValueError("members are not closed under addition")
                if _pairing_idx(self.g, a, b) != 1:
                    raise ValueError("members are not pairwise orthogonal")

    @classmethod
    def from_idxs(cls, g: int, idxs) -> "GopelSystem":
        return cls(g, CharacteristicSet(Characteristic(g, i) for i in sorted(idxs)))

    @property
    def even_count(self) -> int:
        return sum(1 for m in self.members if m.is_even)

    @property
    def kind(self) -> str:
        """"fano" if all members are even, "pascal" if exactly half (g=3)."""
        if self.g != 3:
            raise ValueError("Fano/Pascal classification is for g = 3")
        n_even = self.even_count
        if n_even == 8:
            return "fano"
        if n_even == 4:
            return "pascal"
        raise AssertionError(f"impossible even-count {n_even} in a Goepel system")

    def idx_set(self) -> frozenset:
        return self.members.idx_set()

    def to_json(self) -> dict:
        return {"kind": self.kind if self.g == 3 else "goepel",
                "members": self.members.to_strings()}

    def __contains__(self, m: Characteristic) -> bool:
        return m in self.members


@lru_cache(maxsize=None)
def enumerate_lagrangian_subspaces(g: int) -> tuple[frozenset, ...]:
    """All Lagrangian subspaces of F_2^{2g} as frozensets of packed indices."""
    if g not in (2, 3):
        raise ValueError("Lagrangian enumeration implemented for g in {2, 3}")
    n = 1 << (2 * g)
    seen = set()
    out = []

    def extend(span: frozenset, basis_size: int, start: int):
        if basis_size == g:
            if span not in seen:
                seen.add(span)
                out.append(span)
            return
        for v in range(start, n):
            if v in span:
                continue
            if all(_pairing_idx(g, v, s) == 1 for s in span):
                extend(span | frozenset(s ^ v for s in span), basis_size + 1, v + 1)

    extend(frozenset([0]), 0, 1)
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


@lru_cache(maxsize=None)
def enumerate_gopel(g: int) -> tuple[GopelSystem, ...]:
    """All Goepel systems; 15 for g=2, 135 for g=3 (30 Fano + 105 Pascal)."""
    return tuple(
        GopelSystem.from_idxs(g, s) for s in enumerate_lagrangian_subspaces(g)
    )


def _validate_fano_family(triples) -> None:
    triples = tuple(tuple(t) for t in triples)
    if len(triples) != 7:
        raise ValueError("need exactly 7 index triples")
    idxs = set()
    for t in triples:
        if len(set(t)) != 3 or not all(1 <= i <= 7 for i in t):
            raise ValueError(f"malformed triple {t}")
        idxs.update(t)
    if idxs != set(range(1, 8)):
        raise ValueError("triples must cover indices 1..7")
    for a, b in combinations(triples, 2):
        if len(set(a) & set(b)) != 1:
            raise ValueError(f"triples {a} and {b} do not share exactly one index")


def fano_from_aronhold(aronhold: CharacteristicSet, triples) -> GopelSystem:
    """Zero plus the seven triple sums m_i + m_j + m_k of a Fano-plane family
    of index triples; always a Fano Goepel system."""
    if aronhold.g != 3 or len(aronhold) != 7:
        raise ValueError("need a 7-element genus-3 Aronhold set")
    _validate_fano_family(triples)
    ms = aronhold.members
    idxs = {0}
    for (i, j, k) in triples:
        idxs.add(ms[i - 1].idx ^ ms[j - 1].idx ^ ms[k - 1].idx)
    sys = GopelSystem.from_idxs(3, idxs)
    if sys.kind != "fano":
        raise AssertionError("triple family did not produce a Fano configuration")
    return sys


def _parse_pascal_family(spec):
    spec = tuple(tuple(t) if not isinstance(t, int) else (t,) for t in spec)
    triples = [t for t in spec if len(t) == 3]
    singles = [t for t in spec if len(t) == 1]
    pairs = [t for t in spec if len(t) == 2]
    if len(triples) != 3 or len(singles) != 1 or len(pairs) != 3:
        raise ValueError("P-family needs 3 triples, 1 singleton, 3 pairs")
    common = singles[0][0]
    if not all(common in t for t in triples):
        raise ValueError("the three triples must share the singleton index")
    expected_pairs = {tuple(sorted(set(t) - {common})) for t in triples}
    if {tuple(sorted(p)) for p in pairs} != expected_pairs:
        raise ValueError("pairs must be the triples minus the common index")
    covered = set()
    for t in triples:
        covered.update(t)
    if covered != set(range(1, 8)):
        raise ValueError("family must cover indices 1..7")
    return common, [tuple(sorted(set(t) - {common})) for t in triples]


def pascal_from_aronhold(aronhold: CharacteristicSet, spec) -> GopelSystem:
    """Goepel system from a P-shaped family: three triple sums through one
    common index, the singleton, and the three complementary pair sums."""
    if aronhold.g != 3 or len(aronhold) != 7:
        raise ValueError("need a 7-element genus-3 Aronhold set")
    common, pairs = _parse_pascal_family(spec)
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
    idxs = system.idx_set()
    found = None
    for x in range(1 << (2 * g)):
        coset = frozenset(x ^ i for i in idxs)
        if all(_parity_idx(g, i) == 1 for i in coset):
            if found is not None and coset != found:
                raise AssertionError("even coset is not unique")
            found = coset
    if found is None:
        raise AssertionError("no even coset exists")
    return found


@dataclass(frozen=True)
class PascalDecomposition:
    pascal: GopelSystem
    fano1: GopelSystem
    fano2: GopelSystem
    s1: frozenset  # fano1 & fano2 (a 2-dim isotropic subspace, all even)
    s2: frozenset  # fano1 - s1
    s3: frozenset  # fano2 - s1


@lru_cache(maxsize=None)
def pascal_decomposition(pascal: GopelSystem) -> PascalDecomposition:
    """The unique pair of Fano configurations F', F'' with F' = S1 u S2,
    F'' = S1 u S3 and S2 u S3 the even coset of the Pascal input."""
    if pascal.kind != "pascal":
        raise ValueError("input is not a Pascal configuration")
    target = even_coset(pascal)
    fanos = [s for s in enumerate_gopel(3) if s.kind == "fano"]
    found = None
    for f1, f2 in combinations(fanos, 2):
        s1 = f1.idx_set() & f2.idx_set()
        if len(s1) != 4:
            continue
        s2 = f1.idx_set() - s1
        s3 = f2.idx_set() - s1
        if s2 | s3 == target:
            if found is not None:
                raise AssertionError("Fano pair is not unique")
            found = PascalDecomposition(pascal, f1, f2, s1, s2, s3)
    if found is None:
        raise AssertionError("no Fano pair decomposes this Pascal configuration")
    return found
