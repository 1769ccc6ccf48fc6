"""Exact combinatorics of theta characteristics over F_2^{2g}, for g in {1, 2, 3}.

A characteristic m = [m'; m''] is a pair of g-bit row vectors.  The canonical
integer encoding is idx = int(m') * 2^g + int(m''), reading bit strings
left-to-right with the leftmost bit most significant.  Characteristics
serialize as "abc;def" strings under the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

SUPPORTED_GENERA = (1, 2, 3)


def _check_genus(g: int) -> None:
    if g not in SUPPORTED_GENERA:
        raise ValueError(f"unsupported genus {g}; supported: {SUPPORTED_GENERA}")


def _bits_to_int(bits: Iterable[int]) -> int:
    v = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"characteristic entries must be 0 or 1, got {b!r}")
        v = (v << 1) | int(b)
    return v


def _int_to_bits(v: int, width: int) -> tuple[int, ...]:
    return tuple((v >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True, order=True)
class Characteristic:
    """A theta characteristic, keyed by (genus, canonical integer index)."""

    g: int
    idx: int

    def __post_init__(self):
        _check_genus(self.g)
        if not 0 <= self.idx < 1 << (2 * self.g):
            raise ValueError(f"index {self.idx} out of range for genus {self.g}")

    @classmethod
    def from_bits(cls, mp: Iterable[int], mpp: Iterable[int]) -> "Characteristic":
        mp = tuple(mp)
        mpp = tuple(mpp)
        if len(mp) != len(mpp):
            raise ValueError("m' and m'' must have equal length")
        g = len(mp)
        return cls(g, (_bits_to_int(mp) << g) | _bits_to_int(mpp))

    @classmethod
    def from_string(cls, s: str) -> "Characteristic":
        """Parse the "abc;def" serialization."""
        top, _, bot = s.partition(";")
        if not bot or len(top) != len(bot):
            raise ValueError(f"malformed characteristic string {s!r}")
        return cls.from_bits([int(c) for c in top], [int(c) for c in bot])

    @classmethod
    def parse(cls, g: int, value) -> "Characteristic":
        """Accept either the integer index or the string form."""
        if isinstance(value, Characteristic):
            if value.g != g:
                raise ValueError("genus mismatch")
            return value
        if isinstance(value, int):
            return cls(g, value)
        m = cls.from_string(str(value))
        if m.g != g:
            raise ValueError("genus mismatch")
        return m

    @property
    def mp_int(self) -> int:
        return self.idx >> self.g

    @property
    def mpp_int(self) -> int:
        return self.idx & ((1 << self.g) - 1)

    @property
    def mp(self) -> tuple[int, ...]:
        return _int_to_bits(self.mp_int, self.g)

    @property
    def mpp(self) -> tuple[int, ...]:
        return _int_to_bits(self.mpp_int, self.g)

    def __add__(self, other: "Characteristic") -> "Characteristic":
        if self.g != other.g:
            raise ValueError("genus mismatch")
        return Characteristic(self.g, self.idx ^ other.idx)

    def __str__(self) -> str:
        return "".join(map(str, self.mp)) + ";" + "".join(map(str, self.mpp))

    @property
    def parity(self) -> int:
        return parity(self)

    @property
    def is_even(self) -> bool:
        return self.parity == 1

    @property
    def is_odd(self) -> bool:
        return self.parity == -1


def _parity_idx(g: int, idx: int) -> int:
    mp = idx >> g
    mpp = idx & ((1 << g) - 1)
    return -1 if (mp & mpp).bit_count() & 1 else 1


def parity(m: Characteristic) -> int:
    """(-1)^{m' . m''}; +1 for even characteristics, -1 for odd."""
    return _parity_idx(m.g, m.idx)


def triple_sign(m1: Characteristic, m2: Characteristic, m3: Characteristic) -> int:
    """e(m1) e(m2) e(m3) e(m1+m2+m3); +1 = syzygetic, -1 = azygetic.

    Degenerate triples with repeated arguments are allowed and give +1.
    """
    if not (m1.g == m2.g == m3.g):
        raise ValueError("genus mismatch")
    g = m1.g
    s = m1.idx ^ m2.idx ^ m3.idx
    return (
        _parity_idx(g, m1.idx)
        * _parity_idx(g, m2.idx)
        * _parity_idx(g, m3.idx)
        * _parity_idx(g, s)
    )


def pairing(m: Characteristic, n: Characteristic) -> int:
    """Symplectic pairing e(m, n) = (-1)^{m'.n'' - m''.n'}."""
    if m.g != n.g:
        raise ValueError("genus mismatch")
    x = (m.mp_int & n.mpp_int).bit_count() + (m.mpp_int & n.mp_int).bit_count()
    return -1 if x & 1 else 1


def _pairing_idx(g: int, a: int, b: int) -> int:
    mask = (1 << g) - 1
    x = ((a >> g) & (b & mask)).bit_count() + ((a & mask) & (b >> g)).bit_count()
    return -1 if x & 1 else 1


class CharacteristicSet:
    """An ordered, duplicate-free set of characteristics of one genus."""

    __slots__ = ("g", "members", "_idx_set")

    def __init__(self, members: Iterable[Characteristic]):
        members = tuple(members)
        if not members:
            raise ValueError("empty characteristic set")
        g = members[0].g
        idxs = set()
        for m in members:
            if m.g != g:
                raise ValueError("mixed genera in characteristic set")
            if m.idx in idxs:
                raise ValueError(f"duplicate characteristic {m}")
            idxs.add(m.idx)
        self.g = g
        self.members = members
        self._idx_set = frozenset(idxs)

    @classmethod
    def parse(cls, g: int, values: Iterable) -> "CharacteristicSet":
        return cls(Characteristic.parse(g, v) for v in values)

    def __contains__(self, m: Characteristic) -> bool:
        return m.g == self.g and m.idx in self._idx_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Characteristic]:
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharacteristicSet)
            and self.g == other.g
            and self._idx_set == other._idx_set
        )

    def __hash__(self) -> int:
        return hash((self.g, self._idx_set))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"

    def sorted(self) -> "CharacteristicSet":
        return CharacteristicSet(sorted(self.members))

    def idx_set(self) -> frozenset:
        return self._idx_set

    def to_strings(self) -> list[str]:
        return [str(m) for m in self.members]


def enumerate_characteristics(g: int, which: str = "all") -> CharacteristicSet:
    """All characteristics of genus g in canonical index order.

    which: "all", "even" (2^{g-1}(2^g+1) members) or "odd" (2^{g-1}(2^g-1)).
    """
    _check_genus(g)
    if which not in ("all", "even", "odd"):
        raise ValueError(f"unknown filter {which!r}")
    want = {"all": (1, -1), "even": (1,), "odd": (-1,)}[which]
    return CharacteristicSet(
        Characteristic(g, i)
        for i in range(1 << (2 * g))
        if _parity_idx(g, i) in want
    )


def is_fundamental_system(s: CharacteristicSet) -> bool:
    """True iff |s| = 2g+2 and every triple of members is azygetic."""
    if len(s) != 2 * s.g + 2:
        return False
    ms = s.members
    n = len(ms)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if triple_sign(ms[i], ms[j], ms[k]) != -1:
                    return False
    return True


def special_fundamental_completion(odds: CharacteristicSet) -> CharacteristicSet:
    """Complete g odd characteristics to a special fundamental system.

    For g=3 the input must be an azygetic triple of odd characteristics; the
    result is the 5 even characteristics among the 6 admissible ones, the
    excluded sixth being m1+m2+m3.  For g=2 the input is a pair of distinct
    odd characteristics and the result is the unique even quadruple making a
    fundamental system.
    """
    g = odds.g
    ms = list(odds.members)
    if any(m.is_even for m in ms):
        raise ValueError("input characteristics must be odd")
    if g == 3:
        if len(ms) != 3:
            raise ValueError("genus 3 requires exactly 3 odd characteristics")
        if triple_sign(*ms) != -1:
            raise ValueError("input triple is not azygetic")
        candidates = [
            n
            for n in enumerate_characteristics(3, "even")
            if all(
                triple_sign(ms[i], ms[j], n) == -1
                for i in range(3)
                for j in range(i + 1, 3)
            )
        ]
        if len(candidates) != 6:
            raise AssertionError(f"expected 6 admissible evens, got {len(candidates)}")
        excluded = ms[0] + ms[1] + ms[2]
        if excluded not in candidates:
            raise AssertionError("sum of the triple not among admissible evens")
        return CharacteristicSet(n for n in candidates if n != excluded)
    if g == 2:
        if len(ms) != 2:
            raise ValueError("genus 2 requires exactly 2 odd characteristics")
        from itertools import combinations

        evens = list(enumerate_characteristics(2, "even"))
        found = None
        for quad in combinations(evens, 4):
            if is_fundamental_system(CharacteristicSet(ms + list(quad))):
                if found is not None:
                    raise AssertionError("even completion is not unique")
                found = quad
        if found is None:
            raise ValueError("no even completion exists for this pair")
        return CharacteristicSet(found)
    raise ValueError("special fundamental completion implemented for g in {2, 3}")


def aronhold_classify(aronhold: CharacteristicSet, n0: Characteristic) -> dict:
    """Express each of the 64 genus-3 characteristics through an Aronhold set.

    Returns a map idx -> (tag, indices) with tags "n0", "m" (one of the seven),
    "odd_sum" (n0 + m_i + m_j, the other 21 odd characteristics) and
    "even_sum" (m_i + m_j + m_k, the other 35 even ones).
    """
    if aronhold.g != 3 or len(aronhold) != 7:
        raise ValueError("need a 7-element genus-3 set")
    ms = list(aronhold.members)
    if any(m.is_even for m in ms):
        raise ValueError("Aronhold members must be odd")
    if n0.is_odd:
        raise ValueError("n0 must be even")
    if not is_fundamental_system(CharacteristicSet([n0] + ms)):
        raise ValueError("{n0} + aronhold is not a fundamental system")
    out = {n0.idx: ("n0", ()), **{m.idx: ("m", (i,)) for i, m in enumerate(ms)}}
    for i in range(7):
        for j in range(i + 1, 7):
            c = n0 + ms[i] + ms[j]
            if c.is_even or c.idx in out:
                raise AssertionError("Aronhold classification structure violated")
            out[c.idx] = ("odd_sum", (i, j))
    for i in range(7):
        for j in range(i + 1, 7):
            for k in range(j + 1, 7):
                c = ms[i] + ms[j] + ms[k]
                if c.is_odd or c.idx in out:
                    raise AssertionError("Aronhold classification structure violated")
                out[c.idx] = ("even_sum", (i, j, k))
    if len(out) != 64:
        raise AssertionError("classification does not exhaust all characteristics")
    return out


@lru_cache(maxsize=1)
def enumerate_aronhold_sets() -> tuple:
    """All 288 unordered Aronhold sets for g=3.

    An Aronhold set is a 7-subset of the 28 odd characteristics in which every
    triple is azygetic; for three odd characteristics that reduces to their
    sum being even.
    """
    odds = [m.idx for m in enumerate_characteristics(3, "odd")]
    out = []
    chosen: list[int] = []

    def extend(start: int):
        if len(chosen) == 7:
            out.append(CharacteristicSet(Characteristic(3, i) for i in chosen))
            return
        for t in range(start, len(odds)):
            c = odds[t]
            ok = True
            for i in range(len(chosen)):
                for j in range(i + 1, len(chosen)):
                    if _parity_idx(3, chosen[i] ^ chosen[j] ^ c) != 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                chosen.append(c)
                extend(t + 1)
                chosen.pop()

    extend(0)
    return tuple(out)


# Classical worked examples, usable as fixtures throughout the package.

ARONHOLD_EXAMPLE = CharacteristicSet.parse(
    3,
    [
        "111;111",
        "110;100",
        "101;001",
        "100;110",
        "010;011",
        "001;101",
        "011;010",
    ],
)

FANO_TRIPLE_FAMILY = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 7), (2, 5, 6), (3, 4, 6), (3, 5, 7))

PASCAL_FAMILY = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (1,), (2, 3), (4, 5), (6, 7))
