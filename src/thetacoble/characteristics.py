"""Exact combinatorics of theta characteristics over F_2^{2g}, for g in {1, 2, 3}.

A characteristic m = [m'; m''] is a pair of g-bit row vectors.  The canonical
integer encoding is idx = int(m') * 2^g + int(m''), reading bit strings
left-to-right with the leftmost bit most significant.  Characteristics
serialize as "abc;def" strings under the same convention.

The module also holds the breadth-first orbit closure shared by the
Sp(2g, F_2) and S_7 actions, and the 30 Fano and 105 P-shaped index families
on {1..7}: the S_7-orbits of FANO_TRIPLE_FAMILY and PASCAL_FAMILY.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

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


def bit_rows(s: str, rows: int, what: str) -> list[tuple[int, ...]]:
    """The rows of s: `rows` non-empty strings of one length, joined by ';',
    of the ASCII digits 0 and 1 alone (int() would also read a fullwidth or
    other Unicode digit); ValueError naming s otherwise."""
    parts = s.split(";") if isinstance(s, str) else []
    if (len(parts) != rows or not parts[0] or any(len(p) != len(parts[0]) for p in parts)
            or not all(c in "01" for p in parts for c in p)):
        shape = "a string" if rows == 1 else f"{rows} strings of one length, joined by ';',"
        raise ValueError(f"malformed {what} {s!r}: expected {shape} of the digits 0 and 1")
    return [tuple(map(int, p)) for p in parts]


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
        return cls.from_bits(*bit_rows(s, 2, "characteristic string"))

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

    @cached_property
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
    return _pairing_idx(m.g, m.idx, n.idx)


def _pairing_idx(g: int, a: int, b: int) -> int:
    mask = (1 << g) - 1
    x = ((a >> g) & (b & mask)).bit_count() + ((a & mask) & (b >> g)).bit_count()
    return -1 if x & 1 else 1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def parity_table(g: int) -> np.ndarray:
    """e(m) for every index m of genus g: a cached, read-only (2^{2g},) +-1
    array built from the scalar definition."""
    _check_genus(g)
    return _read_only(np.array([_parity_idx(g, i) for i in range(1 << (2 * g))], dtype=np.int8))


@lru_cache(maxsize=None)
def pairing_table(g: int) -> np.ndarray:
    """e(a, b) for every pair of indices of genus g: a cached, read-only
    (2^{2g}, 2^{2g}) +-1 array built from the scalar definition."""
    _check_genus(g)
    n = 1 << (2 * g)
    return _read_only(
        np.array([[_pairing_idx(g, a, b) for b in range(n)] for a in range(n)], dtype=np.int8)
    )


def triple_signs(g: int, a, b, c) -> np.ndarray:
    """triple_sign on broadcast index arrays: e(a) e(b) e(c) e(a + b + c)."""
    p = parity_table(g)
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    return p[a] * p[b] * p[c] * p[a ^ b ^ c]


def all_azygetic(g: int, sets) -> np.ndarray:
    """For an (..., n) index array, True for each row of n characteristics
    whose C(n, 3) triples are all azygetic."""
    sets = np.asarray(sets)
    tri = np.array(list(combinations(range(sets.shape[-1]), 3)), dtype=np.intp).reshape(-1, 3)
    a, b, c = np.moveaxis(sets[..., tri], -1, 0)
    return (triple_signs(g, a, b, c) == -1).all(axis=-1)


def admissible_evens(g: int, odds) -> tuple[np.ndarray, np.ndarray]:
    """The even indices of genus g and, for an (..., k) array of odd indices,
    the (..., n_even) mask of the evens n with (m_i, m_j, n) azygetic for
    every pair of the k."""
    evens = np.flatnonzero(parity_table(g) == 1)
    odds = np.asarray(odds)[..., None]
    mask = np.ones(odds.shape[:-2] + evens.shape, dtype=bool)
    for i, j in combinations(range(odds.shape[-2]), 2):
        mask &= triple_signs(g, odds[..., i, :], odds[..., j, :], evens) == -1
    return evens, mask


@lru_cache(maxsize=None)
def azygetic_odd_sets(g: int, k: int) -> np.ndarray:
    """The k-sets of odd indices of genus g with every triple azygetic, as a
    cached, read-only (n, k) array, rows increasing and in lexicographic
    order: grown one member at a time from one table azygetic[i, j, l] of
    the odd positions.  Each row carries the mask of its candidates, the
    positions past its last member azygetic with every pair of its members;
    a child (row t plus candidate v) gets t's mask, cut to positions past v
    and azygetic with every (member of t, v)."""
    _check_genus(g)
    if not 1 <= k <= 2 * g + 2:
        raise ValueError(f"need 1 <= k <= {2 * g + 2} for genus {g}, got {k}")
    odds = np.flatnonzero(parity_table(g) == -1)
    azygetic = triple_signs(g, odds[:, None, None], odds[:, None], odds) == -1
    span = np.arange(len(odds))
    rows = span[:, None]  # rows[t, i]: position in odds of member i of set t
    keep = span > rows  # keep[t, v]: v extends set t
    for level in range(1, k):
        t, v = np.nonzero(keep)
        keep = keep[t] & (span > v[:, None])
        for i in range(level):
            keep &= azygetic[rows[t, i], v]
        rows = np.column_stack([rows[t], v])
    return _read_only(odds[rows])


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


@lru_cache(maxsize=None)
def enumerate_characteristics(g: int, which: str = "all") -> CharacteristicSet:
    """All characteristics of genus g in canonical index order.

    which: "all", "even" (2^{g-1}(2^g+1) members) or "odd" (2^{g-1}(2^g-1)).
    """
    _check_genus(g)
    if which not in ("all", "even", "odd"):
        raise ValueError(f"unknown filter {which!r}")
    p = parity_table(g)
    keep = {"all": p != 0, "even": p == 1, "odd": p == -1}[which]
    return CharacteristicSet(Characteristic(g, int(i)) for i in np.flatnonzero(keep))


def is_fundamental_system(s: CharacteristicSet) -> bool:
    """True iff |s| = 2g+2 and every triple of members is azygetic."""
    return len(s) == 2 * s.g + 2 and bool(all_azygetic(s.g, [m.idx for m in s.members]))


def _check_aronhold(s: CharacteristicSet) -> None:
    """Raise ValueError unless s is an Aronhold set: seven odd genus-3
    characteristics whose 35 triples are all azygetic."""
    idx = [m.idx for m in s.members]
    if s.g != 3 or len(idx) != 7:
        raise ValueError("need a 7-element genus-3 Aronhold set")
    if (parity_table(3)[idx] != -1).any() or not all_azygetic(3, idx):
        raise ValueError(f"{s} is not an Aronhold set (members odd, every triple azygetic)")


def special_fundamental_completions(g: int, odds) -> np.ndarray:
    """The (n, g + 2) special fundamental completions of the rows of an (n, g)
    array of valid odd inputs (see special_fundamental_completion): the
    admissible evens (every (m_i, m_j, n) azygetic) other than m_1 + ... + m_g,
    in index order.  Each row is checked: g+3 admissible evens with the sum
    among them at g=3, g+2 without it below, and a fundamental system."""
    _check_genus(g)
    odds = np.asarray(odds)
    if odds.ndim != 2 or odds.shape[1] != g:
        raise ValueError(f"need an (n, {g}) array of odd indices, got shape {odds.shape}")
    evens, admissible = admissible_evens(g, odds)
    counts = admissible.sum(axis=1)
    expected = {1: 3, 2: 4, 3: 6}[g]
    if (counts != expected).any():
        raise AssertionError(f"expected {expected} admissible evens, "
                             f"got {counts[counts != expected][0]}")
    is_sum = evens == np.bitwise_xor.reduce(odds, axis=1)[:, None]
    if ((admissible & is_sum).any(axis=1) != (g == 3)).any():
        raise AssertionError(f"sum of the odds {'not ' if g == 3 else ''}among admissible evens")
    completions = evens[np.nonzero(admissible & ~is_sum)[1]].reshape(-1, g + 2)
    if not all_azygetic(g, np.hstack([odds, completions])).all():
        raise AssertionError("completion is not a fundamental system")
    return completions


@lru_cache(maxsize=None)
def special_fundamental_completion(odds: CharacteristicSet) -> CharacteristicSet:
    """Complete one odd characteristic for g=1, two distinct ones for g=2 or
    an azygetic triple for g=3 to a special fundamental system: its row of
    special_fundamental_completions, memoized by the set (only valid sets
    are kept, at most 1 + 15 + 2016 of them)."""
    g = odds.g
    ms = list(odds.members)
    if any(m.is_even for m in ms):
        raise ValueError("input characteristics must be odd")
    if len(ms) != g:
        raise ValueError(f"genus {g} requires exactly {g} odd characteristics")
    if g == 3 and triple_sign(*ms) != -1:
        raise ValueError("input triple is not azygetic")
    (row,) = special_fundamental_completions(g, [[m.idx for m in ms]]).tolist()
    return CharacteristicSet(Characteristic(g, n) for n in row)


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
    idx = np.array([m.idx for m in ms])
    pairs, triples = (np.array(list(combinations(range(7), k))) for k in (2, 3))
    odd_sums = n0.idx ^ np.bitwise_xor.reduce(idx[pairs], axis=1)
    even_sums = np.bitwise_xor.reduce(idx[triples], axis=1)
    keys = [n0.idx, *idx.tolist(), *odd_sums.tolist(), *even_sums.tolist()]
    p = parity_table(3)
    if (p[odd_sums] != -1).any() or (p[even_sums] != 1).any() or len(set(keys)) != 64:
        raise AssertionError("Aronhold classification structure violated")
    tags = ([("n0", ())] + [("m", (i,)) for i in range(7)]
            + [("odd_sum", tuple(t)) for t in pairs.tolist()]
            + [("even_sum", tuple(t)) for t in triples.tolist()])
    return dict(zip(keys, tags))


@lru_cache(maxsize=1)
def enumerate_aronhold_sets() -> tuple:
    """All 288 unordered Aronhold sets for g=3, the rows of
    azygetic_odd_sets(3, 7): 7-subsets of the 28 odd characteristics in
    which every triple is azygetic, in lexicographic order."""
    return tuple(
        CharacteristicSet(Characteristic(3, i) for i in row)
        for row in azygetic_odd_sets(3, 7).tolist()
    )


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


def orbit(start, images) -> set:
    """The orbit of ``start`` under a group, by breadth-first closure over
    ``images(x)``, the images of x under the group's generators."""
    found, frontier = {start}, {start}
    while frontier:
        frontier = {y for x in frontier for y in images(x)} - found
        found |= frontier
    return found


# (1 2) and (1 2 ... 7), which generate S_7, as the images of 1..7
_S7_GENERATORS = ((2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1))


def _relabelled(family: frozenset) -> Iterator[frozenset]:
    """The images of a family of index sets under the generators of S_7."""
    for perm in _S7_GENERATORS:
        yield frozenset(frozenset(perm[i - 1] for i in part) for part in family)


def _family_key(spec) -> tuple:
    """Each part sorted, then the parts sorted, all as tuples; also the
    canonical layout of a Fano-plane family."""
    return tuple(sorted(tuple(sorted(part)) for part in spec))


def _s7_images(reference) -> set:
    """The S_7-orbit of a family of index tuples, as sets of sets."""
    return orbit(frozenset(map(frozenset, reference)), _relabelled)


def _pascal_form(parts) -> tuple:
    """The three triples (c a b) ordered by their sorted pair (a, b), then
    (c,), then the three sorted pairs."""
    (c,) = next(p for p in parts if len(p) == 1)
    pairs = sorted(tuple(sorted(p)) for p in parts if len(p) == 2)
    return tuple((c,) + p for p in pairs) + ((c,),) + tuple(pairs)


@lru_cache(maxsize=None)
def fano_plane_families() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """All 30 families of 7 triples on {1..7} pairwise meeting in one point
    (the labelled Fano planes): the S_7-orbit of FANO_TRIPLE_FAMILY, in
    lexicographic order."""
    return tuple(sorted(map(_family_key, _s7_images(FANO_TRIPLE_FAMILY))))


@lru_cache(maxsize=None)
def pascal_families() -> tuple[tuple, ...]:
    """All 105 P-shaped families, a common index c plus a partition of the
    other six indices into three pairs: the S_7-orbit of PASCAL_FAMILY, in
    lexicographic order."""
    return tuple(sorted(map(_pascal_form, _s7_images(PASCAL_FAMILY))))


@lru_cache(maxsize=None)
def _families_by_key(families) -> dict:
    """The members of families() under their _family_key."""
    return {_family_key(f): f for f in families()}


def _member(spec, families, kind: str) -> tuple:
    try:
        return _families_by_key(families)[_family_key(spec)]
    except (TypeError, KeyError):
        raise ValueError(f"{spec!r} is not one of the {kind} families") from None


def fano_family(triples) -> tuple:
    """The member of fano_plane_families() that lists the same triples, in
    any order of triples and of their entries; ValueError for any other
    input."""
    return _member(triples, fano_plane_families, "30 Fano-plane")


def pascal_family(spec) -> tuple:
    """The member of pascal_families() made of the same parts, in any order
    of parts and of their entries; ValueError for any other input."""
    return _member(spec, pascal_families, "105 P-shaped")
