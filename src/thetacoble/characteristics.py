"""Exact combinatorics of theta characteristics over F_2^{2g}, for g in {1, 2, 3}.

A characteristic m = [m'; m''] is a pair of g-bit row vectors.  The canonical
integer encoding is idx = int(m') * 2^g + int(m''), reading bit strings
left-to-right with the leftmost bit most significant.  Characteristics
serialize as "abc;def" strings under the same convention.

The module also holds the breadth-first orbit closure shared by the
Sp(2g, F_2) and S_7 actions, and the 30 Fano and 105 P-shaped index families
on {1..7}: the S_7-orbits of FANO_TRIPLE_FAMILY and PASCAL_FAMILY.  Each
orbit is one read-only array of 7-bit part masks (_s7_orbit), from which the
families, their keys and their order are read in batched passes.
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


def _integer(value, what: str) -> int:
    """value as an int: a Python or numpy integer, not a bool; ValueError
    naming value otherwise (a float or bool would pass the range checks and
    fail later, in a bit operation or an index)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(value)


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
    """A theta characteristic, keyed by (genus, canonical integer index).
    A numpy integer genus or index is stored as an int."""

    g: int
    idx: int

    def __post_init__(self):
        if type(self.g) is not int or type(self.idx) is not int:
            object.__setattr__(self, "g", _integer(self.g, "genus"))
            object.__setattr__(self, "idx", _integer(self.idx, "index"))
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
        if isinstance(value, (int, np.integer)):
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


def _odd_bits(x: np.ndarray) -> np.ndarray:
    """1 where a nonnegative integer below 16 (a g-bit vector, g <= 3) has an
    odd number of set bits, else 0: bit x of 0x6996 is that parity."""
    return (0x6996 >> x) & 1


@lru_cache(maxsize=None)
def parity_table(g: int) -> np.ndarray:
    """e(m) for every index m of genus g: a cached, read-only (2^{2g},) +-1
    array, (-1)^{m' . m''} by the bit parity of m' & m''."""
    _check_genus(g)
    m = np.arange(1 << (2 * g))
    return _read_only((1 - 2 * _odd_bits((m >> g) & m)).astype(np.int8))


@lru_cache(maxsize=None)
def pairing_table(g: int) -> np.ndarray:
    """e(a, b) for every pair of indices of genus g: a cached, read-only
    (2^{2g}, 2^{2g}) +-1 array, (-1)^{a'.b'' + a''.b'} by the bit parity of
    (a' & b'') ^ (a'' & b')."""
    _check_genus(g)
    a = np.arange(1 << (2 * g))[:, None]
    b = a.T
    return _read_only((1 - 2 * _odd_bits(((a >> g) & b) ^ (a & (b >> g)))).astype(np.int8))


def triple_signs(g: int, a, b, c) -> np.ndarray:
    """triple_sign on broadcast index arrays: e(a) e(b) e(c) e(a + b + c)."""
    p = parity_table(g)
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    return p[a] * p[b] * p[c] * p[a ^ b ^ c]


@lru_cache(maxsize=None)
def _positions(n: int, r: int) -> np.ndarray:
    """The C(n, r) r-subsets of n positions, in combinations order, as the
    columns of a cached, read-only (r, C(n, r)) array."""
    return _read_only(np.array(list(combinations(range(n), r)), dtype=np.intp).reshape(-1, r).T)


def all_azygetic(g: int, sets) -> np.ndarray:
    """For an (..., n) index array, True for each row of n characteristics
    whose C(n, 3) triples are all azygetic."""
    sets = np.asarray(sets)
    a, b, c = (sets[..., t] for t in _positions(sets.shape[-1], 3))
    return (triple_signs(g, a, b, c) == -1).all(axis=-1)


def admissible_evens(g: int, odds) -> tuple[np.ndarray, np.ndarray]:
    """The even indices of genus g and, for an (..., k) array of odd indices,
    the (..., n_even) mask of the evens n with (m_i, m_j, n) azygetic for
    every pair of the k."""
    evens = np.flatnonzero(parity_table(g) == 1)
    odds = np.asarray(odds)
    a, b = (odds[..., t, None] for t in _positions(odds.shape[-1], 2))  # (..., pairs, 1)
    return evens, (triple_signs(g, a, b, evens) == -1).all(axis=-2)


@lru_cache(maxsize=None)
def azygetic_odd_sets(g: int, k: int) -> np.ndarray:
    """The k-sets of odd indices of genus g with every triple azygetic, as a
    cached, read-only (n, k) array, rows increasing and in lexicographic
    order: grown one member at a time, each set kept as its members (one
    column per member, as positions among the odd indices) and the bit mask
    of its candidates, the positions past its last member azygetic with every
    pair of its members.  A child (set t plus candidate v) gets t's mask, cut
    to the positions past v and azygetic with every (member of t, v)."""
    _check_genus(g)
    if not 1 <= k <= 2 * g + 2:
        raise ValueError(f"need 1 <= k <= {2 * g + 2} for genus {g}, got {k}")
    azygetic, past = _azygetic_masks(g)
    columns, keep = (np.arange(len(past)),), past
    for _ in range(k - 1):
        # the set bits of the masks, as (set, candidate) pairs in row order
        bits = np.unpackbits(keep.astype("<u4").view(np.uint8), bitorder="little")
        t, v = np.divmod(np.flatnonzero(bits), 32)
        columns = tuple(column[t] for column in columns)
        keep = keep[t] & past[v]
        for column in columns:
            keep &= azygetic[column, v]
        columns += (v,)
    return _read_only(np.flatnonzero(parity_table(g) == -1)[np.column_stack(columns)])


@lru_cache(maxsize=None)
def _azygetic_masks(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Over the positions of the (at most 28) odd indices of genus g, as
    int64 bit masks: (i, j) -> the positions l with (i, j, l) azygetic, and
    i -> the positions past i."""
    odds = np.flatnonzero(parity_table(g) == -1)
    span = np.arange(len(odds))
    azygetic = triple_signs(g, odds[:, None, None], odds[:, None], odds) == -1
    full = (1 << len(odds)) - 1
    return (azygetic << span).sum(axis=2), full ^ ((2 << span) - 1)


class CharacteristicSet:
    """An ordered, duplicate-free set of characteristics of one genus."""

    __slots__ = ("g", "members", "_idx_set")

    def __init__(self, members: Iterable[Characteristic]):
        members = tuple(members)
        if not members:
            raise ValueError("empty characteristic set")
        g = members[0].g
        if any(m.g != g for m in members):
            raise ValueError("mixed genera in characteristic set")
        self._fill(g, members, [m.idx for m in members])

    def _fill(self, g: int, members: tuple, idxs: list) -> None:
        idx_set = frozenset(idxs)
        if len(idx_set) != len(idxs):
            repeated = next(m for k, m in enumerate(members) if idxs[k] in idxs[:k])
            raise ValueError(f"duplicate characteristic {repeated}")
        self.g, self.members, self._idx_set = g, members, idx_set

    @classmethod
    def _rows(cls, g: int, rows) -> tuple["CharacteristicSet", ...]:
        """The set of each row of an (n, k) array of valid indices of genus
        g, k >= 1, its members taken from _interned(g)."""
        table = _interned(g)
        out = []
        for row in np.asarray(rows).tolist():
            s = cls.__new__(cls)
            s._fill(g, tuple(map(table.__getitem__, row)), row)
            out.append(s)
        return tuple(out)

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
    (members,) = CharacteristicSet._rows(g, np.flatnonzero(keep)[None])
    return members


@lru_cache(maxsize=None)
def _interned(g: int) -> tuple[Characteristic, ...]:
    """The 2^{2g} characteristics of genus g by index, one object each: the
    members of every set a table builder makes."""
    _check_genus(g)
    return tuple(Characteristic(g, i) for i in range(1 << (2 * g)))


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
    (completion,) = CharacteristicSet._rows(
        g, special_fundamental_completions(g, [[m.idx for m in ms]]))
    return completion


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
    return CharacteristicSet._rows(3, azygetic_odd_sets(3, 7))


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
    ``images(frontier)``, the images of every element of the set frontier
    under the group's generators, in one batch."""
    found, frontier = {start}, {start}
    while frontier:
        frontier = set(images(frontier)) - found
        found |= frontier
    return found


# (1 2) and (1 2 ... 7), which generate S_7, as the images of 1..7
_S7_GENERATORS = ((2, 1, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 1))


@lru_cache(maxsize=1)
def _relabel_tables() -> np.ndarray:
    """(2, 128): for each generator of S_7, the image of every subset of
    {1..7}, both as 7-bit masks with bit i - 1 standing for i."""
    bits = (np.arange(128)[:, None] >> np.arange(7)) & 1
    return _read_only((bits << (np.array(_S7_GENERATORS) - 1)[:, None]).sum(axis=2))


@lru_cache(maxsize=1)
def _parts() -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """The increasing index tuple of each 7-bit mask; the masks in tuple
    order of their tuples (the lexsort order of the entries padded with 0,
    which puts a prefix first); and the rank of each mask in that order,
    mask_by_rank[rank] = mask: read-only (128,) arrays."""
    bits = (np.arange(128)[:, None] >> np.arange(7)) & 1
    entries = np.sort(np.where(bits == 1, np.arange(1, 8), 8), axis=1) % 8
    mask_by_rank = np.lexsort(entries.T[::-1])
    rank = np.empty(128, dtype=np.intp)
    rank[mask_by_rank] = np.arange(128)
    parts = tuple(tuple(row[:n]) for row, n in zip(entries.tolist(), bits.sum(axis=1).tolist()))
    return parts, _read_only(mask_by_rank), _read_only(rank)


def _family_key(spec) -> tuple:
    """Each part sorted, then the parts sorted, all as tuples; also the
    canonical layout of a Fano-plane family, and the layout of the rows of
    _s7_orbit."""
    return tuple(sorted(tuple(sorted(part)) for part in spec))


@lru_cache(maxsize=None)
def _s7_orbit(reference) -> np.ndarray:
    """The S_7-orbit of a family of index tuples as a cached, read-only
    (n, parts) array of part masks: each row in the _family_key layout (its
    parts in tuple order), the rows in increasing order of key.  Each step
    of the closure relabels the whole frontier under both generators in one
    gather."""
    relabel = _relabel_tables()

    def images(frontier):
        moved = np.sort(relabel[:, list(frontier)], axis=-1)  # (2, n, parts)
        return map(tuple, moved.reshape(-1, len(reference)).tolist())

    start = tuple(sorted(sum(1 << (i - 1) for i in part) for part in reference))
    _, mask_by_rank, rank = _parts()
    # each row's parts in tuple order, then the rows in key order
    masks = mask_by_rank[np.sort(rank[np.array(list(orbit(start, images)))], axis=1)]
    return _read_only(masks[np.lexsort(rank[masks].T[::-1])])


def _keys(masks: np.ndarray) -> list[tuple]:
    """The _family_key of each row of part masks in that layout."""
    parts = _parts()[0]
    return [tuple(map(parts.__getitem__, row)) for row in masks.tolist()]


@lru_cache(maxsize=None)
def fano_plane_families() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """All 30 families of 7 triples on {1..7} pairwise meeting in one point
    (the labelled Fano planes): the S_7-orbit of FANO_TRIPLE_FAMILY, in
    lexicographic order.  A Fano family is its own key."""
    return tuple(_keys(_fano_part_masks()))


def _fano_part_masks() -> np.ndarray:
    """The part masks of fano_plane_families(), in that order."""
    return _s7_orbit(FANO_TRIPLE_FAMILY)


@lru_cache(maxsize=1)
def _pascal_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of _s7_orbit(PASCAL_FAMILY) in the order of pascal_families,
    by their common index c and then by their pairs in tuple order; with
    the mask of each c, its one singleton part, and the masks of its three
    pairs in tuple order: read-only (105, 7), (105,) and (105, 3) arrays."""
    masks = _s7_orbit(PASCAL_FAMILY)
    sizes = ((masks[..., None] >> np.arange(7)) & 1).sum(axis=-1)
    # a row's parts are in tuple order, so its pairs are
    common, pairs = masks[sizes == 1], masks[sizes == 2].reshape(-1, 3)
    order = np.lexsort((*_parts()[2][pairs].T[::-1], common))
    return tuple(_read_only(a[order]) for a in (masks, common, pairs))


def _pascal_part_masks() -> np.ndarray:
    """The part masks of pascal_families(), in that order."""
    return _pascal_table()[0]


@lru_cache(maxsize=None)
def pascal_families() -> tuple[tuple, ...]:
    """All 105 P-shaped families, a common index c plus a partition of the
    other six indices into three pairs: the S_7-orbit of PASCAL_FAMILY, in
    lexicographic order, each as the three triples (c a b) ordered by their
    sorted pair (a, b), then (c,), then the three sorted pairs."""
    parts = _parts()[0]
    _, common, pairs = _pascal_table()
    families = []
    for c_mask, pair_masks in zip(common.tolist(), pairs.tolist()):
        (c,), sorted_pairs = parts[c_mask], tuple(map(parts.__getitem__, pair_masks))
        families.append(tuple((c,) + p for p in sorted_pairs) + ((c,),) + sorted_pairs)
    return tuple(families)


@lru_cache(maxsize=None)
def _families_by_key(families, masks) -> dict:
    """The members of families() under their _family_key, read off the rows
    of masks(), their part masks in the same order."""
    return dict(zip(_keys(masks()), families()))


def _member(spec, families, masks, kind: str) -> tuple:
    try:
        return _families_by_key(families, masks)[_family_key(spec)]
    except (TypeError, KeyError):
        raise ValueError(f"{spec!r} is not one of the {kind} families") from None


def fano_family(triples) -> tuple:
    """The member of fano_plane_families() that lists the same triples, in
    any order of triples and of their entries; ValueError for any other
    input."""
    return _member(triples, fano_plane_families, _fano_part_masks, "30 Fano-plane")


def pascal_family(spec) -> tuple:
    """The member of pascal_families() made of the same parts, in any order
    of parts and of their entries; ValueError for any other input."""
    return _member(spec, pascal_families, _pascal_part_masks, "105 P-shaped")
