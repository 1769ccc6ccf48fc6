"""Numerical theta functions with characteristics, second-order theta
functions, z-gradients at z = 0, and Jacobian determinants.

All lattice sums are truncated at a radius carrying a certified Gaussian tail
bound; double-precision complex arithmetic throughout.  Each term on the shell
|p|_inf = r is at most exp(-pi lambda_min (r - 1/2)^2 + 2 pi (r + 1/2) |Im z|_1),
lambda_min the smallest eigenvalue of Im tau.  The radius search sums that
bound over the shells 1 .. n of a short window only, which gives the sum over
all 599 shells bit for bit (see _radius).

One pass per (tau, z, radius) sums every characteristic over the half-integer
cube |q|_inf <= radius + 1/2, but exponentiates only the terms above the
rounding floor eps max|term| / (N (1 + 2 pi (radius + 1))), N the cube's point
count.  So a value, or a gradient entry, is off by at most the certified tail
plus eps max|term| of skipped terms, max|term| taken over the cube, plus
rounding.  The largest term is at least 1 (the point q = 0), so the kept
terms lie in an ellipsoid, and the pass computes log-moduli only over its
bounding box, each face widened by a rounding margin (_BOX_MARGIN) and
clipped to the cube; the kept points, and so the sums, are those of the
whole cube bit for bit.  The kept points stay in meshgrid order: each term
goes to its segment (m', p mod 2) by one bincount per real column, with no
sort.  Where Im z = 0 the box and the kept points are symmetric under
q -> -q, so the pass computes log-moduli over the half of the box up to
q = 0 only and keeps the head of the kept points, up to q = 0: the tail is
its mirror, reversed.  At z = 0 the terms at +-q are equal too, and only the
head's are exponentiated.  The g gradient columns of a z = 0 pass are
summed only for theta_gradient: theta, and so the constants and all they feed,
reads a table of values alone, whose value column equals the full table's bit
for bit (see _class_sums); a later gradient request replaces that table by
the full one, rerunning the phase half only.

A pass has two halves.  Its geometry (the kept points, their segment numbers
and log-moduli) depends only on g, Im tau, Im z and the radius, since the
truncation region of a theta sum is a function of Im tau (Deconinck et al.,
Math. Comp. 73 (2004)).  Its phase half (the form of Re tau and Re z, the
exp, the bincounts and the sign matrices) reads the rest.  The geometries of
the last two passes are kept, read-only, keyed by exactly those inputs, unless
one exceeds 4 MiB: so a pass at tau + S, S real, such as a modular
translation, makes only the phase half.

The facts a pass reads of its inputs ((Im tau)^-1, reduced Re tau and 2 tau
of tau; the reduced point, its Python floats, is_zero, |Im z|_1, the key bytes
and the doubled point 2 z of z; the TruncationSpec of each (g, lambda_min,
|Im z|_1, tol); a characteristic's parity, on first read) are computed once per
object; 2 tau and tau + S take lambda_min and (Im tau)^-1 from tau, and 2 z
its facts from z's reduced point, with no check (the doubled properties); the
constructors check tau on Python floats, and ask numpy only near a bound.
Each tau holds the values built at it in its own memo (see _memo).  Where
|Re z_i| > 1 (|Re tau_ij| > 4) the reduction subtracts 2 round(Re z_i / 2)
(8 round(Re tau_ij / 8)), exactly.  theta[m](tau + 8 T, z + 2 b) equals
theta[m](tau, z) for integer b and T = T^t, so a pass (and 2 tau) sums at the
reduced values, and a huge Re z or Re tau neither loses its phase nor overflows.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .characteristics import Characteristic, _read_only, bit_rows, enumerate_characteristics

DEFAULT_TOL = 1e-12


def _json_fields(data: dict, what: str, *keys: str) -> list:
    """The values of keys in a JSON object; ValueError naming a missing key."""
    for key in keys:
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"{what} JSON is missing the key {key!r}")
    return [data[key] for key in keys]


def _json_numbers(value, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array; ValueError
    for anything else (an object, a string, a boolean, null) and for an
    integer beyond the float range."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif type(item) not in (int, float):
            raise ValueError(f"{what} must hold JSON numbers only, not {item!r}")
    try:
        return np.array(value, float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer beyond the float range") from None


def _abs(z: complex) -> float:
    """|z|, NaN for a NaN z.  CPython 3.11's abs of a complex NaN raises
    OverflowError when an earlier libm call left errno at ERANGE."""
    return abs(z) if z == z else math.nan


# Above this bound on trace(Im tau) / lambda_min, which is at least the
# condition number of Im tau, the floor box is the whole cube.  The error of a
# float inverse grows as the condition number times eps: at condition 1e8 the
# box's centre and half-widths were off by at most 1e-8 of the half-width
# (see _floor_box), at 1e14 by up to 0.6, more than _BOX_MARGIN covers.
_BOX_CONDITION = 1e8
# Each face of the floor box is widened by _BOX_MARGIN (1 + |c_i| + s_i)
# against the rounding of its centre c_i and half-width s_i.
_BOX_MARGIN = 1e-3

# The quadratic form of a pass, at 2 tau and |q_i| <= _MAX_RADIUS + 1/2, is at
# most about 1e6 max|tau_ij| in modulus: below this bound it cannot overflow.
# The bound is on tau; theta2's 2 tau may pass it and is not checked again.
_TAU_MAX = 1e300


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """A complex symmetric g x g matrix with positive-definite imaginary part,
    its reduced Re tau (see the module docstring), read-only, and its memo of
    read-only values (see _memo).  Two period matrices are equal, and hash
    alike, only when they are one object, as each holds its own memo."""

    g: int
    tau: np.ndarray
    lambda_min: float = field(init=False)
    y_inv: np.ndarray | None = field(init=False, repr=False)
    re_reduced: np.ndarray = field(init=False, repr=False)
    memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        _check_genus(self.g)
        tau = np.asarray(self.tau, dtype=complex)
        if tau.shape != (self.g, self.g):
            raise ValueError("tau shape does not match genus")
        tau = _symmetrized(tau)
        lam = float(np.linalg.eigvalsh(tau.imag).min())
        if lam <= 0:
            raise ValueError("Im(tau) must be positive definite")
        self._set(self.g, tau, lam, _inverse(tau.imag, lam), _reduced_re(tau.real))

    @classmethod
    def from_json(cls, data: dict) -> "PeriodMatrix":
        g, re, im = _json_fields(data, "tau", "g", "re", "im")
        if type(g) is not int:
            raise ValueError(f"tau JSON key 'g' must be an integer, not {g!r}")
        re, im = _json_numbers(re, "tau JSON 're'"), _json_numbers(im, "tau JSON 'im'")
        if re.shape != (g, g) or im.shape != (g, g):
            raise ValueError(f"tau JSON 're' and 'im' must both have shape {(g, g)}, "
                             f"not {re.shape} and {im.shape}")
        return cls(g, re + 1j * im)

    def to_json(self) -> dict:
        return {"g": self.g, "re": self.tau.real.tolist(), "im": self.tau.imag.tolist()}

    @cached_property
    def doubled(self) -> "PeriodMatrix":
        """2 tau, built on first use, unchecked as valid whenever tau is: tau's
        lambda_min doubled (no second eigvalsh: the same float wherever LAPACK
        does not rescale), y_inv halved, reduced Re tau doubled (exactly)."""
        y_inv = None if self.y_inv is None else _read_only(self.y_inv / 2)
        tau, re = _read_only(2 * self.tau), _read_only(2 * self.re_reduced)
        return object.__new__(PeriodMatrix)._set(self.g, tau, 2 * self.lambda_min, y_inv, re)

    def _translated(self, s) -> "PeriodMatrix":
        """tau + S, S integer symmetric, checked as the constructor checks it;
        Im tau is unchanged (up to the sign of a zero), so lambda_min and y_inv are."""
        s, g = np.asarray(s), self.g
        if (s.dtype.kind not in "biuf" or s.shape != (g, g) or not (s == s.T).all()
                or not (s == np.round(s)).all()):
            raise ValueError("translation generator needs an integer symmetric matrix")
        tau = _symmetrized(self.tau + s)
        return object.__new__(PeriodMatrix)._set(g, tau, self.lambda_min, self.y_inv,
                                                 _reduced_re(tau.real))

    def _set(self, g: int, tau: np.ndarray, lambda_min: float, y_inv, re_reduced) -> "PeriodMatrix":
        """Sets g, the read-only tau, its facts and an empty memo; returns self."""
        for name, value in zip(("g", "tau", "lambda_min", "y_inv", "re_reduced", "memo"),
                               (g, tau, lambda_min, y_inv, re_reduced, {})):
            object.__setattr__(self, name, value)
        return self


def _check_genus(g) -> None:
    if type(g) is not int:
        raise ValueError(f"genus must be an integer, not {g!r}")
    if g < 1:
        raise ValueError(f"genus must be at least 1, not {g!r}")


def _symmetrized(tau: np.ndarray) -> np.ndarray:
    """(tau + tau^t) / 2, read-only; tau finite, symmetric to 1e-12, at most
    _TAU_MAX.  A tau whose parts sum in modulus to at most _TAU_MAX / 2, and
    which is symmetric exactly, passes on Python floats alone; numpy checks
    any other, as the bounds are on moduli."""
    if not sum(map(abs, tau.ravel().view(float).tolist())) <= _TAU_MAX / 2:
        if not np.isfinite(tau).all():
            raise ValueError("tau entries must be finite")
        if np.abs(tau).max() > _TAU_MAX:
            raise ValueError(f"tau entries must be at most {_TAU_MAX:.0e} in modulus")
    if tau.tolist() != tau.T.tolist() and np.abs(tau - tau.T).max() > 1e-12:
        raise ValueError("tau must be symmetric")
    half = tau / 2
    return _read_only(half + half.T)


def _reduced_re(x: np.ndarray) -> np.ndarray:
    """Re tau minus 8 round(Re tau_ij / 8) where |Re tau_ij| > 4 (exact)."""
    if max(abs(v) for row in x.tolist() for v in row) > 4:
        x = _read_only(x - np.where(np.abs(x) > 4, 8 * np.round(x / 8), 0.0))
    return x


def _inverse(y: np.ndarray, lambda_min: float) -> np.ndarray | None:
    """y^-1 (read-only), which bounds the floor box of every pass at tau, or
    None when trace(y) > _BOX_CONDITION lambda_min, where a float inverse may
    be too far off to bound the box (and may not exist)."""
    if sum(y.diagonal().tolist()) > _BOX_CONDITION * lambda_min:
        return None
    return _read_only(np.linalg.inv(y))


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point z in C^g, with the facts every pass at z reads: the reduced
    point z - 2 b, b the integer vector nearest Re z / 2 where |Re z_i| > 1
    and 0 elsewhere (exact, and z itself when every |Re z_i| <= 1), whether
    it is 0, |Im z|_1, its memo key bytes and the real and imaginary parts of
    the reduced point as Python floats.  Theta takes equal values at z and at
    the reduced point, which the pass sums at.  A z with pi |Im z|_1 at least
    log of the largest double (|Im z|_1 >= 225.9) is a ValueError: the term
    at q = 0 alone bounds such a sum by exp(pi |Im z|_1), which overflows at
    every tau (see _radius).  Two points are equal, and hash alike, only
    when they are one object; the memo keys a point by its key bytes."""

    g: int
    z: np.ndarray
    reduced: np.ndarray = field(init=False, repr=False)
    is_zero: bool = field(init=False, repr=False)
    imz_l1: float = field(init=False, repr=False)
    key: bytes = field(init=False, repr=False)
    parts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _check_genus(self.g)
        z = np.asarray(self.z, dtype=complex).reshape(-1)
        if z.shape != (self.g,):
            raise ValueError("z length does not match genus")
        y = z.imag.tolist()
        if not all(map(math.isfinite, z.real.tolist() + y)):
            raise ValueError("z entries must be finite")
        # below the bound every |Im z_i| is under 226, so their sum is finite
        imz_l1 = (sum(map(abs, y)) if math.pi * max(map(abs, y)) >= _LOG_DOUBLE_MAX
                  else float(np.abs(z.imag).sum()))
        if math.pi * imz_l1 >= _LOG_DOUBLE_MAX:
            raise ValueError(f"theta terms overflow double precision at every tau: "
                             f"|Im z|_1 = {imz_l1:.6g}")
        z.setflags(write=False)
        self._set(self.g, z, imz_l1)

    def _set(self, g: int, z: np.ndarray, imz_l1: float) -> "PhasePoint":
        """Sets g, the read-only z, |Im z|_1 and the facts of the reduced
        point, unchecked; returns self."""
        x, reduced = z.real, z
        if max(map(abs, x.tolist())) > 1:
            reduced = _read_only(z - np.where(np.abs(x) > 1, 2 * np.round(x / 2), 0.0))
        parts = (tuple(reduced.real.tolist()), tuple(reduced.imag.tolist()))
        for name, value in zip(("g", "z", "reduced", "is_zero", "imz_l1", "key", "parts"),
                               (g, z, reduced, not (any(parts[0]) or any(parts[1])), imz_l1,
                                reduced.tobytes(), parts)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def zero(cls, g: int) -> "PhasePoint":
        """The point 0 of C^g: one shared instance per g, with read-only arrays."""
        return _zero_point(g)

    @classmethod
    def from_json(cls, data: dict) -> "PhasePoint":
        re, im = _json_fields(data, "z", "re", "im")
        re, im = _json_numbers(re, "z JSON 're'"), _json_numbers(im, "z JSON 'im'")
        if re.ndim != 1 or re.shape != im.shape:
            raise ValueError("z JSON 're' and 'im' must both be lists of one length, "
                             f"not of shapes {re.shape} and {im.shape}")
        return cls(len(re), re + 1j * im)

    def to_json(self) -> dict:
        return {"re": self.z.real.tolist(), "im": self.z.imag.tolist()}

    @cached_property
    def doubled(self) -> "PhasePoint":
        """The point 2 z, built on first use from the reduced point (theta is
        unchanged by the shift 4 b) without the constructor's checks: 2 z is
        finite, as |Re| <= 1 on the reduced point and each |Im z_i| is below
        226, and |Im 2 z|_1 is 2 |Im z|_1 exactly, the sum of doubled moduli."""
        return object.__new__(PhasePoint)._set(self.g, _read_only(2 * self.reduced), 2 * self.imz_l1)


@lru_cache(maxsize=8)
def _zero_point(g: int) -> PhasePoint:
    return PhasePoint(g, np.zeros(g, dtype=complex))


class TermOverflowError(ValueError):
    """The terms of a theta sum overflow double precision."""


@dataclass(frozen=True)
class TruncationSpec:
    radius: int
    tol: float
    certified_tail_bound: float

    def __post_init__(self):
        if self.certified_tail_bound > self.tol:
            raise ValueError("tail bound exceeds the requested tolerance")


# Shells |p|_inf = 1 .. _SHELLS carry the tail sums; the radius stops at
# _MAX_RADIUS, so every tail adds at least 400 shells past the radius.
_MAX_RADIUS = 199
_SHELLS = _MAX_RADIUS + 400
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# A window of shells ends where the log shell bound falls by at least _DROP
# from one shell to the next (see _radius).
_DROP = 38.0


def _term_log_bound(lam: float, imz_l1: float, r):
    """Upper bound on log|term| for every lattice point p with |p|_inf = r >= 1.

    With q = p + m'/2, |q|_inf lies in [r - 1/2, r + 1/2], so the term's
    log-modulus -pi q^t Im(tau) q - 2 pi q.(Im z) is at most
    -pi lam (r - 1/2)^2 + 2 pi (r + 1/2) |Im z|_1.
    """
    return -math.pi * lam * (r - 0.5) ** 2 + 2 * math.pi * (r + 0.5) * imz_l1


@lru_cache(maxsize=None)
def _shells(g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per shell r = 1 .. _SHELLS: the log of its point count
    (2r + 1)^g - (2r - 1)^g, and the (r - 1/2)^2 and 2 pi (r + 1/2) of its
    term bound, so that -pi lam (r - 1/2)^2 + 2 pi (r + 1/2) |Im z|_1 takes
    the floating-point operations of _term_log_bound."""
    r = np.arange(1, _SHELLS + 1, dtype=float)
    log_count = g * np.log(2 * r + 1) + np.log1p(-(((2 * r - 1) / (2 * r + 1)) ** g))
    return _read_only(log_count), _read_only((r - 0.5) ** 2), _read_only(2 * math.pi * (r + 0.5))


@lru_cache(maxsize=256)
def _radius(g: int, lam: float, imz_l1: float, tol: float) -> TruncationSpec:
    """The smallest radius <= _MAX_RADIUS whose tail bound is below tol, and
    that bound, as one TruncationSpec shared by every equal request.  The
    tail past radius R is the sum over shells r > R of the shell's point
    count (2r + 1)^g - (2r - 1)^g times its term bound, summed in the log
    domain, from shell _SHELLS down.

    The sum runs over a window of shells 1 .. n only, and gives the tails of
    all _SHELLS shells bit for bit.  The log shell bound f(r) is concave in r
    (a log point count plus a concave quadratic), so where
    f(n) - f(n - 1) <= -_DROP every later shell falls by e^-_DROP at least,
    and the shells past n sum below exp(f(n) - _DROP + 1e-16).  When also
    f(n) <= -1, log1p of that ratio is below half an ulp of f(n), so the
    whole sum reaches shell n with exactly f(n), where the window's starts,
    and from there both make the same operations.  The first window ends
    just past that drop: f(n) - f(n - 1) is the growth of the log point
    count, at most 1.33 at g <= 3, minus 2 pi (lam (n - 1) - |Im z|_1).  The
    window doubles while the drop or f(n) <= -1 fails or the radius is not
    in it; at _SHELLS shells it is the whole sum."""
    log_count, sq, lin = _shells(g)
    n = min(_SHELLS, 2 + int((_DROP + 1.5 + 2 * math.pi * imz_l1) / (2 * math.pi * lam)))
    while True:
        log_shell = log_count[:n] + (-math.pi * lam * sq[:n] + lin[:n] * imz_l1)
        before, last = log_shell[-2:].tolist()
        if n == _SHELLS or (last - before <= -_DROP and last <= -1):
            # log_tail[k] = log of the sum over shells r >= k + 1
            log_tail = np.logaddexp.accumulate(log_shell[::-1])[::-1]
            # shell 0 is one point with |q|_inf <= 1/2: term bound pi |Im z|_1
            if np.logaddexp(math.pi * imz_l1, log_tail[0]) >= _LOG_DOUBLE_MAX:
                raise TermOverflowError(
                    f"theta terms overflow double precision at lambda_min = {lam:.6g}, "
                    f"|Im z|_1 = {imz_l1:.6g}"
                )
            for radius, tail in enumerate(np.exp(log_tail[1:_MAX_RADIUS + 1]).tolist(), 1):
                if tail < tol:  # tail: shells > radius
                    return TruncationSpec(radius, tol, tail)
            if n > _MAX_RADIUS:
                raise ValueError("truncation radius exceeds the supported range")
        n = min(_SHELLS, 2 * n)


def truncation_radius(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL) -> TruncationSpec:
    """Minimal radius whose certified tail bound falls below tol.

    Raises ValueError when the terms of the sum would overflow double
    precision or no radius up to 199 suffices.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _radius(tau.g, tau.lambda_min, z.imz_l1, tol)


def _memo(tau: PeriodMatrix, z: PhasePoint) -> dict:
    """tau's memo of read-only values at z, shared with no other tau: at z = 0
    tau.memo, which also holds the values of tau alone (constants, gradients,
    s-vector); at z != 0 that of the last z != 0 asked at tau, kept in
    tau.memo["z"] beside z's key, which another z replaces."""
    if z.is_zero:
        return tau.memo
    last = tau.memo.get("z")
    if last is None or last[0] != z.key:
        last = tau.memo["z"] = (z.key, {})
    return last[1]


def _memoized(memo: dict, key, build, *args):
    """memo's value at key, or build(*args), remembered there."""
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = build(*args)
    return hit


# The geometries of the last _GEOMETRY_CAP passes (what _kept_points returns,
# read-only), least recently used first, keyed by (g, Im tau bytes, Im z bytes,
# radius): the kept points, segment numbers and log-moduli depend on nothing
# else, so a pass at tau + S (S real), such as a modular translation, reuses
# the geometry of the pass at tau.  A geometry above _GEOMETRY_BYTES (about
# 100k kept points) serves its own pass and is not kept, so the memo holds at
# most 8 MiB.
_GEOMETRY: dict[tuple, tuple] = {}
_GEOMETRY_CAP = 2
_GEOMETRY_BYTES = 4 * 2 ** 20


@lru_cache(maxsize=None)
def _half_cube(g: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the half-integer cube q in (Z/2)^g, |q|_inf <= radius + 1/2,
    which is the union over m' of the lattices q = p + m'/2 with
    |q_i| <= radius + m'_i/2: its 4 radius + 3 values in increasing order,
    and, per coordinate i, the bits (intp) each value adds to the segment
    number (m' << g) | c of its point, c = p mod 2, with coordinate 0 the top
    bit of m' and of c; a point's segment number is the or of its g bits.
    The cube is symmetric under q -> -q, so the sum at -z has the same terms
    as at z; the points it adds to the lattice |p|_inf <= radius all lie on
    shells |p|_inf > radius."""
    k = np.arange(-2 * radius - 1, 2 * radius + 2)
    mp, c = k & 1, (k >> 1) & 1
    bits = [(mp << (2 * g - 1 - i)) | (c << (g - 1 - i)) for i in range(g)]
    return _read_only(k / 2), _read_only(np.array(bits, dtype=np.intp))


@lru_cache(maxsize=None)
def _sign_matrices(g: int) -> np.ndarray:
    """H[m', m'', c] = i^{m'.m''} (-1)^{c.m''}: the factor exp(pi i q.m'') at the
    points q = p + m'/2 of class c = p mod 2, one (2^g, 2^g) matrix per m'."""
    n = 1 << g
    return _read_only(np.array([[[1j ** (mp & k).bit_count() * (-1) ** (c & k).bit_count()
                                  for c in range(n)] for k in range(n)] for mp in range(n)]))


def _log_floor(n_points: int, radius: int) -> float:
    """log of the rounding floor eps / (N (1 + 2 pi (radius + 1))) relative to
    the largest term of an N-point cube.  The terms below it add at most
    eps max|term| to a value and, since |2 pi q_i| <= 2 pi (radius + 1), at
    most that to a gradient entry."""
    return math.log(np.finfo(float).eps / (n_points * (1 + 2 * math.pi * (radius + 1))))


def _form_into(out: np.ndarray, a: list, b: tuple, qs: list, scale: float) -> None:
    """scale (q^t a q + 2 q.b) written into out, for coordinate arrays qs that
    broadcast to out's shape, a symmetric (rows of Python floats) and b Python
    floats: sum_i q_i (a_ii q_i + 2 b_i + 2 sum_{j>i} a_ij q_j), then scaled.
    Row i grows by broadcasting to the shape of q_i ... q_{g-1} (over a grid
    of axis columns only row 0 has out's size), and takes each 2 a_ij q_j of
    its own shape in place, so beside it one product array is held at most."""
    for i, q in enumerate(qs):
        row = np.multiply(q, a[i][i])
        row += 2 * b[i]
        for j in range(i + 1, len(qs)):
            row = np.add(row, np.multiply(qs[j], 2 * a[i][j]),
                         out=row if row.shape == qs[j].shape else None)
        if i:
            row *= q
            out += row
        else:
            np.multiply(row, q, out=out)
    out *= scale


def _floor_box(tau: PeriodMatrix, z: PhasePoint, radius: int, log_floor: float) -> tuple:
    """Per axis, the slice of _half_cube's axis that holds every point whose
    log-modulus reaches log_floor <= 0.  With Y = Im(tau), w = Im z and
    c = -Y^-1 w, -pi (q^t Y q + 2 q.w) >= log_floor is the ellipsoid
    (q - c)^t Y (q - c) <= w^t Y^-1 w - log_floor / pi =: R^2, which lies
    in the box |q_i - c_i| <= s_i := sqrt(R^2 (Y^-1)_ii).  The cube's
    largest term is at least 1 (its point q = 0, which the box holds:
    c_i^2 <= (Y^-1)_ii w^t Y^-1 w < R^2 (Y^-1)_ii), so every term above the
    rounding floor lies in the box.  Where tau holds no inverse (Im tau
    ill-conditioned), the box is the whole cube.

    Each slice holds the grid points with |q_i - c_i| <= s_i + _BOX_MARGIN
    (1 + |c_i| + s_i), clipped to the cube; the margin covers rounding.  c,
    R^2 and s are read off the float inverse of Y, whose first-order error
    Y^-1 E Y^-1, E the backward error of the LU factors (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed. (2002), ch. 9 and 14), moves
    c_i and s_i by about eps kappa s_i, with kappa = trace(Y) / lambda_min
    <= _BOX_CONDITION.  Against a 50-digit inverse, 599 Y at kappa 1e4 to
    1e8, Im z from 0 to 100 in modulus along an end eigenvector of Y or at
    random, were off by at most 0.46 eps kappa s_i, 1e-8 s_i at kappa 1e8;
    the margin is at least 4.5e4 eps kappa s_i there.  The log-moduli's own
    rounding moves R^2 by a relative 2 g^2 eps kappa at most.  At z = 0,
    c = 0 and the box is symmetric about q = 0 bit for bit."""
    # the axis holds q = (k - mid) / 2 at index k
    mid, size = 2 * radius + 1, 4 * radius + 3
    if tau.y_inv is None:
        return (slice(0, size),) * tau.g
    y_inv, w = tau.y_inv.tolist(), z.parts[1]
    c = [-sum(map(operator.mul, row, w)) for row in y_inv]
    r2 = -sum(map(operator.mul, c, w)) - log_floor / math.pi
    box = []
    for i, ci in enumerate(c):
        s = math.sqrt(r2 * y_inv[i][i])
        s += _BOX_MARGIN * (1 + abs(ci) + s)
        box.append(slice(max(math.ceil(2 * (ci - s)) + mid, 0),
                         min(math.floor(2 * (ci + s)) + mid + 1, size)))
    return tuple(box)


def _kept_points(tau: PeriodMatrix, z: PhasePoint,
                 radius: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The points q of the half-integer cube whose term is above the rounding
    floor, in meshgrid order, one coordinate array per axis, with their
    segment numbers and log-moduli -pi (q^t Im(tau) q + 2 q.Im z).  The
    log-modulus is summed axis by axis over the floor box of _floor_box only,
    and freed once its kept entries are read.  The floor is taken relative to
    the box's largest term, which is the cube's, for the cube's point count
    N: the kept points are those of the whole cube, and the error statement
    of theta is unchanged.  A kept point's coordinates and segment number are
    read from _half_cube's box slices at its grid indices, peeled off its flat
    index in the box (last axis fastest) one axis at a time, not all at once.

    Where Im z = 0 (at z = 0, say) only the head is built: the first
    (K + 1) // 2 of the K kept points, those up to and including q = 0.  The
    box and the log-moduli are symmetric under q -> -q there, bit for bit,
    whatever Re z, so the tail, the other (K - 1) // 2, is the head's mirror
    reversed (see _mirrored): at position K - 1 - k lies -q of position k,
    with an equal log-modulus and the segment number seg ^ (seg >> g), as
    -q = (-p - m') + m'/2 keeps m' and takes c to c ^ m'.  So the log-moduli
    are summed over the rows of axis 0 up to its centre row only, and of
    that row only the part up to q = 0, its centre, is read."""
    g = tau.g
    axis, bits = _half_cube(g, radius)
    log_floor = _log_floor((4 * radius + 3) ** g, radius)
    box = _floor_box(tau, z, radius, log_floor)
    symmetric = not any(z.parts[1])
    if symmetric:  # the rows of axis 0 up to q_0 = 0, at index 2 radius + 1
        box = (slice(box[0].start, 2 * radius + 2),) + box[1:]
    qs = [axis[s].reshape((-1,) + (1,) * (g - 1 - i)) for i, s in enumerate(box)]
    log_mod = np.empty(tuple(map(len, qs)))
    _form_into(log_mod, tau.tau.imag.tolist(), z.parts[1], qs, -math.pi)
    if symmetric:  # the last row, symmetric about q = 0, up to its centre
        log_mod = log_mod.reshape(-1)[:log_mod.size - log_mod[0].size // 2]
    keep = log_mod >= log_mod.max() + log_floor
    kept_log_mod = log_mod[keep]
    del log_mod
    index = np.flatnonzero(keep)
    del keep
    kept, seg = [], 0
    for i in reversed(range(g)):  # on axis 0 the grid index is what is left
        k = index
        if i:  # k mod n as k - n (k // n): numpy divides by a scalar fast, unlike np.divmod
            index = k // len(qs[i])
            k -= index * len(qs[i])  # in place: k is this loop's own array
        seg |= bits[i][box[i]][k]
        kept.insert(0, axis[box[i]][k])
        del k  # before the next division
    return kept, seg, kept_log_mod


def _mirrored(head: np.ndarray, flip) -> np.ndarray:
    """The K = 2 len(head) - 1 entries of the kept points of a geometry at
    Im z = 0 from its head: the head, then flip(head[-2::-1]) written in
    place (see _kept_points)."""
    full = np.empty(2 * len(head) - 1, dtype=head.dtype)
    full[:len(head)] = head
    flip(head[-2::-1], out=full[len(head):])
    return full


def _geometry(tau: PeriodMatrix, z: PhasePoint, radius: int) -> tuple:
    """_kept_points(tau, z, radius), from the geometry memo when a pass at the
    same (g, Im tau, Im z, radius) kept it: where Im z = 0, the head alone.
    A kept geometry is read-only, its segment numbers a read-only view of a
    writeable array; one above _GEOMETRY_BYTES is returned as built, for its
    own pass alone."""
    key = (tau.g, tau.tau.imag.tobytes(), z.reduced.imag.tobytes(), radius)
    geometry = _GEOMETRY.pop(key, None)
    if geometry is None:
        qs, seg, log_mod = geometry = _kept_points(tau, z, radius)
        if (len(qs) + 2) * log_mod.nbytes > _GEOMETRY_BYTES:
            return geometry
        geometry = (tuple(map(_read_only, qs)), _read_only(seg.view()), _read_only(log_mod))
    _GEOMETRY[key] = geometry
    if len(_GEOMETRY) > _GEOMETRY_CAP:
        del _GEOMETRY[next(iter(_GEOMETRY))]
    return geometry


def _class_sums(tau: PeriodMatrix, z: PhasePoint, radius: int, gradient: bool = True) -> np.ndarray:
    """Entry [m', m''] holds theta[m'; m''](tau, z) over the half-integer cube
    of the given radius and, at z = 0 when gradient is set, its z-gradient:
    one exp over the points above the rounding floor serves all 4^g
    characteristics.  The pass has two halves.  Its geometry, the kept
    points, segment numbers and log-moduli, depends only on Im tau, Im z and
    the radius (_geometry).  Its phase half adds to each log-modulus i pi
    times the axis-by-axis quadratic form of the reduced Re tau and Re z, bit
    for bit the real and imaginary parts of i pi (q^t tau q + 2 q.z) up to
    the sign of a zero; the form is built in place in the imaginary parts.
    Where Im z = 0 the geometry is the head of the K kept points, and the
    tail's segment numbers are read off the head's.  At z = 0 the tail's
    terms also equal the head's mirrored, so only the head is exponentiated
    (in place) and its terms copied to the tail, reversed; the tail's
    coordinates -q are built only for a gradient column, one axis at a time,
    and not at all for a values-only pass.  At a real z != 0 the pass builds
    the tail's coordinates and log-moduli and exponentiates every term.
    Each segment (m', c) sums its terms, in meshgrid order, by one bincount
    per real and imaginary part of the value column (and, at z = 0 with
    gradient set, of the g gradient columns, built one at a time); the sign
    matrices of _sign_matrices combine them, one per m'.
    Memoized and read-only, one entry per (tau, z, radius) (see _memo).
    Without gradient, a z = 0 table keeps only its value column, which the
    sign matmul still computes at the full width 1 + g, the gradient columns
    left at 0: a width-1 operand takes numpy's matrix-vector path, whose
    column can differ from the full table's in the last bits.  A gradient
    request that finds such a table replaces it by the full one, rebuilding
    the phase half only (the geometry memo keeps the geometry)."""
    memo, key = _memo(tau, z), (z.key, radius)
    hit = memo.get(key)
    if hit is None or (gradient and z.is_zero and hit.shape[2] == 1):
        g, n = tau.g, 1 << tau.g
        qs, seg, log_mod = _geometry(tau, z, radius)
        if not any(z.parts[1]):  # a head; the tail's segment numbers are seg ^ (seg >> g)
            seg = _mirrored(seg, lambda t, out: np.bitwise_xor(t, np.right_shift(t, g, out=out),
                                                               out=out))
            if not z.is_zero:
                qs = [_mirrored(x, np.negative) for x in qs]
                log_mod = _mirrored(log_mod, np.positive)
        elif not seg.flags.writeable:
            # np.bincount copies a read-only index array on every call, so a
            # kept geometry's segment numbers are counted through the view's base
            seg = seg.base
        terms = np.empty(len(seg), dtype=complex)
        head = terms[:len(log_mod)]
        head.real = log_mod
        del log_mod  # freed here unless the geometry memo keeps it
        _form_into(head.imag, tau.re_reduced.tolist(), z.parts[0], qs, math.pi)
        np.exp(head, out=head)
        if z.is_zero:
            terms[len(head):] = head[-2::-1]
        sums = np.zeros((1 + g if z.is_zero else 1, n * n), dtype=complex)
        for col, x in zip(sums, [None, *qs] if gradient else [None]):
            if x is not None:  # a gradient column, at z = 0
                x = _mirrored(x, np.negative)
            col.real, col.imag = (np.bincount(seg, part if x is None else x * part, n * n)
                                  for part in (terms.real, terms.imag))
        sums = sums.T
        if gradient:  # a values-only table's gradient columns stay 0
            sums[:, 1:] *= 2j * math.pi
        hit = _sign_matrices(g) @ sums.reshape(n, n, -1)
        hit = memo[key] = _read_only(hit if gradient else hit[..., :1].copy())
    return hit


def theta(tau: PeriodMatrix, z: PhasePoint, m: Characteristic, tol: float = DEFAULT_TOL) -> complex:
    """Truncated lattice sum for theta[m'; m''](tau, z).

    Odd characteristics at z = 0 return exact 0 (the +-p terms cancel in
    pairs).  Everything else carries absolute error below tol (the certified
    tail) plus at most eps max|term| of terms below the rounding floor, with
    max|term| over the half-integer cube of the pass, plus rounding.
    """
    if not (tau.g == z.g == m.g):
        raise ValueError("genus mismatch")
    if z.is_zero and m.is_odd:
        return 0.0
    radius = truncation_radius(tau, z, tol).radius
    g, i = tau.g, m.idx
    return _class_sums(tau, z, radius, False).item(i >> g, i & ((1 << g) - 1), 0)


def theta2(tau: PeriodMatrix, z: PhasePoint, eps: str, tol: float = DEFAULT_TOL) -> complex:
    """Second-order theta: Theta[eps](tau, z) = theta[eps; 0](2 tau, 2 z), with
    the top row eps given as a bit string such as "101"; 2 tau is built once
    per tau and 2 z once per point.  Terms that overflow at (2 tau, 2 z) are
    a ValueError naming the lambda_min and |Im z|_1 of tau and z."""
    if not isinstance(eps, str):  # the top row's one reader rejects it by name
        bit_rows(eps, 1, "second-order top row")
    if len(eps) != tau.g:
        raise ValueError("eps length does not match genus")
    try:
        return theta(tau.doubled, z.doubled, _second_order(eps), tol)
    except TermOverflowError:
        raise TermOverflowError(
            f"theta terms overflow double precision at (2 tau, 2 z), for tau with "
            f"lambda_min = {tau.lambda_min:.6g} and z with |Im z|_1 = {z.imz_l1:.6g}") from None


@lru_cache(maxsize=None)
def _second_order(eps: str) -> Characteristic:
    """The characteristic [eps; 0] of the second-order theta with top row eps."""
    (top,) = bit_rows(eps, 1, "second-order top row")
    return Characteristic.from_bits(top, (0,) * len(top))


def theta_gradient(tau: PeriodMatrix, m: Characteristic, tol: float = DEFAULT_TOL) -> np.ndarray:
    """grad_z theta_m(tau, z) at z = 0, by term-wise differentiation (read-only).

    Only odd characteristics are accepted; the gradient of an even theta
    function vanishes at z = 0 and asking for it is a caller bug.  The only
    reader of the gradient columns of a z = 0 pass: where the memo holds the
    values-only table of theta, it is replaced by the full table, from the
    kept geometry.  So a caller that reads gradients and constants at one tau
    asks for the gradients first.
    """
    if tau.g != m.g:
        raise ValueError("genus mismatch")
    if m.is_even:
        raise ValueError("gradient at z = 0 requires an odd characteristic")
    z0 = PhasePoint.zero(tau.g)
    radius = truncation_radius(tau, z0, tol).radius
    return _class_sums(tau, z0, radius)[m.mp_int, m.mpp_int, 1:]


def even_theta_constants(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> MappingProxyType:
    """All even theta constants at tau, keyed by characteristic index, as a
    read-only mapping; memoized per (tau, tol)."""
    return _memoized(tau.memo, ("constants", tol), _even_constants, tau, tol)


def _even_constants(tau: PeriodMatrix, tol: float) -> MappingProxyType:
    z0 = PhasePoint.zero(tau.g)
    return MappingProxyType({m.idx: theta(tau, z0, m, tol)
                             for m in enumerate_characteristics(tau.g, "even")})


def cached_gradient(tau: PeriodMatrix, m: Characteristic, tol: float = DEFAULT_TOL) -> np.ndarray:
    """theta_gradient(tau, m, tol), memoized per (tau, m, tol)."""
    if tau.g != m.g:
        raise ValueError("genus mismatch")
    return _memoized(tau.memo, ("gradient", m.idx, tol), theta_gradient, tau, m, tol)


def jacobian_det(tau: PeriodMatrix, ms, tol: float = DEFAULT_TOL) -> complex:
    """Determinant of the g x g matrix of theta gradients at z = 0, on
    memoized gradients."""
    ms = list(ms)
    g = tau.g
    if len(ms) != g:
        raise ValueError(f"need exactly {g} odd characteristics")
    if len({m.idx for m in ms}) != g:
        raise ValueError("characteristics must be pairwise distinct")
    rows = [cached_gradient(tau, m, tol) for m in ms]
    if g == 1:
        return complex(rows[0][0])
    return complex(np.linalg.det(np.array(rows)))


# perfbench/tracer.py wraps this name; it is the same function.
jacobian_det_cached = jacobian_det
