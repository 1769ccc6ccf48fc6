"""Numerical theta functions with characteristics, second-order theta
functions, z-gradients at z = 0, and Jacobian determinants.

All lattice sums are truncated at a radius carrying a certified Gaussian tail
bound; double-precision complex arithmetic throughout.  The verification
domain keeps lambda_min(Im tau) >= 0.5 so radii stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characteristics import Characteristic, enumerate_characteristics

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class PeriodMatrix:
    """A complex symmetric g x g matrix with positive-definite imaginary part."""

    g: int
    tau: np.ndarray
    lambda_min: float = field(init=False)

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=complex)
        if tau.shape != (self.g, self.g):
            raise ValueError("tau shape does not match genus")
        if not np.allclose(tau, tau.T, rtol=0, atol=1e-12):
            raise ValueError("tau must be symmetric")
        tau = (tau + tau.T) / 2
        lam = float(np.linalg.eigvalsh(tau.imag).min())
        if lam <= 0:
            raise ValueError("Im(tau) must be positive definite")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "lambda_min", lam)
        tau.setflags(write=False)

    @classmethod
    def from_json(cls, data: dict) -> "PeriodMatrix":
        g = int(data["g"])
        return cls(g, np.array(data["re"], float) + 1j * np.array(data["im"], float))

    def to_json(self) -> dict:
        return {"g": self.g, "re": self.tau.real.tolist(), "im": self.tau.imag.tolist()}

    def cache_key(self) -> tuple:
        return (self.g, self.tau.tobytes())


@dataclass(frozen=True)
class PhasePoint:
    g: int
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex).reshape(-1)
        if z.shape != (self.g,):
            raise ValueError("z length does not match genus")
        if not np.all(np.isfinite(z.view(float))):
            raise ValueError("z entries must be finite")
        object.__setattr__(self, "z", z)
        z.setflags(write=False)

    @classmethod
    def zero(cls, g: int) -> "PhasePoint":
        return cls(g, np.zeros(g, dtype=complex))

    @classmethod
    def from_json(cls, data: dict) -> "PhasePoint":
        z = np.array(data["re"], float) + 1j * np.array(data["im"], float)
        return cls(len(z), z)

    def to_json(self) -> dict:
        return {"re": self.z.real.tolist(), "im": self.z.imag.tolist()}

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.z == 0))


@dataclass(frozen=True)
class TruncationSpec:
    radius: int
    tol: float
    certified_tail_bound: float

    def __post_init__(self):
        if self.certified_tail_bound > self.tol:
            raise ValueError("tail bound exceeds the requested tolerance")


def _tail_bound(g: int, lam: float, imz_l1: float, radius: int) -> float:
    """Sum over shells |p|_inf = r > radius of the Gaussian-geometric bound
    count(r) * exp(-pi lam (r - 1/2)^2 + 2 pi |Im z|_1 (g r + g))."""
    total = 0.0
    for r in range(radius + 1, radius + 400):
        count = (2 * r + 1) ** g - (2 * r - 1) ** g
        log_term = -math.pi * lam * (r - 0.5) ** 2 + 2 * math.pi * imz_l1 * (g * r + g)
        term = count * math.exp(max(log_term, -745.0)) if log_term > -745.0 else 0.0
        total += term
        if term < 1e-320 and r > radius + 2:
            break
    return total


def truncation_radius(tau: PeriodMatrix, z: PhasePoint, tol: float = DEFAULT_TOL) -> TruncationSpec:
    """Minimal radius whose certified tail bound falls below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    imz_l1 = float(np.abs(z.z.imag).sum())
    for radius in range(1, 200):
        bound = _tail_bound(tau.g, tau.lambda_min, imz_l1, radius)
        if bound < tol:
            return TruncationSpec(radius, tol, bound)
    raise ValueError("truncation radius exceeds the supported range")


@lru_cache(maxsize=64)
def _lattice(g: int, radius: int) -> np.ndarray:
    ax = np.arange(-radius, radius + 1)
    grid = np.meshgrid(*([ax] * g), indexing="ij")
    return np.stack([a.ravel() for a in grid], axis=1).astype(float)


def _lattice_terms(tau: PeriodMatrix, z: PhasePoint, m: Characteristic, tol: float):
    """The shifted lattice points q = p + m'/2 within the certified radius
    and the terms exp(pi i (q^t tau q + 2 q.(z + m''/2))) of the theta sum."""
    radius = truncation_radius(tau, z, tol).radius
    q = _lattice(tau.g, radius) + np.array(m.mp, float) / 2
    shift = z.z + np.array(m.mpp, float) / 2
    expo = np.einsum("ni,ij,nj->n", q, tau.tau, q) + 2.0 * (q @ shift)
    return q, np.exp(1j * math.pi * expo)


def theta(tau: PeriodMatrix, z: PhasePoint, m: Characteristic, tol: float = DEFAULT_TOL) -> complex:
    """Truncated lattice sum for theta[m'; m''](tau, z).

    Odd characteristics at z = 0 return exact 0 (the +-p terms cancel in
    pairs); everything else carries absolute error below tol.
    """
    if not (tau.g == z.g == m.g):
        raise ValueError("genus mismatch")
    if m.is_odd and z.is_zero:
        return 0.0
    _, terms = _lattice_terms(tau, z, m, tol)
    return complex(terms.sum())


def theta2(tau: PeriodMatrix, z: PhasePoint, eps: str, tol: float = DEFAULT_TOL) -> complex:
    """Second-order theta: Theta[eps](tau, z) = theta[eps; 0](2 tau, 2 z), with
    the top row eps given as a bit string such as "101"."""
    g = tau.g
    if len(eps) != g:
        raise ValueError("eps length does not match genus")
    m = Characteristic.from_bits([int(b) for b in eps], (0,) * g)
    return theta(PeriodMatrix(g, 2 * tau.tau), PhasePoint(g, 2 * z.z), m, tol)


def theta_gradient(tau: PeriodMatrix, m: Characteristic, tol: float = DEFAULT_TOL) -> np.ndarray:
    """grad_z theta_m(tau, z) at z = 0, by term-wise differentiation.

    Only odd characteristics are accepted; the gradient of an even theta
    function vanishes at z = 0 and asking for it is a caller bug.
    """
    if tau.g != m.g:
        raise ValueError("genus mismatch")
    if m.is_even:
        raise ValueError("gradient at z = 0 requires an odd characteristic")
    q, w = _lattice_terms(tau, PhasePoint.zero(tau.g), m, tol)
    return 2j * math.pi * (q * w[:, None]).sum(axis=0)


# One bounded memo for the even constants and the odd gradients at each tau;
# the whole memo is dropped once it holds more than _MEMO_CAP entries.
_MEMO: dict[tuple, object] = {}
_MEMO_CAP = 4096


def _remember(key: tuple, value):
    if len(_MEMO) > _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = value
    return value


def even_theta_constants(tau: PeriodMatrix, tol: float = DEFAULT_TOL) -> dict[int, complex]:
    """All even theta constants at tau, keyed by characteristic index; memoized
    per (tau, tol)."""
    key = tau.cache_key() + (tol,)
    hit = _MEMO.get(key)
    if hit is None:
        z0 = PhasePoint.zero(tau.g)
        hit = _remember(key, {
            m.idx: theta(tau, z0, m, tol)
            for m in enumerate_characteristics(tau.g, "even")
        })
    return hit


def cached_gradient(tau: PeriodMatrix, m: Characteristic, tol: float = DEFAULT_TOL) -> np.ndarray:
    """theta_gradient(tau, m, tol), memoized per (tau, m, tol)."""
    if tau.g != m.g:
        raise ValueError("genus mismatch")
    key = tau.cache_key() + (m.idx, tol)
    hit = _MEMO.get(key)
    if hit is None:
        hit = _remember(key, theta_gradient(tau, m, tol))
    return hit


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
