"""Seeded, reproducible sampling of period matrices and phase points.

Every verification check derives its own PCG64 stream from (seed, check name)
so that checks can run in any order, or in parallel, with identical results.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .theta import PeriodMatrix, PhasePoint


def stream(seed: int, name: str) -> np.random.Generator:
    """A named PCG64 substream of the master seed."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag))))


def random_tau(rng: np.random.Generator, g: int) -> PeriodMatrix:
    """tau = X + iY with X symmetric uniform in [-1/2, 1/2] and
    Y = I + W W^t, W uniform in [0, 0.3]; guarantees lambda_min >= 1."""
    x = rng.uniform(-0.5, 0.5, size=(g, g))
    x = (x + x.T) / 2
    w = rng.uniform(0.0, 0.3, size=(g, g))
    y = np.eye(g) + w @ w.T
    return PeriodMatrix(g, x + 1j * y)


def random_z(rng: np.random.Generator, g: int) -> PhasePoint:
    """A phase point with real and imaginary parts uniform in [-1/2, 1/2]."""
    return PhasePoint(g, rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(-0.5, 0.5, g))
