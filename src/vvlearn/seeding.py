"""Deterministic derivation of child seeds from a base seed.

All nested randomness (per-repetition trainings, per-sample estimates)
uses seeds derived here, so results are reproducible for a fixed base
seed and independent of execution order or worker count.  Derivation is
numpy's SeedSequence hash of the tuple (base, *tags); the algorithm is
documented and fixed, so derived streams are portable across platforms.
"""

from __future__ import annotations

import numpy as np


def derive_seed(base: int, *tags: int) -> int:
    """Collapse a base seed and integer tags into one unsigned 64-bit seed."""
    if base < 0 or any(t < 0 for t in tags):
        raise ValueError("seed components must be nonnegative")
    return int(np.random.SeedSequence([base, *tags]).generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator for the given nonnegative seed."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))
