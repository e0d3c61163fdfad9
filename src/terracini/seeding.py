"""Deterministic derivation of child generators from one 64-bit run seed.

All randomness in the package flows through ``random.Random`` instances made
here.  Children are derived by hashing the parent seed together with string
tags, so each task draws from its own generator, whatever runs before it,
and a run is reproducible from the single seed in its config.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "derive_rng"]


def derive_seed(seed: int, *tags: object) -> int:
    """Stable 64-bit child seed for (seed, tags).  Not salted, not global."""
    payload = repr((int(seed),) + tuple(str(t) for t in tags)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, *tags: object) -> random.Random:
    """Fresh generator for one task, independent of every sibling task."""
    return random.Random(derive_seed(seed, *tags))
