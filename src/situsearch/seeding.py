"""Stable seed derivation for reproducible, order-independent runs."""

from __future__ import annotations

import hashlib


def stable_seed(*parts: object) -> int:
    """Platform-stable 64-bit seed from the string forms of the parts.

    Built on a cryptographic digest rather than hash() so results do not
    depend on interpreter hash randomization; adding a new part combination
    never perturbs the seed of any other combination.
    """
    key = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
