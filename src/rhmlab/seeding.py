"""Deterministic 64-bit seed derivation for experiment fan-out."""

from __future__ import annotations

import hashlib

from .grammar import _check_draw_count


def derive_seed(master: int, index: int, tag: str) -> int:
    """Stateless mix of (master seed, trial index, purpose tag) -> 64-bit seed.

    Uses keyed BLAKE2b so distinct tags and indices give independent streams.
    ``master`` and ``index`` are ints or numpy integers (hashed as ints), not
    bools or floats; ``tag`` is a str.
    """
    if type(master) is not int or type(index) is not int:
        _check_draw_count(master, "master seed")
        _check_draw_count(index, "index")
        master, index = int(master), int(index)
    if not isinstance(tag, str):
        raise ValueError(f"tag must be a str, not {tag!r}")
    if not 0 <= master < 2**64:
        raise ValueError("master seed must fit in 64 bits")
    if not 0 <= index < 2**64:
        raise ValueError("index must fit in 64 bits")
    h = hashlib.blake2b(digest_size=8)
    h.update(master.to_bytes(8, "little"))
    h.update(index.to_bytes(8, "little"))
    h.update(tag.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
