"""Splittable deterministic seeding.

Every stochastic component in the package takes an explicit integer seed;
no public function or method defaults one, so a forgotten seed is an error.
A single root seed fans out into independent per-task seeds by hashing the
root together with a path of string/int tags, so runs are reproducible no
matter whether stages execute sequentially or in parallel.
"""

from __future__ import annotations

import hashlib
import struct

_MASK64 = (1 << 64) - 1


def fanout(seed: int, *parts: int | str) -> int:
    """Derive a child seed from ``seed`` and a tag path.

    Children with distinct tag paths are independent; the same path always
    yields the same child. The result is a non-negative 64-bit integer.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<Q", seed & _MASK64))
    for part in parts:
        if isinstance(part, int):
            h.update(b"i")
            h.update(struct.pack("<q", part))
        else:
            raw = part.encode("utf-8")
            h.update(b"s")
            h.update(struct.pack("<I", len(raw)))
            h.update(raw)
    return int.from_bytes(h.digest()[:8], "little")
