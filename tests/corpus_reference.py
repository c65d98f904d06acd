"""Reference fillers: one ``choice``/``randrange``/``shuffle`` call per word,
byte or swap.

These are the fillers ``corpus`` used before it drew straight from
``getrandbits``, kept verbatim as the oracle the inline draws must agree with:
the same seed must give the same bytes and leave the same rng state.
"""

from __future__ import annotations

import random

from amg.corpus import _CODE_BYTES, _WORDS


def _text_filler(rng: random.Random, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        out += rng.choice(_WORDS)
        out += b" " if rng.random() < 0.8 else b"\r\n"
        if rng.random() < 0.05:
            out += b"\x00" * rng.randrange(2, 12)
    return bytes(out[:n])


def _code_filler(rng: random.Random, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        out += _CODE_BYTES
        out += bytes(rng.randrange(256) for _ in range(4))
        if rng.random() < 0.1:
            out += b"\x00" * rng.randrange(4, 16)
    return bytes(out[:n])


def _mixed_filler(rng: random.Random, n: int, scramble_frac: float) -> bytes:
    """Text filler with a fraction of its 256-byte blocks byte-shuffled.

    Shuffling never changes single-byte statistics, so histogram summaries
    cannot tell scrambled from natural blocks; only pairwise structure
    differs, which is what the bigram classifier keys on.  The fraction sets
    how far from the natural-text profile the section starts, and appending
    natural content walks it back proportionally.
    """
    buf = bytearray(_text_filler(rng, n))
    if scramble_frac > 0.0:
        for start in range(0, len(buf), 256):
            if rng.random() < scramble_frac:
                block = bytearray(buf[start : start + 256])
                rng.shuffle(block)
                buf[start : start + 256] = block
    return bytes(buf)


def _hot_patch(rng: random.Random, content: bytearray, lo: float, hi: float) -> None:
    """Overwrite one contiguous run with bytes from 0xA0..0xBF."""
    if len(content) < 128:
        return
    span = int(len(content) * rng.uniform(lo, hi))
    span = min(span, len(content) - 1)
    start = rng.randrange(0, len(content) - span)
    content[start : start + span] = bytes(
        0xA0 + rng.randrange(0x20) for _ in range(span)
    )
