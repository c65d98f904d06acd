"""Replay of one evaluation record: the original parsed once, each APPLIED
step's action re-applied with its recorded seed, and the result serialized.

A record keeps one ``(action, seed, outcome value)`` per step, and a step
that was a NOOP or FAILED left the image as it was, so the applied steps in
order are a complete account of the bytes an episode ended on.  Nothing in
``amg`` replays a record yet; the tests use this one to show that the
records are that account.
"""

from __future__ import annotations

from amg import pe_model
from amg.pe_mods import BenignContentPool, Outcome, apply_action


def replay(raw: bytes, steps, pool: BenignContentPool) -> bytes:
    img = pe_model.parse(raw)
    for action, seed, outcome in steps:
        if outcome == Outcome.APPLIED.value:
            img = apply_action(img, action, pool, seed).image
    return pe_model.serialize(img)
