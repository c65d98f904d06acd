"""Hypothesis strategies for damaged copies of saved files and manifests."""

from __future__ import annotations

from hypothesis import strategies as st


@st.composite
def damaged(draw, blob: bytes, head: int) -> bytes:
    """``blob`` with up to three bytes replaced, then maybe cut short.

    Half the replacements land in the first ``head`` bytes, where a format's
    header and lengths live; uniform positions would nearly always hit array
    data, which every value of is a valid float.
    """
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 3))):
        limit = min(head, len(out)) if draw(st.booleans()) else len(out)
        out[draw(st.integers(0, limit - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(out))) :]
    return bytes(out)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
