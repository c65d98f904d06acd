"""Byte counts by segment: one pass over a file's bytes must give the same
whole-file counts and section entropies as counting each region on its own.
And the one window rule by which the env and the detectors count again."""

from __future__ import annotations

import numpy as np
import pytest

from amg import pe_model
from amg.bytestats import changed_window, entropy_of_counts, segment_counts
from amg.rl import observe
from bytestats_reference import byte_counts, shannon_entropy


def _assert_segments_agree(raw: bytes, parts: list[tuple[int | None, bytes]]) -> None:
    total, each = segment_counts(raw, parts)
    assert total.dtype == np.float64
    assert total.tobytes() == byte_counts(raw).tobytes()
    assert len(each) == len(parts)
    for (_, data), counts in zip(parts, each):
        assert np.array_equal(counts, byte_counts(data))
        assert entropy_of_counts(counts, len(data)) == shannon_entropy(data)


def _with_padding_and_overlay(files: list[bytes]) -> bytes:
    for raw in files:
        img = pe_model.parse(raw)
        if img.padding_spans and img.overlay and len(img.sections) >= 4:
            return raw
    raise AssertionError("no corpus file has padding, an overlay and four sections")


def _edited(raw: bytes, edit) -> tuple[bytes, pe_model.PeImage]:
    img = pe_model.parse(raw).copy()
    edit(img)
    return pe_model.serialize(img), img


def _reverse_table(img):
    img.sections.reverse()


def _drop_raw_pointer(img):
    img.sections[2].pointer_to_raw_data = 0  # its bytes stay in the image, not in the file


def _grow_overlay(img):
    img.overlay += b"\xfe\x00TAIL" * 300
    img.source_len += 6 * 300


@pytest.mark.parametrize(
    "edit",
    [lambda img: None, _reverse_table, _drop_raw_pointer, _grow_overlay],
    ids=["as-parsed", "sections-out-of-file-order", "zero-raw-pointer", "overlay"],
)
def test_segment_counts_match_whole_counts_on_edited_images(mal_bytes, edit):
    out, img = _edited(_with_padding_and_overlay(mal_bytes), edit)
    assert img.padding_spans
    _assert_segments_agree(out, img.raw_parts())


def test_zero_raw_pointer_part_is_outside_the_file(mal_bytes):
    _, img = _edited(_with_padding_and_overlay(mal_bytes), _drop_raw_pointer)
    parts = img.raw_parts()
    assert parts[2][0] is None and parts[2][1]
    assert parts[1][0] is not None


def test_segment_counts_on_hand_built_parts():
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
    cases = [
        [],
        [(0, raw)],
        [(600, raw[600:700]), (100, raw[100:250])],  # out of order, with gaps and a tail
        [(250, b""), (250, raw[250:400]), (None, b"\x00\x01\x01"), (400, raw[400:1000])],
        [(None, b"")],
    ]
    for parts in cases:
        _assert_segments_agree(raw, parts)
    assert segment_counts(b"", [])[0].tobytes() == byte_counts(b"").tobytes()


@pytest.mark.parametrize(
    "parts",
    [[(990, b"\x00" * 11)], [(100, b"\x00" * 50), (120, b"\x00" * 10)]],
    ids=["past-the-end", "overlapping"],
)
def test_segment_counts_rejects_parts_that_are_not_slices(parts):
    with pytest.raises(ValueError, match="overlaps another or runs past"):
        segment_counts(bytes(1000), parts)


def test_observe_rejects_bytes_too_short_for_the_image(mal_bytes):
    raw = mal_bytes[0]
    img = pe_model.parse(raw)
    end = max(offset + len(data) for offset, data in img.raw_parts() if offset is not None)
    with pytest.raises(ValueError):
        observe(img, raw[: end - 1])


def _window(old: bytes, new: bytes):
    return changed_window(np.frombuffer(old, dtype=np.uint8), np.frombuffer(new, dtype=np.uint8))


@pytest.mark.parametrize(
    "old, new, window",
    [
        (b"abcdefgh", b"abcXefgh", (3, 4)),
        (b"abcdefgh", b"abcdefghij", (8, 0)),  # appended
        (b"abcdefgh", b"abcdef", (6, 0)),  # cut short
        (b"abcdefgh", b"abcdefgh", (8, 0)),  # nothing changed: an empty window
        (b"abcdefgh", b"Xbcdefgh", (0, 7)),
        (b"aaaaaaaa", b"aaaaaaaaa", (8, 0)),  # the suffix stops where the prefix ends
        (b"abababab", b"abababXab", (6, 2)),
        (b"abcdefgh", b"abcd", None),  # windows of 4 and 0 bytes, as long as new
        (b"", b"abc", None),  # nothing counted before: count from scratch
        (b"abc", b"", None),
        (b"abcdefgh", b"XXXXefgh", None),  # windows of 4 and 4 bytes, as long as new
        (b"abcdefgh", b"aXXXXXXh", None),
        (b"abcdefgh", b"aXXXefgh", (1, 4)),  # windows of 3 and 3 bytes
    ],
)
def test_changed_window(old, new, window):
    assert _window(old, new) == window
    if window is not None:
        head, tail = window
        assert old[:head] == new[:head] and old[len(old) - tail :] == new[len(new) - tail :]
        assert head + tail <= min(len(old), len(new))


def _naive_window(old: bytes, new: bytes) -> tuple[int, int]:
    n = min(len(old), len(new))
    head = next((i for i in range(n) if old[i] != new[i]), n)
    tail = next((i for i in range(n - head) if old[-1 - i] != new[-1 - i]), n - head)
    return head, tail


@pytest.mark.parametrize("at", [0, 1, 4095, 4096, 4097, 20479, 20480, 20481, 30000, 49999])
def test_changed_window_finds_a_change_anywhere(at):
    """Long files are compared in runs; a change at any run edge is found."""
    old = np.random.default_rng(at).integers(0, 256, 50_000, dtype=np.uint8).tobytes()
    flipped = old[:at] + bytes([old[at] ^ 1]) + old[at + 1 :]
    cut = old[:at] + old[at + 7 :]
    grown = old[:at] + b"\x00" * 9 + old[at:]
    for new in (flipped, cut, grown):
        head, tail = _naive_window(old, new)
        window = _window(old, new)
        assert window == (None if len(old) + len(new) - 2 * (head + tail) >= len(new) else (head, tail))
        assert _window(new, old) in (None, (head, tail))
