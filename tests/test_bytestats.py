"""Byte counts by segment: one pass over a file's bytes must give the same
whole-file counts and section entropies as counting each region on its own.
And the one rule by which the env and the detectors count again: the
changed window, the recount over it and the carried :class:`ByteCounts`."""

from __future__ import annotations

import numpy as np
import pytest

from amg import bytestats, pe_model
from amg.bytestats import ByteCounts, changed_window, entropy_of_counts, recount, segment_counts
from amg.detector.features import N_FEATURES_BIGRAM, bigram_buckets
from amg.pe_mods import ActionId, Outcome, apply_action
from amg.rl import observe
from amg.signals import MOTIF_LEN, MOTIFS, count_motif_hits
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
        observe(img, raw[: end - 1], ByteCounts())


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


# ---------------------------------------------------------------------------
# the carried counts: every update equals a full count


def _byte_counts(view: np.ndarray) -> np.ndarray:
    return np.bincount(view, minlength=256)


def _motif_hits(data: bytes) -> np.ndarray:
    return np.array(count_motif_hits(data))


def _bucket_counts(view: np.ndarray) -> np.ndarray:
    return np.bincount(bigram_buckets(view), minlength=N_FEATURES_BIGRAM)


def _edits(seed: int) -> tuple[bytes, list[bytes]]:
    """Random bytes with motifs planted in them, and edits of them that
    break and make motifs at and around each planted one."""
    rng = np.random.default_rng(seed)
    old = bytearray(rng.integers(0, 256, 600, dtype=np.uint8).tobytes())
    spots = [40, 200, 400]
    for at, m in zip(spots, MOTIFS):
        old[at : at + MOTIF_LEN] = m
    old = bytes(old)
    news = []
    for at in spots:
        for k in (-1, 0, 1, MOTIF_LEN - 2, MOTIF_LEN - 1, MOTIF_LEN):
            p = at + k
            news.append(old[:p] + bytes([old[p] ^ 0xFF]) + old[p + 1 :])  # a flip
            news.append(old[:p] + old[p + 1 :])  # a cut
            news.append(old[:p] + MOTIFS[5][:7] + old[p:])  # an insertion
    news.append(old + MOTIFS[6])  # appended
    news.append(old[: spots[-1] + 3])  # cut short inside a motif
    return old, news


@pytest.mark.parametrize("seed", range(3))
def test_recount_equals_a_full_count_for_each_reach(seed):
    """Byte counts (reach 0), bigram buckets (reach 1) and motif hits (reach
    ``MOTIF_LEN - 1``, counted on ``bytes`` slices) counted again over the
    changed window each equal a count of the new bytes, and so do they with no
    window (None), which counts the new bytes in full."""
    old, news = _edits(seed)
    recounted = 0
    for new in news:
        a, b = np.frombuffer(old, dtype=np.uint8), np.frombuffer(new, dtype=np.uint8)
        window = changed_window(a, b)
        if window is None:
            continue
        recounted += 1
        for count, x, y, reach in (
            (_byte_counts, a, b, 0),
            (_bucket_counts, a, b, 1),
            (_motif_hits, old, new, MOTIF_LEN - 1),
        ):
            for given in (window, None):
                assert np.array_equal(recount(count(x), x, y, given, count, reach), count(y))
    assert recounted == len(news)


def _assert_full(carry: ByteCounts, raw: bytes, img: pe_model.PeImage) -> None:
    assert carry.raw is raw
    assert carry.counts.tobytes() == byte_counts(raw).tobytes()
    assert carry.entropies == [shannon_entropy(s.data) for s in img.sections]


def _counted_entropies(monkeypatch) -> list[int]:
    """The lengths of the payloads whose entropy is computed from now on."""
    seen = []
    original = bytestats.entropy_of_counts

    def counting(counts, n):
        seen.append(n)
        return original(counts, n)

    monkeypatch.setattr(bytestats, "entropy_of_counts", counting)
    return seen


def test_byte_counts_carried_through_edits_equal_full_counts(mal_bytes, pool, monkeypatch):
    """One :class:`ByteCounts` carried through an equal payload in a new
    ``bytes`` object, an appended section, an overlay cut and another file
    gives, after each update, the counts and entropies of a full count; a
    section's entropy is computed again only when its payload changed."""
    raw = _with_padding_and_overlay(mal_bytes)
    carry, seen = ByteCounts(), _counted_entropies(monkeypatch)

    img = pe_model.parse(raw)
    assert carry.update(raw, img.raw_parts()) is None  # a new carry counts everything
    _assert_full(carry, raw, img)
    assert len(seen) == len(img.sections)

    # equal payloads in new objects: bytes counted again, no entropy
    copied = img.copy()
    for s, original in zip(copied.sections, img.sections):
        s.data = bytes(bytearray(original.data))
        assert s.data is not original.data or not s.data
    same = bytes(bytearray(raw))
    seen.clear()
    assert carry.update(same, copied.raw_parts()) == (len(raw), 0)
    _assert_full(carry, same, copied)
    assert seen == []

    # a new section: only its entropy is computed
    result = apply_action(copied, ActionId.ADD_NEW_SECTION, pool, seed=0)
    assert result.outcome is Outcome.APPLIED
    grown = pe_model.serialize(result.image)
    seen.clear()
    carry.update(grown, result.image.raw_parts())
    _assert_full(carry, grown, result.image)
    assert seen == [len(result.image.sections[-1].data)]

    # half the overlay cut off: the file's end is the only window
    assert result.image.overlay
    cut = grown[: len(grown) - len(result.image.overlay) // 2]
    cut_img = pe_model.parse(cut)
    seen.clear()
    assert carry.update(cut, cut_img.raw_parts()) == (len(cut), 0)
    _assert_full(carry, cut, cut_img)
    assert seen == []

    # another file with at least as many sections: every payload differs
    other = next(
        r for r in mal_bytes
        if r != raw and len(pe_model.parse(r).sections) >= len(cut_img.sections)
    )
    other_img = pe_model.parse(other)
    carry.update(other, other_img.raw_parts())
    _assert_full(carry, other, other_img)
