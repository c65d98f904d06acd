"""Rewrite actions: outcomes, effects, determinism, structural cleanliness."""

from __future__ import annotations

import pytest

from amg import pe_mods, pe_model
from amg.pe_mods import (
    ACTION_COUNT,
    ActionId,
    BenignContentPool,
    DEFAULT_SECTION_NAMES,
    DLL_CATALOG,
    MAX_POOL_BLOBS,
    Outcome,
    TIMESTAMP_STEP,
    action_from_name,
    apply_action,
    build_pool,
)

DIR_IMPORT = 1
DIR_SECURITY = 4
DIR_DEBUG = 6


def _first_with(corpus_files, want_quirk: str, present: bool) -> bytes:
    for f in corpus_files:
        if (want_quirk in f.planted["quirks"]) == present:
            return f.data
    raise AssertionError(f"no file with {want_quirk}={present}")


def test_action_registry_shape():
    assert ACTION_COUNT == 10
    assert [a.value for a in ActionId] == list(range(10))
    assert action_from_name("break_checksum") is ActionId.BREAK_CHECKSUM
    assert action_from_name("APPEND_NEW_IMPORT") is ActionId.APPEND_NEW_IMPORT
    with pytest.raises(ValueError):
        action_from_name("nope")


def test_break_checksum_zeroes_unconditionally(corpus_files, pool):
    raw = _first_with(corpus_files, "checksum", True)
    img = pe_model.parse(raw)
    assert img.optional.checksum != 0
    res = apply_action(img, ActionId.BREAK_CHECKSUM, pool, seed=1)
    assert res.outcome is Outcome.APPLIED
    assert res.image.optional.checksum == 0
    again = apply_action(res.image, ActionId.BREAK_CHECKSUM, pool, seed=2)
    assert again.outcome is Outcome.APPLIED
    assert again.image.optional.checksum == 0


def test_timestamp_actions_step_by_fixed_quantum(mal_bytes, pool):
    img = pe_model.parse(mal_bytes[0])
    before = img.coff.time_date_stamp
    up = apply_action(img, ActionId.INCREASE_TIMESTAMP, pool, seed=0)
    assert up.outcome is Outcome.APPLIED
    assert up.image.coff.time_date_stamp == before + TIMESTAMP_STEP
    down = apply_action(up.image, ActionId.DECREASE_TIMESTAMP, pool, seed=0)
    assert down.image.coff.time_date_stamp == before


def test_append_overlay_grows_tail_only(mal_bytes, pool):
    raw = mal_bytes[0]
    res = apply_action(pe_model.parse(raw), ActionId.APPEND_OVERLAY, pool, seed=5)
    assert res.outcome is Outcome.APPLIED
    out = pe_model.serialize(res.image)
    assert len(out) > len(raw)
    assert out[: len(raw)] == raw


def test_remove_debug_clears_directory(corpus_files, pool):
    raw = _first_with(corpus_files, "debug", True)
    img = pe_model.parse(raw)
    assert img.directory(DIR_DEBUG).rva != 0
    res = apply_action(img, ActionId.REMOVE_DEBUG, pool, seed=0)
    assert res.outcome is Outcome.APPLIED
    assert res.image.directory(DIR_DEBUG).rva == 0
    assert res.image.directory(DIR_DEBUG).size == 0

    clean = _first_with(corpus_files, "debug", False)
    res = apply_action(pe_model.parse(clean), ActionId.REMOVE_DEBUG, pool, seed=0)
    assert res.outcome is Outcome.NOOP


def _debug_image_claiming_a_million_entries(corpus_files):
    img = pe_model.parse(_first_with(corpus_files, "debug", True))
    img.directory(DIR_DEBUG).size = 10**6 * pe_model.DEBUG_DIRECTORY.size
    return img


def test_remove_debug_walks_no_further_than_the_sections_map(corpus_files, pool, monkeypatch):
    """The debug directory's size is an untrusted header field: a size of
    28 million bytes claims a million entries, and a section's virtual size
    of as much maps them all as zeros.  The walk stops where the entries
    end either way, so it looks up a section only a few times."""
    calls = []
    owner = pe_model._owner

    def counting(smap, rva):
        calls.append(rva)
        return owner(smap, rva)

    for stretch_section in (False, True):
        img = _debug_image_claiming_a_million_entries(corpus_files)
        d = img.directory(DIR_DEBUG)
        if stretch_section:
            img.sections[owner(pe_model.section_map(img), d.rva)].virtual_size = d.size
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(pe_model, "_owner", counting)
            res = apply_action(img, ActionId.REMOVE_DEBUG, pool, seed=0)
        assert res.outcome is Outcome.APPLIED
        assert res.image.directory(DIR_DEBUG).size == 0
        assert len(calls) <= 4, stretch_section


def test_remove_debug_zeroes_only_the_walked_entries_and_their_data(corpus_files, pool):
    img = _debug_image_claiming_a_million_entries(corpus_files)
    before = pe_model.serialize(img)
    res = apply_action(img, ActionId.REMOVE_DEBUG, pool, seed=0)
    after = pe_model.serialize(res.image)
    entry = pe_model.DEBUG_DIRECTORY
    table = pe_model.rva_to_offset(img, img.directory(DIR_DEBUG).rva)
    *_, size_of_data, _, pointer = entry.unpack(before[table : table + entry.size])
    assert pointer == table + entry.size  # the data follows the entry, which ends the walk
    walked = {*range(table, table + entry.size), *range(pointer, pointer + size_of_data)}
    changed = {i for i in range(img.headers_end, len(before)) if before[i] != after[i]}
    assert len(after) == len(before)
    assert changed and changed <= walked
    assert all(after[i] == 0 for i in walked)


def test_remove_debug_reads_no_entry_from_an_earlier_entrys_data(corpus_files, pool):
    """The first entry's data follows it, so a size claiming more entries
    would read that data as entries; one whose pointer leads into the import
    section must not zero it."""
    raw = bytearray(_first_with(corpus_files, "debug", True))
    img = pe_model.parse(bytes(raw))
    entry = pe_model.DEBUG_DIRECTORY
    table = pe_model.rva_to_offset(img, img.directory(DIR_DEBUG).rva)
    *_, size_of_data, _, pointer = entry.unpack(raw[table : table + entry.size])
    victim = img.sections[-1].pointer_to_raw_data
    assert pointer == table + entry.size and size_of_data >= entry.size
    assert raw[victim : victim + 16] != bytes(16)
    raw[pointer : pointer + entry.size] = entry.pack(0, 0, 0, 0, 2, 16, 0, victim)
    img = pe_model.parse(bytes(raw))
    img.directory(DIR_DEBUG).size = 10**6 * entry.size
    out = pe_model.serialize(apply_action(img, ActionId.REMOVE_DEBUG, pool, seed=0).image)
    assert out[victim : victim + 16] == raw[victim : victim + 16]


def test_remove_certificate_excises_overlay_resident_table(corpus_files, pool):
    raw = _first_with(corpus_files, "certificate", True)
    img = pe_model.parse(raw)
    d = img.directory(DIR_SECURITY)
    assert d.rva != 0 and d.size != 0
    res = apply_action(img, ActionId.REMOVE_CERTIFICATE, pool, seed=0)
    assert res.outcome is Outcome.APPLIED
    out = pe_model.serialize(res.image)
    assert len(out) == len(raw) - d.size
    cleared = res.image.directory(DIR_SECURITY)
    assert cleared.rva == 0 and cleared.size == 0
    assert raw[d.rva : d.rva + d.size] not in out

    clean = _first_with(corpus_files, "certificate", False)
    res = apply_action(pe_model.parse(clean), ActionId.REMOVE_CERTIFICATE, pool, seed=0)
    assert res.outcome is Outcome.NOOP


def test_rename_section_uses_pool_vocabulary(mal_bytes, pool):
    img = pe_model.parse(mal_bytes[0])
    res = apply_action(img, ActionId.RENAME_SECTION, pool, seed=3)
    assert res.outcome is Outcome.APPLIED
    stripped = {s.name.rstrip(b"\x00") for s in res.image.sections}
    vocab = {n[:8].rstrip(b"\x00") for n in DEFAULT_SECTION_NAMES}
    assert stripped & vocab
    assert all(len(s.name) == 8 for s in res.image.sections)


def test_add_new_section_appends_header_and_data(corpus_files, pool):
    for f in corpus_files:
        if f.planted["slack"] >= 40:
            raw = f.data
            break
    img = pe_model.parse(raw)
    n = len(img.sections)
    res = apply_action(img, ActionId.ADD_NEW_SECTION, pool, seed=4)
    assert res.outcome is Outcome.APPLIED
    assert len(res.image.sections) == n + 1
    out = pe_model.serialize(res.image)
    reparsed = pe_model.parse(out)
    assert len(reparsed.sections) == n + 1


def test_header_slack_governs_failed_outcomes(corpus_files, pool):
    """The two actions that need a fresh 40-byte header slot fail exactly on
    tight files, never on roomy ones."""
    for action in (ActionId.ADD_NEW_SECTION, ActionId.APPEND_NEW_IMPORT):
        for f in corpus_files[:80]:
            img = pe_model.parse(f.data)
            res = apply_action(img, action, pool, seed=9)
            failed = res.outcome is Outcome.FAILED
            assert failed == (f.planted["slack"] < 40), (f.name, action.name)


TOP_VA = 0xFFFFF000
#: 48 DLLs of one function each, whose import table fills 0xA33 bytes.
MANY_DLLS = [(f"LIB{i:02}.dll", ["Func"]) for i in range(48)]


def at_the_top_of_the_address_space(raw: bytes, virtual_size: int = 0xE00, va: int = TOP_VA,
                                    dlls: list | None = None) -> pe_model.PeImage:
    """``raw`` with its last section, which holds the import table and ends
    the raw data, moved to virtual address ``va`` and given ``virtual_size``,
    its import table rewritten there for ``dlls`` (the file's own by default)
    and its raw size grown to hold that table.  Sections align to the file
    alignment, 0x200, so the image stays free of diagnostics; with the
    default address and size its image ends at 0xFFFFFE00, the last
    0x200-aligned end below 2**32."""
    img = pe_model.parse(raw)
    last = img.sections[-1]
    assert img.directory(DIR_IMPORT).rva == last.virtual_address
    assert img.last_raw_end == last.pointer_to_raw_data + last.size_of_raw_data
    if dlls is None:
        dlls = [(d.dll_name, d.function_names) for d in pe_model.parse_imports(img)]
    fa = img.optional.file_alignment
    table = pe_model.pack_import_table(va, dlls, pe_model.pe_format(img.optional.magic).thunk_size, b"")
    last.data = table.ljust(max(last.size_of_raw_data, pe_model.align_up(len(table), fa)), b"\x00")
    last.size_of_raw_data = len(last.data)
    last.virtual_address, last.virtual_size = va, virtual_size
    img.directory(DIR_IMPORT).rva = va
    img.optional.section_alignment = fa
    img.optional.size_of_image = pe_model.align_up(va + virtual_size, fa)
    assert pe_model.check_invariants(img) == []
    assert [d.dll_name for d in pe_model.parse_imports(img)] == [dll for dll, _ in dlls]
    return img


@pytest.mark.parametrize("action", [ActionId.ADD_NEW_SECTION, ActionId.APPEND_NEW_IMPORT],
                         ids=lambda a: a.name.lower())
@pytest.mark.parametrize("guard", ["no-sections", "tight-slack", "unaligned-raw-end",
                                   "top-of-address-space", "content-past-2-to-the-32"])
def test_add_section_guards_hand_back_the_input(corpus_files, pool, action, guard):
    """Both section-adding actions refuse the same five images, with the
    same detail and the input image itself.  Behind the last image an empty
    section fits below 2**32 but neither new section does, and the new
    import table's RVAs would pass 2**32."""
    roomy = guard != "tight-slack"
    raw = next(f.data for f in corpus_files if (f.planted["slack"] >= 40) == roomy)
    img = pe_model.parse(raw)
    if guard == "top-of-address-space":
        img = at_the_top_of_the_address_space(raw)
        want = "no room below 2**32"
    elif guard == "content-past-2-to-the-32":
        img = at_the_top_of_the_address_space(raw, 0x1C00, 0xFFFFE000, MANY_DLLS)
        want = "no room below 2**32"
    elif guard == "no-sections":
        img.sections = []
        want = "image has no sections"
    elif guard == "tight-slack":
        assert img.header_slack < 40
        want = f"header slack {img.header_slack} < 40"
    else:
        last = max((s for s in img.sections if s.has_raw()), key=lambda s: s.pointer_to_raw_data)
        last.size_of_raw_data -= 1
        last.data = last.data[:-1]
        assert img.header_slack >= 40 and img.last_raw_end % img.optional.file_alignment
        want = "no aligned spot for raw data"
    res = apply_action(img, action, pool, seed=0)
    assert (res.outcome, res.detail) == (Outcome.FAILED, want)
    assert res.image is img


@pytest.mark.parametrize("virtual_size, size, asked, outcome", [
    (0xE00, 1, [], Outcome.FAILED),
    (0x800, 0x600, [0xFFFFF800], Outcome.APPLIED),
    (0x800, 0x601, [0xFFFFF800], Outcome.FAILED),
], ids=["no-room-for-an-empty-section", "content-fits", "content-crosses"])
def test_added_section_must_end_below_2_to_the_32(corpus_files, virtual_size, size, asked, outcome):
    """Behind an image that ends at 0xFFFFFE00 not even an empty section
    fits, so no content is built.  Behind one that ends at 0xFFFFF800 an
    empty section fits, and whether the section is added follows the
    length of its content."""
    roomy = next(f.data for f in corpus_files if f.planted["slack"] >= 40)
    img = at_the_top_of_the_address_space(roomy, virtual_size)
    seen = []

    def content(va: int) -> tuple[bytes, bytes, str]:
        seen.append(va)
        return b".big", b"\x01" * size, ""

    res = pe_mods._append_section(img, content, 0x40000040)
    assert seen == asked and res.outcome is outcome
    if outcome is Outcome.FAILED:
        assert res.image is img and res.detail == "no room below 2**32"
    else:
        assert res.image.optional.size_of_image == 0xFFFFFE00
        assert pe_model.check_invariants(pe_model.parse(pe_model.serialize(res.image))) == []


def test_append_new_import_adds_descriptor(corpus_files, pool):
    for f in corpus_files:
        if f.planted["slack"] >= 40:
            raw = f.data
            break
    img = pe_model.parse(raw)
    before = {d.dll_name for d in pe_model.parse_imports(img)}
    res = apply_action(img, ActionId.APPEND_NEW_IMPORT, pool, seed=11)
    assert res.outcome is Outcome.APPLIED
    out = pe_model.serialize(res.image)
    after = {d.dll_name for d in pe_model.parse_imports(pe_model.parse(out))}
    assert before < after
    added = after - before
    assert all(dll in DLL_CATALOG for dll in added)


def test_append_to_section_fills_slack_or_grows_tail(mal_bytes, pool):
    """Two applied branches exist: overwrite the on-disk gap behind a short
    section (size unchanged, bytes change) or grow the raw tail of the
    region-ending section (size grows)."""
    saw_fill = saw_grow = False
    for raw in mal_bytes[:40]:
        img = pe_model.parse(raw)
        res = apply_action(img, ActionId.APPEND_TO_SECTION, pool, seed=2)
        if res.outcome is not Outcome.APPLIED:
            continue
        out = pe_model.serialize(res.image)
        assert len(pe_model.parse(out).sections) == len(img.sections)
        grown = len(out) - len(raw)
        if grown:
            assert grown > 0 and grown % img.optional.file_alignment == 0
            saw_grow = True
        else:
            assert len(out) == len(raw) and out != raw
            saw_fill = True
    assert saw_fill and saw_grow


def test_applied_results_keep_invariants_clean(mal_bytes, pool):
    for action in ActionId:
        for raw in mal_bytes[:12]:
            res = apply_action(pe_model.parse(raw), action, pool, seed=42)
            if res.outcome is Outcome.FAILED:
                continue
            assert pe_model.check_invariants(res.image) == [], action.name
            out = pe_model.serialize(res.image)
            assert pe_model.check_invariants(pe_model.parse(out)) == [], action.name


def test_same_seed_same_bytes(mal_bytes, pool):
    for action in ActionId:
        a = apply_action(pe_model.parse(mal_bytes[2]), action, pool, seed=7)
        b = apply_action(pe_model.parse(mal_bytes[2]), action, pool, seed=7)
        if a.outcome is Outcome.FAILED:
            assert b.outcome is Outcome.FAILED
            continue
        assert pe_model.serialize(a.image) == pe_model.serialize(b.image), action.name


def test_different_seed_changes_appended_content(mal_bytes, pool):
    a = apply_action(pe_model.parse(mal_bytes[3]), ActionId.APPEND_OVERLAY, pool, seed=1)
    b = apply_action(pe_model.parse(mal_bytes[3]), ActionId.APPEND_OVERLAY, pool, seed=2)
    assert pe_model.serialize(a.image) != pe_model.serialize(b.image)


def test_pool_drops_tiny_blobs_and_has_fallback():
    pool = BenignContentPool(blobs=[b"short", b"x" * 64])
    assert pool.blobs == [b"x" * 64]
    empty = BenignContentPool(blobs=[b""])
    assert empty.blobs


def test_build_pool_harvests_benign_content(ben_bytes):
    pool = build_pool(ben_bytes)
    assert pool.blobs
    assert all(len(b) >= 16 for b in pool.blobs)
    assert len(pool.blobs) <= MAX_POOL_BLOBS
