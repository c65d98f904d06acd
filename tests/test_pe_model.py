"""Parser/writer contract: strict parsing, lossless reserialization."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import session_data
from amg import pe_model
from amg.pe_model import (
    Diagnostic,
    InvariantViolation,
    NotPe,
    PeError,
    check_invariants,
    parse,
    parse_imports,
    read_virtual,
    rva_to_offset,
    serialize,
    zero_file_range,
)

DIR_SECURITY = 4


def test_round_trip_identity_on_whole_corpus(corpus_files):
    for f in corpus_files:
        assert serialize(parse(f.data)) == f.data, f.name


def test_parse_populates_headers_and_sections(corpus_files):
    f = corpus_files[0]
    img = parse(f.data)
    assert len(img.sections) == f.planted["sections"]
    assert img.optional.magic == 0x10B
    assert img.coff.time_date_stamp == f.planted["timestamp"]
    assert img.header_slack == f.planted["slack"]
    assert img.last_raw_end + len(img.overlay) == len(f.data) == f.planted["size"]
    for s in img.sections:
        assert len(s.data) == s.size_of_raw_data


def test_fresh_corpus_files_have_no_diagnostics(corpus_files):
    for f in corpus_files[:40]:
        assert check_invariants(parse(f.data)) == []


def test_parse_rejects_garbage():
    with pytest.raises(NotPe):
        parse(b"not an executable at all")
    with pytest.raises(PeError):
        parse(b"")


def test_parse_rejects_truncated_file(mal_bytes):
    raw = mal_bytes[0]
    with pytest.raises(PeError):
        parse(raw[: len(raw) // 4])


def test_bad_optional_magic_serializes_but_does_not_reparse(mal_bytes):
    """The writer gate covers layout rules only; a wrong optional-header
    magic survives serialization and then fails strict parsing."""
    img = parse(mal_bytes[0])
    img.optional.magic = 0x999
    data = serialize(img)
    with pytest.raises(NotPe):
        parse(data)
    assert any(d.path == "optional.magic" for d in check_invariants(img))


def _assert_refused_and_reported(img) -> None:
    """The writer refuses the image, and each error it names is one the
    checker reports."""
    with pytest.raises(InvariantViolation) as refused:
        serialize(img)
    reported = {str(d) for d in check_invariants(img) if d.severity == "error"}
    assert set(str(refused.value).split("; ")) <= reported


def test_serialize_gate_rejects_overlapping_raw_ranges(mal_bytes):
    img = parse(mal_bytes[0])
    assert len(img.sections) >= 2
    img.sections[1].pointer_to_raw_data = img.sections[0].pointer_to_raw_data
    _assert_refused_and_reported(img)


def test_serialize_gate_rejects_length_mismatch(mal_bytes):
    img = parse(mal_bytes[0])
    img.sections[0].size_of_raw_data += 1
    _assert_refused_and_reported(img)


def test_serialize_gate_rejects_growth_into_padding_or_neighbors(mal_bytes):
    img = parse(mal_bytes[0])
    sec = img.sections[0]
    sec.data = sec.data + b"\x00" * 0x200
    sec.size_of_raw_data += 0x200
    _assert_refused_and_reported(img)


def test_serialize_gate_rejects_a_padding_span_inside_the_headers(mal_bytes):
    img = parse(mal_bytes[0])
    img.padding_spans.insert(0, (img.headers_end - 4, b"\xcc" * 4))
    _assert_refused_and_reported(img)


def test_serialize_gate_rejects_a_padding_span_past_the_last_raw_end(mal_bytes):
    img = parse(mal_bytes[0])
    img.padding_spans.append((img.last_raw_end, b"\xcc" * 4))
    _assert_refused_and_reported(img)


def _stated_counts(data: bytes) -> tuple[int, int, int, int]:
    """``e_lfanew``, the section count, the optional header's size and the
    directory count, as the file states them."""
    e_lfanew = int.from_bytes(data[0x3C:0x40], "little")
    _, n_sections, _, _, _, opt_size, _ = pe_model.COFF_HEADER.unpack_from(data, e_lfanew + 4)
    opt_off = e_lfanew + 4 + pe_model.COFF_HEADER_SIZE
    fixed = pe_model.PE_FORMATS[int.from_bytes(data[opt_off : opt_off + 2], "little")].optional_fixed
    return e_lfanew, n_sections, opt_size, fixed.unpack_from(data, opt_off)[-1]


def _with_header_padding(mal_bytes, at_least: int):
    """The first malicious file whose first padding span starts at the end
    of the headers and holds more than ``at_least`` bytes, and its image."""
    for raw in mal_bytes:
        img = parse(raw)
        if img.padding_spans and img.padding_spans[0][0] == img.headers_end:
            if len(img.padding_spans[0][1]) > at_least:
                return raw, img
    raise AssertionError("no file with enough header padding")


def _shift_first_padding(img, n: int) -> None:
    """Give the first ``n`` bytes of the padding behind the headers to the headers."""
    off, blob = img.padding_spans[0]
    img.padding_spans[0] = (off + n, blob[n:])


def test_serialize_gate_counts_the_optional_header_trailing_bytes(mal_bytes):
    """Trailing bytes lengthen the optional header: 8 more cover the start of
    the padding behind the table, and with that padding 8 bytes shorter they
    serialize under a size 8 higher."""
    raw, img = _with_header_padding(mal_bytes, 8)
    img.optional.trailing += b"\xcc" * 8
    _assert_refused_and_reported(img)
    assert [d.path for d in check_invariants(img) if d.severity == "error"] == ["padding_spans"]
    _shift_first_padding(img, 8)
    data = serialize(img)
    assert parse(data) == img
    e_lfanew, n_sections, opt_size, n_dirs = _stated_counts(raw)
    assert _stated_counts(data) == (e_lfanew, n_sections, opt_size + 8, n_dirs)


def test_section_appended_with_no_bookkeeping_reparses_with_one_more(mal_bytes):
    """The section count is the section list's length: a header appended to
    the list, with 40 bytes taken off the padding behind the table, is
    written and counted with no other edit."""
    raw, img = _with_header_padding(mal_bytes, 40)
    top = max(s.virtual_address + s.virtual_size for s in img.sections)
    img.sections.append(pe_model.Section(b".new".ljust(8, b"\x00"), 0x100, pe_model.align_up(top, 0x1000),
                                         0, 0, bytes(12), 0xC0000080, b""))
    _shift_first_padding(img, 40)
    data = serialize(img)
    assert len(data) == len(raw)
    reparsed = parse(data)
    assert len(reparsed.sections) == len(parse(raw).sections) + 1
    assert reparsed == img
    e_lfanew, n_sections, opt_size, n_dirs = _stated_counts(raw)
    assert _stated_counts(data) == (e_lfanew, n_sections + 1, opt_size, n_dirs)


def test_dos_stub_grown_with_no_bookkeeping_moves_e_lfanew(mal_bytes):
    """``e_lfanew`` follows the DOS stub: 8 more stub bytes, with 8 bytes
    taken off the padding behind the table, move every header 8 bytes on."""
    raw, img = _with_header_padding(mal_bytes, 8)
    img.dos_stub += b"\xcc" * 8
    _shift_first_padding(img, 8)
    data = serialize(img)
    assert len(data) == len(raw)
    assert parse(data) == img
    e_lfanew, n_sections, opt_size, n_dirs = _stated_counts(raw)
    assert _stated_counts(data) == (e_lfanew + 8, n_sections, opt_size, n_dirs)


def test_serialize_gate_rejects_section_name_width(mal_bytes):
    img = parse(mal_bytes[0])
    img.sections[0].name = b".text"
    _assert_refused_and_reported(img)
    assert any(d.path == "sections[0].name" for d in check_invariants(img))


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize(
    "header, run",
    [("optional", f"run_{c}") for c in "abcde"] + [pytest.param("", "dos_reserved", id="dos_reserved")],
)
def test_serialize_gate_rejects_byte_run_width(mal_bytes, header, run, delta):
    """The header structs would pad or cut a run of the wrong width, so the
    gate must catch it before they do."""
    img = parse(mal_bytes[0])
    part = getattr(img, header) if header else img
    blob = getattr(part, run)
    setattr(part, run, blob[:-1] if delta < 0 else blob + b"\x00")
    _assert_refused_and_reported(img)


@pytest.mark.parametrize(
    "magic, run_e_width, errors",
    [(pe_model.PE32PLUS_MAGIC, 24, ["optional.run_e"]),
     # the 16 bytes wider header now covers the start of the padding behind the table
     (pe_model.PE32_MAGIC, 40, ["optional.run_e", "padding_spans"])],
    ids=["pe32plus-magic-over-pe32", "pe32-magic-over-pe32plus"],
)
def test_serialize_gate_rejects_a_magic_that_disagrees_with_run_e(mal_bytes, magic, run_e_width, errors):
    """Parse reads ``run_e`` at the width the magic names, so a header of the
    other width would serialize to bytes that do not parse again."""
    img = parse(mal_bytes[0])
    img.optional.magic = magic
    img.optional.run_e = bytes(run_e_width)
    _assert_refused_and_reported(img)
    assert [d.path for d in check_invariants(img) if d.severity == "error"] == errors


def test_header_structs_have_the_pe_sizes():
    assert pe_model.DOS_HEADER.size == pe_model.DOS_HEADER_SIZE == 64
    assert pe_model.COFF_HEADER.size == pe_model.COFF_HEADER_SIZE == 20
    assert pe_model.SECTION_HEADER.size == pe_model.SECTION_HEADER_SIZE == 40
    formats = pe_model.PE_FORMATS
    assert formats[pe_model.PE32_MAGIC].optional_fixed.size == 0x60
    assert formats[pe_model.PE32PLUS_MAGIC].optional_fixed.size == 0x70


def test_misalignment_serializes_but_reports_error_diagnostic(mal_bytes):
    """Alignment breakage is representable: the writer emits it byte-exactly
    and the invariant checker flags it as an error."""
    raw = mal_bytes[0]
    img = parse(raw)
    last = max(
        (i for i, s in enumerate(img.sections) if s.has_raw()),
        key=lambda i: img.sections[i].pointer_to_raw_data,
    )
    sec = img.sections[last]
    sec.data = sec.data + b"x"
    sec.size_of_raw_data += 1
    data = serialize(img)
    assert len(data) == len(raw) + 1
    diags = check_invariants(parse(data))
    assert any(d.severity == "error" and "size_of_raw_data" in d.path for d in diags)


def test_check_invariants_reports_directory_rule(mal_bytes):
    img = parse(mal_bytes[0])
    img.optional.data_directories[7].rva = 0
    img.optional.data_directories[7].size = 99
    diags = check_invariants(img)
    assert any(d.severity == "warning" and "data_directories[7]" in d.path for d in diags)


def test_check_invariants_reports_a_size_of_image_past_2_to_the_32(mal_bytes):
    """A field too wide for its struct is reported, not raised: as the
    header writer's error, and as a size_of_image that does not match the
    sections."""
    img = parse(mal_bytes[0])
    img.optional.size_of_image += 2**32
    assert [(d.severity, d.path) for d in check_invariants(img)] == [
        ("error", "headers"), ("warning", "optional.size_of_image")]
    _assert_refused_and_reported(img)


@pytest.mark.parametrize("edit", [
    lambda img: setattr(img.optional, "checksum", 2**32),
    lambda img: setattr(img.coff, "time_date_stamp", -1),
    lambda img: setattr(img.optional.data_directories[DIR_SECURITY], "rva", 2**32),
], ids=["checksum", "time_date_stamp", "directory_rva"])
def test_a_header_integer_too_wide_for_its_field_is_reported_and_refused(mal_bytes, edit):
    img = parse(mal_bytes[0])
    edit(img)
    assert [(d.severity, d.path) for d in check_invariants(img)] == [("error", "headers")]
    _assert_refused_and_reported(img)


def _header_integers(img) -> list[tuple[object, str]]:
    """(header object, field name) for every integer the COFF and optional
    headers, the data directories and the section headers hold."""
    objects = [img.coff, img.optional, *img.optional.data_directories, *img.sections]
    return [(o, f.name) for o in objects for f in dataclasses.fields(o) if type(getattr(o, f.name)) is int]


@settings(max_examples=80, deadline=None)
@given(pick=st.integers(0, 10**9), which=st.integers(0, 10**9),
       value=st.sampled_from([-1, 2**16, 2**32, 2**64]))
def test_property_a_header_integer_out_of_range_is_refused_or_written(pick, which, value):
    """Any header integer set to a value that may not fit its field either
    serializes or is refused with errors the checker reports; a value no
    field holds is always refused."""
    mal_bytes = session_data.mal_bytes()
    img = parse(mal_bytes[pick % len(mal_bytes)])
    fields = _header_integers(img)
    obj, name = fields[which % len(fields)]
    setattr(obj, name, value)
    try:
        serialize(img)
    except InvariantViolation as refused:
        reported = {str(d) for d in check_invariants(img) if d.severity == "error"}
        assert set(str(refused).split("; ")) <= reported
    else:
        assert value in (2**16, 2**32)


def test_overlay_grown_with_no_bookkeeping_serializes_to_raw_plus_tail(ben_bytes):
    img = parse(ben_bytes[0])
    grown = img.copy()
    grown.overlay = grown.overlay + b"TAIL"
    data = serialize(grown)
    assert data == ben_bytes[0] + b"TAIL"
    reparsed = parse(data)
    assert reparsed.overlay == img.overlay + b"TAIL"


def test_copy_is_deep_enough_for_rewrites(mal_bytes):
    img = parse(mal_bytes[0])
    dup = img.copy()
    dup.coff.time_date_stamp += 1
    dup.sections[0].data = b"\x00" * len(dup.sections[0].data)
    dup.optional.data_directories[DIR_SECURITY].rva += 0x10
    dup.padding_spans.append((0, b"\xff"))
    dup.optional.checksum ^= 0xFFFF
    dup.sections[0].characteristics ^= 0x1
    assert parse(mal_bytes[0]).coff.time_date_stamp == img.coff.time_date_stamp
    assert serialize(img) == mal_bytes[0]


def _other(value):
    """A value of the same type that differs from ``value``."""
    return value + (b"\x01" if isinstance(value, bytes) else 1)


def test_copy_builds_new_headers_and_shares_only_payloads(mal_bytes):
    raw = next(raw for raw in mal_bytes if parse(raw).padding_spans and parse(raw).overlay)
    img = parse(raw)
    dup = img.copy()
    assert dup == img
    objects = [(dup.coff, img.coff), (dup.optional, img.optional)]
    objects += zip(dup.optional.data_directories, img.optional.data_directories)
    objects += zip(dup.sections, img.sections)
    assert len(objects) == 2 + len(img.optional.data_directories) + len(img.sections)
    for new, old in objects:
        assert new is not old and type(new) is type(old)
    for lists in (("sections",), ("padding_spans",), ("optional", "data_directories")):
        new, old = dup, img
        for name in lists:
            new, old = getattr(new, name), getattr(old, name)
        assert new is not old
    assert all(a.data is b.data for a, b in zip(dup.sections, img.sections))
    assert (dup.dos_reserved, dup.dos_stub, dup.overlay) == (img.dos_reserved, img.dos_stub, img.overlay)
    assert dup.dos_reserved is img.dos_reserved
    assert dup.dos_stub is img.dos_stub and dup.overlay is img.overlay
    # every field of every copied object, lists in place, leaves the original as parsed
    for obj in [o for o, _ in objects] + [dup]:
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, list):
                value.append(None)
            elif not dataclasses.is_dataclass(value):
                setattr(obj, f.name, _other(value))
    assert img == parse(raw)
    assert serialize(img) == raw


def test_rva_to_offset_and_read_virtual(mal_bytes):
    img = parse(mal_bytes[0])
    s = img.sections[0]
    off = rva_to_offset(img, s.virtual_address)
    assert off == s.pointer_to_raw_data
    assert read_virtual(img, s.virtual_address, 8) == s.data[:8]
    assert rva_to_offset(img, 0xFFFF_FF00) is None
    assert rva_to_offset(img, 0) is None  # the headers belong to no section


def test_entry_section_follows_the_mapping_rule(mal_bytes):
    """The entry point's section is the one that serves its RVA: a section
    with no bytes on disk spans its virtual size alone, whatever raw size it
    claims, and an empty section serves nothing."""
    img = parse(mal_bytes[0])
    img.sections = [
        pe_model.Section(b".bss".ljust(8, b"\x00"), 0x100, 0x1000, 0x400, 0, bytes(12), 0, b""),
        pe_model.Section(b".empty".ljust(8, b"\x00"), 0, 0x2000, 0, 0, bytes(12), 0, b""),
        pe_model.Section(b".text".ljust(8, b"\x00"), 0x200, 0x1200, 0x200, 0x400, bytes(12), 0,
                         bytes(0x200)),
    ]
    for aep, index in [(0x1000, 0), (0x10FF, 0), (0x1100, None), (0x1300, 2), (0x2000, None)]:
        img.optional.address_of_entry_point = aep
        assert img.entry_section_index() == index, hex(aep)


def test_parse_imports_lists_dlls(corpus_files):
    for f in corpus_files[:20]:
        img = parse(f.data)
        descs = parse_imports(img)
        assert descs, f.name
        for d in descs:
            assert d.dll_name.lower().endswith(".dll")
            assert d.function_names
            assert d.ilt_rva and d.iat_rva


def test_zero_file_range_zeroes_across_regions(mal_bytes):
    raw = mal_bytes[0]
    img = parse(raw)
    s = img.sections[0]
    start = s.pointer_to_raw_data + 4
    changed = zero_file_range(img, start, 16)
    assert changed == 16
    out = serialize(img)
    assert out[start : start + 16] == b"\x00" * 16
    assert out[:start] == raw[:start]
    assert out[start + 16 :] == raw[start + 16 :]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(tail=st.binary(min_size=1, max_size=300), pick=st.integers(0, 10**9))
def test_property_appended_tail_round_trips(tail, pick):
    corpus_files = session_data.corpus_files()
    raw = corpus_files[pick % len(corpus_files)].data
    grown = raw + tail
    img = parse(grown)
    assert img.overlay.endswith(tail)
    assert serialize(img) == grown


@settings(max_examples=120, deadline=None)
@given(pos=st.integers(0, 10**9), value=st.integers(0, 255), pick=st.integers(0, 10**9))
def test_property_byte_flip_parses_losslessly_or_raises(pos, value, pick):
    """Strict-but-lossless: whatever still parses must reserialize identically."""
    corpus_files = session_data.corpus_files()
    raw = bytearray(corpus_files[pick % len(corpus_files)].data)
    raw[pos % len(raw)] = value
    raw = bytes(raw)
    try:
        img = parse(raw)
    except PeError:
        return
    assert serialize(img) == raw


def test_diagnostic_str_is_readable():
    d = Diagnostic("warning", "sections[1].virtual_address", "out of order")
    assert str(d) == "warning sections[1].virtual_address: out of order"
