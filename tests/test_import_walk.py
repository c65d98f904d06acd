"""The slice-reading import walk against the per-entry reference walk.

``parse_imports`` and the import-table part of ``check_invariants`` must give
exactly what :mod:`import_walk_reference` gives: on every corpus file, on
corpus files with bytes flipped where the walk reads, and on hand-built
images at the edges of the mapping rule. ``import_descriptors``, which the
observation counts with, must count one descriptor per parsed import.
"""

from __future__ import annotations

import string
import struct
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

import import_walk_reference as ref
import session_data
from amg.pe_model import (
    DIR_IMPORT,
    PE32_MAGIC,
    PE32PLUS_MAGIC,
    PE_FORMATS,
    DataDirectory,
    ImportDescriptor,
    PeError,
    Section,
    check_invariants,
    import_descriptors,
    pack_import_table,
    parse,
    parse_imports,
    read_table,
    rva_to_offset,
    section_map,
)


def assert_walks_agree(img) -> None:
    assert parse_imports(img) == ref.parse_imports(img)
    assert len(import_descriptors(img, section_map(img))[0]) == len(parse_imports(img))
    got = check_invariants(img)
    others = [d for d in got if not d.path.startswith("imports")]
    assert got == others + ref.import_table_diagnostics(img)


def test_corpus_walks_agree(corpus_files):
    for f in corpus_files:
        assert_walks_agree(parse(f.data))


# ---------------------------------------------------------------------------
# byte flips where the walk reads


def _walk_offsets(raw: bytes) -> list[int]:
    """File offsets of the section headers' VA/size/pointer fields, the
    descriptor table, both thunk tables of each descriptor and every name."""
    img = parse(raw)
    table = img.headers_end - 40 * len(img.sections)
    offsets = {table + 40 * i + k for i in range(len(img.sections)) for k in range(8, 24)}

    def cover(rva: int, n: int) -> None:
        off = rva_to_offset(img, rva)
        if off is not None:
            offsets.update(range(off, min(off + n, len(raw))))

    d = img.directory(DIR_IMPORT)
    n_desc = len(ref.parse_imports(img))
    cover(d.rva, 20 * (n_desc + 1))
    for i in range(n_desc):
        ilt, _, _, name, iat = struct.unpack("<5I", ref.read_virtual(img, d.rva + 20 * i, 20))
        cover(name, 16)
        for rva in (ilt, iat):
            thunks = ref.read_thunks_raw(img, rva, 4) or []
            cover(rva, 4 * (len(thunks) + 1))
            for value in thunks:
                cover(value, 2 + 16)
    return sorted(offsets)


@cache
def _flip_sites() -> list[tuple[bytes, list[int]]]:
    files = session_data.mal_bytes()[:16] + session_data.ben_bytes()[:8]
    return [(raw, _walk_offsets(raw)) for raw in files]


@settings(max_examples=200, deadline=None)
@given(
    pick=st.integers(0, 10**9),
    flips=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), min_size=1, max_size=6),
)
def test_byte_flipped_walks_agree(pick, flips):
    flip_sites = _flip_sites()
    raw, sites = flip_sites[pick % len(flip_sites)]
    buf = bytearray(raw)
    for where, value in flips:
        buf[sites[where % len(sites)]] = value
    try:
        img = parse(bytes(buf))
    except PeError:
        return
    assert_walks_agree(img)


# ---------------------------------------------------------------------------
# hand-built images


def image_with(base: bytes, sections, import_rva: int, magic: int = PE32_MAGIC):
    """A corpus image whose sections are (virtual address, virtual size, data)
    triples in table order and whose import directory points at ``import_rva``."""
    img = parse(base)
    img.optional.magic = magic
    img.sections = [
        Section(f".s{i}".encode().ljust(8, b"\x00"), vs, va, len(data),
                0x1000 * (i + 1) if data else 0, bytes(12), 0, data)
        for i, (va, vs, data) in enumerate(sections)
    ]
    img.optional.data_directories[DIR_IMPORT] = DataDirectory(import_rva, 40)
    return img


NAMES = [b"Alpha", b"Beta", b"Gamma"]


def continued_table(es: int) -> tuple[bytes, bytes]:
    """Data of two sections at 0x1000 and 0x1100: one descriptor whose thunk
    table fills the first section's last ``2 * es`` bytes and ends in the second."""
    hints = [0x1110 + 0x10 * i for i in range(len(NAMES))]
    table = 0x1100 - 2 * es
    first, second = bytearray(0x100), bytearray(0x100)
    first[0:20] = struct.pack("<5I", table, 0, 0, 0x1030, table)
    first[0x30:0x38] = b"k32.dll\x00"
    for k in range(2):
        at = table - 0x1000 + k * es
        first[at : at + es] = hints[k].to_bytes(es, "little")
    second[0:es] = hints[2].to_bytes(es, "little")
    for rva, name in zip(hints, NAMES):
        at = rva - 0x1100 + 2
        second[at : at + len(name)] = name
    return bytes(first), bytes(second)


@pytest.mark.parametrize(
    "magic, es", [(PE32_MAGIC, 4), (PE32PLUS_MAGIC, 8)], ids=["pe32", "pe32plus"]
)
def test_thunk_table_continues_into_the_adjacent_section(mal_bytes, magic, es):
    first, second = continued_table(es)
    img = image_with(mal_bytes[0], [(0x1000, 0x100, first), (0x1100, 0x100, second)], 0x1000, magic)
    table = 0x1100 - 2 * es
    assert parse_imports(img) == [
        ImportDescriptor("k32.dll", table, table, [n.decode() for n in NAMES])
    ]
    assert not [d for d in check_invariants(img) if d.path.startswith("imports")]
    assert_walks_agree(img)


def test_earlier_section_takes_over_inside_a_later_one(mal_bytes):
    first, second = continued_table(4)
    # The later section spans 0x1000..0x1200, but the earlier one serves 0x1100 on.
    shadowed = first + b"\xAA" * 0x100
    img = image_with(mal_bytes[0], [(0x1100, 0x100, second), (0x1000, 0x200, shadowed)], 0x1000)
    assert parse_imports(img)[0].function_names == [n.decode() for n in NAMES]
    assert_walks_agree(img)


def test_names_near_the_end_of_their_section(mal_bytes):
    data = bytearray(0x100)
    # DLL name 10 bytes before the end: read through the 10 mapped bytes.
    data[0:20] = struct.pack("<5I", 0x1040, 0, 0, 0x10F6, 0x1040)
    data[0x40:0x48] = struct.pack("<II", 0x10D4, 0)
    # Function name with 42 mappable bytes: read whole.
    data[0xD6:0xEC] = b"ThisNameIsLongerThan16"
    data[0xF6:0x100] = b"tail.dll\x00\x00"
    img = image_with(mal_bytes[0], [(0x1000, 0x100, bytes(data))], 0x1000)
    assert parse_imports(img) == [
        ImportDescriptor("tail.dll", 0x1040, 0x1040, ["ThisNameIsLongerThan16"])
    ]
    assert_walks_agree(img)


def test_descriptor_table_without_a_zero_terminator(mal_bytes):
    blob = struct.pack("<5I", 0, 0, 0, 0x1000 + 20 * 600, 0) * 600 + b"x.dll\x00"
    img = image_with(mal_bytes[0], [(0x1000, len(blob), blob)], 0x1000)
    assert len(parse_imports(img)) == 512
    assert str(check_invariants(img)[-1]) == (
        "warning imports: descriptor table lacks a zero terminator"
    )
    assert_walks_agree(img)
    # The same table cut short runs off its section instead.
    img = image_with(mal_bytes[0], [(0x1000, 20 * 3, blob[: 20 * 3])], 0x1000)
    assert len(parse_imports(img)) == 3
    assert str(check_invariants(img)[-1]) == "warning imports: descriptor table is not mappable"
    assert_walks_agree(img)


def test_descriptor_pointing_outside_every_section(mal_bytes):
    data = struct.pack("<5I", 0x90000, 0, 0, 0x90010, 0x90000) + bytes(0xEC)
    img = image_with(mal_bytes[0], [(0x1000, 0x100, data)], 0x1000)
    assert parse_imports(img) == [ImportDescriptor("rva:0x90010", 0x90000, 0x90000, [])]
    assert str(check_invariants(img)[-1]) == "warning imports[0]: thunk tables are not mappable"
    assert_walks_agree(img)
    # A directory outside every section yields no descriptors at all.
    img = image_with(mal_bytes[0], [(0x1000, 0x100, data)], 0x90000)
    assert parse_imports(img) == []
    assert_walks_agree(img)


# ---------------------------------------------------------------------------
# the one writer, read back


_NAME = st.text(string.ascii_letters + string.digits + "_.", min_size=1, max_size=24)
_DLLS = st.lists(st.tuples(_NAME, st.lists(_NAME, max_size=5)), max_size=3)


@pytest.mark.parametrize("magic", [PE32_MAGIC, PE32PLUS_MAGIC], ids=["pe32", "pe32plus"])
@settings(max_examples=40, deadline=None)
@given(kept=_DLLS, new=_DLLS.filter(bool), shift=st.integers(0, 3), tight=st.booleans())
# The section ends 15 bytes after the start of the last DLL name.
@example(kept=[], new=[("fourteen_c.dll", [])], shift=0, tight=True)
def test_property_written_import_table_reads_back(magic, kept, new, shift, tight):
    """A table written behind kept descriptors reads back as the kept imports
    and then the new ones, each name's hint at an even RVA, with equal lookup
    and address tables, whatever the section's start, also in a section that
    ends where the table does."""
    es = PE_FORMATS[magic].thunk_size
    old = pack_import_table(0x1000, kept, es, b"")
    assert len(old) < 0x1000
    base = 0x2000 + shift
    table = pack_import_table(base, new, es, old[: 20 * len(kept)])
    size = len(table) if tight else 0x1000
    raw = session_data.mal_bytes()[0]
    img = image_with(raw, [(0x1000, 0x1000, old), (base, size, table)], base, magic)
    got = parse_imports(img)
    assert [(d.dll_name, d.function_names) for d in got] == kept + new
    assert_walks_agree(img)
    smap = section_map(img)
    for d, (_, funcs) in zip(got[len(kept) :], new):
        lookup, stop = read_table(smap, d.ilt_rva, es, 64)
        address, _ = read_table(smap, d.iat_rva, es, 64)
        assert stop == "zero" and lookup == address and len(lookup) == len(funcs)
        assert d.ilt_rva != d.iat_rva
        assert all(int.from_bytes(t, "little") % 2 == 0 for t in lookup)
