"""Strict PE reader/writer with byte-for-byte round-trip fidelity.

The model keeps every field we rewrite as a named attribute and everything
else as opaque byte runs, so ``serialize(parse(data)) == data`` holds for any
file the parser accepts with a clean bill of structural health.  Parsing is
total: arbitrary input either yields a ``PeImage`` or raises one of the
declared ``PeError`` subclasses, never anything else.

Hard problems (bad magic, offsets outside the file, overlapping raw ranges)
raise.  Soft problems (unsorted sections, misrounded ``size_of_image`` and
friends) come back as ``Diagnostic`` entries from :func:`check_invariants`,
which callers run on demand; parsing does not.

Each header's byte layout is stated once, as a ``struct.Struct``, and its
field order once, in the dataclass that holds it; parse, the one header
writer and :meth:`PeImage.copy` all read those two.  Values the rest of the
image fixes (``e_magic``, ``e_lfanew``, both counts, the optional header's
size) are not stored.  The PE32/PE32+ differences live in one per-magic
table, :data:`PE_FORMATS`.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import struct
from dataclasses import dataclass

MZ_MAGIC = 0x5A4D
PE_SIGNATURE = b"PE\x00\x00"
PE32_MAGIC = 0x10B
PE32PLUS_MAGIC = 0x20B

# Each header's layout, in the field order of the dataclass that holds it
# with the derived values in between; parse and the header writer share these.
DOS_HEADER = struct.Struct("<H58sI")
COFF_HEADER = struct.Struct("<HHIIIHH")
SECTION_HEADER = struct.Struct("<8sIIII12sI")
DATA_DIRECTORY = struct.Struct("<II")
# lookup table (ILT) RVA, time stamp, forwarder chain, name RVA, address table (IAT) RVA
IMPORT_DESCRIPTOR = struct.Struct("<5I")
# characteristics, time stamp, major and minor version, type, size of data,
# address of raw data (an RVA), pointer to raw data (a file offset)
DEBUG_DIRECTORY = struct.Struct("<IIHHIIII")

DOS_HEADER_SIZE = DOS_HEADER.size
COFF_HEADER_SIZE = COFF_HEADER.size
SECTION_HEADER_SIZE = SECTION_HEADER.size

DIR_IMPORT = 1
# The security directory's first field is a raw file offset, not an RVA;
# certificates live in the overlay, outside any mapped section.
DIR_SECURITY = 4
DIR_DEBUG = 6

ORDINAL_FLAG_32 = 0x8000_0000
ORDINAL_FLAG_64 = 0x8000_0000_0000_0000

_MAX_IMPORT_DESCRIPTORS = 512
_MAX_IMPORT_THUNKS = 4096


@functools.lru_cache(maxsize=2)  # PE32 and PE32+; other widths come from broken edits
def _optional_fixed(run_e_width: int) -> struct.Struct:
    """The optional header up to its data directories, for a ``run_e`` of this width."""
    return struct.Struct(f"<H2sI8sI12sII16sIII{run_e_width}sI")


@dataclass(frozen=True)
class PeFormat:
    """What differs between PE32 and PE32+."""

    run_e_width: int  # 24 bytes PE32, 40 PE32+
    thunk_size: int
    ordinal_flag: int

    @property
    def optional_fixed(self) -> struct.Struct:
        """The optional header up to its data directories: 0x60 bytes PE32, 0x70 PE32+."""
        return _optional_fixed(self.run_e_width)


PE_FORMATS = {
    PE32_MAGIC: PeFormat(24, 4, ORDINAL_FLAG_32),
    PE32PLUS_MAGIC: PeFormat(40, 8, ORDINAL_FLAG_64),
}


def pe_format(magic: int) -> PeFormat:
    """The format for ``magic``; an unknown magic reads imports as PE32 does."""
    return PE_FORMATS.get(magic, PE_FORMATS[PE32_MAGIC])


class PeError(Exception):
    """Base class for all structural PE failures."""


class NotPe(PeError):
    """The bytes are not a PE file at all (bad magic or signature)."""


class Truncated(PeError):
    """A header or section points past the end of the file."""


class MalformedSectionTable(PeError):
    """Section raw ranges overlap each other or the headers."""


class InvariantViolation(PeError):
    """Serialization refused because the image breaks a structural rule."""


def align_up(value: int, alignment: int) -> int:
    if alignment <= 0:
        return value
    return (value + alignment - 1) // alignment * alignment


def _take(data: bytes, off: int, n: int, what: str) -> bytes:
    if off + n > len(data):
        raise Truncated(f"{what} at {off}..{off + n} past end ({len(data)} bytes)")
    return bytes(data[off : off + n])


@dataclass
class Diagnostic:
    severity: str  # "error" (structurally broken file) or "warning" (loader-facing rule)
    path: str
    rule: str

    def __str__(self) -> str:
        return f"{self.severity} {self.path}: {self.rule}"


@dataclass
class CoffHeader:
    """The COFF header less its section count and optional-header size."""

    machine: int
    time_date_stamp: int
    pointer_to_symbol_table: int
    number_of_symbols: int
    characteristics: int


@dataclass
class DataDirectory:
    rva: int  # for DIR_SECURITY this is a raw file offset
    size: int


@dataclass
class OptionalHeader:
    """Optional header with rewrite targets named and the rest opaque.

    ``run_a`` .. ``run_e`` hold the byte spans between named fields; their
    widths differ between PE32 and PE32+ only for ``run_e`` (24 vs 40 bytes).
    ``trailing`` keeps any bytes the file's optional header holds past the
    data directories.  The header's size and directory count are not stored:
    the writer lays the fixed fields out by ``len(run_e)``, not by ``magic``,
    and counts ``data_directories``, so an unknown magic still serializes;
    :func:`serialize` refuses a known magic over a ``run_e`` of the other width.
    """

    magic: int
    run_a: bytes  # linker versions (2 bytes)
    size_of_code: int
    run_b: bytes  # initialized/uninitialized data sizes (8 bytes)
    address_of_entry_point: int
    run_c: bytes  # base_of_code, base_of_data/image_base (12 bytes)
    section_alignment: int
    file_alignment: int
    run_d: bytes  # version fields, win32_version_value (16 bytes)
    size_of_image: int
    size_of_headers: int
    checksum: int
    run_e: bytes  # subsystem through loader_flags (24 bytes PE32, 40 PE32+)
    data_directories: list[DataDirectory]
    trailing: bytes


@dataclass
class Section:
    """One section header plus its on-disk raw data (``len(data) == size_of_raw_data``)."""

    name: bytes  # 8 bytes, zero padded
    virtual_size: int
    virtual_address: int
    size_of_raw_data: int
    pointer_to_raw_data: int
    reserved: bytes  # relocation/line-number fields we never touch (12 bytes)
    characteristics: int
    data: bytes

    @property
    def display_name(self) -> str:
        return self.name.rstrip(b"\x00").decode("latin-1")

    def has_raw(self) -> bool:
        # A zero raw pointer means "no bytes on disk" even if a size is claimed.
        return self.size_of_raw_data > 0 and self.pointer_to_raw_data > 0


def _fields(cls: type, count: int | None = None) -> operator.attrgetter:
    """A getter for the values of the first ``count`` fields of ``cls`` (all
    of them by default), in the dataclass's order."""
    return operator.attrgetter(*(f.name for f in dataclasses.fields(cls)[:count]))


_COFF_FIELDS = _fields(CoffHeader)
_OPTIONAL_FIELDS = _fields(OptionalHeader, -2)  # the fixed part less the directory count
_SECTION_FIELDS = _fields(Section, -1)  # the header, without the data


@dataclass
class ImportDescriptor:
    dll_name: str
    ilt_rva: int
    iat_rva: int
    function_names: list[str]


@dataclass
class PeImage:
    dos_reserved: bytes  # the 58 bytes between e_magic and e_lfanew, kept verbatim
    dos_stub: bytes  # the bytes from the DOS header's end to e_lfanew
    coff: CoffHeader
    optional: OptionalHeader
    sections: list[Section]
    # Bytes inside the section region not owned by any section (header slack,
    # inter-section gaps), as (absolute offset, bytes) pairs sorted by offset.
    padding_spans: list[tuple[int, bytes]]
    overlay: bytes

    # -- derived layout ----------------------------------------------------
    @property
    def headers_end(self) -> int:
        return headers_length(len(self.dos_stub), _optional_size(self.optional), len(self.sections))

    @property
    def last_raw_end(self) -> int:
        ends = [s.pointer_to_raw_data + s.size_of_raw_data for s in self.sections if s.has_raw()]
        return max(ends) if ends else self.headers_end

    @property
    def header_slack(self) -> int:
        """Unused bytes between the section table and the first raw data."""
        end = self.headers_end
        first = min([s.pointer_to_raw_data for s in self.sections if s.has_raw()],
                    default=max(self.optional.size_of_headers, end))
        return max(0, first - end)

    def directory(self, index: int) -> DataDirectory:
        dirs = self.optional.data_directories
        if index < len(dirs):
            return dirs[index]
        return DataDirectory(0, 0)

    def entry_section_index(self) -> int | None:
        """Index of the section that serves the entry point, by the mapping rule."""
        return _owner(section_map(self), self.optional.address_of_entry_point)

    def raw_parts(self) -> list[tuple[int | None, bytes]]:
        """Each section's (file offset, data) in table order; the offset is
        None for a section with no bytes on disk."""
        return [(s.pointer_to_raw_data if s.has_raw() else None, s.data) for s in self.sections]

    def copy(self) -> PeImage:
        """Copy the headers, directories and sections; payload ``bytes`` are shared.

        Each object is built by its own constructor, which is several times
        faster than ``dataclasses.replace`` and keeps the instance layout
        that makes later attribute reads fast.
        """
        o = self.optional
        return PeImage(
            self.dos_reserved,
            self.dos_stub,
            CoffHeader(*_COFF_FIELDS(self.coff)),
            OptionalHeader(
                *_OPTIONAL_FIELDS(o),
                [DataDirectory(x.rva, x.size) for x in o.data_directories],
                o.trailing,
            ),
            [Section(*_SECTION_FIELDS(s), s.data) for s in self.sections],
            list(self.padding_spans),
            self.overlay,
        )


# ---------------------------------------------------------------------------
# parsing


def _parse_optional(raw: bytes, off: int, size: int) -> OptionalHeader:
    blob = _take(raw, off, size, "optional header")
    if size < 2:
        raise Truncated("optional header smaller than its magic field")
    magic = int.from_bytes(blob[:2], "little")
    if magic not in PE_FORMATS:
        raise NotPe(f"unsupported optional header magic 0x{magic:x}")
    fixed = PE_FORMATS[magic].optional_fixed
    if size < fixed.size:
        raise Truncated(f"optional header of {size} bytes is shorter than its fixed part")
    fields = fixed.unpack_from(blob)
    n_dirs = fields[-1]
    dirs_end = fixed.size + n_dirs * DATA_DIRECTORY.size
    if dirs_end > size:
        raise Truncated(f"{n_dirs} data directories do not fit a {size}-byte optional header")
    dirs = [DataDirectory(*d) for d in DATA_DIRECTORY.iter_unpack(blob[fixed.size : dirs_end])]
    return OptionalHeader(*fields[:-1], dirs, blob[dirs_end:])


def parse(raw: bytes) -> PeImage:
    """Parse ``raw`` into a :class:`PeImage` or raise a :class:`PeError`."""
    if int.from_bytes(raw[:2], "little") != MZ_MAGIC:
        raise NotPe("missing MZ magic")
    _, dos_reserved, e_lfanew = DOS_HEADER.unpack(_take(raw, 0, DOS_HEADER_SIZE, "DOS header"))
    if e_lfanew < DOS_HEADER_SIZE:
        raise NotPe(f"e_lfanew {e_lfanew} overlaps the DOS header")
    if _take(raw, e_lfanew, 4, "PE signature") != PE_SIGNATURE:
        raise NotPe("missing PE signature at e_lfanew")
    dos_stub = bytes(raw[DOS_HEADER_SIZE:e_lfanew])

    coff_off = e_lfanew + 4
    machine, n_sections, stamp, symbols_at, n_symbols, opt_size, characteristics = COFF_HEADER.unpack(
        _take(raw, coff_off, COFF_HEADER_SIZE, "COFF header"))
    coff = CoffHeader(machine, stamp, symbols_at, n_symbols, characteristics)

    opt_off = coff_off + COFF_HEADER_SIZE
    optional = _parse_optional(raw, opt_off, opt_size)

    table_off = opt_off + opt_size
    table = _take(raw, table_off, SECTION_HEADER_SIZE * n_sections, "section table")
    sections = [Section(*fields, b"") for fields in SECTION_HEADER.iter_unpack(table)]

    headers_end = table_off + len(table)
    intervals: list[tuple[int, int, int]] = []  # (start, end, section index)
    for i, s in enumerate(sections):
        if not s.has_raw():
            continue
        start, end = s.pointer_to_raw_data, s.pointer_to_raw_data + s.size_of_raw_data
        if end > len(raw):
            raise Truncated(f"sections[{i}] raw data {start}..{end} past end ({len(raw)} bytes)")
        if start < headers_end:
            raise MalformedSectionTable(f"sections[{i}] raw data starts inside the headers")
        intervals.append((start, end, i))
        s.data = bytes(raw[start:end])

    intervals.sort()
    for (s1, e1, i1), (s2, e2, i2) in zip(intervals, intervals[1:]):
        if s2 < e1:
            raise MalformedSectionTable(f"sections[{i1}] and sections[{i2}] raw ranges overlap")

    last_raw_end = max((end for _, end, _ in intervals), default=headers_end)
    spans: list[tuple[int, bytes]] = []
    cursor = headers_end
    for start, end, _ in intervals:
        if start > cursor:
            spans.append((cursor, bytes(raw[cursor:start])))
        cursor = end
    overlay = bytes(raw[last_raw_end:])

    return PeImage(
        dos_reserved=dos_reserved,
        dos_stub=dos_stub,
        coff=coff,
        optional=optional,
        sections=sections,
        padding_spans=spans,
        overlay=overlay,
    )


# ---------------------------------------------------------------------------
# serialization


def headers_length(stub_len: int, optional_size: int, n_sections: int) -> int:
    """Where a table of ``n_sections`` headers ends, behind a stub and an optional header this long."""
    return (DOS_HEADER_SIZE + stub_len + len(PE_SIGNATURE) + COFF_HEADER_SIZE
            + optional_size + SECTION_HEADER_SIZE * n_sections)


def _optional_size(opt: OptionalHeader) -> int:
    """The optional header's length, summed from struct sizes."""
    return (_optional_fixed(len(opt.run_e)).size
            + DATA_DIRECTORY.size * len(opt.data_directories) + len(opt.trailing))


def _pack_headers(img: PeImage) -> bytes:
    """Every header byte in file order: the DOS header and stub, the signature,
    the COFF and optional headers, the directories, the trailing bytes and the
    section table, with the values the rest of the image fixes filled in.
    Raises ``struct.error`` for a value that does not fit its field."""
    coff, opt, sections = img.coff, img.optional, img.sections
    return b"".join([
        DOS_HEADER.pack(MZ_MAGIC, img.dos_reserved, DOS_HEADER_SIZE + len(img.dos_stub)),
        img.dos_stub,
        PE_SIGNATURE,
        COFF_HEADER.pack(coff.machine, len(sections), coff.time_date_stamp, coff.pointer_to_symbol_table,
                         coff.number_of_symbols, _optional_size(opt), coff.characteristics),
        _optional_fixed(len(opt.run_e)).pack(*_OPTIONAL_FIELDS(opt), len(opt.data_directories)),
        *[DATA_DIRECTORY.pack(d.rva, d.size) for d in opt.data_directories],
        opt.trailing,
        *[SECTION_HEADER.pack(*_SECTION_FIELDS(s)) for s in sections],
    ])


def _layout(img: PeImage) -> tuple[list[Diagnostic], bytes]:
    """Errors for the rules that decide which bytes :func:`serialize` writes
    where, and the header bytes it writes (empty if they do not pack).

    Every image a parse returns satisfies them; only in-memory edits can
    break one (byte runs of the wrong width, length mismatches, overlapping
    raw ranges or padding, padding off the section region, a header integer
    too wide for its field), and then the writer cannot lay the file out.
    :func:`serialize` refuses exactly these; :func:`check_invariants` reports them first.
    """
    out: list[Diagnostic] = []

    def err(path: str, rule: str) -> None:
        out.append(Diagnostic("error", path, rule))

    opt = img.optional
    if len(img.dos_reserved) != DOS_HEADER_SIZE - 6:
        err("dos_reserved", "must be 58 bytes")
    # The header structs pad or cut a byte run silently, so its width is a rule
    # here.  A known magic fixes run_e's width, which parse reads it by; under
    # an unknown magic parse refuses the file whatever the width.
    widths = [("run_a", 2), ("run_b", 8), ("run_c", 12), ("run_d", 16)]
    if opt.magic in PE_FORMATS:
        widths.append(("run_e", PE_FORMATS[opt.magic].run_e_width))
    for run, width in widths:
        if len(getattr(opt, run)) != width:
            err(f"optional.{run}", f"must be {width} bytes")
    try:
        headers = _pack_headers(img)
    except struct.error as e:
        headers = b""
        err("headers", f"a value does not fit its struct field ({e})")

    headers_end = img.headers_end
    intervals = []
    for i, s in enumerate(img.sections):
        path = f"sections[{i}]"
        if len(s.name) != 8:
            err(f"{path}.name", "must be 8 bytes")
        if len(s.reserved) != 12:
            err(f"{path}.reserved", "must be 12 bytes")
        if not s.has_raw():
            continue
        if len(s.data) != s.size_of_raw_data:
            err(f"{path}.data", "length must equal size_of_raw_data")
        if s.pointer_to_raw_data < headers_end:
            err(f"{path}.pointer_to_raw_data", "raw data must not overlap the headers")
        intervals.append((s.pointer_to_raw_data, s.pointer_to_raw_data + s.size_of_raw_data, i))
    intervals.sort()
    for (a1, b1, i1), (a2, b2, i2) in zip(intervals, intervals[1:]):
        if a2 < b1:
            err(f"sections[{i2}].pointer_to_raw_data", f"raw range overlaps sections[{i1}]")

    spans = sorted((off, off + len(blob)) for off, blob in img.padding_spans)
    for (_, b1), (a2, _) in zip(spans, spans[1:]):
        if a2 < b1:
            err("padding_spans", f"span at {a2} overlaps the span before it")
    body_end = img.last_raw_end
    for a2, b2 in spans:
        if a2 < headers_end or b2 > body_end:
            err("padding_spans", f"span at {a2} lies outside [headers_end, last_raw_end)")
        for a1, b1, i1 in intervals:
            if a2 < b1 and a1 < b2:
                err("padding_spans", f"span at {a2} overlaps sections[{i1}] raw data")
    return out, headers


def serialize(img: PeImage) -> bytes:
    """Write the image back to bytes, ``last_raw_end + len(overlay)`` of them;
    inverse of :func:`parse` for clean files."""
    broken, headers = _layout(img)
    if broken:
        raise InvariantViolation("; ".join(str(d) for d in broken))
    buf = bytearray(img.last_raw_end)
    buf[: len(headers)] = headers
    for s in img.sections:
        if s.has_raw():
            buf[s.pointer_to_raw_data : s.pointer_to_raw_data + s.size_of_raw_data] = s.data
    for off, blob in img.padding_spans:
        buf[off : off + len(blob)] = blob
    buf += img.overlay
    return bytes(buf)


# ---------------------------------------------------------------------------
# invariants


def check_invariants(img: PeImage) -> list[Diagnostic]:
    """Collect every violated structural rule; empty means the image is clean.

    Severity "error" marks hard structural breakage (a loader would reject
    the file outright); "warning" marks softer loader-facing soundness
    rules. The layout errors are the ones :func:`serialize` refuses; the
    value and import-table rules below do not block it, so
    broken-but-representable states still round-trip and stay visible here.
    """
    out, _ = _layout(img)

    def err(path: str, rule: str) -> None:
        out.append(Diagnostic("error", path, rule))

    def warn(path: str, rule: str) -> None:
        out.append(Diagnostic("warning", path, rule))

    opt = img.optional
    if opt.magic not in PE_FORMATS:
        err("optional.magic", "must be PE32 (0x10B) or PE32+ (0x20B)")

    sa, fa = opt.section_alignment, opt.file_alignment
    sa_ok = sa > 0 and not (sa & (sa - 1))
    fa_ok = fa > 0 and not (fa & (fa - 1))
    if not sa_ok:
        err("optional.section_alignment", "must be a positive power of two")
    if not fa_ok:
        err("optional.file_alignment", "must be a positive power of two")

    for i, d in enumerate(opt.data_directories):
        if d.rva == 0 and d.size != 0:
            warn(f"optional.data_directories[{i}]", "zero rva requires zero size")

    prev_va = -1
    image_end = 0
    for i, s in enumerate(img.sections):
        path = f"sections[{i}]"
        if s.virtual_address <= prev_va:
            warn(f"{path}.virtual_address", "sections must ascend strictly by virtual address")
        prev_va = s.virtual_address
        if sa_ok and s.virtual_address % sa:
            warn(f"{path}.virtual_address", "must be a multiple of section_alignment")
        image_end = max(image_end, s.virtual_address + s.virtual_size)
        if fa_ok and s.has_raw():
            if s.size_of_raw_data % fa:
                err(f"{path}.size_of_raw_data", "must be a multiple of file_alignment")
            if s.pointer_to_raw_data % fa:
                err(f"{path}.pointer_to_raw_data", "must be a multiple of file_alignment")

    if sa_ok and img.sections and opt.size_of_image != align_up(image_end, sa):
        warn("optional.size_of_image", "must be the image end rounded up to section_alignment")
    if fa_ok and opt.size_of_headers % fa:
        warn("optional.size_of_headers", "must be a multiple of file_alignment")
    if opt.size_of_headers < img.headers_end:
        warn("optional.size_of_headers", "must cover all headers")

    out.extend(_import_table_diagnostics(img))
    return out


def _import_table_diagnostics(img: PeImage) -> list[Diagnostic]:
    smap = section_map(img)
    entry_size = pe_format(img.optional.magic).thunk_size
    descriptors, stop = import_descriptors(img, smap)
    out: list[Diagnostic] = []
    for i, blob in enumerate(descriptors):
        ilt_rva, _, _, _, iat_rva = IMPORT_DESCRIPTOR.unpack(blob)
        ilt = _read_thunks(smap, ilt_rva, entry_size)
        iat = _read_thunks(smap, iat_rva, entry_size)
        if ilt is None or iat is None:
            out.append(Diagnostic("warning", f"imports[{i}]", "thunk tables are not mappable"))
        elif ilt != iat:
            out.append(Diagnostic("warning", f"imports[{i}]", "ILT and IAT differ on disk"))
    if stop == "unmapped":
        out.append(Diagnostic("warning", "imports", "descriptor table is not mappable"))
    elif stop == "cap":
        out.append(Diagnostic("warning", "imports", "descriptor table lacks a zero terminator"))
    return out


# ---------------------------------------------------------------------------
# virtual address helpers
#
# Every read by RVA follows one rule: the first section in table order whose
# mapped span [virtual_address, virtual_address + span) holds the RVA serves
# it, where span is max(virtual_size, size_of_raw_data) for a section with raw
# data and virtual_size otherwise.  Bytes past the section's data read as
# zeros, and a read that runs past the span is unmappable.

#: (virtual address, mapped span, data) per section, in table order.
SectionMap = list[tuple[int, int, bytes]]


def rva_to_offset(img: PeImage, rva: int) -> int | None:
    """The file offset of the byte the section serving ``rva`` holds there,
    or None when no section serves it or its byte is not on disk."""
    i = _owner(section_map(img), rva)
    if i is None:
        return None
    s = img.sections[i]
    local = rva - s.virtual_address
    return s.pointer_to_raw_data + local if s.has_raw() and local < s.size_of_raw_data else None


def section_map(img: PeImage) -> SectionMap:
    """The sections as the mapping rule sees them; build it once per walk.

    An edit to a section's data needs a new map.
    """
    return [
        (s.virtual_address, max(s.virtual_size, s.size_of_raw_data if s.has_raw() else 0), s.data)
        for s in img.sections
    ]


def _owner(smap: SectionMap, rva: int) -> int | None:
    """Index of the section that serves ``rva``, or None."""
    for i, (va, span, _) in enumerate(smap):
        if va <= rva < va + span:
            return i
    return None


def read_mapped(smap: SectionMap, rva: int, n: int) -> bytes | None:
    """Read ``n`` bytes at ``rva`` through a :func:`section_map`, or None if unmappable."""
    i = _owner(smap, rva)
    if i is None or n < 0:
        return None
    va, span, data = smap[i]
    local = rva - va
    if local + n > span:
        return None
    chunk = data[local : local + n]
    return chunk if len(chunk) == n else chunk + bytes(n - len(chunk))


def read_virtual(img: PeImage, rva: int, n: int) -> bytes | None:
    """Read ``n`` bytes at ``rva`` from section data, zero-extended to virtual size."""
    return read_mapped(section_map(img), rva, n)


def read_table(smap: SectionMap, rva: int, entry_size: int, cap: int) -> tuple[list[bytes], str]:
    """Read ``entry_size``-byte entries from ``rva`` up to the first all-zero one.

    Returns the entries before the stop and why the walk stopped: ``"zero"``
    at an all-zero entry, ``"cap"`` after ``cap`` entries, ``"unmapped"`` at
    an entry :func:`read_mapped` cannot read.  Each entry maps as it would on
    its own, so a table may run on into another section.  Each entry is
    sliced on its own, so the cost follows the table's length, never the
    section's.
    """
    zero = bytes(entry_size)
    out: list[bytes] = []
    while len(out) < cap:
        at = rva + len(out) * entry_size
        i = _owner(smap, at)
        if i is None:
            return out, "unmapped"
        va, span, data = smap[i]
        end = va + span
        run_end = end
        for v, s, _ in smap[:i]:
            if at < v < run_end and s > 0:
                run_end = v  # an earlier section serves the RVAs from v on
        whole = (end - at) // entry_size  # entries that end inside the span
        starts = -(-(run_end - at) // entry_size)  # entries that start before run_end
        first = at - va
        for lo in range(first, first + min(whole, starts, cap - len(out)) * entry_size, entry_size):
            entry = data[lo : lo + entry_size].ljust(entry_size, b"\x00")
            if entry == zero:
                return out, "zero"
            out.append(entry)
        if whole < starts and len(out) < cap:
            return out, "unmapped"  # the next entry runs past the end of the span
    return out, "cap"


def _read_c_string(smap: SectionMap, rva: int) -> str | None:
    """The NUL-terminated string at ``rva``, looked for in its first 256
    bytes, or in as many as are mapped from ``rva`` if fewer are."""
    i = _owner(smap, rva)
    if i is None:
        return None
    va, span, data = smap[i]
    lo = rva - va
    # The zeros mapped past the data would end the string there.
    blob = data[lo : lo + min(256, span - lo)]
    end = blob.find(b"\x00")
    if end >= 0:
        blob = blob[:end]
    try:
        return blob.decode("ascii")
    except UnicodeDecodeError:
        return blob.decode("latin-1")


def _read_thunks(smap: SectionMap, rva: int, entry_size: int) -> list[bytes] | None:
    """The thunk table at ``rva``, or None when ``rva`` is zero or the table is unmappable."""
    if rva == 0:
        return None
    thunks, stop = read_table(smap, rva, entry_size, _MAX_IMPORT_THUNKS)
    return None if stop == "unmapped" else thunks


def import_descriptors(img: PeImage, smap: SectionMap) -> tuple[list[bytes], str]:
    """The import directory's raw 20-byte descriptors and why the walk stopped,
    as :func:`read_table` reports it; an image without an import directory
    has none, stopped at ``"zero"``."""
    d = img.directory(DIR_IMPORT)
    if d.rva == 0:
        return [], "zero"
    return read_table(smap, d.rva, IMPORT_DESCRIPTOR.size, _MAX_IMPORT_DESCRIPTORS)


def parse_imports(img: PeImage) -> list[ImportDescriptor]:
    """Walk the import directory; tolerant of unmappable tables (returns what it can)."""
    smap = section_map(img)
    fmt = pe_format(img.optional.magic)
    descriptors, _ = import_descriptors(img, smap)
    out: list[ImportDescriptor] = []
    for blob in descriptors:
        oft, _, _, name_rva, iat_rva = IMPORT_DESCRIPTOR.unpack(blob)
        dll = _read_c_string(smap, name_rva) or f"rva:{name_rva:#x}"
        names: list[str] = []
        for thunk in _read_thunks(smap, oft or iat_rva, fmt.thunk_size) or []:
            value = int.from_bytes(thunk, "little")
            if value & fmt.ordinal_flag:
                names.append(f"ordinal:{value & 0xFFFF}")
                continue
            name = _read_c_string(smap, (value & 0x7FFF_FFFF) + 2)
            names.append(name if name is not None else f"rva:{value:#x}")
        out.append(ImportDescriptor(dll, oft, iat_rva, names))
    return out


def pack_import_table(base: int, dlls: list[tuple[str, list[str]]], entry_size: int, kept: bytes) -> bytes:
    """An import table to be mapped at RVA ``base``, as :func:`parse_imports` reads it.

    The raw descriptors ``kept`` come first, copied as they are (the tables
    they point at stay where they were), then one descriptor per
    ``(dll, function names)`` of ``dlls`` and the zero descriptor that ends
    the array.  Behind them lie the new lookup tables, the address tables
    (equal to them), the hint/name entries, each at an even RVA, and the DLL
    names.  ``entry_size`` is the thunk width of the image's
    :data:`PE_FORMATS` entry.
    """
    table = base + len(kept) + (len(dlls) + 1) * IMPORT_DESCRIPTOR.size
    span = sum(len(funcs) + 1 for _, funcs in dlls) * entry_size  # of the lookup tables
    cursor = table + 2 * span
    thunks, hints, starts = bytearray(), bytearray(), []
    for _, funcs in dlls:
        starts.append(len(thunks))
        for fn in funcs:
            if cursor % 2:
                hints += b"\x00"
                cursor += 1
            thunks += cursor.to_bytes(entry_size, "little")
            entry = bytes(2) + fn.encode("ascii") + b"\x00"  # hint 0, then the name
            hints += entry
            cursor += len(entry)
        thunks += bytes(entry_size)
    descriptors, names = bytearray(kept), bytearray()
    for (dll, _), start in zip(dlls, starts):
        descriptors += IMPORT_DESCRIPTOR.pack(table + start, 0, 0, cursor + len(names), table + span + start)
        names += dll.encode("ascii") + b"\x00"
    return bytes(descriptors + bytes(IMPORT_DESCRIPTOR.size) + thunks + thunks + hints + names)


def zero_file_range(img: PeImage, offset: int, size: int) -> int:
    """Zero-fill ``size`` bytes at raw file ``offset`` in place, wherever they live.

    Touches section data, padding spans and the overlay; header bytes are left
    alone.  Returns how many bytes were actually cleared.
    """
    if size <= 0 or offset < 0:
        return 0
    lo, hi = offset, offset + size
    cleared = 0

    def cut(blob: bytes, start: int, end: int) -> bytes:
        """``blob``, which lives at file range [start, end), with [lo, hi) zeroed."""
        nonlocal cleared
        cut_lo, cut_hi = max(lo, start), min(hi, end)
        if cut_lo >= cut_hi:
            return blob
        cleared += cut_hi - cut_lo
        return blob[: cut_lo - start] + b"\x00" * (cut_hi - cut_lo) + blob[cut_hi - start :]

    for s in img.sections:
        if s.has_raw():
            s.data = cut(s.data, s.pointer_to_raw_data, s.pointer_to_raw_data + s.size_of_raw_data)
    img.padding_spans = [(off, cut(blob, off, off + len(blob))) for off, blob in img.padding_spans]
    base = img.last_raw_end
    img.overlay = cut(img.overlay, base, base + len(img.overlay))
    return cleared
