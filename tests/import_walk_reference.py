"""Reference import walk: one ``read_virtual`` call per descriptor and thunk.

This is the walk ``pe_model`` used before it read tables as slices, kept
verbatim as the oracle the slice reader must agree with on every image:
each 20-byte descriptor and each thunk is looked up on its own, so a table
runs on into whatever section serves its next entry.  One rule changed since:
a name is read from as many bytes as are mapped from its start, up to 256,
where the walk once fell back to 128, 64 or 16 and gave up below 16.
"""

from __future__ import annotations

import struct

from amg.pe_model import (
    DIR_IMPORT,
    ORDINAL_FLAG_32,
    ORDINAL_FLAG_64,
    PE32PLUS_MAGIC,
    Diagnostic,
    ImportDescriptor,
    PeImage,
)

MAX_DESCRIPTORS = 512
MAX_THUNKS = 4096


def read_virtual(img: PeImage, rva: int, n: int) -> bytes | None:
    if n < 0:
        return None
    for s in img.sections:
        span = max(s.virtual_size, s.size_of_raw_data if s.has_raw() else 0)
        if s.virtual_address <= rva < s.virtual_address + span:
            local = rva - s.virtual_address
            if local + n > span:
                return None
            chunk = s.data[local : local + n]
            if len(chunk) < n:
                chunk += b"\x00" * (n - len(chunk))
            return bytes(chunk)
    return None


def read_c_string(img: PeImage, rva: int, limit: int = 256) -> str | None:
    """The string in the longest mapped window of at most ``limit`` bytes."""
    for n in range(limit, 0, -1):
        blob = read_virtual(img, rva, n)
        if blob is not None:
            break
    else:
        return None
    end = blob.find(b"\x00")
    if end < 0:
        end = len(blob)
    try:
        return blob[:end].decode("ascii")
    except UnicodeDecodeError:
        return blob[:end].decode("latin-1")


def read_thunks_raw(img: PeImage, rva: int, entry_size: int) -> list[int] | None:
    if rva == 0:
        return None
    out: list[int] = []
    for i in range(MAX_THUNKS):
        blob = read_virtual(img, rva + i * entry_size, entry_size)
        if blob is None:
            return None
        value = int.from_bytes(blob, "little")
        if value == 0:
            return out
        out.append(value)
    return out


def import_table_diagnostics(img: PeImage) -> list[Diagnostic]:
    d = img.directory(DIR_IMPORT)
    if d.rva == 0:
        return []
    out: list[Diagnostic] = []
    entry_size = 8 if img.optional.magic == PE32PLUS_MAGIC else 4
    terminated = False
    for i in range(MAX_DESCRIPTORS):
        blob = read_virtual(img, d.rva + i * 20, 20)
        if blob is None:
            out.append(Diagnostic("warning", "imports", "descriptor table is not mappable"))
            return out
        if blob == b"\x00" * 20:
            terminated = True
            break
        ilt_rva = struct.unpack_from("<I", blob, 0)[0]
        iat_rva = struct.unpack_from("<I", blob, 16)[0]
        ilt = read_thunks_raw(img, ilt_rva, entry_size)
        iat = read_thunks_raw(img, iat_rva, entry_size)
        if ilt is None or iat is None:
            out.append(Diagnostic("warning", f"imports[{i}]", "thunk tables are not mappable"))
        elif ilt != iat:
            out.append(Diagnostic("warning", f"imports[{i}]", "ILT and IAT differ on disk"))
    if not terminated:
        out.append(Diagnostic("warning", "imports", "descriptor table lacks a zero terminator"))
    return out


def parse_imports(img: PeImage) -> list[ImportDescriptor]:
    d = img.directory(DIR_IMPORT)
    if d.rva == 0:
        return []
    is_plus = img.optional.magic == PE32PLUS_MAGIC
    entry_size = 8 if is_plus else 4
    ordinal_flag = ORDINAL_FLAG_64 if is_plus else ORDINAL_FLAG_32
    out: list[ImportDescriptor] = []
    for i in range(MAX_DESCRIPTORS):
        blob = read_virtual(img, d.rva + i * 20, 20)
        if blob is None or blob == b"\x00" * 20:
            break
        oft = struct.unpack_from("<I", blob, 0)[0]
        name_rva = struct.unpack_from("<I", blob, 12)[0]
        iat_rva = struct.unpack_from("<I", blob, 16)[0]
        dll = read_c_string(img, name_rva) or f"rva:{name_rva:#x}"
        thunks = read_thunks_raw(img, oft or iat_rva, entry_size) or []
        names: list[str] = []
        for value in thunks:
            if value & ordinal_flag:
                names.append(f"ordinal:{value & 0xFFFF}")
                continue
            name = read_c_string(img, (value & 0x7FFF_FFFF) + 2)
            names.append(name if name is not None else f"rva:{value:#x}")
        out.append(ImportDescriptor(dll, oft, iat_rva, names))
    return out
