"""The ten functionality-preserving rewrite actions.

Every action is a pure function: it deep-copies the input image, mutates the
copy, and reports an outcome.  ``Failed`` and ``NoOp`` results hand back the
untouched input.  Given the same image and seed an action always produces the
same bytes.  None of them move the entry point or any existing section, so a
loader would still map the file the same way; they only add content, clear
optional metadata, or rewrite header scalars.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable
from dataclasses import dataclass

from . import pe_model
from .pe_model import (
    DIR_DEBUG,
    DIR_IMPORT,
    DIR_SECURITY,
    PeImage,
    align_up,
)

#: 500 days, deliberately not a whole number of years so shifted build dates
#: do not land on the same calendar day.
TIMESTAMP_STEP = 43_200_000
_U32_MAX = 2**32 - 1

#: Name pool used when adding or renaming sections.
DEFAULT_SECTION_NAMES: tuple[bytes, ...] = (
    b".text",
    b".data",
    b".rdata",
    b".rsrc",
    b".reloc",
    b".idata",
    b".bss",
)

#: Common libraries with unremarkable imports, used to pad import tables.
DLL_CATALOG: dict[str, tuple[str, ...]] = {
    "KERNEL32.dll": (
        "ReadFile", "WriteFile", "CloseHandle", "CreateFileA", "GetLastError",
        "HeapAlloc", "HeapFree", "Sleep", "GetModuleHandleA", "ExitProcess",
        "MultiByteToWideChar", "lstrlenA",
    ),
    "USER32.dll": (
        "MessageBoxA", "LoadStringA", "GetSystemMetrics", "PostQuitMessage",
        "DefWindowProcA", "ShowWindow",
    ),
    "GDI32.dll": ("TextOutA", "SelectObject", "DeleteObject", "GetStockObject"),
    "ADVAPI32.dll": ("RegOpenKeyExA", "RegQueryValueExA", "RegCloseKey"),
    "SHELL32.dll": ("SHGetFolderPathA", "DragQueryFileA", "SHFileOperationA"),
}

#: Blobs a pool keeps from its benign files, in file order.
MAX_POOL_BLOBS = 96

_FALLBACK_BLOB = (
    b"Copyright (c) example software. All rights reserved. "
    b"This block is ordinary static data used for padding. "
) * 32


class ActionId(enum.IntEnum):
    BREAK_CHECKSUM = 0
    APPEND_OVERLAY = 1
    REMOVE_DEBUG = 2
    REMOVE_CERTIFICATE = 3
    ADD_NEW_SECTION = 4
    APPEND_TO_SECTION = 5
    RENAME_SECTION = 6
    INCREASE_TIMESTAMP = 7
    DECREASE_TIMESTAMP = 8
    APPEND_NEW_IMPORT = 9


ACTION_NAMES: dict[ActionId, str] = {a: a.name.lower() for a in ActionId}
_NAME_TO_ACTION = {v: k for k, v in ACTION_NAMES.items()}


def action_from_name(name: str) -> ActionId:
    try:
        return _NAME_TO_ACTION[name.lower()]
    except KeyError:
        raise ValueError(f"unknown action {name!r}") from None


class Outcome(enum.Enum):
    APPLIED = "applied"
    NOOP = "noop"
    FAILED = "failed"


@dataclass
class ModResult:
    outcome: Outcome
    image: PeImage
    detail: str = ""


@dataclass
class BenignContentPool:
    """Byte blobs drawn from benign files; names come from the fixed catalogs."""

    blobs: list[bytes]

    def __post_init__(self) -> None:
        self.blobs = [b for b in self.blobs if len(b) >= 16] or [_FALLBACK_BLOB]

    def pick_blob(self, rng: random.Random) -> bytes:
        return rng.choice(self.blobs)

    def pick_section_name(self, rng: random.Random) -> bytes:
        return rng.choice(DEFAULT_SECTION_NAMES)

    def pick_dll(self, rng: random.Random) -> tuple[str, list[str]]:
        dll = rng.choice(sorted(DLL_CATALOG))
        names = list(DLL_CATALOG[dll])
        count = rng.randint(min(4, len(names)), len(names))
        return dll, rng.sample(names, count)


def build_pool(benign_files: list[bytes]) -> BenignContentPool:
    """Harvest section contents and overlays from benign files into a pool."""
    blobs: list[bytes] = []
    for raw in benign_files:
        try:
            img = pe_model.parse(raw)
        except pe_model.PeError:
            continue
        chunks = [s.data for s in img.sections if s.has_raw()]
        if img.overlay:
            chunks.append(img.overlay)
        for chunk in chunks:
            trimmed = chunk.rstrip(b"\x00")
            if len(trimmed) < 1024:
                continue
            blobs.append(trimmed[:16384])
            if len(blobs) >= MAX_POOL_BLOBS:
                return BenignContentPool(blobs=blobs)
    return BenignContentPool(blobs=blobs)


# ---------------------------------------------------------------------------
# helpers


def _fill_from(blob: bytes, n: int) -> bytes:
    if n <= 0:
        return b""
    reps = n // len(blob) + 1
    return (blob * reps)[:n]


def _shift_security(img: PeImage, watermark: int, delta: int) -> None:
    d = img.directory(DIR_SECURITY)
    if d.rva and d.rva >= watermark:
        d.rva += delta


def _append_section(img: PeImage, content: Callable[[int], tuple[bytes, bytes, str]],
                    characteristics: int) -> ModResult:
    """Add a section behind the others with the name, bytes and result
    detail that ``content(virtual_address)`` gives.

    FAILED, with the input image, when there is no section to follow, less
    than 40 bytes of header slack for the new header, no file-aligned spot
    for its raw data, or a new ``size_of_image`` that does not stay below
    2**32.  ``content`` runs only once the first three pass and an empty
    section would stay below 2**32.
    """
    if not img.sections:
        return ModResult(Outcome.FAILED, img, "image has no sections")
    if img.header_slack < pe_model.SECTION_HEADER_SIZE:
        return ModResult(Outcome.FAILED, img, f"header slack {img.header_slack} < 40")
    fa = img.optional.file_alignment
    ptr = img.last_raw_end
    if fa <= 0 or ptr % fa:
        return ModResult(Outcome.FAILED, img, "no aligned spot for raw data")
    sa = img.optional.section_alignment
    image_end = max(s.virtual_address + max(s.virtual_size, 1) for s in img.sections)
    new_va = align_up(max(image_end, img.sections[-1].virtual_address + 1), sa)
    size_of_image = align_up(new_va + 1, sa)
    if size_of_image <= _U32_MAX:
        name, data, detail = content(new_va)
        size_of_image = align_up(new_va + max(len(data), 1), sa)
    if size_of_image > _U32_MAX:
        return ModResult(Outcome.FAILED, img, "no room below 2**32")
    srd = align_up(len(data), fa)
    out = img.copy()
    # The new header takes the first 40 bytes of the padding behind the table.
    end, size = out.headers_end, pe_model.SECTION_HEADER_SIZE
    k = next((k for k, (off, blob) in enumerate(out.padding_spans)
              if off == end and len(blob) >= size), None)
    if k is None:
        raise pe_model.InvariantViolation("advertised header slack is not backed by padding")
    rest = out.padding_spans[k][1][size:]
    out.padding_spans[k:k + 1] = [(end + size, rest)] if rest else []
    out.sections.append(pe_model.Section(
        name[:8].ljust(8, b"\x00"), len(data), new_va, srd, ptr, b"\x00" * 12, characteristics,
        data.ljust(srd, b"\x00"),
    ))
    out.optional.size_of_image = size_of_image
    _shift_security(out, ptr, srd)
    return ModResult(Outcome.APPLIED, out, detail)


# ---------------------------------------------------------------------------
# the ten actions


def break_checksum(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Zero the optional-header checksum."""
    out = img.copy()
    out.optional.checksum = 0
    return ModResult(Outcome.APPLIED, out)


def append_overlay(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Append one benign blob after the end of the file."""
    rng = random.Random(seed)
    blob = pool.pick_blob(rng)
    out = img.copy()
    out.overlay += blob
    return ModResult(Outcome.APPLIED, out)


def remove_debug(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Clear the debug directory and zero-fill its data in place."""
    d = img.directory(DIR_DEBUG)
    if d.rva == 0 and d.size == 0:
        return ModResult(Outcome.NOOP, img, "no debug directory")
    out = img.copy()
    entry = pe_model.DEBUG_DIRECTORY
    # The size is a header field: walk what the sections map, not what it claims.
    entries, stop = pe_model.read_table(pe_model.section_map(img), d.rva, entry.size, d.size // entry.size)
    table_end = d.rva + len(entries) * entry.size
    for i, blob in enumerate(entries):
        at = d.rva + i * entry.size
        if at >= table_end:
            entries, stop = entries[:i], "data"  # the rest is an earlier entry's data
            break
        *_, size_of_data, address, pointer = entry.unpack(blob)
        if size_of_data and at < address < table_end:
            table_end = address
        if pointer and size_of_data:
            pe_model.zero_file_range(out, pointer, size_of_data)
    table_off = pe_model.rva_to_offset(out, d.rva)
    if table_off is not None:
        pe_model.zero_file_range(out, table_off, len(entries) * entry.size)
    detail = f"entry {len(entries)} not mappable; the rest not read" if stop == "unmapped" else ""
    out.directory(DIR_DEBUG).rva = 0
    out.directory(DIR_DEBUG).size = 0
    return ModResult(Outcome.APPLIED, out, detail)


def remove_certificate(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Drop the certificate table; the file shrinks when it sits in the overlay."""
    d = img.directory(DIR_SECURITY)
    if d.rva == 0 or d.size == 0:
        return ModResult(Outcome.NOOP, img, "no certificate")
    out = img.copy()
    start, size = d.rva, d.size
    base = out.last_raw_end
    end = min(start + size, base + len(out.overlay))
    if start >= base and end > start:
        out.overlay = out.overlay[: start - base] + out.overlay[end - base :]
        detail = "excised from overlay"
    else:
        pe_model.zero_file_range(out, start, size)
        detail = "outside overlay; zero-filled in place"
    out.directory(DIR_SECURITY).rva = 0
    out.directory(DIR_SECURITY).size = 0
    return ModResult(Outcome.APPLIED, out, detail)


def add_new_section(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Add a benign data section; needs 40 spare bytes after the section table."""
    def content(va: int) -> tuple[bytes, bytes, str]:
        rng = random.Random(seed)
        blob = pool.pick_blob(rng)
        return pool.pick_section_name(rng), blob, ""

    return _append_section(img, content, 0x40000040)


def append_to_section(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Write benign bytes into the dead space of a section whose virtual size
    exceeds its raw size.

    Prefers overwriting an existing on-disk gap after the section (headers
    stay untouched); otherwise grows the raw size by whole alignment units,
    which is only provably safe for the section that ends the raw region.
    """
    eligible = [i for i, s in enumerate(img.sections) if s.has_raw() and s.virtual_size > s.size_of_raw_data]
    if not eligible:
        return ModResult(Outcome.FAILED, img, "no section with virtual_size > size_of_raw_data")
    rng = random.Random(seed)
    order = rng.sample(eligible, len(eligible))
    fa = img.optional.file_alignment
    last_end = img.last_raw_end
    starts = sorted(s.pointer_to_raw_data for s in img.sections if s.has_raw())
    for i in order:
        s = img.sections[i]
        raw_end = s.pointer_to_raw_data + s.size_of_raw_data
        want = s.virtual_size - s.size_of_raw_data
        next_start = next((p for p in starts if p >= raw_end), None)
        if next_start is not None and next_start > raw_end:
            fill = min(want, next_start - raw_end)
            out = img.copy()
            blob = pool.pick_blob(rng)
            payload = _fill_from(blob, fill)
            spans = []
            for off, data in out.padding_spans:
                if off <= raw_end < off + len(data):
                    k = raw_end - off
                    data = data[:k] + payload + data[k + fill :]
                spans.append((off, data))
            out.padding_spans = spans
            return ModResult(Outcome.APPLIED, out, f"slack-fill {fill}B in sections[{i}]")
        if raw_end == last_end:
            grow = align_up(want, fa)
            out = img.copy()
            t = out.sections[i]
            blob = pool.pick_blob(rng)
            payload = _fill_from(blob, want).ljust(grow, b"\x00")
            t.data += payload
            t.size_of_raw_data += grow
            _shift_security(out, raw_end, grow)
            return ModResult(Outcome.APPLIED, out, f"grow {grow}B in sections[{i}]")
    return ModResult(Outcome.NOOP, img, "eligible sections are boxed in")


def rename_section(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Give one randomly chosen section an ordinary name."""
    if not img.sections:
        return ModResult(Outcome.FAILED, img, "image has no sections")
    rng = random.Random(seed)
    index = rng.randrange(len(img.sections))
    name = pool.pick_section_name(rng)
    out = img.copy()
    out.sections[index].name = name[:8].ljust(8, b"\x00")
    return ModResult(Outcome.APPLIED, out, f"sections[{index}] -> {name.decode()}")


def increase_timestamp(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Move the build timestamp 500 days forward, saturating at the maximum."""
    out = img.copy()
    out.coff.time_date_stamp = min(out.coff.time_date_stamp + TIMESTAMP_STEP, _U32_MAX)
    return ModResult(Outcome.APPLIED, out)


def decrease_timestamp(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Move the build timestamp 500 days back, saturating at zero."""
    out = img.copy()
    out.coff.time_date_stamp = max(out.coff.time_date_stamp - TIMESTAMP_STEP, 0)
    return ModResult(Outcome.APPLIED, out)


def append_new_import(img: PeImage, pool: BenignContentPool, seed: int) -> ModResult:
    """Extend the import table with one benign DLL inside a new section.

    The section holds a copy of the old descriptors (their tables stay where
    they were) with the new DLL's table behind it, as
    :func:`pe_model.pack_import_table` writes them; the import directory
    points at the copy.
    """
    kept = b""  # the old descriptors, once the guards have passed

    def content(va: int) -> tuple[bytes, bytes, str]:
        nonlocal kept
        dll, funcs = pool.pick_dll(random.Random(seed))
        kept = b"".join(pe_model.import_descriptors(img, pe_model.section_map(img))[0])
        entry_size = pe_model.pe_format(img.optional.magic).thunk_size
        # The length follows only the base's parity, so the table at va % 2 tells
        # whether the one at va ends below 2**32, where each of its RVAs fits.
        table = pe_model.pack_import_table(va % 2, [(dll, funcs)], entry_size, kept)
        if va + len(table) <= 2**32:
            table = pe_model.pack_import_table(va, [(dll, funcs)], entry_size, kept)
        return b".idata", table, f"{dll} +{len(funcs)} imports"

    res = _append_section(img, content, 0xC0000040)
    if res.outcome is Outcome.APPLIED:
        d = res.image.directory(DIR_IMPORT)
        d.rva = res.image.sections[-1].virtual_address
        d.size = len(kept) + 2 * pe_model.IMPORT_DESCRIPTOR.size
    return res


ACTIONS = {
    ActionId.BREAK_CHECKSUM: break_checksum,
    ActionId.APPEND_OVERLAY: append_overlay,
    ActionId.REMOVE_DEBUG: remove_debug,
    ActionId.REMOVE_CERTIFICATE: remove_certificate,
    ActionId.ADD_NEW_SECTION: add_new_section,
    ActionId.APPEND_TO_SECTION: append_to_section,
    ActionId.RENAME_SECTION: rename_section,
    ActionId.INCREASE_TIMESTAMP: increase_timestamp,
    ActionId.DECREASE_TIMESTAMP: decrease_timestamp,
    ActionId.APPEND_NEW_IMPORT: append_new_import,
}

ACTION_COUNT = len(ACTIONS)


def apply_action(
    img: PeImage,
    action: ActionId | int,
    pool: BenignContentPool,
    seed: int,
) -> ModResult:
    """Apply one action by id with the given seed."""
    return ACTIONS[ActionId(action)](img, pool, seed)
