"""Deterministic synthetic PE32 corpus with planted label signals.

Each file is built as a :class:`~amg.pe_model.PeImage` and written by
:func:`~amg.pe_model.serialize`, the writer the rewrite actions use, so the
corpus states no header layout of its own.  A fault in a shared layout would
be made alike on the writing and the reading side, where the round trip
cannot see it; the golden digest and a test that reads the headers at the PE
specification's offsets pin the bytes.

"Malicious" files are ordinary structural shells carrying a random subset of
tells: a nonzero checksum, an implausible timestamp, a packer-style section
name, a debug blob, an Authenticode-shaped certificate, a missing overlay,
suspicious import names, planted byte motifs, and a data texture whose
byte-pair structure is shuffled away (single-byte statistics stay identical
to the benign text filler, so only pair-aware models see it).  Benign files
mostly lack the tells and read like text-heavy binaries; hot high-byte runs
appear in both labels at different rates so no histogram summary separates
them on its own.  Every signal was picked so that some sequence of the
rewrite actions can plausibly mask it: checksums can be zeroed, timestamps
stepped back into the common band, sections renamed, debug data and
certificates dropped, and densities diluted by appending benign content.

Each file derives from a single per-file seed, so any slice of the corpus can
be regenerated independently.  ``generate`` relies on that: it builds the files
in forked worker processes, one per usable CPU, and returns them in job order,
byte for byte what a sequential build gives.  No file contains executable
behavior; entry points land on inert filler bytes.

The fillers make most of the random draws, one per word, byte or swap, so they
draw straight from ``rng.getrandbits`` with ``random.Random._randbelow``'s own
rejection rule: for a draw below ``n``, take ``k = n.bit_length()`` bits and
draw again while the result is ``>= n``.  The Mersenne Twister sees the same
calls in the same order as under ``choice``/``randrange``/``shuffle``, so the
bytes and the rng state after each filler are what those gave;
``tests/corpus_reference.py`` keeps the per-call fillers as the oracle.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import pe_model, signals
from .pe_model import DataDirectory, Section
from .pe_mods import DLL_CATALOG
from .seeds import fanout

QUIRK_CHECKSUM = "checksum"
QUIRK_TIMESTAMP = "timestamp"
QUIRK_NAME = "name"
QUIRK_DEBUG = "debug"
QUIRK_CERTIFICATE = "certificate"
QUIRK_NO_OVERLAY = "no_overlay"
QUIRK_IMPORTS = "imports"
QUIRK_MOTIFS = "motifs"

ALL_QUIRKS = (
    QUIRK_CHECKSUM,
    QUIRK_TIMESTAMP,
    QUIRK_NAME,
    QUIRK_DEBUG,
    QUIRK_CERTIFICATE,
    QUIRK_NO_OVERLAY,
    QUIRK_IMPORTS,
    QUIRK_MOTIFS,
)

# Benign files occasionally carry one mild tell so no single feature
# separates the labels on its own.
BENIGN_NOISE_QUIRKS = (QUIRK_CHECKSUM, QUIRK_DEBUG, QUIRK_CERTIFICATE, QUIRK_MOTIFS)
BENIGN_NOISE = 0.5  # chance that a benign file carries one

# Inclusive ranges: sections before the optional high-entropy and import
# sections, quirks per malicious file, and motifs a malicious file plants.
MIN_SECTIONS, MAX_SECTIONS = 2, 5
QUIRKS_LOW, QUIRKS_HIGH = 4, 6
MOTIFS_LOW, MOTIFS_HIGH = 5, 10

# Build timestamps: the band ordinary files live in, plus the odd bands the
# timestamp quirk draws from (close enough to walk back in a few 500-day hops).
TS_COMMON = (1_136_073_600, 1_735_689_600)  # 2006..2024
TS_PAST = (915_148_800, 1_104_537_600)  # 1999..2004
TS_FUTURE = (1_767_225_600, 1_924_992_000)  # 2026..2030

FILE_ALIGNMENT = 0x200
SECTION_ALIGNMENT = 0x1000
IMAGE_BASE = 0x400000

_WORDS = (
    b"the", b"of", b"and", b"data", b"value", b"table", b"index", b"status",
    b"error", b"handle", b"file", b"open", b"close", b"read", b"write",
    b"buffer", b"config", b"update", b"service", b"client", b"server",
    b"request", b"response", b"version", b"module", b"resource", b"string",
)

_CODE_BYTES = bytes(
    [0x55, 0x8B, 0xEC, 0x83, 0xC4, 0x50, 0x53, 0x56, 0x57, 0x8B, 0x45, 0x08,
     0x89, 0x75, 0xF8, 0xE8, 0x00, 0x10, 0x40, 0x00, 0x85, 0xC0, 0x74, 0x0C,
     0xC7, 0x04, 0x24, 0x90, 0x90, 0xC3, 0x5F, 0x5E, 0x5B, 0x8B, 0xE5, 0x5D]
)


class CorpusError(Exception):
    """A spec asks for a negative file count, a generated file failed its own
    structural self-check, or a corpus manifest is not UTF-8 JSON lines of
    objects with the entry fields."""


@dataclass
class CorpusSpec:
    malicious: int = 700
    benign: int = 400
    seed: int = 7

    def __post_init__(self) -> None:
        if self.malicious < 0 or self.benign < 0:
            raise CorpusError(
                f"file counts must be 0 or more, got {self.malicious} malicious "
                f"and {self.benign} benign"
            )

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class GeneratedFile:
    name: str
    label: str
    seed: int
    data: bytes
    planted: dict


@dataclass
class CorpusEntry:
    """Manifest row for one corpus file on disk."""

    name: str
    label: str
    path: Path

    def read(self) -> bytes:
        return self.path.read_bytes()


# ---------------------------------------------------------------------------
# fillers


# Each word with either separator the text filler puts after it.
_SPACED = tuple(w + b" " for w in _WORDS)
_BROKEN = tuple(w + b"\r\n" for w in _WORDS)


def _text_filler(rng: random.Random, n: int) -> bytes:
    draw, rand = rng.getrandbits, rng.random
    n_words = len(_WORDS)
    k = n_words.bit_length()
    out = bytearray()
    while len(out) < n:
        r = draw(k)  # rng.choice(_WORDS)
        while r >= n_words:
            r = draw(k)
        out += _SPACED[r] if rand() < 0.8 else _BROKEN[r]
        if rand() < 0.05:
            out += b"\x00" * rng.randrange(2, 12)
    return bytes(out[:n])


def _code_filler(rng: random.Random, n: int) -> bytes:
    draw, rand = rng.getrandbits, rng.random
    out = bytearray()
    while len(out) < n:
        out += _CODE_BYTES
        for _ in range(4):
            r = draw(9)  # rng.randrange(256)
            while r >= 256:
                r = draw(9)
            out.append(r)
        if rand() < 0.1:
            out += b"\x00" * rng.randrange(4, 16)
    return bytes(out[:n])


# ``rng.shuffle``'s swaps for a 256-byte block: each ``i`` from 255 down to 1
# with the bit count of its draw below ``i + 1``; a short block takes the tail.
_SWAPS = tuple((i, (i + 1).bit_length()) for i in range(255, 0, -1))


def _mixed_filler(rng: random.Random, n: int, scramble_frac: float) -> bytes:
    """Text filler with a fraction of its 256-byte blocks byte-shuffled.

    Shuffling never changes single-byte statistics, so histogram summaries
    cannot tell scrambled from natural blocks; only pairwise structure
    differs, which is what the bigram classifier keys on.  The fraction sets
    how far from the natural-text profile the section starts, and appending
    natural content walks it back proportionally.
    """
    buf = bytearray(_text_filler(rng, n))
    if scramble_frac > 0.0:
        draw = rng.getrandbits
        for start in range(0, len(buf), 256):
            if rng.random() < scramble_frac:
                block = list(buf[start : start + 256])
                for i, k in _SWAPS[256 - len(block) :]:  # rng.shuffle(block)
                    r = draw(k)
                    while r > i:
                        r = draw(k)
                    block[i], block[r] = block[r], block[i]
                buf[start : start + 256] = bytes(block)
    return bytes(buf)


def _hot_patch(rng: random.Random, content: bytearray, lo: float, hi: float) -> None:
    """Overwrite one contiguous run with bytes from 0xA0..0xBF."""
    if len(content) < 128:
        return
    span = int(len(content) * rng.uniform(lo, hi))
    span = min(span, len(content) - 1)
    start = rng.randrange(0, len(content) - span)
    draw = rng.getrandbits
    run = bytearray(span)
    for j in range(span):
        r = draw(6)  # rng.randrange(0x20)
        while r >= 0x20:
            r = draw(6)
        run[j] = 0xA0 + r
    content[start : start + span] = run


def _pick_imports(rng: random.Random, suspicious: bool) -> list[tuple[str, list[str]]]:
    dll_names = list(DLL_CATALOG)
    rng.shuffle(dll_names)
    chosen = dll_names[: rng.randint(2, 3)]
    out = []
    for dll in chosen:
        pool = list(DLL_CATALOG[dll])
        rng.shuffle(pool)
        out.append((dll, pool[: rng.randint(3, min(8, len(pool)))]))
    if suspicious:
        count = rng.randint(4, 8)
        apis = rng.sample(list(signals.SUSPICIOUS_APIS), count)
        out.insert(rng.randrange(len(out) + 1), ("KERNEL32.dll", apis))
    elif rng.random() < 0.1:
        out[0][1].append(rng.choice(list(signals.SUSPICIOUS_APIS)))
    return out


# ---------------------------------------------------------------------------
# the builder


def _build_file(file_seed: int, label: str, index: int) -> GeneratedFile:
    rng = random.Random(file_seed)
    malicious = label == "malicious"

    if malicious:
        quirks = set(rng.sample(ALL_QUIRKS, rng.randint(QUIRKS_LOW, QUIRKS_HIGH)))
    else:
        quirks = set()
        if rng.random() < BENIGN_NOISE:
            quirks.add(rng.choice(BENIGN_NOISE_QUIRKS))

    # Header slack is fixed by index so the advertised proportions hold for
    # any seed: 70% of files keep room for a new section header, 30% do not.
    slack = rng.randrange(40, 440) if index % 10 < 7 else rng.randrange(0, 40)

    n_sections = rng.randint(MIN_SECTIONS, MAX_SECTIONS)
    # Both labels carry some shuffled blocks so every pair-frequency bucket
    # has a benign baseline; the classifier then has to threshold between the
    # two bands rather than hugging zero, which keeps dilution by appended
    # natural content a workable counter.
    scramble_frac = rng.uniform(0.45, 0.75) if malicious else rng.uniform(0.08, 0.22)

    def datafiller(r: random.Random, size: int) -> bytes:
        return _mixed_filler(r, size, scramble_frac)

    # Hot-band runs appear in both labels at different rates: a weak,
    # dilutable texture signal rather than a separating one.
    hot_p, hot_lo, hot_hi = (0.30, 0.15, 0.35) if malicious else (0.12, 0.08, 0.20)

    # --- plan section contents -------------------------------------------
    names = [b".text"]
    contents: list[bytearray] = [bytearray(_code_filler(rng, rng.randrange(0x800, 0x2000)))]
    characteristics = [0x60000020]
    data_name_pool = [b".data", b".rdata", b".rsrc", b".tls"]
    rng.shuffle(data_name_pool)
    for j in range(n_sections - 1):
        names.append(data_name_pool[j % len(data_name_pool)])
        body = bytearray(datafiller(rng, rng.randrange(0x600, 0x1800)))
        if rng.random() < hot_p:
            _hot_patch(rng, body, hot_lo, hot_hi)
        contents.append(body)
        characteristics.append(0xC0000040 if names[-1] == b".data" else 0x40000040)

    if rng.random() < 0.35:
        # A compressed-resource-style high-entropy section; both labels get
        # these at the same rate so entropy alone cannot split the corpus.
        names.append(b".rsrc" if b".rsrc" not in names else b".pdata")
        contents.append(bytearray(rng.randbytes(rng.randrange(0x400, 0x1000))))
        characteristics.append(0x40000040)

    names.append(b".idata")
    contents.append(bytearray())  # filled in once the VA is known
    characteristics.append(0xC0000040)

    if QUIRK_NAME in quirks:
        candidates = [j for j in range(1, len(names)) if names[j] != b".idata"]
        victim = rng.choice(candidates)
        names[victim] = rng.choice(signals.SUSPICIOUS_SECTION_NAMES)

    if QUIRK_MOTIFS in quirks:
        want = rng.randint(MOTIFS_LOW, MOTIFS_HIGH) if malicious else rng.randint(1, 2)
        spread = [c for c in contents if len(c) >= 64]
        for k in range(want):
            # overwrite a random 16-byte window with a motif pattern
            content = spread[k % len(spread)]
            pos = rng.randrange(0, len(content) - 16)
            content[pos : pos + 16] = signals.MOTIFS[rng.randrange(len(signals.MOTIFS))]

    # --- lay out headers ---------------------------------------------------
    n = len(names)
    fmt = pe_model.PE_FORMATS[pe_model.PE32_MAGIC]
    dirs = [DataDirectory(0, 0) for _ in range(16)]
    opt_size = fmt.optional_fixed.size + len(dirs) * pe_model.DATA_DIRECTORY.size
    stub_len = 64 + rng.randrange(0, 64)
    headers_end0 = pe_model.headers_length(stub_len, opt_size, n)
    size_of_headers = pe_model.align_up(headers_end0 + slack, FILE_ALIGNMENT)
    stub_len += size_of_headers - slack - headers_end0

    # --- assign addresses ---------------------------------------------------
    sections: list[Section] = []
    va = SECTION_ALIGNMENT
    ptr = size_of_headers
    debug = pe_model.DEBUG_DIRECTORY
    for j in range(n):
        if names[j] == b".idata":
            dlls = _pick_imports(rng, QUIRK_IMPORTS in quirks)
            contents[j] = bytearray(pe_model.pack_import_table(va, dlls, fmt.thunk_size, b""))
            # the directory covers the descriptors and their zero terminator
            size = (len(dlls) + 1) * pe_model.IMPORT_DESCRIPTOR.size
            dirs[pe_model.DIR_IMPORT] = DataDirectory(va, size)
        if QUIRK_DEBUG in quirks and not dirs[pe_model.DIR_DEBUG].size and j > 0 and names[j] != b".idata":
            off = pe_model.align_up(len(contents[j]), 4)
            contents[j] += b"\x00" * (off - len(contents[j]))
            blob = b"RSDS" + rng.randbytes(16) + struct.pack("<I", 1) + b"build\\app.pdb\x00"
            at = off + debug.size  # the blob sits right behind its entry
            contents[j] += debug.pack(0, 0, 0, 0, 2, len(blob), va + at, ptr + at) + blob
            dirs[pe_model.DIR_DEBUG] = DataDirectory(va + off, debug.size)
        vs = len(contents[j])
        srd = pe_model.align_up(max(vs, 1), FILE_ALIGNMENT)
        if j == n - 1 or rng.random() < 0.25:
            # Leave memory-only tail space so the section-append action has
            # something to work with.
            vs = srd + rng.randrange(0x100, 0x600)
        sections.append(Section(names[j].ljust(8, b"\x00"), vs, va, srd, ptr, bytes(12),
                                characteristics[j], bytes(contents[j]).ljust(srd, b"\x00")))
        va = pe_model.align_up(va + max(vs, srd), SECTION_ALIGNMENT)
        ptr += srd
        if rng.random() < 0.2:
            ptr += FILE_ALIGNMENT * rng.randrange(1, 3)

    if not dirs[pe_model.DIR_DEBUG].size:
        quirks.discard(QUIRK_DEBUG)

    # --- header fields and DOS stub -------------------------------------------
    band = rng.choice((TS_PAST, TS_FUTURE)) if QUIRK_TIMESTAMP in quirks else TS_COMMON
    timestamp = rng.randrange(*band)
    checksum = rng.randrange(0x1000, 0xFFFF_FFFF) if QUIRK_CHECKSUM in quirks else 0
    dos_reserved = b"\x90\x00\x03\x00" + _text_filler(rng, 58)[4:]
    stub = b"This build runs nowhere.\r\n" + _text_filler(rng, stub_len)[26:]

    # --- overlay and certificate ----------------------------------------------
    body_end = sections[-1].pointer_to_raw_data + sections[-1].size_of_raw_data
    overlay = bytearray()
    if malicious:
        if QUIRK_NO_OVERLAY not in quirks:
            overlay += datafiller(rng, int(body_end * rng.uniform(0.05, 0.25)))
    else:
        if rng.random() < 0.9:
            overlay += _text_filler(rng, int(body_end * rng.uniform(0.15, 0.45)))

    if QUIRK_CERTIFICATE in quirks:
        overlay += b"\x00" * ((-(body_end + len(overlay))) % 8)
        cert_body = rng.randbytes(8 * rng.randrange(32, 96))
        cert = struct.pack("<IHH", 8 + len(cert_body), 0x0200, 0x0002) + cert_body
        dirs[pe_model.DIR_SECURITY] = DataDirectory(body_end + len(overlay), len(cert))
        overlay += cert

    # --- assemble -------------------------------------------------------------
    coff = pe_model.CoffHeader(0x14C, timestamp, 0, 0, 0x0102)
    optional = pe_model.OptionalHeader(
        magic=pe_model.PE32_MAGIC,
        run_a=bytes([14, 0]),
        size_of_code=sections[0].size_of_raw_data,
        run_b=struct.pack("<II", sum(s.size_of_raw_data for s in sections[1:]), 0),
        address_of_entry_point=sections[0].virtual_address + 0x40,
        # base of code, base of data (.idata makes n >= 2), image base
        run_c=struct.pack("<III", sections[0].virtual_address, sections[1].virtual_address, IMAGE_BASE),
        section_alignment=SECTION_ALIGNMENT,
        file_alignment=FILE_ALIGNMENT,
        run_d=struct.pack("<HHHHHHI", 6, 0, 1, 0, 6, 0, 0),
        size_of_image=va,  # the last section's end, section-aligned
        size_of_headers=size_of_headers,
        checksum=checksum,
        run_e=struct.pack("<HHIIIII", 3, 0x8140, 0x100000, 0x1000, 0x100000, 0x1000, 0),
        data_directories=dirs,
        trailing=b"",
    )
    img = pe_model.PeImage(dos_reserved, stub, coff, optional, sections, [], bytes(overlay))
    data = pe_model.serialize(img)

    planted = {
        "quirks": sorted(quirks),
        "sections": n,
        "slack": slack,
        # recounted on the final bytes: plants can land on one another
        "motifs": sum(signals.count_motif_hits(data)),
        "timestamp": timestamp,
        "size": len(data),
    }

    name = f"{'mal' if malicious else 'ben'}_{index:04d}.exe"
    _self_check(name, data, planted)
    return GeneratedFile(name=name, label=label, seed=file_seed, data=data, planted=planted)


def _self_check(name: str, data: bytes, planted: dict) -> None:
    try:
        img = pe_model.parse(data)
    except pe_model.PeError as exc:
        raise CorpusError(f"{name}: generated file does not parse: {exc}") from exc
    diags = pe_model.check_invariants(img)
    if diags:
        raise CorpusError(f"{name}: generated file has diagnostics: {[str(d) for d in diags]}")
    if img.header_slack != planted["slack"]:
        raise CorpusError(f"{name}: slack {img.header_slack} != planned {planted['slack']}")
    if len(img.sections) != planted["sections"]:
        raise CorpusError(f"{name}: sections {len(img.sections)} != planned {planted['sections']}")
    if pe_model.serialize(img) != data:
        raise CorpusError(f"{name}: round trip changed bytes")


# ---------------------------------------------------------------------------
# public API


def generate(spec: CorpusSpec) -> list[GeneratedFile]:
    """Generate the whole corpus in memory, malicious files first.

    The files are built in forked worker processes, one per usable CPU and
    no more than there are files, and come back in job order; each derives
    from its own seed, so the bytes are those of a sequential build.  Fork
    keeps the workers on the parent's modules as they are, patches included;
    it copies only the calling thread, so no other thread may hold a lock the
    workers need.
    """
    jobs = [(fanout(spec.seed, "mal", i), "malicious", i) for i in range(spec.malicious)]
    jobs += [(fanout(spec.seed, "ben", i), "benign", i) for i in range(spec.benign)]
    if not jobs:
        return []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(jobs))
    chunksize = -(-len(jobs) // (4 * workers))  # four chunks a worker even out their pace
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_build_file, *zip(*jobs), chunksize=chunksize))
    finally:
        pool.shutdown(cancel_futures=True)  # a worker's error drops the files not yet begun


def write_corpus(files: list[GeneratedFile], out_dir: str | Path, spec: CorpusSpec) -> Path:
    """Write files plus ``manifest.jsonl``/``meta.json``; returns the manifest path."""
    out = Path(out_dir)
    (out / "files").mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.jsonl"
    with manifest.open("w", encoding="utf-8") as fh:
        for f in files:
            rel = f"files/{f.name}"
            (out / rel).write_bytes(f.data)
            row = {
                "name": f.name,
                "path": rel,
                "label": f.label,
                "seed": f.seed,
                "planted": f.planted,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    (out / "meta.json").write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return manifest


def load_corpus(corpus_dir: str | Path) -> list[CorpusEntry]:
    """Read ``manifest.jsonl``; every row's file must resolve inside the corpus."""
    root = Path(corpus_dir)
    manifest = root / "manifest.jsonl"
    try:
        lines = manifest.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{manifest}: not UTF-8: {exc}") from None
    inside = root.resolve()
    entries = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            path = (root / row["path"]).resolve()  # ValueError on a NUL
            if inside not in path.parents:
                raise ValueError(f"path {row['path']!r} leaves the corpus directory")
            name, label = row["name"], row["label"]
            if not (isinstance(name, str) and isinstance(label, str)):
                raise TypeError("name and label must be strings")
            name.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
            entries.append(CorpusEntry(name=name, label=label, path=path))
        except (ValueError, KeyError, TypeError, OSError, RuntimeError) as exc:
            raise CorpusError(f"{manifest}:{lineno}: bad manifest row: {exc!r}") from None
    return entries
