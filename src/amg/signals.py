"""Planted-signal vocabulary shared by the corpus generator and detector A.

The synthetic corpus marks its "malicious" files with a handful of structural
tells: rare 16-byte motifs sprinkled through section data, imports of
suspicious API names, oddly named sections, and header quirks.  Detector A's
feature extractor looks for the same vocabulary.  The RL observation code
deliberately does not import this module; the agent only ever sees byte
statistics and generic header scalars.
"""

from __future__ import annotations

import hashlib

import numpy as np


#: Length of every motif in :data:`MOTIFS`.
MOTIF_LEN = 16


def _motif(i: int) -> bytes:
    return hashlib.sha256(f"amg-motif-{i:02d}".encode()).digest()[:MOTIF_LEN]


#: 16-byte patterns that essentially never occur by accident.
MOTIFS: tuple[bytes, ...] = tuple(_motif(i) for i in range(32))

#: API names the corpus plants into malicious import tables.
SUSPICIOUS_APIS: tuple[str, ...] = (
    "VirtualAllocEx",
    "WriteProcessMemory",
    "CreateRemoteThread",
    "OpenProcess",
    "SetWindowsHookExA",
    "RegSetValueExA",
    "InternetOpenUrlA",
    "URLDownloadToFileA",
    "WinExec",
    "ShellExecuteA",
    "IsDebuggerPresent",
    "AdjustTokenPrivileges",
    "CryptEncrypt",
    "GetAsyncKeyState",
    "SetFileAttributesA",
    "TerminateProcess",
)

#: Section names that read as packer/crypter output.
SUSPICIOUS_SECTION_NAMES: tuple[bytes, ...] = (
    b".enc",
    b".xyz",
    b".upx0",
    b".upx1",
    b".vmp0",
    b".crypt",
    b".zz",
    b".pack",
)

#: Conventional section names seen in ordinary executables.
COMMON_SECTION_NAMES: tuple[bytes, ...] = (
    b".text",
    b".data",
    b".rdata",
    b".rsrc",
    b".reloc",
    b".idata",
    b".bss",
    b".tls",
)

#: Fixed 16-slot vocabulary used for section-name one-hot features.
SECTION_NAME_VOCAB: tuple[bytes, ...] = COMMON_SECTION_NAMES + SUSPICIOUS_SECTION_NAMES


_MOTIF_INDEX = {m: i for i, m in enumerate(MOTIFS)}
# Indexed by a position's first two bytes (big-endian); the 32 motifs have 32
# distinct 2-byte prefixes, so only a few positions per file need a full check.
_PREFIXES = np.zeros(65_536, dtype=bool)
_PREFIXES[[m[0] << 8 | m[1] for m in MOTIFS]] = True


def count_motif_hits(data: bytes) -> list[int]:
    """Occurrence count of every motif in ``data``.

    Equal to ``[data.count(m) for m in MOTIFS]``, which counts occurrences
    greedily from the left without overlap.  No motif has a border (a proper
    prefix equal to its suffix), so two occurrences of one motif never
    overlap, and counting every position a motif starts at, as this does,
    gives the same.  That is what lets detector A count a changed file over
    only the changed window widened by ``MOTIF_LEN - 1`` bytes: an
    occurrence is either wholly inside the unchanged bytes or wholly inside
    that widened window, never both.
    """
    hits = [0] * len(MOTIFS)
    starts = len(data) - MOTIF_LEN + 1
    if starts <= 0:
        return hits
    b = np.frombuffer(data, dtype=np.uint8, count=starts + 1)
    keys = (b[:-1].astype(np.uint16) << 8) | b[1:]
    for p in np.flatnonzero(_PREFIXES.take(keys)).tolist():
        i = _MOTIF_INDEX.get(data[p : p + MOTIF_LEN])
        if i is not None:
            hits[i] += 1
    return hits
