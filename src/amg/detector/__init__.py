"""Black-box malware classifiers over raw file bytes.

Two kinds share one boosted-stump backend: the *structural* kind scores 128
format-derived features of a parsed image, the *bigram* kind scores 1024
hashed byte-pair frequencies and never looks at structure.  Both expose the
same surface: ``classify(raw)`` returns a verdict (files that fail to parse
are rejected as malicious outright), ``score(raw)`` exposes the additive
margin, positive meaning malicious.  Each detector scores a distinct content
once: its margins are memoized by SHA-256 of the bytes.  Each detector also
carries the counts of its last miss, so a miss counts again only the bytes
that differ from those; its features are the same as counting everything.
The carried counts belong to that detector alone: ``fresh`` and ``load``
start without any, and training counts every file in full.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .. import pe_model
from ..memo import ContentMemo
from .boost import BoostedStumps, fit_stumps
from .features import (
    N_FEATURES_BIGRAM,
    N_FEATURES_STRUCTURAL,
    BigramCounts,
    StructuralCounts,
    extract_features_bigram,
    extract_features_structural,
)

MAGIC = b"AMGDET01"
#: magic, kind code, n_features, n_rounds, bias, learning_rate; the stump
#: arrays follow.
_HEAD = struct.Struct("<8sBII d d")

#: Margins each detector keeps, least recently used out first.  A full memo of
#: 32-byte digests and floats takes about 0.7 MB (tracemalloc, CPython 3.11).
MEMO_ENTRIES = 4096


class DegenerateCorpus(ValueError):
    """Raised when training data does not contain both labels."""


class DetectorFormatError(ValueError):
    """Raised when a detector file is malformed or has the wrong magic."""


class Verdict(str, Enum):
    MALICIOUS = "malicious"
    BENIGN = "benign"


class DetectorKind(str, Enum):
    STRUCTURAL = "structural"
    BIGRAM = "bigram"


_KIND_ALIASES = {
    "structural": DetectorKind.STRUCTURAL,
    "a": DetectorKind.STRUCTURAL,
    "bigram": DetectorKind.BIGRAM,
    "b": DetectorKind.BIGRAM,
}

#: Each kind's carried counts; a new one's first update counts every byte.
_CARRY = {DetectorKind.STRUCTURAL: StructuralCounts, DetectorKind.BIGRAM: BigramCounts}

_KIND_CODE = {DetectorKind.STRUCTURAL: 0, DetectorKind.BIGRAM: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

_TRAIN_DEFAULTS = {
    DetectorKind.STRUCTURAL: dict(n_rounds=200, learning_rate=0.1, l2=1.0, colsample=1.0),
    DetectorKind.BIGRAM: dict(n_rounds=250, learning_rate=0.1, l2=1.0, colsample=0.25),
}


def parse_kind(name: str) -> DetectorKind:
    try:
        return _KIND_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown detector kind {name!r}") from None


@dataclass
class Detector:
    kind: DetectorKind
    model: BoostedStumps
    _memo: ContentMemo = field(
        default_factory=lambda: ContentMemo(MEMO_ENTRIES), init=False, repr=False, compare=False
    )
    # what the last miss counted, carried to the next one
    _carry: StructuralCounts | BigramCounts = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._carry = _CARRY[self.kind]()

    @property
    def n_features(self) -> int:
        return (
            N_FEATURES_STRUCTURAL
            if self.kind is DetectorKind.STRUCTURAL
            else N_FEATURES_BIGRAM
        )

    def score(self, raw: bytes) -> float:
        """Additive margin; +inf when the file cannot be parsed.

        The margin is a pure function of the bytes, so a content scored before
        is looked up by its SHA-256 instead of being parsed and scored again.
        """
        return self._memo.get(raw, lambda: self._margin(raw))

    def _margin(self, raw: bytes) -> float:
        try:
            x = _features(self.kind, raw, pe_model.parse(raw), self._carry)
        except pe_model.PeError:
            return math.inf
        return self.model.margin_one(x)

    def classify(self, raw: bytes) -> Verdict:
        return Verdict.MALICIOUS if self.score(raw) > 0 else Verdict.BENIGN

    def fresh(self) -> "Detector":
        """The same classifier with an empty memo and no carried counts, as ``load`` would give."""
        return Detector(self.kind, self.model)

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        m = self.model
        head = _HEAD.pack(
            MAGIC, _KIND_CODE[self.kind], self.n_features, m.n_rounds, m.bias, m.learning_rate
        )
        body = (
            m.feature.astype("<u4").tobytes()
            + m.threshold.astype("<f8").tobytes()
            + m.left_value.astype("<f8").tobytes()
            + m.right_value.astype("<f8").tobytes()
        )
        Path(path).write_bytes(head + body)

    @classmethod
    def load(cls, path: str | Path) -> "Detector":
        blob = Path(path).read_bytes()
        head_size = _HEAD.size
        if len(blob) < head_size:
            raise DetectorFormatError("file is too short to be a detector")
        magic, code, n_features, n_rounds, bias, lr = _HEAD.unpack_from(blob)
        if magic != MAGIC:
            raise DetectorFormatError("bad magic; not a detector file")
        if code not in _CODE_KIND:
            raise DetectorFormatError(f"unknown detector kind code {code}")
        expect = head_size + n_rounds * (4 + 8 + 8 + 8)
        if len(blob) != expect:
            raise DetectorFormatError(
                f"detector payload is {len(blob)} bytes, expected {expect}"
            )
        off = head_size
        feature = np.frombuffer(blob, dtype="<u4", count=n_rounds, offset=off)
        if n_rounds and feature.max() >= n_features:
            raise DetectorFormatError(
                f"stump feature index {feature.max()} out of range for {n_features} features"
            )
        feature = feature.astype(np.int32)
        off += 4 * n_rounds
        threshold = np.frombuffer(blob, dtype="<f8", count=n_rounds, offset=off).copy()
        off += 8 * n_rounds
        left = np.frombuffer(blob, dtype="<f8", count=n_rounds, offset=off).copy()
        off += 8 * n_rounds
        right = np.frombuffer(blob, dtype="<f8", count=n_rounds, offset=off).copy()
        if not all(np.isfinite(a).all() for a in ((bias, lr), threshold, left, right)):
            raise DetectorFormatError("non-finite bias, learning rate, threshold or leaf value")
        # The largest margin any row can reach, summed as margin_one sums it:
        # if this is finite, no score overflows.
        with np.errstate(over="ignore"):
            reach = abs(bias) + abs(lr) * np.maximum(np.abs(left), np.abs(right)).sum()
        if not np.isfinite(reach):
            raise DetectorFormatError("detector margins can overflow")
        kind = _CODE_KIND[code]
        det = cls(
            kind,
            BoostedStumps(
                bias=bias,
                learning_rate=lr,
                feature=feature,
                threshold=threshold,
                left_value=left,
                right_value=right,
            ),
        )
        if det.n_features != n_features:
            raise DetectorFormatError("feature count disagrees with the detector kind")
        return det


def _features(
    kind: DetectorKind,
    raw: bytes,
    img: pe_model.PeImage | None,
    carry: StructuralCounts | BigramCounts,
) -> np.ndarray:
    """``kind``'s feature vector for ``raw``, counted from ``carry``, the
    counts of earlier bytes of that kind; the structural kind parses ``raw``
    when ``img`` is None."""
    if kind is DetectorKind.STRUCTURAL:
        return extract_features_structural(pe_model.parse(raw) if img is None else img, raw, carry)
    return extract_features_bigram(raw, carry)


def extract_matrix(kind: DetectorKind, files: Iterable[bytes]) -> np.ndarray:
    """One row of features per file, each counted in full."""
    return np.vstack([_features(kind, raw, None, _CARRY[kind]()) for raw in files])


def train_detector(
    kind: DetectorKind,
    samples: Sequence[tuple[bytes, int]],
    seed: int = 0,
) -> Detector:
    """Fit a detector on (bytes, label) pairs; label 1 marks malicious."""
    labels = {label for _, label in samples}
    if labels != {0, 1}:
        raise DegenerateCorpus(
            f"training data must contain both labels, got {sorted(labels)}"
        )
    X = extract_matrix(kind, (raw for raw, _ in samples))
    y = np.array([label for _, label in samples], dtype=np.float64)
    model = fit_stumps(X, y, seed=seed, **_TRAIN_DEFAULTS[kind])
    return Detector(kind, model)


def evaluate_accuracy(det: Detector, samples: Sequence[tuple[bytes, int]]) -> float:
    if not samples:
        raise ValueError("no samples to evaluate")
    correct = 0
    for raw, label in samples:
        verdict = det.classify(raw)
        predicted = 1 if verdict is Verdict.MALICIOUS else 0
        correct += predicted == label
    return correct / len(samples)
