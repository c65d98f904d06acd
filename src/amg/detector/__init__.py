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
from typing import NamedTuple, Sequence

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

#: The stump arrays after the head, in file order, each ``n_rounds`` values
#: of its stored dtype.
_ARRAYS = (("feature", "<u4"), ("threshold", "<f8"), ("left_value", "<f8"), ("right_value", "<f8"))

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


class _Kind(NamedTuple):
    alias: str  # what ``parse_kind`` also accepts
    code: int  # the kind's byte in a saved file
    n_features: int
    counts: type  # what a miss carries; a new one's first update counts every byte
    fit: dict  # ``fit_stumps``' settings, but the seed


#: Everything that differs between the kinds but the feature extractor, which
#: ``_features`` looks up by name at each call, so that rebinding it takes effect.
_KINDS = {
    DetectorKind.STRUCTURAL: _Kind(
        "a", 0, N_FEATURES_STRUCTURAL, StructuralCounts,
        dict(n_rounds=200, learning_rate=0.1, l2=1.0, colsample=1.0),
    ),
    DetectorKind.BIGRAM: _Kind(
        "b", 1, N_FEATURES_BIGRAM, BigramCounts,
        dict(n_rounds=250, learning_rate=0.1, l2=1.0, colsample=0.25),
    ),
}


def parse_kind(name: str) -> DetectorKind:
    key = name.strip().lower()
    for kind, facts in _KINDS.items():
        if key in (kind.value, facts.alias):
            return kind
    accepted = ", ".join(n for kind, facts in _KINDS.items() for n in (kind.value, facts.alias))
    raise ValueError(f"unknown detector kind {name!r}; expected one of {accepted}")


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
        self._carry = _KINDS[self.kind].counts()

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
        m, facts = self.model, _KINDS[self.kind]
        head = _HEAD.pack(MAGIC, facts.code, facts.n_features, m.n_rounds, m.bias, m.learning_rate)
        body = b"".join(getattr(m, name).astype(dtype).tobytes() for name, dtype in _ARRAYS)
        Path(path).write_bytes(head + body)

    @classmethod
    def load(cls, path: str | Path) -> "Detector":
        blob = Path(path).read_bytes()
        if len(blob) < _HEAD.size:
            raise DetectorFormatError("file is too short to be a detector")
        magic, code, n_features, n_rounds, bias, lr = _HEAD.unpack_from(blob)
        if magic != MAGIC:
            raise DetectorFormatError("bad magic; not a detector file")
        kind = next((k for k, facts in _KINDS.items() if facts.code == code), None)
        if kind is None:
            raise DetectorFormatError(f"unknown detector kind code {code}")
        expect = _HEAD.size + n_rounds * sum(np.dtype(dtype).itemsize for _, dtype in _ARRAYS)
        if len(blob) != expect:
            raise DetectorFormatError(
                f"detector payload is {len(blob)} bytes, expected {expect}"
            )
        arrays, off = {}, _HEAD.size
        for name, dtype in _ARRAYS:
            arrays[name] = np.frombuffer(blob, dtype=dtype, count=n_rounds, offset=off).copy()
            off += arrays[name].nbytes
        feature = arrays["feature"]
        if n_rounds and feature.max() >= n_features:
            raise DetectorFormatError(
                f"stump feature index {feature.max()} out of range for {n_features} features"
            )
        arrays["feature"] = feature.astype(np.int32)
        if not all(np.isfinite(a).all() for a in ((bias, lr), *arrays.values())):
            raise DetectorFormatError("non-finite bias, learning rate, threshold or leaf value")
        # The largest margin any row can reach, summed as margin_one sums it:
        # if this is finite, no score overflows.
        left, right = arrays["left_value"], arrays["right_value"]
        with np.errstate(over="ignore"):
            reach = abs(bias) + abs(lr) * np.maximum(np.abs(left), np.abs(right)).sum()
        if not np.isfinite(reach):
            raise DetectorFormatError("detector margins can overflow")
        if _KINDS[kind].n_features != n_features:
            raise DetectorFormatError("feature count disagrees with the detector kind")
        return cls(kind, BoostedStumps(bias=bias, learning_rate=lr, **arrays))


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


def train_detector(
    kind: DetectorKind,
    samples: Sequence[tuple[bytes, int]],
    seed: int,
) -> Detector:
    """Fit a detector on (bytes, label) pairs, each counted in full; label 1 marks malicious."""
    labels = {label for _, label in samples}
    if labels != {0, 1}:
        raise DegenerateCorpus(
            f"training data must contain both labels, got {sorted(labels)}"
        )
    facts = _KINDS[kind]
    X = np.vstack([_features(kind, raw, None, facts.counts()) for raw, _ in samples])
    y = np.array([label for _, label in samples], dtype=np.float64)
    return Detector(kind, fit_stumps(X, y, seed=seed, **facts.fit))


def evaluate_accuracy(det: Detector, samples: Sequence[tuple[bytes, int]]) -> float:
    if not samples:
        raise ValueError("no samples to evaluate")
    correct = 0
    for raw, label in samples:
        verdict = det.classify(raw)
        predicted = 1 if verdict is Verdict.MALICIOUS else 0
        correct += predicted == label
    return correct / len(samples)
