"""A bounded memo of values computed from bytes, keyed by their SHA-256.

Detector margins, control reports and observations are each a pure function
of a file's bytes, so a content met before is looked up instead of being
computed again.  Every user keeps its own instance: the classifier and the
environment share no memo, so nothing the classifier computes reaches an
agent.  This module imports only the standard library.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, TypeVar

V = TypeVar("V")


class ContentMemo:
    """At most ``entries`` values, least recently used out first.

    ``hits`` and ``misses`` count the lookups answered from the memo and the
    ones that called ``compute``.
    """

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.hits = 0
        self.misses = 0
        self._values: OrderedDict[bytes, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, data: bytes, compute: Callable[[], V], keep: bool = True) -> V:
        """The value kept for ``data``, or ``compute()``, which is kept only if ``keep``."""
        key = hashlib.sha256(data).digest()
        try:
            self._values.move_to_end(key)
        except KeyError:
            self.misses += 1
            value = compute()
            if keep:
                self._values[key] = value
                if len(self._values) > self.entries:
                    self._values.popitem(last=False)
            return value
        self.hits += 1
        return self._values[key]
