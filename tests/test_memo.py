"""The content memo: values computed from bytes, keyed by the SHA-256 of the
bytes, at most ``entries`` of them, least recently used out first, with
counted hits and misses.  Its users' wiring (which constant bounds which
memo, what each one keeps) is tested beside each user."""

from __future__ import annotations

import ast
import hashlib
import sys
from pathlib import Path

import pytest

from amg.memo import ContentMemo

MEMO_PY = Path(__file__).resolve().parent.parent / "src" / "amg" / "memo.py"


def _unreached():
    raise AssertionError("a kept content was computed again")


def _order(memo: ContentMemo, names: list[bytes]) -> list[bytes]:
    """The kept contents among ``names``, least recently used first."""
    by_key = {hashlib.sha256(name).digest(): name for name in names}
    return [by_key[key] for key in memo._values]


def test_a_miss_computes_once_and_a_hit_answers_from_the_memo():
    memo = ContentMemo(4)
    calls = []

    def compute(value):
        calls.append(value)
        return value

    assert memo.get(b"abc", lambda: compute(1)) == 1
    assert memo.get(b"abc", lambda: compute(2)) == 1
    assert memo.get(bytearray(b"abc"), lambda: compute(3)) == 1  # keyed by content, not type
    assert calls == [1]
    assert (memo.hits, memo.misses, len(memo)) == (2, 1, 1)


@pytest.mark.parametrize("value", [None, 0.0, float("inf"), False, b""])
def test_falsy_and_infinite_values_are_kept(value):
    memo = ContentMemo(2)
    assert memo.get(b"x", lambda: value) is value
    assert memo.get(b"x", _unreached) is value
    assert (memo.hits, memo.misses) == (1, 1)


def test_the_bound_drops_the_least_recently_used_first():
    names = [b"a", b"b", b"c", b"d"]
    memo = ContentMemo(3)
    for name in names[:3]:
        memo.get(name, lambda: name.upper())
    assert _order(memo, names) == [b"a", b"b", b"c"]
    assert memo.get(b"a", _unreached) == b"A"  # a hit is used most recently
    assert _order(memo, names) == [b"b", b"c", b"a"]
    memo.get(b"d", lambda: b"D")  # so the next miss drops b, not a
    assert _order(memo, names) == [b"c", b"a", b"d"]
    assert memo.get(b"b", lambda: b"again") == b"again"  # a dropped content is computed again
    assert _order(memo, names) == [b"a", b"d", b"b"]
    assert len(memo) == memo.entries == 3
    assert (memo.hits, memo.misses) == (1, 5)


def test_every_lookup_is_one_hit_or_one_miss():
    memo = ContentMemo(2)
    lookups = [b"a", b"b", b"a", b"c", b"b", b"b", b"a", b"c", b"c"]
    for name in lookups:
        memo.get(name, lambda: name)
    # hits: the first repeat of a, b right after b, c right after c; c, b, a, c each drop one
    assert (memo.hits, memo.misses) == (3, 6)
    assert memo.hits + memo.misses == len(lookups)


def test_a_value_not_kept_is_never_stored():
    memo = ContentMemo(2)
    memo.get(b"a", lambda: 1)
    memo.get(b"b", lambda: 2)
    assert memo.get(b"t", lambda: 3, keep=False) == 3
    assert memo.get(b"t", lambda: 4, keep=False) == 4  # computed again: it was not stored
    assert _order(memo, [b"a", b"b", b"t"]) == [b"a", b"b"]  # and nothing was dropped for it
    assert memo.get(b"a", _unreached, keep=False) == 1  # a kept content still answers
    assert _order(memo, [b"a", b"b"]) == [b"b", b"a"]
    assert (memo.hits, memo.misses, len(memo)) == (1, 4, 2)


def test_a_zero_bound_keeps_nothing():
    memo = ContentMemo(0)
    assert memo.get(b"a", lambda: 1) == 1
    assert memo.get(b"a", lambda: 2) == 2
    assert (memo.hits, memo.misses, len(memo)) == (0, 2, 0)


def test_a_failing_compute_stores_nothing():
    memo = ContentMemo(2)

    def fail():
        raise ValueError("bad bytes")

    with pytest.raises(ValueError):
        memo.get(b"a", fail)
    assert len(memo) == 0
    assert memo.get(b"a", lambda: 1) == 1


def test_memo_module_imports_only_the_standard_library():
    # the detector and the env both import it, so the seal holds only while it stays a leaf
    mods = set()
    for node in ast.walk(ast.parse(MEMO_PY.read_text())):
        if isinstance(node, ast.Import):
            mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "memo.py imports from its own package"
            mods.add(node.module)
    assert mods and all(mod.split(".")[0] in sys.stdlib_module_names for mod in mods), mods
