"""The number of settable values in ``src/amg``, and its line count, may only fall.

A new option, parameter default or dataclass default has to raise
:data:`CEILING` in the same diff, where the raise is visible; new lines of
code have to raise :data:`LINE_CEILING` the same way.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from settable_values import settable_values

SRC = Path(__file__).resolve().parent.parent / "src" / "amg"

#: The count of ``python3 tests/settable_values.py``.
CEILING = 30

#: The total of ``wc -l src/amg/*.py src/amg/*/*.py``.
LINE_CEILING = 4848


def test_settable_values_stay_under_the_ceiling():
    found = settable_values(SRC)
    assert len(found) <= CEILING, "\n".join(found)


def test_no_public_seed_parameter_has_a_default():
    """A defaulted seed hides a caller that forgot one; dataclass fields
    such as ``CorpusSpec.seed`` are records, not calls, and may keep theirs."""
    assert [value for value in settable_values(SRC) if value.endswith("(seed)")] == []


def test_source_lines_stay_under_the_ceiling():
    files = sorted([*SRC.glob("*.py"), *SRC.glob("*/*.py")])
    lines = sum(path.read_bytes().count(b"\n") for path in files)  # what wc -l counts
    assert lines <= LINE_CEILING, f"{lines} lines in {len(files)} files"


def test_counter_counts_only_what_a_caller_can_set(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent('''
        from dataclasses import dataclass, field
        from typing import ClassVar

        def public(a, b=1, *, c=2, d):
            pass

        def _private(a=1):
            pass

        @dataclass
        class Config:
            x: int
            y: int = 3
            z: list = field(default_factory=list)
            hidden: int = field(default=0, init=False)
            shared: ClassVar[int] = 4

            def method(self, e=5):
                pass

            def _helper(self, f=6):
                pass

        class Plain:
            w: int = 7

            def __init__(self, g=8):
                pass
    '''))
    assert settable_values(tmp_path) == [
        "m.py:public(b)",
        "m.py:public(c)",
        "m.py:Config.y",
        "m.py:Config.z",
        "m.py:Config.method(e)",
        "m.py:Plain.__init__(g)",
    ]
