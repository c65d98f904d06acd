"""Shared fixtures: a small deterministic corpus and a prepared world.

Session scope keeps generation and detector training to one pass for the
whole suite; every consumer treats the fixtures as read-only.  Each fixture
returns the object ``session_data`` builds once, which a hypothesis test
reads in its body instead.
"""

from __future__ import annotations

import pytest

import session_data
from amg.harness import World
from amg.pe_mods import BenignContentPool


@pytest.fixture(scope="session")
def corpus_files():
    return session_data.corpus_files()


@pytest.fixture(scope="session")
def mal_bytes() -> list[bytes]:
    return session_data.mal_bytes()


@pytest.fixture(scope="session")
def ben_bytes() -> list[bytes]:
    return session_data.ben_bytes()


@pytest.fixture(scope="session")
def pool() -> BenignContentPool:
    return session_data.pool()


@pytest.fixture(scope="session")
def world() -> World:
    return session_data.world()
