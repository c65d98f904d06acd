"""The suite's shared corpus, content pool and world, each built once per process.

The session fixtures in ``conftest.py`` return these.  A hypothesis test
reads them in its body instead of taking the fixtures as arguments:
hypothesis prints every argument of a failing example, and the corpus alone
runs to megabytes.
"""

from __future__ import annotations

from functools import cache

from amg.corpus import CorpusSpec, GeneratedFile, generate
from amg.harness import World, prepare_world
from amg.pe_mods import BenignContentPool, build_pool

UNIT_SPEC = CorpusSpec(malicious=140, benign=80, seed=7)


@cache
def corpus_files() -> list[GeneratedFile]:
    return generate(UNIT_SPEC)


@cache
def mal_bytes() -> list[bytes]:
    return [f.data for f in corpus_files() if f.label == "malicious"]


@cache
def ben_bytes() -> list[bytes]:
    return [f.data for f in corpus_files() if f.label == "benign"]


@cache
def pool() -> BenignContentPool:
    return build_pool(ben_bytes())


@cache
def world() -> World:
    return prepare_world(mal_bytes(), ben_bytes(), seed=1)
