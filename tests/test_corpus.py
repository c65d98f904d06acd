"""Generator contract: determinism, fillers that draw exactly as the per-call
reference did, a pinned corpus, label design, on-disk round trip, and a
manifest reader that returns entries inside the corpus or raises
``CorpusError``."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from amg import corpus, pe_model
from amg.corpus import (
    ALL_QUIRKS,
    CorpusError,
    CorpusSpec,
    QUIRK_CERTIFICATE,
    QUIRK_CHECKSUM,
    QUIRK_NO_OVERLAY,
    QUIRK_TIMESTAMP,
    TS_COMMON,
    generate,
    load_corpus,
    write_corpus,
)
from amg.signals import MOTIFS
import corpus_reference
from session_data import UNIT_SPEC
from fuzzing import damaged, json_values

SMALL = CorpusSpec(malicious=12, benign=8, seed=3)


def test_generation_is_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    assert [f.data for f in a] == [f.data for f in b]
    assert [f.name for f in a] == [f.name for f in b]


def test_seed_changes_content():
    a = generate(SMALL)
    b = generate(CorpusSpec(malicious=12, benign=8, seed=4))
    assert [f.data for f in a] != [f.data for f in b]


# ---------------------------------------------------------------------------
# the fillers' inline draws against the per-call reference

FILLER_SEEDS = range(40)
FILLER_SIZES = (0, 1, 58, 255, 256, 257, 3000)


def _same_draws(call_new, call_ref, seed):
    new, ref = random.Random(seed), random.Random(seed)
    assert call_new(new) == call_ref(ref), seed
    assert new.getstate() == ref.getstate(), seed


@pytest.mark.parametrize("n", FILLER_SIZES)
@pytest.mark.parametrize("filler", ["_text_filler", "_code_filler"])
def test_filler_matches_reference_bytes_and_rng_state(filler, n):
    new, ref = getattr(corpus, filler), getattr(corpus_reference, filler)
    for seed in FILLER_SEEDS:
        _same_draws(lambda rng: new(rng, n), lambda rng: ref(rng, n), seed)


@pytest.mark.parametrize("scramble_frac", [0.0, 0.08, 0.75, 1.0])
def test_mixed_filler_matches_reference_bytes_and_rng_state(scramble_frac):
    """Every size but 0 and 256 ends on a short block, which shuffles too."""
    for n in FILLER_SIZES:
        for seed in FILLER_SEEDS:
            _same_draws(
                lambda rng: corpus._mixed_filler(rng, n, scramble_frac),
                lambda rng: corpus_reference._mixed_filler(rng, n, scramble_frac),
                seed,
            )


@pytest.mark.parametrize("size", [127, 128, 129, 1536, 6000])
@pytest.mark.parametrize("lo, hi", [(0.15, 0.35), (0.08, 0.20), (0.0, 1.0)])
def test_hot_patch_matches_reference_bytes_and_rng_state(size, lo, hi):
    for seed in FILLER_SEEDS:
        body = random.Random(-seed).randbytes(size)
        new, ref = bytearray(body), bytearray(body)
        new_rng, ref_rng = random.Random(seed), random.Random(seed)
        corpus._hot_patch(new_rng, new, lo, hi)
        corpus_reference._hot_patch(ref_rng, ref, lo, hi)
        assert new == ref, seed
        assert new_rng.getstate() == ref_rng.getstate(), seed


@pytest.mark.parametrize("spec", [SMALL, CorpusSpec(malicious=20, benign=14, seed=131)])
def test_generate_matches_generation_with_reference_fillers(monkeypatch, spec):
    new = generate(spec)
    for name in ("_text_filler", "_code_filler", "_mixed_filler", "_hot_patch"):
        monkeypatch.setattr(corpus, name, getattr(corpus_reference, name))
    ref = generate(spec)
    assert [(f.name, f.data, f.planted) for f in new] == [(f.name, f.data, f.planted) for f in ref]


def test_generate_reaches_patches_in_its_workers(monkeypatch):
    """Workers are forked, so a patched filler is the one they call: a
    sentinel ``.text`` filler that still parses changes every file.  Under
    spawn or forkserver the workers would import the module afresh, and the
    reference-filler oracle above would compare the new fillers with
    themselves."""
    new = generate(SMALL)
    monkeypatch.setattr(corpus, "_code_filler", lambda rng, n: b"\xcc" * n)
    sentinel = generate(SMALL)
    assert [f.name for f in sentinel] == [f.name for f in new]
    assert all(s.data != f.data for s, f in zip(sentinel, new))


def _golden_record(files) -> dict:
    rows = "".join(
        json.dumps(
            {"name": f.name, "label": f.label, "seed": f.seed, "planted": f.planted},
            sort_keys=True,
        )
        + "\n"
        for f in files
    )
    return {
        "spec": UNIT_SPEC.to_dict(),
        "files": len(files),
        "data_sha256": hashlib.sha256(b"".join(f.data for f in files)).hexdigest(),
        "planted_sha256": hashlib.sha256(rows.encode()).hexdigest(),
    }


GOLDEN = Path(__file__).parent / "golden" / "corpus.json"


def test_corpus_matches_golden(corpus_files):
    """The session corpus itself, pinned by the SHA-256 of its bytes and of
    its sorted-JSON manifest rows; captured before the fillers drew from
    ``getrandbits``.  A change that moves it re-captures the file and says why."""
    assert _golden_record(corpus_files) == json.loads(GOLDEN.read_text())


def _u(data: bytes, off: int, n: int) -> int:
    return int.from_bytes(data[off : off + n], "little")


def test_headers_sit_at_the_pe_spec_offsets(corpus_files):
    """Each field read at its PE/COFF specification offset with
    ``int.from_bytes``, not through ``pe_model``'s structs, which the corpus
    writes with and the parser reads with: a fault in one of them is made
    alike on both sides, and the round trip cannot see it."""
    for f in corpus_files:
        data, quirks = f.data, f.planted["quirks"]
        assert data[:2] == b"MZ", f.name
        pe = _u(data, 0x3C, 4)  # e_lfanew
        assert data[pe : pe + 4] == b"PE\0\0", f.name
        coff, n = pe + 4, f.planted["sections"]
        assert (_u(data, coff, 2), _u(data, coff + 2, 2)) == (0x14C, n), f.name
        assert _u(data, coff + 4, 4) == f.planted["timestamp"], f.name
        assert _u(data, coff + 16, 2) == 0xE0, f.name  # SizeOfOptionalHeader
        opt = coff + 20
        assert _u(data, opt, 2) == 0x10B, f.name
        assert (_u(data, opt + 64, 4) != 0) == ("checksum" in quirks), f.name
        assert _u(data, opt + 92, 4) == 16, f.name  # NumberOfRvaAndSizes
        table = opt + 0xE0
        assert data[table : table + 8] == b".text\0\0\0", f.name
        first_va, first_ptr = _u(data, table + 12, 4), _u(data, table + 20, 4)
        assert _u(data, opt + 16, 4) == first_va + 0x40, f.name  # AddressOfEntryPoint
        # SizeOfHeaders: the first section's raw data, behind the slack
        assert _u(data, opt + 60, 4) == first_ptr == table + 40 * n + f.planted["slack"], f.name
        security = opt + 96 + 4 * 8
        cert_at, cert_size = _u(data, security, 4), _u(data, security + 4, 4)
        assert (cert_size != 0) == ("certificate" in quirks), f.name
        if cert_size:
            assert cert_at + cert_size == len(data) == f.planted["size"], f.name
        debug_rva, debug_size = _u(data, opt + 96 + 6 * 8, 4), _u(data, opt + 96 + 6 * 8 + 4, 4)
        assert debug_size == (28 if "debug" in quirks else 0), f.name
        if debug_size:  # the entry's file offset, through the section table
            entry = next(_u(data, s + 20, 4) + debug_rva - _u(data, s + 12, 4)
                         for s in range(table, table + 40 * n, 40)
                         if 0 <= debug_rva - _u(data, s + 12, 4) < _u(data, s + 16, 4))
            # SizeOfData at +16, AddressOfRawData at +20, PointerToRawData at +24
            blob_size, blob_ptr = _u(data, entry + 16, 4), _u(data, entry + 24, 4)
            assert _u(data, entry + 20, 4) - debug_rva == blob_ptr - entry == 28, f.name
            assert data[blob_ptr : blob_ptr + 4] == b"RSDS", f.name
            assert data[blob_ptr + blob_size - 14 : blob_ptr + blob_size] == b"build\\app.pdb\0", f.name


# ---------------------------------------------------------------------------
# the worker pool


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every pool ``generate`` starts."""
    sizes = []

    class Recorded(corpus.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(corpus, "ProcessPoolExecutor", Recorded)
    return sizes


def test_one_usable_cpu_gives_the_golden_corpus(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _golden_record(generate(UNIT_SPEC)) == json.loads(GOLDEN.read_text())
    assert pool_sizes == [1]


def test_workers_follow_usable_cpus_capped_at_the_jobs(monkeypatch, pool_sizes):
    cpus = len(os.sched_getaffinity(0))
    generate(SMALL)
    generate(CorpusSpec(malicious=1, benign=0, seed=3))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    generate(SMALL)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    generate(SMALL)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    generate(SMALL)
    assert pool_sizes == [min(cpus, 20), 1, 20, 3, 1]


def test_an_empty_corpus_starts_no_pool(pool_sizes):
    assert generate(CorpusSpec(malicious=0, benign=0, seed=3)) == []
    assert pool_sizes == []


def test_no_worker_outlives_generate(monkeypatch):
    generate(SMALL)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(corpus, "_self_check", _fails_on("ben_0002.exe"))
    with pytest.raises(CorpusError):
        generate(SMALL)
    assert multiprocessing.active_children() == []


def _fails_on(bad: str):
    check = corpus._self_check

    def fails(name, data, planted):
        if name == bad:
            raise CorpusError(f"{name}: planted failure")
        check(name, data, planted)

    return fails


def test_a_worker_self_check_failure_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(corpus, "_self_check", _fails_on("mal_0005.exe"))
    with pytest.raises(CorpusError, match=r"^mal_0005\.exe: planted failure$"):
        generate(SMALL)


@pytest.mark.parametrize("malicious, benign", [(-3, 2), (2, -1), (-1, -1)])
def test_negative_file_counts_are_refused(malicious, benign):
    """Refused when the spec is made, so no pool can start for it."""
    with pytest.raises(CorpusError, match="0 or more"):
        CorpusSpec(malicious=malicious, benign=benign, seed=3)


def test_label_counts_and_names(corpus_files):
    mal = [f for f in corpus_files if f.label == "malicious"]
    ben = [f for f in corpus_files if f.label == "benign"]
    assert len(mal) == 140 and len(ben) == 80
    assert all(f.name.startswith("mal_") for f in mal)
    assert all(f.name.startswith("ben_") for f in ben)


def test_malicious_quirk_budget(corpus_files):
    for f in corpus_files:
        quirks = set(f.planted["quirks"])
        assert quirks <= set(ALL_QUIRKS)
        if f.label == "malicious":
            assert 4 <= len(quirks) <= 6
        else:
            assert len(quirks) <= 1


def test_checksum_quirk_direction(corpus_files):
    """The malicious tell is a nonzero checksum; clean files carry zero."""
    for f in corpus_files:
        img = pe_model.parse(f.data)
        if QUIRK_CHECKSUM in f.planted["quirks"]:
            assert img.optional.checksum != 0, f.name
        else:
            assert img.optional.checksum == 0, f.name


def test_timestamp_quirk_leaves_common_band(corpus_files):
    lo, hi = TS_COMMON
    for f in corpus_files:
        ts = f.planted["timestamp"]
        if QUIRK_TIMESTAMP in f.planted["quirks"]:
            assert ts < lo or ts > hi, f.name
        else:
            assert lo <= ts <= hi, f.name


def test_no_overlay_quirk(corpus_files):
    """Certificates are overlay-resident, so the quirk only promises an
    empty overlay when no certificate is planted alongside it."""
    checked = 0
    for f in corpus_files:
        quirks = f.planted["quirks"]
        if QUIRK_NO_OVERLAY in quirks and QUIRK_CERTIFICATE not in quirks:
            assert pe_model.parse(f.data).overlay == b"", f.name
            checked += 1
    assert checked > 0


def test_planted_motif_counts_are_real(corpus_files):
    for f in corpus_files[:30]:
        hits = sum(f.data.count(m) for m in MOTIFS)
        assert hits == f.planted["motifs"], f.name


def test_sizes_leave_room_in_a_64k_window(corpus_files):
    for f in corpus_files:
        assert len(f.data) < 50_000, (f.name, len(f.data))


def test_header_slack_varies_across_the_forty_byte_line(corpus_files):
    slacks = [f.planted["slack"] for f in corpus_files]
    assert any(s < 40 for s in slacks)
    assert any(s >= 40 for s in slacks)


def test_write_and_load_round_trip(tmp_path):
    files = generate(SMALL)
    manifest = write_corpus(files, tmp_path / "corpus", SMALL)
    assert manifest.exists()
    entries = load_corpus(tmp_path / "corpus")
    assert len(entries) == len(files)
    by_name = {f.name: f for f in files}
    for e in entries:
        src = by_name[e.name]
        assert e.label == src.label
        assert e.read() == src.data
    assert json.loads((tmp_path / "corpus" / "meta.json").read_text()) == SMALL.to_dict()


# ---------------------------------------------------------------------------
# untrusted manifests


@pytest.mark.parametrize("escape", ["absolute", "dotdot", "symlink"])
def test_manifest_path_must_stay_inside_the_corpus(tmp_path, escape):
    outside = tmp_path / "outside.bin"
    outside.write_bytes(b"not part of the corpus")
    root = tmp_path / "corpus"
    manifest = write_corpus(generate(SMALL), root, SMALL)
    assert load_corpus(root)
    if escape == "absolute":
        path = str(outside)
    elif escape == "dotdot":
        path = "files/../../outside.bin"
    else:
        (root / "files" / "link.exe").symlink_to(outside)
        path = "files/link.exe"
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    rows[3]["path"] = path
    manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(CorpusError, match="leaves the corpus directory"):
        load_corpus(root)


def test_corpus_reached_through_a_symlink_loads(tmp_path):
    files = generate(SMALL)
    write_corpus(files, tmp_path / "corpus", SMALL)
    (tmp_path / "alias").symlink_to(tmp_path / "corpus")
    entries = load_corpus(tmp_path / "alias")
    assert [e.read() for e in entries] == [f.data for f in files]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest-fuzz")
    manifest = write_corpus(generate(SMALL), root, SMALL)
    return root, manifest.read_bytes()


def _loads_inside_or_raises_corpus_error(root, manifest: bytes) -> None:
    (root / "manifest.jsonl").write_bytes(manifest)
    try:
        entries = load_corpus(root)
    except CorpusError:
        return
    for entry in entries:
        assert root.resolve() in entry.path.resolve().parents


ROW_PATHS = st.sampled_from(
    ["files/mal_0000.exe", "/etc/hostname", "../outside", "files/../../x", "", ".", "a\x00b"]
) | st.text(max_size=12)
# Rows with the entry fields and plausible values, rows with those fields
# holding any JSON, and any JSON at all.
ROWS = st.one_of(
    st.fixed_dictionaries(
        {
            "name": st.text(max_size=12),
            "label": st.sampled_from(["malicious", "benign"]),
            "path": ROW_PATHS,
            "seed": st.integers(),
        }
    ),
    st.fixed_dictionaries(
        {"name": json_values, "label": json_values, "path": json_values, "seed": json_values},
        optional={"planted": json_values},
    ),
    json_values,
)


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(ROWS.map(json.dumps).map(str.encode) | st.binary(max_size=40), max_size=4))
def test_property_any_manifest_loads_inside_or_raises(written, lines):
    root, _ = written
    _loads_inside_or_raises_corpus_error(root, b"\n".join(lines))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_property_damaged_manifest_loads_inside_or_raises(written, data):
    root, manifest = written
    _loads_inside_or_raises_corpus_error(root, data.draw(damaged(manifest, len(manifest))))
