"""Generator contract: determinism, label design, on-disk round trip, and a
manifest reader that returns entries inside the corpus or raises
``CorpusError``."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from amg import pe_model
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
        assert e.planted == src.planted
    meta = json.loads((tmp_path / "corpus" / "meta.json").read_text())
    assert CorpusSpec.from_dict(meta) == SMALL


# ---------------------------------------------------------------------------
# untrusted manifests


@pytest.mark.parametrize("escape", ["absolute", "dotdot", "symlink"])
def test_manifest_path_must_stay_inside_the_corpus(tmp_path, escape):
    outside = tmp_path / "outside.bin"
    outside.write_bytes(b"not part of the corpus")
    root = tmp_path / "corpus"
    manifest = write_corpus(generate(SMALL), root)
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
    write_corpus(files, tmp_path / "corpus")
    (tmp_path / "alias").symlink_to(tmp_path / "corpus")
    entries = load_corpus(tmp_path / "alias")
    assert [e.read() for e in entries] == [f.data for f in files]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest-fuzz")
    manifest = write_corpus(generate(SMALL), root)
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
