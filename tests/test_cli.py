"""End-to-end command-line coverage: every subcommand runs in-process
against a small generated corpus, with exit codes and artifacts checked."""

from __future__ import annotations

import json
import re
import struct

import pytest

from test_agents import rewrite_header
from test_pe_mods import MANY_DLLS, at_the_top_of_the_address_space

from amg import cli, pe_model
from amg.agents import make_agent, save_agent
from amg.cli import main
from amg.corpus import CorpusSpec, generate
from amg.pe_mods import ACTION_COUNT

MAL, BEN, SEED = 42, 28, 5


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a generated corpus, two detectors, and one agent."""
    root = tmp_path_factory.mktemp("cli-ws")
    corpus = root / "corpus"
    assert main(["corpus", "--out", str(corpus), "--malicious", str(MAL),
                 "--benign", str(BEN), "--seed", str(SEED)]) == 0
    det_a = root / "a.det"
    det_b = root / "b.det"
    assert main(["detector", "train", "--corpus", str(corpus), "--kind",
                 "structural", "--out", str(det_a)]) == 0
    assert main(["detector", "train", "--corpus", str(corpus), "--kind", "b",
                 "--out", str(det_b)]) == 0
    agent = root / "ppo.ckpt"
    assert main(["train", "--corpus", str(corpus), "--detector", str(det_a),
                 "--agent", "ppo", "--episodes", "8", "--max-steps", "2",
                 "--out", str(agent)]) == 0
    return {"root": root, "corpus": corpus, "det_a": det_a, "det_b": det_b,
            "agent": agent}


def test_corpus_layout(ws):
    corpus = ws["corpus"]
    assert (corpus / "meta.json").exists()
    files = sorted((corpus / "files").iterdir())
    assert len(files) == MAL + BEN
    assert sum(1 for f in files if f.name.startswith("mal_")) == MAL


def test_detector_classify_text_and_json(ws, capsys):
    corpus_files = sorted((ws["corpus"] / "files").glob("mal_*"))[:2]
    args = ["detector", "classify", "--model", str(ws["det_a"])]
    assert main(args + [str(f) for f in corpus_files]) == 0
    text = capsys.readouterr().out
    assert all(f.name in text for f in corpus_files)

    assert main(args + ["--json"] + [str(f) for f in corpus_files]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["verdict"] in ("malicious", "benign") for row in rows)


def test_mutate_applied_writes_modified_file(ws, tmp_path, capsys):
    src = next((ws["corpus"] / "files").glob("mal_*"))
    out = tmp_path / "rewritten.exe"
    code = main(["mutate", "--action", "break_checksum", "--in", str(src),
                 "--out", str(out), "--corpus", str(ws["corpus"])])
    assert code == 0
    assert out.exists()
    assert "applied" in capsys.readouterr().out


def test_mutate_accepts_numeric_action_ids(ws, tmp_path):
    src = next((ws["corpus"] / "files").glob("mal_*"))
    out = tmp_path / "rewritten.exe"
    assert main(["mutate", "--action", "3", "--in", str(src), "--out", str(out),
                 "--corpus", str(ws["corpus"])]) == 0
    assert out.exists()


def test_mutate_failure_exits_one_without_output(ws, tmp_path, capsys):
    # regenerate the same corpus in memory to find a file with tight header slack
    tight = next(f.name for f in generate(CorpusSpec(malicious=MAL, benign=BEN, seed=SEED))
                 if f.planted["slack"] < 40)
    src = ws["corpus"] / "files" / tight
    out = tmp_path / "never.exe"
    code = main(["mutate", "--action", "add_new_section", "--in", str(src),
                 "--out", str(out), "--corpus", str(ws["corpus"])])
    assert code == 1
    assert not out.exists()
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("action, top", [
    pytest.param(action, top, id=action + suffix)
    for suffix, top in [("", ()), ("-48-dlls", (0x1C00, 0xFFFFE000, MANY_DLLS))]
    for action in ["add_new_section", "append_new_import"]
])
def test_mutate_a_file_with_no_room_below_2_to_the_32_exits_one(ws, tmp_path, capsys, action, top):
    """Behind the 48-DLL image an empty section still fits below 2**32."""
    roomy = next(raw for raw in (p.read_bytes() for p in sorted((ws["corpus"] / "files").glob("mal_*")))
                 if pe_model.parse(raw).header_slack >= 40)
    src = tmp_path / "top.exe"
    src.write_bytes(pe_model.serialize(at_the_top_of_the_address_space(roomy, *top)))
    out = tmp_path / "never.exe"
    code = main(["mutate", "--action", action, "--in", str(src), "--out", str(out),
                 "--corpus", str(ws["corpus"])])
    assert code == 1
    assert not out.exists()
    assert "failed (no room below 2**32)" in capsys.readouterr().err


def test_mutate_unknown_action_is_usage_error(ws, tmp_path, capsys):
    src = next((ws["corpus"] / "files").glob("mal_*"))
    code = main(["mutate", "--action", "defragment", "--in", str(src),
                 "--out", str(tmp_path / "x"), "--corpus", str(ws["corpus"])])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_validate_table_and_json(ws, capsys):
    base = ["validate", "--corpus", str(ws["corpus"]), "--action",
            "break_checksum", "--limit", "3"]
    assert main(base) == 0
    table = capsys.readouterr().out
    assert re.search(r"break_checksum\s+valid\s+\d+ /\s+\d+", table)

    assert main(base + ["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["action"] == "break_checksum"
    assert 0 <= rows[0]["valid"] <= rows[0]["total"] == 3


def test_validate_rejects_a_negative_limit(ws, capsys):
    for limit in ("-3", "-1"):
        assert main(["validate", "--corpus", str(ws["corpus"]), "--limit", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--limit" in captured.err


def test_train_with_an_empty_malicious_train_split_exits_two(ws, tmp_path, capsys):
    corpus = tmp_path / "tiny"
    assert main(["corpus", "--out", str(corpus), "--malicious", "1", "--benign", "2",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    out = tmp_path / "dqn.ckpt"
    assert main(["train", "--corpus", str(corpus), "--detector", str(ws["det_b"]),
                 "--agent", "dqn", "--episodes", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "train split" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_prints_rate_line(ws, capsys):
    assert main(["evaluate", "--corpus", str(ws["corpus"]), "--detector",
                 str(ws["det_a"]), "--agent", str(ws["agent"]),
                 "--split", "val", "--max-steps", "2"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"evasion: \d+/\d+ = \d+\.\d{2}% \(excluded \d+, queries \d+\)", out)


def test_transfer_prints_both_rates(ws, capsys):
    assert main(["transfer", "--corpus", str(ws["corpus"]),
                 "--detector-a", str(ws["det_a"]), "--detector-b", str(ws["det_b"]),
                 "--agent", str(ws["agent"]), "--split", "val",
                 "--max-steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "source evasion:" in out
    assert "transfer" in out


def test_transfer_with_a_missing_second_detector_queries_nothing(ws, tmp_path, capsys, monkeypatch):
    """Both classifiers and the agent load before the first query."""
    calls = []
    evaluate = cli.evaluate_policy
    monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
    assert main(["transfer", "--corpus", str(ws["corpus"]),
                 "--detector-a", str(ws["det_a"]), "--detector-b", str(tmp_path / "nope.det"),
                 "--agent", str(ws["agent"]), "--split", "val", "--max-steps", "2"]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_detector_train_with_an_unknown_kind_is_a_usage_error(ws, tmp_path, capsys):
    out = tmp_path / "c.det"
    with pytest.raises(SystemExit) as exc:
        main(["detector", "train", "--corpus", str(ws["corpus"]), "--kind", "c", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--kind" in err and "Traceback" not in err
    # the message names the accepted kinds, not the function that parses them
    assert all(name in err for name in ("structural", "bigram", "'c'"))
    assert "expected one of structural, a, bigram, b" in err
    assert not out.exists()


def test_corpus_rejects_a_negative_count(tmp_path, capsys):
    """``--malicious -3`` used to print ``wrote -3 malicious + 2 benign files``
    and exit 0."""
    out = tmp_path / "corpus"
    for counts in (["--malicious", "-3", "--benign", "2"], ["--malicious", "2", "--benign", "-1"]):
        assert main(["corpus", "--out", str(out), *counts]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "0 or more" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--max-steps", "0"), ("--max-steps", "-2"),
                                         ("--episodes", "0"), ("--episodes", "-5")])
def test_train_rejects_a_budget_or_episode_count_below_one(ws, tmp_path, capsys, flag, value):
    out = tmp_path / "ppo.ckpt"
    args = {"--episodes": "4", "--max-steps": "2", flag: value}
    assert main(["train", "--corpus", str(ws["corpus"]), "--detector", str(ws["det_a"]),
                 "--agent", "ppo", "--out", str(out),
                 *[x for pair in args.items() for x in pair]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and flag in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_rejects_a_hyperparameter_that_is_not_finite(ws, tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr("amg.cli.train_agent", lambda *a, **k: pytest.fail("trained"))
    out = tmp_path / "ppo.ckpt"
    assert main(["train", "--corpus", str(ws["corpus"]), "--detector", str(ws["det_a"]),
                 "--agent", "ppo", "--episodes", "4", "--max-steps", "2", "--out", str(out),
                 f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and flag in captured.err and "finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "transfer"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_evaluate_and_transfer_reject_a_budget_below_one(ws, capsys, command, value):
    detectors = (["--detector", str(ws["det_a"])] if command == "evaluate" else
                 ["--detector-a", str(ws["det_a"]), "--detector-b", str(ws["det_b"])])
    assert main([command, "--corpus", str(ws["corpus"]), *detectors, "--agent",
                 str(ws["agent"]), "--split", "val", "--max-steps", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--max-steps" in captured.err


def test_report_micro_plan_writes_artifacts(ws, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["report", "--corpus", str(ws["corpus"]), "--plan", "micro",
                 "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert (out_dir / "workflow.json").exists()
    assert (out_dir / "workflow.txt").exists()
    report = json.loads((out_dir / "workflow.json").read_text())
    assert "winner" in report and "test" in report
    assert "winner" in stdout


def test_report_with_no_eligible_files_exits_one(tmp_path, capsys):
    """On a corpus this small the winner's test split holds one file, which
    the classifier misses: the report exits 1 with a message, as an empty
    evaluation does, and writes nothing."""
    corpus = tmp_path / "small"
    assert main(["corpus", "--out", str(corpus), "--malicious", "3", "--benign", "4",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "reports"
    assert main(["report", "--corpus", str(corpus), "--plan", "micro",
                 "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "no eligible files" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_workspace_env_var_sets_default_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AMG_WORKSPACE", str(tmp_path / "space"))
    assert main(["corpus", "--malicious", "6", "--benign", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    assert (tmp_path / "space" / "corpus" / "meta.json").exists()


def test_missing_file_exits_two(ws, tmp_path, capsys):
    """A path that is missing, or a directory where a file belongs, exits 2
    with a message instead of a traceback."""
    src = next((ws["corpus"] / "files").glob("mal_*"))
    for argv in (
        ["detector", "classify", "--model", str(tmp_path / "nope.det"),
         str(tmp_path / "alsonope.exe")],
        ["detector", "classify", "--model", str(ws["det_a"]), str(tmp_path)],
        ["detector", "classify", "--model", str(tmp_path), str(src)],
        ["evaluate", "--corpus", str(ws["corpus"]), "--detector", str(ws["det_a"]),
         "--agent", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest",
    [
        b'{"name": "mal_0000", "label": "malicious", "pa',
        b'{"name": "mal_0000", "label": "malicious", "seed": 1}\n',
        b'["mal_0000", "malicious", "files/mal_0000", 1]\n',
        b'{"name": "mal_\xff\xfe", "label": "malicious"}\n',
        b'{"name": "mal_0000", "label": "malicious", "path": "a\\u0000b", "seed": 1}\n',
        b'{"name": "mal_0000", "label": "malicious", "path": "/etc/hostname", "seed": 1}\n',
        b'{"name": "mal_0000", "label": "malicious", "path": "../manifest.jsonl", "seed": 1}\n',
        b"[" * 100_000 + b"\n",
        b'{"name": ["x"], "label": "malicious", "path": "files/mal_0000.exe", "seed": 1}\n',
        b'{"name": "mal\\ud800", "label": "malicious", "path": "files/mal_0000.exe", "seed": 1}\n',
    ],
    ids=["truncated-json", "row-without-path", "row-is-a-list", "not-utf8", "nul-in-path",
         "absolute-path", "dotdot-path", "deeply-nested-row", "name-not-a-string",
         "name-with-a-lone-surrogate"],
)
def test_unreadable_manifest_exits_two(ws, tmp_path, capsys, manifest):
    """A row naming a real corpus file, but with a bad field, is refused
    as the loader reads it, not by a traceback where the field is used."""
    (tmp_path / "files").mkdir()
    src = next((ws["corpus"] / "files").glob("mal_*"))
    (tmp_path / "files" / "mal_0000.exe").write_bytes(src.read_bytes())
    (tmp_path / "manifest.jsonl").write_bytes(manifest)
    assert main(["validate", "--corpus", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "bad manifest row" in err or "not UTF-8" in err
    assert "Traceback" not in err


def test_garbage_model_exits_two(ws, tmp_path, capsys):
    bogus = tmp_path / "bogus.det"
    bogus.write_bytes(b"not a model at all")
    src = next((ws["corpus"] / "files").glob("mal_*"))
    assert main(["detector", "classify", "--model", str(bogus), str(src)]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_range_stump_index_exits_two(ws, tmp_path, capsys):
    blob = bytearray(ws["det_a"].read_bytes())
    head_size = struct.calcsize("<8sBII d d")
    blob[head_size : head_size + 4] = struct.pack("<I", 10_000)
    bad = tmp_path / "bad-index.det"
    bad.write_bytes(bytes(blob))
    src = next((ws["corpus"] / "files").glob("mal_*"))
    assert main(["detector", "classify", "--model", str(bad), str(src)]) == 2
    assert "error:" in capsys.readouterr().err


def test_nan_bias_model_exits_two(ws, tmp_path, capsys):
    blob = bytearray(ws["det_b"].read_bytes())
    bias_at = struct.calcsize("<8sBII")
    blob[bias_at : bias_at + 8] = struct.pack("<d", float("nan"))
    bad = tmp_path / "nan-bias.det"
    bad.write_bytes(bytes(blob))
    src = next((ws["corpus"] / "files").glob("mal_*"))
    assert main(["detector", "classify", "--model", str(bad), str(src)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "transfer"])
@pytest.mark.parametrize("unfit", ["no-obs-dim", "obs-dim-100"])
def test_unfit_checkpoint_exits_two(ws, tmp_path, capsys, command, unfit):
    """A checkpoint without ``obs_dim`` is unreadable; one built for another
    observation size loads but cannot drive this environment."""
    bad = tmp_path / "unfit.ckpt"
    if unfit == "obs-dim-100":
        save_agent(bad, make_agent("ppo", 100, ACTION_COUNT, seed=0))
    else:
        bad.write_bytes(ws["agent"].read_bytes())
        rewrite_header(bad, lambda header: header.pop("obs_dim"))
    detectors = (["--detector", str(ws["det_a"])] if command == "evaluate" else
                 ["--detector-a", str(ws["det_a"]), "--detector-b", str(ws["det_b"])])
    assert main([command, "--corpus", str(ws["corpus"]), *detectors,
                 "--agent", str(bad), "--split", "val", "--max-steps", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
