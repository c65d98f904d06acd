"""Observation map and episode environment, plus source audits that pin the
black-box seal: the env sees only hard labels, and the observation code
shares nothing with the classifier feature extractors."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from amg import pe_model
from amg.agents import AgentHyper, make_agent
from amg.detector import Verdict
from amg.harness import evaluate_policy
from amg.memo import ContentMemo
from amg.pe_mods import ACTION_COUNT, ActionId, Outcome, apply_action
from amg.rl import (
    AlreadyBenign,
    EnvConfig,
    EpisodeFinished,
    N_OBSERVATION,
    RewriteEnv,
    env as env_module,
    observe,
)
from bytestats_reference import byte_counts

RL_DIR = Path(__file__).resolve().parent.parent / "src" / "amg" / "rl"


# ---------------------------------------------------------------------------
# observation


def test_observation_shape_and_finiteness(mal_bytes):
    for raw in mal_bytes[:10]:
        obs = observe(pe_model.parse(raw), raw)
        assert obs.shape == (N_OBSERVATION,)
        assert np.all(np.isfinite(obs))


def test_byte_histogram_slice_sums_to_one(mal_bytes):
    raw = mal_bytes[0]
    obs = observe(pe_model.parse(raw), raw)
    assert obs[:256].sum() == pytest.approx(1.0)
    assert np.array_equal(obs[:256], byte_counts(raw) / len(raw))


def test_observation_scalar_slots(corpus_files):
    for f in corpus_files[:20]:
        img = pe_model.parse(f.data)
        obs = observe(img, f.data)
        assert obs[256] == pytest.approx(len(img.sections) / 16)
        assert obs[258] == len(pe_model.parse_imports(img)) / 16
        assert obs[261] == (1.0 if img.optional.checksum == 0 else 0.0)
        assert obs[262] == pytest.approx(img.coff.time_date_stamp / 2**32)
        assert np.array_equal(obs[267:], np.zeros(5))


def test_observation_reacts_to_rewrites(mal_bytes, pool):
    from amg.pe_mods import apply_action

    img = pe_model.parse(mal_bytes[0])
    before = observe(img, mal_bytes[0])
    res = apply_action(img, ActionId.APPEND_OVERLAY, pool, seed=1)
    out = pe_model.serialize(res.image)
    after = observe(res.image, out)
    assert not np.array_equal(before, after)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_observation_of_a_rewrite_is_a_function_of_its_bytes(mal_bytes, ben_bytes, pool):
    """A memo keyed by the bytes may answer for any image with those bytes:
    the rewritten image and its serialization's reparse encode bit for bit
    alike, after every action and every two-action chain."""
    checked = 0
    for raw in mal_bytes[:4] + ben_bytes[:2]:
        img = pe_model.parse(raw)
        assert _same_bits(observe(img, raw), observe(pe_model.parse(raw), raw))
        for first in ActionId:
            once = apply_action(img.copy(), first, pool, seed=int(first))
            chains = [once] + [
                apply_action(once.image.copy(), second, pool, seed=100 + int(second))
                for second in ActionId
            ]
            for result in chains:
                if result.outcome is not Outcome.APPLIED:
                    continue
                out = pe_model.serialize(result.image)
                assert _same_bits(observe(result.image, out), observe(pe_model.parse(out), out))
                checked += 1
    assert checked > 300


def test_observation_memo_hit_is_an_equal_fresh_copy(mal_bytes, pool):
    memo = ContentMemo(4)
    raw = mal_bytes[0]
    expected = observe(pe_model.parse(raw), raw)

    def start() -> np.ndarray:
        return RewriteEnv(raw, always_malicious, pool, EnvConfig(max_steps=1), memo).reset()

    miss, hit = start(), start()
    assert (memo.misses, memo.hits, len(memo)) == (1, 1, 1)
    assert _same_bits(miss, expected) and _same_bits(hit, expected)
    assert hit is not miss and not np.shares_memory(hit, miss)
    miss[:] = -1.0
    hit[:] = -2.0
    assert _same_bits(start(), expected)


def test_observation_memo_keeps_the_last_entries(mal_bytes, pool, monkeypatch):
    """An env given no memo keeps its own, bounded by
    ``OBSERVATION_MEMO_ENTRIES``; the memo's own order and counts are tested
    in ``test_memo``."""
    monkeypatch.setattr(env_module, "OBSERVATION_MEMO_ENTRIES", 3)
    env = RewriteEnv(mal_bytes[0], always_malicious, pool, EnvConfig(max_steps=6, seed=2))
    contents = [env.current_bytes]
    env.reset()
    while not env.done:
        env.step(ActionId.APPEND_OVERLAY)
        contents.append(env.current_bytes)
    assert len(set(contents)) == 7
    memo = env._observations
    assert (memo.entries, len(memo), memo.misses, memo.hits) == (3, 3, 7, 0)
    env.reset()  # the first content was evicted, so it is observed again
    assert (memo.misses, memo.hits) == (8, 0)


def test_envs_sharing_a_memo_make_the_same_episodes(mal_bytes, pool):
    """Envs that share one memo play, state for state, the episodes that
    envs keeping their own memos play."""

    def episodes(observations):
        out = []
        for raw in mal_bytes[:3] * 2:
            env = RewriteEnv(raw, always_malicious, pool, EnvConfig(max_steps=6, seed=4), observations)
            out.append(env.reset())
            action = 0
            while not env.done:
                t = env.step(action % ACTION_COUNT)
                out += [t.observation, t.next_observation]
                action += 3
        return out

    memo = ContentMemo(env_module.OBSERVATION_MEMO_ENTRIES)
    own, shared = episodes(None), episodes(memo)
    assert len(own) == len(shared)
    assert all(_same_bits(a, b) for a, b in zip(own, shared))
    assert 0 < len(memo) < len(shared)


# ---------------------------------------------------------------------------
# source audits


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    mods: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: resolve against the amg.rl package
                base = "amg.rl" if node.level == 1 else "amg"
                mod = f"{base}.{node.module}" if node.module else base
                if node.module is None:
                    mods.update(f"{base}.{alias.name}" for alias in node.names)
                else:
                    mods.add(mod)
            else:
                mods.add(node.module)
    return mods


def test_observation_module_is_classifier_independent():
    mods = _imported_modules(RL_DIR / "observation.py")
    allowed = {"__future__", "math", "numpy", "amg.bytestats", "amg.pe_model"}
    assert mods <= allowed, mods


def test_bytestats_module_imports_only_numpy_and_math():
    # observation imports amg.bytestats, so the seal holds only while it stays a leaf
    mods = _imported_modules(RL_DIR.parent / "bytestats.py")
    assert mods <= {"__future__", "math", "numpy"}, mods


def test_env_module_never_touches_score_attributes():
    tree = ast.parse((RL_DIR / "env.py").read_text())
    forbidden = {"margin", "margin_one", "score", "model", "bias", "features"}
    touched = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in forbidden
    }
    assert touched == set()
    mods = _imported_modules(RL_DIR / "env.py")
    assert "amg.detector.features" not in mods
    assert "amg.detector.boost" not in mods


# ---------------------------------------------------------------------------
# environment mechanics (stub classifiers keep these fast and exact)


def always_malicious(_: bytes) -> Verdict:
    return Verdict.MALICIOUS


def test_reset_raises_on_undetected_start(mal_bytes, pool):
    env = RewriteEnv(mal_bytes[0], lambda raw: Verdict.BENIGN, pool, EnvConfig(max_steps=5))
    with pytest.raises(AlreadyBenign):
        env.reset()
    assert env.queries == 1


def test_episode_runs_to_step_budget(mal_bytes, pool):
    env = RewriteEnv(mal_bytes[0], always_malicious, pool, EnvConfig(max_steps=4, seed=3))
    obs = env.reset()
    assert obs.shape == (N_OBSERVATION,)
    rewards = []
    while not env.done:
        t = env.step(ActionId.APPEND_OVERLAY)
        rewards.append(t.reward)
    assert env.steps == 4
    assert rewards == [-0.1] * 4
    assert env.queries == 5  # one at reset, one per step
    with pytest.raises(EpisodeFinished):
        env.step(0)


@pytest.mark.parametrize("max_steps", [0, -2])
def test_a_step_budget_below_one_is_refused(mal_bytes, pool, max_steps):
    """A budget below one used to play one step anyway: ``done`` is only
    checked after a step.  Evaluation refuses it before any query."""
    queries = []

    def classify(raw):
        queries.append(raw)
        return Verdict.MALICIOUS

    with pytest.raises(ValueError, match="max_steps"):
        EnvConfig(max_steps=max_steps)
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, AgentHyper(), seed=0)
    with pytest.raises(ValueError, match="max_steps"):
        evaluate_policy(agent, mal_bytes[:3], classify, pool, max_steps=max_steps)
    assert queries == []


def test_size_cap_classifier_rewards_evasion(mal_bytes, pool):
    """A classifier keyed on file size flips verdict once appends push the
    file past the cap, ending the episode with the evasion reward."""
    cap = len(mal_bytes[0]) + 1
    classify = lambda raw: Verdict.MALICIOUS if len(raw) < cap else Verdict.BENIGN
    env = RewriteEnv(mal_bytes[0], classify, pool, EnvConfig(max_steps=10, seed=1))
    env.reset()
    t = env.step(ActionId.APPEND_OVERLAY)
    assert t.reward == 10.0
    assert t.done and env.done
    assert t.info["evaded"]
    assert len(env.current_bytes) >= cap


def test_invalid_action_rejected(mal_bytes, pool):
    env = RewriteEnv(mal_bytes[0], always_malicious, pool, EnvConfig(max_steps=3))
    env.reset()
    with pytest.raises(ValueError):
        env.step(ACTION_COUNT)


def test_noop_and_failed_actions_still_cost_a_step(corpus_files, pool):
    tight = next(f.data for f in corpus_files if f.planted["slack"] < 40)
    env = RewriteEnv(tight, always_malicious, pool, EnvConfig(max_steps=3, seed=0))
    env.reset()
    t = env.step(ActionId.ADD_NEW_SECTION)
    assert t.info["outcome"] == "failed"
    assert env.steps == 1
    assert env.current_bytes == tight
    expected = observe(pe_model.parse(env.current_bytes), env.current_bytes)
    assert np.array_equal(t.next_observation, expected)
    assert t.next_observation is not t.observation


def test_episode_bytes_are_seed_deterministic(mal_bytes, pool):
    def run(seed):
        env = RewriteEnv(mal_bytes[2], always_malicious, pool, EnvConfig(max_steps=5, seed=seed))
        env.reset()
        while not env.done:
            env.step(ActionId.APPEND_OVERLAY)
        return env.current_bytes

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_reset_starts_a_fresh_episode_with_new_randomness(mal_bytes, pool):
    env = RewriteEnv(mal_bytes[2], always_malicious, pool, EnvConfig(max_steps=2, seed=5))
    env.reset()
    env.step(ActionId.APPEND_OVERLAY)
    first = env.current_bytes
    env.step(ActionId.APPEND_OVERLAY)
    env.reset()
    assert env.current_bytes == mal_bytes[2]
    env.step(ActionId.APPEND_OVERLAY)
    second = env.current_bytes
    assert first != second  # episode index feeds the action seed
