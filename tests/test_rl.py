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
from amg.bytestats import ByteCounts
from amg.detector import Verdict
from amg.harness import OBSERVATION_MEMO_ENTRIES, evaluate_policy
from amg.memo import ContentMemo
from amg.pe_mods import ACTION_COUNT, ActionId, Outcome, apply_action
from amg.rl import (
    AlreadyBenign,
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
        obs = observe(pe_model.parse(raw), raw, ByteCounts())
        assert obs.shape == (N_OBSERVATION,)
        assert np.all(np.isfinite(obs))


def test_byte_histogram_slice_sums_to_one(mal_bytes):
    raw = mal_bytes[0]
    obs = observe(pe_model.parse(raw), raw, ByteCounts())
    assert obs[:256].sum() == pytest.approx(1.0)
    assert np.array_equal(obs[:256], byte_counts(raw) / len(raw))


def test_observation_scalar_slots(corpus_files):
    for f in corpus_files[:20]:
        img = pe_model.parse(f.data)
        obs = observe(img, f.data, ByteCounts())
        assert obs[256] == pytest.approx(len(img.sections) / 16)
        assert obs[258] == len(pe_model.parse_imports(img)) / 16
        assert obs[261] == (1.0 if img.optional.checksum == 0 else 0.0)
        assert obs[262] == pytest.approx(img.coff.time_date_stamp / 2**32)
        assert np.array_equal(obs[267:], np.zeros(5))


def test_observation_reacts_to_rewrites(mal_bytes, pool):
    from amg.pe_mods import apply_action

    img = pe_model.parse(mal_bytes[0])
    before = observe(img, mal_bytes[0], ByteCounts())
    res = apply_action(img, ActionId.APPEND_OVERLAY, pool, seed=1)
    out = pe_model.serialize(res.image)
    after = observe(res.image, out, ByteCounts())
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
        assert _same_bits(observe(img, raw, ByteCounts()), observe(pe_model.parse(raw), raw, ByteCounts()))
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
                assert _same_bits(
                    observe(result.image, out, ByteCounts()),
                    observe(pe_model.parse(out), out, ByteCounts()),
                )
                checked += 1
    assert checked > 300


def test_observation_memo_hit_is_an_equal_fresh_copy(mal_bytes, pool):
    memo = ContentMemo(4)
    raw = mal_bytes[0]
    expected = observe(pe_model.parse(raw), raw, ByteCounts())

    def start() -> np.ndarray:
        return RewriteEnv(raw, always_malicious, pool, 1, 0, observations=memo).reset()

    miss, hit = start(), start()
    assert (memo.misses, memo.hits, len(memo)) == (1, 1, 1)
    assert _same_bits(miss, expected) and _same_bits(hit, expected)
    assert hit is not miss and not np.shares_memory(hit, miss)
    miss[:] = -1.0
    hit[:] = -2.0
    assert _same_bits(start(), expected)


def test_env_without_a_memo_keeps_none_and_hashes_nothing(mal_bytes, pool, monkeypatch):
    """An env given no memo builds none and hashes no bytes: it observes its
    start and every applied step, even one whose bytes it met before."""

    def refuse(*args, **kwargs):
        raise AssertionError("an env without a memo used one")

    monkeypatch.setattr(ContentMemo, "__init__", refuse)
    monkeypatch.setattr(ContentMemo, "get", refuse)  # the memo's only hash
    original = env_module.observe
    observed = []

    def recording(img, raw, counts=None):
        observed.append(raw)
        return original(img, raw, counts)

    monkeypatch.setattr(env_module, "observe", recording)
    env = RewriteEnv(mal_bytes[0], always_malicious, pool, max_steps=4, seed=2)
    contents = [env.current_bytes]
    env.reset()
    for action in (ActionId.BREAK_CHECKSUM, ActionId.BREAK_CHECKSUM, ActionId.APPEND_OVERLAY):
        assert env.step(action).info["outcome"] == "applied"
        contents.append(env.current_bytes)
    assert contents[1] == contents[2]  # a zero checksum zeroed again
    assert observed == contents
    env.reset()
    assert observed == contents + [mal_bytes[0]]


def test_env_module_builds_no_memo_of_its_own():
    tree = ast.parse((RL_DIR / "env.py").read_text())
    calls = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "ContentMemo" not in calls


def test_envs_sharing_a_memo_make_the_same_episodes(mal_bytes, pool):
    """Envs that share one memo play, state for state, the episodes that
    envs with no memo play."""

    def episodes(observations):
        out = []
        for raw in mal_bytes[:3] * 2:
            env = RewriteEnv(raw, always_malicious, pool, 6, 4, observations=observations)
            out.append(env.reset())
            action = 0
            while not env.done:
                t = env.step(action % ACTION_COUNT)
                out += [t.observation, t.next_observation]
                action += 3
        return out

    memo = ContentMemo(OBSERVATION_MEMO_ENTRIES)
    own, shared = episodes(None), episodes(memo)
    assert len(own) == len(shared)
    assert all(_same_bits(a, b) for a, b in zip(own, shared))
    assert 0 < len(memo) < len(shared)


def test_property_carried_counts_observe_as_a_full_count(mal_bytes, pool, monkeypatch):
    """Along long random chains of all ten actions, every state an env
    observes from its carried counts equals a full count of its bytes: with
    no memo, with a shared memo whose hits skip counting (so the counts lag
    behind the state), and across resets."""
    original_observe, original_apply = env_module.observe, env_module.apply_action
    details, lagging = [], []
    episode = {"counted": None, "last_state": None}  # what this episode's counts hold

    def observing(img, raw, counts=None):
        if episode["counted"] is not None:
            lagging.append(episode["counted"] != episode["last_state"])
        episode["counted"] = raw
        return original_observe(img, raw, counts)

    def applying(img, action, pool, seed=0):
        result = original_apply(img, action, pool, seed)
        details.append((ActionId(action), result.outcome, result.detail))
        return result

    monkeypatch.setattr(env_module, "observe", observing)
    monkeypatch.setattr(env_module, "apply_action", applying)
    rng = np.random.default_rng(16)
    shared = ContentMemo(OBSERVATION_MEMO_ENTRIES)
    for memo in (None, shared):
        for raw in mal_bytes[:12]:
            env = RewriteEnv(raw, always_malicious, pool, max_steps=40, seed=7, observations=memo)
            for _ in range(2):
                episode["counted"] = None  # a reset starts from no counts
                states = [env.reset()]
                contents = [env.current_bytes]
                while not env.done:
                    episode["last_state"] = env.current_bytes
                    states.append(env.step(int(rng.integers(ACTION_COUNT))).next_observation)
                    contents.append(env.current_bytes)
                for state, content in zip(states, contents):
                    full = observe(pe_model.parse(content), content, ByteCounts())
                    assert state.tobytes() == full.tobytes()
    applied = {(action, detail.split(" ")[0]) for action, outcome, detail in details
               if outcome is Outcome.APPLIED}
    assert {action for action, _ in applied} == set(ActionId)
    # the overlay cut shrinks the file; the grow path replaces a section's payload
    assert {(ActionId.REMOVE_CERTIFICATE, "excised"), (ActionId.APPEND_TO_SECTION, "grow")} <= applied
    assert shared.hits > 0 and any(lagging)  # some counts skipped a state a hit answered


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


def counting(verdict: Verdict, queries: list):
    """A classifier that gives ``verdict`` and appends each query to ``queries``."""
    return lambda raw: queries.append(raw) or verdict


def test_reset_raises_on_undetected_start(mal_bytes, pool):
    queries = []
    env = RewriteEnv(mal_bytes[0], counting(Verdict.BENIGN, queries), pool, max_steps=5, seed=0)
    with pytest.raises(AlreadyBenign):
        env.reset()
    assert queries == [mal_bytes[0]]


def test_episode_runs_to_step_budget(mal_bytes, pool):
    queries = []
    env = RewriteEnv(mal_bytes[0], counting(Verdict.MALICIOUS, queries), pool, max_steps=4, seed=3)
    obs = env.reset()
    assert obs.shape == (N_OBSERVATION,)
    rewards = []
    while not env.done:
        t = env.step(ActionId.APPEND_OVERLAY)
        rewards.append(t.reward)
    assert rewards == [-0.1] * 4  # one transition per step of the budget
    assert len(queries) == 5  # one at reset, one per step
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
        RewriteEnv(mal_bytes[0], classify, pool, max_steps=max_steps, seed=0)
    agent = make_agent("random", N_OBSERVATION, ACTION_COUNT, AgentHyper(), seed=0)
    with pytest.raises(ValueError, match="max_steps"):
        evaluate_policy(agent, mal_bytes[:3], classify, pool, max_steps=max_steps, seed=0)
    assert queries == []


def test_size_cap_classifier_rewards_evasion(mal_bytes, pool):
    """A classifier keyed on file size flips verdict once appends push the
    file past the cap, ending the episode with the evasion reward."""
    cap = len(mal_bytes[0]) + 1
    classify = lambda raw: Verdict.MALICIOUS if len(raw) < cap else Verdict.BENIGN
    env = RewriteEnv(mal_bytes[0], classify, pool, max_steps=10, seed=1)
    env.reset()
    t = env.step(ActionId.APPEND_OVERLAY)
    assert t.reward == 10.0
    assert t.done and env.done
    assert t.info["evaded"]
    assert len(env.current_bytes) >= cap


def test_invalid_action_rejected(mal_bytes, pool):
    env = RewriteEnv(mal_bytes[0], always_malicious, pool, max_steps=3, seed=0)
    env.reset()
    with pytest.raises(ValueError):
        env.step(ACTION_COUNT)


def test_noop_and_failed_actions_still_cost_a_step(corpus_files, pool):
    tight = next(f.data for f in corpus_files if f.planted["slack"] < 40)
    queries = []
    env = RewriteEnv(tight, counting(Verdict.MALICIOUS, queries), pool, max_steps=3, seed=0)
    env.reset()
    stepped = []
    while not env.done:
        stepped.append(env.step(ActionId.ADD_NEW_SECTION))
    assert [t.info["outcome"] for t in stepped] == ["failed"] * 3  # each spends one of 3
    assert len(queries) == 1 + 3
    assert env.current_bytes == tight
    t = stepped[0]
    expected = observe(pe_model.parse(env.current_bytes), env.current_bytes, ByteCounts())
    assert np.array_equal(t.next_observation, expected)
    assert t.next_observation is not t.observation


def test_episode_bytes_are_seed_deterministic(mal_bytes, pool):
    def run(seed):
        env = RewriteEnv(mal_bytes[2], always_malicious, pool, max_steps=5, seed=seed)
        env.reset()
        while not env.done:
            env.step(ActionId.APPEND_OVERLAY)
        return env.current_bytes

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_reset_starts_a_fresh_episode_with_new_randomness(mal_bytes, pool):
    env = RewriteEnv(mal_bytes[2], always_malicious, pool, max_steps=2, seed=5)
    env.reset()
    env.step(ActionId.APPEND_OVERLAY)
    first = env.current_bytes
    env.step(ActionId.APPEND_OVERLAY)
    env.reset()
    assert env.current_bytes == mal_bytes[2]
    env.step(ActionId.APPEND_OVERLAY)
    second = env.current_bytes
    assert first != second  # episode index feeds the action seed
