"""Agent math: exact update arithmetic, finite-difference gradient checks,
optimizer behavior, learning sanity on the corridor oracle, and checkpoint
persistence."""

from __future__ import annotations

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toy_chain
from amg.agents import (
    AgentHyper,
    CheckpointError,
    DqnAgent,
    discounted_return,
    discounted_returns,
    load_agent,
    make_agent,
    normalize,
    q_update,
    save_agent,
)
from amg.agents import dqn, ppo
from amg.agents.checkpoint import MAGIC
from amg.agents.net import Adam, TanhNet, log_softmax
from amg.rl import Transition
from dqn_reference import DequeDqnAgent
from fuzzing import damaged
from grad_check import TRIALS

# ---------------------------------------------------------------------------
# exact arithmetic


def test_q_update_hand_case_exact():
    assert q_update(2.0, 1.0, 2.0, alpha=0.1, gamma=1.0) == 2.1


def test_q_update_terminal_style_case():
    # max_next contributes nothing when gamma is zero
    assert q_update(0.5, 1.0, 99.0, alpha=0.5, gamma=0.0) == 0.75


def test_discounted_return_hand_case_exact():
    assert discounted_return([1.0, 1.0, 1.0], gamma=0.5) == 1.75


def test_discounted_return_single_reward():
    assert discounted_return([3.0], gamma=0.9) == 3.0


def test_discounted_returns_vector_matches_backward_recursion():
    rewards = [1.0, -0.5, 2.0, 0.25]
    gamma = 0.7
    got = discounted_returns(rewards, gamma)
    expected = []
    acc = 0.0
    for r in reversed(rewards):
        acc = r + gamma * acc
        expected.append(acc)
    expected.reverse()
    assert np.allclose(got, expected)
    assert got[0] == pytest.approx(discounted_return(rewards, gamma))


def test_normalize_centers_and_scales():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    z = normalize(x)
    assert z.mean() == pytest.approx(0.0)
    assert z.std() == pytest.approx(1.0)


def test_normalize_constant_vector_is_safe():
    z = normalize(np.array([5.0, 5.0, 5.0]))
    assert np.all(np.isfinite(z))
    assert np.allclose(z, 0.0)


# ---------------------------------------------------------------------------
# numerics


def test_softmax_rows_sum_to_one_under_extreme_logits():
    z = np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]])
    p = np.exp(log_softmax(z))
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(np.isfinite(log_softmax(z)))


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_analytic_gradients_match_central_differences(name):
    trial = TRIALS[name]
    errors = [trial(seed) for seed in range(10)]
    assert max(errors) < 1e-4, f"{name}: worst relative error {max(errors):.3e}"


def test_adam_first_step_matches_closed_form():
    rng = np.random.default_rng(0)
    flat = rng.standard_normal(8)
    before = flat.copy()
    grads = rng.standard_normal(8)
    opt = Adam(flat, lr=0.01)
    opt.step(grads)
    # After one step the bias-corrected moments equal g and g^2 exactly.
    assert np.allclose(flat, before - 0.01 * grads / (np.abs(grads) + 1e-8), atol=1e-12)


@pytest.mark.parametrize("heads", [(3,), (3, 1)], ids=["one_head", "two_heads"])
def test_layers_are_views_into_the_flat_vector(heads):
    net = TanhNet(5, heads, hidden=(4, 6), seed=2)
    # the trunk's layers, then each head's weight and bias in ``heads`` order
    assert [p.shape for p in net.params] == [(5, 4), (4,), (4, 6), (6,),
                                             *[s for w in heads for s in ((6, w), (w,))]]
    assert all(np.shares_memory(p, net.flat) for p in net.params)
    assert sum(p.size for p in net.params) == net.flat.size == TanhNet.size(5, heads, (4, 6))
    before = [p.copy() for p in net.params]
    Adam(net.flat, lr=0.1).step(np.ones_like(net.flat))
    # One step moves every element by lr, and every layer sees it.
    for p0, p1 in zip(before, net.params):
        assert np.allclose(p1, p0 - 0.1)


def _adam_expression(flat, m, v, t, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam step as one expression over fresh temporaries, the oracle of
    the in-place step."""
    b1c = 1.0 - beta1**t
    b2c = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * (grads * grads)
    flat -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)


def test_adam_in_place_step_equals_the_expression_bit_for_bit():
    rng = np.random.default_rng(5)
    flat = rng.standard_normal(301)
    ref_flat, ref_m, ref_v = flat.copy(), np.zeros(301), np.zeros(301)
    opt = Adam(flat, lr=0.003)
    for t in range(1, 51):
        grads = rng.standard_normal(301) * 10.0 ** rng.integers(-8, 4)
        grads[rng.integers(301, size=20)] = 0.0
        opt.step(grads)
        _adam_expression(ref_flat, ref_m, ref_v, t, grads, lr=0.003)
        assert opt.t == t
        assert flat.tobytes() == ref_flat.tobytes()
        assert opt.m.tobytes() == ref_m.tobytes()
        assert opt.v.tobytes() == ref_v.tobytes()


def test_adam_step_allocates_less_than_one_parameter_vector():
    net = TanhNet(272, (10,), (64, 64), seed=0)
    opt = Adam(net.flat, lr=1e-3)
    grads = np.random.default_rng(0).standard_normal(net.flat.size)
    opt.step(grads)
    tracemalloc.start()
    try:
        opt.step(grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < net.flat.nbytes


# ---------------------------------------------------------------------------
# replay


@pytest.fixture
def small_replay(monkeypatch):
    """A DQN small enough that replay wraps and the target syncs within a few episodes."""
    for name, value in [("HIDDEN", (4,)), ("REPLAY_CAPACITY", 5), ("BATCH_SIZE", 4),
                        ("LEARN_START", 4), ("TARGET_SYNC", 7)]:
        monkeypatch.setattr(dqn, name, value)


def _replay_segments(rng, obs_dim=3):
    """(name, episodes) pairs, each episode a list of transitions: one-step
    episodes; chained episodes whose next state is the following step's
    state, as one array and as a fresh copy with equal bits; episodes whose
    next state differs from the following state only in the sign of a zero;
    and chained episodes whose every next state repeats its state's bits."""

    def episode(steps, follow, after):
        obs, out = rng.standard_normal(obs_dim), []
        for step in range(steps):
            nxt = after(obs)
            out.append(Transition(obs, int(rng.integers(2)), float(rng.standard_normal()),
                                  nxt, step == steps - 1, {}))
            obs = follow(nxt)
        return out

    def fresh(_):
        return rng.standard_normal(obs_dim)

    def zero_head(_):
        x = rng.standard_normal(obs_dim)
        x[0] = 0.0
        return x

    def negate_head(x):
        x = x.copy()
        x[0] = -0.0
        return x

    def same(x):
        return x

    yield "one-step", [episode(1, same, fresh) for _ in range(6)]
    yield "chained", [episode(4, same, fresh) for _ in range(4)]
    yield "chained-copies", [episode(4, np.copy, fresh) for _ in range(4)]
    yield "signed-zero", [episode(3, negate_head, zero_head) for _ in range(3)]
    yield "no-op", [episode(3, same, np.copy) for _ in range(2)]


def _learner_state(agent) -> tuple:
    return (agent.net.flat.tobytes(), agent.target.flat.tobytes(), agent.optim.m.tobytes(),
            agent.optim.v.tobytes(), agent.optim.t, agent.total_steps,
            agent.rng.bit_generator.state)


def test_replay_rings_learn_as_the_deque_did(small_replay):
    agent = make_agent("dqn", 3, 2, seed=3)
    reference = DequeDqnAgent(3, 2, AgentHyper(), seed=3)
    rows = {}
    for name, episodes in _replay_segments(np.random.default_rng(11)):
        before = agent.state_rows
        for transition in (t for ep in episodes for t in ep):
            agent.record(transition)
            reference.record(transition)
            assert _learner_state(agent) == _learner_state(reference)
        rows[name] = (agent.state_rows - before, sum(map(len, episodes)), len(episodes))
    # A chained episode costs one row per step plus its first state.
    for name in ("chained", "chained-copies"):
        written, transitions, episodes = rows[name]
        assert written == transitions + episodes
    for name in ("one-step", "signed-zero"):
        written, transitions, _ = rows[name]
        assert written == 2 * transitions
    assert rows["no-op"][0] == rows["no-op"][2]
    cap = dqn.REPLAY_CAPACITY
    assert agent.transitions > 2 * cap and agent.state_rows > 2 * (2 * cap)
    assert agent.optim.t > 40


def test_replay_shares_a_row_by_its_bits(small_replay):
    agent = make_agent("dqn", 3, 2, seed=0)
    nan_state = np.array([np.nan, -0.0, 1.0])
    agent.record(Transition(nan_state, 0, 0.0, nan_state.copy(), False, {}))
    assert agent.state_rows == 1
    assert agent._states[0].tobytes() == nan_state.tobytes()
    agent.record(Transition(np.array([np.nan, 0.0, 1.0]), 0, 0.0, nan_state, True, {}))
    assert agent.state_rows == 3


# ---------------------------------------------------------------------------
# acting


def _q_row(net, obs: np.ndarray) -> np.ndarray:
    """The action values of one state: the DQN net's only head."""
    (q,), _ = net.forward(obs)
    return q[0]


class _EpsilonDqn(DqnAgent):
    """``DqnAgent`` with its acting call as it was when the caller passed epsilon."""

    def select_action(self, obs: np.ndarray, epsilon: float) -> int:
        if self.rng.random() < epsilon:
            return int(self.rng.integers(self.n_actions))
        return int(np.argmax(_q_row(self.net, obs)))


def test_dqn_acts_as_epsilon_greedy_at_five_percent():
    agent = make_agent("dqn", 6, 4, seed=2)
    reference = _EpsilonDqn(6, 4, AgentHyper(), seed=2)
    rng = np.random.default_rng(0)
    off_greedy = 0
    for _ in range(200):
        obs = rng.standard_normal(6)
        action = agent.select_action(obs)
        assert action == reference.select_action(obs, 0.05)
        assert agent.rng.bit_generator.state == reference.rng.bit_generator.state
        off_greedy += action != int(np.argmax(_q_row(agent.net, obs)))
    assert 0 < off_greedy < 20


# ---------------------------------------------------------------------------
# learning sanity (single seed here; the acceptance gate sweeps three)


@pytest.mark.parametrize("kind", ["dqn", "pg", "ppo"])
def test_agent_recovers_corridor_optimum(kind):
    optimum = toy_chain.optimal_policy(gamma=0.9)
    agent = toy_chain.train_chain_agent(kind, seed=0)
    assert toy_chain.greedy_chain_policy(agent) == optimum


def test_value_iteration_oracle_values():
    v, q = toy_chain.value_iteration(gamma=0.9)
    # Hand expansion: V(3)=1, V(2)=-0.01+0.9*1, V(1)=-0.01+0.9*V(2), ...
    assert v[3] == pytest.approx(1.0)
    assert v[2] == pytest.approx(-0.01 + 0.9 * v[3])
    assert v[1] == pytest.approx(-0.01 + 0.9 * v[2])
    assert v[0] == pytest.approx(-0.01 + 0.9 * v[1])
    assert list(q.argmax(axis=1)) == [1, 1, 1, 1]


def test_random_agent_ignores_observations_but_honors_seed():
    a = make_agent("random", 5, 4, seed=3)
    b = make_agent("random", 5, 4, seed=3)
    obs = np.zeros(5)
    seq_a = [a.select_action(obs) for _ in range(50)]
    seq_b = [b.select_action(obs) for _ in range(50)]
    assert seq_a == seq_b
    assert set(seq_a) == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# persistence


def _assert_same_outputs(net, other, obs: np.ndarray) -> None:
    heads, _ = net.forward(obs)
    other_heads, _ = other.forward(obs)
    assert len(heads) == len(other_heads)
    for head, other_head in zip(heads, other_heads):
        assert np.array_equal(head, other_head)


@pytest.mark.parametrize("kind", ["dqn", "pg", "ppo", "random"])
def test_checkpoint_round_trip_preserves_policy(tmp_path, kind):
    agent = make_agent(kind, 6, 3, AgentHyper(alpha=0.002, gamma=0.95), seed=4)
    if kind != "random":  # nudge weights off their init so the test is not vacuous
        agent.net.flat += np.random.default_rng(0).standard_normal(agent.net.flat.size) * 0.01
    path = tmp_path / f"{kind}.agent"
    save_agent(path, agent)
    clone = load_agent(path, seed=0)
    assert clone.kind == kind
    assert clone.hyper == agent.hyper
    assert (clone.obs_dim, clone.n_actions) == (6, 3)
    for name, arr in agent.state_arrays().items():
        assert np.array_equal(clone.state_arrays()[name], arr)
    if kind != "random":
        obs = np.random.default_rng(1).standard_normal((10, 6))
        _assert_same_outputs(clone.net, agent.net, obs)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.agent"
    path.write_bytes(b"NOTANAGT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_agent(path, seed=0)


def test_checkpoint_rejects_deeply_nested_header(tmp_path):
    path = tmp_path / "nested.agent"
    head = b"[" * 100_000
    path.write_bytes(MAGIC + struct.pack("<I", len(head)) + head + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
        load_agent(path, seed=0)


def test_checkpoint_rejects_header_with_an_overlong_integer(tmp_path):
    """json reads an int past Python's digit limit as a plain ValueError."""
    path = tmp_path / "long.agent"
    head = b'{"obs_dim": ' + b"9" * 5000 + b"}"
    path.write_bytes(MAGIC + struct.pack("<I", len(head)) + head + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
        load_agent(path, seed=0)


def test_checkpoint_rejects_truncation(tmp_path):
    agent = make_agent("pg", 4, 2, seed=0)
    path = tmp_path / "pg.agent"
    save_agent(path, agent)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_agent(path, seed=0)


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a saved checkpoint's JSON header in place."""
    blob = path.read_bytes()
    (head_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + head_len :])


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.pop("obs_dim"),
        lambda h: h.update(obs_dim=5),
        lambda h: h.update(n_actions="three"),
        lambda h: h.update(hyper=[1, 2]),
        lambda h: h.update(obs_dim=100_000),
        lambda h: h.update(obs_dim=float("inf")),
    ],
    ids=["missing-obs-dim", "mis-sized-array", "non-integer-dim", "bad-hyper", "oversized-obs-dim",
         "infinite-obs-dim"],
)
def test_checkpoint_rejects_header_that_does_not_fit(tmp_path, edit):
    path = tmp_path / "ppo.agent"
    save_agent(path, make_agent("ppo", 4, 2, seed=0))
    rewrite_header(path, edit)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            load_agent(path, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Rejecting a header costs memory in proportion to the file, not to what the header claims.
    assert peak < 10 * path.stat().st_size


def test_checkpoint_ignores_unknown_hyper_keys(tmp_path):
    """Headers written when ``AgentHyper`` still had an epsilon schedule, a
    replay capacity or hidden widths load, and the agent acts as saved."""
    path = tmp_path / "dqn.agent"
    agent = make_agent("dqn", 4, 2, seed=0)
    for extra in (
        {"eps_start": 1.0, "eps_end": 0.05, "eps_decay_steps": 2000},
        {"replay_capacity": 10**12},
        {"hidden": [8]},
    ):
        save_agent(path, agent)
        rewrite_header(path, lambda h: h["hyper"].update(extra))
        clone = load_agent(path, seed=0)
        assert clone.hyper == agent.hyper
        assert np.array_equal(clone.net.flat, agent.net.flat)
        _assert_same_outputs(clone.net, agent.net, np.ones(4))


@pytest.mark.parametrize(
    "hyper",
    [{"alpha": "fast", "gamma": [1]}, {"alpha": float("nan")}, {"gamma": float("inf")},
     {"gamma": True}, {"alpha": 10**400}],
    ids=["string-and-list", "nan", "infinite", "bool", "past-float-range"],
)
def test_checkpoint_rejects_hyper_that_is_not_a_finite_number(tmp_path, hyper):
    """Such a header is refused at load, not at the agent's first update."""
    path = tmp_path / "dqn.agent"
    save_agent(path, make_agent("dqn", 4, 2, seed=0))
    rewrite_header(path, lambda h: h["hyper"].update(hyper))
    with pytest.raises(CheckpointError):
        load_agent(path, seed=0)


def test_checkpoint_sized_for_other_hidden_widths_is_rejected(tmp_path):
    path = tmp_path / "ppo.agent"
    with pytest.MonkeyPatch.context() as mp:
        small_nets(mp)
        save_agent(path, make_agent("ppo", 4, 2, seed=0))
    with pytest.raises(CheckpointError, match="do not fit the header"):
        load_agent(path, seed=0)


def small_nets(mp: pytest.MonkeyPatch) -> None:
    """Give both learners one hidden layer of 8, so a checkpoint is a few KB."""
    for module in (dqn, ppo):
        mp.setattr(module, "HIDDEN", (8,))


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoint-fuzz")
    blobs = {}
    with pytest.MonkeyPatch.context() as mp:
        small_nets(mp)
        for kind in ("dqn", "ppo"):
            save_agent(root / "agent.bin", make_agent(kind, 6, 3, seed=0))
            blob = (root / "agent.bin").read_bytes()
            (head_len,) = struct.unpack_from("<I", blob, 8)
            blobs[kind] = (blob, 12 + head_len + 16)
    return root / "agent.bin", blobs


@settings(max_examples=120, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["dqn", "ppo"]))
def test_property_damaged_checkpoint_loads_or_raises(saved_checkpoints, data, kind):
    path, blobs = saved_checkpoints
    blob, head = blobs[kind]
    path.write_bytes(data.draw(damaged(blob, head)))
    try:
        with pytest.MonkeyPatch.context() as mp:
            small_nets(mp)
            agent = load_agent(path, seed=0)
    except CheckpointError:
        return
    assert agent.state_arrays()


def test_make_agent_rejects_unknown_kind():
    with pytest.raises(CheckpointError):
        make_agent("sarsa", 4, 2, seed=0)
