"""Action-value learner: epsilon-greedy exploration, uniform replay, and a
periodically synced target network for the bootstrap targets (the scheme of
Mnih et al., Nature 2015, at this lab's scale)."""

from __future__ import annotations

import numpy as np

from .base import HIDDEN, AgentHyper
from .net import Adam, TanhNet, td_loss_and_grads

#: Exploration rate in training and evaluation alike: a little stochasticity
#: keeps a policy from pinning itself to one useless action.
EPSILON = 0.05
#: Steps between copies of the learning net into the target net.
TARGET_SYNC = 250
#: Transitions held in replay; older ones are overwritten.
REPLAY_CAPACITY = 10_000
#: Transitions drawn per TD step.
BATCH_SIZE = 32
#: Transitions held before the first TD step (at least ``BATCH_SIZE`` are).
LEARN_START = 64


class DqnAgent:
    """Replay is a ring of ``REPLAY_CAPACITY`` transitions over a ring of
    ``2 * REPLAY_CAPACITY`` state rows. A transition holds the row indices
    of its two states, so a state equal bit for bit to the row written last
    (the next observation of the step before, in a chained episode) takes
    no second row. The arrays are made on the first ``record``: building or
    loading an agent allocates nothing for replay."""

    kind = "dqn"

    def __init__(self, obs_dim: int, n_actions: int, hyper: AgentHyper, seed: int):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)
        self.net = TanhNet(obs_dim, (n_actions,), HIDDEN, seed=seed)
        self.target = TanhNet(obs_dim, (n_actions,), HIDDEN, seed=seed)
        self.optim = Adam(self.net.flat, lr=hyper.alpha)
        self.total_steps = 0
        self.transitions = 0  # recorded into replay; the newest REPLAY_CAPACITY are held
        self.state_rows = 0  # state rows written
        self._states = None

    def select_action(self, obs: np.ndarray) -> int:
        if self.rng.random() < EPSILON:
            return int(self.rng.integers(self.n_actions))
        (q,), _ = self.net.forward(obs)
        return int(np.argmax(q[0]))

    def record(self, transition) -> None:
        cap = REPLAY_CAPACITY
        if self._states is None:
            # Each transition writes at most two rows and shares only the row
            # written last, so a held transition's oldest row is at most
            # 2 * cap - 1 writes old: 2 * cap rows never overwrite a live one.
            self._states = np.empty((2 * cap, self.obs_dim))
            self._obs_row = np.empty(cap, dtype=np.intp)
            self._next_row = np.empty(cap, dtype=np.intp)
            self._actions = np.empty(cap, dtype=np.int64)
            self._rewards = np.empty(cap)
            self._done = np.empty(cap)
        slot = self.transitions % cap
        self._obs_row[slot] = self._state_row(transition.observation)
        self._next_row[slot] = self._state_row(transition.next_observation)
        self._actions[slot] = int(transition.action)
        self._rewards[slot] = float(transition.reward)
        self._done[slot] = bool(transition.done)
        self.transitions += 1
        self.total_steps += 1
        if min(self.transitions, cap) >= max(LEARN_START, BATCH_SIZE):
            self._learn()
        if self.total_steps % TARGET_SYNC == 0:
            self.target.flat[:] = self.net.flat

    def _state_row(self, obs) -> int:
        """The row holding ``obs``: the row written last if its bytes are
        ``obs``'s (so -0.0 and NaN stay exact), else a newly written one."""
        obs = np.asarray(obs, dtype=np.float64)
        rows = self._states
        last = (self.state_rows - 1) % len(rows)
        if self.state_rows and rows[last].tobytes() == obs.tobytes():
            return last
        row = self.state_rows % len(rows)
        rows[row] = obs
        self.state_rows += 1
        return row

    def _learn(self) -> None:
        """TD step on a uniform batch. Draw ``i`` names the ``i``-th oldest
        held transition, so the same draws give the same batch as a deque."""
        held = min(self.transitions, REPLAY_CAPACITY)
        picks = self.rng.integers(held, size=BATCH_SIZE)
        slots = (self.transitions - held + picks) % REPLAY_CAPACITY
        obs = self._states[self._obs_row[slots]]
        next_obs = self._states[self._next_row[slots]]
        (q_next,), _ = self.target.forward(next_obs)
        next_q = q_next.max(axis=1)
        targets = self._rewards[slots] + self.hyper.gamma * (1.0 - self._done[slots]) * next_q
        _, grads = td_loss_and_grads(self.net, obs, self._actions[slots], targets)
        self.optim.step(grads)

    def end_episode(self) -> None:
        pass

    # -- checkpoint hooks -----------------------------------------------------

    @staticmethod
    def state_sizes(obs_dim: int, n_actions: int) -> dict[str, int]:
        n = TanhNet.size(obs_dim, (n_actions,), HIDDEN)
        return {"net": n, "target": n, "counters": 1}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "net": self.net.flat.copy(),
            "target": self.target.flat.copy(),
            "counters": np.array([self.total_steps], dtype=np.float64),
        }

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.net.flat[:] = arrays["net"]
        self.target.flat[:] = arrays["target"]
        self.total_steps = int(arrays["counters"][0])
