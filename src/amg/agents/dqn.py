"""Action-value learner: epsilon-greedy exploration, uniform replay, and a
periodically synced target network for the bootstrap targets."""

from __future__ import annotations

from collections import deque

import numpy as np

from .base import AgentHyper
from .net import Adam, QNet, td_loss_and_grads


class DqnAgent:
    kind = "dqn"

    def __init__(self, obs_dim: int, n_actions: int, hyper: AgentHyper, seed: int = 0):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)
        self.net = QNet(obs_dim, n_actions, hyper.hidden, seed=seed)
        self.target = QNet(obs_dim, n_actions, hyper.hidden, seed=seed)
        self.optim = Adam(self.net.flat, lr=hyper.alpha)
        self.replay: deque = deque(maxlen=hyper.replay_capacity)
        self.total_steps = 0

    def select_action(self, obs: np.ndarray, epsilon: float) -> int:
        if self.rng.random() < epsilon:
            return int(self.rng.integers(self.n_actions))
        q = self.net.q_values(obs)[0]
        return int(np.argmax(q))

    def record(self, transition) -> None:
        self.replay.append(
            (
                np.asarray(transition.observation, dtype=np.float64),
                int(transition.action),
                float(transition.reward),
                np.asarray(transition.next_observation, dtype=np.float64),
                bool(transition.done),
            )
        )
        self.total_steps += 1
        if len(self.replay) >= max(self.hyper.learn_start, self.hyper.batch_size):
            self._learn()
        if self.total_steps % self.hyper.target_sync == 0:
            self.target.flat[:] = self.net.flat

    def _learn(self) -> None:
        h = self.hyper
        picks = self.rng.integers(len(self.replay), size=h.batch_size)
        batch = [self.replay[i] for i in picks]
        obs = np.stack([b[0] for b in batch])
        actions = np.array([b[1] for b in batch])
        rewards = np.array([b[2] for b in batch])
        next_obs = np.stack([b[3] for b in batch])
        done = np.array([b[4] for b in batch], dtype=np.float64)
        next_q = self.target.q_values(next_obs).max(axis=1)
        targets = rewards + h.gamma * (1.0 - done) * next_q
        _, grads = td_loss_and_grads(self.net, obs, actions, targets)
        self.optim.step(grads)

    def end_episode(self) -> None:
        pass

    # -- checkpoint hooks -----------------------------------------------------

    @staticmethod
    def state_sizes(obs_dim: int, n_actions: int, hyper: AgentHyper) -> dict[str, int]:
        n = QNet.size(obs_dim, n_actions, hyper.hidden)
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
