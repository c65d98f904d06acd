"""Monte-Carlo policy gradient: sampled actions, full-episode discounted
returns normalized across the update batch, one gradient step per batch."""

from __future__ import annotations

import numpy as np

from .base import AgentHyper, discounted_returns, normalize
from .net import Adam, PolicyValueNet, reinforce_loss_and_grads, softmax


class ReinforceAgent:
    kind = "pg"

    def __init__(self, obs_dim: int, n_actions: int, hyper: AgentHyper, seed: int = 0):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)
        self.net = PolicyValueNet(obs_dim, n_actions, hyper.hidden, seed=seed)
        self.optim = Adam(self.net.params, lr=hyper.alpha)
        self._episode: list[tuple[np.ndarray, int, float]] = []
        self._batch_obs: list[np.ndarray] = []
        self._batch_actions: list[int] = []
        self._batch_returns: list[float] = []
        self._episodes_buffered = 0

    def select_action(self, obs: np.ndarray, greedy: bool = False) -> int:
        probs = self.net.policy(obs)[0]
        if greedy:
            return int(np.argmax(probs))
        return int(self.rng.choice(self.n_actions, p=probs))

    def record(self, transition) -> None:
        self._episode.append(
            (
                np.asarray(transition.observation, dtype=np.float64),
                int(transition.action),
                float(transition.reward),
            )
        )

    def end_episode(self) -> None:
        if not self._episode:
            return
        rewards = [r for _, _, r in self._episode]
        returns = discounted_returns(rewards, self.hyper.gamma)
        for (obs, action, _), g in zip(self._episode, returns):
            self._batch_obs.append(obs)
            self._batch_actions.append(action)
            self._batch_returns.append(float(g))
        self._episode = []
        self._episodes_buffered += 1
        if self._episodes_buffered >= self.hyper.episodes_per_update:
            self._update()

    def _update(self) -> None:
        obs = np.stack(self._batch_obs)
        actions = np.array(self._batch_actions)
        weights = normalize(np.array(self._batch_returns))
        _, grads = reinforce_loss_and_grads(self.net, obs, actions, weights)
        self.optim.step(self.net.params, grads)
        self._batch_obs = []
        self._batch_actions = []
        self._batch_returns = []
        self._episodes_buffered = 0

    # -- checkpoint hooks -----------------------------------------------------

    @staticmethod
    def state_sizes(obs_dim: int, n_actions: int, hyper: AgentHyper) -> dict[str, int]:
        return {"net": PolicyValueNet.size(obs_dim, n_actions, hyper.hidden)}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"net": self.net.get_flat()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.net.set_flat(arrays["net"])
