"""Clipped-surrogate policy optimization over a shared policy/value net.

Episodes accumulate into a batch; each update recomputes state values,
normalizes advantages (return minus value), and runs several epochs of
shuffled minibatches against the probabilities the actions were sampled
under (Schulman et al., arXiv:1707.06347)."""

from __future__ import annotations

import numpy as np

from .base import HIDDEN, AgentHyper, discounted_returns, normalize
from .net import Adam, TanhNet, log_softmax, ppo_loss_and_grads

#: Episodes buffered per update.
EPISODES_PER_UPDATE = 8
#: Half-width of the window the probability ratio is clipped to.
CLIP = 0.2
#: Passes over the buffered batch per update.
EPOCHS = 4
#: Transitions per gradient step.
MINIBATCH = 64
#: Weight of the value loss in the objective.
VALUE_COEF = 0.5
#: Weight of the entropy bonus in the objective.
ENTROPY_COEF = 0.01


class PpoAgent:
    kind = "ppo"

    def __init__(self, obs_dim: int, n_actions: int, hyper: AgentHyper, seed: int):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)
        self.net = TanhNet(obs_dim, (n_actions, 1), HIDDEN, seed=seed)
        self.optim = Adam(self.net.flat, lr=hyper.alpha)
        self._last_logp = 0.0
        self._episode: list[tuple[np.ndarray, int, float, float]] = []
        self._batch: list[tuple[np.ndarray, int, float, float]] = []
        self._episodes_buffered = 0

    def select_action(self, obs: np.ndarray) -> int:
        (logits, _), _ = self.net.forward(obs)
        logp = log_softmax(logits)[0]
        action = int(self.rng.choice(self.n_actions, p=np.exp(logp)))
        self._last_logp = float(logp[action])
        return action

    def record(self, transition) -> None:
        logp = self._last_logp
        self._episode.append(
            (
                np.asarray(transition.observation, dtype=np.float64),
                int(transition.action),
                float(transition.reward),
                logp,
            )
        )

    def end_episode(self) -> None:
        if not self._episode:
            return
        rewards = [r for _, _, r, _ in self._episode]
        returns = discounted_returns(rewards, self.hyper.gamma)
        for (obs, action, _, logp), g in zip(self._episode, returns):
            self._batch.append((obs, action, float(g), logp))
        self._episode = []
        self._episodes_buffered += 1
        if self._episodes_buffered >= EPISODES_PER_UPDATE:
            self._update()
            self._batch = []
            self._episodes_buffered = 0

    def _update(self) -> None:
        """One learning step on the buffered batch of (obs, action, return, logp)."""
        obs = np.stack([b[0] for b in self._batch])
        actions = np.array([b[1] for b in self._batch])
        returns = np.array([b[2] for b in self._batch])
        old_logp = np.array([b[3] for b in self._batch])
        (_, values), _ = self.net.forward(obs)
        advantages = normalize(returns - values[:, 0])
        n = len(self._batch)
        for _ in range(EPOCHS):
            order = self.rng.permutation(n)
            for start in range(0, n, MINIBATCH):
                pick = order[start : start + MINIBATCH]
                _, grads = ppo_loss_and_grads(
                    self.net,
                    obs[pick],
                    actions[pick],
                    old_logp[pick],
                    advantages[pick],
                    returns[pick],
                    clip=CLIP,
                    value_coef=VALUE_COEF,
                    entropy_coef=ENTROPY_COEF,
                )
                self.optim.step(grads)

    # -- checkpoint hooks -----------------------------------------------------

    @staticmethod
    def state_sizes(obs_dim: int, n_actions: int) -> dict[str, int]:
        return {"net": TanhNet.size(obs_dim, (n_actions, 1), HIDDEN)}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"net": self.net.flat.copy()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.net.flat[:] = arrays["net"]
