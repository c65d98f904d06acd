"""Monte-Carlo policy gradient: sampled actions, full-episode discounted
returns normalized across the update batch, one gradient step per batch.

Acting, recording and episode batching are PPO's; only the update differs."""

from __future__ import annotations

import numpy as np

from .base import normalize
from .net import reinforce_loss_and_grads
from .ppo import PpoAgent


class ReinforceAgent(PpoAgent):
    kind = "pg"

    def _update(self) -> None:
        obs = np.stack([b[0] for b in self._batch])
        actions = np.array([b[1] for b in self._batch])
        weights = normalize(np.array([b[2] for b in self._batch]))
        _, grads = reinforce_loss_and_grads(self.net, obs, actions, weights)
        self.optim.step(grads)
