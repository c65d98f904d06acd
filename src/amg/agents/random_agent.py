"""Uniform-random action baseline with the same driving surface as learners."""

from __future__ import annotations

import numpy as np

from .base import AgentHyper


class RandomAgent:
    kind = "random"

    def __init__(self, obs_dim: int, n_actions: int, hyper: AgentHyper, seed: int):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hyper = hyper
        self.rng = np.random.default_rng(seed)

    def select_action(self, obs: np.ndarray) -> int:
        return int(self.rng.integers(self.n_actions))

    def record(self, transition) -> None:
        pass

    def end_episode(self) -> None:
        pass

    @staticmethod
    def state_sizes(obs_dim: int, n_actions: int) -> dict[str, int]:
        return {}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        pass
