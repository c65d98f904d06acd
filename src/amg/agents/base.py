"""Shared agent configuration and the scalar update rules."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np


@dataclass
class AgentHyper:
    """Hyperparameters understood by every agent; unused fields are ignored."""

    alpha: float = 1e-3           # Adam learning rate
    gamma: float = 0.9            # discount factor
    hidden: tuple = (64, 64)
    # value-learner knobs
    target_sync: int = 250
    replay_capacity: int = 10_000
    batch_size: int = 32
    learn_start: int = 64
    # policy-gradient knobs
    episodes_per_update: int = 8
    clip: float = 0.2
    ppo_epochs: int = 4
    minibatch: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.01

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AgentHyper":
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        if "hidden" in known:
            known["hidden"] = tuple(known["hidden"])
        return cls(**known)


def q_update(q: float, reward: float, max_next: float, alpha: float, gamma: float) -> float:
    """One tabular action-value update: q + alpha * (reward + gamma*max_next - q)."""
    return q + alpha * (reward + gamma * max_next - q)


def discounted_return(rewards: Sequence[float], gamma: float) -> float:
    """Discounted sum of a reward sequence from its first step."""
    g = 0.0
    for r in reversed(list(rewards)):
        g = r + gamma * g
    return g


def discounted_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """Per-step discounted returns (the return from each step onward)."""
    out = np.zeros(len(rewards))
    g = 0.0
    for i in reversed(range(len(rewards))):
        g = rewards[i] + gamma * g
        out[i] = g
    return out


def normalize(x: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance scaling; safe for constant or single values."""
    x = np.asarray(x, dtype=np.float64)
    return (x - x.mean()) / (x.std() + 1e-8)
