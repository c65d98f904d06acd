"""Shared agent configuration and the scalar update rules."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np


#: Hidden widths of every agent's tanh trunk.
HIDDEN = (64, 64)


@dataclass
class AgentHyper:
    """The two settings the staged workflow sweeps; everything else about
    an agent is a constant of its module."""

    alpha: float = 1e-3           # Adam learning rate
    gamma: float = 0.9            # discount factor

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AgentHyper":
        """The settings in ``d``, ignoring keys this class no longer has; a value
        that is not a finite number raises here, not at the first update."""
        kept = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        for k, v in kept.items():
            if type(v) not in (int, float) or not math.isfinite(v):
                raise ValueError(f"hyper {k} must be a finite number, got {v!r}")
        return cls(**{k: float(v) for k, v in kept.items()})


def q_update(q: float, reward: float, max_next: float, alpha: float, gamma: float) -> float:
    """One tabular action-value update: q + alpha * (reward + gamma*max_next - q)."""
    return q + alpha * (reward + gamma * max_next - q)


def discounted_return(rewards: Sequence[float], gamma: float) -> float:
    """Discounted sum of a reward sequence from its first step."""
    return float(discounted_returns(rewards, gamma)[0]) if len(rewards) else 0.0


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
