"""Environment and state encoding for learning rewrite policies."""

from .env import (
    AlreadyBenign,
    EpisodeFinished,
    RewriteEnv,
    Transition,
    REWARD_EVASION,
    REWARD_STEP,
)
from .observation import N_OBSERVATION, observe

__all__ = [
    "AlreadyBenign",
    "EpisodeFinished",
    "RewriteEnv",
    "Transition",
    "REWARD_EVASION",
    "REWARD_STEP",
    "N_OBSERVATION",
    "observe",
]
