"""Environment and state encoding for learning rewrite policies."""

from .env import (
    AlreadyBenign,
    EnvConfig,
    EpisodeFinished,
    ObservationMemo,
    RewriteEnv,
    Transition,
    REWARD_EVASION,
    REWARD_STEP,
)
from .observation import N_OBSERVATION, byte_histogram, observe

__all__ = [
    "AlreadyBenign",
    "EnvConfig",
    "EpisodeFinished",
    "ObservationMemo",
    "RewriteEnv",
    "Transition",
    "REWARD_EVASION",
    "REWARD_STEP",
    "N_OBSERVATION",
    "byte_histogram",
    "observe",
]
