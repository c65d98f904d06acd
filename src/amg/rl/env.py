"""Sequential rewrite environment around a black-box classifier.

An episode starts from one detected file.  Each step applies one of the ten
rewrite actions, re-serializes, and submits the result to the classifier —
exactly one query per step, verdict only.  Evasion ends the episode with a
bonus; every step costs a small penalty; the step budget caps the episode.
The environment never reads classifier internals (no margins, no feature
vectors), so an agent trained against it sees what a real query interface
would show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import pe_model
from ..bytestats import ByteCounts
from ..detector import Verdict
from ..memo import ContentMemo
from ..pe_mods import (
    ACTION_COUNT,
    ActionId,
    BenignContentPool,
    Outcome,
    apply_action,
)
from ..seeds import fanout
from .observation import observe

REWARD_EVASION = 10.0
REWARD_STEP = -0.1


class AlreadyBenign(Exception):
    """The starting file is not detected, so there is nothing to evade."""


class EpisodeFinished(Exception):
    """step() was called after the episode ended; call reset() first."""


@dataclass
class Transition:
    observation: np.ndarray
    action: int
    reward: float
    next_observation: np.ndarray
    done: bool
    info: dict


class RewriteEnv:
    """One-file episode loop; ``classify`` is any bytes -> Verdict callable,
    ``max_steps`` (1 or more) the step budget and ``seed`` the root of every
    step's action seed.

    Each state is observed from the byte counts carried from the last state
    observed, so a step counts only the bytes its rewrite changed; a reset
    starts from no counts.  ``observations``, a memo of observations by the
    bytes they encode that may outlive the env and be shared with others,
    answers states met before; an env given none keeps none and hashes
    nothing.  The env shares nothing with the classifier.
    """

    def __init__(
        self,
        raw: bytes,
        classify: Callable[[bytes], Verdict],
        pool: BenignContentPool,
        max_steps: int,
        seed: int,
        observations: ContentMemo | None = None,
    ):
        if max_steps < 1:
            raise ValueError(f"max_steps must be 1 or more, got {max_steps}")
        self._raw = raw
        self._classify = classify
        self._pool = pool
        self._max_steps = max_steps
        self._seed = seed
        self._observations = observations
        self._counts = None
        self.episode = -1
        self._img = None
        self._bytes = raw
        self._obs = None
        self._steps = 0
        self._done = True

    # -- episode control ----------------------------------------------------

    def reset(self) -> np.ndarray:
        self.episode += 1
        self._img = pe_model.parse(self._raw)
        self._bytes = self._raw
        if self._classify(self._raw) is not Verdict.MALICIOUS:
            raise AlreadyBenign("starting file is not detected")
        self._steps = 0
        self._done = False
        self._counts = ByteCounts()
        self._obs = self._observe()
        return self._obs

    def step(self, action: int) -> Transition:
        if self._done:
            raise EpisodeFinished("episode is over; call reset()")
        if not 0 <= action < ACTION_COUNT:
            raise ValueError(f"action must be in [0, {ACTION_COUNT}), got {action}")
        seed = fanout(self._seed, "env", self.episode, self._steps, action)
        result = apply_action(self._img, ActionId(action), self._pool, seed=seed)
        if result.outcome is Outcome.APPLIED:
            self._img = result.image
            self._bytes = pe_model.serialize(self._img)
        self._steps += 1
        evaded = self._classify(self._bytes) is not Verdict.MALICIOUS
        reward = REWARD_EVASION if evaded else REWARD_STEP
        self._done = evaded or self._steps >= self._max_steps
        if result.outcome is Outcome.APPLIED:
            next_obs = self._observe()
        else:
            next_obs = self._obs.copy()  # same image, same bytes: observe would repeat itself
        transition = Transition(
            observation=self._obs,
            action=action,
            reward=reward,
            next_observation=next_obs,
            done=self._done,
            info={"outcome": result.outcome.value, "evaded": evaded, "seed": seed},
        )
        self._obs = next_obs
        return transition

    def _observe(self) -> np.ndarray:
        """A fresh ``observe`` of the current image, or a copy of the memo's."""
        # ``observe`` is the module global, so a patched one sees every miss
        if self._observations is None:
            return observe(self._img, self._bytes, self._counts)
        return self._observations.get(
            self._bytes, lambda: observe(self._img, self._bytes, self._counts)
        ).copy()

    # -- views ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def current_bytes(self) -> bytes:
        return self._bytes
