"""Reference replay: a ``deque`` of per-transition tuples.

This is the replay ``DqnAgent`` kept before it stored transitions as ring
arrays, kept verbatim as the oracle the rings must agree with: ``_learn``
draws ``picks`` over the deque's length and stacks the picked tuples, so the
same draws must give the same batches, updates and rng state.  It reads the
replay constants from :mod:`amg.agents.dqn` when it runs, so a test that
shrinks them shrinks both.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from amg.agents import dqn
from amg.agents.dqn import DqnAgent
from amg.agents.net import td_loss_and_grads


class DequeDqnAgent(DqnAgent):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replay: deque = deque(maxlen=dqn.REPLAY_CAPACITY)

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
        if len(self.replay) >= max(dqn.LEARN_START, dqn.BATCH_SIZE):
            self._learn()
        if self.total_steps % dqn.TARGET_SYNC == 0:
            self.target.flat[:] = self.net.flat

    def _learn(self) -> None:
        picks = self.rng.integers(len(self.replay), size=dqn.BATCH_SIZE)
        batch = [self.replay[i] for i in picks]
        obs = np.stack([b[0] for b in batch])
        actions = np.array([b[1] for b in batch])
        rewards = np.array([b[2] for b in batch])
        next_obs = np.stack([b[3] for b in batch])
        done = np.array([b[4] for b in batch], dtype=np.float64)
        next_q = self.target.forward(next_obs)[0][0].max(axis=1)
        targets = rewards + self.hyper.gamma * (1.0 - done) * next_q
        _, grads = td_loss_and_grads(self.net, obs, actions, targets)
        self.optim.step(grads)
