"""Central finite-difference verification harness for the hand-written
network gradients.  Shared by the unit tests and the acceptance gate.

Each trial builds a tiny randomized network (about twenty parameters, so
the full Jacobian is cheap), draws a random batch, and compares the
analytic gradient vector against central differences.
"""

from __future__ import annotations

import numpy as np

from amg.agents.net import (
    TanhNet,
    ppo_loss_and_grads,
    reinforce_loss_and_grads,
    td_loss_and_grads,
)

BATCH = 8


def fd_relative_error(net, loss_fn, eps: float = 1e-5) -> float:
    """Relative L2 error between analytic and central-difference gradients."""
    loss_fn_only = lambda: loss_fn()[0]
    _, analytic = loss_fn()
    flat0 = net.flat.copy()
    numeric = np.zeros_like(flat0)
    for i in range(flat0.size):
        net.flat[i] = flat0[i] + eps
        hi = loss_fn_only()
        net.flat[i] = flat0[i] - eps
        lo = loss_fn_only()
        net.flat[i] = flat0[i]
        numeric[i] = (hi - lo) / (2.0 * eps)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def td_trial(seed: int) -> float:
    rng = np.random.default_rng(seed)
    net = TanhNet(3, (2,), hidden=(3,), seed=seed)  # 3*3+3 + 3*2+2 = 20 parameters
    obs = rng.standard_normal((BATCH, 3))
    actions = rng.integers(0, 2, size=BATCH)
    targets = rng.standard_normal(BATCH)
    return fd_relative_error(net, lambda: td_loss_and_grads(net, obs, actions, targets))


def reinforce_trial(seed: int) -> float:
    rng = np.random.default_rng(seed)
    net = TanhNet(2, (2, 1), hidden=(3,), seed=seed)  # 2*3+3 + 3*2+2 + 3*1+1 = 21
    obs = rng.standard_normal((BATCH, 2))
    actions = rng.integers(0, 2, size=BATCH)
    weights = rng.standard_normal(BATCH)
    return fd_relative_error(
        net, lambda: reinforce_loss_and_grads(net, obs, actions, weights)
    )


def ppo_trial(seed: int) -> float:
    rng = np.random.default_rng(seed)
    net = TanhNet(2, (2, 1), hidden=(3,), seed=seed)
    obs = rng.standard_normal((BATCH, 2))
    actions = rng.integers(0, 2, size=BATCH)
    # Spread old log-probs so the batch mixes clipped and unclipped ratios.
    (logits, _), _ = net.forward(obs)
    logits = logits - logits.max(axis=1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    old_logp = logp[np.arange(BATCH), actions] + rng.normal(0.0, 0.5, size=BATCH)
    advantages = rng.standard_normal(BATCH)
    returns = rng.standard_normal(BATCH)
    return fd_relative_error(
        net,
        lambda: ppo_loss_and_grads(
            net, obs, actions, old_logp, advantages, returns,
            clip=0.2, value_coef=0.5, entropy_coef=0.01,
        ),
    )


TRIALS = {"td": td_trial, "reinforce": reinforce_trial, "ppo": ppo_trial}
