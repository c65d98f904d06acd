"""One tanh multilayer perceptron with linear heads and hand-written
backpropagation.

``TanhNet`` maps a state through a tanh trunk to one linear head per width
it is given: the action-value learner uses one head (a value per action),
the policy learners two on a shared trunk (action logits and a scalar state
value).  Gradients are derived analytically and verified against central
finite differences in the test suite, so the math here is written for
auditability: the forward pass returns its cache and every backward pass
consumes exactly one.  The net keeps its parameters in one flat vector whose
layers are views, so the optimizer, target syncs and checkpoints act on one
array.

Tanh is used throughout because its gradient is smooth everywhere, which
makes finite-difference verification exact to first order (piecewise-linear
activations fail such checks at their kinks).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class TanhNet:
    """obs -> tanh trunk of widths ``hidden`` -> one linear head per width in
    ``heads``, all of whose parameters live in one contiguous vector ``flat``.

    ``params`` holds views into ``flat`` in ``layer_shapes`` order (w0, b0,
    w1, b1, ..., then each head's weight and bias in ``heads`` order), so
    writing ``flat`` moves every layer and a gradient in the same layout
    updates them all.
    """

    @staticmethod
    def layer_shapes(obs_dim: int, heads, hidden) -> list[tuple[int, ...]]:
        sizes = [obs_dim, *hidden]
        layers = [*zip(sizes, sizes[1:]), *((sizes[-1], width) for width in heads)]
        return [shape for fan_in, fan_out in layers for shape in ((fan_in, fan_out), (fan_out,))]

    @classmethod
    def size(cls, obs_dim: int, heads, hidden) -> int:
        """Parameter count of a net with these dimensions, without building it."""
        return sum(math.prod(s) for s in cls.layer_shapes(obs_dim, heads, hidden))

    def __init__(self, obs_dim: int, heads, hidden, seed: int):
        self.hidden = tuple(hidden)
        self._shapes = self.layer_shapes(obs_dim, heads, self.hidden)
        self.flat = np.empty(self.size(obs_dim, heads, self.hidden))
        self.params = self._views(self.flat)
        top = 2 * len(self.hidden)
        self._heads = list(zip(self.params[top::2], self.params[top + 1 :: 2]))  # (weight, bias)
        rng = np.random.default_rng(seed)
        for w, b in zip(self.params[::2], self.params[1::2]):
            w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[0])
            b[...] = 0.0

    def _views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-layer views into a vector laid out like ``flat``."""
        out, offset = [], 0
        for shape in self._shapes:
            n = math.prod(shape)
            out.append(vec[offset : offset + n].reshape(shape))
            offset += n
        return out

    def forward(self, X: np.ndarray):
        """``([one output per head], activations)`` for the batch ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        activations = [X]
        h = X
        for i in range(len(self.hidden)):
            h = np.tanh(h @ self.params[2 * i] + self.params[2 * i + 1])
            activations.append(h)
        return [h @ w + b for w, b in self._heads], activations

    def backward(self, activations: list[np.ndarray], d_heads: list[np.ndarray]) -> np.ndarray:
        """Loss gradient over ``flat``, in its layout, for the cached batch,
        given the loss gradient with respect to each head's output."""
        flat_grads = np.empty_like(self.flat)
        grads = self._views(flat_grads)
        top = 2 * len(self.hidden)
        for d, g_w, g_b in zip(d_heads, grads[top::2], grads[top + 1 :: 2]):
            np.matmul(activations[-1].T, d, out=g_w)
            d.sum(axis=0, out=g_b)
        delta = reduce(np.add, [d @ w.T for d, (w, _) in zip(d_heads, self._heads)])
        for i in reversed(range(len(self.hidden))):
            delta = delta * (1.0 - activations[i + 1] ** 2)
            np.matmul(activations[i].T, delta, out=grads[2 * i])
            delta.sum(axis=0, out=grads[2 * i + 1])
            if i:
                delta = delta @ self.params[2 * i].T
        return flat_grads


class Adam:
    """Standard Adam over one flat parameter vector, updated in place."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self._scratch = (np.empty_like(flat), np.empty_like(flat))

    def step(self, grads: np.ndarray) -> None:
        """``flat -= lr * (m / b1c) / (sqrt(v / b2c) + eps)`` after the moment
        updates, one elementwise operation at a time through two scratch
        vectors, so it allocates nothing and rounds as the expression does."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        a, b = self._scratch
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grads, out=a)
        m += a
        v *= self.beta2
        np.multiply(grads, grads, out=b)
        b *= 1.0 - self.beta2
        v += b
        np.divide(m, b1c, out=a)
        a *= self.lr
        np.divide(v, b2c, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.flat -= a


# ---------------------------------------------------------------------------
# objectives: each returns (scalar loss, flat gradient in the net's layout)


def td_loss_and_grads(
    qnet: TanhNet, obs: np.ndarray, actions: np.ndarray, targets: np.ndarray
):
    """Mean squared temporal-difference error on the taken actions."""
    (q,), cache = qnet.forward(obs)
    n = q.shape[0]
    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float((err**2).mean())
    d_q = np.zeros_like(q)
    d_q[idx, actions] = 2.0 * err / n
    return loss, qnet.backward(cache, [d_q])


def reinforce_loss_and_grads(
    net: TanhNet, obs: np.ndarray, actions: np.ndarray, weights: np.ndarray
):
    """Negative weighted log-likelihood of the taken actions (policy head only)."""
    (logits, values), cache = net.forward(obs)
    n = logits.shape[0]
    idx = np.arange(n)
    logp = log_softmax(logits)
    loss = float(-(weights * logp[idx, actions]).mean())
    p = np.exp(logp)
    d_logits = p * (weights / n)[:, None]
    d_logits[idx, actions] -= weights / n
    return loss, net.backward(cache, [d_logits, np.zeros_like(values)])


def ppo_loss_and_grads(
    net: TanhNet,
    obs: np.ndarray,
    actions: np.ndarray,
    old_logp: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    clip: float,
    value_coef: float,
    entropy_coef: float,
):
    """Clipped-ratio policy surrogate + value MSE - entropy bonus.

    The pessimistic minimum keeps the unclipped branch on exact ties, so the
    clipped branch (whose ratio gradient is zero) only wins when it is
    strictly smaller.
    """
    (logits, values), cache = net.forward(obs)
    n = logits.shape[0]
    idx = np.arange(n)
    logp_all = log_softmax(logits)
    logp = logp_all[idx, actions]
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * advantages
    use_clipped = clipped < unclipped
    policy_loss = float(-np.where(use_clipped, clipped, unclipped).mean())

    value_err = values[:, 0] - returns
    value_loss = float((value_err**2).mean())

    p = np.exp(logp_all)
    entropy_rows = -(p * logp_all).sum(axis=1)
    entropy = float(entropy_rows.mean())

    loss = policy_loss + value_coef * value_loss - entropy_coef * entropy

    # policy term: d(-surrogate)/dlogp = -adv * ratio where the unclipped
    # branch is active, zero where the clipped branch won (its ratio is
    # outside the clip window, where the clipping has zero slope); then
    # dlogp/dlogits = onehot(action) - p.
    coeff = np.where(use_clipped, 0.0, -advantages * ratio) / n
    d_logits = -coeff[:, None] * p
    d_logits[idx, actions] += coeff

    # entropy term: dH/dlogits = -p * (logp + H); loss has -entropy_coef * H
    d_logits += entropy_coef / n * (p * (logp_all + entropy_rows[:, None]))

    d_values = value_coef * 2.0 * value_err / n
    return loss, net.backward(cache, [d_logits, d_values[:, None]])
