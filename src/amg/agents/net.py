"""Small tanh multilayer perceptrons with hand-written backpropagation.

Two shapes are used: an action-value net (state -> one value per action) and
a shared-trunk policy/value net (state -> action logits and a scalar state
value).  Gradients are derived analytically and verified against central
finite differences in the test suite, so the math here is written for
auditability: forward passes return their caches and every backward pass
consumes exactly one.  Each net keeps its parameters in one flat vector
whose layers are views, so the optimizer, target syncs and checkpoints act on
one array.

Tanh is used throughout because its gradient is smooth everywhere, which
makes finite-difference verification exact to first order (piecewise-linear
activations fail such checks at their kinks).
"""

from __future__ import annotations

import math

import numpy as np


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _dense_shapes(sizes: list[int]) -> list[tuple[int, ...]]:
    """Weight and bias shapes of dense layers ``sizes[0] -> sizes[1] -> ...``."""
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    return shapes


class _TanhNet:
    """A tanh trunk ``obs -> *hidden`` under linear heads, all of whose
    parameters live in one contiguous vector ``flat``.

    ``params`` holds views into ``flat`` in ``layer_shapes`` order (w0, b0,
    w1, b1, ..., then the heads' weights and biases), so writing ``flat``
    moves every layer and a gradient in the same layout updates them all.
    Subclasses give ``layer_shapes`` and the heads' forward/backward.
    """

    @classmethod
    def size(cls, obs_dim: int, n_actions: int, hidden) -> int:
        """Parameter count of a net with these dimensions, without building it."""
        return sum(math.prod(s) for s in cls.layer_shapes(obs_dim, n_actions, hidden))

    def __init__(self, obs_dim: int, n_actions: int, hidden, seed: int):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = tuple(hidden)
        self._shapes = self.layer_shapes(obs_dim, n_actions, self.hidden)
        self.flat = np.empty(self.size(obs_dim, n_actions, self.hidden))
        self.params = self._views(self.flat)
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

    def _trunk_forward(self, X: np.ndarray) -> list[np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        activations = [X]
        h = X
        for i in range(len(self.hidden)):
            h = np.tanh(h @ self.params[2 * i] + self.params[2 * i + 1])
            activations.append(h)
        return activations

    def _trunk_backward(
        self, activations: list[np.ndarray], delta: np.ndarray, grads: list[np.ndarray]
    ) -> None:
        """Write the trunk's gradients into ``grads`` given ``delta``, the
        loss gradient with respect to the trunk's output."""
        for i in reversed(range(len(self.hidden))):
            delta = delta * (1.0 - activations[i + 1] ** 2)
            np.matmul(activations[i].T, delta, out=grads[2 * i])
            delta.sum(axis=0, out=grads[2 * i + 1])
            if i:
                delta = delta @ self.params[2 * i].T


class QNet(_TanhNet):
    """obs -> hidden tanh stack -> one value per action."""

    @staticmethod
    def layer_shapes(obs_dim: int, n_actions: int, hidden) -> list[tuple[int, ...]]:
        return _dense_shapes([obs_dim, *hidden, n_actions])

    def forward(self, X: np.ndarray):
        activations = self._trunk_forward(X)
        w, b = self.params[-2:]
        return activations[-1] @ w + b, activations

    def backward(self, activations: list[np.ndarray], d_out: np.ndarray) -> np.ndarray:
        """Loss gradient over ``flat``, in its layout, for the cached batch."""
        flat_grads = np.empty_like(self.flat)
        grads = self._views(flat_grads)
        np.matmul(activations[-1].T, d_out, out=grads[-2])
        d_out.sum(axis=0, out=grads[-1])
        self._trunk_backward(activations, d_out @ self.params[-2].T, grads)
        return flat_grads

    def q_values(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]


class PolicyValueNet(_TanhNet):
    """obs -> shared tanh trunk -> (action logits, state value)."""

    @staticmethod
    def layer_shapes(obs_dim: int, n_actions: int, hidden) -> list[tuple[int, ...]]:
        top = [obs_dim, *hidden][-1]
        return (_dense_shapes([obs_dim, *hidden]) + _dense_shapes([top, n_actions])
                + _dense_shapes([top, 1]))

    def forward(self, X: np.ndarray):
        activations = self._trunk_forward(X)
        h = activations[-1]
        wp, bp, wv, bv = self.params[-4:]
        logits = h @ wp + bp
        values = (h @ wv + bv).ravel()
        return logits, values, activations

    def backward(
        self,
        activations: list[np.ndarray],
        d_logits: np.ndarray,
        d_values: np.ndarray,
    ) -> np.ndarray:
        """Loss gradient over ``flat``, in its layout, for the cached batch."""
        flat_grads = np.empty_like(self.flat)
        grads = self._views(flat_grads)
        wp, wv = self.params[-4], self.params[-2]
        h_last = activations[-1]
        d_values = d_values.reshape(-1, 1)
        np.matmul(h_last.T, d_logits, out=grads[-4])
        d_logits.sum(axis=0, out=grads[-3])
        np.matmul(h_last.T, d_values, out=grads[-2])
        d_values.sum(axis=0, out=grads[-1])
        self._trunk_backward(activations, d_logits @ wp.T + d_values @ wv.T, grads)
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
    qnet: QNet, obs: np.ndarray, actions: np.ndarray, targets: np.ndarray
):
    """Mean squared temporal-difference error on the taken actions."""
    q, cache = qnet.forward(obs)
    n = q.shape[0]
    idx = np.arange(n)
    err = q[idx, actions] - targets
    loss = float((err**2).mean())
    d_q = np.zeros_like(q)
    d_q[idx, actions] = 2.0 * err / n
    return loss, qnet.backward(cache, d_q)


def reinforce_loss_and_grads(
    net: PolicyValueNet, obs: np.ndarray, actions: np.ndarray, weights: np.ndarray
):
    """Negative weighted log-likelihood of the taken actions (policy head only)."""
    logits, values, cache = net.forward(obs)
    n = logits.shape[0]
    idx = np.arange(n)
    logp = log_softmax(logits)
    loss = float(-(weights * logp[idx, actions]).mean())
    p = np.exp(logp)
    d_logits = p * (weights / n)[:, None]
    d_logits[idx, actions] -= weights / n
    d_values = np.zeros_like(values)
    return loss, net.backward(cache, d_logits, d_values)


def ppo_loss_and_grads(
    net: PolicyValueNet,
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
    logits, values, cache = net.forward(obs)
    n = logits.shape[0]
    idx = np.arange(n)
    logp_all = log_softmax(logits)
    logp = logp_all[idx, actions]
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * advantages
    use_clipped = clipped < unclipped
    policy_loss = float(-np.where(use_clipped, clipped, unclipped).mean())

    value_err = values - returns
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
    return loss, net.backward(cache, d_logits, d_values)
