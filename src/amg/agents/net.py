"""Small tanh multilayer perceptrons with hand-written backpropagation.

Two shapes are used: an action-value net (state -> one value per action) and
a shared-trunk policy/value net (state -> action logits and a scalar state
value).  Gradients are derived analytically and verified against central
finite differences in the test suite, so the math here is written for
auditability: forward passes return their caches and every backward pass
consumes exactly one.

Tanh is used throughout because its gradient is smooth everywhere, which
makes finite-difference verification exact to first order (piecewise-linear
activations fail such checks at their kinks).
"""

from __future__ import annotations

import numpy as np


def _init_layer(rng: np.random.Generator, fan_in: int, fan_out: int):
    w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
    b = np.zeros(fan_out)
    return w, b


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(z))


def _mlp_size(sizes: list[int]) -> int:
    """Weights plus biases of dense layers ``sizes[0] -> sizes[1] -> ...``."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


class _FlatParams:
    """Mixin: view/update all parameter arrays through one flat vector."""

    params: list[np.ndarray]

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat(self, flat: np.ndarray) -> None:
        offset = 0
        for p in self.params:
            n = p.size
            p[...] = flat[offset : offset + n].reshape(p.shape)
            offset += n
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} values, nets needs {offset}")

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params)


class QNet(_FlatParams):
    """obs -> hidden tanh stack -> one value per action."""

    def __init__(self, obs_dim: int, n_actions: int, hidden=(64, 64), seed: int = 0):
        rng = np.random.default_rng(seed)
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = tuple(hidden)
        sizes = [obs_dim, *hidden, n_actions]
        self.params = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w, b = _init_layer(rng, fan_in, fan_out)
            self.params += [w, b]

    @staticmethod
    def size(obs_dim: int, n_actions: int, hidden) -> int:
        """Parameter count of a net with these dimensions, without building it."""
        return _mlp_size([obs_dim, *hidden, n_actions])

    def forward(self, X: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        activations = [X]
        h = X
        n_layers = len(self.params) // 2
        for i in range(n_layers):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            z = h @ w + b
            h = z if i == n_layers - 1 else np.tanh(z)
            activations.append(h)
        return activations[-1], activations

    def backward(self, activations: list[np.ndarray], d_out: np.ndarray) -> list[np.ndarray]:
        grads: list[np.ndarray] = [np.zeros_like(p) for p in self.params]
        n_layers = len(self.params) // 2
        delta = d_out
        for i in reversed(range(n_layers)):
            h_in = activations[i]
            if i != n_layers - 1:
                delta = delta * (1.0 - activations[i + 1] ** 2)
            grads[2 * i] = h_in.T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i:
                delta = delta @ self.params[2 * i].T
        return grads

    def q_values(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]

    def clone(self) -> "QNet":
        twin = QNet(self.obs_dim, self.n_actions, self.hidden, seed=0)
        twin.set_flat(self.get_flat())
        return twin


class PolicyValueNet(_FlatParams):
    """obs -> shared tanh trunk -> (action logits, state value)."""

    def __init__(self, obs_dim: int, n_actions: int, hidden=(64, 64), seed: int = 0):
        rng = np.random.default_rng(seed)
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = tuple(hidden)
        sizes = [obs_dim, *hidden]
        self.params = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w, b = _init_layer(rng, fan_in, fan_out)
            self.params += [w, b]
        wp, bp = _init_layer(rng, sizes[-1], n_actions)
        wv, bv = _init_layer(rng, sizes[-1], 1)
        self.params += [wp, bp, wv, bv]

    @staticmethod
    def size(obs_dim: int, n_actions: int, hidden) -> int:
        """Parameter count of a net with these dimensions, without building it."""
        trunk = [obs_dim, *hidden]
        return _mlp_size(trunk) + _mlp_size([trunk[-1], n_actions]) + _mlp_size([trunk[-1], 1])

    def forward(self, X: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n_trunk = (len(self.params) - 4) // 2
        activations = [X]
        h = X
        for i in range(n_trunk):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            h = np.tanh(h @ w + b)
            activations.append(h)
        wp, bp, wv, bv = self.params[-4:]
        logits = h @ wp + bp
        values = (h @ wv + bv).ravel()
        return logits, values, activations

    def backward(
        self,
        activations: list[np.ndarray],
        d_logits: np.ndarray,
        d_values: np.ndarray,
    ) -> list[np.ndarray]:
        grads: list[np.ndarray] = [np.zeros_like(p) for p in self.params]
        wp, bp, wv, bv = self.params[-4:]
        h_last = activations[-1]
        d_values = d_values.reshape(-1, 1)
        grads[-4] = h_last.T @ d_logits
        grads[-3] = d_logits.sum(axis=0)
        grads[-2] = h_last.T @ d_values
        grads[-1] = d_values.sum(axis=0)
        delta = d_logits @ wp.T + d_values @ wv.T
        n_trunk = (len(self.params) - 4) // 2
        for i in reversed(range(n_trunk)):
            delta = delta * (1.0 - activations[i + 1] ** 2)
            grads[2 * i] = activations[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i:
                delta = delta @ self.params[2 * i].T
        return grads


class Adam:
    """Standard Adam over a list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


# ---------------------------------------------------------------------------
# objectives: each returns (scalar loss, per-parameter gradients)


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
    clip: float = 0.2,
    value_coef: float = 0.5,
    entropy_coef: float = 0.0,
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
