"""Five-state deterministic corridor with an exhaustive value-iteration
oracle.  Shared by the learning-sanity unit tests and the acceptance gate.

States 0..4 on a line; action 0 moves left (floor at 0), action 1 moves
right.  Entering state 4 pays +1 and ends the episode; every other step
costs 0.01.  Under any discount in (0, 1) the unique optimal policy is to
move right from every non-terminal state, and value iteration proves it.
"""

from __future__ import annotations

import numpy as np

from amg.agents import AgentHyper, make_agent
from amg.agents.net import log_softmax
from amg.rl import Transition

N_STATES = 5
GOAL = 4
LEFT, RIGHT = 0, 1
STEP_PENALTY = -0.01
GOAL_REWARD = 1.0
MAX_STEPS = 20


def one_hot(state: int) -> np.ndarray:
    v = np.zeros(N_STATES)
    v[state] = 1.0
    return v


def chain_step(state: int, action: int) -> tuple[int, float, bool]:
    nxt = min(state + 1, GOAL) if action == RIGHT else max(state - 1, 0)
    if nxt == GOAL:
        return nxt, GOAL_REWARD, True
    return nxt, STEP_PENALTY, False


def value_iteration(gamma: float, sweeps: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive sweeps over the full state/action table; returns (V, Q)."""
    v = np.zeros(N_STATES)
    for _ in range(sweeps):
        new = np.zeros(N_STATES)
        for s in range(GOAL):
            best = -np.inf
            for a in (LEFT, RIGHT):
                ns, r, done = chain_step(s, a)
                best = max(best, r + (0.0 if done else gamma * v[ns]))
            new[s] = best
        v = new
    q = np.zeros((GOAL, 2))
    for s in range(GOAL):
        for a in (LEFT, RIGHT):
            ns, r, done = chain_step(s, a)
            q[s, a] = r + (0.0 if done else gamma * v[ns])
    return v, q


def optimal_policy(gamma: float) -> list[int]:
    _, q = value_iteration(gamma)
    gaps = q.max(axis=1) - q.min(axis=1)
    assert np.all(gaps > 1e-6), "oracle policy must be unique for the comparison"
    return [int(a) for a in q.argmax(axis=1)]


def train_chain_agent(kind: str, seed: int, episodes: int = 2000,
                      alpha: float = 1e-3, gamma: float = 0.9):
    """Train on the corridor, acting as ``harness.train_agent`` does."""
    agent = make_agent(kind, N_STATES, 2, AgentHyper(alpha=alpha, gamma=gamma), seed=seed)
    for _ in range(episodes):
        state, steps = 0, 0
        while steps < MAX_STEPS:
            obs = one_hot(state)
            action = agent.select_action(obs)
            nxt, reward, done = chain_step(state, action)
            agent.record(Transition(obs, action, reward, one_hot(nxt), done, {}))
            state, steps = nxt, steps + 1
            if done:
                break
        agent.end_episode()
    return agent


def greedy_chain_policy(agent) -> list[int]:
    """The best action in each non-terminal state, read from the agent's net:
    the argmax of DQN's action values, of the policy learners' log-probabilities."""
    policy = []
    for s in range(GOAL):
        (scores, *_), _ = agent.net.forward(one_hot(s))
        policy.append(int(np.argmax(scores[0] if agent.kind == "dqn" else log_softmax(scores)[0])))
    return policy
