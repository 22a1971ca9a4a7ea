"""Explicit small MDPs for checking the tabular learners.

``value_iteration_oracle`` solves an MDP given as transition and reward
arrays, and ``TabularMdpEnv`` exposes the same MDP through the stepping
interface ``agents.train`` uses, so a learned Q-table can be compared with
the exact optimum.
"""

import numpy as np


def value_iteration_oracle(
    transitions: np.ndarray,
    rewards: np.ndarray,
    discount: float,
    tol: float = 1e-10,
    max_iterations: int = 1_000_000,
) -> np.ndarray:
    """Optimal Q values of an explicit MDP, for test cross-checks.

    ``transitions`` is either an (S, A) integer array of deterministic
    successors or an (S, A, S) probability array; ``rewards`` is (S, A).
    Iterates the Bellman optimality operator until the contraction bound
    guarantees sup-norm error below ``tol``.
    """
    rewards = np.asarray(rewards, dtype=float)
    n_states, n_actions = rewards.shape
    if n_states > 10_000:
        raise ValueError("oracle is for small MDPs (<= 10^4 states)")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 0.0 <= discount < 1.0:
        raise ValueError(f"discount must be in [0, 1), got {discount}")
    transitions = np.asarray(transitions)
    deterministic = transitions.ndim == 2
    if not deterministic:
        row_sums = transitions.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValueError("transition probabilities must sum to 1 per (s, a)")

    q = np.zeros((n_states, n_actions))
    for _ in range(max_iterations):
        best = q.max(axis=1)
        if deterministic:
            q_next = rewards + discount * best[transitions]
        else:
            q_next = rewards + discount * transitions @ best
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if discount == 0.0 or delta * discount / (1.0 - discount) < tol:
            return q
    raise RuntimeError(f"value iteration did not converge in {max_iterations} iterations")


class TabularMdpEnv:
    """Adapter exposing an explicit MDP through the interface ``train`` uses.

    States are their integer indices (``dims`` is None). Episodes truncate
    at ``episode_length`` and updates keep bootstrapping across the cut (the
    MDP is treated as continuing), so tabular learning converges to the
    same fixed point as ``value_iteration_oracle``.
    """

    dims = None
    terminated = False  # no episode ends in a terminal state

    def __init__(self, transitions: np.ndarray, rewards: np.ndarray,
                 episode_length: int = 50, start_state: int = 0, seed: int = 0):
        self.rewards = np.asarray(rewards, dtype=float)
        self.n_states, self.n_actions = self.rewards.shape
        self.transitions = np.asarray(transitions)
        self.deterministic = self.transitions.ndim == 2
        self.episode_length = episode_length
        self.start_state = start_state
        self._rng = np.random.default_rng(seed)
        self.state = start_state
        self.step_index = 0
        self.done = False

    def reset(self, randomize_start: bool = False) -> int:
        self.state = (
            int(self._rng.integers(self.n_states)) if randomize_start
            else self.start_state
        )
        self.step_index = 0
        self.done = False
        return self.state

    def step(self, action: int) -> tuple[int, float, bool]:
        if self.done:
            raise RuntimeError("cannot step a finished episode; call reset()")
        if self.deterministic:
            nxt = int(self.transitions[self.state, action])
        else:
            nxt = int(
                self._rng.choice(self.n_states, p=self.transitions[self.state, action])
            )
        reward = float(self.rewards[self.state, action])
        self.state = nxt
        self.step_index += 1
        self.done = self.step_index >= self.episode_length
        return nxt, reward, self.done
