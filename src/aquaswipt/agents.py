"""Tabular value-based agents: Q-learning, SARSA, and a random baseline.

Also provides a value-iteration solver for explicit small MDPs, used as a
correctness oracle, and a tabular-MDP adapter exposing the same stepping
interface as the 3D environment so the training loop runs on both.
"""

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .env3d import StepOutcome


class Algorithm(str, Enum):
    Q_LEARNING = "q_learning"
    SARSA = "sarsa"
    RANDOM = "random"


@dataclass(frozen=True)
class LearnConfig:
    """Training hyper-parameters."""

    learning_rate: float = 0.75
    discount: float = 0.99
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.999
    epsilon_min: float = 0.001
    episodes: int = 200
    seed: int = 0
    randomize_start: bool = True
    optimistic_init: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        for name in ("epsilon_start", "epsilon_decay", "epsilon_min"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")
        if self.epsilon_min > self.epsilon_start:
            raise ValueError("epsilon_min must be <= epsilon_start")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not math.isfinite(self.optimistic_init):
            raise ValueError(f"optimistic_init must be finite, got {self.optimistic_init}")


class QTable:
    """State -> per-action value map; absent states read as the default.

    Each row is a list of Python floats, one per action.
    """

    def __init__(self, n_actions: int = 6, default_value: float = 0.0):
        if n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {n_actions}")
        self.n_actions = n_actions
        self.default_value = float(default_value)
        self._table: dict = {}

    def values(self, state) -> np.ndarray:
        """Action values for a state (a copy; mutate via set())."""
        row = self._table.get(state)
        if row is None:
            return np.full(self.n_actions, self.default_value)
        return np.array(row, dtype=float)

    def get(self, state, action: int) -> float:
        row = self._table.get(state)
        return self.default_value if row is None else row[action]

    def set(self, state, action: int, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"Q values must be finite, got {value}")
        row = self._table.get(state)
        if row is None:
            row = [self.default_value] * self.n_actions
            self._table[state] = row
        row[action] = float(value)

    def best_action(self, state) -> int:
        """Greedy action; ties break to the lowest action index."""
        row = self._table.get(state)
        if row is None:
            return 0
        return row.index(max(row))

    def best_value(self, state) -> float:
        row = self._table.get(state)
        return self.default_value if row is None else max(row)

    def __len__(self) -> int:
        return len(self._table)

    def save(self, path) -> None:
        """Write the table as JSON: one entry per state, key -> action values."""
        entries = []
        for key in sorted(self._table, key=lambda k: tuple(np.atleast_1d(k))):
            key_list = list(key) if isinstance(key, tuple) else [int(key)]
            entries.append([key_list, list(self._table[key])])
        doc = {
            "n_actions": self.n_actions,
            "default_value": self.default_value,
            "entries": entries,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "QTable":
        """Read a table written by ``save``.

        Raises ``ValueError`` on a row whose length is not ``n_actions`` and
        on a value or default that is not finite.
        """
        with open(path) as fh:
            doc = json.load(fh)
        table = cls(n_actions=doc["n_actions"], default_value=doc["default_value"])
        if not math.isfinite(table.default_value):
            raise ValueError(f"Q-table default_value must be finite, got {table.default_value}")
        for key_list, values in doc["entries"]:
            row = [float(v) for v in values]
            if len(row) != table.n_actions:
                raise ValueError(
                    f"Q-table row for state {key_list} has {len(row)} values, "
                    f"expected {table.n_actions}"
                )
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"Q-table row for state {key_list} has a non-finite value")
            key = tuple(key_list) if len(key_list) > 1 else key_list[0]
            table._table[key] = row
        return table


@dataclass
class EpisodeMetrics:
    """Per-episode totals plus the step-level traces ``actions_to_target`` reads.

    ``total_reward`` adds each step's reward in step order.
    """

    steps: int = 0
    throughput_bits: float = 0.0
    harvested_j: float = 0.0
    motion_energy_j: float = 0.0
    transmit_energy_j: float = 0.0
    reward_throughput_term: float = 0.0
    reward_harvest_term: float = 0.0
    total_reward: float = 0.0
    step_throughput_bits: list[float] = field(default_factory=list)
    step_harvested_j: list[float] = field(default_factory=list)

    def record(self, out: StepOutcome) -> None:
        self.steps += 1
        self.throughput_bits += out.throughput_bits
        self.harvested_j += out.harvested_j
        self.motion_energy_j += out.motion_energy_j
        self.transmit_energy_j += out.transmit_energy_j
        self.reward_throughput_term += out.reward_throughput_term
        self.reward_harvest_term += out.reward_harvest_term
        self.total_reward += out.reward
        self.step_throughput_bits.append(out.throughput_bits)
        self.step_harvested_j.append(out.harvested_j)


def select_action(q: QTable, state, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy: uniform random with probability epsilon, else greedy."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.n_actions))
    return q.best_action(state)


def q_update(q: QTable, state, action: int, reward: float, next_state,
             cfg: LearnConfig) -> QTable:
    """Off-policy one-step update toward reward + discount * max_a' Q(s', a')."""
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    current = q.get(state, action)
    target = reward + cfg.discount * q.best_value(next_state)
    q.set(state, action, current + cfg.learning_rate * (target - current))
    return q


def sarsa_update(q: QTable, state, action: int, reward: float, next_state,
                 next_action: int, cfg: LearnConfig) -> QTable:
    """On-policy one-step update toward reward + discount * Q(s', a')."""
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    current = q.get(state, action)
    target = reward + cfg.discount * q.get(next_state, next_action)
    q.set(state, action, current + cfg.learning_rate * (target - current))
    return q


def _run_episode(env, q: QTable, algo: Algorithm, cfg: LearnConfig,
                 epsilon: float, rng: np.random.Generator) -> EpisodeMetrics:
    state = env.reset(randomize_start=cfg.randomize_start)
    metrics = EpisodeMetrics()
    if algo is Algorithm.SARSA:
        action = select_action(q, state, epsilon, rng)
    while True:
        if algo is Algorithm.Q_LEARNING:
            action = select_action(q, state, epsilon, rng)
        out = env.step(action)
        if algo is Algorithm.Q_LEARNING:
            q_update(q, state, action, out.reward, out.next_state, cfg)
        else:
            next_action = select_action(q, out.next_state, epsilon, rng)
            sarsa_update(q, state, action, out.reward, out.next_state, next_action, cfg)
            action = next_action
        state = out.next_state
        metrics.record(out)
        if out.done:
            return metrics


def train(env, algo: Algorithm, cfg: LearnConfig) -> tuple[QTable, list[EpisodeMetrics]]:
    """Run the episodic training loop of Q-learning or SARSA.

    Fully reproducible from cfg.seed. The random baseline learns nothing, so
    it has no training: evaluate it with ``random_rollout``.
    Epsilon decays once per episode: eps(t) = max(eps_min, eps0 * decay^t).
    """
    algo = Algorithm(algo)
    if algo is Algorithm.RANDOM:
        raise ValueError("the random baseline does not train; use random_rollout")
    rng = np.random.default_rng(cfg.seed)
    q = QTable(n_actions=env.n_actions, default_value=cfg.optimistic_init)
    epsilon = cfg.epsilon_start
    trace = []
    for _ in range(cfg.episodes):
        trace.append(_run_episode(env, q, algo, cfg, epsilon, rng))
        epsilon = max(cfg.epsilon_min, epsilon * cfg.epsilon_decay)
    return q, trace


def _rollout(env, pick_action) -> tuple[EpisodeMetrics, list[tuple]]:
    state = env.reset(randomize_start=False)
    metrics = EpisodeMetrics()
    trajectory = []
    while True:
        out = env.step(pick_action(state))
        state = out.next_state
        trajectory.append(tuple(getattr(env, "auv_pos", (state,))))
        metrics.record(out)
        if out.done:
            return metrics, trajectory


def greedy_rollout(env, q: QTable) -> tuple[EpisodeMetrics, list[tuple]]:
    """One episode under the pure greedy policy from the fixed start.

    Returns the metrics and the sequence of positions visited after each
    action (the trajectory).
    """
    return _rollout(env, q.best_action)


def random_rollout(env, rng: np.random.Generator) -> tuple[EpisodeMetrics, list[tuple]]:
    """One episode of uniformly random actions (the baseline trajectory)."""
    return _rollout(env, lambda _state: int(rng.integers(env.n_actions)))


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
    """Adapter exposing an explicit MDP through the environment interface.

    States are integers; outcomes carry zeros for the physics fields.
    Episodes truncate at ``episode_length`` and updates keep bootstrapping
    across the cut (the MDP is treated as continuing), so tabular learning
    converges to the same fixed point as ``value_iteration_oracle``.
    """

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

    def step(self, action: int) -> StepOutcome:
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
        return StepOutcome(
            next_state=nxt,
            reward=reward,
            reward_throughput_term=0.0,
            reward_harvest_term=0.0,
            throughput_bits=0.0,
            harvested_j=0.0,
            motion_energy_j=0.0,
            transmit_energy_j=0.0,
            done=self.done,
        )
