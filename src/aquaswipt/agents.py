"""Tabular value-based agents: Q-learning, SARSA, and a random baseline.

Training runs one loop for both algorithms, with epsilon-greedy selection
and the update inline, on the environment's int state ids. Also provides a
value-iteration solver for explicit small MDPs, used as a correctness
oracle, and a tabular-MDP adapter exposing the same stepping interface as
the 3D environment so the training loop runs on both.
"""

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .env3d import StepOutcome, id_to_key, key_to_id


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

    Each row is a list of Python floats, one per action. A table trained on
    an ``Environment`` has ``dims`` set to its box and is keyed by int state
    ids (``env3d.key_to_id``); ``save`` writes those ids as ``StateKey``
    lists and ``load(path, dims)`` reads them back as ids. With ``dims``
    None the keys are stored as they are.
    """

    def __init__(self, n_actions: int = 6, default_value: float = 0.0, dims=None):
        if n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {n_actions}")
        self.n_actions = n_actions
        self.default_value = float(default_value)
        self.dims = None if dims is None else tuple(dims)
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
        """Write the table as JSON: one entry per state, key -> action values.

        Entries are in key order; int state ids of a table with ``dims``
        sort, and are written, as their ``StateKey`` tuples.
        """
        entries = []
        for key in sorted(self._table):
            if self.dims is not None:
                key_list = list(id_to_key(key, self.dims))
            else:
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
    def load(cls, path, dims=None) -> "QTable":
        """Read a table written by ``save``.

        With ``dims``, each saved ``StateKey`` list becomes its int state id
        in that box. Raises ``ValueError`` on a row whose length is not
        ``n_actions``, on a value or default that is not finite, and, with
        ``dims``, on a key that is not a state of the box.
        """
        with open(path) as fh:
            doc = json.load(fh)
        table = cls(n_actions=doc["n_actions"], default_value=doc["default_value"],
                    dims=dims)
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
            if dims is not None:
                key = key_to_id(key_list, dims)
            else:
                key = tuple(key_list) if len(key_list) > 1 else key_list[0]
            table._table[key] = row
        return table


@dataclass
class EpisodeMetrics:
    """A rollout's totals plus the step-level traces ``actions_to_target`` reads.

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


class EpisodeTotals(NamedTuple):
    """One training episode: env steps taken and their rewards summed in step order."""

    steps: int
    total_reward: float


def train(env, algo: Algorithm, cfg: LearnConfig) -> tuple[QTable, list[EpisodeTotals]]:
    """Run the episodic training loop of Q-learning or SARSA.

    Fully reproducible from cfg.seed. The random baseline learns nothing, so
    it has no training: evaluate it with ``random_rollout``.
    Epsilon decays once per episode: eps(t) = max(eps_min, eps0 * decay^t).

    ``env`` steps on int state ids: it provides ``n_actions``, ``dims`` (the
    box the ids encode, or None for opaque ids), ``reset(randomize_start)``,
    ``state_id()`` and ``step_id(action) -> (state_id, reward, done)``.
    The table is keyed by those ids; the trace holds one ``EpisodeTotals``
    per episode.
    """
    algo = Algorithm(algo)
    if algo is Algorithm.RANDOM:
        raise ValueError("the random baseline does not train; use random_rollout")
    sarsa = algo is Algorithm.SARSA
    rng = np.random.default_rng(cfg.seed)
    uniform = rng.random
    integers = rng.integers
    n_actions = env.n_actions
    q = QTable(n_actions=n_actions, default_value=cfg.optimistic_init, dims=env.dims)
    table = q._table
    default = q.default_value
    learning_rate = cfg.learning_rate
    discount = cfg.discount
    step = env.step_id
    isfinite = math.isfinite
    epsilon = cfg.epsilon_start
    trace = []
    for _ in range(cfg.episodes):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        explore = epsilon > 0.0
        env.reset(randomize_start=cfg.randomize_start)
        state = env.state_id()
        row = table.get(state)  # None until the state is first updated
        # Epsilon-greedy picks: a uniform draw below epsilon, then a uniform
        # action; otherwise the greedy action, ties to the lowest index.
        # Q-learning picks each action at the top of the step that takes it;
        # SARSA picks it before the update that bootstraps from it, so its
        # action is already chosen (not -1) when the next step starts.
        action = -1
        steps = 0
        total_reward = 0.0
        done = False
        while not done:
            if action < 0:
                if explore and uniform() < epsilon:
                    action = int(integers(n_actions))
                else:
                    action = 0 if row is None else row.index(max(row))
            next_state, reward, done = step(action)
            next_row = table.get(next_state)
            if sarsa:
                if explore and uniform() < epsilon:
                    next_action = int(integers(n_actions))
                else:
                    next_action = 0 if next_row is None else next_row.index(max(next_row))
                ahead = default if next_row is None else next_row[next_action]
            else:
                next_action = -1
                ahead = default if next_row is None else max(next_row)
            current = default if row is None else row[action]
            target = reward + discount * ahead
            value = current + learning_rate * (target - current)
            if not isfinite(value):
                raise ValueError(f"reward and Q values must be finite, got reward "
                                 f"{reward} and updated value {value}")
            if row is None:
                row = table[state] = [default] * n_actions
            row[action] = value
            total_reward += reward
            steps += 1
            # next_row was read before the update, so on a self-loop it may
            # predate the row just written.
            if next_state != state:
                row = next_row
            state = next_state
            action = next_action
        trace.append(EpisodeTotals(steps, total_reward))
        epsilon = max(cfg.epsilon_min, epsilon * cfg.epsilon_decay)
    return q, trace


def _rollout(env, pick_action) -> tuple[EpisodeMetrics, list[tuple]]:
    env.reset(randomize_start=False)
    metrics = EpisodeMetrics()
    trajectory = []
    while True:
        out = env.step(pick_action(env.state_id()))
        trajectory.append(env.auv_pos)
        metrics.record(out)
        if out.done:
            return metrics, trajectory


def greedy_rollout(env, q: QTable) -> tuple[EpisodeMetrics, list[tuple]]:
    """One episode under the pure greedy policy from the fixed start.

    Returns the metrics and the sequence of positions visited after each
    action (the trajectory). ``q`` is keyed by the env's int state ids:
    a table that holds states must have the env's ``dims``.
    """
    if len(q) and q.dims != tuple(env.dims):
        raise ValueError(f"the Q-table holds states of the box {q.dims}, not of the "
                         f"environment's {tuple(env.dims)}; load it with dims=env.dims")
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
    """Adapter exposing an explicit MDP through the interface ``train`` uses.

    States are their integer indices (``dims`` is None). Episodes truncate
    at ``episode_length`` and updates keep bootstrapping across the cut (the
    MDP is treated as continuing), so tabular learning converges to the
    same fixed point as ``value_iteration_oracle``.
    """

    dims = None

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

    def state_id(self) -> int:
        return self.state

    def step_id(self, action: int) -> tuple[int, float, bool]:
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
