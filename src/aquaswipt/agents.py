"""Tabular value-based agents: Q-learning, SARSA, and a random baseline.

Training runs one loop for both algorithms, with epsilon-greedy selection
and the update inline, on the environment's int state ids. The loop needs
only the stepping interface ``train`` documents, so the tests also run it on
explicit small MDPs and compare the result with value iteration.
"""

import gc
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from typing import Annotated, NamedTuple

import numpy as np

from .checks import NON_NEGATIVE, POSITIVE_UNIT, UNIT, Bound, check_field_types
from .env3d import id_to_tuple, key_to_id


class Algorithm(str, Enum):
    Q_LEARNING = "q_learning"
    SARSA = "sarsa"
    RANDOM = "random"


@dataclass(frozen=True)
class LearnConfig:
    """Training hyper-parameters."""

    learning_rate: Annotated[float, POSITIVE_UNIT] = 0.75
    discount: Annotated[float, POSITIVE_UNIT] = 0.99
    epsilon_start: Annotated[float, UNIT] = 1.0
    epsilon_decay: Annotated[float, UNIT] = 0.999
    epsilon_min: Annotated[float, UNIT] = 0.001
    episodes: Annotated[int, Bound(1)] = 200
    seed: Annotated[int, NON_NEGATIVE] = 0
    randomize_start: bool = True
    optimistic_init: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.epsilon_min > self.epsilon_start:
            raise ValueError("LearnConfig.epsilon_min must be <= epsilon_start "
                             f"({self.epsilon_start}), got {self.epsilon_min}")


# Sorted entries ``QTable.save`` formats in one pass. At 128 a chunk's text
# is about 28 KB at six actions, and the save's memory peak stays near a
# tenth of a 10,000-state file (a fifth at 256).
_SAVE_CHUNK = 128


def _json_list(length: int, item: str, indent: int) -> str:
    """Format template of a list of ``length`` items as ``json.dump`` writes
    it with ``indent=1`` at nesting depth ``indent``; ``length`` is at least 1."""
    pad = "\n" + " " * (indent + 1)
    return "[" + pad + ("," + pad).join([item] * length) + "\n" + " " * indent + "]"


def _box_id(state, top: int, dims: tuple[int, int, int]) -> int:
    """``state`` as a plain int, when it is an integer id in ``0..top``.

    Any integer type but bool is taken, numpy's included.
    """
    try:
        state_id = None if isinstance(state, (bool, np.bool_)) else operator.index(state)
    except TypeError:
        state_id = None
    if state_id is None:
        raise ValueError(f"state id {state!r} is a {type(state).__name__}, not an integer")
    if not 0 <= state_id <= top:
        l, w, h = dims
        raise ValueError(f"state id {state!r} is not a state of the {l} x {w} x {h} "
                         f"box (ids 0..{top})")
    return state_id


class QTable:
    """State -> per-action value map; absent states read as the default.

    Each row is a list of Python floats, one per action. A table trained on
    an ``Environment`` has ``dims`` set to its box and is keyed by int state
    ids (``env3d.key_to_id``); ``save`` writes those ids as ``StateKey``
    lists. A table with ``dims`` None holds opaque keys and cannot be saved.
    A box whose largest id does not fit in an int64 is refused, since
    ``save`` decodes ids as int64 arrays, and so is a new state that is not
    an id of the box.
    """

    def __init__(self, n_actions: int = 6, default_value: float = 0.0, dims=None):
        if not isinstance(n_actions, int) or isinstance(n_actions, bool):
            raise ValueError(f"QTable.n_actions must be of type int, got {n_actions!r}")
        self.n_actions = n_actions
        if n_actions < 1:
            raise ValueError(f"QTable.n_actions must be >= 1, got {n_actions}")
        self.default_value = float(default_value)
        if not math.isfinite(self.default_value):
            raise ValueError(f"Q-table default_value must be finite, got {self.default_value}")
        self.dims = None if dims is None else tuple(dims)
        self._top_id = None  # the box's largest state id
        if self.dims is not None:
            try:
                top = key_to_id((*self.dims, 3, 3, 3), self.dims)
            except ValueError:
                raise ValueError("Q-table dims must be three integers >= 0, "
                                 f"got {self.dims}") from None
            if top >= 1 << 63:
                # save decodes the ids of a chunk as one int64 array.
                raise ValueError(f"Q-table dims {self.dims} give state ids beyond int64")
            self._top_id = top
        self._table: dict = {}

    def get(self, state, action: int) -> float:
        row = self._table.get(state)
        return self.default_value if row is None else row[action]

    def set(self, state, action: int, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"Q values must be finite, got {value}")
        row = self._table.get(state)
        if row is None:
            top = self._top_id
            if top is not None:
                # save could not decode any other id into a key of the box.
                state = _box_id(state, top, self.dims)
            row = [self.default_value] * self.n_actions
            self._table[state] = row
        row[action] = float(value)

    def best_action(self, state) -> int:
        """Greedy action; ties break to the lowest action index."""
        row = self._table.get(state)
        if row is None:
            return 0
        return row.index(max(row))

    def __len__(self) -> int:
        return len(self._table)

    def save(self, path) -> None:
        """Write the table as JSON: one entry per state, its ``StateKey``
        list -> action values.

        Only a table with ``dims`` is saved; one without raises
        ``ValueError``. Entries are in id order, which is ``StateKey``
        order. The bytes are those of ``json.dump(doc, fh, indent=1,
        sort_keys=True)``, streamed ``_SAVE_CHUNK`` sorted entries at a
        time. Each chunk takes three passes: ``id_to_tuple`` decodes its ids
        as one int64 array, one comprehension writes its values with
        ``float.__repr__``, as json's encoder does (a value that is the
        default object itself, as every entry of a new row is, reuses the
        default's repr), and one ``%`` over the repeated entry template
        formats the chunk, each key field as an int.
        """
        dims = self.dims
        if dims is None:
            raise ValueError("a Q-table without dims cannot be saved: its keys are not "
                             "state ids of a box")
        n_actions = self.n_actions
        float_repr = float.__repr__
        default = self.default_value
        default_repr = float_repr(default)
        table = self._table
        # One entry: the six StateKey fields, then the action values.
        entry = ("\n  [\n   " + _json_list(6, "%d", 3) + ",\n   "
                 + _json_list(n_actions, "%s", 3) + "\n  ]")

        def chunks():
            keys = sorted(table)
            separator = ""
            for start in range(0, len(keys), _SAVE_CHUNK):
                part = keys[start:start + _SAVE_CHUNK]
                columns = id_to_tuple(np.array(part, dtype=np.int64), dims)
                fields = zip(*map(np.ndarray.tolist, columns))
                values = [default_repr if v is default else float_repr(v)
                          for v in chain.from_iterable(map(table.__getitem__, part))]
                rows = zip(*[iter(values)] * n_actions)
                text = ",".join([entry] * len(part))
                yield separator + text % tuple(chain.from_iterable(map(chain, fields, rows)))
                separator = ","

        with open(path, "w") as fh:
            fh.write('{\n "default_value": %s,\n "entries": [' % default_repr)
            fh.writelines(chunks())
            fh.write('%s],\n "n_actions": %d\n}' % ("\n " if table else "", n_actions))


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

    def record(self, reward: float, reward_throughput_term: float,
               reward_harvest_term: float, throughput_bits: float, harvested_j: float,
               motion_energy_j: float, transmit_energy_j: float) -> None:
        """Add one step: its reward, then ``Environment.last_terms`` in order."""
        self.steps += 1
        self.throughput_bits += throughput_bits
        self.harvested_j += harvested_j
        self.motion_energy_j += motion_energy_j
        self.transmit_energy_j += transmit_energy_j
        self.reward_throughput_term += reward_throughput_term
        self.reward_harvest_term += reward_harvest_term
        self.total_reward += reward
        self.step_throughput_bits.append(throughput_bits)
        self.step_harvested_j.append(harvested_j)


# Raw PCG64 words drawn per block; 1024 Python ints take about 40 KB.
_RAW_BLOCK = 1024


def _pcg64_draws(bit_generator: np.random.PCG64):
    """``next_word()`` and ``integers(n)`` closures over ``bit_generator``'s words.

    Both read the words of ``random_raw`` in blocks of ``_RAW_BLOCK``.
    ``next_word()`` is the next 64-bit word as an int; numpy's scalar
    ``Generator.random()`` is ``(next_word() >> 11) * 2**-53`` on the same
    stream. ``integers(n)`` returns what ``np.random.Generator(bit_generator)``'s
    scalar ``integers(n)`` returns, for 1 <= n <= 2**32: numpy's Lemire method
    on 32-bit half-words, where a fresh word's low half comes first and its
    high half is kept for the next ``integers`` call, across ``next_word()``
    calls and block refills. ``integers(1)`` is 0 and draws nothing.
    """
    next_word = chain.from_iterable(
        map(np.ndarray.tolist, map(bit_generator.random_raw, repeat(_RAW_BLOCK)))
    ).__next__
    pending = []  # the high half-word waiting for the next integers() call

    def next_half() -> int:
        if pending:
            return pending.pop()
        word = next_word()
        pending.append(word >> 32)
        return word & 0xFFFFFFFF

    def integers(n: int) -> int:
        if n == 1:
            return 0
        m = next_half() * n
        # Reject the 2**32 % n lowest products so that each result is
        # equally likely; m & 0xFFFFFFFF >= n already rules rejection out.
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_half() * n
        return m >> 32

    return next_word, integers


def _epsilon_bound(epsilon: float) -> int:
    """The int ``b`` with ``word < b`` exactly when ``(word >> 11) * 2**-53 <
    epsilon``, for every 64-bit ``word`` and ``epsilon`` in [0, 1].

    Multiplying by 2**53 is exact, and the int ``word >> 11`` is below a
    float exactly when it is below that float's ceiling. ``b`` is 0 only at
    epsilon 0 and is 2**64 at epsilon 1.
    """
    return math.ceil(epsilon * 2.0**53) << 11


class EpisodeTotals(NamedTuple):
    """One training episode: env steps taken and their rewards summed in step order."""

    steps: int
    total_reward: float


def train(env, algo: Algorithm, cfg: LearnConfig) -> tuple[QTable, list[EpisodeTotals]]:
    """Run the episodic training loop of Q-learning or SARSA.

    Fully reproducible from cfg.seed. Its only randomness is the raw word
    stream of ``np.random.PCG64(cfg.seed)``, read in blocks by
    ``_pcg64_draws``; on numpy 2.4.6 its draws equal those of
    ``Generator.random()`` and ``Generator.integers(n_actions)`` on that
    stream, and ``tests/test_agents.py`` checks that they do. The epsilon
    test ``random() < epsilon`` compares the raw word with an int bound
    worked out once per episode (``_epsilon_bound``), with the same
    outcome; at epsilon 0 it draws nothing. The random baseline learns
    nothing, so it has no training: evaluate it with ``random_rollout``.
    Epsilon decays once per episode: eps(t) = max(eps_min, eps0 * decay^t).

    ``env`` steps on int state ids: it provides ``n_actions``, ``dims`` (the
    box the ids encode, or None for opaque ids), ``reset(randomize_start) ->
    state_id``, ``step(action) -> (state_id, reward, done)`` and
    ``terminated``, read only after a step that returns done: true when the
    episode ended in a terminal state, whose update targets the reward alone,
    and false when it was cut short (truncated), whose update still
    bootstraps from the next state (Pardo et al., "Time Limits in
    Reinforcement Learning", ICML 2018). The table is keyed by those ids; the
    trace holds one ``EpisodeTotals`` per episode.

    The cyclic garbage collector is paused for the episode loop, and switched
    back on at return or raise if it was on at entry. The loop makes no
    reference cycles (Q rows are lists of floats, link records and totals are
    tuples of numbers), so reference counting frees all it drops. The pause is
    process-wide: cycles other threads make meanwhile wait until it ends.
    """
    algo = Algorithm(algo)
    if algo is Algorithm.RANDOM:
        raise ValueError("the random baseline does not train; use random_rollout")
    sarsa = algo is Algorithm.SARSA
    next_word, integers = _pcg64_draws(np.random.PCG64(cfg.seed))
    n_actions = env.n_actions
    q = QTable(n_actions=n_actions, default_value=cfg.optimistic_init, dims=env.dims)
    table = q._table
    default = q.default_value
    learning_rate = cfg.learning_rate
    discount = cfg.discount
    step = env.step
    table_get = table.get
    isfinite = math.isfinite
    epsilon = cfg.epsilon_start
    trace = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(cfg.episodes):
            if not 0.0 <= epsilon <= 1.0:
                raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
            # A word below this is a uniform draw below epsilon; 0 at epsilon 0,
            # where the test draws nothing.
            explore_below = _epsilon_bound(epsilon)
            state = env.reset(randomize_start=cfg.randomize_start)
            row = table_get(state)  # None until the state is first updated
            best = None  # max(row) when it is known, else None
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
                    if explore_below and next_word() < explore_below:
                        action = integers(n_actions)
                    elif row is None:
                        action = 0
                    else:
                        action = row.index(max(row) if best is None else best)
                next_state, reward, done = step(action)
                next_row = table_get(next_state)
                if sarsa:
                    # Drawn at an episode's last step too, terminal or not: the
                    # action goes unused, but the draw advances the stream.
                    if explore_below and next_word() < explore_below:
                        next_action = integers(n_actions)
                    else:
                        next_action = 0 if next_row is None else next_row.index(max(next_row))
                    ahead = default if next_row is None else next_row[next_action]
                else:
                    next_action = -1
                    ahead = default if next_row is None else max(next_row)
                current = default if row is None else row[action]
                target = reward if done and env.terminated else reward + discount * ahead
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
                # predate the row just written, and so may its max. Otherwise
                # Q-learning's ahead is max(row) for the next greedy pick; SARSA
                # reads best only at an episode's first pick.
                if next_state != state:
                    row = next_row
                    best = ahead
                else:
                    best = None
                state = next_state
                action = next_action
            trace.append(EpisodeTotals(steps, total_reward))
            epsilon = max(cfg.epsilon_min, epsilon * cfg.epsilon_decay)
    finally:
        if gc_was_enabled:
            gc.enable()
    return q, trace


def _rollout(env, pick_action) -> tuple[EpisodeMetrics, list[tuple]]:
    state = env.reset(randomize_start=False)
    metrics = EpisodeMetrics()
    trajectory = []
    done = False
    while not done:
        state, reward, done = env.step(pick_action(state))
        trajectory.append(env.auv_pos)
        metrics.record(reward, *env.last_terms)
    return metrics, trajectory


def greedy_rollout(env, q: QTable) -> tuple[EpisodeMetrics, list[tuple]]:
    """One episode under the pure greedy policy from the fixed start.

    Returns the metrics and the sequence of positions visited after each
    action (the trajectory). ``q`` is keyed by the env's int state ids: a
    table that holds states must have the env's ``dims``, and every table
    its ``n_actions``.
    """
    if len(q) and q.dims != tuple(env.dims):
        raise ValueError(f"the Q-table holds states of the box {q.dims}, not of the "
                         f"environment's {tuple(env.dims)}")
    if q.n_actions != env.n_actions:
        raise ValueError(f"the Q-table has {q.n_actions} actions, the environment "
                         f"{env.n_actions}")
    return _rollout(env, q.best_action)


def random_rollout(env, rng: np.random.Generator) -> tuple[EpisodeMetrics, list[tuple]]:
    """One episode of uniformly random actions (the baseline trajectory)."""
    return _rollout(env, lambda _state: int(rng.integers(env.n_actions)))
