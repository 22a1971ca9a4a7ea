"""3D underwater data-collection environment.

A box of dimensions L x W x H (depth grows downward) holds randomly placed
sensor nodes. An AUV moves on the integer grid in unit steps along the six
axis directions. Each step it beams power down a cone-shaped footprint,
charges the stores of covered nodes, collects buffered data from them over
the acoustic uplink, and relays it to a surface station. Rewards trade
relayed throughput against harvested energy, minus the motion cost.

All randomness is driven by the config seed; identical (config, seed,
action sequence) triples reproduce identical trajectories bit for bit.
"""

import dataclasses
import math
import types
from dataclasses import dataclass, field
from typing import NamedTuple, get_args, get_origin

import numpy as np

from .auv import AuvSpec, move_energy
from .channel import (
    ChannelParams,
    ModemSpec,
    noise_level_db,
    shannon_throughput_bps,
    source_level,
    transmission_loss_db,
)
from .harvest import HarvestSpec, harvestable_power, split_power

# Unit moves: +x, -x, +y, -y, +z, -z (z grows downward).
ACTIONS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
N_ACTIONS = len(ACTIONS)


class StateKey(NamedTuple):
    """Discretized MDP state: the decoded view of an int state id.

    Training and the Q-table key states by the int id ``key_to_id`` gives;
    ``encode_state``, ``reset``, ``StepOutcome.next_state`` and saved
    Q-tables show the same state as this tuple.
    """

    x: int
    y: int
    z: int
    covered_with_data: int
    covered_undercharged: int
    gain_bin: int


def key_to_id(key, dims) -> int:
    """Int id of the state ``key`` in a box of dimensions ``dims``.

    The id is ``p * 64 + (covered_with_data * 4 + covered_undercharged) * 4
    + gain_bin`` with the position index ``p = (x * (W + 1) + y) * (H + 1) +
    z``. Every feature lies in 0..3, so ids sort in ``StateKey`` tuple
    order. Raises ``ValueError`` for a key that is not six integers inside
    the box and the feature ranges.
    """
    l, w, h = dims
    if len(key) != 6 or not all(isinstance(c, int) for c in key):
        raise ValueError(f"state key must be six integers, got {list(key)}")
    x, y, z, with_data, undercharged, gain_bin = key
    if not (0 <= x <= l and 0 <= y <= w and 0 <= z <= h
            and all(0 <= f <= 3 for f in (with_data, undercharged, gain_bin))):
        raise ValueError(f"state key {list(key)} is outside the {l} x {w} x {h} box "
                         "or the feature range 0..3")
    return _state_id((x * (w + 1) + y) * (h + 1) + z, with_data, undercharged, gain_bin)


def _state_id(p: int, with_data: int, undercharged: int, gain_bin: int) -> int:
    """State id at position index ``p``; the two node counts are clamped at 3."""
    return (p * 64 + ((with_data if with_data < 3 else 3) * 4
                      + (undercharged if undercharged < 3 else 3)) * 4 + gain_bin)


def id_to_key(state_id: int, dims) -> StateKey:
    """The ``StateKey`` an int state id of a box of dimensions ``dims`` stands for."""
    _, w, h = dims
    p, code = divmod(state_id, 64)
    xy, z = divmod(p, h + 1)
    x, y = divmod(xy, w + 1)
    return StateKey(x, y, z, code >> 4, (code >> 2) & 3, code & 3)


@dataclass
class StepOutcome:
    next_state: StateKey
    reward: float
    reward_throughput_term: float
    reward_harvest_term: float
    throughput_bits: float
    harvested_j: float
    motion_energy_j: float
    transmit_energy_j: float
    done: bool


@dataclass(frozen=True)
class EnvConfig:
    """Full environment description; every run-affecting knob lives here.

    Exactly one of ``node_count`` / ``node_density`` must be set. Scale
    fields left at None are derived from the link budget at deploy time
    (see Environment). ``surface_station_xy`` and ``auv_start_xy`` default
    to the centre of the surface plane.
    """

    dims: tuple[int, int, int] = (100, 100, 50)
    node_count: int | None = 25
    node_density: float | None = None
    episode_length: int = 50
    step_duration_s: float = 1.0
    rng_seed: int = 0
    channel: ChannelParams = field(default_factory=ChannelParams)
    auv: AuvSpec = field(default_factory=AuvSpec)
    node_modem: ModemSpec = field(default_factory=ModemSpec)
    auv_modem: ModemSpec | None = None
    node_harvest: HarvestSpec = field(default_factory=HarvestSpec)
    surface_station_xy: tuple[float, float] | None = None
    auv_start_xy: tuple[int, int] | None = None
    auv_start_z: int = 0
    node_buffer_bits: float = 4e6
    node_store_capacity_j: float = 100.0
    node_store_level_j: float = 0.0
    node_store_charge_efficiency: float = 1.0
    reward_gamma: float = 0.5
    throughput_scale: float | None = None
    power_scale: float | None = None
    motion_scale: float | None = None

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) != d or d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if (self.node_count is None) == (self.node_density is None):
            raise ValueError("exactly one of node_count / node_density must be set")
        if self.node_count is not None and self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if self.node_density is not None and self.node_density <= 0:
            raise ValueError(f"node_density must be > 0, got {self.node_density}")
        if self.episode_length < 1:
            raise ValueError(f"episode_length must be >= 1, got {self.episode_length}")
        if self.step_duration_s <= 0:
            raise ValueError(
                f"step_duration_s must be > 0, got {self.step_duration_s}"
            )
        if not 0.0 <= self.reward_gamma <= 1.0:
            raise ValueError(f"reward_gamma must be in [0, 1], got {self.reward_gamma}")
        for name in ("throughput_scale", "power_scale", "motion_scale"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be > 0, got {val}")
        if not 0 <= self.auv_start_z <= self.dims[2]:
            raise ValueError(f"auv_start_z must be in [0, H], got {self.auv_start_z}")
        if self.auv_start_xy is not None:
            x, y = self.auv_start_xy
            if not (0 <= x <= self.dims[0] and 0 <= y <= self.dims[1]):
                raise ValueError(f"auv_start_xy out of bounds: {self.auv_start_xy}")
        if self.node_buffer_bits < 0:
            raise ValueError(
                f"node_buffer_bits must be >= 0, got {self.node_buffer_bits}"
            )
        if self.node_store_capacity_j <= 0:
            raise ValueError(
                f"node_store_capacity_j must be > 0, got {self.node_store_capacity_j}"
            )
        if not 0.0 <= self.node_store_level_j <= self.node_store_capacity_j:
            raise ValueError(
                "node_store_level_j must be in [0, node_store_capacity_j], "
                f"got {self.node_store_level_j}"
            )
        if not 0.0 < self.node_store_charge_efficiency <= 1.0:
            raise ValueError(
                "node_store_charge_efficiency must be in (0, 1], "
                f"got {self.node_store_charge_efficiency}"
            )


class _PosLinks(NamedTuple):
    """Link-budget terms that depend only on the AUV position.

    ``nodes`` holds one ``(i, harvest_w, uplink_bits_per_step)`` triple per
    covered node: the harvesting share of the received downlink power and
    the bits its uplink can carry in one step, which is 0 when the
    information share is 0 (decoding needs a non-zero information split).
    Bit ``a`` of ``blocked`` is set when action ``a`` would leave the box.
    """

    covered: tuple[int, ...]     # indices of covered nodes, ascending
    nodes: tuple[tuple[int, float, float], ...]
    relay_bits_per_step: float
    gain_bin: int
    blocked: int


def _blocked_moves(pos: tuple[int, int, int], dims) -> int:
    """Bit mask of the ``ACTIONS`` that the box clamps at ``pos``."""
    (x, y, z), (l, w, h) = pos, dims
    return ((x == l) | (x == 0) << 1 | (y == w) << 2 | (y == 0) << 3
            | (z == h) << 4 | (z == 0) << 5)


class Environment:
    """Single-owner mutable simulation instance.

    Construction performs the node deployment; ``reset`` starts a fresh
    episode without moving the nodes. Node ``i`` is row ``i`` of
    ``node_pos`` (float ``[N, 3]``) and entry ``i`` of the per-episode lists
    ``store_level_j`` and ``buffer_bits``; the AUV battery level is the
    float ``auv_battery_j`` and its grid position ``auv_pos``. Code that
    moves nodes must clear ``_link_cache``.

    Node and AUV positions must be integer grid points: the node link
    budget is tabulated once per environment over the integer squared
    ranges ``0 .. L^2 + W^2 + H^2``, and ``_links`` raises ``ValueError``
    on a squared range that is not an integer in that span.

    ``step`` returns a ``StepOutcome``; training goes through ``step_id``,
    the same step on int state ids (see ``key_to_id``).
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self.dims = config.dims
        l, w, h = config.dims

        deploy_rng = np.random.default_rng([config.rng_seed & 0xFFFFFFFFFFFFFFFF, 0])
        self._episode_rng = np.random.default_rng(
            [config.rng_seed & 0xFFFFFFFFFFFFFFFF, 1]
        )

        if config.node_count is not None:
            count = config.node_count
        else:
            volume = l * w * h
            count = int(deploy_rng.poisson(config.node_density * volume))
            if count == 0:
                raise ValueError(
                    "node_density realization produced zero nodes; "
                    "increase density or use node_count"
                )
        positions = deploy_rng.integers(
            low=0, high=[l + 1, w + 1, h + 1], size=(count, 3)
        )
        self.node_pos = positions.astype(float)

        self._auv_modem = config.auv_modem if config.auv_modem is not None else config.node_modem
        self._sl_node = source_level(config.node_modem)
        self._sl_auv = source_level(self._auv_modem)
        self._nl = noise_level_db(config.channel)
        self._tan_half = math.tan(math.radians(config.auv.cone_apex_angle_deg / 2.0))
        sx, sy = (
            config.surface_station_xy
            if config.surface_station_xy is not None
            else (l / 2.0, w / 2.0)
        )
        self._surface_station = (float(sx), float(sy), 0.0)
        self._start_pos = (
            config.auv_start_xy
            if config.auv_start_xy is not None
            else (l // 2, w // 2)
        )
        self._start_pos = (
            int(self._start_pos[0]),
            int(self._start_pos[1]),
            int(config.auv_start_z),
        )

        dt = config.step_duration_s
        ref_snr_auv = self._sl_auv - transmission_loss_db(1.0, config.channel) - self._nl
        ref_snr_node = self._sl_node - transmission_loss_db(1.0, config.channel) - self._nl
        # Every move is one grid unit long, so it always costs this much; a
        # move the box clamps idles and pays the hotel load for the step.
        self._unit_move_j = move_energy(config.auv, (0, 0, 0), (1, 0, 0))
        self._idle_j = config.auv.hotel_load_w * dt
        self.motion_scale = (
            config.motion_scale
            if config.motion_scale is not None
            else self._unit_move_j
        )
        self.throughput_scale = (
            config.throughput_scale
            if config.throughput_scale is not None
            else shannon_throughput_bps(ref_snr_auv, config.channel, float("-inf")) * dt
        )
        self.power_scale = (
            config.power_scale
            if config.power_scale is not None
            else harvestable_power(ref_snr_auv, config.node_harvest) * dt
        )
        self._move_penalty = self._unit_move_j / self.motion_scale
        self._idle_penalty = self._idle_j / self.motion_scale

        # Fixed SNR thresholds for the gain bin: the reachable uplink band,
        # from the cube diagonal down to the 1 m reference, split in four.
        diag = math.sqrt(l * l + w * w + h * h)
        snr_far = self._sl_node - transmission_loss_db(max(1.0, diag), config.channel) - self._nl
        self._gain_edges = np.linspace(snr_far, ref_snr_node, 5)[1:4]

        # Node link budget at range max(1, sqrt(d2)) for every integer squared
        # range d2 a pair of grid points in the box can have.
        d2 = np.arange(l * l + w * w + h * h + 1, dtype=float)
        loss = transmission_loss_db(np.maximum(1.0, np.sqrt(d2)), config.channel)
        self._uplink_snr_db = self._sl_node - loss - self._nl
        self._uplink_rate_bps = shannon_throughput_bps(
            self._uplink_snr_db, config.channel, config.node_modem.min_snr_db
        )
        self._downlink_power_w = harvestable_power(
            self._sl_auv - loss - self._nl, config.node_harvest
        )

        # The AUV position is kept as its index p = (x * (W + 1) + y) * (H + 1)
        # + z; action a moves it by _moves[a] unless the box clamps it.
        self._w1, self._h1 = w + 1, h + 1
        self._moves = tuple((dx * (w + 1) + dy) * (h + 1) + dz for dx, dy, dz in ACTIONS)
        self._link_cache: dict[int, _PosLinks] = {}  # position index -> links
        self._relay_bits: dict[float, float] = {}    # relay range -> bits per step
        self.reset(randomize_start=False)

    # ------------------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return N_ACTIONS

    @property
    def auv_pos(self) -> tuple[int, int, int]:
        """AUV grid position ``(x, y, z)``."""
        xy, z = divmod(self._p, self._h1)
        x, y = divmod(xy, self._w1)
        return (x, y, z)

    @auv_pos.setter
    def auv_pos(self, pos) -> None:
        pos = tuple(int(c) for c in pos)
        l, w, h = self.dims
        if not (len(pos) == 3 and 0 <= pos[0] <= l and 0 <= pos[1] <= w
                and 0 <= pos[2] <= h):
            raise ValueError(f"AUV position {pos} is outside the box {self.dims}")
        self._p = (pos[0] * self._w1 + pos[1]) * self._h1 + pos[2]
        self._blocked = _blocked_moves(pos, self.dims)

    def reset(self, randomize_start: bool = False) -> StateKey:
        """Start a new episode; node placement is untouched.

        ``randomize_start`` draws a fresh surface column (x, y) from the
        seeded episode stream, otherwise the configured start is used.
        """
        cfg = self.config
        n = len(self.node_pos)
        self.store_level_j = [cfg.node_store_level_j] * n
        self.buffer_bits = [cfg.node_buffer_bits] * n
        self.auv_battery_j = cfg.auv.battery_level_j
        if randomize_start:
            l, w, _ = self.dims
            x = int(self._episode_rng.integers(0, l + 1))
            y = int(self._episode_rng.integers(0, w + 1))
            self.auv_pos = (x, y, int(cfg.auv_start_z))
        else:
            self.auv_pos = self._start_pos
        self.relay_buffer_bits = 0.0
        self.total_relayed_bits = 0.0
        self.total_collected_bits = 0.0
        self.step_index = 0
        self.done = False
        return self.encode_state()

    def covered(self) -> list[int]:
        """Indices of nodes inside the coverage cone with a usable uplink."""
        return list(self._links_here().covered)

    def step(self, action: int) -> StepOutcome:
        """Apply one unit move and resolve power transfer and data relay."""
        state_id, reward, done = self.step_id(int(action))
        tput_term, harv_term, relayed_bits, harvested_j, e_move, transmit_j = (
            self._last_terms
        )
        return StepOutcome(
            next_state=id_to_key(state_id, self.dims),
            reward=reward,
            reward_throughput_term=tput_term,
            reward_harvest_term=harv_term,
            throughput_bits=relayed_bits,
            harvested_j=harvested_j,
            motion_energy_j=e_move,
            transmit_energy_j=transmit_j,
            done=done,
        )

    def step_id(self, action: int) -> tuple[int, float, bool]:
        """``step`` on int state ids: returns (next state id, reward, done).

        The step's other terms (reward throughput and harvest terms, relayed
        bits, harvested J, motion and transmit energy) are kept in
        ``_last_terms`` for ``step``.
        """
        if self.done:
            raise RuntimeError("cannot step a finished episode; call reset()")
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action must be in [0, {N_ACTIONS}), got {action}")
        cfg = self.config
        dt = cfg.step_duration_s

        p = self._p
        if self._blocked >> action & 1:
            e_move = self._idle_j
            penalty = self._idle_penalty
        else:
            p += self._moves[action]
            e_move = self._unit_move_j
            penalty = self._move_penalty
        battery_j = self.auv_battery_j - e_move
        self.auv_battery_j = battery_j = battery_j if battery_j > 0.0 else 0.0
        links = self._link_cache.get(p)
        if links is None:
            links = self._links(p)
        self._p = p
        self._blocked = links.blocked

        levels = self.store_level_j
        buffers = self.buffer_bits
        capacity = cfg.node_store_capacity_j
        efficiency = cfg.node_store_charge_efficiency

        useful = False
        harvested_j = 0.0
        collected_bits = 0.0
        relay_buffer = self.relay_buffer_bits
        uplinking_nodes = 0
        with_data = 0
        undercharged = 0
        for i, harvest_w, uplink_bits in links.nodes:
            level = levels[i]
            bits = buffers[i]
            # A node only changes its own entries, so testing it before
            # booking it tests the state the step started from.
            if bits > 0 or level < capacity:
                useful = True
            # harvest.charge: the store accepts the offered energy up to its
            # headroom (harvest_w >= 0 is checked when the links are built).
            offered_j = harvest_w * dt * efficiency
            headroom_j = capacity - level
            accepted_j = offered_j if offered_j < headroom_j else headroom_j
            levels[i] = level = level + accepted_j
            harvested_j += accepted_j
            if uplink_bits > 0 and bits > 0:
                take = uplink_bits if uplink_bits < bits else bits
                buffers[i] = bits = bits - take
                relay_buffer += take
                collected_bits += take
                uplinking_nodes += 1
            # The next state's features count the nodes as the step leaves them.
            if bits > 0:
                with_data += 1
            if level < capacity:
                undercharged += 1

        relay_bits = links.relay_bits_per_step
        relayed_bits = relay_bits if relay_bits < relay_buffer else relay_buffer
        self.relay_buffer_bits = relay_buffer - relayed_bits
        self.total_relayed_bits += relayed_bits
        self.total_collected_bits += collected_bits

        transmit_j = uplinking_nodes * cfg.node_modem.electrical_power_w * dt
        if links.covered:
            transmit_j += self._auv_modem.electrical_power_w * dt

        if useful:
            tput_term = cfg.reward_gamma * (relayed_bits / self.throughput_scale)
            harv_term = (1.0 - cfg.reward_gamma) * (harvested_j / self.power_scale)
        else:
            tput_term = 0.0
            harv_term = 0.0
        reward = tput_term + harv_term - penalty
        self._last_terms = (tput_term, harv_term, relayed_bits, harvested_j, e_move,
                            transmit_j)

        self.step_index += 1
        self.done = done = battery_j == 0.0 or self.step_index >= cfg.episode_length
        return (_state_id(p, with_data, undercharged, links.gain_bin), reward, done)

    def state_id(self) -> int:
        """Int id of the current state (see ``key_to_id``)."""
        links = self._links_here()
        capacity = self.config.node_store_capacity_j
        buffers = self.buffer_bits
        levels = self.store_level_j
        with_data = 0
        undercharged = 0
        for i in links.covered:
            if buffers[i] > 0:
                with_data += 1
            if levels[i] < capacity:
                undercharged += 1
        return _state_id(self._p, with_data, undercharged, links.gain_bin)

    def encode_state(self) -> StateKey:
        return id_to_key(self.state_id(), self.dims)

    # ------------------------------------------------------------------

    def _links_here(self) -> _PosLinks:
        links = self._link_cache.get(self._p)
        return links if links is not None else self._links(self._p)

    def _links(self, p: int) -> _PosLinks:
        """Build and cache the link terms at position index ``p``."""
        cfg = self.config
        xy, z = divmod(p, self._h1)
        pos = (*divmod(xy, self._w1), z)
        d = self.node_pos - np.asarray(pos, dtype=float)
        dz = d[:, 2]
        horiz2 = d[:, 0] ** 2 + d[:, 1] ** 2
        in_cone = (dz >= 0) & (horiz2 <= (dz * self._tan_half) ** 2)
        d2 = horiz2 + dz * dz
        d2_index = d2.astype(np.intp)
        if not np.array_equal(d2_index, d2) or d2_index.max() >= len(self._uplink_snr_db):
            raise ValueError(
                f"squared ranges from AUV position {pos} to the nodes must be "
                "integers within the box; node positions must be grid points"
            )
        uplink_snr = self._uplink_snr_db[d2_index]
        idx = np.nonzero(in_cone & (uplink_snr >= cfg.node_modem.min_snr_db))[0]
        covered_d2 = d2_index[idx]

        split_ratio = cfg.node_harvest.split_ratio
        dt = cfg.step_duration_s
        nodes = []
        for i, power_w, rate_bps in zip(
            idx.tolist(),
            self._downlink_power_w[covered_d2].tolist(),
            self._uplink_rate_bps[covered_d2].tolist(),
        ):
            info_w, harvest_w = split_power(power_w, split_ratio)
            if not harvest_w >= 0.0:
                raise ValueError(f"harvest_w must be >= 0, got {harvest_w}")
            nodes.append((i, harvest_w, rate_bps * dt if info_w > 0 else 0.0))

        # Many positions share a relay range; the same scalar call on the
        # same float gives the same rate, so it is computed once per range.
        relay_range = max(1.0, math.dist(pos, self._surface_station))
        relay_bits = self._relay_bits.get(relay_range)
        if relay_bits is None:
            relay_snr = self._sl_auv - transmission_loss_db(relay_range, cfg.channel) - self._nl
            relay_rate = shannon_throughput_bps(
                relay_snr, cfg.channel, self._auv_modem.min_snr_db
            )
            relay_bits = self._relay_bits[relay_range] = float(relay_rate) * dt

        if idx.size:
            gain_bin = int(np.searchsorted(self._gain_edges, float(np.mean(uplink_snr[idx]))))
        else:
            gain_bin = 0
        links = _PosLinks(
            covered=tuple(idx.tolist()),
            nodes=tuple(nodes),
            relay_bits_per_step=relay_bits,
            gain_bin=gain_bin,
            blocked=_blocked_moves(pos, self.dims),
        )
        self._link_cache[p] = links
        return links

    # ------------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-safe snapshot for replay and debugging.

        Schema: ``config`` (the full EnvConfig as nested dicts), ``nodes``
        (list of {position, store_level_j, data_buffer_bits}), and ``auv``
        ({position, battery_level_j, relay_buffer_bits, total_relayed_bits,
        total_collected_bits, step_index, done}). A snapshot without the two
        totals loads with nothing relayed and the relay buffer as the bits
        collected so far.
        """
        return {
            "config": env_config_to_dict(self.config),
            "nodes": [
                {
                    "position": [int(c) for c in pos],
                    "store_level_j": level,
                    "data_buffer_bits": bits,
                }
                for pos, level, bits in zip(
                    self.node_pos, self.store_level_j, self.buffer_bits
                )
            ],
            "auv": {
                "position": list(self.auv_pos),
                "battery_level_j": self.auv_battery_j,
                "relay_buffer_bits": self.relay_buffer_bits,
                "total_relayed_bits": self.total_relayed_bits,
                "total_collected_bits": self.total_collected_bits,
                "step_index": self.step_index,
                "done": self.done,
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Environment":
        env = cls(config_from_dict(EnvConfig, snapshot["config"]))
        nodes = snapshot["nodes"]
        if len(nodes) != len(env.node_pos):
            raise ValueError(
                f"snapshot has {len(nodes)} nodes, deployment has {len(env.node_pos)}"
            )
        capacity = env.config.node_store_capacity_j
        levels = [float(rec["store_level_j"]) for rec in nodes]
        if not all(0.0 <= level <= capacity for level in levels):
            raise ValueError("snapshot store_level_j must be in [0, node_store_capacity_j]")
        auv = snapshot["auv"]
        battery_j = float(auv["battery_level_j"])
        if not 0.0 <= battery_j <= env.config.auv.battery_capacity_j:
            raise ValueError("snapshot battery_level_j must be in [0, battery_capacity_j]")
        env.node_pos = np.asarray(
            [[int(c) for c in rec["position"]] for rec in nodes], dtype=float
        )
        env._link_cache.clear()
        env.store_level_j = levels
        env.buffer_bits = [float(rec["data_buffer_bits"]) for rec in nodes]
        env.auv_pos = tuple(int(c) for c in auv["position"])
        env.auv_battery_j = battery_j
        env.relay_buffer_bits = float(auv["relay_buffer_bits"])
        env.total_relayed_bits = float(auv.get("total_relayed_bits", 0.0))
        env.total_collected_bits = float(
            auv.get("total_collected_bits", env.relay_buffer_bits)
        )
        env.step_index = int(auv["step_index"])
        env.done = bool(auv["done"])
        return env


def deploy(config: EnvConfig) -> Environment:
    """Place nodes and the AUV per the seeded configuration."""
    return Environment(config)


# ---------------------------------------------------------------------------
# Config (de)serialization, shared by snapshots, manifests and the CLI.

def env_config_to_dict(config: EnvConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(cls, doc: dict):
    """Build the config dataclass ``cls`` from its JSON document ``doc``.

    Nested dataclasses, tuples and ``X | None`` fields are rebuilt from the
    field annotations. Fields missing from ``doc`` keep their defaults; an
    unknown key, a tuple field given something other than an array, a
    scalar of the wrong JSON type (an int is accepted for a float, a bool
    is not a number) or null for a field that is not optional raises
    ``ValueError`` naming the class and the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    types_by_name = {f.name: f.type for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in types_by_name:
            raise ValueError(f"{cls.__name__} has no field {key!r}")
    return cls(**{
        key: _from_json(types_by_name[key], value, f"{cls.__name__}.{key}")
        for key, value in doc.items()
    })


# The Python types of the JSON scalars each scalar annotation accepts.
_SCALAR_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def _from_json(annotation, value, name: str):
    if isinstance(annotation, types.UnionType):  # X | None
        if value is None:
            return None
        (annotation,) = (a for a in get_args(annotation) if a is not type(None))
    elif value is None:
        raise ValueError(f"{name} must not be null")
    if dataclasses.is_dataclass(annotation):
        return config_from_dict(annotation, value)
    if get_origin(annotation) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a JSON array, got {value!r}")
        # Every tuple field holds one element type: tuple[X, ...] or (X, X).
        element = get_args(annotation)[0]
        return tuple(_from_json(element, v, name) for v in value)
    accepted = _SCALAR_TYPES.get(annotation)
    if accepted is not None and (
        not isinstance(value, accepted)
        or (isinstance(value, bool) and annotation is not bool)
    ):
        raise ValueError(f"{name} must be of type {annotation.__name__}, got {value!r}")
    return value
