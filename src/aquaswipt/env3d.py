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

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

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
from .checks import NON_NEGATIVE, POSITIVE, POSITIVE_UNIT, UNIT, Bound, check_field_types
from .harvest import HarvestSpec, harvestable_power, split_power

# Unit moves: +x, -x, +y, -y, +z, -z (z grows downward).
ACTIONS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
N_ACTIONS = len(ACTIONS)


class StateKey(NamedTuple):
    """Discretized MDP state: the decoded view of an int state id.

    The environment, training and the Q-table name states by the int id
    ``key_to_id`` gives; ``id_to_key`` decodes one, and saved Q-tables
    write states as this tuple.
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
    return (((x * (w + 1) + y) * (h + 1) + z) * 64 + (with_data * 4 + undercharged) * 4
            + gain_bin)


def id_to_tuple(state_id, dims) -> tuple:
    """The ``StateKey`` fields of an int state id as a plain tuple.

    ``state_id`` may also be an int64 array of ids; each field is then an
    int64 array, as ``QTable.save`` decodes a chunk of ids at once.
    """
    _, w, h = dims
    p, code = divmod(state_id, 64)
    xy, z = divmod(p, h + 1)
    x, y = divmod(xy, w + 1)
    return x, y, z, code >> 4, (code >> 2) & 3, code & 3


def id_to_key(state_id: int, dims) -> StateKey:
    """The ``StateKey`` an int state id of a box of dimensions ``dims`` stands for."""
    return StateKey(*id_to_tuple(state_id, dims))


def cone_reach2(depth, apex_angle_deg: float, out=None) -> np.ndarray:
    """The cone rule: a point ``depth`` below the apex is covered exactly when its
    squared horizontal offset is at most this, ``(depth * tan(apex_angle_deg / 2))
    ** 2``, or -1 above the apex (depth < 0). ``out`` must not be ``depth``."""
    reach2 = np.multiply(depth, math.tan(math.radians(apex_angle_deg / 2.0)), out=out)
    np.square(reach2, out=reach2)
    np.copyto(reach2, -1.0, where=depth < 0)
    return reach2


@dataclass(frozen=True)
class EnvConfig:
    """Full environment description; every run-affecting knob lives here.

    Scale fields left at None are derived from the link budget at deploy
    time (see Environment). ``surface_station_xy`` and ``auv_start_xy``
    default to the centre of the surface plane.
    """

    dims: Annotated[tuple[int, int, int], Bound(1)] = (100, 100, 50)
    node_count: Annotated[int, Bound(1)] = 25
    episode_length: Annotated[int, Bound(1)] = 50
    step_duration_s: Annotated[float, POSITIVE] = 1.0
    rng_seed: int = 0
    channel: ChannelParams = field(default_factory=ChannelParams)
    auv: AuvSpec = field(default_factory=AuvSpec)
    node_modem: ModemSpec = field(default_factory=ModemSpec)
    auv_modem: ModemSpec | None = None
    node_harvest: HarvestSpec = field(default_factory=HarvestSpec)
    surface_station_xy: tuple[float, float] | None = None
    auv_start_xy: tuple[int, int] | None = None
    auv_start_z: int = 0
    node_buffer_bits: Annotated[float, NON_NEGATIVE] = 4e6
    node_store_capacity_j: Annotated[float, POSITIVE] = 100.0
    node_store_level_j: Annotated[float, NON_NEGATIVE] = 0.0
    node_store_charge_efficiency: Annotated[float, POSITIVE_UNIT] = 1.0
    reward_gamma: Annotated[float, UNIT] = 0.5
    throughput_scale: Annotated[float | None, POSITIVE] = None
    power_scale: Annotated[float | None, POSITIVE] = None
    motion_scale: Annotated[float | None, POSITIVE] = None

    def __post_init__(self):
        check_field_types(self)
        l, w, h = self.dims
        if not 0 <= self.auv_start_z <= h:
            raise ValueError(f"EnvConfig.auv_start_z must be in [0, {h}], "
                             f"got {self.auv_start_z}")
        if self.auv_start_xy is not None:
            x, y = self.auv_start_xy
            if not (0 <= x <= l and 0 <= y <= w):
                raise ValueError(f"EnvConfig.auv_start_xy must be in [0, {l}] x [0, {w}], "
                                 f"got {self.auv_start_xy}")
        if self.node_store_level_j > self.node_store_capacity_j:
            raise ValueError("EnvConfig.node_store_level_j must be <= node_store_capacity_j "
                             f"({self.node_store_capacity_j}), got {self.node_store_level_j}")


# The link record: the link-budget terms that depend only on the AUV
# position index p, a plain 4-tuple ``(nodes, relay_bits, state_base,
# blocked)`` that ``Environment._links`` builds and caches per position.
# - ``nodes`` holds one ``(i, offered_j, uplink_bits)`` triple per covered
#   node, in ascending node index: the energy one step offers its store,
#   ``harvest_w * dt * efficiency`` from the harvesting share of the
#   received downlink power, and the bits its uplink can carry in one step,
#   which is 0 when the information share is 0 (decoding needs a non-zero
#   information split).
# - ``relay_bits`` is what the relay link carries in one step.
# - ``state_base`` is ``p * 64 + gain_bin``, the state id with both node
#   counts 0 (see ``key_to_id``).
# - Bit ``a`` of ``blocked`` is set when action ``a`` would leave the box.

# Link records ``Environment._link_cache`` holds at most; ``_links`` empties
# the cache when it is full. A record is a pure function of the position
# and the placed nodes, so emptying it costs rebuilds and changes no output.
# Unbounded, random starts fill it toward the 520k positions of the
# 100 x 100 x 50 box at about 380 B a record (300 Q-learning episodes there
# left 9.6k records, 3.7 MB); most reuse is within one episode.
_LINK_CACHE_LIMIT = 2048


class Environment:
    """Single-owner mutable simulation instance.

    Construction performs the node deployment; ``reset`` starts a fresh
    episode without moving the nodes. Node ``i`` is row ``i`` of
    ``node_pos`` (float ``[N, 3]``) and entry ``i`` of the per-episode lists
    ``store_level_j`` and ``buffer_bits``; the AUV battery level is the
    float ``auv_battery_j`` and its grid position ``auv_pos``.

    Nodes are placed only through ``place_nodes``, which rejects positions
    that are not integer grid points inside the box and builds the
    per-axis tables of squared node offsets and cone reach, plus per x and
    per y value the nodes whose offset on that axis is within that node's
    own widest reach (its reach from the surface). The node link budget
    is tabulated once per environment over the integer squared ranges
    ``0 .. L^2 + W^2 + H^2``.
    The link record at a position (``_links``) is built from the tables on
    the first visit and cached per position: a plain-Python loop runs the
    cone test over the nodes near both the x and the y value, and the
    uplink SNR, offered energy and uplink-bits terms of a node are worked
    out once per squared range. The cache holds at most
    ``_LINK_CACHE_LIMIT`` (2048) records: ``_links`` empties a full cache
    before it inserts. A position visited again after that pays one
    rebuild, which hits the per-range and relay memos and took about 4 us
    at 50 nodes on the 100 x 100 x 50 box (2-vCPU Xeon VM). The two memos
    are bounded by the box, so the limit leaves them alone. ``place_nodes``
    empties the link cache, keeps both memos, which do not depend on the
    nodes, and tabulates the transmit energy of each count of uplinking
    nodes. The relay rate is memoised by the float relay range; a memo
    miss makes one scalar call each of ``transmission_loss_db`` and
    ``shannon_throughput_bps``. Measured costs of these paths are in the
    bench records (``BENCH_<pr>.json`` at the root of the repository;
    ``BENCH_18.json`` times the link build against numpy row operations).

    States are int ids (see ``key_to_id``): ``reset`` returns the first
    one and ``step`` returns ``(next state id, reward, done)``; after a
    step that returns done, ``terminated`` tells a spent battery from the
    ``episode_length`` cut.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self.dims = config.dims
        l, w, h = config.dims

        deploy_rng = np.random.default_rng([config.rng_seed & 0xFFFFFFFFFFFFFFFF, 0])
        self._episode_rng = np.random.default_rng(
            [config.rng_seed & 0xFFFFFFFFFFFFFFFF, 1]
        )
        positions = deploy_rng.integers(
            low=0, high=[l + 1, w + 1, h + 1], size=(config.node_count, 3)
        )

        self._auv_modem = config.auv_modem if config.auv_modem is not None else config.node_modem
        self._sl_node = source_level(config.node_modem)
        self._sl_auv = source_level(self._auv_modem)
        self._nl = noise_level_db(config.channel)
        sx, sy = (
            config.surface_station_xy
            if config.surface_station_xy is not None
            else (l / 2.0, w / 2.0)
        )
        self._surface_station = (float(sx), float(sy), 0.0)
        x, y = config.auv_start_xy if config.auv_start_xy is not None else (l // 2, w // 2)
        start_pos = (int(x), int(y), int(config.auv_start_z))

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
        # The config constants step() reads, kept as attributes so that a
        # step does not look them up through the nested config objects.
        self._dt = dt
        self._capacity = config.node_store_capacity_j
        self._efficiency = config.node_store_charge_efficiency
        self._node_w = config.node_modem.electrical_power_w
        self._auv_w = self._auv_modem.electrical_power_w
        self._reward_gamma = config.reward_gamma
        self._harvest_weight = 1.0 - config.reward_gamma
        self._episode_length = config.episode_length

        # Fixed SNR thresholds for the gain bin: the reachable uplink band,
        # from the cube diagonal down to the 1 m reference, split in four.
        diag = math.sqrt(l * l + w * w + h * h)
        snr_far = self._sl_node - transmission_loss_db(max(1.0, diag), config.channel) - self._nl
        self._gain_edges = tuple(np.linspace(snr_far, ref_snr_node, 5)[1:4].tolist())

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
        # Per axis value, the bits of the ``ACTIONS`` the box clamps there;
        # a position's mask ORs its three entries.
        self._blocked_x = [(x == l) | (x == 0) << 1 for x in range(l + 1)]
        self._blocked_y = [(y == w) << 2 | (y == 0) << 3 for y in range(w + 1)]
        self._blocked_z = [(z == h) << 4 | (z == 0) << 5 for z in range(h + 1)]
        self._link_cache: dict[int, tuple] = {}     # position index -> link record
        self._relay_bits: dict[float, float] = {}   # relay range -> bits per step
        self._range_links: dict[float, tuple] = {}  # squared range -> _range_link
        self.store_level_j: list[float] = []
        self.buffer_bits: list[float] = []
        self.place_nodes(positions)
        # ``reset`` restores the fixed start as this (_p, _blocked) pair.
        self.auv_pos = start_pos
        self._start = (self._p, self._blocked)
        self.reset(randomize_start=False)

    # ------------------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return N_ACTIONS

    @property
    def terminated(self) -> bool:
        """Whether the episode has reached its terminal state, a spent AUV
        battery. An episode that ends at ``episode_length`` with charge left
        is truncated, not terminated."""
        return self.auv_battery_j == 0.0

    @property
    def auv_pos(self) -> tuple[int, int, int]:
        """AUV grid position ``(x, y, z)``."""
        xy, z = divmod(self._p, self._h1)
        x, y = divmod(xy, self._w1)
        return (x, y, z)

    @auv_pos.setter
    def auv_pos(self, pos) -> None:
        pos = tuple(pos)
        l, w, h = self.dims
        # NaN and the infinities fail the range test, so int() never sees
        # them; the compare then refuses a coordinate int() would truncate.
        grid = None
        if len(pos) == 3 and 0 <= pos[0] <= l and 0 <= pos[1] <= w and 0 <= pos[2] <= h:
            grid = (int(pos[0]), int(pos[1]), int(pos[2]))
        if grid != pos:
            raise ValueError(f"AUV position {pos} is off the grid or outside the box "
                             f"{self.dims}")
        x, y, z = grid
        self._p = (x * self._w1 + y) * self._h1 + z
        self._blocked = self._blocked_x[x] | self._blocked_y[y] | self._blocked_z[z]

    def reset(self, randomize_start: bool = False) -> int:
        """Start a new episode and return its first state id.

        Node placement is untouched. ``randomize_start`` draws a fresh
        surface column (x, y) from the seeded episode stream, otherwise the
        configured start is used.
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
            self._p, self._blocked = self._start
        self.relay_buffer_bits = 0.0
        self.step_index = 0
        self.done = False
        return self.state_id()

    def step(self, action: int) -> tuple[int, float, bool]:
        """Apply one unit move and resolve power transfer and data relay.

        Returns ``(next state id, reward, done)``. The step's other terms
        are left in ``last_terms``, a plain tuple of the reward throughput
        term, the reward harvest term, the relayed bits, the harvested J,
        the motion J and the transmit J.
        """
        if self.done:
            raise RuntimeError("cannot step a finished episode; call reset()")
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action must be in [0, {N_ACTIONS}), got {action}")

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
        nodes, relay_bits, state, self._blocked = links
        self._p = p

        relay_buffer = self.relay_buffer_bits
        if nodes:
            capacity = self._capacity
            levels = self.store_level_j
            buffers = self.buffer_bits
            useful = False
            harvested_j = 0.0
            uplinking_nodes = 0
            with_data = 0
            undercharged = 0
            for i, offered_j, uplink_bits in nodes:
                level = levels[i]
                bits = buffers[i]
                # A node only changes its own entries, so testing it before
                # booking it tests the state the step started from. The
                # float literals keep the compares on CPython's float path.
                if bits > 0.0 or level < capacity:
                    useful = True
                # The store accepts the offered energy up to its headroom
                # (harvest_w >= 0 is checked when the links are built).
                headroom_j = capacity - level
                accepted_j = offered_j if offered_j < headroom_j else headroom_j
                levels[i] = level = level + accepted_j
                harvested_j += accepted_j
                if uplink_bits > 0.0 and bits > 0.0:
                    take = uplink_bits if uplink_bits < bits else bits
                    buffers[i] = bits = bits - take
                    relay_buffer += take
                    uplinking_nodes += 1
                # The next state's features count the nodes as the step leaves them.
                if bits > 0.0:
                    with_data += 1
                if level < capacity:
                    undercharged += 1
            transmit_j = self._transmit_j[uplinking_nodes]
            # The state id (see key_to_id), with both counts clamped at 3.
            state += ((with_data if with_data < 3 else 3) * 4
                      + (undercharged if undercharged < 3 else 3)) * 4
        else:
            # No node is covered: nothing is harvested, collected or sent
            # by the modems, but the relay buffer still drains.
            useful = False
            harvested_j = transmit_j = 0.0

        relayed_bits = relay_bits if relay_bits < relay_buffer else relay_buffer
        self.relay_buffer_bits = relay_buffer - relayed_bits

        if useful:
            tput_term = self._reward_gamma * (relayed_bits / self.throughput_scale)
            harv_term = self._harvest_weight * (harvested_j / self.power_scale)
        else:
            tput_term = 0.0
            harv_term = 0.0
        reward = tput_term + harv_term - penalty
        self.last_terms = (tput_term, harv_term, relayed_bits, harvested_j, e_move,
                           transmit_j)

        self.step_index = step_index = self.step_index + 1
        self.done = done = battery_j == 0.0 or step_index >= self._episode_length
        return state, reward, done

    def state_id(self) -> int:
        """Int id of the current state (see ``key_to_id``), node counts clamped at 3."""
        links = self._link_cache.get(self._p)
        if links is None:
            links = self._links(self._p)
        nodes, _, state_base, _ = links
        capacity = self.config.node_store_capacity_j
        buffers = self.buffer_bits
        levels = self.store_level_j
        with_data = 0
        undercharged = 0
        for i, _, _ in nodes:
            if buffers[i] > 0.0:
                with_data += 1
            if levels[i] < capacity:
                undercharged += 1
        return state_base + ((with_data if with_data < 3 else 3) * 4
                             + (undercharged if undercharged < 3 else 3)) * 4

    # ------------------------------------------------------------------

    def place_nodes(self, positions) -> None:
        """Put the nodes at ``positions`` and build the link tables ``_links`` reads.

        ``positions`` is ``[N, 3]`` integer grid points inside the box;
        anything else raises ``ValueError``. ``node_pos`` becomes a read-only
        float copy, and the link cache starts empty (the per-range memo is
        kept: its entries depend only on the squared range). When
        the node count changes, ``store_level_j`` and ``buffer_bits`` restart
        at the configured initial levels; otherwise they are kept. The
        transmit energy of a step is tabulated for each count of uplinking
        nodes up to the number placed.
        """
        message = f"node positions must be [N, 3] grid points inside the box {self.dims}"
        try:
            pos = np.array(positions, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{message}: {exc}") from None
        if (pos.ndim != 2 or pos.shape[1] != 3 or not np.array_equal(pos, np.floor(pos))
                or (pos < 0).any() or (pos > self.dims).any()):
            raise ValueError(message)
        pos.flags.writeable = False
        self.node_pos = pos
        if len(self.store_level_j) != len(pos):
            self.store_level_j = [self.config.node_store_level_j] * len(pos)
            self.buffer_bits = [self.config.node_buffer_bits] * len(pos)
        nx, ny, nz = pos.T
        l, w, h = self.dims
        # Per axis value, the squared offsets to every node, all integers, so
        # sums are exact squared ranges; per depth, every node's ``cone_reach2``.
        dx2 = (nx - np.arange(l + 1.0)[:, None]) ** 2
        dy2 = (ny - np.arange(w + 1.0)[:, None]) ** 2
        dz = nz - np.arange(h + 1.0)[:, None]
        reach2 = cone_reach2(dz, self.config.auv.cone_apex_angle_deg)
        # A node passes the cone test only where its x offset and its y
        # offset are each within its own widest reach over every depth, so
        # ``_links`` tests only the nodes near both the x and the y value.
        widest = reach2.max(axis=0)
        self._near_x = [row.nonzero()[0].tolist() for row in dx2 <= widest]
        self._near_y = [set(row.nonzero()[0].tolist()) for row in dy2 <= widest]
        # ``_links`` reads the tables as row lists of Python floats.
        self._dx2 = dx2.tolist()
        self._dy2 = dy2.tolist()
        self._dz2 = (dz * dz).tolist()
        self._reach2 = reach2.tolist()
        self._link_cache.clear()
        # One step's modem energy when k covered nodes uplink, k = 0..N.
        node_w, auv_w, dt = self._node_w, self._auv_w, self._dt
        self._transmit_j = [k * node_w * dt + auv_w * dt for k in range(len(pos) + 1)]

    def _range_link(self, d2: float) -> tuple:
        """``(uplink SNR, offered_j, uplink bits per step)`` of a covered node
        at squared range ``d2``, or ``()`` when its uplink is below the SNR floor.

        ``offered_j`` is ``harvest_w * dt * efficiency``: the energy one
        step offers the node's store.
        """
        cfg = self.config
        d2 = int(d2)
        snr = float(self._uplink_snr_db[d2])
        if not snr >= cfg.node_modem.min_snr_db:
            return ()
        info_w, harvest_w = split_power(float(self._downlink_power_w[d2]),
                                        cfg.node_harvest.split_ratio)
        if not harvest_w >= 0.0:
            raise ValueError(f"harvest_w must be >= 0, got {harvest_w}")
        rate_bps = float(self._uplink_rate_bps[d2])
        return (snr, harvest_w * self._dt * self._efficiency,
                rate_bps * self._dt if info_w > 0 else 0.0)

    def _links(self, p: int) -> tuple:
        """Build and cache the link record at position index ``p``."""
        xy, z = divmod(p, self._h1)
        x, y = divmod(xy, self._w1)
        dx2 = self._dx2[x]
        dy2 = self._dy2[y]
        dz2 = self._dz2[z]
        reach2 = self._reach2[z]
        near_y = self._near_y[y]
        memo = self._range_links
        nodes = []
        snrs = []
        snr_sum = 0.0
        for i in self._near_x[x]:
            if i in near_y:
                d2 = dx2[i] + dy2[i]
                if d2 <= reach2[i]:
                    d2 += dz2[i]  # now the squared range to the node
                    link = memo.get(d2)
                    if link is None:
                        link = memo[d2] = self._range_link(d2)
                    if link:
                        snr, offered_j, uplink_bits = link
                        nodes.append((i, offered_j, uplink_bits))
                        snrs.append(snr)
                        snr_sum += snr

        # Many positions share a relay range; the same scalar call on the
        # same float gives the same rate, so it is computed once per range.
        # The calls stay scalar: numpy's vectorised power can differ from
        # its scalar form in the last bit.
        relay_range = max(1.0, math.dist((x, y, z), self._surface_station))
        relay_bits = self._relay_bits.get(relay_range)
        if relay_bits is None:
            cfg = self.config
            relay_snr = self._sl_auv - transmission_loss_db(relay_range, cfg.channel) - self._nl
            relay_rate = shannon_throughput_bps(
                relay_snr, cfg.channel, self._auv_modem.min_snr_db
            )
            relay_bits = self._relay_bits[relay_range] = float(relay_rate) * cfg.step_duration_s

        # The edges ascend, so this counts the edges below the mean SNR,
        # which must be ``np.mean``'s to the bit. numpy adds fewer than 8
        # elements in order from 0.0, as the running sum does; from 8 on it
        # sums pairwise, and ``np.add.reduce`` is that sum without
        # ``np.mean``'s per-call overhead.
        n = len(snrs)
        if n:
            mean = snr_sum / n if n < 8 else float(np.add.reduce(snrs)) / n
            gain_bin = bisect_left(self._gain_edges, mean)
        else:
            gain_bin = 0
        cache = self._link_cache
        if len(cache) >= _LINK_CACHE_LIMIT:
            cache.clear()
        links = cache[p] = (
            tuple(nodes), relay_bits, p * 64 + gain_bin,
            self._blocked_x[x] | self._blocked_y[y] | self._blocked_z[z])
        return links


def deploy(config: EnvConfig) -> Environment:
    """Place nodes and the AUV per the seeded configuration."""
    return Environment(config)
