"""Reference training loop: the plain scalar code the trainer must reproduce.

``agents.train`` runs Q-learning and SARSA in one loop on int state ids,
with epsilon-greedy selection and the update inline, and
``Environment.step_id`` books a step in one pass over the covered nodes
with the link terms cached per position. This module keeps the
straightforward form of both as an oracle:

- ``select_action``, ``q_update`` and ``sarsa_update`` as separate
  functions on a ``QTable`` keyed by ``StateKey`` tuples;
- ``reference_links``, the link terms at one position evaluated from the
  channel and harvest models;
- ``reference_step``, the environment step in separate move, charge
  (``harvest.charge``), uplink, relay and reward stages on the
  environment's public state;
- ``reference_train``, the episode loop that strings them together.

Tests require the trainer and this loop to agree exactly.
"""

import math

import numpy as np

from aquaswipt.agents import Algorithm, LearnConfig, QTable
from aquaswipt.auv import move_energy
from aquaswipt.channel import (
    noise_level_db,
    shannon_throughput_bps,
    source_level,
    transmission_loss_db,
)
from aquaswipt.env3d import ACTIONS, StateKey
from aquaswipt.harvest import charge, harvestable_power, split_power


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


def reference_links(env, pos):
    """The link terms at ``pos`` from the channel and harvest models, plus
    the number of nodes in the cone before the SNR floor.

    Returns ``(covered, nodes, relay_bits_per_step, gain_bin, n_in_cone)``,
    with one ``(i, harvest_w, uplink_bits_per_step)`` triple per covered
    node. The link budget is evaluated over arrays of node ranges, as the
    models define it: numpy's vectorised power can differ from its scalar
    form in the last bit.
    """
    cfg = env.config
    auv_modem = cfg.auv_modem if cfg.auv_modem is not None else cfg.node_modem
    nl = noise_level_db(cfg.channel)
    dt = cfg.step_duration_s
    tan_half = math.tan(math.radians(cfg.auv.cone_apex_angle_deg / 2.0))
    dist = np.maximum(1.0, np.sqrt(((env.node_pos - np.asarray(pos, float)) ** 2).sum(axis=1)))
    up_snr = source_level(cfg.node_modem) - transmission_loss_db(dist, cfg.channel) - nl
    in_cone = []
    for i, (nx, ny, nz) in enumerate(env.node_pos.tolist()):
        dx, dy, dz = nx - pos[0], ny - pos[1], nz - pos[2]
        reach = dz * tan_half
        if dz >= 0 and dx * dx + dy * dy <= reach * reach:
            in_cone.append(i)
    covered = [i for i in in_cone if up_snr[i] >= cfg.node_modem.min_snr_db]
    idx = np.asarray(covered, dtype=int)
    rate = shannon_throughput_bps(up_snr[idx], cfg.channel, cfg.node_modem.min_snr_db)
    down_snr = source_level(auv_modem) - transmission_loss_db(dist[idx], cfg.channel) - nl
    power = harvestable_power(down_snr, cfg.node_harvest)
    nodes = []
    for i, power_w, rate_bps in zip(covered, power.tolist(), rate.tolist()):
        info_w, harvest_w = split_power(power_w, cfg.node_harvest.split_ratio)
        nodes.append((i, harvest_w, rate_bps * dt if info_w > 0 else 0.0))

    l, w, _ = cfg.dims
    sx, sy = cfg.surface_station_xy or (l / 2.0, w / 2.0)
    relay_range = max(1.0, math.dist(pos, (sx, sy, 0.0)))
    relay_snr = source_level(auv_modem) - transmission_loss_db(relay_range, cfg.channel) - nl
    relay_bps = shannon_throughput_bps(relay_snr, cfg.channel, auv_modem.min_snr_db)
    mean_snr = float(np.mean(up_snr[idx])) if covered else None
    gain_bin = 0 if mean_snr is None else sum(e < mean_snr for e in env._gain_edges)
    return tuple(covered), tuple(nodes), relay_bps * dt, gain_bin, len(in_cone)


def reference_state(env, links) -> StateKey:
    """The state at the AUV position; ``links(pos)`` gives ``reference_links``."""
    covered, _, _, gain_bin, _ = links(env.auv_pos)
    capacity = env.config.node_store_capacity_j
    with_data = sum(1 for i in covered if env.buffer_bits[i] > 0)
    undercharged = sum(1 for i in covered if env.store_level_j[i] < capacity)
    return StateKey(*env.auv_pos, min(3, with_data), min(3, undercharged), gain_bin)


def reference_step(env, action: int, links) -> tuple[StateKey, float, bool]:
    """One environment step on ``env``'s public state: (next state, reward, done)."""
    if env.done:
        raise RuntimeError("cannot step a finished episode; call reset()")
    cfg = env.config
    dt = cfg.step_duration_s
    old = env.auv_pos
    new = tuple(min(max(c + d, 0), top) for c, d, top in zip(old, ACTIONS[action], env.dims))
    if new != old:
        e_move = move_energy(cfg.auv, (0, 0, 0), (1, 0, 0))
    else:
        # Clamped at the boundary: the vehicle idles but still pays its
        # hotel load for the step.
        e_move = cfg.auv.hotel_load_w * dt
    env.auv_battery_j = max(0.0, env.auv_battery_j - e_move)
    depleted = env.auv_battery_j == 0.0
    env.auv_pos = new

    _, nodes, relay_bits_per_step, _, _ = links(new)
    levels = env.store_level_j
    buffers = env.buffer_bits
    capacity = cfg.node_store_capacity_j
    useful = False
    harvested_j = 0.0
    collected_bits = 0.0
    relay_buffer = env.relay_buffer_bits
    for i, harvest_w, uplink_bits in nodes:
        if buffers[i] > 0 or levels[i] < capacity:
            useful = True
        levels[i], accepted = charge(levels[i], capacity,
                                     cfg.node_store_charge_efficiency, harvest_w, dt)
        harvested_j += accepted
        if uplink_bits > 0 and buffers[i] > 0:
            take = min(buffers[i], uplink_bits)
            buffers[i] -= take
            relay_buffer += take
            collected_bits += take

    relayed_bits = min(relay_buffer, relay_bits_per_step)
    env.relay_buffer_bits = relay_buffer - relayed_bits
    env.total_relayed_bits += relayed_bits
    env.total_collected_bits += collected_bits
    if useful:
        tput_term = cfg.reward_gamma * (relayed_bits / env.throughput_scale)
        harv_term = (1.0 - cfg.reward_gamma) * (harvested_j / env.power_scale)
    else:
        tput_term = 0.0
        harv_term = 0.0
    reward = tput_term + harv_term - e_move / env.motion_scale

    env.step_index += 1
    env.done = depleted or env.step_index >= cfg.episode_length
    return reference_state(env, links), reward, env.done


def reference_train(env, algo: Algorithm, cfg: LearnConfig):
    """Train like ``agents.train`` from the pieces above.

    Returns a ``QTable`` keyed by ``StateKey`` and one ``(steps,
    total_reward)`` pair per episode.
    """
    rng = np.random.default_rng(cfg.seed)
    q = QTable(n_actions=env.n_actions, default_value=cfg.optimistic_init)
    memo = {}

    def links(pos):
        if pos not in memo:
            memo[pos] = reference_links(env, pos)
        return memo[pos]

    epsilon = cfg.epsilon_start
    trace = []
    for _ in range(cfg.episodes):
        env.reset(randomize_start=cfg.randomize_start)
        state = reference_state(env, links)
        steps = 0
        total_reward = 0.0
        if algo is Algorithm.SARSA:
            action = select_action(q, state, epsilon, rng)
        while True:
            if algo is Algorithm.Q_LEARNING:
                action = select_action(q, state, epsilon, rng)
            next_state, reward, done = reference_step(env, action, links)
            if algo is Algorithm.Q_LEARNING:
                q_update(q, state, action, reward, next_state, cfg)
            else:
                next_action = select_action(q, next_state, epsilon, rng)
                sarsa_update(q, state, action, reward, next_state, next_action, cfg)
                action = next_action
            state = next_state
            steps += 1
            total_reward += reward
            if done:
                break
        trace.append((steps, total_reward))
        epsilon = max(cfg.epsilon_min, epsilon * cfg.epsilon_decay)
    return q, trace
