"""Environment tests: deployment determinism, cone coverage against a
brute-force oracle, step accounting, reward branches, and serialization."""

import math

import numpy as np
import pytest

from aquaswipt.auv import AuvSpec
from aquaswipt.channel import ChannelParams, ModemSpec
from aquaswipt.env3d import (
    ACTIONS,
    EnvConfig,
    Environment,
    StateKey,
    config_from_dict,
    deploy,
    env_config_to_dict,
    id_to_key,
    key_to_id,
)
from aquaswipt.harvest import HarvestSpec
from reference_loop import reference_links


def small_config(**kwargs):
    defaults = dict(dims=(20, 20, 10), node_count=25, rng_seed=11)
    defaults.update(kwargs)
    return EnvConfig(**defaults)


# ---------------------------------------------------------------------------
# deploy


def test_deploy_is_deterministic():
    a = deploy(small_config(rng_seed=42))
    b = deploy(small_config(rng_seed=42))
    assert a.node_pos.tolist() == b.node_pos.tolist()


def test_deploy_seed_changes_layout():
    a = deploy(small_config(rng_seed=1))
    b = deploy(small_config(rng_seed=2))
    assert a.node_pos.tolist() != b.node_pos.tolist()


def test_deploy_count_and_bounds():
    env = deploy(EnvConfig(dims=(100, 100, 50), node_count=25, rng_seed=0))
    assert env.node_pos.shape == (25, 3)
    assert np.array_equal(env.node_pos, np.floor(env.node_pos))
    for x, y, z in env.node_pos:
        assert 0 <= x <= 100 and 0 <= y <= 100 and 0 <= z <= 50


def test_deploy_density_mean_matches_poisson_intensity():
    dims = (10, 10, 5)
    lam = 0.04  # expected count = 20
    counts = [
        len(deploy(EnvConfig(dims=dims, node_count=None, node_density=lam,
                             rng_seed=seed)).node_pos)
        for seed in range(1000)
    ]
    expected = lam * dims[0] * dims[1] * dims[2]
    assert np.mean(counts) == pytest.approx(expected, rel=0.05)


def test_deploy_validates_node_choice():
    with pytest.raises(ValueError):
        EnvConfig(node_count=None, node_density=None)
    with pytest.raises(ValueError):
        EnvConfig(node_count=10, node_density=0.01)
    with pytest.raises(ValueError):
        EnvConfig(node_count=0)


def test_env_config_validates_node_store():
    with pytest.raises(ValueError, match="node_store_charge_efficiency"):
        EnvConfig(node_store_charge_efficiency=0.0)
    with pytest.raises(ValueError, match="node_store_capacity_j"):
        EnvConfig(node_store_capacity_j=0.0, node_store_level_j=0.0)
    with pytest.raises(ValueError, match="node_store_level_j"):
        EnvConfig(node_store_capacity_j=1.0, node_store_level_j=2.0)


# ---------------------------------------------------------------------------
# covered


def brute_force_covered(env):
    """Independent point-in-cone + SNR check, scalar math only."""
    from aquaswipt.channel import received_snr_db

    ax, ay, az = env.auv_pos
    half = math.radians(env.config.auv.cone_apex_angle_deg / 2.0)
    out = []
    for i, (nx, ny, nz) in enumerate(env.node_pos.tolist()):
        dx, dy, dz = nx - ax, ny - ay, nz - az
        if dz < 0:
            continue
        if math.hypot(dx, dy) > dz * math.tan(half) + 1e-12:
            continue
        rng_m = max(1.0, math.sqrt(dx * dx + dy * dy + dz * dz))
        snr = received_snr_db(env.config.node_modem, rng_m, env.config.channel)
        if snr >= env.config.node_modem.min_snr_db:
            out.append(i)
    return out


def downlink_power_w(env, i):
    """Harvestable power reaching node ``i`` from the AUV, scalar math only."""
    from aquaswipt.channel import received_snr_db
    from aquaswipt.harvest import harvestable_power

    cfg = env.config
    auv_modem = cfg.auv_modem if cfg.auv_modem is not None else cfg.node_modem
    rng_m = max(1.0, math.dist(env.node_pos[i].tolist(), env.auv_pos))
    return harvestable_power(received_snr_db(auv_modem, rng_m, cfg.channel),
                             cfg.node_harvest)


def test_covered_node_directly_below():
    env = deploy(small_config(node_count=1, rng_seed=3))
    env.node_pos = np.asarray([[10.0, 10.0, 7.0]])
    env._link_cache.clear()
    env.auv_pos = (10, 10, 0)
    assert env.covered() == [0]


def test_covered_node_above_is_not_covered():
    env = deploy(small_config(node_count=1, rng_seed=3))
    env.node_pos = np.asarray([[10.0, 10.0, 2.0]])
    env._link_cache.clear()
    env.auv_pos = (10, 10, 6)
    assert env.covered() == []


def test_covered_matches_brute_force_on_synthetic_layout():
    env = deploy(small_config(node_count=5, rng_seed=3))
    layout = [(10, 10, 9), (11, 10, 2), (3, 3, 9), (10, 12, 5), (10, 10, 0)]
    env.node_pos = np.asarray(layout, dtype=float)
    env._link_cache.clear()
    for auv_pos in [(10, 10, 0), (10, 10, 4), (3, 3, 0), (0, 0, 0), (10, 11, 3)]:
        env._link_cache.clear()
        env.auv_pos = auv_pos
        assert env.covered() == brute_force_covered(env), auv_pos


def test_covered_matches_brute_force_on_random_layouts():
    rng = np.random.default_rng(123)
    env = deploy(small_config(node_count=40, rng_seed=9))
    for _ in range(25):
        env.auv_pos = tuple(int(v) for v in rng.integers(0, [21, 21, 11]))
        env._link_cache.clear()
        assert env.covered() == brute_force_covered(env)


def links_at(env, pos):
    """The env's link terms at grid position ``pos``, built afresh."""
    return env._links(key_to_id(StateKey(*pos, 0, 0, 0), env.dims) // 64)


def test_link_table_matches_reference_over_every_position():
    from aquaswipt.channel import received_snr_db

    cut_snr = received_snr_db(ModemSpec(), 3.0, ChannelParams())
    configs = [
        # Odd dims put the surface station at x.5; the SNR floor drops the
        # nodes beyond 3 m, and the AUV modem shares it for the relay.
        small_config(dims=(7, 5, 3), node_count=30, rng_seed=1,
                     node_modem=ModemSpec(min_snr_db=cut_snr)),
        small_config(dims=(6, 4, 5), node_count=30, rng_seed=2, step_duration_s=0.5,
                     channel=ChannelParams(noise_override_db=90.0),
                     node_harvest=HarvestSpec(split_ratio=0.0)),
        small_config(dims=(5, 7, 4), node_count=30, rng_seed=3, step_duration_s=2.5,
                     node_harvest=HarvestSpec(split_ratio=1.0)),
    ]
    for cfg in configs:
        env = deploy(cfg)
        l, w, h = cfg.dims
        seen = dropped = 0
        for pos in np.ndindex(l + 1, w + 1, h + 1):
            pos = tuple(int(c) for c in pos)
            links = links_at(env, pos)
            covered, nodes, relay_bits, gain_bin, n_in_cone = reference_links(env, pos)
            assert links.covered == covered, (cfg.dims, pos)
            assert links.nodes == nodes, (cfg.dims, pos)
            assert links.relay_bits_per_step == relay_bits, (cfg.dims, pos)
            assert links.gain_bin == gain_bin, (cfg.dims, pos)
            clamped = [a for a, move in enumerate(ACTIONS)
                       if not all(0 <= c + d <= top for c, d, top in zip(pos, move, cfg.dims))]
            assert links.blocked == sum(1 << a for a in clamped), (cfg.dims, pos)
            seen += len(covered)
            dropped += n_in_cone - len(covered)
        assert seen > 0
        if cfg.node_modem.min_snr_db > 0:
            assert dropped > 0


def test_links_reject_off_grid_node():
    env = deploy(small_config(node_count=3, rng_seed=4))
    for off_grid in ([10.5, 10.0, 5.0], [10.0, 10.0, 500.0]):
        env.node_pos[1] = off_grid
        env._link_cache.clear()
        with pytest.raises(ValueError, match="grid points"):
            links_at(env, (10, 10, 0))


def test_links_reject_nan_harvest_power():
    # The step books charge()'s arithmetic without its per-call check; the
    # check runs once per position when the links are built.
    env = deploy(small_config(node_count=1, rng_seed=5))
    env.node_pos = np.asarray([[10.0, 10.0, 5.0]])
    env._link_cache.clear()
    env._downlink_power_w[:] = float("nan")
    with pytest.raises(ValueError, match="harvest_w"):
        links_at(env, (10, 10, 0))


# ---------------------------------------------------------------------------
# step


def test_step_moves_and_clamps_to_bounds():
    env = deploy(small_config())
    env.reset()
    env.auv_pos = (0, 0, 0)
    env._link_cache.clear()
    out = env.step(1)  # -x, clamped
    assert env.auv_pos == (0, 0, 0)
    # Clamped dwell charges hotel load only.
    hotel = env.config.auv.hotel_load_w * env.config.step_duration_s
    assert out.motion_energy_j == pytest.approx(hotel)


def test_step_motion_energy_unit_move():
    from aquaswipt.auv import move_energy

    env = deploy(small_config())
    env.reset()
    out = env.step(0)
    expected = move_energy(env.config.auv, (0, 0, 0), (1, 0, 0))
    assert out.motion_energy_j == pytest.approx(expected)


def test_step_no_coverage_reward_is_motion_penalty():
    env = deploy(small_config(node_count=1, rng_seed=5))
    env.reset()
    env.node_pos = np.asarray([[0.0, 0.0, 10.0]])
    env._link_cache.clear()
    env.auv_pos = (20, 20, 0)
    out = env.step(0)  # clamped at +x wall, far from the node
    assert env.covered() == []
    assert out.reward == pytest.approx(-out.motion_energy_j / env.motion_scale)
    assert out.reward_throughput_term == 0.0
    assert out.reward_harvest_term == 0.0


def test_step_saturated_and_empty_node_gives_penalty_only():
    env = deploy(small_config(node_count=1, rng_seed=5,
                              node_store_capacity_j=10.0, node_store_level_j=10.0))
    env.reset()
    env.node_pos = np.asarray([[10.0, 10.0, 8.0]])
    env._link_cache.clear()
    env.store_level_j[0] = 10.0
    env.buffer_bits[0] = 0.0
    env.auv_pos = (10, 11, 0)
    out = env.step(3)  # -y onto the covering column
    assert env.covered() == [0]
    assert out.reward == pytest.approx(-out.motion_energy_j / env.motion_scale)


def test_step_gamma_one_ignores_harvest():
    env = deploy(small_config(reward_gamma=1.0))
    env.reset()
    for action in (4, 4, 0, 2, 4):
        out = env.step(action)
        assert out.reward_harvest_term == 0.0


def test_step_gamma_zero_ignores_throughput():
    env = deploy(small_config(reward_gamma=0.0))
    env.reset()
    for action in (4, 4, 0, 2, 4):
        out = env.step(action)
        assert out.reward_throughput_term == 0.0


def test_step_rejects_finished_episode():
    env = deploy(small_config(episode_length=2))
    env.reset()
    env.step(0)
    out = env.step(1)
    assert out.done
    with pytest.raises(RuntimeError):
        env.step(0)


def test_step_rejects_bad_action():
    env = deploy(small_config())
    env.reset()
    with pytest.raises(ValueError):
        env.step(6)


def test_done_exactly_at_episode_length():
    env = deploy(small_config(episode_length=5))
    env.reset()
    for i in range(5):
        out = env.step(i % 6)
        assert out.done == (i == 4)


def test_done_on_battery_depletion():
    auv = AuvSpec(battery_capacity_j=2000.0, battery_level_j=2000.0)
    env = deploy(small_config(auv=auv, episode_length=50))
    env.reset()
    steps = 0
    while True:
        out = env.step(0)
        steps += 1
        if out.done:
            break
    assert steps < 50
    assert env.auv_battery_j == 0.0


def test_position_always_in_bounds_under_fuzz():
    env = deploy(small_config(episode_length=400, dims=(6, 5, 4)))
    rng = np.random.default_rng(77)
    env.reset()
    for _ in range(400):
        env.step(int(rng.integers(6)))
        x, y, z = env.auv_pos
        assert 0 <= x <= 6 and 0 <= y <= 5 and 0 <= z <= 4


def test_step_conservation_invariants():
    env = deploy(small_config(episode_length=50))
    rng = np.random.default_rng(13)
    initial_buffer_bits = env.config.node_buffer_bits * len(env.node_pos)
    for _ in range(6):
        env.reset(randomize_start=True)
        while True:
            levels_before = list(env.store_level_j)
            out = env.step(int(rng.integers(6)))
            covered = env.covered()
            dt = env.config.step_duration_s
            split = env.config.node_harvest.split_ratio
            eff = env.config.node_store_charge_efficiency
            for i, before in enumerate(levels_before):
                gained = env.store_level_j[i] - before
                if i in covered:
                    cap = (1.0 - split) * downlink_power_w(env, i) * dt * eff
                    assert 0.0 <= gained <= cap + 1e-12
                else:
                    assert gained == 0.0
            # Totals are separate float accumulators; allow ulp-scale drift.
            slack = 1e-9 * max(1.0, env.total_collected_bits)
            assert env.total_relayed_bits <= env.total_collected_bits + slack
            assert env.total_collected_bits <= initial_buffer_bits + slack
            if out.done:
                break


def test_identical_seed_and_actions_reproduce_rewards():
    actions = np.random.default_rng(1).integers(0, 6, size=50)
    totals = []
    for _ in range(2):
        env = deploy(small_config(rng_seed=21))
        env.reset()
        total = 0.0
        for a in actions:
            total += env.step(int(a)).reward
        totals.append(total)
    assert totals[0] == totals[1]


# ---------------------------------------------------------------------------
# encode_state / reset


def test_encode_state_empty_coverage():
    env = deploy(small_config(node_count=1, rng_seed=5))
    env.reset()
    env.node_pos = np.asarray([[0.0, 0.0, 10.0]])
    env._link_cache.clear()
    env.auv_pos = (20, 20, 0)
    key = env.encode_state()
    assert (key.covered_with_data, key.covered_undercharged, key.gain_bin) == (0, 0, 0)
    assert (key.x, key.y, key.z) == (20, 20, 0)


def test_encode_state_clamps_counts_at_three():
    env = deploy(small_config(node_count=5, rng_seed=5))
    env.reset()
    env.node_pos = np.asarray([[10.0, 10.0, 9.0]] * 5)
    env._link_cache.clear()
    env.auv_pos = (10, 10, 0)
    key = env.encode_state()
    assert key.covered_with_data == 3
    assert key.covered_undercharged == 3


def test_encode_state_deterministic():
    env = deploy(small_config())
    env.reset()
    assert env.encode_state() == env.encode_state()


def test_reset_fixed_start_is_stable():
    env = deploy(small_config())
    first = env.reset()
    env.step(0)
    env.step(2)
    assert env.reset() == first


def test_reset_randomized_start_reproducible_across_deployments():
    a = deploy(small_config(rng_seed=33))
    b = deploy(small_config(rng_seed=33))
    starts_a = [a.reset(randomize_start=True) for _ in range(10)]
    starts_b = [b.reset(randomize_start=True) for _ in range(10)]
    assert starts_a == starts_b
    assert len({(k.x, k.y) for k in starts_a}) > 1


def test_reset_does_not_move_nodes():
    env = deploy(small_config())
    before = env.node_pos.tolist()
    env.reset(randomize_start=True)
    env.step(0)
    env.reset()
    assert env.node_pos.tolist() == before


def test_reset_restores_buffers_stores_battery():
    env = deploy(small_config())
    env.reset()
    for _ in range(20):
        env.step(4)
    env.reset()
    assert env.auv_battery_j == env.config.auv.battery_level_j
    n = len(env.node_pos)
    assert env.buffer_bits == [env.config.node_buffer_bits] * n
    assert env.store_level_j == [env.config.node_store_level_j] * n
    assert env.relay_buffer_bits == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_snapshot_round_trip_preserves_state_and_dynamics():
    env = deploy(small_config(rng_seed=8))
    env.reset()
    rng = np.random.default_rng(3)
    for _ in range(17):
        env.step(int(rng.integers(6)))
    snap = env.to_snapshot()
    clone = Environment.from_snapshot(snap)
    assert clone.auv_pos == env.auv_pos
    assert clone.step_index == env.step_index
    assert clone.node_pos.tolist() == env.node_pos.tolist()
    assert clone.store_level_j == env.store_level_j
    assert clone.buffer_bits == env.buffer_bits
    assert clone.auv_battery_j == env.auv_battery_j
    # Identical continuations from the restored state.
    for _ in range(10):
        a = int(rng.integers(6))
        out_a = env.step(a)
        out_b = clone.step(a)
        assert out_b.reward == pytest.approx(out_a.reward, rel=0, abs=0)
        assert out_b.next_state == out_a.next_state
    assert clone.total_relayed_bits == env.total_relayed_bits
    assert clone.total_collected_bits == env.total_collected_bits


def test_snapshot_without_totals_counts_relay_buffer_as_collected():
    snap = deploy(small_config(rng_seed=8)).to_snapshot()
    del snap["auv"]["total_relayed_bits"], snap["auv"]["total_collected_bits"]
    snap["auv"]["relay_buffer_bits"] = 1234.5
    clone = Environment.from_snapshot(snap)
    assert clone.total_relayed_bits == 0.0
    assert clone.total_collected_bits == 1234.5


def test_snapshot_is_json_safe():
    import json

    env = deploy(small_config())
    snap = env.to_snapshot()
    assert all(type(c) is int for node in snap["nodes"] for c in node["position"])
    text = json.dumps(snap)
    clone = Environment.from_snapshot(json.loads(text))
    assert clone.encode_state() == env.encode_state()


def test_snapshot_rejects_out_of_range_levels():
    env = deploy(small_config())
    snap = env.to_snapshot()
    snap["nodes"][0]["store_level_j"] = env.config.node_store_capacity_j * 2
    with pytest.raises(ValueError, match="store_level_j"):
        Environment.from_snapshot(snap)
    snap = env.to_snapshot()
    snap["auv"]["battery_level_j"] = -1.0
    with pytest.raises(ValueError, match="battery_level_j"):
        Environment.from_snapshot(snap)


def test_env_config_dict_round_trip():
    cfg = small_config(
        channel=ChannelParams(noise_override_db=-50.0),
        node_modem=ModemSpec(source_level_db=170.0),
        node_harvest=HarvestSpec(split_ratio=0.25),
        auv_start_xy=(3, 4),
        motion_scale=123.0,
    )
    assert config_from_dict(EnvConfig, env_config_to_dict(cfg)) == cfg


def test_state_key_is_hashable_and_tuple_like():
    key = StateKey(1, 2, 3, 0, 1, 2)
    assert key == (1, 2, 3, 0, 1, 2)
    assert hash(key) == hash((1, 2, 3, 0, 1, 2))


def test_state_ids_decode_and_sort_in_state_key_order():
    dims = (4, 3, 2)
    keys = [StateKey(x, y, z, a, b, c)
            for x in range(5) for y in range(4) for z in range(3)
            for a in range(4) for b in range(4) for c in range(4)]
    ids = [key_to_id(key, dims) for key in keys]
    assert ids == sorted(ids) == list(range(len(keys)))
    assert [id_to_key(i, dims) for i in ids] == keys
    for bad in [(5, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0), (0, 0, 0, 4, 0, 0),
                (0, 0, 0, 0, 0), (0.0, 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="state key"):
            key_to_id(bad, dims)


def test_step_id_is_step_on_state_ids():
    a = deploy(small_config(rng_seed=8))
    b = deploy(small_config(rng_seed=8))
    assert a.state_id() == key_to_id(a.encode_state(), a.dims)
    rng = np.random.default_rng(4)
    for action in rng.integers(0, 6, size=a.config.episode_length).tolist():
        out = a.step(action)
        state_id, reward, done = b.step_id(action)
        assert (out.next_state, out.reward, out.done) == (
            id_to_key(state_id, b.dims), reward, done)
        assert state_id == b.state_id()
    assert a.auv_pos == b.auv_pos and a.store_level_j == b.store_level_j


def test_auv_pos_rejects_positions_outside_the_box():
    env = deploy(small_config())
    for pos in [(21, 0, 0), (0, -1, 0), (0, 0, 11)]:
        with pytest.raises(ValueError, match="outside the box"):
            env.auv_pos = pos


def test_actions_are_six_unit_steps():
    assert len(ACTIONS) == 6
    assert sorted(ACTIONS) == sorted(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
