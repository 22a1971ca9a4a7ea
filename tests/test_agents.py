"""Agent tests: the reference selection and updates, the trainer against
the reference loop, training loops, rollouts, and the value-iteration
oracle on hand-solvable MDPs."""

import json

import numpy as np
import pytest

from aquaswipt.agents import (
    Algorithm,
    LearnConfig,
    QTable,
    TabularMdpEnv,
    greedy_rollout,
    random_rollout,
    train,
    value_iteration_oracle,
)
from aquaswipt.auv import AuvSpec
from aquaswipt.env3d import EnvConfig, deploy, id_to_key
from aquaswipt.harvest import HarvestSpec
from reference_loop import q_update, reference_train, sarsa_update, select_action


def cfg(**kwargs):
    defaults = dict(learning_rate=0.75, discount=0.99, episodes=1, seed=0)
    defaults.update(kwargs)
    return LearnConfig(**defaults)


# ---------------------------------------------------------------------------
# select_action (the reference loop's; the trainer inlines it)


def test_select_action_pure_greedy():
    q = QTable()
    q.set("s", 1, 5.0)
    assert select_action(q, "s", 0.0, np.random.default_rng(0)) == 1


def test_select_action_tie_breaks_to_lowest_index():
    q = QTable()
    assert select_action(q, "unseen", 0.0, np.random.default_rng(0)) == 0
    q.set("s", 0, 2.0)
    q.set("s", 3, 2.0)
    assert select_action(q, "s", 0.0, np.random.default_rng(0)) == 0


def test_select_action_uniform_at_full_exploration():
    q = QTable()
    q.set("s", 2, 100.0)  # must be ignored at epsilon = 1
    rng = np.random.default_rng(42)
    draws = 60_000
    counts = np.bincount(
        [select_action(q, "s", 1.0, rng) for _ in range(draws)], minlength=6
    )
    expected = draws / 6.0
    sigma = np.sqrt(draws * (1 / 6) * (5 / 6))
    assert np.all(np.abs(counts - expected) < 3.0 * sigma)


def test_select_action_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        select_action(QTable(), "s", 1.5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# updates (the reference loop's; the trainer inlines them)


def test_q_update_hand_value():
    q = QTable()
    q.set("next", 0, 2.0)
    q_update(q, "s", 3, 1.0, "next", cfg())
    # 0 + 0.75 * (1 + 0.99 * 2 - 0) = 2.235
    assert q.get("s", 3) == pytest.approx(2.235)


def test_q_update_zero_learning_rate_is_identityish():
    # learning_rate must be > 0 by contract; the no-op limit is checked via
    # a tiny rate instead.
    q = QTable()
    q_update(q, "s", 0, 1.0, "next", cfg(learning_rate=1e-12))
    assert q.get("s", 0) == pytest.approx(0.0, abs=1e-11)


def test_q_update_full_overwrite_to_target():
    q = QTable()
    q.set("s", 2, 4.0)
    q_update(q, "s", 2, 0.0, "terminalish", cfg(learning_rate=1.0))
    assert q.get("s", 2) == 0.0


def test_q_update_touches_exactly_one_cell():
    q = QTable()
    q.set("s", 0, 1.0)
    q.set("t", 5, 2.0)
    before_s = q.values("s")
    before_t = q.values("t")
    q_update(q, "s", 2, 3.0, "t", cfg())
    after_s = q.values("s")
    assert after_s[2] != before_s[2]
    after_s[2] = before_s[2]
    assert np.array_equal(after_s, before_s)
    assert np.array_equal(q.values("t"), before_t)


def test_sarsa_update_hand_value():
    q = QTable()
    q.set("next", 4, 1.0)
    sarsa_update(q, "s", 0, 1.0, "next", 4, cfg())
    # 0.75 * (1 + 0.99 * 1) = 1.4925
    assert q.get("s", 0) == pytest.approx(1.4925)


def test_sarsa_equals_q_update_under_greedy_next_action():
    cfg_ = cfg()
    qa = QTable()
    qb = QTable()
    for table in (qa, qb):
        table.set("next", 1, 7.0)
        table.set("next", 3, 2.0)
    q_update(qa, "s", 0, 0.5, "next", cfg_)
    sarsa_update(qb, "s", 0, 0.5, "next", qb.best_action("next"), cfg_)
    assert qa.get("s", 0) == qb.get("s", 0)


def test_updates_reject_nonfinite_reward():
    with pytest.raises(ValueError):
        q_update(QTable(), "s", 0, float("nan"), "t", cfg())
    with pytest.raises(ValueError):
        sarsa_update(QTable(), "s", 0, float("inf"), "t", 0, cfg())


def test_greedy_argmax_invariant_under_affine_transform():
    rng = np.random.default_rng(31)
    for _ in range(50):
        q = QTable()
        vals = rng.normal(size=6)
        for a, v in enumerate(vals):
            q.set("s", a, float(v))
        base = q.best_action("s")
        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(-5.0, 5.0))
        q2 = QTable()
        for a, v in enumerate(vals):
            q2.set("s", a, float(scale * v + shift))
        assert q2.best_action("s") == base


# ---------------------------------------------------------------------------
# value iteration oracle


def test_oracle_single_state_geometric_series():
    transitions = np.zeros((1, 1), dtype=int)
    rewards = np.ones((1, 1))
    q = value_iteration_oracle(transitions, rewards, discount=0.5, tol=1e-12)
    assert q[0, 0] == pytest.approx(2.0, abs=1e-9)


def test_oracle_myopic_at_zero_discount():
    rng = np.random.default_rng(3)
    transitions = rng.integers(0, 4, size=(4, 3))
    rewards = rng.normal(size=(4, 3))
    q = value_iteration_oracle(transitions, rewards, discount=0.0)
    assert np.allclose(q, rewards)


def test_oracle_two_state_chain_hand_solved():
    # s0: action 0 stays (r=0), action 1 hops to s1 (r=1);
    # s1: action 0 hops to s0 (r=0), action 1 stays (r=2).
    # With k=0.5, staying at s1 forever is optimal there:
    #   Q*(s1,1) = 2 / (1 - 0.5) = 4;   V*(s1) = 4
    #   Q*(s0,1) = 1 + 0.5 * 4 = 3;     V*(s0) = 3
    #   Q*(s0,0) = 0 + 0.5 * V*(s0) = 1.5
    #   Q*(s1,0) = 0 + 0.5 * V*(s0) = 1.5
    transitions = np.array([[0, 1], [0, 1]])
    rewards = np.array([[0.0, 1.0], [0.0, 2.0]])
    q = value_iteration_oracle(transitions, rewards, discount=0.5, tol=1e-12)
    assert np.allclose(q, [[1.5, 3.0], [1.5, 4.0]], atol=1e-9)


def test_oracle_stochastic_transitions():
    # One state, one action, reward 1, self loop with certainty spread over
    # a two-state symmetric chain with equal rewards: value = 1/(1-k).
    transitions = np.full((2, 1, 2), 0.5)
    rewards = np.ones((2, 1))
    q = value_iteration_oracle(transitions, rewards, discount=0.9, tol=1e-12)
    assert np.allclose(q, 10.0, atol=1e-8)


def test_oracle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        value_iteration_oracle(np.zeros((1, 1), dtype=int), np.zeros((1, 1)), discount=1.0)
    with pytest.raises(ValueError):
        value_iteration_oracle(np.zeros((1, 1), dtype=int), np.zeros((1, 1)),
                               discount=0.5, tol=-1.0)
    bad_probs = np.full((2, 1, 2), 0.4)
    with pytest.raises(ValueError):
        value_iteration_oracle(bad_probs, np.zeros((2, 1)), discount=0.5)


# ---------------------------------------------------------------------------
# training on explicit MDPs


def chain_mdp(seed=0, gap=0.1):
    """Random deterministic MDP whose optimal argmax has a clear margin."""
    rng = np.random.default_rng(seed)
    transitions = rng.integers(0, 6, size=(6, 3))
    while True:
        rewards = np.round(rng.uniform(0.0, 1.0, size=(6, 3)), 2)
        q_star = value_iteration_oracle(transitions, rewards, discount=0.8, tol=1e-12)
        gaps = np.sort(q_star, axis=1)
        if np.all(gaps[:, -1] - gaps[:, -2] > gap):
            return transitions, rewards, q_star


def test_train_q_learning_matches_oracle_policy():
    transitions, rewards, q_star = chain_mdp(seed=12)
    env = TabularMdpEnv(transitions, rewards, episode_length=40, seed=5)
    learn = LearnConfig(learning_rate=1.0, discount=0.8, epsilon_start=1.0,
                        epsilon_decay=1.0, epsilon_min=1.0, episodes=1000,
                        seed=9, randomize_start=True)
    q, _ = train(env, Algorithm.Q_LEARNING, learn)
    learned = np.array([[q.get(s, a) for a in range(3)] for s in range(6)])
    assert np.max(np.abs(learned - q_star)) < 1e-6
    assert np.array_equal(np.argmax(learned, axis=1), np.argmax(q_star, axis=1))


def test_train_sarsa_matches_oracle_policy_with_annealed_epsilon():
    transitions, rewards, q_star = chain_mdp(seed=21)
    env = TabularMdpEnv(transitions, rewards, episode_length=40, seed=6)
    learn = LearnConfig(learning_rate=0.2, discount=0.8, epsilon_start=1.0,
                        epsilon_decay=0.995, epsilon_min=0.001, episodes=2000,
                        seed=10, randomize_start=True)
    q, _ = train(env, Algorithm.SARSA, learn)
    learned = np.array([[q.get(s, a) for a in range(3)] for s in range(6)])
    assert np.array_equal(np.argmax(learned, axis=1), np.argmax(q_star, axis=1))


# ---------------------------------------------------------------------------
# the trainer against the reference loop


def small_env(**kwargs):
    defaults = dict(dims=(6, 6, 4), node_count=6, episode_length=30, rng_seed=4,
                    auv=AuvSpec(hotel_load_w=500.0))
    defaults.update(kwargs)
    return EnvConfig(**defaults)


BASE_LEARN = dict(learning_rate=0.75, discount=0.9, epsilon_start=1.0, epsilon_decay=0.95,
                  epsilon_min=0.05, episodes=40, seed=7, randomize_start=True)
DIFFERENTIAL_CASES = {
    "boundary-clamps": (small_env(dims=(3, 3, 2), node_count=3, auv_start_xy=(0, 0)), {}),
    "battery-depletion": (
        small_env(auv=AuvSpec(hotel_load_w=500.0, battery_capacity_j=9000.0,
                              battery_level_j=9000.0)), {}),
    "stores-fill": (small_env(node_store_capacity_j=1e-8), {}),
    "split-0": (small_env(node_harvest=HarvestSpec(split_ratio=0.0)), {}),
    "split-1": (small_env(node_harvest=HarvestSpec(split_ratio=1.0)), {}),
    "epsilon-0": (small_env(), dict(epsilon_start=0.0, epsilon_min=0.0)),
    "epsilon-1": (small_env(), dict(epsilon_decay=1.0, epsilon_min=1.0)),
    "optimistic-init": (small_env(), dict(optimistic_init=2.5)),
}


def env_state(env):
    return (env.auv_pos, env.store_level_j, env.buffer_bits, env.auv_battery_j,
            env.relay_buffer_bits, env.total_relayed_bits, env.total_collected_bits,
            env.step_index, env.done)


@pytest.mark.parametrize("algo", [Algorithm.Q_LEARNING, Algorithm.SARSA])
@pytest.mark.parametrize("case", list(DIFFERENTIAL_CASES))
def test_train_matches_reference_loop(case, algo):
    env_cfg, learn_kwargs = DIFFERENTIAL_CASES[case]
    learn = LearnConfig(**{**BASE_LEARN, **learn_kwargs})
    env = deploy(env_cfg)
    reference_env = deploy(env_cfg)
    q, trace = train(env, algo, learn)
    reference_q, reference_trace = reference_train(reference_env, algo, learn)

    assert [(m.steps, m.total_reward) for m in trace] == reference_trace
    assert {id_to_key(s, env.dims): row for s, row in q._table.items()} == reference_q._table
    assert env_state(env) == env_state(reference_env)
    # Each case reaches the branch it is named after.
    if case == "battery-depletion":
        assert min(steps for steps, _ in reference_trace) < env_cfg.episode_length
    if case == "stores-fill":
        assert env_cfg.node_store_capacity_j in env.store_level_j


def test_train_rejects_random_baseline():
    transitions, rewards, _ = chain_mdp(seed=2)
    env = TabularMdpEnv(transitions, rewards, episode_length=20, seed=1)
    with pytest.raises(ValueError, match="random_rollout"):
        train(env, Algorithm.RANDOM, cfg(episodes=20))


def test_train_is_reproducible():
    transitions, rewards, _ = chain_mdp(seed=4)

    def run():
        env = TabularMdpEnv(transitions, rewards, episode_length=25, seed=3)
        q, trace = train(env, Algorithm.Q_LEARNING, cfg(episodes=40, seed=77))
        return [m.total_reward for m in trace], {
            s: list(q.values(s)) for s in range(6)
        }

    assert run() == run()


def test_epsilon_schedule():
    # eps(t) = max(eps_min, eps0 * decay^t), decayed once per episodeplus
    # exercised through the uniform branch: with eps pinned to eps_min the
    # table still converges; here we just validate the arithmetic.
    learn = cfg(epsilon_start=1.0, epsilon_decay=0.9, epsilon_min=0.5)
    eps = learn.epsilon_start
    seen = []
    for _ in range(10):
        seen.append(eps)
        eps = max(learn.epsilon_min, eps * learn.epsilon_decay)
    assert seen[:4] == pytest.approx([1.0, 0.9, 0.81, 0.729])
    assert seen[-1] == 0.5


# ---------------------------------------------------------------------------
# corridor environment: learned policy equals the shortest path


def corridor_env():
    config = EnvConfig(
        dims=(3, 1, 1),
        node_count=1,
        rng_seed=0,
        auv_start_xy=(0, 0),
        auv_start_z=0,
        episode_length=12,
    )
    env = deploy(config)
    env.node_pos = np.asarray([[3.0, 0.0, 1.0]])
    env._link_cache.clear()
    env.reset()
    return env


def test_corridor_policy_reaches_node_in_minimum_steps():
    env = corridor_env()
    learn = LearnConfig(learning_rate=0.9, discount=0.9, epsilon_start=1.0,
                        epsilon_decay=0.995, epsilon_min=0.05, episodes=500,
                        seed=1, randomize_start=False)
    q, _ = train(env, Algorithm.Q_LEARNING, learn)
    metrics, trajectory = greedy_rollout(env, q)
    first_covered = next(
        i for i, t in enumerate(metrics.step_throughput_bits) if t > 0
    )
    # BFS oracle: the node at (3, 0, 1) is covered only from directly above,
    # so the shortest route from (0, 0, 0) is 3 unit moves.
    assert first_covered == 3 - 1  # relay lags collection by zero steps here
    assert trajectory[2] == (3, 0, 0)


def test_greedy_rollout_default_table_drifts_plus_x():
    env = deploy(EnvConfig(dims=(4, 4, 4), node_count=1, rng_seed=2,
                           auv_start_xy=(0, 0), episode_length=10))
    metrics, trajectory = greedy_rollout(env, QTable())
    assert len(trajectory) <= 10
    assert trajectory[:4] == [(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]
    assert all(p == (4, 0, 0) for p in trajectory[4:])


def test_rollout_trajectory_bounded_by_episode_length():
    env = deploy(EnvConfig(dims=(5, 5, 5), node_count=3, rng_seed=3,
                           episode_length=25))
    _, trajectory = greedy_rollout(env, QTable())
    assert len(trajectory) <= 25
    _, rnd_traj = random_rollout(env, np.random.default_rng(0))
    assert len(rnd_traj) <= 25


def test_learn_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        LearnConfig(discount=0.0)
    with pytest.raises(ValueError):
        LearnConfig(epsilon_min=0.5, epsilon_start=0.1)
    with pytest.raises(ValueError):
        LearnConfig(episodes=0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="optimistic_init"):
            LearnConfig(optimistic_init=value)


def test_qtable_of_state_ids_saves_state_keys_and_loads_for_its_box(tmp_path):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    q, _ = train(env, Algorithm.SARSA, cfg(episodes=5, randomize_start=True))
    path = tmp_path / "table.json"
    q.save(path)
    entries = json.loads(path.read_text())["entries"]
    keys = [tuple(key) for key, _ in entries]
    assert keys == sorted(keys) and len(keys) == len(q)
    assert keys == [tuple(id_to_key(s, env.dims)) for s in sorted(q._table)]
    loaded = QTable.load(path, dims=env.dims)
    assert loaded._table == q._table
    assert greedy_rollout(env, loaded)[1] == greedy_rollout(env, q)[1]
    with pytest.raises(ValueError, match="dims=env.dims"):
        greedy_rollout(env, QTable.load(path))
    with pytest.raises(ValueError, match="state key"):
        QTable.load(path, dims=(2, 2, 2))


def test_train_rejects_nonfinite_reward():
    transitions, rewards, _ = chain_mdp(seed=2)
    rewards[:, :] = float("inf")
    env = TabularMdpEnv(transitions, rewards, episode_length=5, seed=1)
    with pytest.raises(ValueError, match="finite"):
        train(env, Algorithm.Q_LEARNING, cfg(episodes=1))


def test_qtable_save_load_round_trip(tmp_path):
    q = QTable(n_actions=6, default_value=0.0)
    q.set((1, 2, 3, 0, 0, 1), 2, 4.5)
    q.set((0, 0, 0, 0, 0, 0), 0, -1.25)
    path = tmp_path / "table.json"
    q.save(path)
    loaded = QTable.load(path)
    assert loaded.n_actions == 6
    assert loaded.get((1, 2, 3, 0, 0, 1), 2) == 4.5
    assert loaded.get((0, 0, 0, 0, 0, 0), 0) == -1.25
    assert loaded.get((9, 9, 9, 0, 0, 0), 5) == 0.0


def test_qtable_load_rejects_bad_rows(tmp_path):
    q = QTable(n_actions=6)
    q.set((1, 2, 3, 0, 0, 1), 2, 4.5)
    path = tmp_path / "table.json"
    q.save(path)
    good = json.loads(path.read_text())
    short = json.loads(path.read_text())
    short["entries"][0][1] = short["entries"][0][1][:5]
    path.write_text(json.dumps(short))
    with pytest.raises(ValueError, match="has 5 values"):
        QTable.load(path)
    for bad in (float("nan"), float("inf")):
        doc = json.loads(json.dumps(good))
        doc["entries"][0][1][3] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="non-finite"):
            QTable.load(path)


def test_qtable_rejects_nonfinite():
    with pytest.raises(ValueError):
        QTable().set("s", 0, float("nan"))
