"""Agent tests: the reference selection and updates, the trainer against
the reference loop, training loops, rollouts, and the value-iteration
oracle on hand-solvable MDPs."""

import contextlib
import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from aquaswipt.agents import (
    _RAW_BLOCK,
    _SAVE_CHUNK,
    Algorithm,
    LearnConfig,
    QTable,
    _epsilon_bound,
    _pcg64_draws,
    greedy_rollout,
    random_rollout,
    train,
)
from aquaswipt.auv import AuvSpec
from aquaswipt.campaign import desk_campaign_config
from aquaswipt.env3d import EnvConfig, deploy, id_to_key, key_to_id
from aquaswipt.harvest import HarvestSpec
from mdp_oracle import TabularMdpEnv, value_iteration_oracle
from reference_loop import (
    q_update,
    reference_qtable_json,
    reference_train,
    sarsa_update,
    select_action,
)


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
    before_s = [q.get("s", a) for a in range(q.n_actions)]
    before_t = [q.get("t", a) for a in range(q.n_actions)]
    q_update(q, "s", 2, 3.0, "t", cfg())
    after_s = [q.get("s", a) for a in range(q.n_actions)]
    assert after_s[2] != before_s[2]
    after_s[2] = before_s[2]
    assert after_s == before_s
    assert [q.get("t", a) for a in range(q.n_actions)] == before_t


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
# the trainer's draws from raw PCG64 words against numpy's Generator


def assert_draws_match(seed_or_state, calls):
    """Make ``calls`` (None for ``uniform()``, n for ``integers(n)``) on the
    helper and on ``np.random.Generator``, both on PCG64 ``seed_or_state``,
    and require the same numbers. ``uniform()`` is ``Generator.random()``
    worked out from the helper's ``next_word()``."""
    def bit_generator():
        if isinstance(seed_or_state, dict):
            bits = np.random.PCG64()
            bits.state = seed_or_state
            return bits
        return np.random.PCG64(seed_or_state)

    next_word, integers = _pcg64_draws(bit_generator())

    def uniform():
        return (next_word() >> 11) * 2.0**-53

    generator = np.random.Generator(bit_generator())
    got = [uniform() if n is None else integers(n) for n in calls]
    want = [generator.random() if n is None else int(generator.integers(n)) for n in calls]
    assert got == want


def test_pcg64_draws_match_generator_on_interleavings():
    # 2,500 calls take more than one block of words, so each sequence
    # crosses a refill at some point of the interleaving.
    sizes = [1, 2, 3, 6, 7]
    for seed in range(120):
        plan = np.random.default_rng([seed, 1])
        kinds = plan.integers(len(sizes) + 3, size=2_500).tolist()
        assert_draws_match(seed, [sizes[k] if k < len(sizes) else None for k in kinds])


@pytest.mark.parametrize("words_before", [_RAW_BLOCK - 2, _RAW_BLOCK - 1, _RAW_BLOCK])
@pytest.mark.parametrize("words_between", [1, 2 * _RAW_BLOCK + 5])
def test_pcg64_draws_keep_pending_half_word_across_refills(words_before, words_between):
    # integers(6) takes the low half of the word after ``words_before``
    # uniforms; the uniforms after it cross one or more block refills, and
    # the next integers(6) must still take that word's high half.
    calls = [None] * words_before + [6] + [None] * words_between + [6, 6, None, 6]
    for seed in range(3):
        assert_draws_match(seed, calls)


def rotl64(value, shift):
    return ((value << shift) | (value >> (64 - shift))) & (2**64 - 1)


def test_pcg64_draws_take_lemire_rejection_branch_like_numpy():
    # A PCG64 state whose next word is 0xDEADBEEF00000000: its low half
    # gives the product 0 * 6, below numpy's threshold (2**32 - 6) % 6 = 4,
    # so integers(6) rejects it and uses the high half. Random seeds reach
    # this branch with probability 4 / 2**32.
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    inc = np.random.PCG64(0).state["state"]["inc"]
    hi = 0x9E3779B97F4A7C15
    lo = hi ^ rotl64(0xDEADBEEF00000000, hi >> 58)
    state = ((hi << 64 | lo) - inc) * pow(multiplier, -1, 2**128) % 2**128
    doc = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
           "has_uint32": 0, "uinteger": 0}
    bits = np.random.PCG64()
    bits.state = doc
    assert int(bits.random_raw()) == 0xDEADBEEF00000000
    bits.state = doc
    assert int(np.random.Generator(bits).integers(6)) == 0xDEADBEEF * 6 >> 32 == 5
    assert_draws_match(doc, [6, None, 6, 7])


def epsilon_cases():
    """Epsilons whose bound is easy to get wrong by one, plus the desk schedule."""
    cases = [1.0, 0.5, 0.01, 0.001, 5e-324]
    for k in (1, 2, 3 * 2**40 + 7, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53):
        eps = k * 2.0**-53
        cases += [eps, math.nextafter(eps, 0.0), math.nextafter(eps, 2.0)]
    eps = 1.0
    for _ in range(400):  # desk training: decay 0.98 per episode down to 0.01
        cases.append(eps)
        eps = max(0.01, eps * 0.98)
    return sorted({eps for eps in cases if 0.0 < eps <= 1.0})


@pytest.mark.parametrize("seed", [0, 11])
def test_epsilon_bound_matches_generator_random(seed):
    # On one stream per epsilon, the trainer's test of the raw word against
    # the bound decides as Generator.random() < epsilon does.
    for eps in epsilon_cases():
        bound = _epsilon_bound(eps)
        next_word, _ = _pcg64_draws(np.random.PCG64([seed, int(eps * 1e6)]))
        generator = np.random.Generator(np.random.PCG64([seed, int(eps * 1e6)]))
        got = [next_word() < bound for _ in range(3_000)]
        assert got == [generator.random() < eps for _ in range(3_000)], eps


def test_epsilon_bound_at_the_edges_of_a_draw():
    # Random words rarely land next to the bound, so try the words whose
    # top 53 bits are k - 1, k and k + 1 (low 11 bits all 0 and all 1).
    for eps in epsilon_cases():
        bound = _epsilon_bound(eps)
        k = math.ceil(eps * 2.0**53)
        for top in (k - 1, k, k + 1):
            for word in (top << 11, top << 11 | 0x7FF):
                if 0 <= word < 2**64:
                    assert (word < bound) == ((word >> 11) * 2.0**-53 < eps), (eps, word)
    assert _epsilon_bound(0.0) == 0
    assert _epsilon_bound(1.0) == 2**64


def test_train_draws_no_words_at_epsilon_zero(monkeypatch):
    # The trainer calls next_word() once per epsilon test while epsilon > 0
    # and never once it has decayed to 0; integers() draws its own words,
    # which are not counted here.
    counts = []

    def counting_draws(bit_generator):
        next_word, integers = _pcg64_draws(bit_generator)

        def counted():
            counts.append(1)
            return next_word()

        return counted, integers

    monkeypatch.setattr("aquaswipt.agents._pcg64_draws", counting_draws)
    transitions, rewards, _ = chain_mdp(seed=2)
    env = TabularMdpEnv(transitions, rewards, episode_length=20, seed=1)
    train(env, Algorithm.Q_LEARNING, cfg(episodes=5, epsilon_start=0.0, epsilon_min=0.0))
    assert counts == []
    for algo in (Algorithm.Q_LEARNING, Algorithm.SARSA):
        counts.clear()
        env = TabularMdpEnv(transitions, rewards, episode_length=20, seed=1)
        _, trace = train(env, algo, cfg(episodes=5, epsilon_start=0.5, epsilon_decay=0.0,
                                        epsilon_min=0.0))
        # The first episode tests epsilon once per action it picks: one per
        # step, plus SARSA's pick before the first step.
        assert len(counts) == trace[0].steps + (algo is Algorithm.SARSA)


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
        small_env(auv=AuvSpec(hotel_load_w=500.0, battery_level_j=9000.0)), {}),
    "stores-fill": (small_env(node_store_capacity_j=1e-8), {}),
    # A step length and charge efficiency other than 1, so that the offered
    # energy harvest_w * dt * efficiency is rounded as the reference rounds
    # it; a store fills only after several steps of partial charges.
    "dt-efficiency-fill": (small_env(step_duration_s=0.7, node_store_charge_efficiency=0.9,
                                     node_store_capacity_j=1e-7), {}),
    "split-0": (small_env(node_harvest=HarvestSpec(split_ratio=0.0)), {}),
    "split-1": (small_env(node_harvest=HarvestSpec(split_ratio=1.0)), {}),
    "epsilon-0": (small_env(), dict(epsilon_start=0.0, epsilon_min=0.0)),
    "epsilon-1": (small_env(), dict(epsilon_decay=1.0, epsilon_min=1.0)),
    "optimistic-init": (small_env(), dict(optimistic_init=2.5)),
}


def env_state(env):
    return (env.auv_pos, env.store_level_j, env.buffer_bits, env.auv_battery_j,
            env.relay_buffer_bits, env.step_index, env.done)


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
        assert env.terminated
    if case in ("stores-fill", "dt-efficiency-fill"):
        assert env_cfg.node_store_capacity_j in env.store_level_j


@pytest.mark.parametrize("algo", [Algorithm.Q_LEARNING, Algorithm.SARSA])
def test_train_bootstraps_through_truncation_only(algo):
    # One move spends the battery of ``spent``, so its episode terminates
    # at the first step; ``cut``'s one-step episode ends there with charge
    # left. At learning rate 1 the updated value is the target: the reward
    # alone after the terminal step, the reward plus the discounted default
    # after the cut.
    learn = LearnConfig(learning_rate=1.0, discount=0.9, epsilon_start=0.0,
                        epsilon_min=0.0, episodes=1, optimistic_init=5.0,
                        randomize_start=False)
    spent = deploy(small_env(auv=AuvSpec(hotel_load_w=500.0, battery_level_j=1.0)))
    cut = deploy(small_env(episode_length=1))
    for env, terminal in ((spent, True), (cut, False)):
        start = env.state_id()
        q, trace = train(env, algo, learn)
        (episode,) = trace
        assert episode.steps == 1 and env.done and env.terminated is terminal
        target = episode.total_reward if terminal else episode.total_reward + 0.9 * 5.0
        assert q.get(start, 0) == target != 5.0


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
            s: [q.get(s, a) for a in range(q.n_actions)] for s in range(6)
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
# the collector pause: train restores the collector's state, and its loop
# makes no reference cycles, which is what makes the pause safe


@pytest.fixture
def collector_state():
    """Puts the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled, raises", [(True, False), (False, False), (True, True)])
def test_train_leaves_the_collector_as_it_found_it(collector_state, enabled, raises):
    transitions, rewards, _ = chain_mdp(seed=2)
    if raises:
        rewards[:, :] = float("nan")  # train raises at its first update
    env = TabularMdpEnv(transitions, rewards, episode_length=10, seed=1)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with pytest.raises(ValueError, match="finite") if raises else contextlib.nullcontext():
        train(env, Algorithm.Q_LEARNING, cfg(episodes=5))
    assert gc.isenabled() is enabled


DESK = desk_campaign_config()
PAPER_BOX = EnvConfig(dims=(100, 100, 50), node_count=50, rng_seed=0)


@pytest.mark.parametrize("env_cfg, learn, algo", [
    pytest.param(DESK.env, DESK.learn, Algorithm.Q_LEARNING, id="desk-q_learning"),
    pytest.param(DESK.env, DESK.learn, Algorithm.SARSA, id="desk-sarsa"),
    pytest.param(PAPER_BOX, LearnConfig(episodes=20, randomize_start=True),
                 Algorithm.Q_LEARNING, id="paper-box-random-starts"),
])
def test_train_makes_no_reference_cycles(collector_state, env_cfg, learn, algo):
    env = deploy(env_cfg)
    gc.disable()
    gc.collect()
    train(env, algo, learn)
    assert gc.collect() == 0


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
    env.place_nodes([[3.0, 0.0, 1.0]])
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


@pytest.mark.parametrize("n_actions", [3, 7])
def test_greedy_rollout_rejects_table_of_other_action_count(n_actions):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    table = QTable(n_actions=n_actions, dims=env.dims)
    table.set(env.state_id(), n_actions - 1, 1.0)  # greedy picks the last action
    with pytest.raises(ValueError, match=f"the Q-table has {n_actions} actions, "
                                         "the environment 6"):
        greedy_rollout(env, table)


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
    for value in (None, 2.5, True):
        with pytest.raises(ValueError, match="LearnConfig.episodes"):
            LearnConfig(episodes=value)
    for value in (None, 1.0):
        with pytest.raises(ValueError, match="LearnConfig.seed"):
            LearnConfig(seed=value)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        LearnConfig(seed=-1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="optimistic_init"):
            LearnConfig(optimistic_init=value)
    # A non-empty string is true, so "no" would train from random starts.
    for value in ("no", 1, None):
        with pytest.raises(ValueError, match="LearnConfig.randomize_start"):
            LearnConfig(randomize_start=value)


def load_saved(path, dims) -> QTable:
    """The table a ``QTable.save`` file holds, each saved ``StateKey`` list
    decoded to its int state id in the box ``dims`` by ``key_to_id``."""
    with open(path) as fh:
        doc = json.load(fh)
    q = QTable(n_actions=doc["n_actions"], default_value=doc["default_value"], dims=dims)
    q._table = {key_to_id(key, dims): values for key, values in doc["entries"]}
    return q


def test_qtable_of_state_ids_saves_state_keys_and_loads_for_its_box(tmp_path):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    q, _ = train(env, Algorithm.SARSA, cfg(episodes=5, randomize_start=True))
    path = tmp_path / "table.json"
    q.save(path)
    entries = json.loads(path.read_text())["entries"]
    keys = [tuple(key) for key, _ in entries]
    assert keys == sorted(keys) and len(keys) == len(q)
    assert keys == [tuple(id_to_key(s, env.dims)) for s in sorted(q._table)]
    loaded = load_saved(path, env.dims)
    assert loaded._table == q._table
    assert greedy_rollout(env, loaded)[1] == greedy_rollout(env, q)[1]
    # The saved states are states of a larger box too, but not this env's.
    with pytest.raises(ValueError, match=r"not of the environment's \(6, 6, 4\)"):
        greedy_rollout(env, load_saved(path, (7, 7, 5)))
    with pytest.raises(ValueError, match="state key"):
        load_saved(path, (2, 2, 2))


def test_train_rejects_nonfinite_reward():
    transitions, rewards, _ = chain_mdp(seed=2)
    rewards[:, :] = float("inf")
    env = TabularMdpEnv(transitions, rewards, episode_length=5, seed=1)
    with pytest.raises(ValueError, match="finite"):
        train(env, Algorithm.Q_LEARNING, cfg(episodes=1))


def test_qtable_save_load_round_trip(tmp_path):
    dims = (3, 4, 5)
    q = QTable(n_actions=6, default_value=0.0, dims=dims)
    q.set(key_to_id((1, 2, 3, 0, 0, 1), dims), 2, 4.5)
    q.set(key_to_id((0, 0, 0, 0, 0, 0), dims), 0, -1.25)
    path = tmp_path / "table.json"
    q.save(path)
    loaded = load_saved(path, dims)
    assert (loaded.n_actions, loaded.dims) == (6, dims)
    assert loaded.get(key_to_id((1, 2, 3, 0, 0, 1), dims), 2) == 4.5
    assert loaded.get(key_to_id((0, 0, 0, 0, 0, 0), dims), 0) == -1.25
    assert loaded.get(key_to_id((3, 4, 5, 0, 0, 0), dims), 5) == 0.0
    # A table without dims holds opaque keys, which the file cannot name.
    opaque = QTable()
    opaque.set((5,), 0, 1.0)
    with pytest.raises(ValueError, match="without dims cannot be saved"):
        opaque.save(tmp_path / "opaque.json")


def test_qtable_set_refuses_an_id_outside_the_box(tmp_path):
    dims = (2, 2, 2)
    top = key_to_id((*dims, 3, 3, 3), dims)
    q = QTable(n_actions=1, dims=dims)
    # -5 once saved as the key [-1, 2, 2, 3, 2, 3], which is no state of the box.
    for bad in (-5, top + 1, np.int64(top + 1)):
        with pytest.raises(ValueError, match=rf"state id {re.escape(repr(bad))} is not a "
                                             r"state of the 2 x 2 x 2 box \(ids 0\.\.1727\)"):
            q.set(bad, 0, 2.0)
    for bad, kind in ((3.0, "float"), (True, "bool"), (np.bool_(True), "bool"), ("3", "str")):
        with pytest.raises(ValueError, match=rf"state id {re.escape(repr(bad))} is a {kind}, "
                                             r"not an integer"):
            q.set(bad, 0, 2.0)
    assert len(q) == 0
    q.set(0, 0, 1.0)
    q.set(top, 0, 2.0)
    # numpy ids, as id_to_tuple and key_to_id handle them, are stored as ints.
    q.set(np.int64(5), 0, 3.0)
    q.set(np.int64(5), 0, 4.0)
    assert [type(k) for k in q._table] == [int, int, int]
    path = tmp_path / "table.json"
    q.save(path)
    assert load_saved(path, dims)._table == {0: [1.0], top: [2.0], 5: [4.0]}


# The box of the hand-built tables below.
BOX = (9, 8, 7)


def _saved_tables():
    ints = QTable(n_actions=1, dims=BOX)
    for key, value in enumerate((-0.0, 5e-324, 1e16, 1e22, 1.3587972053336933e-07, -1.25)):
        ints.set(key * 7, 0, value)
    # States given as StateKey tuples.
    tuples = QTable(n_actions=3, default_value=-1.25, dims=BOX)
    tuples.set(key_to_id((4, 0, 2, 1, 1, 3), BOX), 1, 1e22)
    tuples.set(key_to_id((0, 8, 7, 0, 0, 0), BOX), 2, -0.0)
    tuples.set(key_to_id((0, 8, 0, 0, 0, 0), BOX), 0, 5e-324)
    # A row as train stores it when the env returns numpy rewards.
    numpy_row = QTable(n_actions=2, dims=BOX)
    numpy_row._table[key_to_id((1, 2, 0, 0, 0, 0), BOX)] = [
        np.float64(1.3587972053336933e-07), 1e16]
    # save writes a value that is the default object with the default's
    # repr: 0.0 equals a -0.0 default but must keep its own repr, and a
    # value equal to the default may be another object.
    negative_zero = QTable(n_actions=3, default_value=-0.0, dims=BOX)
    negative_zero.set(key_to_id((1, 2, 0, 0, 0, 0), BOX), 1, 0.0)
    negative_zero.set(key_to_id((0, 5, 0, 0, 0, 0), BOX), 0, 0.0)
    negative_zero.set(key_to_id((0, 5, 0, 0, 0, 0), BOX), 2, 0.0)
    equal_value = QTable(n_actions=2, default_value=0.5, dims=BOX)
    equal_value.set(key_to_id((3, 1, 0, 0, 0, 0), BOX), 0, float("0.5"))
    assert all(row[0] is not equal_value.default_value
               for row in equal_value._table.values())
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    trained, _ = train(env, Algorithm.Q_LEARNING, cfg(episodes=5, randomize_start=True))
    tables = {"empty": QTable(dims=BOX), "one-action-int-keys": ints, "tuple-keys": tuples,
              "numpy-value": numpy_row, "trained-dims": trained,
              "negative-zero-default": negative_zero, "equal-to-default": equal_value}
    # save formats _SAVE_CHUNK entries at a time: tables of sizes at and
    # around the chunk edges.
    for n_states in (0, 1, _SAVE_CHUNK - 1, _SAVE_CHUNK, _SAVE_CHUNK + 1, 2 * _SAVE_CHUNK + 1):
        tables[f"dims-{n_states}-states"] = _random_dims_table(n_states, seed=n_states)
    # The largest box QTable accepts: its top id, (L + 1)(W + 1)(H + 1) * 64 - 1,
    # is the largest int64.
    int64_edge = QTable(n_actions=1, dims=(2**19 - 1,) * 3)
    int64_edge.set(2**63 - 1, 0, 1.0)
    int64_edge.set(0, 0, 2.0)
    tables["dims-int64-top-id"] = int64_edge
    # Ids up to the largest int64, across a chunk edge.
    wide_ints = QTable(n_actions=1, dims=int64_edge.dims)
    for key in range(_SAVE_CHUNK + 1):
        wide_ints.set(2**63 - 1 - 3 * key, 0, key / 7)
    tables["int-keys-across-chunk"] = wide_ints
    return tables


def _random_dims_table(n_states: int, seed: int) -> QTable:
    dims = BOX
    rng = np.random.default_rng(seed)
    ids = rng.choice(key_to_id((*dims, 3, 3, 3), dims) + 1, size=n_states, replace=False)
    q = QTable(n_actions=6, default_value=-0.5, dims=dims)
    for state_id, action, value in zip(ids.tolist(), rng.integers(6, size=n_states).tolist(),
                                       rng.normal(size=n_states).tolist()):
        q.set(state_id, action, value)
    assert len(q) == n_states
    return q


@pytest.mark.parametrize("name", list(_saved_tables()))
def test_qtable_save_writes_json_dump_bytes(tmp_path, name):
    q = _saved_tables()[name]
    path = tmp_path / "table.json"
    q.save(path)
    assert path.read_text() == reference_qtable_json(q)
    loaded = load_saved(path, q.dims)
    assert (loaded.n_actions, loaded.default_value) == (q.n_actions, q.default_value)
    assert ({k: [repr(float(v)) for v in row] for k, row in loaded._table.items()}
            == {k: [repr(float(v)) for v in row] for k, row in q._table.items()})


def test_qtable_save_decodes_box_corner_ids(tmp_path):
    dims = (5, 7, 3)
    keys = [(x, y, z, code >> 4, (code >> 2) & 3, code & 3)
            for x in (0, 5) for y in (0, 7) for z in (0, 3) for code in (0, 63)]
    q = QTable(n_actions=1, dims=dims)
    for key in keys:
        q.set(key_to_id(key, dims), 0, 1.0)
    path = tmp_path / "table.json"
    q.save(path)
    written = [tuple(key) for key, _ in json.loads(path.read_text())["entries"]]
    assert written == [tuple(id_to_key(s, dims)) for s in sorted(q._table)] == sorted(keys)


@pytest.mark.parametrize("dims, message", [
    # save decodes ids as int64 arrays; dims-int64-top-id above is the
    # largest box it takes.
    ((2**19, 2**19 - 1, 2**19 - 1),
     r"dims \(524288, 524287, 524287\) give state ids beyond int64"),
    ((6.0, 6, 4), r"dims must be three integers >= 0, got \(6.0, 6, 4\)"),
    ((-1, 2, 2), "dims must be three integers"),
    ((2, 2), "dims must be three integers"),
])
def test_qtable_rejects_bad_dims(dims, message):
    with pytest.raises(ValueError, match=message):
        QTable(dims=dims)


@pytest.mark.parametrize("n_actions, message", [
    (6.0, "QTable.n_actions must be of type int, got 6.0"),
    ("6", "QTable.n_actions must be of type int, got '6'"),
    (True, "QTable.n_actions must be of type int, got True"),
    (0, "QTable.n_actions must be >= 1, got 0"),
])
def test_qtable_rejects_bad_n_actions(n_actions, message):
    with pytest.raises(ValueError, match=message):
        QTable(n_actions=n_actions, dims=(2, 2, 2))


def test_qtable_save_streams_entries(tmp_path):
    # The entries go to the file _SAVE_CHUNK at a time. Building the whole
    # text or the whole document first peaks above the file's size: json.dump
    # of the document peaked at 1.35x the 2.2 MB file here, the chunked writer
    # at 0.11x with 128 entries a chunk and 0.18x with 256.
    rng = np.random.default_rng(0)
    q = QTable(dims=(100, 100, 50))
    for state_id, row in zip(range(0, 10_000 * 53, 53), rng.normal(size=(10_000, 6)).tolist()):
        q._table[state_id] = row
    path = tmp_path / "table.json"
    tracemalloc.start()
    try:
        q.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4, (
        f"save peaked at {peak / path.stat().st_size:.3f}x the file's size")


def test_qtable_rejects_nonfinite():
    with pytest.raises(ValueError):
        QTable().set("s", 0, float("nan"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_qtable_rejects_nonfinite_default(bad):
    with pytest.raises(ValueError, match="default_value must be finite"):
        QTable(n_actions=2, default_value=bad)
