"""Acceptance suite.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line. The
campaign-backed checks (2, 3, 4, 5) share one module-scoped campaign run
of the desk-scale configuration; everything is seeded, so the suite is
deterministic end to end. The same run's seven CSVs are also compared
with the ones committed under ``tests/golden/desk_campaign/`` and, on the
pinned Python / numpy pair, with the ``reference`` digests of
``bench/pins.json``.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from aquaswipt.agents import (
    Algorithm,
    LearnConfig,
    train,
)
from aquaswipt.auv import AuvSpec, drag_force, move_energy, propulsion_power
from aquaswipt.campaign import (
    DATASET_FILES,
    CampaignConfig,
    desk_campaign_config,
    run_campaign,
)
from aquaswipt.channel import (
    ChannelParams,
    ModemSpec,
    noise_level_db,
    noise_psd_db,
    source_level,
    thorp_absorption,
    transmission_loss_db,
)
from aquaswipt.coverage import (
    ConeGeometry,
    clipped_cone_volume_mc,
    coverage_sweep,
    coverage_tail,
)
from aquaswipt.env3d import EnvConfig, deploy
from aquaswipt.harvest import HarvestSpec, harvestable_power, induced_voltage
from mdp_oracle import TabularMdpEnv, value_iteration_oracle
from reference_loop import covered
from test_pinned_outputs import GOLDEN, _sha256, _skip_off_pinned_pair, csv_mismatches

mp.mp.dps = 50


VERDICTS: list[str] = []


@contextmanager
def criterion(number, name):
    # Immediate print for -s runs; the conftest summary hook re-emits the
    # collected verdicts past pytest's capture for piped runs.
    try:
        yield
    except BaseException as exc:
        line = f"ACCEPTANCE {number} {name}: FAIL ({type(exc).__name__})"
        VERDICTS.append(line)
        print(line, flush=True)
        raise
    line = f"ACCEPTANCE {number} {name}: PASS"
    VERDICTS.append(line)
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Shared campaign run (criteria 2-5)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    config = desk_campaign_config(output_dir=str(out))
    t0 = time.monotonic()
    result = run_campaign(config)
    elapsed = time.monotonic() - t0
    return config, result, out, elapsed


def bootstrap_ci(values, seed, resamples=10_000):
    rng = np.random.default_rng(seed)
    values = np.asarray(values)
    means = rng.choice(values, size=(resamples, len(values)), replace=True).mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


def runs_of(result, algorithm, node_count):
    return [r for r in result.raw_cells
            if r.kind == "main" and r.algorithm == algorithm
            and r.node_count == node_count]


# ---------------------------------------------------------------------------
# 1. Coverage claims


def test_criterion_1_coverage_claims():
    with criterion(1, "coverage-claims"):
        t0 = time.monotonic()
        dims, angle = (100, 100, 50), 60.0  # EnvConfig()'s table-scale box and cone
        assert (EnvConfig().dims, EnvConfig().auv.cone_apex_angle_deg) == (dims, angle)
        starts = [(50.0, 50.0), (25.0, 25.0), (0.0, 0.0)]
        trials = 2500
        rows = coverage_sweep(dims, angle, n_values=[10, 25, 50], start_grid=starts,
                              trials=trials, k_values=(1, 2, 4),
                              volume_samples=300_000, seed=7)
        l, w, h = (float(d) for d in dims)
        cube = l * w * h
        for si, (sx, sy) in enumerate(starts):
            geom = ConeGeometry(apex=(sx, sy, 0.0), apex_angle_deg=angle, height_m=h)
            vol, vol_err = clipped_cone_volume_mc(geom, (l, w, h), 300_000,
                                                  seed=7 * 7919 + si)
            p, sigma_p = vol / cube, vol_err / cube
            for row in rows:
                if (row.start_x, row.start_y) != (sx, sy):
                    continue
                # Standard error under the analytic model, plus the
                # propagated uncertainty of the clipped-volume estimate.
                se_trials = math.sqrt(row.p_analytic * (1 - row.p_analytic) / trials)
                d_tail = (coverage_tail(row.n, min(1.0, p + sigma_p), row.k)
                          - coverage_tail(row.n, max(0.0, p - sigma_p), row.k)) / 2.0
                se = math.sqrt(se_trials**2 + d_tail**2)
                assert abs(row.p_analytic - row.p_empirical) <= 3.0 * max(se, 1e-9), row
        central = {(r.n, r.k): r for r in rows if (r.start_x, r.start_y) == (50.0, 50.0)}
        assert central[(10, 1)].p_analytic > 0.5
        assert central[(10, 1)].p_empirical > 0.5
        assert central[(50, 4)].p_analytic > 0.5
        assert central[(50, 4)].p_empirical > 0.5
        assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. Algorithm ordering


def test_criterion_2_algorithm_ordering(campaign):
    config, result, _, elapsed = campaign
    with criterion(2, "algorithm-ordering"):
        assert config.mc_runs >= 20
        assert tuple(config.node_counts) == (10, 25, 50)
        for node_count in config.node_counts:
            random_tp = [r.throughput_bits for r in runs_of(result, "random", node_count)]
            _, random_hi = bootstrap_ci(random_tp, seed=node_count)
            for algorithm in ("q_learning", "sarsa"):
                learned_tp = [r.throughput_bits
                              for r in runs_of(result, algorithm, node_count)]
                learned_lo, _ = bootstrap_ci(learned_tp, seed=1000 + node_count)
                assert np.mean(learned_tp) > np.mean(random_tp)
                assert learned_lo > random_hi, (algorithm, node_count)
        assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 3. Energy-efficiency gain


def test_criterion_3_energy_efficiency_gain(campaign):
    config, result, out, _ = campaign
    with criterion(3, "energy-efficiency-gain"):
        ee_rows = result.datasets["fig_ee.csv"]
        ratios = [e.ee_ratio_vs_random for e in ee_rows if e.ee_ratio_vs_random is not None]
        assert ratios, "no learned/random EE ratios available"
        assert max(ratios) >= 2.0
        # Monotone ordering: learned beats random at every network size.
        ee = {(e.algorithm, e.node_count): e.ee_mean_bits_per_j for e in ee_rows}
        for node_count in config.node_counts:
            for algorithm in ("q_learning", "sarsa"):
                assert ee[(algorithm, node_count)] > ee[("random", node_count)]
        # The full ratio table is emitted.
        table = (out / "fig_ee.csv").read_text().strip().splitlines()
        assert table[0].split(",")[-1] == "ee_ratio_vs_random"
        assert len(table) - 1 == len(config.algorithms) * len(config.node_counts)


# ---------------------------------------------------------------------------
# 4. Actions to target


def test_criterion_4_actions_to_target(campaign):
    config, result, _, _ = campaign
    with criterion(4, "actions-to-target"):
        # Each group's rows of both datasets, in target order.
        cells = {}
        for name in ("fig_actions_throughput.csv", "fig_actions_harvest.csv"):
            for row in result.datasets[name]:
                cells.setdefault((row.algorithm, row.node_count, name), []).append(row)
        # Learned policies need fewer actions wherever the random baseline
        # has a defined mean.
        for node_count in config.node_counts:
            for name in ("fig_actions_throughput.csv", "fig_actions_harvest.csv"):
                random_rows = cells[("random", node_count, name)]
                for ti, random_row in enumerate(random_rows):
                    if random_row.mean_actions is None:
                        continue
                    for algorithm in ("q_learning", "sarsa"):
                        learned_row = cells[(algorithm, node_count, name)][ti]
                        assert learned_row.mean_actions is not None
                        assert learned_row.mean_actions < random_row.mean_actions, (
                            algorithm, node_count, name, random_row[2])
        # At the densest network, every learned run reaches the highest
        # target of both quantities while the baseline strands at least one.
        for name in ("fig_actions_throughput.csv", "fig_actions_harvest.csv"):
            random_top = cells[("random", 50, name)][-1]
            assert random_top.reached_runs < random_top.total_runs
            for algorithm in ("q_learning", "sarsa"):
                top = cells[(algorithm, 50, name)][-1]
                assert top.reached_runs == top.total_runs, (algorithm, name)


# ---------------------------------------------------------------------------
# 5. Gamma sweep


def test_criterion_5_gamma_sweep(campaign):
    config, result, _, _ = campaign
    with criterion(5, "gamma-sweep"):
        assert config.gamma_node_count == 25
        rows = {g.gamma: g for g in result.datasets["fig_gamma.csv"]}
        assert rows[0.5].throughput_term_mean > rows[0.5].harvest_term_mean
        assert rows[0.0].throughput_term_mean == 0.0
        assert rows[1.0].harvest_term_mean == 0.0


# ---------------------------------------------------------------------------
# The full desk campaign against its pinned outputs

DESK_CAMPAIGN_GOLDEN = GOLDEN / "desk_campaign"


def reference_digests() -> dict:
    pins = Path(__file__).resolve().parents[1] / "bench" / "pins.json"
    return json.loads(pins.read_text())["reference"]["digests"]


def test_full_desk_campaign_csvs_match_golden_files(campaign):
    _, _, out, _ = campaign
    # The committed files are the pinned reference run, byte for byte.
    assert {name: _sha256(DESK_CAMPAIGN_GOLDEN / name)
            for name in DATASET_FILES} == reference_digests()
    problems = [m for name in DATASET_FILES
                for m in csv_mismatches(name, (DESK_CAMPAIGN_GOLDEN / name).read_text(),
                                        (out / name).read_text())]
    assert not problems, "\n".join(problems)


def test_full_desk_campaign_csvs_match_reference_digests(campaign):
    _skip_off_pinned_pair()
    _, _, out, _ = campaign
    assert {name: _sha256(out / name) for name in DATASET_FILES} == reference_digests()


# ---------------------------------------------------------------------------
# 6. RL correctness oracle


def toy_mdp(seed, n_states, gap=0.1, discount=0.8):
    rng = np.random.default_rng(seed)
    transitions = rng.integers(0, n_states, size=(n_states, 3))
    while True:
        rewards = np.round(rng.uniform(0.0, 1.0, size=(n_states, 3)), 2)
        q_star = value_iteration_oracle(transitions, rewards, discount=discount,
                                        tol=1e-12)
        gaps = np.sort(q_star, axis=1)
        if np.all(gaps[:, -1] - gaps[:, -2] > gap):
            return transitions, rewards, q_star


def test_criterion_6_rl_correctness_oracle():
    with criterion(6, "rl-correctness-oracle"):
        t0 = time.monotonic()
        for seed, n_states in ((12, 10), (40, 10), (21, 6)):
            transitions, rewards, q_star = toy_mdp(seed, n_states)
            env = TabularMdpEnv(transitions, rewards, episode_length=40, seed=5)
            learn = LearnConfig(learning_rate=1.0, discount=0.8, epsilon_start=1.0,
                                epsilon_decay=1.0, epsilon_min=1.0, episodes=1500,
                                seed=9, randomize_start=True)
            q, _ = train(env, Algorithm.Q_LEARNING, learn)
            learned = np.array(
                [[q.get(s, a) for a in range(3)] for s in range(n_states)]
            )
            assert np.max(np.abs(learned - q_star)) < 1e-3, seed
            assert np.array_equal(np.argmax(learned, axis=1),
                                  np.argmax(q_star, axis=1)), seed
        for seed in (21, 22, 23):
            transitions, rewards, q_star = toy_mdp(seed, 6)
            env = TabularMdpEnv(transitions, rewards, episode_length=40, seed=6)
            learn = LearnConfig(learning_rate=0.2, discount=0.8, epsilon_start=1.0,
                                epsilon_decay=0.995, epsilon_min=0.001,
                                episodes=2000, seed=10, randomize_start=True)
            q, _ = train(env, Algorithm.SARSA, learn)
            learned = np.array([[q.get(s, a) for a in range(3)] for s in range(6)])
            assert np.array_equal(np.argmax(learned, axis=1),
                                  np.argmax(q_star, axis=1)), seed
        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 7. Physics unit suite vs 50-digit evaluations


def mp_thorp(f):
    f2 = f * f
    return (mp.mpf("0.11") * f2 / (1 + f2) + 44 * f2 / (4100 + f2)
            + mp.mpf("2.75e-4") * f2 + mp.mpf("0.003"))


def rel_err(value, reference):
    return abs(mp.mpf(repr(value)) - reference) / max(abs(reference), mp.mpf("1e-300"))


def test_criterion_7_physics_unit_suite():
    with criterion(7, "physics-unit-suite"):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            f = float(rng.uniform(0.5, 100.0))
            fm = mp.mpf(repr(f))
            assert rel_err(thorp_absorption(f), mp_thorp(fm)) < 1e-9

            r = float(rng.uniform(1.0, 8000.0))
            k = float(rng.uniform(1.0, 2.0))
            params = ChannelParams(frequency_khz=f, spreading_factor_k=k)
            tl_ref = mp.mpf(repr(k)) * 10 * mp.log10(mp.mpf(repr(r))) \
                + mp.mpf(repr(r)) / 1000 * mp_thorp(fm)
            assert rel_err(transmission_loss_db(r, params), tl_ref) < 1e-9

            w = float(rng.uniform(0.0, 20.0))
            s = float(rng.uniform(0.0, 1.0))
            noisy = ChannelParams(frequency_khz=f, wind_speed_mps=w, shipping_factor=s)
            comp = noise_psd_db(f, noisy)
            wm, sm = mp.mpf(repr(w)), mp.mpf(repr(s))
            nt = 17 - 30 * mp.log10(fm)
            ns = 30 + 20 * sm + 26 * mp.log10(fm) - 60 * mp.log10(fm + mp.mpf("0.03"))
            nw = (50 + mp.mpf("7.5") * mp.sqrt(wm) + 20 * mp.log10(fm)
                  - 40 * mp.log10(fm + mp.mpf("0.4")))
            nth = -15 + 20 * mp.log10(fm)
            total = 10 * mp.log10(10**(nt / 10) + 10**(ns / 10)
                                  + 10**(nw / 10) + 10**(nth / 10))
            for got, ref in [(comp.turbulence_db, nt), (comp.shipping_db, ns),
                             (comp.waves_db, nw), (comp.thermal_db, nth),
                             (comp.total_db, total)]:
                assert rel_err(got, ref) < 1e-9

            p_elec = float(rng.uniform(0.5, 5000.0))
            eff = float(rng.uniform(0.05, 1.0))
            di = float(rng.uniform(0.0, 25.0))
            modem = ModemSpec(electrical_power_w=p_elec, ea_efficiency=eff,
                              directivity_index_db=di)
            sl_ref = (mp.mpf("170.8") + 10 * mp.log10(mp.mpf(repr(p_elec)))
                      + 10 * mp.log10(mp.mpf(repr(eff))) + mp.mpf(repr(di)))
            assert rel_err(source_level(modem), sl_ref) < 1e-9

            snr = float(rng.uniform(-40.0, 120.0))
            rho = float(rng.uniform(-180.0, -40.0))
            n_el = int(rng.integers(1, 9))
            rp = float(rng.uniform(5.0, 400.0))
            ae = float(rng.uniform(0.05, 1.0))
            hspec = HarvestSpec(sensitivity_db=rho, load_resistance_ohm=rp,
                                array_elements=n_el, ae_efficiency=ae)
            snr_m, rho_m = mp.mpf(repr(snr)), mp.mpf(repr(rho))
            vind_ref = 10**(snr_m / 20) * 10**(rho_m / 20)
            assert rel_err(induced_voltage(snr, hspec), vind_ref) < 1e-9
            power_ref = (n_el * mp.mpf(repr(ae)) * 10**((snr_m + rho_m) / 10)
                         / (4 * mp.mpf(repr(rp))))
            assert rel_err(harvestable_power(snr, hspec), power_ref) < 1e-9
            # Intensity form vs induced-voltage form, float against float.
            v = induced_voltage(snr, hspec)
            via_voltage = n_el * ae * v * v / (4.0 * rp)
            assert harvestable_power(snr, hspec) == pytest.approx(via_voltage, rel=1e-12)

            cd = float(rng.uniform(0.1, 2.0))
            area = float(rng.uniform(0.05, 3.0))
            rho_w = float(rng.uniform(950.0, 1060.0))
            beta = float(rng.uniform(0.2, 1.0))
            v_auv = float(rng.uniform(0.2, 6.0))
            hotel = float(rng.uniform(0.0, 500.0))
            spec = AuvSpec(drag_coefficient=cd, frontal_area_m2=area,
                           water_density_kgm3=rho_w, motor_efficiency=beta,
                           speed_mps=v_auv, hotel_load_w=hotel)
            cdm, am, rm_, bm, vm = (mp.mpf(repr(x)) for x in (cd, area, rho_w, beta, v_auv))
            drag_ref = cdm * am * rm_ * vm**2 / (2 * bm)
            prop_ref = cdm * am * rm_ * vm**3 / (2 * bm)
            assert rel_err(drag_force(spec), drag_ref) < 1e-9
            assert rel_err(propulsion_power(spec), prop_ref) < 1e-9
            dist = float(rng.uniform(0.1, 60.0))
            energy_ref = (prop_ref + mp.mpf(repr(hotel))) * mp.mpf(repr(dist)) / vm
            got = move_energy(spec, (0.0, 0.0, 0.0), (dist, 0.0, 0.0))
            assert rel_err(got, energy_ref) < 1e-9


# ---------------------------------------------------------------------------
# 8. Conservation and determinism


def fuzz_env_config(rng):
    dims = tuple(int(v) for v in rng.integers(3, 9, size=3))
    return EnvConfig(
        dims=dims,
        node_count=int(rng.integers(1, 12)),
        episode_length=int(rng.integers(5, 40)),
        step_duration_s=float(rng.uniform(0.25, 2.0)),
        rng_seed=int(rng.integers(0, 2**31)),
        reward_gamma=float(rng.uniform(0.0, 1.0)),
        node_harvest=HarvestSpec(split_ratio=float(rng.uniform(0.0, 1.0))),
        node_buffer_bits=float(rng.uniform(0.0, 5e5)),
        node_store_capacity_j=float(rng.uniform(1e-6, 10.0)),
    )


def downlink_power_w(env, i):
    """Harvestable power reaching node ``i`` from the AUV, from the link models."""
    cfg = env.config
    auv_modem = cfg.auv_modem if cfg.auv_modem is not None else cfg.node_modem
    rng_m = max(1.0, math.dist(env.node_pos[i].tolist(), env.auv_pos))
    snr = (source_level(auv_modem) - transmission_loss_db(rng_m, cfg.channel)
           - noise_level_db(cfg.channel))
    return harvestable_power(snr, cfg.node_harvest)


def test_criterion_8_conservation_and_determinism(tmp_path):
    with criterion(8, "conservation-and-determinism"):
        rng = np.random.default_rng(99)
        steps_done = 0
        while steps_done < 100_000:
            env = deploy(fuzz_env_config(rng))
            split = env.config.node_harvest.split_ratio
            dt = env.config.step_duration_s
            eff = env.config.node_store_charge_efficiency
            node_buffer_bits = env.config.node_buffer_bits
            initial_buffer_bits = node_buffer_bits * len(env.node_pos)
            env.reset(randomize_start=bool(rng.integers(2)))
            battery_before = env.auv_battery_j
            relayed = 0.0
            done = False
            while not done:
                levels = list(env.store_level_j)
                _, _, done = env.step(int(rng.integers(6)))
                covered_nodes = covered(env)
                steps_done += 1
                harvested = 0.0
                for i, before in enumerate(levels):
                    gained = env.store_level_j[i] - before
                    harvested += gained
                    if i in covered_nodes:
                        cap = (1.0 - split) * downlink_power_w(env, i) * dt * eff
                        assert -1e-15 <= gained <= cap * (1 + 1e-9) + 1e-15
                    else:
                        assert gained == 0.0
                assert harvested == pytest.approx(env.last_terms[3], rel=1e-9, abs=1e-12)
                # Every bit the node buffers gave up was relayed or waits in
                # the relay buffer, up to float accumulation drift.
                relayed += env.last_terms[2]
                collected = math.fsum(node_buffer_bits - bits for bits in env.buffer_bits)
                slack = 1e-9 * max(1.0, collected)
                assert relayed <= collected + slack
                assert collected <= initial_buffer_bits + slack
                assert abs(relayed + env.relay_buffer_bits - collected) <= slack
                x, y, z = env.auv_pos
                dims = env.config.dims
                assert 0 <= x <= dims[0] and 0 <= y <= dims[1] and 0 <= z <= dims[2]
                assert env.auv_battery_j <= battery_before
                battery_before = env.auv_battery_j
        # Byte-identical campaign outputs for identical (config, seed).
        def tiny(outdir):
            env_cfg = EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8,
                                rng_seed=5, auv=AuvSpec(hotel_load_w=500.0))
            learn = LearnConfig(episodes=4, epsilon_decay=0.9, discount=0.9,
                                randomize_start=False)
            return CampaignConfig(
                env=env_cfg, learn=learn, algorithms=("q_learning", "random"),
                node_counts=(4,), gamma_sweep=(0.0, 1.0), mc_runs=2,
                output_dir=str(outdir), coverage_n_values=(4,),
                coverage_starts=((3.0, 3.0),), coverage_trials=100,
                coverage_k_values=(1,), coverage_volume_samples=1000,
            )

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_campaign(tiny(out_a))
        run_campaign(tiny(out_b))
        names = [p.name for p in sorted(out_a.iterdir()) if p.suffix == ".csv"]
        assert names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
