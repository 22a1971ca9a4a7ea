"""Campaign runner tests: metrics, orchestration, aggregation, emission."""

import csv
import dataclasses
import json
import random
import re

import numpy as np
import pytest

import aquaswipt.campaign
from aquaswipt.agents import Algorithm, EpisodeMetrics, LearnConfig
from aquaswipt.auv import AuvSpec
from aquaswipt.campaign import (
    DATASET_FILES,
    CampaignConfig,
    _aggregate,
    _build_cell_specs,
    _play_cell,
    _run_cell,
    actions_to_target,
    campaign_config_to_dict,
    desk_campaign_config,
    emit_datasets,
    energy_efficiency,
    run_campaign,
)
from aquaswipt.channel import ChannelParams, ModemSpec
from aquaswipt.checks import config_from_dict
from aquaswipt.env3d import EnvConfig


def tiny_campaign(out_dir, **overrides) -> CampaignConfig:
    env = EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3,
                    auv=AuvSpec(hotel_load_w=500.0))
    learn = LearnConfig(episodes=4, epsilon_decay=0.9, discount=0.9,
                        randomize_start=False)
    defaults = dict(
        env=env,
        learn=learn,
        algorithms=("q_learning", "random"),
        node_counts=(4, 6),
        gamma_sweep=(0.0, 1.0),
        mc_runs=2,
        output_dir=str(out_dir),
        targets_throughput_bits=(1.0,),
        targets_harvest_j=(1e-15,),
        coverage_n_values=(4,),
        coverage_starts=((3.0, 3.0),),
        coverage_trials=100,
        coverage_k_values=(1,),
        coverage_volume_samples=1000,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def read_csvs(out_dir):
    return {name: (out_dir / name).read_bytes() for name in DATASET_FILES}


# ---------------------------------------------------------------------------
# scalar ops


def test_energy_efficiency_zero_throughput():
    assert energy_efficiency(0.0, 50.0) == 0.0
    assert energy_efficiency(0.0, 0.0) == 0.0


def test_energy_efficiency_arithmetic():
    assert energy_efficiency(10_000.0, 50.0) == pytest.approx(200.0)


def test_energy_efficiency_rejects_zero_energy():
    with pytest.raises(ValueError):
        energy_efficiency(100.0, 0.0)


def test_energy_efficiency_homogeneous():
    rng = np.random.default_rng(2)
    for _ in range(50):
        bits = float(rng.uniform(1, 1e6))
        energy = float(rng.uniform(1e-3, 1e5))
        c = float(rng.uniform(0.1, 100.0))
        assert energy_efficiency(c * bits, c * energy) == pytest.approx(
            energy_efficiency(bits, energy), rel=1e-12
        )


def test_actions_to_target_first_step():
    assert actions_to_target([100.0, 0.0, 50.0], 1e-9) == 1


def test_actions_to_target_cumulative():
    assert actions_to_target([100.0, 0.0, 50.0], 120.0) == 3


def test_actions_to_target_not_reached():
    assert actions_to_target([100.0, 0.0, 50.0], 1e9) is None


def test_actions_to_target_harvest_stream():
    m = EpisodeMetrics()
    m.step_harvested_j.extend([0.0, 2.0, 2.0])
    assert actions_to_target(m.step_harvested_j, 3.0) == 3


def test_actions_to_target_validation():
    with pytest.raises(ValueError):
        actions_to_target([1.0], 0.0)


# ---------------------------------------------------------------------------
# config validation


def test_campaign_config_rejects_empty_algorithms(tmp_path):
    with pytest.raises(ValueError):
        tiny_campaign(tmp_path / "out", algorithms=())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"algorithms": ("dqn",)},
        {"node_counts": ()},
        {"node_counts": (0,)},
        {"mc_runs": 0},
        {"gamma_sweep": (1.5,)},
        {"targets_throughput_bits": (0.0,)},
        {"gamma_mc_runs": 0},
    ],
)
def test_campaign_config_validation(tmp_path, overrides):
    with pytest.raises(ValueError):
        tiny_campaign(tmp_path / "out", **overrides)


@pytest.mark.parametrize("name", ["mc_runs", "gamma_node_count", "coverage_trials",
                                  "coverage_volume_samples"])
@pytest.mark.parametrize("value", [None, 2.5, 2000.0, True, "3"])
def test_campaign_config_rejects_int_fields_of_other_types(name, value):
    with pytest.raises(ValueError, match=f"CampaignConfig.{name} must be of type int"):
        CampaignConfig(**{name: value})


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_campaign_config_rejects_gamma_mc_runs_of_other_types(value):
    # None is its default: the gamma cells then take mc_runs.
    assert CampaignConfig(gamma_mc_runs=None).gamma_mc_runs is None
    with pytest.raises(ValueError, match="CampaignConfig.gamma_mc_runs must be of type int"):
        CampaignConfig(gamma_mc_runs=value)


@pytest.mark.parametrize("name", ["node_counts", "coverage_n_values", "coverage_k_values"])
@pytest.mark.parametrize("entry", [None, 2.5, 2.0, True, "3"])
def test_campaign_config_rejects_count_entries_of_other_types(name, entry):
    with pytest.raises(ValueError, match=f"CampaignConfig.{name} entries must be of type int"):
        CampaignConfig(**{name: (10, entry)})


@pytest.mark.parametrize("dims", [(100.0, 100, 50), (True, 2, 2), (2, 2, None)])
def test_campaign_config_rejects_coverage_dims_of_other_types(dims):
    with pytest.raises(ValueError, match="CampaignConfig.coverage_dims entries must be of type int"):
        CampaignConfig(coverage_dims=dims)


@pytest.mark.parametrize("name, value", [
    ("gamma_sweep", (0.5, float("nan"))),
    ("targets_throughput_bits", (float("nan"),)),
    ("targets_harvest_j", (1.0, float("inf"))),
    ("coverage_starts", ((1.0, 2.0), (float("nan"), 2.0))),
])
def test_campaign_config_rejects_nonfinite_entries(name, value):
    with pytest.raises(ValueError, match=f"CampaignConfig.{name} must be a finite number"):
        CampaignConfig(**{name: value})


def test_campaign_config_dict_round_trip(tmp_path):
    cfg = tiny_campaign(tmp_path / "out")
    doc = json.loads(json.dumps(campaign_config_to_dict(cfg)))
    assert config_from_dict(CampaignConfig, doc) == cfg


def test_config_codec_round_trips_every_optional_type():
    env = EnvConfig(
        channel=ChannelParams(noise_override_db=-50.0),
        auv_modem=ModemSpec(electrical_power_w=200.0, source_level_db=150.0),
        surface_station_xy=(10.5, 20.0),
        auv_start_xy=(3, 4),
    )
    full = CampaignConfig(env=env, coverage_starts=((0.0, 1.5), (2.0, 3.0)),
                          coverage_dims=(30, 40, 10))
    for cfg in (desk_campaign_config(), full):
        doc = json.loads(json.dumps(campaign_config_to_dict(cfg)))
        assert config_from_dict(CampaignConfig, doc) == cfg


def test_desk_campaign_config_applies_overrides():
    cfg = desk_campaign_config(mc_runs=3, output_dir="elsewhere")
    assert cfg.mc_runs == 3
    assert cfg.output_dir == "elsewhere"


# ---------------------------------------------------------------------------
# run_campaign / emission


def test_run_campaign_smoke_emits_all_files(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_campaign(out, algorithms=("random",), node_counts=(4,), mc_runs=1)
    result = run_campaign(cfg)
    assert [len(result.datasets[name]) for name in DATASET_FILES] == [1, 2, 1, 1, 1, 1, 1]
    for name in DATASET_FILES:
        assert (out / name).exists(), name
    assert (out / "run_manifest.json").exists()
    assert (out / "README.md").exists()


def test_dataset_readme_names_every_csv_column(tmp_path):
    out = tmp_path / "out"
    run_campaign(tiny_campaign(out, algorithms=("random",), node_counts=(4,), mc_runs=1))
    readme = (out / "README.md").read_text()
    for name in DATASET_FILES:
        (entry,) = [item for item in readme.split("\n- ") if f"`{name}`" in item]
        with open(out / name, newline="") as fh:
            header = next(csv.reader(fh))
        named = set(re.findall(r"\w+", entry))
        assert [column for column in header if column not in named] == [], name


def test_run_campaign_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_campaign(tiny_campaign(out_a))
    run_campaign(tiny_campaign(out_b))
    assert read_csvs(out_a) == read_csvs(out_b)


def test_manifest_round_trip_reproduces_outputs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_campaign(tiny_campaign(out_a))
    manifest = json.loads((out_a / "run_manifest.json").read_text())
    cfg = config_from_dict(CampaignConfig, manifest["config"])
    cfg = dataclasses.replace(cfg, output_dir=str(out_b))
    run_campaign(cfg)
    assert read_csvs(out_a) == read_csvs(out_b)


def test_fig_throughput_row_count(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_campaign(out)
    run_campaign(cfg)
    lines = (out / "fig_throughput.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == len(cfg.algorithms) * len(cfg.node_counts)


def test_aggregation_is_order_independent(tmp_path):
    # Three runs per group: with two, float addition commutes and a
    # shuffle cannot change a mean.
    cfg = tiny_campaign(tmp_path / "a", mc_runs=3)
    specs = _build_cell_specs(cfg)
    results = [_run_cell(s) for s in specs]
    agg_sorted = _aggregate(cfg, sorted(results, key=lambda r: r.sort_key()))
    shuffled = list(results)
    random.Random(5).shuffle(shuffled)
    agg_shuffled = _aggregate(cfg, shuffled)
    assert agg_sorted == agg_shuffled


def test_random_cells_never_train(tmp_path, monkeypatch):
    trained = []
    real_train = aquaswipt.campaign.train

    def counting_train(env, algo, cfg):
        trained.append(Algorithm(algo))
        return real_train(env, algo, cfg)

    monkeypatch.setenv("AQUASWIPT_THREADS", "1")
    monkeypatch.setattr(aquaswipt.campaign, "train", counting_train)
    cfg = tiny_campaign(tmp_path / "out")
    run_campaign(cfg)
    # q_learning main cells plus the gamma sweep's q_learning cells.
    main_cells = len(cfg.node_counts) * cfg.mc_runs
    gamma_cells = len(cfg.gamma_sweep) * cfg.mc_runs
    assert trained == [Algorithm.Q_LEARNING] * (main_cells + gamma_cells)


def test_seeds_are_per_cell_and_traceable(tmp_path):
    cfg = tiny_campaign(tmp_path / "out")
    run_campaign(cfg)
    seeds = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["seeds"]
    # (2 algos x 2 counts + 2 gammas) x 2 runs
    assert len(seeds) == (2 * 2 + 2) * 2
    assert len(set(seeds.values())) == len(seeds)


def test_not_reached_encoding(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_campaign(out, algorithms=("random",), node_counts=(4,), mc_runs=1,
                        targets_throughput_bits=(1e18,))
    run_campaign(cfg)
    lines = (out / "fig_actions_throughput.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    record = dict(zip(header, row))
    assert record["mean_actions"] == ""
    assert record["reached"] == "False"
    assert record["reached_runs"] == "0"


def test_campaign_scores_a_rollout_that_spends_no_energy(tmp_path):
    # With no hotel load, a move clamped at the corner with no node covered
    # costs 0 J and relays 0 bits. Its EE used to raise once every cell had
    # run, so a config validate accepts failed late as a config error.
    env = dataclasses.replace(tiny_campaign(tmp_path).env, episode_length=1,
                              auv_start_xy=(0, 0), auv=AuvSpec(hotel_load_w=0.0))
    cfg = tiny_campaign(tmp_path / "out", env=env, algorithms=("random",), node_counts=(1,),
                        mc_runs=1, gamma_sweep=(0.5,), gamma_mc_runs=1, gamma_node_count=1)
    metrics, _ = _play_cell(_build_cell_specs(cfg)[0])
    assert metrics.transmit_energy_j + metrics.motion_energy_j == 0.0
    cells = run_campaign(cfg).raw_cells
    assert [c.ee_bits_per_j for c in cells if c.kind == "main"] == [0.0]


def test_gamma_rows_zero_excluded_terms(tmp_path):
    cfg = tiny_campaign(tmp_path / "out", gamma_sweep=(0.0, 0.5, 1.0), mc_runs=1)
    rows = run_campaign(cfg).datasets["fig_gamma.csv"]
    by_gamma = {r.gamma: r for r in rows}
    assert by_gamma[0.0].throughput_term_mean == 0.0
    assert by_gamma[1.0].harvest_term_mean == 0.0


def test_emit_rejects_empty_result(tmp_path):
    cfg = tiny_campaign(tmp_path / "out")
    result = run_campaign(cfg)
    # No main cells: the five grid datasets are empty, gamma and coverage are not.
    empty = dataclasses.replace(result, datasets={
        name: rows if name in ("fig_coverage.csv", "fig_gamma.csv") else []
        for name, rows in result.datasets.items()})
    with pytest.raises(ValueError):
        emit_datasets(empty, tmp_path / "nothing")
    assert not (tmp_path / "nothing").exists()


def test_worker_env_var_does_not_change_bytes(tmp_path, monkeypatch):
    out_a, out_b = tmp_path / "serial", tmp_path / "pooled"
    monkeypatch.setenv("AQUASWIPT_THREADS", "1")
    run_campaign(tiny_campaign(out_a, node_counts=(4,), mc_runs=1))
    monkeypatch.setenv("AQUASWIPT_THREADS", "2")
    run_campaign(tiny_campaign(out_b, node_counts=(4,), mc_runs=1))
    assert read_csvs(out_a) == read_csvs(out_b)
    for bad in ("two", "0", "-1", "1.5"):
        monkeypatch.setenv("AQUASWIPT_THREADS", bad)
        with pytest.raises(ValueError, match="AQUASWIPT_THREADS"):
            run_campaign(tiny_campaign(tmp_path / "bad", node_counts=(4,), mc_runs=1))


def test_ee_ratio_column_present_for_learned_algos(tmp_path):
    out = tmp_path / "out"
    run_campaign(tiny_campaign(out))
    lines = (out / "fig_ee.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "ee_ratio_vs_random" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    randoms = [r for r in rows if r["algorithm"] == "random"]
    assert all(r["ee_ratio_vs_random"] == "" for r in randoms)
