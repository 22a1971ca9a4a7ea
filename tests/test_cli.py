"""CLI tests: verbs, overrides, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aquaswipt

from aquaswipt.agents import Algorithm, LearnConfig, QTable, greedy_rollout, train
from aquaswipt.auv import AuvSpec
from aquaswipt.campaign import campaign_config_to_dict
from aquaswipt.cli import main
from aquaswipt.env3d import EnvConfig, deploy

from test_campaign import tiny_campaign


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(campaign_config_to_dict(cfg)))
    return path


def test_validate_default_config():
    assert main(["validate"]) == 0


def test_validate_with_config_file(tmp_path, capsys):
    path = write_config(tmp_path, tiny_campaign(tmp_path / "out"))
    assert main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out
    # An int stands for a float.
    assert main(["validate", "--config", str(path), "--set", "env.reward_gamma=1"]) == 0


def test_validate_rejects_bad_override(capsys):
    assert main(["validate", "--set", "mc_runs=0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_bad_node_store(capsys):
    assert main(["validate", "--set", "env.node_store_charge_efficiency=0"]) == 2
    assert "node_store_charge_efficiency" in capsys.readouterr().err
    assert main(["validate", "--set", "env.node_store_capacity_j=0",
                 "--set", "env.node_store_level_j=0"]) == 2
    assert "node_store_capacity_j" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    [
        "coverage_trials=10",
        "coverage_volume_samples=10",
        "coverage_dims=[100,100]",
        "coverage_starts=[[1]]",
        "coverage_k_values=[-1]",
        "coverage_n_values=[-2]",
        "gamma_node_count=0",
        "learn.optimistic_init=NaN",
        "bogus=1",
        "env.channel.bogus=1",
        "learn.batch_size=4",
        "algorithms=random",
        "node_counts=10",
        "gamma_sweep=0.5",
        "env.dims=5",
        "learn.episodes=2.5",
        "env.episode_length=true",
        "mc_runs=abc",
        "env.reward_gamma=false",
        "node_counts=[10.5]",
        "output_dir=3",
        "env.episode_length=null",
        "env.channel.frequency_khz=NaN",
        "env.channel.frequency_khz=Infinity",
        "env.node_buffer_bits=NaN",
        "learn.discount=-Infinity",
    ],
)
def test_validate_names_bad_or_unknown_field(setting, capsys):
    assert main(["validate", "--set", setting]) == 2
    field = setting.split("=")[0].split(".")[-1]
    assert field in capsys.readouterr().err


def test_validate_partial_config_takes_defaults(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": {"node_count": 10, "dims": [6, 6, 4]}}))
    assert main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out


def with_field(doc, dotted, value):
    """``doc`` with ``value`` set at the dotted path ``dotted``."""
    *block, name = dotted.split(".")
    node = doc
    for key in block:
        node = node[key]
    node[name] = value
    return doc


# The fields manifest schema 3 dropped, with the values older code wrote.
SCHEMA_2_ONLY_FIELDS = {
    "env.node_density": None,
    "env.node_harvest.sensitivity_v_per_upa": 1e-8,
    "env.auv.battery_capacity_j": 5e5,
}


def test_config_with_removed_field_is_rejected(tmp_path, capsys):
    cfg = tiny_campaign(tmp_path / "out")
    doc = campaign_config_to_dict(cfg)
    del doc["env"]["auv"]["battery_level_j"]
    doc["env"]["auv"]["battery"] = {"capacity_j": 5e5, "level_j": 5e5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 2
    assert "'battery'" in capsys.readouterr().err

    for dotted, value in SCHEMA_2_ONLY_FIELDS.items():
        manifest = {"schema": 2, "seeds": {}, "versions": {},
                    "config": with_field(campaign_config_to_dict(cfg), dotted, value)}
        path.write_text(json.dumps(manifest))
        assert main(["validate", "--config", str(path)]) == 2
        assert f"'{dotted.rsplit('.', 1)[1]}'" in capsys.readouterr().err

    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"n_actions": 6, "default_value": 0.0, "entries": []}))
    snapshot_path = tmp_path / "snapshot.json"
    for dotted, value in {"env.channel.sound_speed_mps": 1500.0, **SCHEMA_2_ONLY_FIELDS}.items():
        snapshot = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, rng_seed=3)).to_snapshot()
        with_field(snapshot, "config" + dotted.removeprefix("env"), value)
        snapshot_path.write_text(json.dumps(snapshot))
        assert main(["replay", "--qtable", str(table_path),
                     "--snapshot", str(snapshot_path)]) == 2
        assert f"'{dotted.rsplit('.', 1)[1]}'" in capsys.readouterr().err


def test_validate_rejects_malformed_set(capsys):
    assert main(["validate", "--set", "mc_runs"]) == 2


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 3


def test_malformed_config_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2


def test_run_tiny_campaign(tmp_path, capsys):
    cfg = tiny_campaign(tmp_path / "out", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    assert (tmp_path / "out" / "fig_throughput.csv").exists()
    assert (tmp_path / "out" / "run_manifest.json").exists()


def test_run_prints_real_cell_count(tmp_path, capsys):
    cfg = tiny_campaign(tmp_path / "out", gamma_sweep=(0.0, 0.5, 1.0))
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--runs", "1", "--algos", "random",
                 "--nodes", "4", "--set", "gamma_mc_runs=3"]) == 0
    # One main cell plus three gamma values times three runs.
    assert "running campaign: 10 cells" in capsys.readouterr().out


def test_run_prints_best_ee_ratio_beside_paper(tmp_path, capsys):
    cfg = tiny_campaign(tmp_path / "out", mc_runs=1)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader((tmp_path / "out" / "fig_ee.csv").open()))
    best = max(float(r["ee_ratio_vs_random"]) for r in rows if r["ee_ratio_vs_random"])
    (line,) = [ln for ln in out.splitlines() if ln.startswith("best EE ratio vs random")]
    assert f"best EE ratio vs random: {best:.2f} (" in line
    assert "paper: up to 3.07 (207% improvement)" in line
    # Without a random baseline there is no ratio to report.
    assert main(["run", "--config", str(path), "--algos", "q_learning"]) == 0
    assert "best EE ratio vs random: none" in capsys.readouterr().out
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys):
    cfg = tiny_campaign(tmp_path / "out", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    monkeypatch.setenv("AQUASWIPT_THREADS", "two")
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    assert "AQUASWIPT_THREADS" in capsys.readouterr().err


def test_run_flag_overrides(tmp_path):
    cfg = tiny_campaign(tmp_path / "ignored")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "flagged"
    assert main([
        "run", "--config", str(path), "--out", str(out), "--quiet",
        "--algos", "random", "--nodes", "4", "--runs", "1", "--gamma", "1",
        "--seed", "99",
    ]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["schema"] == 3
    assert manifest["config"]["algorithms"] == ["random"]
    assert manifest["config"]["node_counts"] == [4]
    assert manifest["config"]["mc_runs"] == 1
    assert manifest["config"]["env"]["rng_seed"] == 99
    assert manifest["config"]["learn"]["seed"] == 99


def test_run_set_dotted_override(tmp_path):
    cfg = tiny_campaign(tmp_path / "out", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    assert main([
        "run", "--config", str(path), "--quiet",
        "--set", "env.episode_length=5",
        "--set", "learn.episodes=2",
    ]) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["config"]["env"]["episode_length"] == 5
    assert manifest["config"]["learn"]["episodes"] == 2


def test_run_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = tiny_campaign(blocker / "out", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--quiet"]) == 3


def test_run_from_manifest_round_trips(tmp_path):
    cfg = tiny_campaign(tmp_path / "a", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    manifest_path = tmp_path / "a" / "run_manifest.json"
    assert main(["run", "--config", str(manifest_path), "--quiet",
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("fig_throughput.csv", "fig_gamma.csv", "fig_coverage.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_coverage_verb(tmp_path):
    cfg = tiny_campaign(tmp_path / "cov")
    path = write_config(tmp_path, cfg)
    assert main(["coverage", "--config", str(path), "--quiet"]) == 0
    text = (tmp_path / "cov" / "fig_coverage.csv").read_text()
    assert text.startswith("start_x,start_y,n,k,p_analytic,p_empirical,stderr")


def test_replay_round_trip(tmp_path, capsys):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8,
                           rng_seed=3, auv=AuvSpec(hotel_load_w=500.0)))
    learn = LearnConfig(episodes=4, epsilon_decay=0.9, discount=0.9,
                        randomize_start=False)
    table, _ = train(env, Algorithm.Q_LEARNING, learn)
    qtable_path = tmp_path / "table.json"
    table.save(qtable_path)
    env.reset()
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(json.dumps(env.to_snapshot()))
    out_path = tmp_path / "rollout.json"
    assert main(["replay", "--qtable", str(qtable_path),
                 "--snapshot", str(snapshot_path), "--out", str(out_path)]) == 0
    summary = json.loads(out_path.read_text())
    assert summary["steps"] == 8
    assert len(summary["trajectory"]) == 8
    assert "bits relayed" in capsys.readouterr().out


def test_replay_runs_a_fresh_episode_whatever_the_snapshot_step(tmp_path):
    # Replay resets the episode: a snapshot taken mid-episode replays the
    # same as one taken fresh on the same deployment.
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8,
                           rng_seed=3, auv=AuvSpec(hotel_load_w=500.0)))
    table, _ = train(env, Algorithm.Q_LEARNING,
                     LearnConfig(episodes=4, discount=0.9, randomize_start=False))
    qtable_path = tmp_path / "table.json"
    table.save(qtable_path)
    env.reset()
    fresh = env.to_snapshot()
    for action in (0, 0, 2, 4, 4):
        env.step(action)
    mid = env.to_snapshot()
    assert mid == fresh  # a snapshot holds the deployment, not the episode
    rollouts = []
    for name, snapshot in (("fresh", fresh), ("mid", mid)):
        snapshot_path = tmp_path / f"{name}.json"
        snapshot_path.write_text(json.dumps(snapshot))
        out_path = tmp_path / f"{name}_rollout.json"
        assert main(["replay", "--qtable", str(qtable_path), "--snapshot",
                     str(snapshot_path), "--out", str(out_path), "--quiet"]) == 0
        rollouts.append(out_path.read_text())
    assert rollouts[0] == rollouts[1]
    assert json.loads(rollouts[1])["steps"] == 8


def test_replay_runs_on_the_snapshot_node_positions(tmp_path):
    config = EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3,
                       auv=AuvSpec(hotel_load_w=500.0))
    env = deploy(config)
    seeded = env.node_pos.tolist()
    env.place_nodes([[3, 3, 4], [4, 3, 2], [1, 5, 3], [3, 2, 1]])
    table, _ = train(env, Algorithm.Q_LEARNING,
                     LearnConfig(episodes=20, discount=0.9, randomize_start=False))
    qtable_path = tmp_path / "table.json"
    table.save(qtable_path)
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(json.dumps(env.to_snapshot()))
    out_path = tmp_path / "rollout.json"
    assert main(["replay", "--qtable", str(qtable_path), "--snapshot", str(snapshot_path),
                 "--out", str(out_path), "--quiet"]) == 0
    metrics, trajectory = greedy_rollout(env, table)
    summary = json.loads(out_path.read_text())
    assert summary["trajectory"] == [list(p) for p in trajectory]
    assert summary["throughput_bits"] == metrics.throughput_bits > 0.0
    # On the seeded layout the same table relays a different amount.
    assert env.node_pos.tolist() != seeded
    seeded_metrics, _ = greedy_rollout(deploy(config), table)
    assert seeded_metrics.throughput_bits != metrics.throughput_bits


def test_replay_rejects_snapshot_with_episode_state(tmp_path, capsys):
    # The layout of snapshots that recorded the episode state as well.
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    snapshot = env.to_snapshot()
    for node in snapshot["nodes"]:
        node.update(store_level_j=0.0, data_buffer_bits=4e6)
    snapshot["auv"] = {"position": [3, 3, 0], "battery_level_j": 5e5,
                       "relay_buffer_bits": 0.0, "total_relayed_bits": 0.0,
                       "total_collected_bits": 0.0, "step_index": 0, "done": False}
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"n_actions": 6, "default_value": 0.0, "entries": []}))
    snapshot_path = tmp_path / "snapshot.json"
    # The AUV block is named first; without it, a node's store level is.
    for dropped in ("auv", "store_level_j"):
        snapshot_path.write_text(json.dumps(snapshot))
        assert main(["replay", "--qtable", str(table_path),
                     "--snapshot", str(snapshot_path)]) == 2
        assert f"no field '{dropped}'" in capsys.readouterr().err
        snapshot.pop("auv", None)


@pytest.mark.parametrize("n_actions", [6.0, "6"])
def test_replay_rejects_qtable_with_non_int_action_count(n_actions, tmp_path, capsys):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(json.dumps(env.to_snapshot()))
    qtable_path = tmp_path / "table.json"
    qtable_path.write_text(json.dumps({
        "n_actions": n_actions, "default_value": 0.0,
        "entries": [[[3, 3, 0, 0, 0, 0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]]]}))
    assert main(["replay", "--qtable", str(qtable_path),
                 "--snapshot", str(snapshot_path)]) == 2
    assert "n_actions must be of type int" in capsys.readouterr().err


def test_replay_rejects_bad_qtable(tmp_path, capsys):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(json.dumps(env.to_snapshot()))
    qtable_path = tmp_path / "table.json"
    doc = {"n_actions": 6, "default_value": 0.0,
           "entries": [[[3, 3, 0, 0, 0, 0], [0.0, float("nan"), 0.0, 0.0, 0.0, 0.0]]]}
    qtable_path.write_text(json.dumps(doc))
    assert main(["replay", "--qtable", str(qtable_path),
                 "--snapshot", str(snapshot_path)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("n_actions", [3, 7])
def test_replay_rejects_table_of_other_action_count(n_actions, tmp_path, capsys):
    env = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, episode_length=8, rng_seed=3))
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(json.dumps(env.to_snapshot()))
    table = QTable(n_actions=n_actions, dims=env.dims)
    table.set(env.state_id(), n_actions - 1, 1.0)  # greedy picks the last action
    qtable_path = tmp_path / "table.json"
    table.save(qtable_path)
    assert main(["replay", "--qtable", str(qtable_path),
                 "--snapshot", str(snapshot_path)]) == 2
    assert f"{n_actions} actions" in capsys.readouterr().err


def test_replay_rejects_off_grid_node(tmp_path, capsys):
    snapshot = deploy(EnvConfig(dims=(6, 6, 4), node_count=4, rng_seed=3)).to_snapshot()
    snapshot["nodes"][2]["position"] = [2.5, 3, 1]
    snapshot_path = tmp_path / "snapshot.json"
    snapshot_path.write_text(json.dumps(snapshot))
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"n_actions": 6, "default_value": 0.0, "entries": []}))
    assert main(["replay", "--qtable", str(table_path),
                 "--snapshot", str(snapshot_path)]) == 2
    assert "grid points" in capsys.readouterr().err


def test_replay_missing_artifacts(tmp_path):
    assert main(["replay", "--qtable", str(tmp_path / "no.json"),
                 "--snapshot", str(tmp_path / "no2.json")]) == 3


def test_console_entry_point_runs():
    # The child process imports the same package as this one, installed or not.
    package_root = str(Path(aquaswipt.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "aquaswipt.cli", "validate"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert "config OK" in proc.stdout
