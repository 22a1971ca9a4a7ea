"""CLI tests: verbs, overrides, exit codes."""

import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import aquaswipt
import aquaswipt.campaign

from aquaswipt.campaign import (
    DATASET_FILES,
    DATASET_ROWS,
    EeRow,
    ThroughputRow,
    campaign_config_to_dict,
    desk_campaign_config,
    run_campaign,
    run_coverage,
)
from aquaswipt.cli import _build_parser, _headline, main

from test_campaign import tiny_campaign


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(campaign_config_to_dict(cfg)))
    return path


def test_validate_default_config(capsys):
    assert main(["validate"]) == 0
    assert "config OK" in capsys.readouterr().out
    assert main(["validate", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


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
        'algorithms=["foo"]',
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


@pytest.mark.parametrize(
    "flag, value, kind",
    [
        ("--nodes", "10,x", "integers"),
        ("--nodes", "10,,25", "integers"),
        ("--nodes", "10.5", "integers"),
        ("--gamma", "0.5,abc", "numbers"),
        ("--gamma", "", "numbers"),
        ("--algos", "q_learning,,random", "algorithm names"),
    ],
)
def test_validate_names_the_flag_of_a_bad_comma_list(flag, value, kind, capsys):
    assert main(["validate", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag} expects a comma list of {kind}, got '{value}'" in err


@pytest.mark.parametrize(
    "flag, value, field, repeated",
    [
        ("--algos", "q_learning,q_learning", "algorithms", "'q_learning'"),
        ("--nodes", "10,25,10", "node_counts", "10"),
        ("--gamma", "0.5,0.5", "gamma_sweep", "0.5"),
        ("--set", "targets_throughput_bits=[5e5,5e5]", "targets_throughput_bits",
         "500000.0"),
        ("--set", "targets_harvest_j=[2e-8,5e-8,2e-8]", "targets_harvest_j", "2e-08"),
        ("--set", "coverage_n_values=[10,10]", "coverage_n_values", "10"),
        ("--set", "coverage_k_values=[1,1]", "coverage_k_values", "1"),
        ("--set", "coverage_starts=[[0,0],[0,0]]", "coverage_starts", "(0, 0)"),
    ],
)
def test_validate_refuses_a_repeated_list_value(flag, value, field, repeated, capsys):
    # Two cells with one algorithm/node_count/gamma/run key would share a
    # seed key, and aggregation would merge their differently seeded groups;
    # two actions rows with one target, or two coverage rows with one
    # (start, n, k) key, would write one key twice.
    assert main(["validate", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"CampaignConfig.{field} has repeated value {repeated}" in err


def test_validate_refuses_an_empty_algos_list(capsys):
    # An empty list flag used to be ignored, leaving the config's list.
    assert main(["validate", "--algos", ""]) == 2
    assert "CampaignConfig.algorithms must be non-empty" in capsys.readouterr().err


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

    # Validate and replay both read an older manifest's config and name the field.
    for dotted, value in {"env.channel.sound_speed_mps": 1500.0, **SCHEMA_2_ONLY_FIELDS}.items():
        manifest = {"schema": 2, "seeds": {}, "versions": {},
                    "config": with_field(campaign_config_to_dict(cfg), dotted, value)}
        path.write_text(json.dumps(manifest))
        assert main(["validate", "--config", str(path)]) == 2
        assert f"'{dotted.rsplit('.', 1)[1]}'" in capsys.readouterr().err
        assert main(["replay", "--manifest", str(path),
                     "--cell", "main/q_learning/4/0.5/0"]) == 2
        assert f"'{dotted.rsplit('.', 1)[1]}'" in capsys.readouterr().err


def test_validate_rejects_malformed_set(capsys):
    assert main(["validate", "--set", "mc_runs"]) == 2


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 3


def test_malformed_config_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2
    # A document that is JSON but not an object: the overrides used to die
    # descending into the list, and a string holding "seeds" and "config"
    # was taken for a manifest.
    for text, flags in (("[1, 2]", ["--set", "env.dims=[5,5,5]"]),
                        ("[1, 2]", ["--seed", "3"]),
                        ('"seeds and config"', [])):
        path.write_text(text)
        capsys.readouterr()
        assert main(["validate", "--config", str(path), *flags]) == 2
        assert f"{path} does not hold a JSON object" in capsys.readouterr().err


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


def test_headline_names_node_counts_whose_random_cells_all_scored_zero():
    def cell(algorithm, node_count, ee_mean, ratio=None, runs=20):
        """One group's fig_throughput.csv and fig_ee.csv rows."""
        return (ThroughputRow(algorithm, node_count, 1.0, 1.0, 1.0, runs),
                EeRow(algorithm, node_count, ee_mean, ratio))

    def headline(cells):
        throughput, ee = zip(*cells)
        return _headline(throughput, ee)

    paper = "; paper: up to 3.07 (207% improvement)"
    zero_at_10 = [cell("q_learning", 10, 3.0), cell("random", 10, 0.0)]
    assert headline(zero_at_10) == (
        "best EE ratio vs random: undefined at n=10 (all 20 random cells scored EE 0)"
        + paper)
    rated_at_25 = [cell("q_learning", 25, 4.0, ratio=2.0), cell("random", 25, 2.0)]
    assert headline(zero_at_10 + rated_at_25 + [cell("random", 50, 0.0, runs=3)]) == (
        "best EE ratio vs random: 2.00 (100% improvement, q_learning n=25); "
        "undefined at n=10 (all 20 random cells scored EE 0)" + paper)
    # A random cell with no learner beside it gives no ratio to leave undefined.
    assert headline([cell("random", 10, 0.0)]) == (
        "best EE ratio vs random: none (no learner with a random baseline)" + paper)


def csv_header(path):
    with open(path, newline="") as fh:
        return tuple(next(csv.reader(fh)))


def test_every_dataset_is_written_under_its_row_type_fields(tmp_path):
    cfg = tiny_campaign(tmp_path / "run", node_counts=(4,), mc_runs=1)
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--quiet"]) == 0
    for name in DATASET_FILES:
        assert csv_header(tmp_path / "run" / name) == DATASET_ROWS[name]._fields, name
    assert main(["coverage", "--out", str(tmp_path / "cov"), "--quiet",
                 "--set", "coverage_trials=100", "--set", "coverage_volume_samples=1000"]) == 0
    assert sorted(p.name for p in (tmp_path / "cov").iterdir()) == ["fig_coverage.csv"]
    assert (csv_header(tmp_path / "cov" / "fig_coverage.csv")
            == DATASET_ROWS["fig_coverage.csv"]._fields)


def test_run_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys):
    cfg = tiny_campaign(tmp_path / "out", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    monkeypatch.setenv("AQUASWIPT_THREADS", "two")
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    assert "AQUASWIPT_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused before the output was made


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


def test_run_unwritable_output_is_io_error(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = tiny_campaign(blocker / "out", algorithms=("random",),
                        node_counts=(4,), mc_runs=1)
    path = write_config(tmp_path, cfg)
    cells = []
    run_cell = aquaswipt.campaign._run_cell
    monkeypatch.setattr(aquaswipt.campaign, "_run_cell",
                        lambda spec: cells.append(spec) or run_cell(spec))
    monkeypatch.setenv("AQUASWIPT_THREADS", "1")
    assert main(["run", "--config", str(path), "--quiet"]) == 3
    assert cells == []  # refused before the first cell ran


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


@pytest.mark.parametrize("flag", ["--runs", "--algos", "--nodes", "--gamma"])
def test_coverage_refuses_the_campaign_grid_flags(flag, capsys):
    # The sweep reads none of them, so taking one would ignore it silently.
    with pytest.raises(SystemExit) as exit_info:
        main(["coverage", flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("start, box", [
    ({"auv_start_z": 8}, (20, 20, 5)),
    ({"auv_start_xy": (15, 15)}, (10, 10, 5)),
])
def test_coverage_box_is_not_checked_against_the_auv_start(start, box, tmp_path):
    # The AUV start lies in env.dims, but not in coverage_dims: the sweep
    # reads only the box and the cone, so the start must not refuse it.
    settings = [f"env.{key}={json.dumps(value)}" for key, value in start.items()]
    flags = [arg for setting in [*settings, f"coverage_dims={json.dumps(box)}"]
             for arg in ("--set", setting)]
    assert main(["validate", "--quiet", *flags]) == 0
    assert main(["coverage", "--quiet", "--out", str(tmp_path), *flags]) == 0
    without = desk_campaign_config(coverage_dims=box)
    with_start = dataclasses.replace(without, env=dataclasses.replace(without.env, **start))
    rows = run_coverage(with_start)
    assert rows == run_coverage(without)
    with open(tmp_path / "fig_coverage.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == len(rows) + 1


def replay_campaign(tmp_path):
    """A tiny campaign with every cell kind, run and written to ``tmp_path / "out"``."""
    cfg = tiny_campaign(tmp_path / "out", algorithms=("q_learning", "sarsa", "random"),
                        node_counts=(4,), gamma_node_count=4)
    return run_campaign(cfg), tmp_path / "out" / "run_manifest.json"


def test_replay_round_trip(tmp_path, capsys):
    result, manifest_path = replay_campaign(tmp_path)
    raw = {f"{c.kind}/{c.algorithm}/{c.node_count}/{c.gamma}/{c.run}": c
           for c in result.raw_cells}
    for key in ("main/q_learning/4/0.5/1", "main/sarsa/4/0.5/0", "main/random/4/0.5/1",
                "gamma/q_learning/4/1.0/1"):
        out_path = tmp_path / "rollout.json"
        assert main(["replay", "--manifest", str(manifest_path), "--cell", key,
                     "--out", str(out_path)]) == 0
        assert f"replay {key}: 8 steps" in capsys.readouterr().out
        summary = json.loads(out_path.read_text())
        cell = raw[key]
        assert ((summary["throughput_bits"], summary["harvested_j"], summary["total_reward"])
                == (cell.throughput_bits, cell.harvested_j, cell.reward_total))
        assert summary["steps"] == len(summary["trajectory"]) == 8


def test_replay_rejects_a_cell_the_manifest_does_not_hold(tmp_path, capsys):
    _, manifest_path = replay_campaign(tmp_path)
    for key in ("main/q_learning/6/0.5/0", "main/q_learning/4/0.5/2", "q_learning"):
        assert main(["replay", "--manifest", str(manifest_path), "--cell", key]) == 2
        assert f"no cell {key!r}" in capsys.readouterr().err


def test_replay_rejects_an_edited_seed(tmp_path, capsys):
    _, manifest_path = replay_campaign(tmp_path)
    manifest = json.loads(manifest_path.read_text())
    key = "main/sarsa/4/0.5/1"
    manifest["seeds"][key] += 1
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", "--manifest", str(manifest_path), "--cell", key]) == 2
    assert f"cell {key!r}: the manifest's seeds record env seed" in capsys.readouterr().err
    # A seed the manifest does not record at all is refused the same way.
    del manifest["seeds"][key]
    manifest_path.write_text(json.dumps(manifest))
    assert main(["replay", "--manifest", str(manifest_path), "--cell", key]) == 2
    assert "record env seed None" in capsys.readouterr().err


def test_replay_rejects_a_config_without_seeds(tmp_path, capsys):
    path = write_config(tmp_path, tiny_campaign(tmp_path / "out"))
    assert main(["replay", "--manifest", str(path), "--cell", "main/q_learning/4/0.5/0"]) == 2
    assert "lacks the field 'seeds'" in capsys.readouterr().err


def test_replay_missing_artifacts(tmp_path):
    assert main(["replay", "--manifest", str(tmp_path / "no.json"),
                 "--cell", "main/q_learning/4/0.5/0"]) == 3


def readme_cli_lines():
    """Every ``aquaswipt ...`` command in README's code blocks, with its
    continuation lines joined."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme.read_text(), flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("aquaswipt ")]


def test_readme_cli_examples_parse():
    lines = readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == {"run", "validate", "coverage",
                                                        "replay"}
    for line in lines:
        try:
            _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README's {line!r} does not parse")


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
