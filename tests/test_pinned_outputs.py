"""Pinned-output gate: recorded results that a refactor must reproduce.

The other tests compare one run against another of the same code, so a
change that shifts every result alike would pass them. These tests compare
runs with results recorded under ``tests/golden/``:

- the reduced desk grid (one Monte-Carlo run per cell, 200 training
  episodes, seed 0: q_learning, sarsa and random at 10/25/50 nodes, the
  five-value gamma sweep, actions-to-target and the coverage sweep), whose
  seven CSVs are committed as they were written;
- one SARSA cell and one gamma-sweep (Q-learning) cell of that grid, so a
  fault in one update rule fails the test named after it;
- a shrunken ``table-explore`` bench workload: Q-learning from random start
  columns on the 100 x 100 x 50 box for 30 episodes, then a greedy rollout.

The golden comparison runs on every host: exact on strings, ints, bools and
empty values, ``rtol=1e-9`` on floats, and a failure names the file, row,
column, expected and found value. Float results depend on the interpreter
and numpy builds, so the exact sha256 checks (the desk grid digests are the
``desk-campaign`` pins of ``bench/pins.json``) run only on the pair the
digests were recorded with.

A deliberate change of the results rewrites the golden files with
``PYTHONPATH=src python tests/test_pinned_outputs.py``, updates the digests
here and in the bench pins, and says why in CHANGES.md; the CSV diff in git
shows what moved.
"""

import csv
import dataclasses
import hashlib
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from aquaswipt.agents import Algorithm, LearnConfig, greedy_rollout, train
from aquaswipt.campaign import (
    DATASET_FILES,
    _build_cell_specs,
    _run_cell,
    desk_campaign_config,
    run_campaign,
)
from aquaswipt.env3d import EnvConfig, deploy

GOLDEN = Path(__file__).resolve().parent / "golden"
PINNED_PYTHON = "3.11.7"
PINNED_NUMPY = "2.4.6"

DESK_DIGESTS = {
    "fig_actions_harvest.csv":
        "e2e2f4347056a2ae4dc023411741ab64a4dfc5669fdacb7109744100d6728c1e",
    "fig_actions_throughput.csv":
        "d1ef6e4c135ebe0a04c4ee2e86b0474e4d5b6bce22b33385dc55afe7baae6740",
    "fig_coverage.csv":
        "1bcc87a3ff2042ba59bc69ee86cc1c3ab531fd7e68e69e718f5a5c35c9c42341",
    "fig_ee.csv":
        "7ebe383a47d7b8de727a503e157621027816abd4d9d728e513d3b42b54884375",
    "fig_gamma.csv":
        "783153079de2172295b2a6e60f5d063812d8be62455c8c9a94c3b97437c70dcc",
    "fig_harvest.csv":
        "3dfd233fdd8fb9a3a24bacbb4465888ee43274a29211df9557a4cae672b91ba5",
    "fig_throughput.csv":
        "dec0165b510309afbce3f6b7b0bf84d2d8c0d73014ef17ac30b088f1c8168a10",
}
TABLE_EXPLORE_QTABLE_DIGEST = (
    "9bfb56ed4a9f78d2ccf6ed109f94044af2afcae8819f03e3b6a795743bc58f32"
)


def _skip_off_pinned_pair():
    found = (platform.python_version(), np.__version__)
    if found != (PINNED_PYTHON, PINNED_NUMPY):
        pytest.skip(f"digests pinned for Python {PINNED_PYTHON} / numpy "
                    f"{PINNED_NUMPY}; found Python {found[0]} / numpy {found[1]}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# The runs


def desk_grid_config(output_dir):
    config = desk_campaign_config(mc_runs=1, gamma_mc_runs=1, output_dir=str(output_dir))
    return dataclasses.replace(
        config,
        env=dataclasses.replace(config.env, rng_seed=0),
        learn=dataclasses.replace(config.learn, episodes=200, seed=0),
    )


def run_desk_grid(output_dir: Path) -> None:
    run_campaign(desk_grid_config(output_dir), write=True)


def run_cells() -> dict:
    """The grid's 25-node SARSA cell and its gamma = 0.25 cell, as plain dicts."""
    specs = _build_cell_specs(desk_grid_config("unused"))
    sarsa = next(s for s in specs if s.kind == "main" and s.algorithm == "sarsa"
                 and s.node_count == 25)
    gamma = next(s for s in specs if s.kind == "gamma" and s.gamma == 0.25)
    return {name: dataclasses.asdict(_run_cell(spec))
            for name, spec in (("sarsa", sarsa), ("gamma", gamma))}


def run_table_explore(qtable_path: Path) -> dict:
    """Shrunken table-explore; writes the Q-table and returns its summary."""
    env = deploy(EnvConfig(dims=(100, 100, 50), node_count=50, rng_seed=0))
    table, trace = train(env, Algorithm.Q_LEARNING,
                         LearnConfig(episodes=30, seed=0, randomize_start=True))
    metrics, trajectory = greedy_rollout(env, table)
    table.save(qtable_path)
    entries = json.loads(qtable_path.read_text())["entries"]
    keys = json.dumps([key for key, _ in entries]).encode()
    return {
        "training_steps": sum(m.steps for m in trace),
        "states": len(entries),
        "state_keys_sha256": hashlib.sha256(keys).hexdigest(),
        "value_sums": [math.fsum(values[a] for _, values in entries)
                       for a in range(table.n_actions)],
        "rollout": {
            "steps": metrics.steps,
            "throughput_bits": metrics.throughput_bits,
            "harvested_j": metrics.harvested_j,
            "motion_energy_j": metrics.motion_energy_j,
            "transmit_energy_j": metrics.transmit_energy_j,
            "total_reward": metrics.total_reward,
            "trajectory": [list(p) for p in trajectory],
        },
    }


# ---------------------------------------------------------------------------
# Golden comparison


def _is_float_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("+-").isdigit()


def _matches(expected, found) -> bool:
    if isinstance(expected, str) and isinstance(found, str):
        if expected == found:
            return True
        if _is_float_text(expected) and _is_float_text(found):
            return math.isclose(float(expected), float(found), rel_tol=1e-9, abs_tol=0.0)
        return False
    if isinstance(expected, float) and type(found) is float:
        return expected == found or math.isclose(expected, found, rel_tol=1e-9,
                                                 abs_tol=0.0)
    return type(expected) is type(found) and expected == found


def golden_mismatches(expected, found, where: str) -> list[str]:
    """Every place a JSON-like value differs from its golden counterpart."""
    if isinstance(expected, dict) and isinstance(found, dict):
        if set(expected) != set(found):
            return [f"{where}: keys {sorted(expected)} expected, found {sorted(found)}"]
        return [m for key in expected
                for m in golden_mismatches(expected[key], found[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(found, list):
        if len(expected) != len(found):
            return [f"{where}: {len(expected)} items expected, found {len(found)}"]
        return [m for i, (e, f) in enumerate(zip(expected, found))
                for m in golden_mismatches(e, f, f"{where}[{i}]")]
    if _matches(expected, found):
        return []
    return [f"{where}: expected {expected!r}, found {found!r}"]


def csv_mismatches(name: str, expected_text: str, found_text: str) -> list[str]:
    expected = list(csv.reader(expected_text.splitlines()))
    found = list(csv.reader(found_text.splitlines()))
    if expected[:1] != found[:1]:
        return [f"{name}: header {expected[:1]} expected, found {found[:1]}"]
    if len(expected) != len(found):
        return [f"{name}: {len(expected) - 1} rows expected, found {len(found) - 1}"]
    header = expected[0]
    out = []
    for r, (e_row, f_row) in enumerate(zip(expected[1:], found[1:]), start=1):
        for column, e, f in zip(header, e_row, f_row):
            if not _matches(e, f):
                out.append(f"{name} row {r} column {column}: expected {e!r}, found {f!r}")
    return out


# ---------------------------------------------------------------------------
# Tests


@pytest.fixture(scope="module")
def desk_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_grid")
    run_desk_grid(out)
    return out


def test_desk_grid_csvs_match_pinned_digests(desk_grid):
    _skip_off_pinned_pair()
    assert set(DESK_DIGESTS) == set(DATASET_FILES)
    digests = {name: _sha256(desk_grid / name) for name in DATASET_FILES}
    assert digests == DESK_DIGESTS


def test_desk_grid_csvs_match_golden_files(desk_grid):
    problems = [m for name in DATASET_FILES
                for m in csv_mismatches(name, (GOLDEN / name).read_text(),
                                        (desk_grid / name).read_text())]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("cell", ["sarsa", "gamma"])
def test_update_rule_cell_matches_golden(cell):
    expected = json.loads((GOLDEN / "cells.json").read_text())[cell]
    found = run_cells()[cell]
    problems = golden_mismatches(expected, found, f"cells.json {cell}")
    assert not problems, "\n".join(problems)


def test_table_explore_random_starts_match_golden(tmp_path):
    qtable_path = tmp_path / "qtable.json"
    found = run_table_explore(qtable_path)
    expected = json.loads((GOLDEN / "table_explore.json").read_text())
    problems = golden_mismatches(expected, found, "table_explore.json")
    assert not problems, "\n".join(problems)
    _skip_off_pinned_pair()
    assert _sha256(qtable_path) == TABLE_EXPLORE_QTABLE_DIGEST


def _write_golden() -> None:
    """Rewrite every golden file from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        run_desk_grid(tmp)
        for name in DATASET_FILES:
            shutil.copyfile(tmp / name, GOLDEN / name)
        summary = run_table_explore(tmp / "qtable.json")
        print(f"table-explore qtable.json sha256 {_sha256(tmp / 'qtable.json')}")
    for name, doc in (("cells.json", run_cells()), ("table_explore.json", summary)):
        (GOLDEN / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)
