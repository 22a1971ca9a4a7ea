"""The benchmark's workloads: seeded inputs, one repetition, output digests.

Each workload turns the benchmark seed into a program config, and the
program gets only that config. One repetition runs the workload once and
returns a sha256 per output, which the caller checks against the pins in
``pins.json`` (pinned seed) or against the repetition before it (any other
seed). Why each workload exists is recorded in ``BENCHMARK.json`` and in
``README.md`` beside this file.
"""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import aquaswipt.agents
import aquaswipt.campaign
import aquaswipt.cli
import aquaswipt.env3d
from aquaswipt import Algorithm, EnvConfig, LearnConfig

# The seven campaign datasets, in the order the program documents them.
DATASET_FILES = (
    "fig_coverage.csv",
    "fig_gamma.csv",
    "fig_throughput.csv",
    "fig_actions_throughput.csv",
    "fig_ee.csv",
    "fig_harvest.csv",
    "fig_actions_harvest.csv",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    return _sha256(path.read_bytes())


def _json_sha256(doc) -> str:
    # json writes floats with repr, so equal digests mean equal bits.
    return _sha256(json.dumps(doc, sort_keys=True).encode())


def _with_seed(config, seed: int):
    """The desk config with the master seed set, as ``aquaswipt run --seed`` does."""
    return dataclasses.replace(
        config,
        env=dataclasses.replace(config.env, rng_seed=seed),
        learn=dataclasses.replace(config.learn, seed=seed),
    )


class DeskCampaign:
    """``aquaswipt run`` on the desk defaults over a reduced grid.

    One Monte-Carlo run per cell keeps every cell kind (three algorithms,
    10/25/50 nodes, the five-value gamma sweep, coverage and emission)
    in 14 cells. Cells train for 200 episodes of 50 steps instead of 400:
    epsilon is down to 0.018 (floor 0.01) by then, and a repetition short
    enough to be made several times per run is what lets the benchmark
    filter out a noisy host.
    """

    name = "desk-campaign"
    outputs = DATASET_FILES
    work = "env_steps"

    episodes = 200

    def config(self, seed: int):
        config = aquaswipt.campaign.desk_campaign_config(mc_runs=1, gamma_mc_runs=1)
        config = dataclasses.replace(
            config, learn=dataclasses.replace(config.learn, episodes=self.episodes)
        )
        return _with_seed(config, seed)

    def first_env(self, config) -> EnvConfig:
        return config.env

    def prepare(self, config, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        with open(workdir / "config.json", "w") as fh:
            json.dump(aquaswipt.campaign.campaign_config_to_dict(config), fh)

    def run(self, config, workdir: Path) -> dict[str, str]:
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        code = aquaswipt.cli.main(["run", "--config", str(workdir / "config.json"),
                                   "--out", str(out), "--quiet"])
        if code != 0:
            raise RuntimeError(f"aquaswipt run exited with code {code}")
        return {name: _file_sha256(out / name) for name in DATASET_FILES}


class TableExplore:
    """Q-learning from random start columns on the paper-scale box, then a rollout."""

    name = "table-explore"
    outputs = ("qtable.json", "rollout")
    work = "env_steps"
    episodes = 300

    def config(self, seed: int):
        env = EnvConfig(dims=(100, 100, 50), node_count=50, rng_seed=seed)
        learn = LearnConfig(episodes=self.episodes, seed=seed, randomize_start=True)
        return env, learn

    def first_env(self, config) -> EnvConfig:
        return config[0]

    def prepare(self, config, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, config, workdir: Path) -> dict[str, str]:
        env_cfg, learn_cfg = config
        env = aquaswipt.env3d.deploy(env_cfg)
        table, _ = aquaswipt.agents.train(env, Algorithm.Q_LEARNING, learn_cfg)
        metrics, _ = aquaswipt.agents.greedy_rollout(env, table)
        path = workdir / "qtable.json"
        path.unlink(missing_ok=True)
        table.save(path)
        totals = {
            "steps": metrics.steps,
            "throughput_bits": metrics.throughput_bits,
            "harvested_j": metrics.harvested_j,
            "motion_energy_j": metrics.motion_energy_j,
            "transmit_energy_j": metrics.transmit_energy_j,
            "total_reward": metrics.total_reward,
        }
        return {"qtable.json": _file_sha256(path), "rollout": _json_sha256(totals)}


class CoverageSweep:
    """The campaign's coverage sweep at 100 x 100 x 50 with raised sample counts."""

    name = "coverage-sweep"
    outputs = ("sweep_rows",)
    work = "points_tested"

    def config(self, seed: int):
        return _with_seed(
            aquaswipt.campaign.desk_campaign_config(
                coverage_trials=20_000, coverage_volume_samples=1_000_000
            ),
            seed,
        )

    def first_env(self, config) -> EnvConfig:
        return dataclasses.replace(config.env, dims=tuple(config.coverage_dims))

    def prepare(self, config, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, config, workdir: Path) -> dict[str, str]:
        rows = aquaswipt.campaign.run_coverage(config)
        return {"sweep_rows": _json_sha256([list(r) for r in rows])}


def emitted_bytes(workdir: Path) -> int:
    """Bytes the last repetition wrote to its output directory, if it has one."""
    out = workdir / "out"
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


WORKLOADS = {w.name: w for w in (DeskCampaign(), TableExplore(), CoverageSweep())}
