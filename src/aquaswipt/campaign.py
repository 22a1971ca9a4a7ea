"""Monte-Carlo experiment campaign: orchestration, metrics, CSV emission.

A campaign crosses algorithms with network sizes. Each cell gets its own
seeded deployment; a learner cell trains there and is scored by one greedy
rollout, a random-baseline cell by one random rollout with no training.
The results are aggregated into per-figure CSV datasets plus a manifest
that pins every seed. A separate sweep varies the throughput/harvest
weighting, and a geometric sweep produces the coverage-probability table.

Cells are independent and run in a pool of worker processes, one per CPU
(``os.cpu_count()``) unless AQUASWIPT_THREADS sets the count, and never
more than there are cells; at one worker they run in this process.
Results are aggregated in a canonical order so output bytes do not depend
on completion order.
"""

import csv
import dataclasses
import json
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, NamedTuple

import numpy as np

from . import __version__
from .agents import (
    Algorithm,
    EpisodeMetrics,
    LearnConfig,
    greedy_rollout,
    random_rollout,
    train,
)
from .auv import AuvSpec, move_energy
from .checks import NON_NEGATIVE, POSITIVE, UNIT, Bound, check_field_types
from .coverage import SweepRow, coverage_sweep
from .env3d import Environment, EnvConfig


# One row type per dataset: the field names of each are its CSV header.
class GammaRow(NamedTuple):
    gamma: float
    runs: int
    reward_mean: float
    throughput_term_mean: float
    harvest_term_mean: float
    motion_term_mean: float


class ThroughputRow(NamedTuple):
    algorithm: str
    node_count: int
    throughput_mean_bits: float
    throughput_min_bits: float
    throughput_max_bits: float
    runs: int


class ActionsThroughputRow(NamedTuple):
    algorithm: str
    node_count: int
    target_bits: float
    mean_actions: float | None
    reached: bool
    reached_runs: int
    total_runs: int


class EeRow(NamedTuple):
    algorithm: str
    node_count: int
    ee_mean_bits_per_j: float
    ee_ratio_vs_random: float | None


class HarvestRow(NamedTuple):
    algorithm: str
    node_count: int
    harvested_mean_j: float
    harvested_min_j: float
    harvested_max_j: float
    runs: int


class ActionsHarvestRow(NamedTuple):
    algorithm: str
    node_count: int
    target_j: float
    mean_actions: float | None
    reached: bool
    reached_runs: int
    total_runs: int


# Each dataset's file name and row type, in the order the program documents them.
DATASET_ROWS = {
    "fig_coverage.csv": SweepRow,
    "fig_gamma.csv": GammaRow,
    "fig_throughput.csv": ThroughputRow,
    "fig_actions_throughput.csv": ActionsThroughputRow,
    "fig_ee.csv": EeRow,
    "fig_harvest.csv": HarvestRow,
    "fig_actions_harvest.csv": ActionsHarvestRow,
}
DATASET_FILES = tuple(DATASET_ROWS)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign needs; JSON-serializable via the dict helpers.

    The main grid (algorithms x node_counts x runs) uses ``env.reward_gamma``
    and the configured power split. The gamma sweep re-runs Q-learning at
    ``gamma_node_count`` nodes with both the reward weighting and the power
    split set to each swept value, since they alias the same knob.
    """

    env: EnvConfig = field(default_factory=EnvConfig)
    learn: LearnConfig = field(default_factory=LearnConfig)
    algorithms: tuple[str, ...] = ("q_learning", "sarsa", "random")
    node_counts: Annotated[tuple[int, ...], Bound(1)] = (10, 25, 50)
    gamma_sweep: Annotated[tuple[float, ...], UNIT] = (0.0, 0.25, 0.5, 0.75, 1.0)
    mc_runs: Annotated[int, Bound(1)] = 20
    output_dir: str = "results"
    targets_throughput_bits: Annotated[tuple[float, ...], POSITIVE] = ()
    targets_harvest_j: Annotated[tuple[float, ...], POSITIVE] = ()
    gamma_node_count: Annotated[int, Bound(1)] = 25
    gamma_mc_runs: Annotated[int | None, Bound(1)] = None
    coverage_dims: Annotated[tuple[int, int, int] | None, Bound(1)] = None
    coverage_n_values: Annotated[tuple[int, ...], NON_NEGATIVE] = (10, 25, 50)
    coverage_starts: tuple[tuple[float, float], ...] | None = None
    coverage_trials: Annotated[int, Bound(100)] = 2000
    coverage_k_values: Annotated[tuple[int, ...], NON_NEGATIVE] = (1, 2, 4)
    coverage_volume_samples: Annotated[int, Bound(1000)] = 200_000

    def __post_init__(self):
        check_field_types(self)
        for name in ("algorithms", "node_counts"):
            if not getattr(self, name):
                raise ValueError(f"CampaignConfig.{name} must be non-empty")
        known = [a.value for a in Algorithm]
        for name in self.algorithms:
            if name not in known:
                raise ValueError(f"CampaignConfig.algorithms has unknown name {name!r} "
                                 f"(choose from {', '.join(known)})")
        # Cells are seeded and aggregated by algorithm, node count and gamma,
        # actions rows are keyed by target and coverage rows by start, n and
        # k, so a repeated value would merge two differently seeded groups or
        # write one key twice.
        for name in ("algorithms", "node_counts", "gamma_sweep", "targets_throughput_bits",
                     "targets_harvest_j", "coverage_starts", "coverage_n_values",
                     "coverage_k_values"):
            values = getattr(self, name) or ()
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"CampaignConfig.{name} has repeated value {value!r}")


def desk_campaign_config(**overrides) -> CampaignConfig:
    """Campaign defaults sized for a workstation: minutes, not hours.

    A 20 x 20 x 10 m box with a 30-degree footprint keeps coverage scarce
    enough that a random walk rarely stumbles into it, while the state
    space stays small enough for tabular learning to converge in a few
    hundred fixed-start episodes. The hotel load is sized so idling
    against a wall is not near-free, the motion penalty is scaled to a
    tenth of a unit move so steps that serve a covered node score
    positive, and the training discount is shortened to 0.9 so loitering
    (boundary-clamp self-loops) stays visibly below purposeful moves in
    value. The coverage sweep still runs at the full 100 x 100 x 50 m
    geometry via ``coverage_dims``. Keyword overrides replace top-level
    CampaignConfig fields.
    """
    auv = AuvSpec(hotel_load_w=1000.0, cone_apex_angle_deg=30.0)
    env = EnvConfig(
        dims=(20, 20, 10),
        node_count=25,
        episode_length=50,
        rng_seed=0,
        reward_gamma=0.5,
        auv=auv,
        motion_scale=10.0 * move_energy(auv, (0, 0, 0), (1, 0, 0)),
    )
    learn = LearnConfig(
        episodes=400,
        discount=0.9,
        epsilon_decay=0.98,
        epsilon_min=0.01,
        randomize_start=False,
    )
    base = CampaignConfig(
        env=env,
        learn=learn,
        mc_runs=20,
        targets_throughput_bits=(5e5, 1e6, 2e6),
        targets_harvest_j=(2e-8, 5e-8, 1.5e-7),
        coverage_dims=(100, 100, 50),
        coverage_trials=2000,
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def energy_efficiency(throughput_bits: float, total_energy_j: float) -> float:
    """Delivered bits per joule of transmit plus navigation energy.

    No bits score 0.0 whatever the energy: a rollout that spends none, such
    as idle steps against a wall with no hotel load, relays none either,
    since an uplink needs a covered node and costs modem energy.
    """
    if throughput_bits < 0:
        raise ValueError(f"throughput_bits must be >= 0, got {throughput_bits}")
    if throughput_bits == 0:
        return 0.0
    if total_energy_j <= 0:
        raise ValueError(f"total_energy_j must be > 0, got {total_energy_j}")
    return throughput_bits / total_energy_j


def actions_to_target(trace: list[float], target: float) -> int | None:
    """First step (1-based) at which the cumulative sum of the per-step
    ``trace`` reaches target.

    Returns None when the episode never reaches it.
    """
    if target <= 0:
        raise ValueError(f"target must be > 0, got {target}")
    total = 0.0
    for i, value in enumerate(trace):
        total += value
        if total >= target:
            return i + 1
    return None


# ---------------------------------------------------------------------------
# Cell execution


@dataclass(frozen=True)
class _CellSpec:
    kind: str  # "main" or "gamma"
    algorithm: str
    node_count: int
    gamma: float
    run: int
    env_cfg: EnvConfig
    learn_cfg: LearnConfig
    targets_throughput: tuple[float, ...]
    targets_harvest: tuple[float, ...]


@dataclass
class CellResult:
    kind: str
    algorithm: str
    node_count: int
    gamma: float
    run: int
    env_seed: int
    throughput_bits: float
    harvested_j: float
    ee_bits_per_j: float
    reward_total: float
    reward_throughput_term: float
    reward_harvest_term: float
    actions_throughput: list[int | None]
    actions_harvest: list[int | None]

    def sort_key(self):
        return (self.kind, self.algorithm, self.node_count, self.gamma, self.run)


def _derive_seeds(master_seed: int, *key: int) -> tuple[int, int]:
    """Deterministic (env_seed, learn_seed) for one campaign cell."""
    seq = np.random.SeedSequence([master_seed, *key])
    state = seq.generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _seed_key(cell) -> str:
    """The manifest's key of a cell (a spec or a result):
    ``kind/algorithm/node_count/gamma/run``."""
    return f"{cell.kind}/{cell.algorithm}/{cell.node_count}/{cell.gamma}/{cell.run}"


def _play_cell(spec: _CellSpec) -> tuple[EpisodeMetrics, list[tuple]]:
    """The cell's scored episode: the metrics and trajectory of a learner's
    greedy rollout after training, or of the random baseline's rollout."""
    env = Environment(spec.env_cfg)
    algo = Algorithm(spec.algorithm)
    if algo is Algorithm.RANDOM:
        eval_rng = np.random.default_rng([spec.learn_cfg.seed, 99])
        return random_rollout(env, eval_rng)
    q, _ = train(env, algo, spec.learn_cfg)
    return greedy_rollout(env, q)


def _run_cell(spec: _CellSpec) -> CellResult:
    metrics, _ = _play_cell(spec)
    total_energy = metrics.transmit_energy_j + metrics.motion_energy_j
    ee = energy_efficiency(metrics.throughput_bits, total_energy)
    return CellResult(
        kind=spec.kind,
        algorithm=spec.algorithm,
        node_count=spec.node_count,
        gamma=spec.gamma,
        run=spec.run,
        env_seed=spec.env_cfg.rng_seed,
        throughput_bits=metrics.throughput_bits,
        harvested_j=metrics.harvested_j,
        ee_bits_per_j=ee,
        reward_total=metrics.total_reward,
        reward_throughput_term=metrics.reward_throughput_term,
        reward_harvest_term=metrics.reward_harvest_term,
        actions_throughput=[
            actions_to_target(metrics.step_throughput_bits, t) for t in spec.targets_throughput
        ],
        actions_harvest=[
            actions_to_target(metrics.step_harvested_j, t) for t in spec.targets_harvest
        ],
    )


def _build_cell_specs(config: CampaignConfig) -> list[_CellSpec]:
    master = config.env.rng_seed

    def spec(kind, algorithm, node_count, gamma, run, seed_key, targets=((), ()),
             **env_changes):
        env_seed, learn_seed = _derive_seeds(master, *seed_key)
        env_cfg = dataclasses.replace(config.env, node_count=node_count, rng_seed=env_seed,
                                      **env_changes)
        return _CellSpec(kind, algorithm, node_count, gamma, run, env_cfg,
                         dataclasses.replace(config.learn, seed=learn_seed), *targets)

    targets = (tuple(config.targets_throughput_bits), tuple(config.targets_harvest_j))
    specs = [
        spec("main", algorithm, node_count, config.env.reward_gamma, run,
             (0, ai, ni, run), targets)
        for ai, algorithm in enumerate(config.algorithms)
        for ni, node_count in enumerate(config.node_counts)
        for run in range(config.mc_runs)
    ]
    gamma_runs = config.gamma_mc_runs if config.gamma_mc_runs is not None else config.mc_runs
    specs += [
        spec("gamma", Algorithm.Q_LEARNING.value, config.gamma_node_count, gamma, run,
             (1, gi, run), reward_gamma=gamma,
             node_harvest=dataclasses.replace(config.env.node_harvest, split_ratio=gamma))
        for gi, gamma in enumerate(config.gamma_sweep)
        for run in range(gamma_runs)
    ]
    return specs


def _worker_count(cells: int) -> int:
    """Worker processes for ``cells`` cells: ``AQUASWIPT_THREADS`` when set,
    else ``os.cpu_count()``, and never more than ``cells``."""
    raw = os.environ.get("AQUASWIPT_THREADS")
    if raw is None:
        workers = os.cpu_count() or 1
    else:
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"AQUASWIPT_THREADS must be an integer >= 1 (worker processes), got {raw!r}"
            )
    return min(workers, cells)


def _execute_cells(specs: list[_CellSpec], workers: int) -> list[CellResult]:
    if workers > 1:
        # Imported only here, so that importing the package and running at
        # one worker do not load the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, specs))
    return [_run_cell(spec) for spec in specs]


# ---------------------------------------------------------------------------
# Aggregation


@dataclass
class AggregateResult:
    config: CampaignConfig
    raw_cells: list[CellResult]
    datasets: dict[str, list[tuple]]  # each DATASET_FILES name's rows


def _aggregate(config: CampaignConfig, results: list[CellResult]) -> AggregateResult:
    """Every dataset's rows but the coverage sweep's."""
    # One canonical order: float means and the raw cells must not depend on
    # the order cells finished or were listed in.
    results = sorted(results, key=CellResult.sort_key)
    groups: dict[tuple[str, int], list[CellResult]] = {}
    ggroups: dict[float, list[CellResult]] = {}
    for r in results:
        if r.kind == "main":
            groups.setdefault((r.algorithm, r.node_count), []).append(r)
        else:
            ggroups.setdefault(r.gamma, []).append(r)
    datasets = {name: [] for name in DATASET_FILES if name != "fig_coverage.csv"}

    random = Algorithm.RANDOM.value
    ee_means = {key: float(np.mean([r.ee_bits_per_j for r in rs]))
                for key, rs in groups.items()}
    actions = (("fig_actions_throughput.csv", "actions_throughput",
                config.targets_throughput_bits),
               ("fig_actions_harvest.csv", "actions_harvest", config.targets_harvest_j))
    for (algorithm, node_count), rs in sorted(groups.items()):
        tp = [r.throughput_bits for r in rs]
        hv = [r.harvested_j for r in rs]
        ee = ee_means[algorithm, node_count]
        base = ee_means.get((random, node_count))
        datasets["fig_throughput.csv"].append(ThroughputRow(
            algorithm, node_count, float(np.mean(tp)), float(np.min(tp)),
            float(np.max(tp)), len(rs)))
        datasets["fig_ee.csv"].append(EeRow(
            algorithm, node_count, ee, ee / base if base and algorithm != random else None))
        datasets["fig_harvest.csv"].append(HarvestRow(
            algorithm, node_count, float(np.mean(hv)), float(np.min(hv)),
            float(np.max(hv)), len(rs)))
        for name, attr, targets in actions:
            for ti, target in enumerate(targets):
                steps = [getattr(r, attr)[ti] for r in rs]
                reached = [n for n in steps if n is not None]
                datasets[name].append(DATASET_ROWS[name](
                    algorithm, node_count, target,
                    float(np.mean(reached)) if reached else None, bool(reached),
                    len(reached), len(steps)))

    for g, rs in sorted(ggroups.items()):
        tput_terms = [r.reward_throughput_term for r in rs]
        harv_terms = [r.reward_harvest_term for r in rs]
        rewards = [r.reward_total for r in rs]
        # Per step: reward = tput_term + harvest_term - motion_term, exactly.
        motions = [t + h - rw for t, h, rw in zip(tput_terms, harv_terms, rewards)]
        datasets["fig_gamma.csv"].append(GammaRow(
            g, len(rs), float(np.mean(rewards)), float(np.mean(tput_terms)),
            float(np.mean(harv_terms)), float(np.mean(motions))))

    return AggregateResult(config=config, raw_cells=results, datasets=datasets)


def _default_coverage_starts(dims) -> list[tuple[float, float]]:
    l, w, _ = dims
    return [(0.0, 0.0), (l / 4.0, w / 4.0), (l / 2.0, w / 2.0)]


def run_coverage(config: CampaignConfig) -> list[SweepRow]:
    """The campaign's coverage sweep: the cone of ``env.auv`` in the box
    ``coverage_dims``, or ``env.dims`` when that is None."""
    dims = config.coverage_dims or config.env.dims
    starts = (_default_coverage_starts(dims) if config.coverage_starts is None
              else list(config.coverage_starts))
    return coverage_sweep(
        dims, config.env.auv.cone_apex_angle_deg, list(config.coverage_n_values), starts,
        trials=config.coverage_trials, k_values=config.coverage_k_values,
        volume_samples=config.coverage_volume_samples, seed=config.env.rng_seed)


def run_campaign(config: CampaignConfig) -> AggregateResult:
    """Execute the full campaign and emit its datasets to output_dir."""
    specs = _build_cell_specs(config)
    workers = _worker_count(len(specs))
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)  # fail before any cell runs
    results = _execute_cells(specs, workers)
    aggregate = _aggregate(config, results)
    aggregate.datasets["fig_coverage.csv"] = run_coverage(config)
    emit_datasets(aggregate, config.output_dir)
    return aggregate


# ---------------------------------------------------------------------------
# Emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one dataset: floats as ``repr``, None as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_datasets(result: AggregateResult, output_dir) -> list[Path]:
    """Write the per-figure CSVs, the seed manifest, and a column README."""
    if not result.datasets["fig_throughput.csv"]:
        raise ValueError("campaign produced no cells; nothing to emit")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in DATASET_FILES:
        p = out / name
        write_csv(p, DATASET_ROWS[name]._fields, result.datasets[name])
        paths.append(p)

    p = out / "run_manifest.json"
    manifest = {
        "schema": 4,
        "config": campaign_config_to_dict(result.config),
        "seeds": {_seed_key(r): r.env_seed for r in result.raw_cells},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "aquaswipt": __version__,
        },
    }
    with open(p, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    paths.append(p)

    p = out / "README.md"
    with open(p, "w") as fh:
        fh.write(_DATASET_README)
    paths.append(p)
    return paths


_DATASET_README = """\
# Campaign datasets

All CSVs are emitted deterministically: identical (config, seed) pairs
reproduce byte-identical files. `run_manifest.json` (schema 4) echoes the
full config (reusable via `aquaswipt run --config run_manifest.json`), the
derived seed of every cell, and tool versions. An older manifest that
carries a field a later schema dropped is rejected with that field's name.

- `fig_coverage.csv`: start_x, start_y, n, k, p_analytic, p_empirical,
  stderr. Analytic tail probability of covering >= k of n nodes (binomial,
  clipped-cone volume) vs the empirical frequency over seeded placements;
  stderr is the binomial standard error of the empirical column.
- `fig_gamma.csv`: gamma, runs, reward_mean, throughput_term_mean,
  harvest_term_mean, motion_term_mean. Greedy-rollout reward after
  training, split per swept weighting value.
- `fig_throughput.csv`: algorithm, node_count, throughput_mean_bits,
  throughput_min_bits, throughput_max_bits, runs. Rollout bits relayed to
  the surface station at the centre of the surface plane.
- `fig_actions_throughput.csv` / `fig_actions_harvest.csv`: algorithm,
  node_count, target_bits / target_j, mean_actions, reached, reached_runs,
  total_runs. mean_actions averages the first step reaching the target over
  the runs that reached it and is empty when none did (reached = False).
- `fig_ee.csv`: algorithm, node_count, ee_mean_bits_per_j,
  ee_ratio_vs_random. Energy efficiency = rollout bits / (transmit +
  navigation energy); the ratio column is empty for the random baseline.
- `fig_harvest.csv`: algorithm, node_count, harvested_mean_j,
  harvested_min_j, harvested_max_j, runs. Energy banked into node stores.
"""


# ---------------------------------------------------------------------------
# Config (de)serialization


def campaign_config_to_dict(config: CampaignConfig) -> dict:
    return dataclasses.asdict(config)
