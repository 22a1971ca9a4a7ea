"""The program names the benchmark in ``bench/`` drives must keep existing.

``bench/tracing.py`` wraps program functions by name from outside the
package and skips, with a note, any name it cannot find. Its coarse spans
count the work and cut the timed segments of an untraced run, so a renamed
or deleted target would silently skew ``work_per_s`` and ``wall_s``.
``bench/workloads.py`` builds each workload's config through public names
and the setup probe deploys its first environment. A shrunken repetition
of every workload must produce its outputs and count its work.
"""

import dataclasses
from pathlib import Path

import pytest

import aquaswipt
import aquaswipt.campaign
import aquaswipt.coverage

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
WORKLOAD_NAMES = ["desk-campaign", "table-explore", "coverage-sweep"]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing
    import workloads

    return tracing, workloads


def test_coarse_spans_find_every_target(bench):
    tracing, _ = bench
    tracer = tracing.Tracer(full=False)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_full_trace_misses_only_the_known_stale_targets(bench):
    # The per-layer link, channel and harvest numbers come from the full
    # trace's spans. These six targets were deleted from the program or are
    # no longer called through the traced name, and the bench has not caught
    # up yet; any other missing target would zero a metric unnoticed.
    tracing, _ = bench
    tracer = tracing.Tracer(full=True)
    tracer.install()
    try:
        assert sorted(tracer.missing) == sorted([
            "aquaswipt.campaign:sweep_to_csv",
            "aquaswipt.agents:select_action",
            "aquaswipt.agents:q_update",
            "aquaswipt.agents:sarsa_update",
            "aquaswipt.env3d:Environment.encode_state",
            "aquaswipt.env3d:charge",
        ])
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_config_deploys(bench, name):
    _, workloads = bench
    workload = workloads.WORKLOADS[name]
    env = aquaswipt.deploy(workload.first_env(workload.config(0)))
    assert len(env.node_pos) > 0


def _shrunk(config):
    """A workload config cut to 2 training episodes and the least coverage sampling."""
    if isinstance(config, tuple):  # table-explore: (EnvConfig, LearnConfig)
        env, learn = config
        return env, dataclasses.replace(learn, episodes=2)
    return dataclasses.replace(
        config,
        learn=dataclasses.replace(config.learn, episodes=2),
        coverage_trials=100,
        coverage_volume_samples=1000,
    )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_smoke_run_counts_work(bench, name, tmp_path, monkeypatch):
    tracing, workloads = bench
    workload = workloads.WORKLOADS[name]
    config = _shrunk(workload.config(0))
    monkeypatch.setenv("AQUASWIPT_THREADS", "1")  # spans count in this process only
    workload.prepare(config, tmp_path)
    with tracing.Tracer(full=False) as tracer:
        digests = workload.run(config, tmp_path)
    assert set(digests) == set(workload.outputs)
    assert getattr(tracer, workload.work) > 0


def test_desk_smoke_run_counts_every_step_and_reset(bench, tmp_path, monkeypatch):
    """``wall_s`` segments are cut at env resets and ``work_per_s`` counts the
    steps the trainer and rollouts report, so both counts must be exact."""
    tracing, workloads = bench
    workload = workloads.WORKLOADS["desk-campaign"]
    config = _shrunk(workload.config(0))
    specs = aquaswipt.campaign._build_cell_specs(config)
    learner_cells = sum(1 for spec in specs if spec.algorithm != "random")
    assert (len(specs), learner_cells) == (14, 11)
    episodes, length = config.learn.episodes, config.env.episode_length
    monkeypatch.setenv("AQUASWIPT_THREADS", "1")
    workload.prepare(config, tmp_path)
    with tracing.Tracer(full=False) as tracer:
        workload.run(config, tmp_path)
    # Every training episode and every rollout runs to the episode length.
    assert tracer.env_steps == learner_cells * episodes * length + len(specs) * length
    # One reset per training episode, per rollout, and at each env's construction.
    assert tracer._resets == learner_cells * episodes + 2 * len(specs)


def test_table_smoke_run_counts_every_step_and_reset(bench, tmp_path):
    """The table workload trains from random starts, so its reset count also
    checks that each episode starts from the state ``reset`` returns."""
    tracing, workloads = bench
    workload = workloads.WORKLOADS["table-explore"]
    config = _shrunk(workload.config(0))
    episodes, length = config[1].episodes, config[0].episode_length
    workload.prepare(config, tmp_path)
    with tracing.Tracer(full=False) as tracer:
        workload.run(config, tmp_path)
    # Training episodes and the greedy rollout all run to the episode length.
    assert tracer.env_steps == (episodes + 1) * length
    # One reset per training episode, one for the rollout, one at construction.
    assert tracer._resets == episodes + 2


def test_coverage_smoke_run_tests_every_point_once(bench, tmp_path):
    """``work_per_s`` counts the points each ``points_in_cone`` call tests, and
    ``wall_s`` segments are cut at its returns, so blocked sampling must send
    every point through the traced predicate exactly once."""
    tracing, workloads = bench
    workload = workloads.WORKLOADS["coverage-sweep"]
    # Sized so the volume estimate and the largest node count span blocks.
    config = dataclasses.replace(
        workload.config(0),
        coverage_trials=1000,
        coverage_volume_samples=2 * aquaswipt.coverage._BLOCK_POINTS + 1,
    )
    starts = len(aquaswipt.campaign._default_coverage_starts(config.coverage_dims))
    with tracing.Tracer(full=False) as tracer:
        workload.run(config, tmp_path)
    n_values = config.coverage_n_values
    assert tracer.points_tested == starts * (
        config.coverage_volume_samples + config.coverage_trials * sum(n_values)
    )
    # More calls than one per sampled array: the samples went in blocks.
    assert tracer.calls("coverage.points_in_cone") > starts * (1 + len(n_values))
