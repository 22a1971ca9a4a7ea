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
