"""The program names the benchmark in ``bench/`` drives must keep existing.

``bench/tracing.py`` wraps program functions by name from outside the
package and skips, with a note, any name it cannot find. Its coarse spans
count the work and cut the timed segments of an untraced run, so a renamed
or deleted target would silently skew ``work_per_s`` and ``wall_s``.
``bench/workloads.py`` builds each workload's config through public names
and the setup probe deploys its first environment.
"""

from pathlib import Path

import pytest

import aquaswipt

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


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


@pytest.mark.parametrize("name", ["desk-campaign", "table-explore", "coverage-sweep"])
def test_workload_config_deploys(bench, name):
    _, workloads = bench
    workload = workloads.WORKLOADS[name]
    env = aquaswipt.deploy(workload.first_env(workload.config(0)))
    assert len(env.node_pos) > 0
