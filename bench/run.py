"""aquaswipt benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload desk-campaign --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload table-explore --seed 3 --seconds 30 --trace 1
    AQUASWIPT_THREADS=2 python3 bench/run.py --reference

One run repeats its workload until ``--seconds`` are used up (at least twice,
so two back-to-back repetitions can be compared) and reports medians. With
``--trace 0`` it reports the ``end_to_end`` metrics named in BENCHMARK.json;
with ``--trace 1`` it runs one untraced repetition and then traced ones, and
reports the ``per_layer`` metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Every run
also writes a record with the host details and output digests under
``.bench_work/results/``.

``--reference`` runs the full default desk campaign once and checks all seven
CSVs against the reference digests in pins.json. It is not one of the
repeated workloads.

Everything the benchmark reads and writes stays inside the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH_DIR / "pins.json"
WORKLOAD_NAMES = ("desk-campaign", "table-explore", "coverage-sweep")
LAYERS = ("channel", "harvest", "auv", "env3d", "agents", "coverage", "campaign", "cli")

SETUP_PROBES = 7       # fresh interpreters per run; setup_s is their median
# calibrate_warm() in a quiet moment on the 2-vCPU Xeon VM the benchmark was
# written on: wall_s is in seconds of a host that runs the loop this fast.
REFERENCE_CALIBRATION_S = 72e-6
MIN_REPS = 2          # back-to-back repetitions a run always makes
TIME_CAP_S = 150.0    # no repetition starts that would end after this


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="run the full default desk campaign and check its pins")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _median(values):
    return statistics.median(values) if values else 0.0


def _host(threads_found, workers):
    import numpy

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "aquaswipt_threads_found": threads_found,
        "campaign_workers": workers,
    }


def _set_workers(requested):
    """Point the campaign at ``requested`` worker processes, never more than nproc."""
    workers = max(1, min(requested, os.cpu_count() or 1))
    os.environ["AQUASWIPT_THREADS"] = str(workers)
    return workers


# ---------------------------------------------------------------------------
# setup_s: import, config and first deploy, each in a fresh interpreter


def _setup_probe(name, seed):
    t0 = time.perf_counter()
    import aquaswipt
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    aquaswipt.deploy(workload.first_env(workload.config(seed)))
    print(repr(time.perf_counter() - t0))
    return 0


def _measure_setup(name, seed):
    """Median setup time over probes, each in its own interpreter.

    Import work is bound by memory and page faults, and its slowdowns on a
    shared host did not follow the calibration loop, so it is not scaled.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    samples = []
    # The first probe also compiles the bytecode caches; it is not counted.
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return _median(samples)


# ---------------------------------------------------------------------------
# Repetitions and output checks


class OutputCheck:
    """Counts outputs checked and failed against the pins or the first repetition."""

    def __init__(self, workload, expected):
        self.names = workload.outputs
        self.expected = expected  # None until a repetition sets it (unpinned seed)
        self.attempted = 0
        self.failed = 0
        self.digests = None

    def check(self, digests):
        self.attempted += len(self.names)
        if digests is None:  # the repetition raised
            self.failed += len(self.names)
            return
        self.digests = digests
        if self.expected is None:
            self.expected = digests
            return
        bad = [n for n in self.names if digests.get(n) != self.expected.get(n)]
        for n in bad:
            print(f"output mismatch: {n} {digests.get(n)} != {self.expected.get(n)}",
                  file=sys.stderr)
        self.failed += len(bad)


def _repetition(workload, config, workdir, tracer, check):
    """Run once; return the wall time and its (seconds, calibration) segments."""
    from tracing import calibrate_warm

    tracer.reset()
    first = calibrate_warm()
    t0 = time.perf_counter()
    try:
        digests = workload.run(config, workdir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        digests = None
    check.check(digests)
    end = time.perf_counter()
    edges = [first, *tracer.edges, calibrate_warm()]
    segments = [(b[0] - a[1], (a[2] + b[2]) / 2) for a, b in zip(edges, edges[1:])]
    return end - t0, segments


def _steady_total(segments):
    """One repetition's time at the reference speed, median over repetitions.

    Each segment's time is multiplied by ``REFERENCE_CALIBRATION_S`` over
    the calibration measured around it, which takes out the host's speed
    swings while the segment ran.
    """
    return _median([sum(d * REFERENCE_CALIBRATION_S / c for d, c in rep)
                    for rep in segments])


def _repeat(workload, config, workdir, tracer, check, seconds, min_reps, on_rep):
    start = time.perf_counter()
    walls = []
    while True:
        wall, segments = _repetition(workload, config, workdir, tracer, check)
        walls.append(wall)
        on_rep(tracer, wall, segments)
        elapsed = time.perf_counter() - start
        next_end = elapsed + _median(walls)
        if next_end > TIME_CAP_S or (len(walls) >= min_reps and next_end > seconds):
            return walls


def _rates(tracer):
    """Work rates a user sees; only those whose work happened in the repetition."""
    rates = {}
    step_s = tracer.total_s("agents.train") + tracer.total_s("agents.rollout")
    if tracer.env_steps and step_s > 0:
        rates["env_steps_per_s"] = tracer.env_steps / step_s
    campaign_s = tracer.total_s("campaign.run")
    if campaign_s > 0:
        rates["cells_per_s"] = tracer.calls("agents.train") / campaign_s
    sweep_s = tracer.total_s("coverage.sweep")
    if tracer.points_tested and sweep_s > 0:
        rates["coverage_points_per_s"] = tracer.points_tested / sweep_s
    return rates


def _layer_metrics(t, wall, workdir, emitted_bytes):
    links = t.calls("env3d.links")
    m = {
        "channel.calls": t.calls("channel"),
        "env3d.links.calls": links,
        "env3d.links.misses": t.links_misses,
        "env3d.links.hit_ratio": 1.0 - t.links_misses / links if links else 0.0,
        "env3d.links.miss_s": t.links_miss_s,
        "env3d.step.calls": t.calls("env3d.step"),
        "env3d.step.self_s": t.self_s("env3d.step"),
        "env3d.encode_state.self_s": t.self_s("env3d.encode_state"),
        "env3d.deploy.calls": t.calls("env3d.deploy"),
        "env3d.deploy.self_s": t.self_s("env3d.deploy"),
        "harvest.charge.calls": t.calls("harvest.charge"),
        "harvest.split_power.calls": t.calls("harvest.split_power"),
        "harvest.harvestable_power.calls": t.calls("harvest.harvestable_power"),
        "auv.move_energy.calls": t.calls("auv.move_energy"),
        "agents.select_action.calls": t.calls("agents.select_action"),
        "agents.select_action.self_s": t.self_s("agents.select_action"),
        "agents.update.calls": t.calls("agents.update"),
        "agents.update.self_s": t.self_s("agents.update"),
        "agents.train.self_s": t.self_s("agents.train"),
        "agents.rollout_s": t.total_s("agents.rollout"),
        "agents.qtable_states": t.qtable_states,
        "campaign.aggregate_s": t.total_s("campaign.aggregate"),
        "campaign.emit_s": t.total_s("campaign.emit"),
        "campaign.emit_bytes": emitted_bytes(workdir),
        "coverage.sweep_s": t.total_s("coverage.sweep"),
        "coverage.volume_mc_s": t.total_s("coverage.volume_mc"),
        "coverage.points_in_cone.calls": t.calls("coverage.points_in_cone"),
        "coverage.points_tested": t.points_tested,
        "cli.config_s": t.self_s("cli.main"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(t.self_s(layer) for layer in LAYERS),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.self_s(layer)
    return m


def _percentile_90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _run_workload(args, pins):
    from tracing import Tracer
    from workloads import WORKLOADS, emitted_bytes

    workload = WORKLOADS[args.workload]
    pinned = args.seed == pins["seed"]
    expected = pins["workloads"][workload.name] if pinned else None
    check = OutputCheck(workload, expected)
    workdir = WORK / workload.name
    config = workload.config(args.seed)
    workload.prepare(config, workdir)

    metrics = {}
    notes = {}
    if args.trace == 0:
        rates = []
        segments = []
        work = []

        def on_rep(t, wall, cuts):
            rates.append(_rates(t))
            segments.append(cuts)
            work.append(getattr(t, workload.work))

        with Tracer(full=False) as tracer:
            walls = _repeat(workload, config, workdir, tracer, check, args.seconds,
                            MIN_REPS, on_rep)
        metrics["setup_s"] = _measure_setup(workload.name, args.seed)
        metrics["wall_s"] = _steady_total(segments)
        metrics["work_per_s"] = work[0] / metrics["wall_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        notes.update({k: _median([r[k] for r in rates if k in r])
                      for k in sorted({k for r in rates for k in r})})
        notes.update(reps=len(walls), wall_median_s=_median(walls),
                     segments=len(segments[0]),
                     calibration_median_s=_median([c for rep in segments for _, c in rep]))
    else:
        with Tracer(full=False) as tracer:
            untraced, _ = _repetition(workload, config, workdir, tracer, check)
        samples = []
        cell_s = []

        def on_rep(t, wall, _cuts):
            samples.append(_layer_metrics(t, wall, workdir, emitted_bytes))
            cell_s.extend(t.cell_s)

        with Tracer(full=True) as tracer:
            _repeat(workload, config, workdir, tracer, check,
                    args.seconds - untraced, 1, on_rep)
        for name, first in samples[0].items():
            # Counts repeat exactly across repetitions; times vary.
            metrics[name] = first if isinstance(first, int) else _median(
                [s[name] for s in samples])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["campaign.cells"] = len(cell_s) // len(samples)
        metrics["campaign.cell_s.p50"] = _median(cell_s)
        metrics["campaign.cell_s.p90"] = _percentile_90(cell_s)
        notes = {"reps": len(samples), "untraced_wall_s": untraced,
                 "cell_samples": len(cell_s)}
        if tracer.missing:
            notes["spans_missing"] = tracer.missing
    return metrics, notes, check, pinned


def _self_time_ok(metrics, bound):
    """Layer self times must account for the traced wall time within ``bound``."""
    share = metrics["trace.unattributed_s"] / metrics["trace.wall_s"]
    if abs(share) > bound:
        print(f"self-time check failed: {share:.1%} of the traced wall time is "
              f"outside every layer (bound {bound:.0%})", file=sys.stderr)
        return False
    return True


def _emit(args, spec, metrics, notes, check, host, pinned, pins):
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"benchmark computed no value for: {', '.join(missing)}")
    correct = check.failed == 0
    if args.trace:
        bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["wall_s"]
        correct = _self_time_ok(metrics, bound) and correct
    versions_match = (host["python"], host["numpy"]) == (pins["python"], pins["numpy"])
    if pinned and check.failed and not versions_match:
        print(f"note: pins were taken with Python {pins['python']} and numpy "
              f"{pins['numpy']}", file=sys.stderr)
    failed_ratio = check.failed / check.attempted if check.attempted else 1.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "checked_against": "pins" if pinned else "first repetition",
        "failed_ratio": failed_ratio,
        "digests": check.digests,
        "host": host,
        "notes": notes,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"host: {json.dumps(host, sort_keys=True)}")
    summary = {k: v for k, v in notes.items() if isinstance(v, (int, float))}
    summary["failed_ratio"] = failed_ratio
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


def _reference(pins, threads_found):
    import aquaswipt.cli
    from workloads import DATASET_FILES

    requested = int(threads_found) if (threads_found or "").isdigit() else 1
    workers = _set_workers(requested)
    out = WORK / "reference"
    t0 = time.perf_counter()
    code = aquaswipt.cli.main(["run", "--out", str(out), "--quiet"])
    wall = time.perf_counter() - t0
    digests = ({n: hashlib.sha256((out / n).read_bytes()).hexdigest()
                for n in DATASET_FILES} if code == 0 else {})
    expected = pins["reference"]["digests"]
    bad = sorted(n for n in expected if digests.get(n) != expected[n])
    record = {
        "reference": pins["reference"]["description"],
        "correct": code == 0 and not bad,
        "mismatched": bad,
        "wall_s": wall,
        "digests": digests,
        "host": _host(threads_found, workers),
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "reference.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "aquaswipt" / "__init__.py").is_file():
        print(f"no aquaswipt sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(PINS.read_text())
    threads_found = os.environ.get("AQUASWIPT_THREADS")
    if args.reference:
        return _reference(pins, threads_found)

    # The workloads always run cells in-process, so runs stay comparable
    # whatever the caller's environment sets.
    workers = _set_workers(1)
    metrics, notes, check, pinned = _run_workload(args, pins)
    _emit(args, spec, metrics, notes, check, _host(threads_found, workers), pinned, pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
