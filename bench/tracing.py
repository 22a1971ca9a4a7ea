"""Spans around the program's layers, installed from outside the package.

Each span replaces a function at the name the program looks it up
through (``aquaswipt.env3d.charge``, ``aquaswipt.agents.q_update``, a
method on ``Environment``) and restores it afterwards. A span records its
duration and the time its child spans took, so a layer's self time is its
span time minus the time of its children. Spans are folded into per-name
totals as they close, which keeps memory flat over millions of steps.

``Tracer(full=False)`` installs only the coarse spans the untraced run
needs: to count work, and to cut a repetition into segments at every
tenth env reset and each batch of cone tests, where it measures the
host's speed with ``calibrate_warm``. ``Tracer(full=True)`` adds a span
at every layer boundary, including the per-step ones, and measures no
speed.
"""

import importlib
import sys
import time

CALIBRATION_LOOPS = 20
EDGE_EVERY = 10  # env resets per segment edge


def calibrate() -> float:
    """Seconds a fixed loop of small numpy calls takes, run now.

    On a shared host the speed of a core changes with the load its
    neighbours put on it; on a 2-vCPU Xeon VM it swung between states up
    to 1.8x apart every few seconds. The loop's duration tells how fast the
    code timed next to it ran. Small numpy calls from Python are what the
    simulator's step does; their slowdown tracked an env step's (1.88x
    against 1.80x), where a pure-Python float loop slowed only 1.38x.
    """
    import numpy  # deferred: a setup probe times its own first numpy import

    a = numpy.arange(8.0)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(CALIBRATION_LOOPS):
        acc += float(numpy.sum(a * 2.0))
    return time.perf_counter() - t0


def calibrate_warm() -> tuple[float, float, float]:
    """Start clock, end clock and the fastest of three calibrations.

    Three warm-up calls come first: right after a fresh import, or after
    large arrays went through the caches, the first calls are slower for
    reasons that have nothing to do with the host's state.
    """
    start = time.perf_counter()
    runs = [calibrate() for _ in range(6)]
    return start, time.perf_counter(), min(runs[3:])


class Tracer:
    def __init__(self, full: bool):
        self.full = full
        self._stack = []    # one [child_s, channel_children] frame per open span
        self._records = {}  # span name -> [calls, total_s, self_s]
        self._patches = []  # (owner, attribute, original)
        self.missing = []   # span targets the program no longer has
        self.reset()

    def reset(self) -> None:
        """Zero every total before a repetition; wrappers stay installed."""
        for rec in self._records.values():
            rec[:] = [0, 0.0, 0.0]
        self.env_steps = 0
        self.qtable_states = 0
        self.links_misses = 0
        self.links_miss_s = 0.0
        self.points_tested = 0
        self.cell_s = []
        self.edges = []  # calibrate_warm() results at each segment edge
        self._resets = 0

    # ------------------------------------------------------------------

    def _sum(self, prefix: str, field: int):
        """Sum over the span ``prefix`` and every span named ``prefix.*``."""
        return sum(rec[field] for name, rec in self._records.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(self, prefix: str) -> int:
        return self._sum(prefix, 0)

    def total_s(self, prefix: str) -> float:
        return self._sum(prefix, 1)

    def self_s(self, prefix: str) -> float:
        return self._sum(prefix, 2)

    # ------------------------------------------------------------------

    def _wrap(self, name, fn, after):
        rec = self._records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        is_channel = name.startswith("channel.")

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += is_channel
            if after is not None:
                after(args, result, dt, frame)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, target: str, name: str, after=None) -> None:
        """Wrap ``module.attr`` or ``module.Class.attr`` as span ``name``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(target)
            return
        setattr(owner, attr, self._wrap(name, original, after))
        self._patches.append((owner, attr, original))

    # after-hooks: counts taken from the calls' own arguments and results

    def _after_train(self, args, result, dt, frame):
        table, trace = result
        self.env_steps += sum(m.steps for m in trace)
        self.qtable_states += len(table)

    def _after_rollout(self, args, result, dt, frame):
        self.env_steps += result[0].steps

    def _after_points(self, args, result, dt, frame):
        self.points_tested += len(args[1])
        self._after_edge()

    def _after_links(self, args, result, dt, frame):
        if frame[1]:
            self.links_misses += 1
            self.links_miss_s += dt

    def _after_cell(self, args, result, dt, frame):
        self.cell_s.append(dt)

    def _after_reset(self, *_):
        self._resets += 1
        if self._resets % EDGE_EVERY == 0:
            self._after_edge()

    def _after_edge(self, *_):
        if not self.full:
            self.edges.append(calibrate_warm())

    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        p = self._patch
        # Coarse spans: enough to count env steps, cells and cone tests, and
        # to cut a repetition into segments.
        p("aquaswipt.cli:run_campaign", "campaign.run")
        p("aquaswipt.env3d:Environment.reset", "env3d.reset", self._after_reset)
        for mod in ("aquaswipt.agents", "aquaswipt.campaign"):
            p(f"{mod}:train", "agents.train", self._after_train)
            p(f"{mod}:greedy_rollout", "agents.rollout", self._after_rollout)
        p("aquaswipt.campaign:random_rollout", "agents.rollout", self._after_rollout)
        p("aquaswipt.campaign:coverage_sweep", "coverage.sweep")
        p("aquaswipt.coverage:points_in_cone", "coverage.points_in_cone",
          self._after_points)
        if not self.full:
            return self
        p("aquaswipt.cli:main", "cli.main")
        p("aquaswipt.campaign:_run_cell", "campaign.cell", self._after_cell)
        p("aquaswipt.campaign:_aggregate", "campaign.aggregate")
        p("aquaswipt.campaign:emit_datasets", "campaign.emit")
        p("aquaswipt.campaign:run_coverage", "campaign.run_coverage")
        p("aquaswipt.campaign:sweep_to_csv", "coverage.sweep_to_csv")
        p("aquaswipt.coverage:clipped_cone_volume_mc", "coverage.volume_mc")
        p("aquaswipt.agents:select_action", "agents.select_action")
        p("aquaswipt.agents:q_update", "agents.update")
        p("aquaswipt.agents:sarsa_update", "agents.update")
        p("aquaswipt.agents:QTable.save", "agents.qtable_save")
        p("aquaswipt.env3d:Environment.__init__", "env3d.deploy")
        p("aquaswipt.env3d:Environment.step", "env3d.step")
        p("aquaswipt.env3d:Environment.encode_state", "env3d.encode_state")
        p("aquaswipt.env3d:Environment._links", "env3d.links", self._after_links)
        for fn in ("charge", "split_power", "harvestable_power"):
            p(f"aquaswipt.env3d:{fn}", f"harvest.{fn}")
        p("aquaswipt.env3d:move_energy", "auv.move_energy")
        for fn in ("transmission_loss_db", "shannon_throughput_bps",
                   "noise_level_db", "source_level"):
            p(f"aquaswipt.env3d:{fn}", f"channel.{fn}")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        if self.missing:
            print(f"tracing: not found, spans skipped: {', '.join(self.missing)}",
                  file=sys.stderr)
