"""aquaswipt command line: run campaigns, sweeps, validation, and replays.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import json
import sys
from pathlib import Path

from .agents import QTable, greedy_rollout
from .campaign import (
    CampaignConfig,
    _build_cell_specs,
    campaign_config_to_dict,
    desk_campaign_config,
    run_campaign,
    run_coverage,
    write_csv,
)
from .coverage import SweepRow
from .env3d import Environment, config_from_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquaswipt",
        description="Underwater SWIPT data-collection campaign runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", metavar="PATH",
                       help="campaign config JSON (or a run_manifest.json)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="overrides",
                       help="dotted-path config override, e.g. env.rng_seed=7")
        p.add_argument("--seed", type=int, help="master seed (env and learner)")
        p.add_argument("--runs", type=int, help="Monte-Carlo runs per cell")
        p.add_argument("--algos", help="comma list: q_learning,sarsa,random")
        p.add_argument("--nodes", help="comma list of node counts")
        p.add_argument("--gamma", help="comma list of sweep gamma values")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run the full campaign and emit datasets")
    add_config_flags(p_run)
    p_run.add_argument("--out", metavar="DIR", help="output directory")

    p_cov = sub.add_parser("coverage", help="run only the coverage sweep")
    add_config_flags(p_cov)
    p_cov.add_argument("--out", metavar="DIR", help="output directory")

    p_val = sub.add_parser("validate", help="check a config and exit")
    add_config_flags(p_val)

    p_rep = sub.add_parser("replay", help="greedy rollout from saved artifacts")
    p_rep.add_argument("--qtable", required=True, metavar="PATH")
    p_rep.add_argument("--snapshot", required=True, metavar="PATH")
    p_rep.add_argument("--out", metavar="PATH", help="write rollout JSON here")
    p_rep.add_argument("--quiet", action="store_true")
    return parser


def _set_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot descend into non-object at {key!r} in {dotted!r}")
    node[keys[-1]] = value


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are fine, e.g. output_dir=results
    return key, value


def _load_config(args):
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if "seeds" in doc and "config" in doc:
            doc = doc["config"]  # a run_manifest.json round-trips
    else:
        doc = campaign_config_to_dict(desk_campaign_config())

    for item in args.overrides:
        key, value = _parse_override(item)
        _set_dotted(doc, key, value)
    if args.seed is not None:
        _set_dotted(doc, "env.rng_seed", args.seed)
        _set_dotted(doc, "learn.seed", args.seed)
    if args.runs is not None:
        doc["mc_runs"] = args.runs
    if args.algos:
        doc["algorithms"] = [a.strip() for a in args.algos.split(",") if a.strip()]
    if args.nodes:
        doc["node_counts"] = [int(n) for n in args.nodes.split(",")]
    if args.gamma:
        doc["gamma_sweep"] = [float(g) for g in args.gamma.split(",")]
    if getattr(args, "out", None):
        doc["output_dir"] = args.out
    return config_from_dict(CampaignConfig, doc)


def _cmd_run(args) -> int:
    config = _load_config(args)
    if not args.quiet:
        print(f"running campaign: {len(_build_cell_specs(config))} cells "
              f"-> {config.output_dir}")
    result = run_campaign(config, write=True)
    if not args.quiet:
        for cell in result.cells:
            print(f"  {cell.algorithm:>10} n={cell.node_count:<3} "
                  f"throughput={cell.throughput_mean:.3e} bits "
                  f"ee={cell.ee_mean:.3e} bit/J")
        print(f"datasets written to {config.output_dir}")
    return EXIT_OK


def _cmd_coverage(args) -> int:
    config = _load_config(args)
    rows = run_coverage(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fig_coverage.csv"
    write_csv(path, SweepRow._fields, rows)
    if not args.quiet:
        print(f"coverage sweep ({len(rows)} rows) written to {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args)
    print(f"config OK: {len(config.algorithms)} algorithms, "
          f"node counts {list(config.node_counts)}, {config.mc_runs} runs")
    return EXIT_OK


def _cmd_replay(args) -> int:
    with open(args.snapshot) as fh:
        env = Environment.from_snapshot(json.load(fh))
    table = QTable.load(args.qtable, dims=env.dims)
    env.reset(randomize_start=False)
    metrics, trajectory = greedy_rollout(env, table)
    summary = {
        "steps": metrics.steps,
        "throughput_bits": metrics.throughput_bits,
        "harvested_j": metrics.harvested_j,
        "motion_energy_j": metrics.motion_energy_j,
        "transmit_energy_j": metrics.transmit_energy_j,
        "total_reward": metrics.total_reward,
        "trajectory": [list(p) for p in trajectory],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    if not args.quiet:
        print(f"replay: {metrics.steps} steps, "
              f"{metrics.throughput_bits:.3e} bits relayed, "
              f"{metrics.harvested_j:.3e} J harvested")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "coverage": _cmd_coverage,
        "validate": _cmd_validate,
        "replay": _cmd_replay,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
