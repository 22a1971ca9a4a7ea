"""aquaswipt command line: run campaigns, sweeps, validation, and replays.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import json
import sys
from pathlib import Path

from .agents import Algorithm
from .campaign import (
    DATASET_ROWS,
    CampaignConfig,
    _build_cell_specs,
    _play_cell,
    _seed_key,
    campaign_config_to_dict,
    desk_campaign_config,
    run_campaign,
    run_coverage,
    write_csv,
)
from .checks import config_from_dict

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
        p.add_argument("--quiet", action="store_true")

    def add_grid_flags(p):
        # The campaign's cells; the coverage sweep reads none of these.
        p.add_argument("--runs", type=int, help="Monte-Carlo runs per cell")
        p.add_argument("--algos", help="comma list: q_learning,sarsa,random")
        p.add_argument("--nodes", help="comma list of node counts")
        p.add_argument("--gamma", help="comma list of sweep gamma values")

    p_run = sub.add_parser("run", help="run the full campaign and emit datasets")
    add_config_flags(p_run)
    add_grid_flags(p_run)
    p_run.add_argument("--out", metavar="DIR", help="output directory")

    p_cov = sub.add_parser("coverage", help="run only the coverage sweep")
    add_config_flags(p_cov)
    p_cov.add_argument("--out", metavar="DIR", help="output directory")

    p_val = sub.add_parser("validate", help="check a config and exit")
    add_config_flags(p_val)
    add_grid_flags(p_val)

    p_rep = sub.add_parser(
        "replay", help="re-run one campaign cell from its run manifest",
        description="Rebuild one cell of the campaign that a run_manifest.json "
                    "records, run it as the campaign does (training, then the scored "
                    "rollout) and report that rollout. The cell's env seed, derived "
                    "from the manifest's config, must equal the one its seeds record.")
    p_rep.add_argument("--manifest", required=True, metavar="PATH",
                       help="run_manifest.json written by aquaswipt run")
    p_rep.add_argument("--cell", required=True, metavar="KEY",
                       help="the cell's key in the manifest's seeds, "
                            "kind/algorithm/node_count/gamma/run")
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


def _comma_list(flag: str, raw: str, convert, kind: str) -> list:
    """The items of the comma list ``raw`` given to ``flag``, each made a
    ``kind`` by ``convert``; ``ValueError`` names the flag and its value."""
    try:
        return [convert(item) for item in raw.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects a comma list of {kind}, got {raw!r}") from None


def _load_config(args):
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config} does not hold a JSON object")
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
    if getattr(args, "runs", None) is not None:
        doc["mc_runs"] = args.runs
    if getattr(args, "algos", None) is not None:
        names = [a.strip() for a in args.algos.split(",")] if args.algos.strip() else []
        if "" in names:
            raise ValueError("--algos expects a comma list of algorithm names, "
                             f"got {args.algos!r}")
        doc["algorithms"] = names
    if getattr(args, "nodes", None) is not None:
        doc["node_counts"] = _comma_list("--nodes", args.nodes, int, "integers")
    if getattr(args, "gamma", None) is not None:
        doc["gamma_sweep"] = _comma_list("--gamma", args.gamma, float, "numbers")
    if getattr(args, "out", None):
        doc["output_dir"] = args.out
    return config_from_dict(CampaignConfig, doc)


def _cmd_run(args) -> int:
    config = _load_config(args)
    if not args.quiet:
        print(f"running campaign: {len(_build_cell_specs(config))} cells "
              f"-> {config.output_dir}")
    result = run_campaign(config)
    if not args.quiet:
        throughput = result.datasets["fig_throughput.csv"]
        ee = result.datasets["fig_ee.csv"]
        for t, e in zip(throughput, ee):
            print(f"  {t.algorithm:>10} n={t.node_count:<3} "
                  f"throughput={t.throughput_mean_bits:.3e} bits "
                  f"ee={e.ee_mean_bits_per_j:.3e} bit/J")
        print(_headline(throughput, ee))
        print(f"datasets written to {config.output_dir}")
    return EXIT_OK


# The paper's headline: up to 207% higher energy efficiency than the random
# trajectory, an EE ratio of 3.07.
PAPER_EE_RATIO = 3.07


def _headline(throughput, ee) -> str:
    """The run's best EE ratio over the random baseline beside the paper's,
    from the rows of ``fig_throughput.csv`` and ``fig_ee.csv``.

    A learner's ratio is undefined at a node count whose random cells all
    scored EE 0; the line names each such node count with that cell count.
    """
    random = Algorithm.RANDOM.value
    learned = {e.node_count for e in ee if e.algorithm != random}
    undefined = [f"n={e.node_count} (all {t.runs} random cells scored EE 0)"
                 for t, e in zip(throughput, ee)
                 if e.algorithm == random and e.ee_mean_bits_per_j == 0.0
                 and e.node_count in learned]
    rated = [e for e in ee if e.ee_ratio_vs_random is not None]
    parts = []
    if rated:
        best = max(rated, key=lambda e: e.ee_ratio_vs_random)
        parts.append(f"{best.ee_ratio_vs_random:.2f} "
                     f"({(best.ee_ratio_vs_random - 1.0) * 100.0:.0f}% improvement, "
                     f"{best.algorithm} n={best.node_count})")
    if undefined:
        parts.append("undefined at " + ", ".join(undefined))
    ratio = "; ".join(parts) or "none (no learner with a random baseline)"
    return (f"best EE ratio vs random: {ratio}; paper: up to {PAPER_EE_RATIO:.2f} "
            f"({(PAPER_EE_RATIO - 1.0) * 100.0:.0f}% improvement)")


def _cmd_coverage(args) -> int:
    config = _load_config(args)
    rows = run_coverage(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fig_coverage.csv"
    write_csv(path, DATASET_ROWS[path.name]._fields, rows)
    if not args.quiet:
        print(f"coverage sweep ({len(rows)} rows) written to {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args)
    if not args.quiet:
        print(f"config OK: {len(config.algorithms)} algorithms, "
              f"node counts {list(config.node_counts)}, {config.mc_runs} runs")
    return EXIT_OK


def _cmd_replay(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    for name in ("seeds", "config"):
        if not isinstance(manifest, dict) or name not in manifest:
            raise ValueError(f"{args.manifest} is not a run manifest: it lacks the "
                             f"field {name!r}")
    config = config_from_dict(CampaignConfig, manifest["config"])
    spec = next((s for s in _build_cell_specs(config) if _seed_key(s) == args.cell), None)
    if spec is None:
        raise ValueError(f"the manifest's campaign has no cell {args.cell!r} "
                         "(keys are kind/algorithm/node_count/gamma/run)")
    seeds = manifest["seeds"]
    recorded = seeds.get(args.cell) if isinstance(seeds, dict) else None
    if recorded != spec.env_cfg.rng_seed:
        raise ValueError(f"cell {args.cell!r}: the manifest's seeds record env seed "
                         f"{recorded!r}, its config derives {spec.env_cfg.rng_seed}")
    metrics, trajectory = _play_cell(spec)
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
        print(f"replay {args.cell}: {metrics.steps} steps, "
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
