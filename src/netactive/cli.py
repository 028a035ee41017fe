"""Command-line entry points: run experiments, generate synthetic data,
export query-geography scatters.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller sets another count: a second OpenBLAS
# thread competes with the MC-scoring tile threads (bayesian.mc_predict) and
# with neighbours on a small machine.  Set before the imports below load numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402

from .config import ConfigError, ExperimentConfig, parse_config, validate_config  # noqa: E402
from .runner import export_query_geography, run_experiment  # noqa: E402
from .synth import generate_synthetic_dataset, write_synthetic_csv  # noqa: E402


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netactive",
        description="Cost-aware active learning for network telemetry regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured strategy comparison")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--seed", type=int, help="override: run this single master seed")
    run.add_argument("--strategy", help="override: run this single strategy")
    run.add_argument("--iterations", type=int, help="override: loop iterations")
    run.add_argument("--batch-size", type=int, help="override: annotation batch size")
    run.add_argument("--output", help="override: output directory")

    synth = sub.add_parser("synth", help="generate a synthetic telemetry CSV")
    synth.add_argument("--config", required=True, help="config file (world settings)")
    synth.add_argument("--n", type=int, required=True, help="number of samples")
    synth.add_argument("--out", required=True, help="destination CSV path")

    geo = sub.add_parser("geo", help="export per-iteration query geography CSVs")
    geo.add_argument("--run", required=True, help="directory holding run artifacts")
    geo.add_argument("--lon-col", type=int, required=True, help="longitude feature index")
    geo.add_argument("--lat-col", type=int, required=True, help="latitude feature index")
    geo.add_argument("--output", help="destination directory (default <run>/geography)")
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seeds"] = str(args.seed)
    if args.strategy is not None:
        updates["strategies"] = args.strategy
    if args.iterations is not None:
        updates["iterations"] = args.iterations
    if args.batch_size is not None:
        updates["batch_size"] = args.batch_size
    if args.output is not None:
        updates["output_dir"] = args.output
    if not updates:
        return config
    config = dataclasses.replace(config, **updates)
    validate_config(config, source="<cli overrides>")
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _apply_overrides(parse_config(args.config), args)
        elif args.command == "synth":
            config = parse_config(args.config)
        else:
            config = None
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            outcome = run_experiment(config)
            print(f"wrote artifacts to {outcome['output_dir']}")
        elif args.command == "synth":
            from .runner import build_world

            samples = generate_synthetic_dataset(build_world(config), args.n, config.world_seed)
            write_synthetic_csv(samples, args.out)
            print(f"wrote {len(samples)} samples to {args.out}")
        else:
            written = export_query_geography(args.run, args.lon_col, args.lat_col, args.output)
            print(f"wrote {len(written)} geography files")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
