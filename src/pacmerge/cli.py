"""Command-line interface.

Verbs: ``gen-pool`` (build and persist the source-model pool), ``certify``
(run a scenario end to end), ``sweep`` (run a data-size sweep scenario),
``report`` (re-render a stored run record).  Exit codes: 0 success,
2 configuration or file-format error, or diverged training.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, FormatError, TrainingDiverged
from .harness import (
    build_world,
    load_config_file,
    load_record,
    make_config,
    run,
    write_report,
)


def _config_from_args(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        config = load_config_file(args.config, scenario=args.scenario)
        if overrides:
            merged = dict(config.values)
            merged.update(overrides)
            return make_config(None, merged)
        return config
    return make_config(args.scenario, overrides)


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--scenario", metavar="NAME", help="shipped scenario name")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the master seed")


def cmd_gen_pool(args) -> int:
    config = _config_from_args(args)
    from pathlib import Path

    cache = Path(args.out) / "pools"
    world = build_world(config, cache)
    print(f"pool {config.pool_hash}: M={world.pool.M} members, "
          f"{world.pool.base.size} parameters -> {cache / config.pool_hash}")
    return 0


def cmd_certify(args) -> int:
    config = _config_from_args(args)
    record = run(config, args.out)
    print(f"{config['scenario']} ({config.hash}): {len(record.records)} certificates "
          f"in {record.wall_time_s:.1f}s -> {args.out}")
    if config["kind"] == "validity":
        violations = sum(r.provenance["violation"] for r in record.records)
        print(f"violations: {violations}/{len(record.records)} (delta {config['bound.delta']})")
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    if config["kind"] != "sweep":
        raise ConfigError("kind", f"scenario {config['scenario']!r} is not a sweep")
    return cmd_certify(args)


def cmd_report(args) -> int:
    record = load_record(args.record)
    path = write_report(record, args.format, args.out, f"report-{record.config_hash}")
    print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pacmerge", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-pool", help="build and persist the source-model pool")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_pool)

    p = sub.add_parser("certify", help="run a scenario and write reports")
    _add_common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("sweep", help="run a data-size sweep scenario")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="re-render a stored run record")
    p.add_argument("--record", required=True, metavar="PATH", help="run record JSON")
    p.add_argument("--format", required=True, choices=["csv", "json", "md"])
    p.add_argument("--out", metavar="DIR", default="out")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
