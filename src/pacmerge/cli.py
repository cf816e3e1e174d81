"""Command-line interface.

Verbs: ``certify`` (run a scenario end to end, the ``paper-gap-sweep``
data-size sweep included, and summarize its bounds, its searches' stops and
evaluations and, for validity runs, their violations), ``report``
(re-render a stored run record).
Exit codes: 0 success, 2 configuration or file-format error, diverged
training, a search whose objective left the finite range, or output that
cannot be written (an ``--out`` that is a file, say).  Each exit 2 prints
one stderr line and no traceback.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from .errors import ConfigError, FormatError, OptError, TrainingDiverged
from .harness import load_config_file, load_record, make_config, run, write_report


# the errors that exit 2, each with the label of its one stderr line; every
# read raises one of the first four, so an OSError comes from a write
_EXIT_2 = {ConfigError: "config error", FormatError: "format error",
           TrainingDiverged: "training diverged", OptError: "search failed",
           OSError: "cannot write output"}


def _config_from_args(args):
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.config:
        return load_config_file(args.config, scenario=args.scenario, overrides=overrides)
    return make_config(args.scenario, overrides)


def cmd_certify(args) -> int:
    config = _config_from_args(args)
    record = run(config, args.out)
    records = record.records
    print(f"{config['scenario']} ({config.hash}): {len(records)} certificates "
          f"in {record.wall_time_s:.1f}s -> {args.out}")
    bounds = sorted(r.pb_bound for r in records)
    print(f"vacuous: {sum(r.vacuous for r in records)}/{len(records)}; pb_bound min/median/max: "
          f"{bounds[0]:.4f}/{statistics.median(bounds):.4f}/{bounds[-1]:.4f}")
    provenance = [r.provenance for r in records]
    searches = ([(p["search_stop"], p["evals"]) for p in provenance if "search_stop" in p]
                + [(p["ddp_prior_stop"], p["ddp_prior_evals"]) for p in provenance
                   if "ddp_prior_stop" in p])
    if searches:
        stalled = sum(stop == "stalled" for stop, _ in searches)
        print(f"searches: {stalled} stalled, {len(searches) - stalled} at budget; evaluations "
              f"{sum(evals for _, evals in searches)}/{len(searches) * config['cma.max_evals']}")
    if config["kind"] == "validity":
        violations = sum(r.provenance["violation"] for r in records)
        slack = min(r.pb_bound - r.test_error for r in records)
        print(f"violations: {violations}/{len(records)} (delta {config['bound.delta']}); "
              f"smallest slack {slack:.4f}")
    return 0


def cmd_report(args) -> int:
    record = load_record(args.record)
    path = write_report(record, args.format, args.out, f"report-{record.config_hash}")
    print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pacmerge", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("certify", help="run a scenario and write reports")
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    p.add_argument("--scenario", metavar="NAME", help="shipped scenario name")
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    p.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("report", help="re-render a stored run record")
    p.add_argument("--record", required=True, metavar="PATH", help="run record JSON")
    p.add_argument("--format", required=True, choices=["csv", "json", "md"])
    p.add_argument("--out", metavar="DIR", default="out")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except tuple(_EXIT_2) as exc:
        label = next(label for kind, label in _EXIT_2.items() if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
