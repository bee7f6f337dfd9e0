"""Command-line driver: gen-data | validate | audit | report.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime
failure. Every command echoes its resolved configuration before running.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import attribution as attrib
from . import dataset as ds
from . import pipeline, report
from . import textmodel as tm
from .errors import ConfigError, DataError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    p = _Parser(prog="explaudit",
                description="Audit subgroup disparity in post-hoc "
                            "feature-attribution explanations.")
    sub = p.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--dataset", required=True)
    data.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    data.add_argument("--unpaired", action="store_true")

    g = sub.add_parser("gen-data", description="Generate a "
                       "synthetic gendered paired dataset.")
    g.add_argument("--pairs", type=int, default=100)
    g.add_argument("--injection", default="none",
                   choices=["none", "length", "noise"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    g.add_argument("--out", required=True)

    sub.add_parser("validate", parents=[data],
                   description="Validate a dataset file.")
    a = sub.add_parser("audit", parents=[data],
                       description="Run the full disparity audit.")
    a.add_argument("--runs", type=int, default=5)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--methods", default=",".join(attrib.METHODS))
    a.add_argument("--metrics", default=",".join(pipeline.DEFAULT_METRICS))
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--d-threshold", type=float, default=0.2)
    a.add_argument("--epochs", type=int, default=20)
    a.add_argument("--tied-embeddings", action="store_true")
    a.add_argument("--with-sensitivity", action="store_true")
    a.add_argument("--out", required=True)

    r = sub.add_parser("report", description="Render a report directory.")
    r.add_argument("report_dir")
    r.add_argument("--format", default="table",
                   choices=["table", "svg"])
    r.add_argument("--out")
    return p


def _echo_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k != "command"}
    print(f"[{args.command}] resolved config: "
          + json.dumps(resolved, sort_keys=True))


def _load(args):
    if not os.path.isfile(args.dataset):
        raise DataError(f"dataset file not found: {args.dataset}")
    if args.unpaired:
        return ds.load_unpaired(args.dataset, args.format)
    return ds.load_paired(args.dataset, args.format)


def _check_parent(out):
    """ConfigError when the nearest existing path above ``out`` is not a
    directory, so that ``out``'s missing parents cannot be created."""
    parent = os.path.dirname(os.path.abspath(out))
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"--out is below a non-directory: {parent}")


def cmd_gen_data(args):
    if os.path.isdir(args.out) or args.out.endswith(os.sep):
        raise ConfigError(f"--out is a directory: {args.out}")
    _check_parent(args.out)
    records = ds.generate_synthetic_paired(args.pairs, args.injection.upper(),
                                           seed=args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    ds.save_paired(records, args.out, args.format)
    print(f"wrote {2 * len(records)} rows ({len(records)} pairs) "
          f"to {args.out}")
    return 0


def cmd_validate(args):
    records = _load(args)
    kind = "unpaired records" if args.unpaired else "pairs"
    print(f"OK: {len(records)} {kind} in {args.dataset}")
    return 0


def cmd_audit(args):
    pipeline.check_out_dir(args.out)
    _check_parent(args.out)
    records = _load(args)
    metric_list = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if args.with_sensitivity and "sensitivity" not in metric_list:
        metric_list.append("sensitivity")
    cfg = pipeline.AuditConfig(
        methods=tuple(m.strip() for m in args.methods.split(",")
                      if m.strip()),
        metrics=tuple(metric_list),
        runs=args.runs, base_seed=args.seed, alpha=args.alpha,
        d_threshold=args.d_threshold,
        tied_embeddings=args.tied_embeddings,
        train_cfg=tm.TrainConfig(epochs=args.epochs),
    )
    audit = pipeline.run_audit(records, cfg)
    pipeline.save_report(audit, args.out)
    print(report.render(args.out, "table"))
    print(f"report written to {args.out}")
    return 0


def cmd_report(args):
    if not os.path.isdir(args.report_dir):
        raise DataError(f"report directory not found: {args.report_dir}")
    if args.format == "svg" and args.out and os.path.lexists(args.out) \
            and not os.path.isdir(args.out):
        raise ConfigError(f"--out exists and is not a directory: {args.out}")
    result = report.render(args.report_dir, args.format, args.out)
    if args.format == "table":
        print(result)
    else:
        for path in result:
            print(path)
    return 0


_COMMANDS = {"gen-data": cmd_gen_data, "validate": cmd_validate,
             "audit": cmd_audit, "report": cmd_report}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError("--seed must be >= 0")
        _echo_config(args)
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
