"""Command-line front end.

Three subcommands:

* ``verify``   run the identity suite against the exact and/or Monte Carlo
               backends and write a machine-readable JSON report;
* ``sample``   emit seeded Poisson configurations as JSON lines;
* ``estimate`` print the Monte Carlo estimate of a registry functional.

Exit status of ``verify`` is 0 only when every check passes.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import ConfigError, PoissonMalliavinError
from .montecarlo import SamplerConfig, mc_expectation, sample_counts
from .registry import functional_from_spec
from .suite import default_config, load_config, run_suite, summarize, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-malliavin",
        description="Verify Poisson-space operator identities exactly and by Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity suite")
    verify.add_argument("--config", help="suite config JSON (default: packaged grid)")
    verify.add_argument(
        "--backend", choices=["exact", "mc", "both"], default="both",
        help="expectation engines to run (default: both)",
    )
    verify.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    verify.add_argument("--samples", type=int, help="override the sample count")
    verify.add_argument(
        "--workers", type=int,
        help="override the worker count: workers partition the sample stream"
        " and run one after another in this process; each worker's block is"
        " drawn once per backend and deduplicated on its own, so results merge"
        " bitwise in worker order, and is held in memory for the whole run",
    )
    verify.add_argument("--report", help="write the JSON report to this path")
    verify.add_argument(
        "--dump-config", action="store_true",
        help="print the effective config instead of running",
    )

    sample = sub.add_parser("sample", help="emit configurations as JSON lines")
    sample.add_argument("--config", help="suite config JSON (for the space and seed)")
    sample.add_argument("--count", type=int, required=True, help="configurations to draw")
    sample.add_argument("--seed", type=int, help="override the sampling seed")

    estimate = sub.add_parser("estimate", help="Monte Carlo estimate of a functional")
    estimate.add_argument("--functional", required=True, help="registry name")
    estimate.add_argument(
        "--params", default="{}", help="JSON object of constructor parameters"
    )
    estimate.add_argument("--config", help="suite config JSON (for the space)")
    estimate.add_argument("--seed", type=int, help="override the seed")
    estimate.add_argument("--samples", type=int, help="override the sample count")
    estimate.add_argument("--workers", type=int, help="override the worker count")
    return parser


def _override_mc(mc: SamplerConfig, args) -> SamplerConfig:
    """``mc`` with the --seed/--samples/--workers overrides, checked by
    ``SamplerConfig`` (``ConfigError``)."""
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        updates["samples"] = args.samples
    if getattr(args, "workers", None) is not None:
        updates["workers"] = args.workers
    return replace(mc, **updates) if updates else mc


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    cfg = replace(cfg, mc=_override_mc(cfg.mc, args))
    if args.dump_config:
        if args.config is None:
            obj = default_config()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        obj["mc"] = asdict(cfg.mc)
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    reports = run_suite(cfg, backend=args.backend)
    print(summarize(reports))
    if args.report:
        write_report(reports, args.report)
        print(f"report written to {args.report}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sample(args) -> int:
    cfg = load_config(args.config)
    mc = _override_mc(cfg.mc, args)
    if args.count < 0:
        raise ConfigError(f"--count must be an integer >= 0, got {args.count}")
    rng = np.random.default_rng(np.random.SeedSequence(mc.seed))
    counts = sample_counts(cfg.space, rng, args.count)
    for row in counts:
        print(json.dumps({"counts": row.tolist()}))
    return 0


def _cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    mc = _override_mc(cfg.mc, args)
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc.msg}") from exc
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    F = functional_from_spec(cfg.space, {"name": args.functional, **params})
    est = mc_expectation(F, cfg.space, mc)
    print(json.dumps({"mean": est.value, "std_error": est.std_error, "n": est.n}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_estimate(args)
    except PoissonMalliavinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
