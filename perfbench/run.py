"""Benchmark of both expectation engines, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Each measured run is a fresh child process (``child.py``), run one after
another with a single caller (closed loop).  An invocation makes at least
two runs of each mode and goes on until the next run would end past
``run_seconds`` of ``BENCHMARK.json``, the one place the run length is set.
End-to-end metrics are medians over those runs; the traced run
(``--trace 1``) alternates untraced and traced children and reports
per-layer medians plus the tracing overhead.  Results are printed
with quartiles and sample counts, written in full to ``.bench_out/``, and
the last stdout line is one JSON object.  The exit status is non-zero when
an output check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 5
# runs of each mode, so the repeat checks compare at least two outputs
MIN_RUNS = 2

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "pass_share": "share"}


def _child(mode: str, workload: str, config: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(config)]
    cmd.append(str(time.monotonic_ns()))
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import build_config

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    config = OUT / f"{stem}.config.json"
    config.write_text(json.dumps(build_config(workload, seed), indent=1), encoding="utf-8")
    # unmeasured warm-up: compiles bytecode and fills the file cache, which
    # an installed package pays once, not per run
    env = _child("probe", workload.name, config)["env"]

    modes = ["run", "trace"] if trace else ["run"]
    runs, walls = [], []
    start = time.monotonic()
    while True:
        mode = modes[len(runs) % len(modes)]
        began = time.monotonic()
        spans = OUT / f"{stem}.spans.json" if mode == "trace" else None
        runs.append(_child(mode, workload.name, config, spans))
        walls.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS * len(modes) and elapsed + statistics.median(walls) > seconds:
            break
    setups = [r["setup_s"] for r in runs if r["mode"] == "run"]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_child("probe", workload.name, config)["setup_s"])
    return {"env": env, "config": str(config.relative_to(ROOT)), "runs": runs, "setups": setups}


def _check(workload, runs: list[dict]) -> list[str]:
    problems = []
    if len({r["digest"] for r in runs}) != 1:
        problems.append("outputs differ between runs with the same seed")
    for r in runs:
        if r["ops"] != workload.ops:
            problems.append(f"{r['ops']} ops, expected {workload.ops}")
        if workload.kind == "suite" and r["failed"]:
            problems.append(f"checks failed: {r['failed_ops']}")
        problems.extend(r["bad_outputs"])
    traced = [r["layers"] for r in runs if r["mode"] == "trace"]
    if traced:
        missed = [s for s in workload.spans if traced[0][f"{s}.calls"] == 0]
        if missed:
            problems.append(f"spans that never fired: {missed}")
        from tracing import COUNTS

        for key in COUNTS:
            if len({t[key] for t in traced}) != 1:
                problems.append(f"count {key} differs between traced runs")
    return sorted(set(problems))


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    measured = _measure(workload, seed, seconds, trace)
    runs = measured["runs"]
    untraced = [r for r in runs if r["mode"] == "run"]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    samples = {
        "setup_s": measured["setups"],
        "run_s": [r["run_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    stats = {k: _summary(v) for k, v in samples.items()}
    stats["pass_share"] = {"median": (attempted - failed) / attempted, "n": len(runs)}
    if trace:
        from tracing import per_layer_units

        units = per_layer_units()
        layers = [r["layers"] for r in runs if r["mode"] == "trace"]
        traced_run_s = [r["run_s"] for r in runs if r["mode"] == "trace"]
        metrics = {k: statistics.median(t[k] for t in layers) for k in layers[0]}
        metrics["trace.run_s"] = statistics.median(traced_run_s)
        metrics["trace.untraced_run_s"] = stats["run_s"]["median"]
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        declared = _declared("per_layer")
    else:
        units = UNITS
        metrics = {k: s["median"] for k, s in stats.items()}
        declared = _declared("end_to_end")
    if declared != {k: units[k] for k in metrics}:
        raise SystemExit("metrics do not match the names and units in BENCHMARK.json")

    problems = _check(workload, runs)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        **measured,
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    _print(result)
    return result


def _print(result: dict) -> None:
    env = result["env"]
    print(
        f"== {result['workload']} seed={result['seed']} trace={result['trace']}"
        f"  nproc={result['nproc']} blas_threads={env['blas_threads']}"
        f" python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
    )
    for key, s in result["stats"].items():
        if "q1" in s:
            print(
                f"  {key:<12} {s['median']:.4f} {UNITS[key]}"
                f"  [q1 {s['q1']:.4f}, q3 {s['q3']:.4f}]  n={s['n']}"
            )
    a, f = result["attempted"], result["failed"]
    print(f"  {'fail_share':<12} {f / a:.4f} share  ({f}/{a} ops failed)")
    if result["trace"]:
        for key, m in result["metrics"].items():
            print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    from workloads import PACKAGED_SEED, RECHECK_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument(
        "--seed",
        type=int,
        default=PACKAGED_SEED,
        help=f"workload seed; the default is the packaged one, {RECHECK_SEED} re-checks a claim",
    )
    parser.add_argument(
        "--seconds",
        type=int,
        help="accepted only when equal to run_seconds in BENCHMARK.json, which fixes the run length",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "poisson_malliavin" / "__init__.py").is_file():
        parser.error(f"no package source under {ROOT / 'src'}; run from a checkout")
    seconds = _benchmark()["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds} differs from run_seconds {seconds} in BENCHMARK.json")
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, seconds, bool(args.trace)) for n in names]
    correct = not any(r["problems"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
