"""One run of one workload in a fresh process.

    python3 child.py MODE WORKLOAD CONFIG SPAWN_NS [SPANS_OUT]

MODE is ``probe`` (set up only), ``run`` (untraced) or ``trace``, which
also writes the spans to SPANS_OUT.  The process imports the package from
the checkout's ``src``, parses CONFIG, runs the workload once, checks what
it can check alone, and prints one JSON line.  ``setup_s`` counts from SPAWN_NS, the parent's ``time.monotonic_ns()``
just before it started this process, so interpreter start and the cold
numpy/scipy import are included; ``peak_rss_mb`` is this process's
high-water mark, which is why every measured run gets its own process.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import poisson_malliavin

    where = Path(poisson_malliavin.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"poisson_malliavin imported from {where}, not from {ROOT / 'src'}")


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                blas[Path(lib).name] = getattr(handle, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
    }


def _run_suite(config):
    from poisson_malliavin.suite import reports_to_json, run_suite

    cfg, backend = config
    reports = run_suite(cfg, backend)
    return reports_to_json(reports).encode("utf-8"), reports


def _check_suite(reports) -> dict:
    failed = [r.case for r in reports if not r.passed or r.error is not None]
    return {"ops": len(reports), "failed": len(failed), "failed_ops": failed, "bad_outputs": []}


def _run_ou(spec):
    import numpy as np

    from poisson_malliavin.errors import SolverError
    from poisson_malliavin.exact import StateTable, build_generator_matrix, ou_pseudo_inverse
    from poisson_malliavin.ground import GroundSpace
    from poisson_malliavin.registry import functional_from_spec

    space = GroundSpace(tuple(spec["weights"]))
    F = functional_from_spec(space, spec["F"])
    digest = hashlib.sha256()
    solves = []
    for tol in spec["tols"]:
        table = StateTable.from_tolerance(space, tol)
        generator = build_generator_matrix(table)
        try:
            g = ou_pseudo_inverse(F, table, tol=spec["solve_tol"], generator=generator)
        except SolverError as exc:
            message = f"{type(exc).__name__}: {exc}"
            digest.update(message.encode("utf-8"))
            solves.append((tol, table, None, message))
            continue
        digest.update(np.ascontiguousarray(g).tobytes())
        solves.append((tol, table, g, None))
    return digest.digest(), (F, spec["solve_tol"], solves)


def _interior_residual(g, f, table) -> float:
    """max |L g - (f - E f)| over interior states, with L applied by
    mixed-radix neighbour lookups instead of the package's sparse matrix."""
    import numpy as np

    states = table.states
    caps = np.asarray(table.plan.caps)
    lam = table.space.weights_array
    strides = np.ones(len(caps), dtype=np.int64)
    for z in range(len(caps) - 2, -1, -1):
        strides[z] = strides[z + 1] * (caps[z + 1] + 1)
    idx = np.flatnonzero((states < caps).all(axis=1))
    Lg = np.zeros(idx.size)
    for z in range(len(caps)):
        k = states[idx, z]
        down = np.where(k > 0, idx - strides[z], idx)
        Lg += lam[z] * (g[idx + strides[z]] - g[idx]) - k * (g[idx] - g[down])
    return float(np.abs(Lg - (f[idx] - table.probs @ f)).max())


def _check_ou(result) -> dict:
    import numpy as np

    F, solve_tol, solves = result
    failed, bad = [], []
    for tol, table, g, error in solves:
        label = f"tol={tol:g} states={table.state_count}"
        if error is not None:
            failed.append(f"{label}: {error}")
            continue
        residual = _interior_residual(g, F.batch(table.states), table)
        centre = abs(float(table.probs @ g))
        # 2x slack: the reference applies L in another summation order
        if not (np.isfinite(g).all() and residual <= 2 * solve_tol and centre <= 1e-10):
            bad.append(f"{label}: residual {residual:.3e}, centre {centre:.3e}")
    return {"ops": len(solves), "failed": len(failed), "failed_ops": failed, "bad_outputs": bad}


def main(argv: list[str]) -> int:
    mode, workload, config_path, spawn_ns = argv[:4]
    _import_package()
    tracer = None
    if mode == "trace":
        from poisson_malliavin.errors import PoissonMalliavinError

        from tracing import Tracer

        tracer = Tracer(PoissonMalliavinError)
        tracer.install()
    spec = WORKLOADS[workload]
    if spec.kind == "ou":
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
        run, check = _run_ou, _check_ou
    else:
        from poisson_malliavin.suite import load_config

        config = (load_config(config_path), spec.backend)
        run, check = _run_suite, _check_suite
    setup_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9
    if mode == "probe":
        print(json.dumps({"mode": mode, "setup_s": setup_s, "env": _environment()}))
        return 0

    start = time.perf_counter()
    payload, result = run(config)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"mode": mode, "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        # before the checks, which evaluate functionals themselves
        out["layers"] = tracer.metrics(run_s)
    out["digest"] = hashlib.sha256(payload).hexdigest()
    out.update(check(result))
    if tracer is not None:
        with open(argv[4], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
