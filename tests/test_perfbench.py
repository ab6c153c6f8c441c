"""The ou_solve benchmark child on a tiny config: the traced run must fire
every span the workload declares and pass its own output checks."""
from __future__ import annotations

import json
import runpy
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_ou_solve_fires_every_span(tmp_path):
    config = tmp_path / "ou.json"
    # truncation tol 1e-10 (100 states): the child's residual check subtracts
    # the unnormalised mean, so the box's missing mass must stay below the
    # solve tol
    config.write_text(
        json.dumps(
            {
                "weights": [0.3, 0.3],
                "tols": [1e-10],
                "solve_tol": 1e-9,
                "F": {"name": "bounded_sigmoid", "B": [1, 2], "scale": 1.0},
            }
        ),
        encoding="utf-8",
    )
    spans = tmp_path / "spans.json"
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "trace", "ou_solve", str(config)]
    proc = subprocess.run(
        cmd + [str(time.monotonic_ns()), str(spans)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    fired = {name for name, *_ in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    declared = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]["ou_solve"].spans
    assert [s for s in declared if s not in fired] == []
    assert all(out["layers"][f"{s}.calls"] > 0 for s in declared)
    assert out["bad_outputs"] == []
    assert out["failed"] == 0
