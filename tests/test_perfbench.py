"""Benchmark children on tiny configs: the traced run must fire every span
the workload declares and pass its own output checks."""
from __future__ import annotations

import json
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_child(tmp_path, workload: str, config: dict):
    """Run ``child.py trace`` on ``config``; its output line and the names of
    the spans that fired."""
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    spans = tmp_path / "spans.json"
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "trace", workload, str(path)]
    proc = subprocess.run(
        cmd + [str(time.monotonic_ns()), str(spans)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    fired = {name for name, *_ in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    return out, fired


def _declared(workload: str):
    return runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"][workload].spans


def test_traced_ou_solve_fires_every_span(tmp_path):
    # truncation tol 1e-10 (100 states): the child's residual check subtracts
    # the unnormalised mean, so the box's missing mass must stay below the
    # solve tol
    out, fired = _traced_child(
        tmp_path,
        "ou_solve",
        {
            "weights": [0.3, 0.3],
            "tols": [1e-10],
            "solve_tol": 1e-9,
            "F": {"name": "bounded_sigmoid", "B": [1, 2], "scale": 1.0},
        },
    )
    declared = _declared("ou_solve")
    assert [s for s in declared if s not in fired] == []
    assert all(out["layers"][f"{s}.calls"] > 0 for s in declared)
    assert out["bad_outputs"] == []
    assert out["failed"] == 0


def test_traced_exact_scale_fires_every_span(tmp_path):
    """exact_scale's five identities on 3 sites at a loose truncation (7^3
    states), swept in box slices."""

    def sigmoid(B):
        return {"name": "bounded_sigmoid", "B": B, "scale": 1.0}

    def fti(B, F):
        return {"name": "functional_times_indicator", "B": B, "F": F}

    values = {"name": "deterministic", "values": [1.0, -0.5, 2.0]}
    out, fired = _traced_child(
        tmp_path,
        "exact_scale",
        {
            "space": {"weights": [1.0, 1.0, 1.0]},
            "truncation": {"tol": 1e-3},
            "cases": [
                {"identity": "mecke", "u": fti([1, 2], sigmoid([1, 2]))},
                {"identity": "duality", "F": sigmoid([1, 2, 3]), "u": fti([2, 3], sigmoid([3]))},
                {"identity": "skorokhod", "u": fti([1, 2], sigmoid([1, 2]))},
                {"identity": "bracket_expectation", "u": values, "v": fti([1, 3], sigmoid([2, 3]))},
                {
                    "identity": "energy_derivation",
                    "F": sigmoid([1, 2]),
                    "G": {"name": "indicator_leq", "B": [2, 3], "m": 3},
                    "u": values,
                },
            ],
        },
    )
    declared = _declared("exact_scale")
    assert [s for s in declared if s not in fired] == []
    assert all(out["layers"][f"{s}.calls"] > 0 for s in declared)
    assert out["layers"]["exact.states"] == 7**3
    assert out["ops"] == 5
    assert out["failed"] == 0


def test_traced_mc_wide_fires_every_span(tmp_path):
    """mc_wide's seven identities on 3 sites and 2,000 Monte Carlo samples,
    each binding sharing a site across its objects as mc_wide's do."""

    def sigmoid(B, scale):
        return {"name": "bounded_sigmoid", "B": B, "scale": scale}

    def fti(B, F):
        return {"name": "functional_times_indicator", "B": B, "F": F}

    values = {"name": "deterministic", "values": [1.0, -0.5, 2.0]}
    config = {
        "space": {"weights": [2.0, 2.0, 2.0]},
        "mc": {"seed": 5, "samples": 2000, "workers": 1},
        "cases": [
            {"identity": "mecke", "u": fti([1, 2, 3], sigmoid([1, 2], 0.5))},
            {"identity": "duality", "F": sigmoid([1, 2, 3], 0.5), "u": values},
            {"identity": "skorokhod", "u": fti([2, 3], sigmoid([1, 3], 0.5))},
            {"identity": "bracket_expectation", "u": values, "v": fti([1, 2], sigmoid([2, 3], 0.5))},
            {
                "identity": "energy_derivation",
                "F": sigmoid([1, 2], 0.5),
                "G": {"name": "indicator_leq", "B": [2, 3], "m": 4},
                "u": values,
            },
            {
                "identity": "gamma_representation",
                "F": sigmoid([1, 2, 3], 0.5),
                "Phi": {"name": "indicator_leq", "B": [2, 3], "m": 4},
            },
            {
                "identity": "gamma_form_bound",
                "F": sigmoid([1, 2], 0.5),
                "Phi": {"name": "indicator_leq", "B": [2, 3], "m": 4},
            },
        ],
    }
    identities = runpy.run_path(str(PERFBENCH / "workloads.py"))["_MC_IDENTITIES"]
    assert [case["identity"] for case in config["cases"]] == list(identities)
    out, fired = _traced_child(tmp_path, "mc_wide", config)
    declared = _declared("mc_wide")
    assert [s for s in declared if s not in fired] == []
    assert all(out["layers"][f"{s}.calls"] > 0 for s in declared)
    assert out["layers"]["montecarlo.sample_counts.rows"] == 2000
    assert out["ops"] == 7
    assert out["failed"] == 0


def _verify_config() -> dict:
    """The packaged config's first case of every identity, with a smaller
    counterexample grid, on its 3-site canonical space only, at truncation
    tol 1e-6 and 2,000 Monte Carlo samples."""
    values = {"name": "deterministic", "values": [1.0, -0.5, 2.0]}
    ones = {"name": "deterministic", "values": [1.0, 1.0, 1.0]}
    sigmoid = {"name": "bounded_sigmoid", "B": [1, 2], "scale": 1.0}
    Fs = [{"name": "linear_count", "B": [1]}, {"name": "linear_count", "B": [1, 2]}]
    cases = [
        {"identity": "mecke", "u": ones},
        {"identity": "duality", "F": Fs[1], "u": values},
        {"identity": "skorokhod", "u": ones},
        {"identity": "commutation", "u": values},
        {
            "identity": "product_formula",
            "F": {"name": "constant", "value": 2.5},
            "u": {"name": "count_times_deterministic", "B": [1, 2, 3], "values": [1.0, 1.0, 1.0]},
        },
        {
            "identity": "energy_derivation",
            "F": sigmoid,
            "G": {"name": "indicator_leq", "B": [1, 2, 3], "m": 2},
            "u": ones,
        },
        {"identity": "gamma_representation", "F": sigmoid, "Phi": {"name": "constant", "value": 1.0}},
        {"identity": "gamma_form_bound", "F": sigmoid, "Phi": {"name": "constant", "value": 1.0}},
        {"identity": "bracket_expectation", "u": ones, "v": values},
        {"identity": "non_diffusion", "phis": ["square", "tanh"], "Fs": Fs, "Gs": Fs},
        {"identity": "non_diffusion_control", "F": Fs[0], "G": Fs[0]},
    ]
    return {
        "space": {"weights": [0.5, 1.0, 1.5]},
        "truncation": {"tol": 1e-6},
        "mc": {"seed": 5, "samples": 2000, "workers": 1},
        "cases": cases,
    }


@pytest.mark.parametrize("workload, rows", [("verify_exact", 11), ("verify_mc", 9)])
def test_traced_verify_fires_every_span(tmp_path, workload, rows):
    """The verify workloads' spans, exact-only checks and the pointwise
    sampler included, fire on one case per identity."""
    out, fired = _traced_child(tmp_path, workload, _verify_config())
    declared = _declared(workload)
    assert [s for s in declared if s not in fired] == []
    assert all(out["layers"][f"{s}.calls"] > 0 for s in declared)
    assert out["ops"] == rows
    assert out["failed"] == 0, out["failed_ops"]
