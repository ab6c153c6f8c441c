"""The five workloads: their generated configs, expected op counts and the
spans each one must fire.

Every input is a pure function of the seed.  The verify workloads run the
packaged config; the others are configs this module writes.  The program
only ever sees the generated config file.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

PACKAGED_SEED = 20260810
# second seed for re-checking a claim on inputs it was not tuned on
RECHECK_SEED = 7

_SUITE_SPANS = (
    "suite.load_config",
    "suite.run_suite",
    "suite.reports_to_json",
    "registry.from_spec",
    "functionals.add_diff_all",
    "functionals.field_add_tensor",
    "functionals.field_dropped_diag",
    "operators.divergence_batch",
    "operators.bracket_batch",
)
_MC_IDENTITIES = (
    "mecke",
    "duality",
    "skorokhod",
    "bracket_expectation",
    "energy_derivation",
    "gamma_representation",
    "gamma_form_bound",
)
_POINTWISE = ("commutation", "product_formula")
_EXACT_ONLY = ("non_diffusion", "non_diffusion_control")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "suite" (run_suite + reports_to_json) or "ou" (generator solves)
    backend: str | None
    ops: int  # checks or solves one run attempts
    spans: tuple[str, ...]  # spans the traced run must see fire
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_exact",
            "suite",
            "exact",
            104,
            _SUITE_SPANS
            + tuple(f"identities.{i}" for i in _MC_IDENTITIES + _POINTWISE + _EXACT_ONLY)
            + (
                "operators.gamma_batch",
                "exact.plan_truncation",
                "exact.StateTable.build",
                "exact.paired",
                "exact.expectation",
                "montecarlo.sample_counts",
            ),
            "packaged config on the exact engine: small tables, per-call Python"
            " overhead dominates; bypasses the Monte Carlo sampler",
        ),
        Workload(
            "verify_mc",
            "suite",
            "mc",
            100,
            _SUITE_SPANS
            + tuple(f"identities.{i}" for i in _MC_IDENTITIES + _POINTWISE)
            + ("operators.gamma_batch", "montecarlo.sample_counts", "montecarlo.paired"),
            "packaged config on Monte Carlo, 1e5 samples: highly repetitive"
            " rows (about 230 distinct per 1e5), so dedup and single-draw gains show",
        ),
        Workload(
            "mc_wide",
            "suite",
            "mc",
            len(_MC_IDENTITIES),
            _SUITE_SPANS
            + tuple(f"identities.{i}" for i in _MC_IDENTITIES)
            + ("operators.gamma_batch", "montecarlo.sample_counts", "montecarlo.paired"),
            "Monte Carlo on 6 sites at weight 8: almost every row distinct, so a"
            " dedup or caching gain on verify_mc must cost nothing here",
        ),
        Workload(
            "exact_scale",
            "suite",
            "exact",
            5,
            _SUITE_SPANS
            + tuple(f"identities.{i}" for i in _MC_IDENTITIES[:5])  # no gamma cases
            + ("exact.plan_truncation", "exact.StateTable.build", "exact.paired"),
            "exact engine on a 371,293-state box: dense (S, n, n) difference"
            " temporaries bound memory and time",
        ),
        Workload(
            "ou_solve",
            "ou",
            None,
            3,
            (
                "registry.from_spec",
                "exact.plan_truncation",
                "exact.StateTable.build",
                "exact.expectation",
                "exact.build_generator_matrix",
                "exact.ou_pseudo_inverse",
                "exact.splu",
            ),
            "generator assembly and sparse LU on 4,096 to 10,000 states: no"
            " verify path reaches them, and LU fill grows superlinearly",
        ),
    )
}


def _sigmoid(B, scale):
    return {"name": "bounded_sigmoid", "B": B, "scale": scale}


def _mc_wide_config() -> dict:
    n = 6
    values = [1.0, -0.5, 2.0, 0.5, 1.0, -1.0]
    cases = [
        {"identity": "mecke", "u": {"name": "functional_times_indicator", "B": [1, 2, 3], "F": _sigmoid([1, 2], 0.2)}},
        {"identity": "duality", "F": _sigmoid([1, 2, 3], 0.1), "u": {"name": "deterministic", "values": values}},
        {"identity": "skorokhod", "u": {"name": "functional_times_indicator", "B": [2, 4, 6], "F": _sigmoid([1, 3, 5], 0.1)}},
        {"identity": "bracket_expectation", "u": {"name": "deterministic", "values": values}, "v": {"name": "functional_times_indicator", "B": [1, 2], "F": _sigmoid([3, 4], 0.2)}},
        {"identity": "energy_derivation", "F": _sigmoid([1, 2], 0.1), "G": {"name": "indicator_leq", "B": [2, 3], "m": 16}, "u": {"name": "deterministic", "values": values}},
        {"identity": "gamma_representation", "F": _sigmoid([1, 2, 3], 0.1), "Phi": {"name": "indicator_leq", "B": [4, 5, 6], "m": 24}},
        {"identity": "gamma_form_bound", "F": _sigmoid([1, 2], 0.2), "Phi": {"name": "indicator_leq", "B": [3, 4], "m": 16}},
    ]
    return {
        "space": {"weights": [8.0] * n},
        "mc": {"samples": 100_000, "workers": 1},
        "cases": cases,
    }


def _exact_scale_config() -> dict:
    # tol 1e-9 caps each of the 5 unit-weight sites at 12: 13^5 = 371,293 states
    values = [1.0, -0.5, 2.0, 0.5, 1.0]
    cases = [
        {"identity": "mecke", "u": {"name": "functional_times_indicator", "B": [1, 2, 3], "F": _sigmoid([1, 2], 1.0)}},
        {"identity": "duality", "F": _sigmoid([1, 2, 3], 1.0), "u": {"name": "functional_times_indicator", "B": [2, 4], "F": _sigmoid([4, 5], 1.0)}},
        {"identity": "skorokhod", "u": {"name": "functional_times_indicator", "B": [1, 2], "F": _sigmoid([1, 2], 1.0)}},
        {"identity": "bracket_expectation", "u": {"name": "deterministic", "values": values}, "v": {"name": "functional_times_indicator", "B": [3, 5], "F": _sigmoid([2, 3], 1.0)}},
        {"identity": "energy_derivation", "F": _sigmoid([1, 2], 1.0), "G": {"name": "indicator_leq", "B": [2, 3, 4], "m": 3}, "u": {"name": "deterministic", "values": values}},
    ]
    return {
        "space": {"weights": [1.0] * 5},
        "truncation": {"tol": 1e-9, "budget": 4_000_000},
        "cases": cases,
    }


def _ou_config() -> dict:
    # truncation tols 1e-8 / 1e-9 / 1e-10 give 4,096 / 6,561 / 10,000 states
    return {
        "weights": [0.3] * 4,
        "tols": [1e-8, 1e-9, 1e-10],
        "solve_tol": 1e-9,
        "F": _sigmoid([1, 2], 1.0),
    }


def _relabel(spec, perm):
    """Move site z to perm[z - 1] + 1 in every site set and per-site vector."""
    if isinstance(spec, list):
        return [_relabel(s, perm) for s in spec]
    if not isinstance(spec, dict):
        return spec
    out = {k: _relabel(v, perm) for k, v in spec.items()}
    if "B" in out:
        out["B"] = sorted(int(perm[b - 1]) + 1 for b in out["B"])
    if "values" in out:
        moved = [0.0] * len(perm)
        for z, v in enumerate(out["values"]):
            moved[perm[z]] = v
        out["values"] = moved
    return out


def _random_box_states(packaged: dict, mc_seed: int) -> int:
    """State count of the randomized space's box under ``mc_seed``, read off a
    one-check exact run so the program itself draws the space."""
    from poisson_malliavin.suite import parse_config, run_suite

    probe = dict(
        packaged,
        mc=dict(packaged["mc"], seed=mc_seed),
        cases=[{"identity": "mecke", "u": {"name": "deterministic", "values": [0.0] * 3}}],
    )
    (report,) = [r for r in run_suite(parse_config(probe), "exact") if r.case.endswith("#random")]
    return report.n


def _packaged_config(seed: int) -> dict:
    """The packaged config with an MC seed derived from ``seed``.

    The randomized space's weights are drawn from the MC seed, and its box
    size sets most of verify_exact's time, so the seed picks the first
    candidate MC seed whose randomized box has as many states as the packaged
    seed's.  Weights and draws still change with the seed; the exact work
    does not.  The packaged seed maps to itself.
    """
    from poisson_malliavin.suite import default_config

    packaged = default_config()
    if seed != PACKAGED_SEED:
        target = _random_box_states(packaged, PACKAGED_SEED)
        for k in itertools.count():
            candidate = seed + k * 2**32
            if _random_box_states(packaged, candidate) == target:
                break
        packaged["mc"]["seed"] = candidate
    return packaged


def build_config(workload: Workload, seed: int) -> dict:
    """The config the program receives for ``workload`` under ``seed``."""
    if workload.name in ("verify_exact", "verify_mc"):
        return _packaged_config(seed)
    base = {
        "mc_wide": _mc_wide_config,
        "exact_scale": _exact_scale_config,
        "ou_solve": _ou_config,
    }[workload.name]()
    # every site has the same weight, so relabelling sites changes the
    # inputs but not the amount of work
    n = len(base["weights"] if workload.kind == "ou" else base["space"]["weights"])
    perm = np.random.default_rng(seed).permutation(n)
    key = "F" if workload.kind == "ou" else "cases"
    base[key] = _relabel(base[key], perm)
    if workload.name == "mc_wide":
        base["mc"]["seed"] = seed
    return base
