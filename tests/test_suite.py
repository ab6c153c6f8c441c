"""The suite runner: one identity table drives validation, case ids and runs."""
from __future__ import annotations

import hashlib

import pytest

from poisson_malliavin import (
    ConfigError,
    identities,
    load_config,
    parse_config,
    registry,
    run_suite,
)
from poisson_malliavin.suite import _IDENTITIES

# sha256 of the packaged config's case ids joined by newlines; pins the id
# format, the case and backend order, and the binding order inside each id
CASE_IDS_SHA256 = {
    "exact": "e39331ba8466c5f1479a84028ceaf6ea8d2104313cf1f3d27189f5fd826c037f",
    "mc": "1e575d4138ea0537dc07a4f937bb7670a04b9cad1dcba8a88d55dc29d5dfb7d2",
}
UNIT_FIELD = {"name": "deterministic", "values": [1.0, 1.0, 1.0]}
REQUIRED = [(name, key) for name, ident in _IDENTITIES.items() for key in ident.required]


def _config(*cases) -> dict:
    return {"space": {"weights": [0.5, 1.0, 1.5]}, "cases": list(cases)}


@pytest.mark.parametrize("backend, cases", [("exact", 104), ("mc", 100)])
def test_case_ids_pinned(backend, cases):
    ids = [r.case for r in run_suite(load_config(None), backend)]
    assert len(ids) == cases
    digest = hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()
    assert digest == CASE_IDS_SHA256[backend]


@pytest.mark.parametrize("identity, key", REQUIRED, ids=[f"{i}-{k}" for i, k in REQUIRED])
def test_missing_binding_named(identity, key):
    case = {"identity": identity}
    case.update({k: None for k in _IDENTITIES[identity].required if k != key})
    with pytest.raises(ConfigError) as err:
        parse_config(_config(case))
    assert str(err.value) == f"cases[0]: identity {identity!r} needs binding {key!r}"


def test_optional_keys_reach_only_their_check():
    linear = [{"name": "linear_count", "B": [1]}]
    cfg = _config(
        {"identity": "mecke", "u": UNIT_FIELD, "sites": [1], "budget": 3},
        {"identity": "commutation", "u": UNIT_FIELD, "sites": [2], "budget": 3},
        # budget 0 evaluates nothing, so the search exhibits nothing
        {
            "identity": "non_diffusion",
            "phis": ["square"],
            "Fs": linear,
            "Gs": linear,
            "budget": 0,
            "sites": [1],
        },
    )
    reports = run_suite(parse_config(cfg), "exact")
    assert [r.error for r in reports] == [None, None, None]
    assert [r.passed for r in reports] == [True, True, False]
    assert reports[1].n == 200  # one site times the default 200 points
    assert all(r.wall_time > 0.0 for r in reports)


def test_checks_and_nested_specs_resolved_per_call(monkeypatch):
    """Wrappers installed on the module attributes (as a tracer does) see the
    suite's check call and the nested spec's registry call."""
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(identities, "mecke_check")
    counted(registry, "functional_from_spec")
    F = {"name": "linear_count", "B": [2]}
    u = {"name": "functional_times_indicator", "B": [1], "F": F}
    (report,) = run_suite(parse_config(_config({"identity": "mecke", "u": u})), "exact")
    assert report.passed
    assert calls == ["functional_from_spec", "mecke_check"]
