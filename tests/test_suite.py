"""The suite runner: one identity table drives validation, case ids and runs."""
from __future__ import annotations

import copy
import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_malliavin import (
    ConfigError,
    VerificationReport,
    identities,
    load_config,
    parse_config,
    registry,
    reports_to_json,
    run_suite,
)
from poisson_malliavin import functionals, montecarlo
from poisson_malliavin.suite import _IDENTITIES, default_config

# sha256 of the packaged config's case ids joined by newlines; pins the id
# format, the case and backend order, and the binding order inside each id
CASE_IDS_SHA256 = {
    "exact": "e39331ba8466c5f1479a84028ceaf6ea8d2104313cf1f3d27189f5fd826c037f",
    "mc": "1e575d4138ea0537dc07a4f937bb7670a04b9cad1dcba8a88d55dc29d5dfb7d2",
}
# sha256 of the packaged config's report file per backend; pins every report
# byte: values, gates, error terms and the order in which gates are summed
REPORT_SHA256 = {
    "exact": "9039091a94c13e55d1121cb62dc2676e0c560a74c0f961d4f44fffea9c0295bb",
    "mc": "c9dff3cc7892537b9bafb99b3856cd7803ea898a9bcf2044ad5a37dc11fe7181",
}
UNIT_FIELD = {"name": "deterministic", "values": [1.0, 1.0, 1.0]}
REQUIRED = [(name, key) for name, ident in _IDENTITIES.items() for key in ident.required]


def _config(*cases) -> dict:
    return {"space": {"weights": [0.5, 1.0, 1.5]}, "cases": list(cases)}


def _strict_json(text: str):
    """``text`` parsed as strict JSON: NaN and Infinity are refused."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("backend, cases", [("exact", 104), ("mc", 100)])
def test_case_ids_pinned(backend, cases):
    ids = [r.case for r in run_suite(load_config(None), backend)]
    assert len(ids) == cases
    digest = hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()
    assert digest == CASE_IDS_SHA256[backend]


@pytest.mark.parametrize("backend", ["exact", "mc"])
def test_report_bytes_pinned(backend):
    text = reports_to_json(run_suite(load_config(None), backend))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[backend]


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
        {"identity": "mecke", "u": UNIT_FIELD},
        {"identity": "commutation", "u": UNIT_FIELD, "sites": [2]},
        # budget 0 evaluates nothing, so the search exhibits nothing
        {"identity": "non_diffusion", "phis": ["square"], "Fs": linear, "Gs": linear, "budget": 0},
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


LINEAR = [{"name": "linear_count", "B": [1]}]
NON_DIFFUSION = {"identity": "non_diffusion", "phis": ["square"], "Fs": LINEAR, "Gs": LINEAR}
BAD_VALUES = [
    ("gates-unknown", {"identity": "mecke", "u": UNIT_FIELD, "gates": {"exactt": 1e-9}}, "cases[0].gates: unknown keys ['exactt']"),
    ("gates-string", {"identity": "mecke", "u": UNIT_FIELD, "gates": {"exact": "1e-9"}}, "cases[0].gates.exact: must be a number"),
    ("gates-bool", {"identity": "mecke", "u": UNIT_FIELD, "gates": {"exact": True}}, "cases[0].gates.exact: must be a number"),
    ("gates-nan", {"identity": "mecke", "u": UNIT_FIELD, "gates": {"exact": float("nan")}}, "cases[0].gates.exact: must be a number"),
    ("gates-list", {"identity": "mecke", "u": UNIT_FIELD, "gates": [1e-9]}, "cases[0].gates: must be an object"),
    ("sites-int", {"identity": "commutation", "u": UNIT_FIELD, "sites": 3}, "cases[0].sites: must be a list"),
    ("sites-float", {"identity": "commutation", "u": UNIT_FIELD, "sites": [1.5]}, "cases[0].sites: must be a list"),
    ("sites-empty", {"identity": "commutation", "u": UNIT_FIELD, "sites": []}, "cases[0].sites: must be a list of at least one site number, got []"),
    ("budget-float", dict(NON_DIFFUSION, budget=2.5), "cases[0].budget: must be a non-negative integer"),
    ("budget-string", dict(NON_DIFFUSION, budget="3"), "cases[0].budget: must be a non-negative integer"),
    ("budget-negative", dict(NON_DIFFUSION, budget=-1), "cases[0].budget: must be a non-negative integer"),
    ("phis-string", dict(NON_DIFFUSION, phis="square"), "cases[0].phis: must be a list of scalar map names"),
    ("phis-int", dict(NON_DIFFUSION, phis=[1]), "cases[0].phis: must be a list of scalar map names"),
    ("Fs-spec", dict(NON_DIFFUSION, Fs=LINEAR[0]), "cases[0].Fs: must be a list of functional specs"),
    ("key-site", {"identity": "commutation", "u": UNIT_FIELD, "site": [1]}, "cases[0]: unknown keys ['site']; known: ['identity', 'u', 'sites', 'gates', 'backend']"),
    ("key-gate", {"identity": "mecke", "u": UNIT_FIELD, "gate": {"exact": 1.0}}, "cases[0]: unknown keys ['gate']; known: ['identity', 'u', 'gates', 'backend']"),
    ("key-bakend", {"identity": "mecke", "u": UNIT_FIELD, "bakend": "mc"}, "cases[0]: unknown keys ['bakend']; known: ['identity', 'u', 'gates', 'backend']"),
    ("key-of-another-identity", {"identity": "mecke", "u": UNIT_FIELD, "sites": [1], "budget": 3}, "cases[0]: unknown keys ['budget', 'sites']; known: ['identity', 'u', 'gates', 'backend']"),
]


@pytest.mark.parametrize("name, case, message", BAD_VALUES, ids=[b[0] for b in BAD_VALUES])
def test_bad_case_value_is_config_error(name, case, message):
    with pytest.raises(ConfigError) as err:
        parse_config(_config(case))
    assert str(err.value).startswith(message)


BAD_SCALARS = [
    ("mc-samples-one", {"mc": {"samples": 1}}, "mc: samples must be an integer >= 2, got 1"),
    ("mc-samples-float", {"mc": {"samples": 1000.5}}, "mc: samples must be an integer >= 2, got 1000.5"),
    ("mc-seed-bool", {"mc": {"seed": True}}, "mc: seed must be an integer >= 0, got True"),
    ("mc-seed-negative", {"mc": {"seed": -3}}, "mc: seed must be an integer >= 0, got -3"),
    ("mc-workers-string", {"mc": {"workers": "2"}}, "mc: workers must be 1 (the sampler draws one stream), got '2'"),
    ("mc-workers-four", {"mc": {"workers": 4}}, "mc: workers must be 1 (the sampler draws one stream), got 4"),
    ("mc-workers-bool", {"mc": {"workers": True}}, "mc: workers must be 1 (the sampler draws one stream), got True"),
    ("mc-list", {"mc": [1]}, "mc: must be an object, got [1]"),
    ("tol-string", {"truncation": {"tol": "x"}}, "truncation.tol: must be a number > 0, got 'x'"),
    ("tol-zero", {"truncation": {"tol": 0}}, "truncation.tol: must be a number > 0, got 0"),
    ("tol-inf", {"truncation": {"tol": float("inf")}}, "truncation.tol: must be a number > 0, got inf"),
    ("budget-float", {"truncation": {"budget": 2.5}}, "truncation.budget: must be an integer >= 1, got 2.5"),
    ("truncation-string", {"truncation": "x"}, "truncation: must be an object, got 'x'"),
    ("points-string", {"pointwise_samples": "x"}, "pointwise_samples: must be an integer >= 1, got 'x'"),
    ("points-zero", {"pointwise_samples": 0}, "pointwise_samples: must be an integer >= 1, got 0"),
    # seeded points are drawn at once: rows x sites int64 values, the random space's sites too
    ("points-past-budget", {"pointwise_samples": 10**10}, "pointwise_samples: 10000000000 x 3 int64 values need 240000000000 bytes at once, past the draw budget of 1073741824 bytes"),
    ("points-past-budget-random-sites", {"pointwise_samples": 2**24 + 1, "randomized_space": {"sites": 8}}, "pointwise_samples: 16777217 x 8 int64 values need 1073741888 bytes at once, past the draw budget of 1073741824 bytes"),
    ("random-sites-string", {"randomized_space": {"sites": "3"}}, "randomized_space.sites: must be an integer >= 1, got '3'"),
    ("random-low-zero", {"randomized_space": {"low": 0}}, "randomized_space.low: must be a number > 0, got 0"),
    ("random-high-bool", {"randomized_space": {"high": True}}, "randomized_space.high: must be a number >= 0.4, got True"),
    ("random-high-below-low", {"randomized_space": {"low": 2.0, "high": 1.0}}, "randomized_space.high: must be a number >= 2.0, got 1.0"),
]


@pytest.mark.parametrize("name, top, message", BAD_SCALARS, ids=[b[0] for b in BAD_SCALARS])
def test_bad_top_level_scalar_is_config_error(name, top, message):
    with pytest.raises(ConfigError) as err:
        parse_config(dict(_config({"identity": "mecke", "u": UNIT_FIELD}), **top))
    assert str(err.value) == message


def test_points_at_the_draw_budget_are_accepted():
    base = _config({"identity": "mecke", "u": UNIT_FIELD})
    cfg = parse_config(dict(base, pointwise_samples=2**24, randomized_space={"sites": 8}))
    assert cfg.pointwise_samples * 8 * 8 == montecarlo.DRAW_BUDGET


def test_legacy_workers_one_is_accepted():
    """Configs written for the retired worker partition said ``workers: 1``,
    which names the one stream the sampler draws."""
    base = _config({"identity": "mecke", "u": UNIT_FIELD})
    legacy = dict(base, mc={"seed": 3, "samples": 10, "workers": 1})
    assert parse_config(legacy) == parse_config(dict(base, mc={"seed": 3, "samples": 10}))


UNKNOWN_KEYS = [
    (
        "top-level",
        {"truncaton": {"tol": 1e-3}},
        "config: unknown keys ['truncaton']; known: ['space', 'truncation', 'mc', 'gates',"
        " 'pointwise_samples', 'randomized_space', 'cases']",
    ),
    (
        "truncation",
        {"truncation": {"tol": 1e-3, "budgt": 10}},
        "truncation: unknown keys ['budgt']; known: ['tol', 'budget']",
    ),
    (
        "mc",
        {"mc": {"sample": 10, "seeed": 3}},
        "mc: unknown keys ['sample', 'seeed']; known: ['seed', 'samples', 'workers']",
    ),
    (
        "randomized_space",
        {"randomized_space": {"sites": 3, "hi": 2.0}},
        "randomized_space: unknown keys ['hi']; known: ['sites', 'low', 'high']",
    ),
]


@pytest.mark.parametrize("name, top, message", UNKNOWN_KEYS, ids=[u[0] for u in UNKNOWN_KEYS])
def test_unknown_key_is_config_error(name, top, message):
    """A misspelt key would silently fall back to its default."""
    with pytest.raises(ConfigError) as err:
        parse_config(dict(_config({"identity": "mecke", "u": UNIT_FIELD}), **top))
    assert str(err.value) == message


def test_config_error_is_a_value_error():
    with pytest.raises(ValueError):
        parse_config(dict(_config({"identity": "mecke", "u": UNIT_FIELD}), mc={"samples": 1}))


def test_bad_top_level_gate_is_config_error():
    with pytest.raises(ConfigError, match=r"^gates\.pointwise: must be a number"):
        parse_config(dict(_config({"identity": "mecke", "u": UNIT_FIELD}), gates={"pointwise": "x"}))


# phi = identity on constants has defect 0.0: only a gate > 0 can fail it
CONSTANT_CHAIN_RULE = {
    "identity": "non_diffusion",
    "phis": ["identity"],
    "Fs": [{"name": "constant", "value": 1.0}],
    "Gs": [{"name": "constant", "value": 2.0}],
}
NON_POSITIVE_GATES = [
    ("counterexample_factor", -1.0),
    ("counterexample_factor", 0.0),
    ("exact", -1e-10),
    ("mc_z", -4.0),
    ("pointwise", 0),
    ("pointwise", float("-inf")),
]


def test_zero_defect_counterexample_fails_under_default_gates():
    (report,) = run_suite(parse_config(_config(CONSTANT_CHAIN_RULE)), "exact")
    assert report.defect == 0.0
    assert report.gate > 0.0
    assert not report.passed


@pytest.mark.parametrize("key, value", NON_POSITIVE_GATES)
def test_top_level_gate_must_be_positive(key, value):
    # a negative counterexample gate let the zero-defect case pass
    with pytest.raises(ConfigError, match=rf"^gates\.{key}: must be a number > 0"):
        parse_config(dict(_config(CONSTANT_CHAIN_RULE), gates={key: value}))


@pytest.mark.parametrize("key, value", NON_POSITIVE_GATES)
def test_case_gate_must_be_positive(key, value):
    case = dict(CONSTANT_CHAIN_RULE, gates={key: value})
    with pytest.raises(ConfigError, match=rf"^cases\[0\]\.gates\.{key}: must be a number > 0"):
        parse_config(_config(case))


@pytest.mark.parametrize("key, value", NON_POSITIVE_GATES + [("exact", float("nan")), ("mc_z", True)])
def test_gates_must_be_positive(key, value):
    with pytest.raises(ConfigError, match=f"^gate {key} must be a number > 0"):
        identities.Gates(**{key: value})


BAD_SPEC_PARAMS = [
    ("B-int", {"identity": "mecke", "u": {"name": "site_indicator", "B": 3}},
     "field spec 'site_indicator': 'B' must be a list of site numbers, got 3"),
    ("values-string", {"identity": "mecke", "u": {"name": "deterministic", "values": "ab"}},
     "field spec 'deterministic': 'values' must be a list of numbers, got 'ab'"),
    ("nested-degree-string",
     {"identity": "mecke", "u": {"name": "functional_times_indicator", "B": [1],
                                 "F": {"name": "poly_count", "B": [1], "degree": "x"}}},
     "functional spec 'poly_count': 'degree' must be an integer, got 'x'"),
    ("scale-past-double-range",
     {"identity": "mecke", "u": {"name": "functional_times_indicator", "B": [1],
                                 "F": {"name": "bounded_sigmoid", "B": [1], "scale": 10**400}}},
     f"functional spec 'bounded_sigmoid': 'scale' must be a number, got {10**400!r}"),
    ("unknown-key", {"identity": "mecke", "u": {"name": "site_indicator", "B": [1], "b": [2]}},
     "field spec 'site_indicator': unknown keys ['b']; known: ['name', 'B']"),
    ("nested-unknown-key",
     {"identity": "mecke", "u": {"name": "functional_times_indicator", "B": [1],
                                 "F": {"name": "affine", "terms": [[1.0, LINEAR[0]]], "constnat": 5.0}}},
     "functional spec 'affine': unknown keys ['constnat']; known: ['name', 'terms', 'constant']"),
]


@pytest.mark.parametrize("name, case, message", BAD_SPEC_PARAMS, ids=[b[0] for b in BAD_SPEC_PARAMS])
def test_bad_spec_param_is_failed_report(name, case, message):
    (report,) = run_suite(parse_config(_config(case)), "exact")
    assert not report.passed
    assert report.error == f"ConfigError: {message}"


def test_non_finite_pathwise_value_is_failed_report():
    """poly_count of degree 1100 overflows to inf from two points on, so its
    differences hold nan; the commutation check used to pass such a field
    with defect 0.0."""
    poly = {"name": "poly_count", "B": [1, 2, 3], "degree": 1100}
    cases = [
        {"identity": "commutation", "u": {"name": "derivative", "F": poly}},
        {"identity": "product_formula", "F": poly, "u": UNIT_FIELD},
    ]
    cfg = parse_config({**_config(*cases), "pointwise_samples": 20})
    with np.errstate(over="ignore", invalid="ignore"):
        reports = run_suite(cfg, "exact")
    for report, check in zip(reports, ("commutation", "product_formula")):
        assert not report.passed
        assert report.error.startswith(f"NonFiniteValueError: {report.case} defect produced")
        assert report.case.split(":")[1].startswith(check)


def test_every_check_runs_on_the_sweep_loop(monkeypatch):
    """Each identity, run once per engine on a tiny config, reaches its rows
    through ``functionals._sweep``, wrapped in every module that imports it."""
    sweep, calls = functionals._sweep, []

    def counted(*args, **kwargs):
        calls.append(args[3])  # the output names
        return sweep(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("poisson_malliavin") and getattr(module, "_sweep", None) is sweep:
            monkeypatch.setattr(module, "_sweep", counted)
    first = {}
    for case in default_config()["cases"]:
        first.setdefault(case["identity"], case)
    assert first.keys() == _IDENTITIES.keys()
    tiny = {
        "space": {"weights": [0.2, 0.3, 0.25]},
        "truncation": {"tol": 1e-6},
        "mc": {"seed": 1, "samples": 200},
        "pointwise_samples": 5,
    }
    for identity, case in first.items():
        for backend in ("exact", "mc"):
            calls.clear()
            reports = run_suite(parse_config({**tiny, "cases": [case]}), backend)
            if identity.startswith("non_diffusion") and backend == "mc":
                assert reports == []  # the search needs the exact engine
                continue
            (report,) = reports
            assert report.error is None, report.error
            assert calls, (identity, backend)


def test_failed_report_is_strict_json():
    """A check that failed with an error has no values; its report writes
    them as null instead of the bare tokens NaN and Infinity."""
    case = {"identity": "mecke", "u": {"name": "site_indicator", "B": [3]}}
    cfg = parse_config({"space": {"weights": [1.0, 1.0]}, "cases": [case]})
    (report,) = run_suite(cfg, "exact")
    assert report.error.startswith("InvalidSiteError")
    (row,) = _strict_json(reports_to_json([report]))
    assert (row["lhs"], row["rhs"], row["defect"]) == (None, None, None)
    assert row["gate"] == 0.0 and row["pass"] is False


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(-2.0, 2.0)
    | st.sampled_from(["", "square", "exact", "mc", "both", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["exact", "mc_z", "pointwise", "counterexample_factor", "exactt"]),
        inner,
        max_size=2,
    ),
    max_leaves=4,
)
# valid registry specs per binding key, nested ones included; the property
# below replaces one of their parameters, at any depth, by any JSON value
POLY = {"name": "poly_count", "B": [1, 3], "degree": 2}
_SPECS = {
    "u": st.sampled_from([
        UNIT_FIELD,
        {"name": "site_indicator", "B": [1, 3]},
        {"name": "functional_times_indicator", "B": [1, 2], "F": POLY},
        {"name": "count_times_deterministic", "B": [2], "values": [1.0, 0.5, 0.0]},
        {"name": "derivative", "F": {"name": "compose", "phi": "tanh", "F": POLY}},
    ]),
    "v": st.just({"name": "site_indicator", "B": [2]}),
    "F": st.sampled_from([
        {"name": "bounded_sigmoid", "B": [1, 2], "scale": 1.0},
        LINEAR[0],
        {"name": "affine", "terms": [[0.5, LINEAR[0]]], "constant": 1.0},
        {"name": "product", "factors": [POLY, {"name": "constant", "value": 2.0}]},
    ]),
    "G": st.just({"name": "indicator_leq", "B": [2, 3], "m": 1}),
    "Phi": st.just({"name": "indicator_leq", "B": [1], "m": 1}),
    "Fs": st.just(LINEAR),
    "Gs": st.just(LINEAR),
    "phis": st.just(["square"]),
}
_PER_CASE = ("gates", "sites", "budget", "phis", "backend")


def _param_paths(value, path=()):
    """Paths to every value inside a spec (or list of specs) but the names."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        if key != "name":
            yield path + (key,)
        if isinstance(inner, (dict, list)):
            yield from _param_paths(inner, path + (key,))


@st.composite
def _json_spec(draw, key):
    spec = copy.deepcopy(draw(_SPECS[key]))
    paths = list(_param_paths(spec))
    if paths and draw(st.booleans()):
        *outer, last = draw(st.sampled_from(paths))
        parent = spec
        for step in outer:
            parent = parent[step]
        parent[last] = draw(_JSON)
    return spec


@st.composite
def _json_cases(draw):
    identity = draw(st.sampled_from(sorted(_IDENTITIES)))
    case = {"identity": identity}
    for key in _IDENTITIES[identity].required:
        case[key] = draw(_json_spec(key))
    ident = _IDENTITIES[identity]
    for key in _PER_CASE:
        if key in ("gates", "backend", *ident.required, *ident.optional) and draw(st.booleans()):
            case[key] = draw(_JSON)
    return case


@settings(max_examples=40, deadline=None)
@given(case=_json_cases())
def test_json_case_reports_or_config_error(case):
    """Whatever JSON a case's per-case values or its registry spec
    parameters hold, the suite either runs it, failed checks included, or
    rejects it with a ConfigError naming the case; no other exception
    escapes."""
    obj = dict(_config(case), truncation={"tol": 1e-6}, pointwise_samples=20)
    try:
        cfg = parse_config(obj)
    except ConfigError as err:
        assert str(err).startswith("cases[0]")
        return
    reports = run_suite(cfg, "exact")
    assert all(isinstance(r, VerificationReport) for r in reports)
    assert len(_strict_json(reports_to_json(reports))) == len(reports)
