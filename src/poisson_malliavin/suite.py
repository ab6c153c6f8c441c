"""Suite configuration, execution order, and machine-readable reports.

A suite config is a JSON object with keys ``space``, ``truncation``
(``tol``, ``budget``), ``mc`` (``seed``, ``samples``, ``workers``),
``gates``, and ``cases`` (the identity binding grid).  The default grid ships
as a packaged data file rather than code, so new bindings are added by
editing or overriding the config.  When ``randomized_space`` is present the
whole grid additionally runs on a space whose weights are drawn from the
suite seed, which breaks any coincidences the canonical weights might hide.

Execution order is fixed (space, then case index, then backend), and reports
serialize without the measured wall times, so rerunning an identical config
produces byte-identical report files.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import identities
from .errors import ConfigError, PoissonMalliavinError
from .exact import DEFAULT_BUDGET, ExactBackend
from .ground import GroundSpace, _is_int, _is_real
from .identities import Gates, VerificationReport
from .montecarlo import MonteCarloBackend, SamplerConfig
from .registry import _describe, field_from_spec, functional_from_spec

__all__ = [
    "SuiteConfig",
    "default_config",
    "parse_config",
    "load_config",
    "run_suite",
    "reports_to_json",
    "write_report",
    "summarize",
]

_RANDOM_SPACE_SALT = 0x52414E44
_SECTIONS = ["space", "truncation", "mc", "gates", "pointwise_samples", "randomized_space", "cases"]


class _Identity(NamedTuple):
    # name of the check in ``identities``, looked up per call so that code
    # wrapping the module attribute (a tracer, a test double) sees every call
    check: str
    # binding keys in report-id order; the check's parameters have these names
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    # "pointwise": pathwise, no backend; "either": exact and Monte Carlo;
    # "exact": needs the enumerated state table
    mode: str = "either"


_IDENTITIES = {
    "mecke": _Identity("mecke_check", ("u",)),
    "duality": _Identity("duality_check", ("F", "u")),
    "skorokhod": _Identity("skorokhod_check", ("u",)),
    "commutation": _Identity("commutation_check", ("u",), ("sites",), "pointwise"),
    "product_formula": _Identity("product_formula_check", ("F", "u"), mode="pointwise"),
    "energy_derivation": _Identity("energy_derivation_check", ("F", "G", "u")),
    "gamma_representation": _Identity("gamma_representation_check", ("F", "Phi")),
    "gamma_form_bound": _Identity("gamma_form_bound_check", ("F", "Phi")),
    "bracket_expectation": _Identity("bracket_expectation_check", ("u", "v")),
    "non_diffusion": _Identity(
        "non_diffusion_counterexample", ("phis", "Fs", "Gs"), ("budget",), "exact"
    ),
    "non_diffusion_control": _Identity(
        "chain_rule_control_check", ("F", "G"), mode="exact"
    ),
}


def _bind(key: str, value, space: GroundSpace):
    """The check argument for one binding key, built from the case's value."""
    if key in ("u", "v"):
        return field_from_spec(space, value)
    if key in ("F", "G", "Phi"):
        return functional_from_spec(space, value)
    if key in ("Fs", "Gs"):
        return [functional_from_spec(space, spec) for spec in value]
    if key == "budget":
        return int(value)
    return list(value)  # sites, or phis: scalar map names, resolved by the check


@dataclass(frozen=True)
class SuiteConfig:
    """Parsed and validated suite configuration."""

    space: GroundSpace
    truncation_tol: float
    truncation_budget: int
    mc: SamplerConfig
    gates: Gates
    pointwise_samples: int
    randomized_space: dict | None
    cases: tuple[dict, ...]


def default_config() -> dict:
    """The packaged default configuration (canonical space and binding grid)."""
    text = (
        resources.files("poisson_malliavin")
        .joinpath("data/default_config.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def parse_config(obj: dict) -> SuiteConfig:
    """Validate a raw config object, reporting the offending key on failure."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _known_keys("config", obj, _SECTIONS)

    space_obj = obj.get("space")
    if not isinstance(space_obj, dict) or "weights" not in space_obj:
        raise ConfigError("space: must be an object with a 'weights' array")
    try:
        space = GroundSpace(tuple(space_obj["weights"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"space.weights: {exc}") from exc

    trunc = _section(obj, "truncation", ["tol", "budget"])
    tol = float(_scalar(trunc, "truncation.tol", 1e-12, _is_real, 0, strict=True))
    budget = _scalar(trunc, "truncation.budget", DEFAULT_BUDGET, _is_int, 1)

    mc_obj = _section(obj, "mc", [f.name for f in fields(SamplerConfig)])
    try:
        mc = SamplerConfig(
            seed=mc_obj.get("seed", 0),
            samples=mc_obj.get("samples", 100_000),
            workers=mc_obj.get("workers", 1),
        )
    except ConfigError as exc:
        raise ConfigError(f"mc: {exc}") from exc

    gates = Gates(**_parse_gates("gates", obj.get("gates", {})))

    points = _scalar(obj, "pointwise_samples", 200, _is_int, 1)

    rand = obj.get("randomized_space")
    if rand is not None:
        if not isinstance(rand, dict):
            raise ConfigError("randomized_space: must be an object or absent")
        _known_keys("randomized_space", rand, ["sites", "low", "high"])
        sites = _scalar(rand, "randomized_space.sites", space.n, _is_int, 1)
        low = float(_scalar(rand, "randomized_space.low", 0.4, _is_real, 0, strict=True))
        high = float(_scalar(rand, "randomized_space.high", 1.6, _is_real, low))
        rand = {"sites": sites, "low": low, "high": high}

    cases = obj.get("cases")
    if not isinstance(cases, list) or not cases:
        raise ConfigError("cases: must be a non-empty array")
    for i, case in enumerate(cases):
        _validate_case(i, case)

    return SuiteConfig(
        space=space,
        truncation_tol=tol,
        truncation_budget=budget,
        mc=mc,
        gates=gates,
        pointwise_samples=points,
        randomized_space=rand,
        cases=tuple(cases),
    )


def _known_keys(where: str, obj: dict, known: list[str]) -> None:
    # a misspelt key would silently fall back to its default
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; known: {known}")


def _section(obj: dict, key: str, known: list[str]) -> dict:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object, got {value!r}")
    _known_keys(key, value, known)
    return value


def _scalar(obj: dict, where: str, default, accepts, low, strict: bool = False):
    """``obj``'s value for the last key of ``where`` (``default`` when
    absent), which must pass ``accepts`` (``_is_int`` or ``_is_real``) and be
    >= ``low``, or > ``low`` when ``strict``."""
    value = obj.get(where.rsplit(".", 1)[-1], default)
    if accepts(value) and (value > low if strict else value >= low):
        return value
    kind = "an integer" if accepts is _is_int else "a number"
    rule = ">" if strict else ">="
    raise ConfigError(f"{where}: must be {kind} {rule} {low}, got {value!r}")


def _parse_gates(where: str, obj) -> dict[str, float]:
    """Gate overrides by name; every value must be a finite JSON number > 0."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    _known_keys(where, obj, [f.name for f in fields(Gates)])
    for key, value in obj.items():
        if not (_is_real(value) and value > 0):
            raise ConfigError(f"{where}.{key}: must be a number > 0, got {value!r}")
    return {key: float(value) for key, value in obj.items()}


# binding values whose shape is checked at parse time: (accepts, what it
# must be); the registry specs themselves are built per run
_SHAPES = {
    "Fs": (lambda v: isinstance(v, list), "a list of functional specs"),
    "Gs": (lambda v: isinstance(v, list), "a list of functional specs"),
    "sites": (
        lambda v: isinstance(v, list) and len(v) > 0 and all(_is_int(z) for z in v),
        "a list of at least one site number",
    ),
    "budget": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "phis": (
        lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v),
        "a list of scalar map names",
    ),
}


def _validate_case(i: int, case) -> None:
    where = f"cases[{i}]"
    if not isinstance(case, dict) or "identity" not in case:
        raise ConfigError(f"{where}: must be an object with an 'identity' key")
    identity = case["identity"]
    if not isinstance(identity, str) or identity not in _IDENTITIES:
        raise ConfigError(
            f"{where}.identity: unknown identity {identity!r};"
            f" known: {sorted(_IDENTITIES)}"
        )
    entry = _IDENTITIES[identity]
    for key in entry.required:
        if key not in case:
            raise ConfigError(f"{where}: identity {identity!r} needs binding {key!r}")
    for key in entry.required + entry.optional:
        if key in _SHAPES and key in case:
            accepts, what = _SHAPES[key]
            if not accepts(case[key]):
                raise ConfigError(f"{where}.{key}: must be {what}, got {case[key]!r}")
    if "gates" in case:
        _parse_gates(f"{where}.gates", case["gates"])
    backend = case.get("backend")
    if backend not in (None, "exact", "mc", "both"):
        raise ConfigError(f"{where}.backend: must be 'exact', 'mc', or 'both'")


def load_config(path: str | None) -> SuiteConfig:
    """Load and parse a config file; None loads the packaged default."""
    if path is None:
        return parse_config(default_config())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(obj)


# ---------------------------------------------------------------------------
# case descriptions (stable report ids)
# ---------------------------------------------------------------------------

def _case_id(index: int, case: dict, backend_label: str, space_tag: str) -> str:
    identity = case["identity"]
    bind = ",".join(f"{k}={_describe(case[k])}" for k in _IDENTITIES[identity].required)
    return f"{index:02d}:{identity}[{bind}]@{backend_label}#{space_tag}"


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _failed_report(case_id: str, seed: int, exc: Exception) -> VerificationReport:
    return VerificationReport(
        case=case_id,
        lhs=float("nan"),
        rhs=float("nan"),
        defect=float("inf"),
        gate=0.0,
        gate_kind="upper",
        passed=False,
        seed=seed,
        n=0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _random_space(cfg: SuiteConfig) -> GroundSpace:
    rand = cfg.randomized_space
    rng = np.random.default_rng(np.random.SeedSequence([cfg.mc.seed, _RANDOM_SPACE_SALT]))
    weights = rng.uniform(rand["low"], rand["high"], size=rand["sites"])
    return GroundSpace(tuple(round(float(w), 6) for w in weights))


def run_suite(cfg: SuiteConfig, backend: str = "both") -> list[VerificationReport]:
    """Run every configured case; individual failures never abort the suite.

    ``backend`` restricts the expectation engines ("exact", "mc", or "both").
    Pathwise checks run once per space regardless, and the counterexample
    search requires the exact engine, so it is skipped on Monte Carlo only
    runs.
    """
    if backend not in ("exact", "mc", "both"):
        raise ConfigError(f"backend must be 'exact', 'mc', or 'both', got {backend!r}")
    want_exact = backend in ("exact", "both")
    want_mc = backend in ("mc", "both")

    spaces = [("canonical", cfg.space)]
    if cfg.randomized_space is not None:
        spaces.append(("random", _random_space(cfg)))

    reports: list[VerificationReport] = []
    for space_tag, space in spaces:
        exact_backend = (
            ExactBackend(space, cfg.truncation_tol, cfg.truncation_budget)
            if want_exact
            else None
        )
        mc_backend = MonteCarloBackend(space, cfg.mc) if want_mc else None
        for index, case in enumerate(cfg.cases):
            identity = _IDENTITIES[case["identity"]]
            case_gates = cfg.gates
            if "gates" in case:
                case_gates = replace(
                    cfg.gates, **{k: float(v) for k, v in case["gates"].items()}
                )

            if identity.mode == "pointwise":
                runs = [("pointwise", None)]
            else:
                allowed = case.get("backend", "both")
                runs = [
                    (label, engine)
                    for label, engine in (("exact", exact_backend), ("mc", mc_backend))
                    if engine is not None
                    and allowed in (label, "both")
                    and identity.mode in (label, "either")
                ]

            for label, engine in runs:
                case_id = _case_id(index, case, label, space_tag)
                if engine is None:
                    run_args = {"seed": cfg.mc.seed, "points": cfg.pointwise_samples}
                else:
                    run_args = {"backend": engine}
                t0 = time.perf_counter()
                try:
                    args = {
                        key: _bind(key, case[key], space)
                        for key in identity.required + identity.optional
                        if key in case
                    }
                    check = getattr(identities, identity.check)
                    report = check(**args, **run_args, gates=case_gates, case=case_id)
                except PoissonMalliavinError as exc:
                    report = _failed_report(case_id, cfg.mc.seed, exc)
                reports.append(replace(report, wall_time=time.perf_counter() - t0))
    return reports


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def reports_to_json(reports: list[VerificationReport]) -> str:
    """The reports as strict JSON: non-finite numbers are written as null."""
    return json.dumps([r.to_dict() for r in reports], indent=2, allow_nan=False) + "\n"


def write_report(reports: list[VerificationReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(reports_to_json(reports))


def summarize(reports: list[VerificationReport]) -> str:
    """Human-readable one-line-per-check summary, wall times included."""
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        note = f"  ! {r.error}" if r.error else ""
        lines.append(
            f"{status}  {r.case}  defect={r.defect:.3e} gate={r.gate:.3e}"
            f" ({1e3 * r.wall_time:.1f} ms){note}"
        )
    n_pass = sum(r.passed for r in reports)
    lines.append(f"{n_pass}/{len(reports)} checks passed")
    return "\n".join(lines)
