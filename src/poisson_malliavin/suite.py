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
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import ConfigError, PoissonMalliavinError
from .exact import DEFAULT_BUDGET, ExactBackend
from .ground import GroundSpace, SiteSet
from .identities import (
    Gates,
    VerificationReport,
    bracket_expectation_check,
    chain_rule_control_check,
    commutation_check,
    duality_check,
    energy_derivation_check,
    gamma_form_bound_check,
    gamma_representation_check,
    mecke_check,
    non_diffusion_counterexample,
    product_formula_check,
    skorokhod_check,
)
from .montecarlo import MonteCarloBackend, SamplerConfig
from .registry import field_from_spec, functional_from_spec

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

# binding keys per identity, in report order; "u"/"v" are fields, the rest
# functionals
_REQUIRED_BINDINGS = {
    "mecke": ("u",),
    "duality": ("F", "u"),
    "skorokhod": ("u",),
    "commutation": ("u",),
    "product_formula": ("F", "u"),
    "energy_derivation": ("F", "G", "u"),
    "gamma_representation": ("F", "Phi"),
    "gamma_form_bound": ("F", "Phi"),
    "bracket_expectation": ("u", "v"),
    "non_diffusion": ("phis", "Fs", "Gs"),
    "non_diffusion_control": ("F", "G"),
}
# identities that are pathwise statements: no expectation backend involved
_POINTWISE = {"commutation", "product_formula"}
# identities that only make sense on the exact backend
_EXACT_ONLY = {"non_diffusion", "non_diffusion_control"}


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

    space_obj = obj.get("space")
    if not isinstance(space_obj, dict) or "weights" not in space_obj:
        raise ConfigError("space: must be an object with a 'weights' array")
    try:
        space = GroundSpace(tuple(space_obj["weights"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"space.weights: {exc}") from exc

    trunc = obj.get("truncation", {})
    tol = float(trunc.get("tol", 1e-12))
    budget = int(trunc.get("budget", DEFAULT_BUDGET))
    if not tol > 0.0:
        raise ConfigError(f"truncation.tol: must be > 0, got {tol}")
    if budget < 1:
        raise ConfigError(f"truncation.budget: must be >= 1, got {budget}")

    mc_obj = obj.get("mc", {})
    try:
        mc = SamplerConfig(
            seed=int(mc_obj.get("seed", 0)),
            samples=int(mc_obj.get("samples", 100_000)),
            workers=int(mc_obj.get("workers", 1)),
        )
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc

    gates_obj = obj.get("gates", {})
    known = {"exact", "mc_z", "pointwise", "counterexample_factor"}
    unknown = set(gates_obj) - known
    if unknown:
        raise ConfigError(f"gates: unknown keys {sorted(unknown)}")
    gates = Gates(**{k: float(v) for k, v in gates_obj.items()})

    points = int(obj.get("pointwise_samples", 200))
    if points < 1:
        raise ConfigError("pointwise_samples: must be >= 1")

    rand = obj.get("randomized_space")
    if rand is not None:
        if not isinstance(rand, dict):
            raise ConfigError("randomized_space: must be an object or absent")
        sites = int(rand.get("sites", space.n))
        low = float(rand.get("low", 0.4))
        high = float(rand.get("high", 1.6))
        if sites < 1 or not 0.0 < low <= high:
            raise ConfigError(
                "randomized_space: needs sites >= 1 and 0 < low <= high"
            )
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


def _validate_case(i: int, case) -> None:
    where = f"cases[{i}]"
    if not isinstance(case, dict) or "identity" not in case:
        raise ConfigError(f"{where}: must be an object with an 'identity' key")
    identity = case["identity"]
    if identity not in _REQUIRED_BINDINGS:
        raise ConfigError(
            f"{where}.identity: unknown identity {identity!r};"
            f" known: {sorted(_REQUIRED_BINDINGS)}"
        )
    for key in _REQUIRED_BINDINGS[identity]:
        if key not in case:
            raise ConfigError(f"{where}: identity {identity!r} needs binding {key!r}")
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

def _describe(value) -> str:
    if isinstance(value, dict):
        name = value.get("name", "?")
        parts = []
        for k, v in value.items():
            if k == "name":
                continue
            parts.append(f"{k}={_describe(v)}")
        return f"{name}({','.join(parts)})" if parts else name
    if isinstance(value, list):
        return "[" + ",".join(_describe(v) for v in value) + "]"
    return str(value)


def _case_id(index: int, case: dict, backend_label: str, space_tag: str) -> str:
    identity = case["identity"]
    bind = ",".join(
        f"{k}={_describe(case[k])}" for k in _REQUIRED_BINDINGS[identity] if k in case
    )
    return f"{index:02d}:{identity}[{bind}]@{backend_label}#{space_tag}"


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _run_one(
    case: dict,
    case_id: str,
    identity: str,
    space: GroundSpace,
    backend,
    gates: Gates,
    seed: int,
    points: int,
) -> VerificationReport:
    if identity == "mecke":
        return mecke_check(field_from_spec(space, case["u"]), backend, gates, case_id)
    if identity == "duality":
        return duality_check(
            functional_from_spec(space, case["F"]),
            field_from_spec(space, case["u"]),
            backend,
            gates,
            case_id,
        )
    if identity == "skorokhod":
        return skorokhod_check(field_from_spec(space, case["u"]), backend, gates, case_id)
    if identity == "commutation":
        sites = SiteSet.of(case["sites"]) if "sites" in case else None
        return commutation_check(
            field_from_spec(space, case["u"]),
            sites,
            seed=seed,
            points=points,
            gates=gates,
            case=case_id,
        )
    if identity == "product_formula":
        return product_formula_check(
            functional_from_spec(space, case["F"]),
            field_from_spec(space, case["u"]),
            seed=seed,
            points=points,
            gates=gates,
            case=case_id,
        )
    if identity == "energy_derivation":
        return energy_derivation_check(
            functional_from_spec(space, case["F"]),
            functional_from_spec(space, case["G"]),
            field_from_spec(space, case["u"]),
            backend,
            gates,
            case_id,
        )
    if identity == "gamma_representation":
        return gamma_representation_check(
            functional_from_spec(space, case["F"]),
            functional_from_spec(space, case["Phi"]),
            backend,
            gates,
            case_id,
        )
    if identity == "gamma_form_bound":
        return gamma_form_bound_check(
            functional_from_spec(space, case["F"]),
            functional_from_spec(space, case["Phi"]),
            backend,
            gates,
            case_id,
        )
    if identity == "bracket_expectation":
        return bracket_expectation_check(
            field_from_spec(space, case["u"]),
            field_from_spec(space, case["v"]),
            backend,
            gates,
            case_id,
        )
    if identity == "non_diffusion":
        return non_diffusion_counterexample(
            backend,
            list(case["phis"]),
            [functional_from_spec(space, s) for s in case["Fs"]],
            [functional_from_spec(space, s) for s in case["Gs"]],
            budget=int(case.get("budget", 100)),
            gates=gates,
            case=case_id,
        )
    if identity == "non_diffusion_control":
        return chain_rule_control_check(
            functional_from_spec(space, case["F"]),
            functional_from_spec(space, case["G"]),
            backend,
            gates,
            case_id,
        )
    raise ConfigError(f"unknown identity {identity!r}")


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
            identity = case["identity"]
            case_gates = cfg.gates
            if "gates" in case:
                case_gates = replace(
                    cfg.gates, **{k: float(v) for k, v in case["gates"].items()}
                )

            if identity in _POINTWISE:
                runs = [("pointwise", None)]
            else:
                allowed = case.get("backend", "both")
                runs = []
                if exact_backend is not None and allowed in ("exact", "both"):
                    runs.append(("exact", exact_backend))
                if (
                    mc_backend is not None
                    and allowed in ("mc", "both")
                    and identity not in _EXACT_ONLY
                ):
                    runs.append(("mc", mc_backend))

            for label, engine in runs:
                case_id = _case_id(index, case, label, space_tag)
                try:
                    reports.append(
                        _run_one(
                            case,
                            case_id,
                            identity,
                            space,
                            engine,
                            case_gates,
                            cfg.mc.seed,
                            cfg.pointwise_samples,
                        )
                    )
                except PoissonMalliavinError as exc:
                    reports.append(_failed_report(case_id, cfg.mc.seed, exc))
    return reports


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


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
