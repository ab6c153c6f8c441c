"""Named, parametric test vocabulary of functionals and random fields.

The registry fixes a reproducible family spanning bounded members of the
algebra dom D ^ L-infinity (sigmoids, indicators, their products) and
unbounded ones (counts and polynomials of counts), plus product and affine
combinations.  Everything is addressable by name + params from configuration
files, e.g. ``{"name": "poly_count", "B": [1, 2, 3], "degree": 2}``, so new
identity bindings never require code changes.

Certified sup-norm bounds are tracked through every combinator; they feed the
exact oracle's rigorous truncation error bounds and the boundedness checks.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .functionals import Functional, RandomField, derivative_field
from .ground import GroundSpace, SiteSet

__all__ = [
    "constant",
    "linear_count",
    "poly_count",
    "bounded_sigmoid",
    "indicator_leq",
    "product_of",
    "affine_of",
    "compose",
    "deterministic_field",
    "site_indicator_field",
    "functional_times_indicator",
    "count_times_deterministic",
    "ScalarMap",
    "scalar_map",
    "SCALAR_MAPS",
    "functional_from_spec",
    "field_from_spec",
    "random_functional_spec",
]


# ---------------------------------------------------------------------------
# functional constructors
# ---------------------------------------------------------------------------

def constant(space: GroundSpace, value: float) -> Functional:
    """F(eta) = value."""
    v = float(value)

    def fn(c: np.ndarray) -> np.ndarray:
        return np.full(c.shape[:-1], v)

    return Functional(space, fn, "constant", {"value": v}, bound=abs(v))


def linear_count(space: GroundSpace, B) -> Functional:
    """F(eta) = eta(B), the point count inside B.  Unbounded."""
    B = _as_siteset(B)
    mask = B.imask(space)

    def fn(c: np.ndarray) -> np.ndarray:
        return (c @ mask).astype(np.float64)

    return Functional(space, fn, "linear_count", {"B": B.sorted_members()})


def poly_count(space: GroundSpace, B, degree: int) -> Functional:
    """F(eta) = eta(B)^degree.  Unbounded."""
    B = _as_siteset(B)
    d = int(degree)
    if d < 1:
        raise ConfigError(f"poly_count degree must be >= 1, got {degree}")
    mask = B.imask(space)

    def fn(c: np.ndarray) -> np.ndarray:
        return (c @ mask).astype(np.float64) ** d

    return Functional(space, fn, "poly_count", {"B": B.sorted_members(), "degree": d})


def bounded_sigmoid(space: GroundSpace, B, scale: float) -> Functional:
    """F(eta) = tanh(scale * eta(B)); member of the bounded algebra, |F| <= 1."""
    B = _as_siteset(B)
    s = float(scale)
    mask = B.imask(space)

    def fn(c: np.ndarray) -> np.ndarray:
        return np.tanh(s * (c @ mask))

    return Functional(
        space, fn, "bounded_sigmoid", {"B": B.sorted_members(), "scale": s}, bound=1.0
    )


def indicator_leq(space: GroundSpace, B, m: int) -> Functional:
    """F(eta) = 1 when eta(B) <= m, else 0; bounded by 1."""
    B = _as_siteset(B)
    m = int(m)
    mask = B.imask(space)

    def fn(c: np.ndarray) -> np.ndarray:
        return ((c @ mask) <= m).astype(np.float64)

    return Functional(
        space, fn, "indicator_leq", {"B": B.sorted_members(), "m": m}, bound=1.0
    )


def product_of(*factors: Functional) -> Functional:
    """Pointwise product of registered functionals."""
    if not factors:
        raise ConfigError("product needs at least one factor")
    space = factors[0].space
    for f in factors:
        if f.space != space:
            raise ConfigError("product factors must share one ground space")

    def fn(c: np.ndarray) -> np.ndarray:
        out = factors[0].batch(c)
        for f in factors[1:]:
            out = out * f.batch(c)
        return out

    bound = None
    if all(f.bound is not None for f in factors):
        bound = float(np.prod([f.bound for f in factors]))
    name = "*".join(f"({f.name})" for f in factors)
    return Functional(space, fn, name, {}, bound=bound)


def affine_of(
    terms: Sequence[tuple[float, Functional]], const: float = 0.0
) -> Functional:
    """Affine combination sum_i a_i F_i + const."""
    if not terms:
        raise ConfigError("affine needs at least one term")
    space = terms[0][1].space
    coeffs = [(float(a), f) for a, f in terms]
    for _, f in coeffs:
        if f.space != space:
            raise ConfigError("affine terms must share one ground space")
    c0 = float(const)

    def fn(c: np.ndarray) -> np.ndarray:
        out = np.full(c.shape[:-1], c0)
        for a, f in coeffs:
            out = out + a * f.batch(c)
        return out

    bound = None
    if all(f.bound is not None for _, f in coeffs):
        bound = abs(c0) + float(sum(abs(a) * f.bound for a, f in coeffs))
    name = "affine(" + ",".join(f"{a}*{f.name}" for a, f in coeffs) + f",{c0})"
    return Functional(space, fn, name, {}, bound=bound)


# ---------------------------------------------------------------------------
# smooth scalar maps, used to compose functionals and to drive the
# chain-rule counterexample search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarMap:
    """A smooth map phi with its derivative and a sup-bound transfer rule."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    bound_map: Callable[[float], float]


SCALAR_MAPS: dict[str, ScalarMap] = {
    "identity": ScalarMap("identity", lambda x: x, lambda x: np.ones_like(x), lambda m: m),
    "square": ScalarMap("square", lambda x: x * x, lambda x: 2.0 * x, lambda m: m * m),
    "cube": ScalarMap("cube", lambda x: x**3, lambda x: 3.0 * x * x, lambda m: m**3),
    "tanh": ScalarMap(
        "tanh", np.tanh, lambda x: 1.0 - np.tanh(x) ** 2, lambda m: float(np.tanh(m))
    ),
}


def scalar_map(name: str) -> ScalarMap:
    try:
        return SCALAR_MAPS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scalar map {name!r}; known: {sorted(SCALAR_MAPS)}"
        ) from None


def compose(phi: ScalarMap | str, F: Functional) -> Functional:
    """phi(F), with the sup bound transferred when F is bounded."""
    if isinstance(phi, str):
        phi = scalar_map(phi)

    def fn(c: np.ndarray) -> np.ndarray:
        return phi.fn(F.batch(c))

    bound = None if F.bound is None else float(phi.bound_map(F.bound))
    if phi.name == "tanh":
        bound = 1.0 if bound is None else bound
    return Functional(F.space, fn, f"{phi.name}({F.name})", {}, bound=bound)


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------

def deterministic_field(space: GroundSpace, values) -> RandomField:
    """u(eta, z) = g(z) with no eta-dependence."""
    g = np.asarray(values, dtype=np.float64)
    if g.shape != (space.n,):
        raise ConfigError(
            f"deterministic field needs {space.n} site values, got shape {g.shape}"
        )
    g.setflags(write=False)

    def fn(c: np.ndarray) -> np.ndarray:
        return np.broadcast_to(g, c.shape)

    return RandomField(
        space, fn, "deterministic", {"values": g.tolist()}, bound=float(np.abs(g).max())
    )


def site_indicator_field(space: GroundSpace, B) -> RandomField:
    """u(eta, z) = 1_B(z)."""
    B = _as_siteset(B)
    field = deterministic_field(space, B.mask(space))
    return RandomField(
        space, field.fn, "site_indicator", {"B": B.sorted_members()}, bound=1.0
    )


def functional_times_indicator(space: GroundSpace, B, F: Functional) -> RandomField:
    """u(eta, z) = 1_B(z) F(eta)."""
    B = _as_siteset(B)
    mask = B.mask(space)

    def fn(c: np.ndarray) -> np.ndarray:
        return F.batch(c)[..., None] * mask

    return RandomField(
        space,
        fn,
        f"1_B*({F.name})",
        {"B": B.sorted_members()},
        bound=F.bound,
    )


def count_times_deterministic(space: GroundSpace, B, values) -> RandomField:
    """u(eta, z) = eta(B) g(z).  Unbounded."""
    B = _as_siteset(B)
    imask = B.imask(space)
    g = np.asarray(values, dtype=np.float64)
    if g.shape != (space.n,):
        raise ConfigError(
            f"count_times_deterministic needs {space.n} site values, got {g.shape}"
        )

    def fn(c: np.ndarray) -> np.ndarray:
        return (c @ imask).astype(np.float64)[..., None] * g

    return RandomField(
        space,
        fn,
        "count_times_deterministic",
        {"B": B.sorted_members(), "values": g.tolist()},
    )


# ---------------------------------------------------------------------------
# spec parsing (the CLI / config file surface)
# ---------------------------------------------------------------------------

# name -> (parameter keys, builder called as builder(space, *values)); nested
# specs go through the module-level functional_from_spec, looked up per call,
# so a wrapper installed on it also sees the nested calls
_FUNCTIONALS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "constant": (("value",), constant),
    "linear_count": (("B",), linear_count),
    "poly_count": (("B", "degree"), poly_count),
    "bounded_sigmoid": (("B", "scale"), bounded_sigmoid),
    "indicator_leq": (("B", "m"), indicator_leq),
    "product": (
        ("factors",),
        lambda space, factors: product_of(
            *[functional_from_spec(space, f) for f in factors]
        ),
    ),
    "affine": (
        ("terms", "constant"),
        lambda space, terms, const: affine_of(
            [(a, functional_from_spec(space, f)) for a, f in terms], const
        ),
    ),
    "compose": (
        ("phi", "F"),
        lambda space, phi, f: compose(scalar_map(phi), functional_from_spec(space, f)),
    ),
}
_FIELDS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "deterministic": (("values",), deterministic_field),
    "site_indicator": (("B",), site_indicator_field),
    "functional_times_indicator": (
        ("B", "F"),
        lambda space, B, f: functional_times_indicator(
            space, B, functional_from_spec(space, f)
        ),
    ),
    "count_times_deterministic": (("B", "values"), count_times_deterministic),
    "derivative": (
        ("F",),
        lambda space, f: derivative_field(functional_from_spec(space, f)),
    ),
}
# parameter keys a spec may omit, with the value used then
_DEFAULTS = {"constant": 0.0}


def _is_real(value) -> bool:
    """A number within the double range; bools, inf and nan are not."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and _is_real(value)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


# parameter key -> (accepts, what it must be), shared by every spec name that
# takes the key; nested specs are checked when they are built
_PARAMS: dict[str, tuple[Callable[[object], bool], str]] = {
    "B": (lambda v: _is_list(v) and all(map(_is_int, v)), "a list of site numbers"),
    "degree": (_is_int, "an integer"),
    "m": (_is_int, "an integer"),
    "value": (_is_real, "a number"),
    "scale": (_is_real, "a number"),
    "constant": (_is_real, "a number"),
    "values": (lambda v: _is_list(v) and all(map(_is_real, v)), "a list of numbers"),
    "phi": (lambda v: isinstance(v, str), "a scalar map name"),
    "F": (lambda v: isinstance(v, Mapping), "a functional spec"),
    "factors": (_is_list, "a list of functional specs"),
    "terms": (
        lambda v: _is_list(v)
        and all(_is_list(t) and len(t) == 2 and _is_real(t[0]) for t in v),
        "a list of [coefficient, functional spec] pairs",
    ),
}


def _from_spec(kind: str, table: dict, space: GroundSpace, spec: Mapping):
    if not isinstance(spec, Mapping) or "name" not in spec:
        raise ConfigError(f"{kind} spec must be an object with a 'name': {spec!r}")
    name = spec["name"]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {kind} name {name!r}; known: {sorted(table)}")
    keys, build = table[name]
    missing = [k for k in keys if k not in spec and k not in _DEFAULTS]
    if missing:
        raise ConfigError(f"spec {dict(spec)!r} is missing keys {missing}")
    values = [spec.get(k, _DEFAULTS.get(k)) for k in keys]
    for key, value in zip(keys, values):
        accepts, what = _PARAMS[key]
        if not accepts(value):
            raise ConfigError(
                f"{kind} spec {name!r}: {key!r} must be {what}, got {value!r}"
            )
    return build(space, *values)


def functional_from_spec(space: GroundSpace, spec: Mapping) -> Functional:
    """Build a registry functional from a ``{"name": ..., ...}`` mapping."""
    return _from_spec("functional", _FUNCTIONALS, space, spec)


def field_from_spec(space: GroundSpace, spec: Mapping) -> RandomField:
    """Build a registry random field from a ``{"name": ..., ...}`` mapping."""
    return _from_spec("field", _FIELDS, space, spec)


def random_functional_spec(rng: np.random.Generator, n_sites: int) -> dict:
    """Draw a reproducible random functional spec from the registry family.

    Used for randomized cross-validation between the exact and Monte Carlo
    backends; degrees stay <= 2 so fourth moments (hence standard errors)
    exist comfortably.
    """
    def random_sites() -> list[int]:
        k = int(rng.integers(1, n_sites + 1))
        return sorted(int(z) for z in rng.choice(n_sites, size=k, replace=False) + 1)

    kind = rng.choice(
        ["linear_count", "poly_count", "bounded_sigmoid", "indicator_leq",
         "product", "affine"]
    )
    if kind == "linear_count":
        return {"name": "linear_count", "B": random_sites()}
    if kind == "poly_count":
        return {"name": "poly_count", "B": random_sites(), "degree": int(rng.integers(1, 3))}
    if kind == "bounded_sigmoid":
        return {
            "name": "bounded_sigmoid",
            "B": random_sites(),
            "scale": round(float(rng.uniform(0.25, 1.5)), 3),
        }
    if kind == "indicator_leq":
        return {"name": "indicator_leq", "B": random_sites(), "m": int(rng.integers(0, 5))}
    if kind == "product":
        return {
            "name": "product",
            "factors": [
                {"name": "bounded_sigmoid", "B": random_sites(),
                 "scale": round(float(rng.uniform(0.25, 1.5)), 3)},
                {"name": "indicator_leq", "B": random_sites(), "m": int(rng.integers(0, 5))},
            ],
        }
    return {
        "name": "affine",
        "terms": [
            [0.5, {"name": "linear_count", "B": random_sites()}],
            [-0.25, {"name": "bounded_sigmoid", "B": random_sites(),
                     "scale": round(float(rng.uniform(0.25, 1.5)), 3)}],
        ],
        "constant": round(float(rng.uniform(-1.0, 1.0)), 3),
    }


def _as_siteset(B) -> SiteSet:
    if isinstance(B, SiteSet):
        return B
    return SiteSet.of(B)
