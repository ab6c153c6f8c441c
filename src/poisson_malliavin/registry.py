"""Named, parametric test vocabulary of functionals and random fields.

The registry fixes a reproducible family spanning bounded members of the
algebra dom D ^ L-infinity (sigmoids, indicators, their products) and
unbounded ones (counts and polynomials of counts), plus product and affine
combinations.  Everything is addressable by name + params from configuration
files, e.g. ``{"name": "poly_count", "B": [1, 2, 3], "degree": 2}``, so new
identity bindings never require code changes.  A site set ``B`` is any
iterable of 1-based site numbers, checked by ``GroundSpace.site_mask``.  Each
object's name, ``poly_count(B=[1,2,3],degree=2)`` here, is the one record of
its binding's parameters.

Certified sup-norm bounds are tracked through every combinator; they feed the
exact oracle's rigorous truncation error bounds and the boundedness checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .functionals import Functional, RandomField, derivative_field, factored_field
from .ground import GroundSpace, _is_int, _is_real

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
]


def _describe(value) -> str:
    """Spec text ``name(key=value,...)``: case ids and registry names."""
    if isinstance(value, dict):
        name = value.get("name", "?")
        parts = [f"{k}={_describe(v)}" for k, v in value.items() if k != "name"]
        return f"{name}({','.join(parts)})" if parts else name
    if isinstance(value, list):
        return "[" + ",".join(_describe(v) for v in value) + "]"
    return str(value)


def _named(cls, space: GroundSpace, fn, name: str, bound=None, **params):
    """``cls(space, fn, ...)``, a ``Functional``, ``RandomField`` or
    ``factored_field`` (fn its factors), named ``name(key=value,...)``, the
    one record of its binding's parameters."""
    return cls(space, fn, _describe({"name": name, **params}), bound=bound)


def _members(mask: np.ndarray) -> list[int]:
    """The sorted 1-based sites of a ``GroundSpace.site_mask``."""
    return (np.flatnonzero(mask) + 1).tolist()


def _real(what: str, value) -> float:
    """``value`` as a float, refused as on the config path (``_is_real``)."""
    if not _is_real(value):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _reals(what: str, values) -> np.ndarray:
    """``values`` as a float64 array, every entry checked as by ``_real``."""
    entries = np.asarray(values, dtype=object)
    if not all(map(_is_real, entries.flat)):
        raise ConfigError(f"{what} must be numbers, got {values!r}")
    return entries.astype(np.float64)


def _count_in(c: np.ndarray, B: list[int]) -> np.ndarray:
    """eta(B): the int64 counts ``c``, shape (..., n), summed over the
    sorted 1-based sites ``B`` (``_members``) by adding their columns one by
    one, shape (...).  Integer sums are exact in any order, so this is
    ``c @ site_mask(B)`` bit for bit; numpy runs that int64 matmul without
    BLAS, at about three times the cost of the column adds on a sweep
    part's neighbour rows."""
    if not B:
        return np.zeros(c.shape[:-1], dtype=np.int64)
    out = np.array(c[..., B[0] - 1], dtype=np.int64)
    for z in B[1:]:
        out += c[..., z - 1]
    return out


# ---------------------------------------------------------------------------
# functional constructors
# ---------------------------------------------------------------------------

def constant(space: GroundSpace, value: float) -> Functional:
    """F(eta) = value."""
    v = _real("constant value", value)

    def fn(c: np.ndarray) -> np.ndarray:
        return np.full(c.shape[:-1], v)

    return _named(Functional, space, fn, "constant", abs(v), value=v)


def linear_count(space: GroundSpace, B) -> Functional:
    """F(eta) = eta(B), the point count inside B.  Unbounded."""
    B = _members(space.site_mask(B))

    def fn(c: np.ndarray) -> np.ndarray:
        return _count_in(c, B).astype(np.float64)

    return _named(Functional, space, fn, "linear_count", B=B)


def poly_count(space: GroundSpace, B, degree: int) -> Functional:
    """F(eta) = eta(B)^degree.  Unbounded."""
    if not (_is_int(degree) and degree >= 1):
        raise ConfigError(f"poly_count degree must be an integer >= 1, got {degree!r}")
    d = int(degree)
    B = _members(space.site_mask(B))

    def fn(c: np.ndarray) -> np.ndarray:
        return _count_in(c, B).astype(np.float64) ** d

    return _named(Functional, space, fn, "poly_count", B=B, degree=d)


def bounded_sigmoid(space: GroundSpace, B, scale: float) -> Functional:
    """F(eta) = tanh(scale * eta(B)); member of the bounded algebra, |F| <= 1."""
    s = _real("bounded_sigmoid scale", scale)
    B = _members(space.site_mask(B))

    def fn(c: np.ndarray) -> np.ndarray:
        return np.tanh(s * _count_in(c, B))

    return _named(Functional, space, fn, "bounded_sigmoid", 1.0, B=B, scale=s)


def indicator_leq(space: GroundSpace, B, m: int) -> Functional:
    """F(eta) = 1 when eta(B) <= m, else 0; bounded by 1."""
    if not _is_int(m):
        raise ConfigError(f"indicator_leq m must be an integer, got {m!r}")
    m = int(m)
    B = _members(space.site_mask(B))

    def fn(c: np.ndarray) -> np.ndarray:
        return (_count_in(c, B) <= m).astype(np.float64)

    return _named(Functional, space, fn, "indicator_leq", 1.0, B=B, m=m)


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
    return _named(Functional, space, fn, "product", bound, factors=[f.name for f in factors])


def affine_of(
    terms: Sequence[tuple[float, Functional]], const: float = 0.0
) -> Functional:
    """Affine combination sum_i a_i F_i + const."""
    if not terms:
        raise ConfigError("affine needs at least one term")
    space = terms[0][1].space
    coeffs = [(_real("affine coefficient", a), f) for a, f in terms]
    for _, f in coeffs:
        if f.space != space:
            raise ConfigError("affine terms must share one ground space")
    c0 = _real("affine constant", const)

    def fn(c: np.ndarray) -> np.ndarray:
        out = np.full(c.shape[:-1], c0)
        for a, f in coeffs:
            out = out + a * f.batch(c)
        return out

    bound = None
    if all(f.bound is not None for _, f in coeffs):
        bound = abs(c0) + float(sum(abs(a) * f.bound for a, f in coeffs))
    return _named(
        Functional, space, fn, "affine", bound,
        terms=[[a, f.name] for a, f in coeffs], constant=c0,
    )


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
    return _named(Functional, F.space, fn, "compose", bound, phi=phi.name, F=F.name)


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------

def deterministic_field(space: GroundSpace, values) -> RandomField:
    """u(eta, z) = g(z) with no eta-dependence."""
    g = _reals("deterministic field values", values)
    bound = float(np.abs(g).max(initial=0.0))  # 0.0 on no values, refused below
    return _named(factored_field, space, (None, g), "deterministic", bound, values=g.tolist())


def site_indicator_field(space: GroundSpace, B) -> RandomField:
    """u(eta, z) = 1_B(z)."""
    mask = space.site_mask(B)
    return _named(factored_field, space, (None, mask), "site_indicator", 1.0, B=_members(mask))


def functional_times_indicator(space: GroundSpace, B, F: Functional) -> RandomField:
    """u(eta, z) = 1_B(z) F(eta).  F must be bound to ``space``."""
    mask = space.site_mask(B)
    return _named(
        factored_field, space, (F, mask), "functional_times_indicator", F.bound,
        B=_members(mask), F=F.name,
    )


def count_times_deterministic(space: GroundSpace, B, values) -> RandomField:
    """u(eta, z) = eta(B) g(z).  Unbounded."""
    F = linear_count(space, B)
    g = _reals("count_times_deterministic values", values)
    return _named(
        factored_field, space, (F, g), "count_times_deterministic",
        B=_members(space.site_mask(B)), values=g.tolist(),
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
