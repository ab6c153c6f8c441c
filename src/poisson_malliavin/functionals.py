"""Evaluable functionals F(eta), random fields u(eta, z), and the add-one /
drop-one difference operators

    D+_z F(eta) = F(eta + delta_z) - F(eta)
    D-_z F(eta) = (F(eta) - F(eta - delta_z)) 1_{z in eta}

which are the Poisson-space analogue of a derivative.  Functionals are
closures over their ground space rather than symbolic expressions: the
identity suite only needs evaluation.

Everything evaluates on batches.  A counts array of shape (..., n) maps to
values of shape (...) for functionals and (..., n) for fields (one value per
site), so the exact oracle sweeps its truncated state table and the Monte Carlo
engine its distinct sample rows in a few numpy calls.  Both, and the
pathwise checks, go through one loop, ``_sweep``, over parts of at most
``_sweep_step(n)`` rows, which also holds the one non-finite check.  Every
part's counts rows are tagged with a memo (``lattice``): a box slice of the
exact oracle's table where that evaluates less (``lattice.sweep_parts``),
else a row stencil, which evaluates each object once per part, at eta and
eta +- delta_z.
``Functional.batch``, ``RandomField.values`` and the shift helpers read
its values and shifts and build every difference here, a gradient
field's included.  A factored field F(eta) g(z) (``factored_field``) is
read off F's values and shifts times g on a memo's rows, so only F is
memoised, never the (rows, n) field.  Evaluations are pure, hence safe
for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lattice
from .errors import ConfigError, NonFiniteValueError, ShapeError
from .ground import GroundSpace

__all__ = [
    "Functional",
    "RandomField",
    "derivative_field",
    "factored_field",
    "product_field",
    "shifted_all",
    "add_diff_all",
    "drop_diff_all",
    "field_add_tensor",
    "field_added_diag",
    "field_dropped_diag",
]


def _as_counts(space: GroundSpace, counts) -> np.ndarray:
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim == 0 or arr.shape[-1] != space.n:
        raise ShapeError(
            f"counts array with trailing dimension {arr.shape} does not match"
            f" a ground space with {space.n} sites"
        )
    return arr


@dataclass(frozen=True, eq=False)
class Functional:
    """Deterministic, total map from configurations to reals.

    ``fn`` receives an integer counts array of shape (..., n) and must return
    values of shape (...).  ``bound`` is an optional certified sup-norm bound;
    when present the exact oracle turns truncation mass into a rigorous
    expectation error bound instead of a heuristic one.
    """

    space: GroundSpace
    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    bound: float | None = None

    def batch(self, counts) -> np.ndarray:
        """Evaluate on a counts array of shape (..., n); returns shape (...).
        Tagged rows are evaluated once per sweep part (``lattice``)."""
        arr = _as_counts(self.space, counts)
        if lattice.is_tagged(counts):
            return counts.box.values(self, counts.part)
        return np.asarray(self.fn(arr), dtype=np.float64)

    def __repr__(self) -> str:
        return f"Functional({self.name!r}, bound={self.bound!r})"


@dataclass(frozen=True, eq=False)
class RandomField:
    """Deterministic, total map u(eta, z) over configurations and sites.

    ``fn`` receives counts of shape (..., n) and returns all site values at
    once, shape (..., n); column z - 1 is u(eta, z).  ``gradient_of`` is the
    functional F when the field is DF (set by ``derivative_field`` only);
    ``factors`` is (F, g) when the field is F(eta) g(z), F None for the
    constant 1 (set by ``factored_field`` only).
    """

    space: GroundSpace
    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    bound: float | None = None
    gradient_of: Functional | None = None
    factors: tuple[Functional | None, np.ndarray] | None = None

    def values(self, counts) -> np.ndarray:
        """Evaluate on counts of shape (..., n); returns shape (..., n).
        Tagged rows are evaluated once per sweep part (``lattice``); DF on
        a part's own rows is ``add_diff_all`` of F's memoised shifts, and a
        factored field on any tagged rows is F's memoised values times g,
        laid out like the rows."""
        arr = _as_counts(self.space, counts)
        if lattice.is_slice(counts) and self.gradient_of is not None:
            return add_diff_all(self.gradient_of, counts)
        if lattice.is_tagged(counts) and self.factors is not None:
            return _factored(self, counts)
        if lattice.is_tagged(counts):
            return counts.box.values(self, counts.part)
        return np.asarray(self.fn(arr), dtype=np.float64)

    def __repr__(self) -> str:
        return f"RandomField({self.name!r}, bound={self.bound!r})"


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def shifted_all(F: Functional, counts: np.ndarray, step: int) -> np.ndarray:
    """out[..., z-1] = F(eta + step delta_z) for step 1 or -1, a drop
    clipped at 0 (``lattice.neighbour_rows``).  Shape (..., n).  On a sweep
    part they are F's memoised values at the part's neighbours."""
    if lattice.is_slice(counts):
        return counts.box.around(F, step)
    return F.batch(lattice.neighbour_rows(_as_counts(F.space, counts), step))


def add_diff_all(F: Functional, counts: np.ndarray) -> np.ndarray:
    """All add differences at once: out[..., z-1] = D+_z F.  Shape (..., n)."""
    return shifted_all(F, counts, 1) - F.batch(counts)[..., None]


def drop_diff_all(F: Functional, counts: np.ndarray) -> np.ndarray:
    """All drop differences at once: out[..., z-1] = D-_z F, from n + 1
    evaluations of F per configuration, memoised on a sweep part.  Shape
    (..., n).  The indicator 1_{z in eta} needs no factor: at an empty site
    the drop is clipped to eta itself, so the difference is F(eta) - F(eta),
    exactly 0.0 for a finite value."""
    return F.batch(counts)[..., None] - shifted_all(F, counts, -1)


def derivative_field(F: Functional) -> RandomField:
    """The gradient field DF: (eta, z) -> D+_z F(eta).

    A sup-norm bound M on F certifies |D+_z F| <= 2M, so boundedness is
    inherited with the doubled constant.
    """

    def fn(counts: np.ndarray) -> np.ndarray:
        return add_diff_all(F, counts)

    return RandomField(
        space=F.space,
        fn=fn,
        name=f"D({F.name})",
        bound=None if F.bound is None else 2.0 * F.bound,
        gradient_of=F,
    )


def factored_field(
    space: GroundSpace, factors, name: str, bound: float | None = None
) -> RandomField:
    """The field (eta, z) -> F(eta) g(z) of ``factors`` = (F, g), F None
    for the constant 1.  g is cast to float64, which keeps a 0/1 integer
    mask's products.  On a memo's rows the field is read off F's memoised
    values and shifts times g, in ``fn``'s order, never given a halo."""
    F, g = factors
    g = np.array(g, dtype=np.float64)
    if F is not None and F.space != space:
        raise ConfigError(f"{F.name!r} is bound to a different ground space than {name!r}")
    if g.shape != (space.n,):
        raise ConfigError(f"{name} needs {space.n} site values, got shape {g.shape}")
    g.setflags(write=False)

    def fn(counts: np.ndarray) -> np.ndarray:
        if F is None:
            return np.broadcast_to(g, counts.shape)
        return F.batch(counts)[..., None] * g

    return RandomField(space, fn, name, bound, factors=(F, g))


def _factored(u: RandomField, counts, step: int = 0, tensor: bool = False) -> np.ndarray:
    """A factored field on tagged rows, F's memoised values or shifts times
    g: u(eta + step delta_z, z), laid out like the rows, or with ``tensor``
    u(eta + delta_z, z'), a C-ordered (rows, n, n) array.  Any step but 0
    needs a memo's own rows."""
    F, g = u.factors
    if tensor:
        if F is None:
            return np.broadcast_to(g, counts.shape + g.shape)
        return np.multiply(shifted_all(F, counts, 1)[..., None], g, order="C")
    out = np.empty_like(counts, dtype=np.float64, subok=False)
    if F is None:
        out[...] = g
    else:
        at = F.batch(counts)[..., None] if step == 0 else shifted_all(F, counts, step)
        np.multiply(at, g, out=out)
    return out


def product_field(F: Functional, u: RandomField) -> RandomField:
    """The field (eta, z) -> F(eta) u(eta, z)."""
    if F.space != u.space:
        raise ShapeError("functional and field live on different ground spaces")

    def fn(counts: np.ndarray) -> np.ndarray:
        return F.batch(counts)[..., None] * u.values(counts)

    bound = None
    if F.bound is not None and u.bound is not None:
        bound = F.bound * u.bound
    return RandomField(F.space, fn, f"({F.name})*({u.name})", bound)


# ---------------------------------------------------------------------------
# batch helpers used by the divergence, brackets, and engines
# ---------------------------------------------------------------------------

# byte budget of one (rows, n, n) float64 slab, the largest temporary an
# add-side kernel builds; a box slice's halo holds (rows, n) values, and
# keeps them within the same budget
_SWEEP_BYTES = 8 << 20


def _sweep_step(n: int) -> int:
    """Rows per box slice on n sites: at most ``_SWEEP_BYTES // (8 n^2)``;
    a row stencil holds an eighth of that (``lattice.stencil_parts``)."""
    return max(1, _SWEEP_BYTES // (8 * n * n))


def _sweep(kernel, m: int, parts, names: tuple[str, ...], locate) -> tuple[np.ndarray, ...]:
    """The one sweep loop of every check.  Run ``kernel(counts) -> tuple of
    per-row values`` on each ``(start, stop, counts)`` of ``parts``, writing
    each output into a preallocated (m,) float64 array at [start, stop).

    Kernels are row-wise, so every value equals a one-call sweep's bit for
    bit, whatever the parts: row stencils (``lattice.stencil_parts``) or the
    exact engine's box slices (``lattice.sweep_parts``).  Both may hand
    over site-major (rows, n) arrays, whose sums over the site axis keep
    their bits; a kernel that reduces over two site axes at once adds its
    terms in a fixed order, as the Skorokhod double integral does.  Memory
    is the (m,) outputs plus one part's temporaries.  The first output, in
    ``names`` order, holding a non-finite value raises
    ``NonFiniteValueError`` naming it and the configuration that
    ``locate(finite)`` picks from its finite mask.
    """
    outs: tuple[np.ndarray, ...] = ()
    for start, stop, counts in parts:
        values = kernel(counts)
        if not outs:
            outs = tuple(np.empty(m, dtype=np.float64) for _ in values)
        for out, v in zip(outs, values):
            out[start:stop] = np.asarray(v, dtype=np.float64).reshape(stop - start)
    for out, what in zip(outs, names, strict=True):
        finite = np.isfinite(out)
        if not finite.all():
            raise NonFiniteValueError(
                f"{what} produced a non-finite value at configuration"
                f" counts={[int(k) for k in locate(finite)]}"
            )
    return outs


def _check_per_row(values, m: int) -> None:
    """A ``ShapeError`` unless ``values`` holds one value per row of an
    m-row sweep, as a backend's ``mean`` reduces it."""
    if np.shape(values) != (m,):
        raise ShapeError(
            f"values must hold one value per row, shape ({m},), got shape {np.shape(values)}"
        )


def _check_binding(engine, *objs) -> None:
    """A ``ShapeError`` unless ``objs`` are bound to ``engine.space``."""
    for obj in objs:
        if obj.space != engine.space:
            raise ShapeError(
                f"{obj.name!r} is bound to a different ground space than the backend"
            )


def field_add_tensor(u: RandomField, counts: np.ndarray) -> np.ndarray:
    """T[..., z-1, zp-1] = u(eta + delta_z, zp).  Shape (..., n, n).

    On a sweep part it is read off u's memoised shifts; for a gradient
    field u = DF it is F(eta + delta_z + delta_zp) - F(eta + delta_z), read
    off F's shifts and the second-order points past them, and for a
    factored field F(eta + delta_z) g(zp).
    """
    if lattice.is_slice(counts):
        if u.factors is not None:
            return _factored(u, counts, tensor=True)
        F = u.gradient_of
        if F is None:
            return counts.box.around(u, 1)
        return counts.box.second_order(F) - shifted_all(F, counts, 1)[..., None]
    return u.values(lattice.neighbour_rows(_as_counts(u.space, counts), 1))


def field_added_diag(u: RandomField, counts: np.ndarray) -> np.ndarray:
    """out[..., z-1] = u(eta + delta_z, z), the diagonal of
    ``field_add_tensor``.  Shape (..., n).  On a sweep part a factored
    field is F(eta + delta_z) g(z), and any other non-gradient field copies
    only these n values per row out of its memoised shifts."""
    if lattice.is_slice(counts) and u.factors is not None:
        return _factored(u, counts, 1)
    if lattice.is_slice(counts) and u.gradient_of is None:
        return counts.box.around(u, 1, own_site=True)
    return np.diagonal(field_add_tensor(u, counts), axis1=-2, axis2=-1)


def field_dropped_diag(u: RandomField, counts: np.ndarray) -> np.ndarray:
    """out[..., z-1] = u(eta - delta_z, z) 1_{z in eta}.  Shape (..., n).

    This shifted evaluation is what the eta-integral of the divergence and
    the minus bracket pair with the multiplicity k_z.  For a gradient field
    u = DF it is D+_z F(eta - delta_z) 1_{z in eta} = D-_z F(eta), computed
    by ``drop_diff_all``.  On a sweep part a factored field is
    F(eta - delta_z) g(z) 1_{z in eta}, multiplied in that order from F's
    memoised drops, so a non-finite F stays non-finite at an empty site;
    any other field is evaluated at every eta - delta_z, memoised on a
    sweep part.
    """
    if u.gradient_of is not None:
        return drop_diff_all(u.gradient_of, counts)
    if lattice.is_slice(counts) and u.factors is not None:
        return _factored(u, counts, -1) * (counts > 0)
    if lattice.is_slice(counts):
        return counts.box.around(u, -1, own_site=True) * (counts > 0)
    counts = _as_counts(u.space, counts)
    dropped = u.values(lattice.neighbour_rows(counts, -1))
    return np.diagonal(dropped, axis1=-2, axis2=-1) * (counts > 0)
