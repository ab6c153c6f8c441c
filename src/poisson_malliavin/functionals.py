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
engine its distinct sample rows in a few numpy calls.  Both go through one
loop, ``_sweep``, over parts of at most ``_sweep_step(n)`` rows, which also
holds both engines' non-finite check.  The exact oracle's parts are box
slices where they evaluate less (``lattice.sweep_parts``): counts rows tagged
with their place in the box, which ``Functional.batch``,
``RandomField.values`` and the shift helpers hand to ``lattice``, to evaluate
each functional once per slice and read eta +- delta_z as a stride offset.
Evaluations are pure, hence safe for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import lattice
from .errors import NonFiniteValueError, ShapeError
from .ground import GroundSpace

__all__ = [
    "Functional",
    "RandomField",
    "derivative_field",
    "product_field",
    "shifted_all",
    "add_diff_all",
    "drop_diff_all",
    "field_add_tensor",
    "field_dropped_diag",
]


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    e = np.eye(n, dtype=np.int64)
    e.setflags(write=False)
    return e


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
    params: dict = field(default_factory=dict)
    bound: float | None = None

    def batch(self, counts) -> np.ndarray:
        """Evaluate on a counts array of shape (..., n); returns shape (...).
        Rows of a box slice are evaluated once per slice (``lattice``)."""
        arr = _as_counts(self.space, counts)
        if lattice.is_tagged(counts):
            return lattice.values(self, counts)
        return np.asarray(self.fn(arr), dtype=np.float64)

    def __repr__(self) -> str:
        return f"Functional({self.name!r}, params={self.params!r}, bound={self.bound!r})"


@dataclass(frozen=True, eq=False)
class RandomField:
    """Deterministic, total map u(eta, z) over configurations and sites.

    ``fn`` receives counts of shape (..., n) and returns all site values at
    once, shape (..., n); column z - 1 is u(eta, z).  ``gradient_of`` is the
    functional F when the field is DF (set by ``derivative_field`` only).
    """

    space: GroundSpace
    fn: Callable[[np.ndarray], np.ndarray]
    name: str
    params: dict = field(default_factory=dict)
    bound: float | None = None
    gradient_of: Functional | None = None

    def values(self, counts) -> np.ndarray:
        """Evaluate on counts of shape (..., n); returns shape (..., n).
        Rows of a box slice are evaluated once per slice (``lattice``); a
        gradient field there reads its functional's halo."""
        arr = _as_counts(self.space, counts)
        if lattice.is_tagged(counts):
            return lattice.field_values(self, counts)
        return np.asarray(self.fn(arr), dtype=np.float64)

    def __repr__(self) -> str:
        return f"RandomField({self.name!r}, params={self.params!r}, bound={self.bound!r})"


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def shifted_all(F: Functional, counts: np.ndarray, step: int) -> np.ndarray:
    """out[..., z-1] = F(eta + step delta_z) for step 1 or -1, a drop
    clipped at 0 (``_drop_each``).  Shape (..., n).  On a box slice they are
    stride offsets into F's halo."""
    if lattice.is_slice(counts):
        return lattice.shifted(F, counts, step)
    if step == 1:
        return F.batch(counts[..., None, :] + _eye(F.space.n))
    counts = _as_counts(F.space, counts)
    return np.stack([F.batch(minus) for _, minus in _drop_each(counts)], axis=-1)


def add_diff_all(F: Functional, counts: np.ndarray) -> np.ndarray:
    """All add differences at once: out[..., z-1] = D+_z F.  Shape (..., n)."""
    return shifted_all(F, counts, 1) - F.batch(counts)[..., None]


def _drop_each(counts: np.ndarray):
    """Yield (z - 1, counts with site z lowered by one) for every site z; the
    clip at 0 keeps evaluation total, callers zero those sites by 1_{z in eta}."""
    for j in range(counts.shape[-1]):
        minus = counts.copy()
        minus[..., j] = np.maximum(minus[..., j] - 1, 0)
        yield j, minus


def drop_diff_all(F: Functional, counts: np.ndarray) -> np.ndarray:
    """All drop differences, indicator included, from n + 1 evaluations of F
    per configuration, or from F's halo on a box slice.  Shape (..., n)."""
    return (F.batch(counts)[..., None] - shifted_all(F, counts, -1)) * (np.asarray(counts) > 0)


def derivative_field(F: Functional) -> RandomField:
    """The gradient field DF: (eta, z) -> D+_z F(eta).

    A sup-norm bound M on F certifies |D+_z F| <= 2M, so boundedness is
    inherited with the doubled constant.
    """
    n = F.space.n

    def fn(counts: np.ndarray) -> np.ndarray:
        plus = counts[..., None, :] + _eye(n)
        return F.batch(plus) - F.batch(counts)[..., None]

    return RandomField(
        space=F.space,
        fn=fn,
        name=f"D({F.name})",
        params=dict(F.params),
        bound=None if F.bound is None else 2.0 * F.bound,
        gradient_of=F,
    )


def product_field(F: Functional, u: RandomField) -> RandomField:
    """The field (eta, z) -> F(eta) u(eta, z)."""
    if F.space != u.space:
        raise ShapeError("functional and field live on different ground spaces")

    def fn(counts: np.ndarray) -> np.ndarray:
        return F.batch(counts)[..., None] * u.values(counts)

    bound = None
    if F.bound is not None and u.bound is not None:
        bound = F.bound * u.bound
    return RandomField(
        space=F.space,
        fn=fn,
        name=f"({F.name})*({u.name})",
        params={},
        bound=bound,
    )


# ---------------------------------------------------------------------------
# batch helpers used by the divergence, brackets, and engines
# ---------------------------------------------------------------------------

# byte budget of one (rows, n, n) float64 slab, the largest temporary an
# add-side kernel builds; a box slice's halo holds (rows, n) values, and
# keeps them within the same budget
_SWEEP_BYTES = 8 << 20


def _sweep_step(n: int) -> int:
    """Rows per slice on n sites: at most ``_SWEEP_BYTES // (8 n^2)``."""
    return max(1, _SWEEP_BYTES // (8 * n * n))


def _sweep(kernel, m: int, parts, names: tuple[str, ...], locate) -> tuple[np.ndarray, ...]:
    """The one sweep loop of both engines.  Run ``kernel(counts) -> tuple of
    per-row values`` on each ``(start, stop, counts)`` of ``parts``, writing
    each output into a preallocated (m,) float64 array at [start, stop).

    Kernels are row-wise, so every value equals a one-call sweep's bit for
    bit, whatever the parts: plain counts of at most ``_sweep_step(n)`` rows
    or the exact engine's box slices (``lattice.sweep_parts``).  Memory is
    the (m,) outputs plus one part's temporaries.  The first output, in
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


def field_add_tensor(u: RandomField, counts: np.ndarray) -> np.ndarray:
    """T[..., z-1, zp-1] = u(eta + delta_z, zp).  Shape (..., n, n).

    On a box slice it is read off u's halo; for a gradient field u = DF it
    is F(eta + delta_z + delta_zp) - F(eta + delta_z), read off F's halo and
    the second-order points past it.
    """
    if lattice.is_slice(counts):
        return lattice.field_add_tensor(u, counts)
    n = u.space.n
    return u.values(counts[..., None, :] + _eye(n))


def field_dropped_diag(u: RandomField, counts: np.ndarray) -> np.ndarray:
    """out[..., z-1] = u(eta - delta_z, z) 1_{z in eta}.  Shape (..., n).

    This shifted evaluation is what the eta-integral of the divergence and
    the minus bracket pair with the multiplicity k_z.  For a gradient field
    u = DF it is D+_z F(eta - delta_z) 1_{z in eta} = D-_z F(eta), computed
    by ``drop_diff_all``; any other field is evaluated once per site at
    eta - delta_z, or read off its halo on a box slice.
    """
    if u.gradient_of is not None:
        return drop_diff_all(u.gradient_of, counts)
    if lattice.is_slice(counts):
        return lattice.field_dropped_diag(u, counts)
    counts = _as_counts(u.space, counts)
    out = np.empty(counts.shape, dtype=np.float64)
    for j, minus in _drop_each(counts):
        out[..., j] = u.values(minus)[..., j]
    return out * (counts > 0)
