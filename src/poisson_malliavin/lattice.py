"""Box slices of the exact engine's truncated table: lattice-shift
evaluation of functionals and fields.

``functionals`` evaluates functionals and fields on any counts array, which
is all Monte Carlo rows and the pointwise checks have.  The exact engine's
table is more: the whole box prod_z {0..cap_z} in lexicographic order, so
eta +- delta_z of a configuration in it is a neighbouring lattice point, a
mixed-radix stride away.  This module holds what only the box allows.  It
cuts the table into slices of consecutive rows (``sweep_parts``, the parts
that the one sweep loop, ``functionals._sweep``, runs kernels on) and hands
kernels each slice's counts rows tagged with the slice (``_SliceRows``).
Given tagged rows, ``Functional.batch``, ``RandomField.values`` and the
shift helpers of ``functionals`` call the entry points below, which evaluate
each functional and field once per slice and read the add and drop
differences of the paper's carre du champ representation off values already
computed (``_BoxSlice``).  Every value is the one a plain evaluation gives,
bit for bit.  The module needs nothing from ``functionals``: the sweep
budget arrives as a row count, and each entry point is told how to evaluate
the object it shifts.
"""
from __future__ import annotations

import math

import numpy as np


def _box_strides(shape) -> np.ndarray:
    """Mixed-radix strides of a box with ``shape[z]`` levels at site z, in
    the table's lexicographic order: the last site varies fastest."""
    strides = np.ones(len(shape), dtype=np.int64)
    for z in range(len(shape) - 2, -1, -1):
        strides[z] = strides[z + 1] * shape[z + 1]
    return strides


def _box_rows(lo, hi) -> np.ndarray:
    """Every configuration with lo[z] <= eta_z < hi[z], in lexicographic
    order, as one (rows, n) int64 array filled column by column from
    broadcast views of arange."""
    shape = tuple(h - l for l, h in zip(lo, hi))
    n = len(shape)
    rows = np.empty((math.prod(shape), n), dtype=np.int64)
    grid = rows.reshape(shape + (n,))
    for z in range(n):
        grid[..., z] = np.arange(lo[z], hi[z], dtype=np.int64).reshape(
            (shape[z],) + (1,) * (n - 1 - z)
        )
    return rows


class _SliceRows(np.ndarray):
    """Counts rows of a box slice: ``part`` is "slice" (the rows a kernel
    receives), "halo" or "fresh" (see ``_BoxSlice``).  Views, copies and
    arithmetic results are plain: their ``box`` is None."""

    box = None
    part = None

    def __array_finalize__(self, obj):
        self.box = None

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        arr = arr.view(np.ndarray)
        return arr[()] if return_scalar else arr


def _evaluate(obj, rows: np.ndarray) -> np.ndarray:
    """``obj.fn`` on ``rows``, as a read-only view: the values are shared by
    every later request on the slice."""
    values = np.asarray(obj.fn(rows), dtype=np.float64).view()
    values.setflags(write=False)
    return values


class _BoxSlice:
    """A slice of the exact engine's box: the configurations with
    lo[z] <= eta_z < hi[z] at every site, a run of consecutive table rows.

    Kernels receive its rows, ``tagged("slice")``.  Each functional or field
    evaluated on a box slice is memoised here by object: on the slice itself
    while no shift of it is asked for, and on the halo, the slice grown by
    one level per site (lo - 1, clipped at 0, to hi + 1), from the first
    shift on.  Halo values are a grid in table order, so eta +- delta_z is
    the slice's view of that grid moved by one along axis z: an offset of
    +- strides[z] in the flat values, with the strides of
    ``build_generator_matrix``.

    An object shifted in ``prev``, the sweep's previous slice, goes to the
    halo at its first request.  When ``prev`` is a neighbour along one site,
    the two levels the halos share at that border are copied from it and
    only the rest ("fresh") is evaluated.  Kernels do the same on every
    slice, so after a sweep's first slice each object's fn runs once per
    slice, plus once on the faces past the halo that a gradient's
    second-order shift reads (``second_order``).  In the first slice an
    object asked for on the slice and then shifted runs twice: on the slice,
    then on the halo.  Composites pass the rows on to their inner
    functionals, so those are memoised too; a shift asked of rows other than
    the slice's own (a composite that shifts its inner functionals) is
    evaluated the plain way.  Only the tagged rows refer to the slice, so it
    and its values are freed with the last of them.
    """

    def __init__(self, lo, hi, prev: "_BoxSlice | None" = None):
        self.rows = _box_rows(lo, hi)
        self.rows.setflags(write=False)
        self._lo, self._hi = tuple(lo), tuple(hi)
        self._size = tuple(h - l for l, h in zip(lo, hi))
        # the halo's lowest levels, its shape, and the slice within it
        self._origin = tuple(max(l - 1, 0) for l in lo)
        self.shape = tuple(h + 1 - o for h, o in zip(hi, self._origin))
        self._inside = tuple(slice(l - o, h - o) for l, h, o in zip(lo, hi, self._origin))
        # the rows of each part beyond the slice, as boxes of the halo grid
        self._boxes = {"halo": tuple(slice(0, size) for size in self.shape)}
        self._rows: dict = {}
        self._slice: dict = {}
        self._halo: dict = {}
        self._faces: dict = {}
        self._carry: dict = {}
        self._expected = frozenset()
        if prev is not None:
            self._take_border(prev)

    def _take_border(self, prev: "_BoxSlice") -> None:
        """Take over what this slice needs of the finished slice ``prev``:
        which objects it shifted and, when the two are neighbours along one
        site, their halo values on the two levels the halos share there.
        ``prev`` is emptied on the way, so its values are freed early."""
        prev._slice.clear()
        prev._faces.clear()
        prev._rows.clear()
        self._expected = frozenset(prev._halo)
        n = len(self.shape)
        moved = [
            z for z in range(n) if (prev._lo[z], prev._hi[z]) != (self._lo[z], self._hi[z])
        ]
        if len(moved) == 1 and prev._hi[moved[0]] == self._lo[moved[0]]:
            z = moved[0]
            whole = self._boxes["halo"]
            known = whole[:z] + (slice(0, 2),) + whole[z + 1 :]
            self._boxes["fresh"] = whole[:z] + (slice(2, self.shape[z]),) + whole[z + 1 :]
            last = (slice(None),) * z + (slice(-2, None),)
            while prev._halo:
                obj, values = prev._halo.popitem()
                halo = np.empty((math.prod(self.shape),) + values.shape[1:])
                self._grid(halo)[known] = prev._grid(values)[last]
                self._carry[obj] = halo
        prev._halo.clear()

    def tagged(self, part: str) -> _SliceRows:
        """The rows of ``part``, as counts that know this slice."""
        rows = self.rows if part == "slice" else self._rows.get(part)
        if rows is None:
            box = self._boxes[part]
            rows = self._rows[part] = _box_rows(
                tuple(o + b.start for o, b in zip(self._origin, box)),
                tuple(o + b.stop for o, b in zip(self._origin, box)),
            )
        tagged = rows.view(_SliceRows)
        tagged.box, tagged.part = self, part
        return tagged

    def _grid(self, values: np.ndarray) -> np.ndarray:
        return values.reshape(self.shape + values.shape[1:])

    def values(self, obj, part: str) -> np.ndarray:
        """``obj``'s values at the rows of ``part``."""
        if part == "slice":
            here = self._slice.get(obj)
            if here is None:
                if obj in self._halo or obj in self._expected:
                    grid = self._grid(self._grow(obj))
                    trailing = grid.shape[len(self.shape) :]
                    here = grid[self._inside].reshape((len(self.rows),) + trailing)
                else:
                    here = _evaluate(obj, self.tagged("slice"))
                self._slice[obj] = here
            return here
        halo = self._grow(obj)
        if part == "halo":
            return halo
        return self._grid(halo)[self._boxes[part]].reshape((-1,) + halo.shape[1:])

    def _grow(self, obj) -> np.ndarray:
        """``obj``'s halo values, evaluating only the rows not known yet:
        the whole halo, or the rows past the border taken from ``prev``."""
        halo = self._halo.get(obj)
        if halo is not None:
            return halo
        halo = self._carry.pop(obj, None)
        if halo is None:
            halo = _evaluate(obj, self.tagged("halo"))
        else:
            new = _evaluate(obj, self.tagged("fresh"))
            fresh = self._grid(halo)[self._boxes["fresh"]]
            fresh[...] = new.reshape(fresh.shape)
            halo.setflags(write=False)
        self._halo[obj] = halo
        return halo

    def halo(self, obj, evaluate) -> np.ndarray:
        """``obj``'s values on the halo.  Rows not known yet are evaluated
        through ``evaluate`` (``batch`` or ``values``), like any other
        evaluation; those calls come back to ``values``."""
        halo = self._halo.get(obj)
        if halo is None:
            evaluate(self.tagged("fresh" if obj in self._carry else "halo"))
            halo = self._halo[obj]
        return halo

    def _copy(self, out: np.ndarray, values: np.ndarray, moves) -> None:
        """out[...] = halo ``values`` at eta + sum of step * delta_z over
        ``moves`` ((z, step) pairs) for every eta in the slice, ``out``
        shaped like the slice's grid.  A drop at a site whose slice starts
        at level 0 reads eta itself there, the clip of ``_drop_each``."""
        at = list(self._inside)
        for z, step in moves:
            at[z] = slice(at[z].start + step, at[z].stop + step)
        grid = self._grid(values)
        for z, s in enumerate(at):
            if s.start < 0:
                level0 = (slice(None),) * z + (slice(0, 1),)
                out[level0] = grid[tuple(at[:z] + [slice(0, 1)] + at[z + 1 :])]
                out = out[(slice(None),) * z + (slice(1, None),)]
                at[z] = slice(0, s.stop)
        out[...] = grid[tuple(at)]

    def around(self, obj, evaluate, step: int, own_site: bool = False) -> np.ndarray:
        """out[r, z - 1] = ``obj`` at eta_r + step * delta_z, shape (rows, n)
        for a functional and (rows, n, n) for a field; with ``own_site`` only
        the field's site-z value, shape (rows, n)."""
        values = self.halo(obj, evaluate)
        n = len(self.shape)
        trailing = () if own_site else values.shape[1:]
        out = np.empty(self._size + (n,) + trailing)
        for z in range(n):
            column = values[:, z] if own_site else values
            self._copy(out[(slice(None),) * n + (z,)], column, [(z, step)])
        return out.reshape((len(self.rows), n) + trailing)

    def second_order(self, F) -> np.ndarray:
        """F(eta + delta_z + delta_zp) for every eta in the slice, shape
        (rows, n, n).  For z = zp the slice's top level at site z reaches
        one past the halo, to a face evaluated on its own."""
        halo = self.halo(F, F.batch)
        n = len(self.shape)
        faces = self._faces.get(F)
        if faces is None:
            faces = self._faces[F] = [
                F.batch(
                    _box_rows(
                        self._lo[:z] + (self._hi[z] + 1,) + self._lo[z + 1 :],
                        self._hi[:z] + (self._hi[z] + 2,) + self._hi[z + 1 :],
                    )
                )
                for z in range(n)
            ]
        grid = self._grid(halo)
        out = np.empty(self._size + (n, n))
        for z in range(n):
            for zp in range(n):
                target = out[(slice(None),) * n + (z, zp)]
                if zp != z:
                    self._copy(target, halo, [(z, 1), (zp, 1)])
                    continue
                at = list(self._inside)
                at[z] = slice(at[z].start + 2, self.shape[z])
                below = (slice(None),) * z + (slice(0, -1),)
                top = (slice(None),) * z + (slice(-1, None),)
                target[below] = grid[tuple(at)]
                target[top] = faces[z].reshape(target[top].shape)
        return out.reshape((len(self.rows), n, n))


# ---------------------------------------------------------------------------
# entry points: ``functionals`` calls these whenever it is given tagged rows
# ---------------------------------------------------------------------------


def is_tagged(counts) -> bool:
    """Whether ``counts`` are rows of a box slice, its own or its halo's."""
    return getattr(counts, "box", None) is not None


def is_slice(counts) -> bool:
    """Whether ``counts`` are a box slice's own rows, the ones a kernel
    receives: the rows whose shifts the slice can read off."""
    return is_tagged(counts) and counts.part == "slice"


def values(obj, counts: _SliceRows) -> np.ndarray:
    """A functional's or field's values at tagged rows, memoised on the
    slice."""
    return counts.box.values(obj, counts.part)


def field_values(u, counts: _SliceRows) -> np.ndarray:
    """A field's values at tagged rows; a gradient field DF on the slice's
    own rows reads F's halo."""
    if u.gradient_of is not None and counts.part == "slice":
        return shifted(u.gradient_of, counts, 1) - values(u.gradient_of, counts)[:, None]
    return values(u, counts)


def shifted(F, counts: _SliceRows, step: int) -> np.ndarray:
    """``functionals.shifted_all`` on a slice's own rows."""
    return counts.box.around(F, F.batch, step)


def field_add_tensor(u, counts: _SliceRows) -> np.ndarray:
    """``functionals.field_add_tensor`` on a slice's own rows: u's halo, or
    for a gradient field u = DF, F(eta + delta_z + delta_zp) -
    F(eta + delta_z) from F's halo and the faces past it."""
    box = counts.box
    if u.gradient_of is None:
        return box.around(u, u.values, 1)
    F = u.gradient_of
    return box.second_order(F) - box.around(F, F.batch, 1)[..., None]


def field_dropped_diag(u, counts: _SliceRows) -> np.ndarray:
    """``functionals.field_dropped_diag`` of a non-gradient field on a
    slice's own rows."""
    return counts.box.around(u, u.values, -1, own_site=True) * (counts > 0)


# ---------------------------------------------------------------------------
# slicing the table
# ---------------------------------------------------------------------------


def _box_slicing(caps, step: int) -> tuple[int, int] | None:
    """The slices of the box with per-site ``caps``: k whole levels of site
    d at fixed levels of the sites before it, as ``(d, k)``; None when box
    slices would evaluate more rows than plain counts.

    A slice holds at most ``step`` rows, and its halo at most n * step, so
    its (rows, n) float64 values keep to the byte budget of a (step, n, n)
    slab.  The choice is also bounded by work.  Plain counts evaluate every
    shifted object on at least n rows per table row (n shifted copies of
    each); box slices evaluate it once on each slice's halo, which for a
    fixed site holds 3 levels per level (2 at level 0), for site d k + 2
    per k, and for each later site cap + 2 per cap + 1.  So d is the first
    site whose largest k within the byte bounds keeps the halos of a whole
    sweep to at most n rows per table row; on tables of up to ``step`` rows
    that is the whole table in one slice.  Tables with few levels per site
    (11 sites at cap 1: 3^11 halo rows against 11 * 2^11) are swept as
    plain counts.
    """
    shape = tuple(c + 1 for c in caps)
    n = len(shape)
    later = [math.prod(s + 1 for s in shape[d + 1 :]) for d in range(n)]
    for d in range(n):
        rest = math.prod(shape[d + 1 :])
        # halo rows per halo level of site d, and the levels that fit
        outer = math.prod(min(3, s + 1) for s in shape[:d]) * later[d]
        room = n * step // outer
        k = min(step // rest, shape[d] if room > shape[d] else room - 2)
        if k < 1:
            continue
        halos = math.prod(3 * s - 1 for s in shape[:d]) * later[d]
        halos *= shape[d] + 2 * -(-shape[d] // k) - 1
        if halos <= n * math.prod(shape):
            return d, k
    return None


def sweep_parts(caps, step: int):
    """The box of per-site ``caps`` as ``(start, stop, counts)`` runs of
    consecutive table rows in table order: box slices (``_box_slicing``)
    whose counts are tagged, or, where those would evaluate more, plain
    counts of at most ``step`` rows.  Either way no (S, n) array is held."""
    shape = tuple(c + 1 for c in caps)
    n = len(shape)
    total = math.prod(shape)
    slicing = _box_slicing(caps, step)
    if slicing is None:
        for a in range(0, total, step):
            b = min(a + step, total)
            yield a, b, np.stack(np.unravel_index(np.arange(a, b), shape), axis=-1)
        return
    d, k = slicing
    strides = _box_strides(shape)
    box = None
    for fixed in np.ndindex(shape[:d]):
        base = sum(int(l) * int(st) for l, st in zip(fixed, strides))
        for a in range(0, shape[d], k):
            b = min(a + k, shape[d])
            lo = tuple(fixed) + (a,) + (0,) * (n - d - 1)
            hi = tuple(l + 1 for l in fixed) + (b,) + shape[d + 1 :]
            box = _BoxSlice(lo, hi, box)
            yield base + a * int(strides[d]), base + b * int(strides[d]), box.tagged("slice")
