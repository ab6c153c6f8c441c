"""Memo geometries of the sweeps: each functional and field is evaluated
once per part of a sweep, at the part's rows and their neighbours
eta +- delta_z, and the add and drop differences of the paper's carre du
champ representation are read off values already computed.

The one sweep loop, ``functionals._sweep``, runs kernels on parts of rows
and hands them each part's counts tagged with its memo (``_SliceRows``).
A memo stores and shifts values: an object's values at the rows of a part
(``values``), at eta + step * delta_z for each row of the slice
(``around``) and at eta + delta_z + delta_zp (``second_order``), from
which ``functionals`` builds the differences.  The exact engine's table is
the whole box prod_z {0..cap_z} in lexicographic order, so eta +- delta_z
of a configuration in it is a neighbouring lattice point, a mixed-radix
stride away: ``sweep_parts`` cuts it into box slices of consecutive rows
whose halo holds every neighbour once (``_BoxSlice``).  Other rows, Monte
Carlo's and tables too thin to slice, go in row stencils that build each
row's neighbours (``stencil_parts``, ``_RowStencil``).  Every value is the
one a plain evaluation gives, bit for bit.  On fewer than 8 sites both
memos store their (rows, n) counts and shifts site-major, the row axis
innermost in memory, so a sum over sites adds whole columns in the order
numpy sums a C-ordered row; (rows, n, n) tensors stay C-ordered
(``_site_major``, ``_BoxSlice._empty``, ``_RowStencil``).  The module
needs nothing from ``functionals``: the sweep budget arrives as a row
count, and an object is evaluated only through its ``fn`` (``_evaluate``).
A factored field F(eta) g(z) is never stored here: on a part's rows
``functionals`` reads it off F's values and shifts times g, so only
hand-built fields and composites such as ``product_field`` hold (rows, n)
values on a halo.
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


# NumPy adds a contiguous run of fewer than 8 values one by one, left to
# right, the order in which a site-major array's columns are added; from 8
# values on it sums in 8 interleaved partial sums.  Box slices store rows
# and shifted values site-major (the row axis innermost) on fewer sites
# only, so every sum over sites has the plain evaluation's bits either way.
def _site_major(n: int) -> bool:
    return n < 8


def _box_rows(lo, hi, site_major: bool = True) -> np.ndarray:
    """Every configuration with lo[z] <= eta_z < hi[z], in lexicographic
    order, as one (rows, n) int64 array filled column by column from
    broadcast views of arange: with ``site_major`` (and fewer than 8 sites)
    the transpose of an (n, rows) array, else C-ordered."""
    shape = tuple(h - l for l, h in zip(lo, hi))
    n = len(shape)
    if site_major and _site_major(n):
        rows = np.empty((n, math.prod(shape)), dtype=np.int64).T
    else:
        rows = np.empty((math.prod(shape), n), dtype=np.int64)
    grid = rows.reshape(shape + (n,))
    for z in range(n):
        grid[..., z] = np.arange(lo[z], hi[z], dtype=np.int64).reshape(
            (shape[z],) + (1,) * (n - 1 - z)
        )
    return rows


def neighbour_rows(counts, step: int) -> np.ndarray:
    """out[..., z - 1, :] = eta + step * delta_z for step 1 or -1, a drop
    clipped at 0 (callers zero those sites by 1_{z in eta}): n copies of
    each row, with the shifted count written to the diagonal."""
    counts = np.asarray(counts)
    n = counts.shape[-1]
    rows = np.repeat(counts[..., None, :], n, axis=-2)
    diagonal = rows.reshape(rows.shape[:-2] + (n * n,))[..., :: n + 1]
    np.maximum(counts + step, 0, out=diagonal)
    return rows


def _outer_neighbour_rows(counts, step: int) -> np.ndarray:
    """``neighbour_rows`` with the shifted site outermost, out[z - 1, ..., :],
    as n site-major blocks: each block's rows innermost in memory."""
    counts = np.asarray(counts)
    n = counts.shape[-1]
    rows = np.empty((n, n) + counts.shape[:-1], dtype=counts.dtype)
    rows[:] = np.moveaxis(counts, -1, 0)
    for z in range(n):
        np.maximum(counts[..., z] + step, 0, out=rows[z, z])
    return np.moveaxis(rows, 1, -1)


class _SliceRows(np.ndarray):
    """Counts rows that know their memo, a ``_BoxSlice`` or ``_RowStencil``
    (``box``): ``part`` is "slice" for the rows a kernel receives, otherwise
    which of the memo's other rows they are.  Views, copies and arithmetic
    results are plain: their ``box`` is None."""

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
                    here = self._grid(self._grow(obj))[self._inside]
                else:
                    here = _evaluate(obj, self.tagged("slice"))
                    here = here.reshape(self._size + here.shape[1:])
                if here.ndim == len(self.shape):
                    here = here.reshape(len(self.rows))
                else:  # a field's (rows, n) values, laid out as its shifts
                    out, targets = self._empty()
                    np.moveaxis(targets, 0, -1)[...] = here
                    out.setflags(write=False)
                    here = out
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

    def _copy(self, out: np.ndarray, values: np.ndarray, moves) -> None:
        """out[...] = halo ``values`` at eta + sum of step * delta_z over
        ``moves`` ((z, step) pairs) for every eta in the slice, ``out``
        shaped like the slice's grid.  A drop at a site whose slice starts
        at level 0 reads eta itself there, the clip of ``neighbour_rows``."""
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

    def _empty(self, trailing: tuple = ()):
        """An uninitialised float64 array of shape (rows, n) + trailing and
        its view of shape (n,) + the slice's grid + trailing, whose entry z
        is the ``_copy`` target of the shift along site z.  A (rows, n)
        array is stored site-major on fewer than 8 sites (``_site_major``),
        so each target is contiguous and a sum over sites adds whole
        columns.  A (rows, n, n) tensor stays C-ordered: numpy sums its n^2
        entries per row in partial sums that no other layout reproduces."""
        n = len(self.shape)
        if not trailing and _site_major(n):
            targets = np.empty((n,) + self._size)
            return targets.reshape(n, -1).T, targets
        out = np.empty(self._size + (n,) + trailing)
        return out.reshape((len(self.rows), n) + trailing), np.moveaxis(out, n, 0)

    def around(self, obj, step: int, own_site: bool = False) -> np.ndarray:
        """out[r, z - 1] = ``obj`` at eta_r + step * delta_z, shape (rows, n)
        for a functional and (rows, n, n) for a field; with ``own_site`` only
        the field's site-z value, shape (rows, n)."""
        values = self._grow(obj)
        n = len(self.shape)
        out, targets = self._empty(() if own_site else values.shape[1:])
        for z in range(n):
            self._copy(targets[z], values[:, z] if own_site else values, [(z, step)])
        return out

    def second_order(self, F) -> np.ndarray:
        """F(eta + delta_z + delta_zp) for every eta in the slice, shape
        (rows, n, n).  For z = zp the slice's top level at site z reaches
        one past the halo, to a face evaluated on its own."""
        halo = self._grow(F)
        n = len(self.shape)
        faces = self._faces.get(F)
        if faces is None:
            faces = self._faces[F] = [
                _evaluate(
                    F,
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


# the rows of a stencil's parts: ``neighbour_rows`` of which part, at which step
_NEIGHBOURS = {"plus": ("slice", 1), "minus": ("slice", -1), "second": ("plus", 1)}


class _RowStencil:
    """A part of any counts rows with the neighbours a check reads: the rows
    themselves ("slice"), eta + delta_z ("plus"), eta - delta_z clipped at 0
    ("minus") and, for a gradient's add tensor, eta + delta_z + delta_zp
    ("second"), each built on first use by ``neighbour_rows``.

    Each functional or field evaluated on a stencil is memoised here by
    object and part: its fn sees at most (2n + 1) m rows for the slice's m,
    plus n^2 m for a second-order shift.  Composites pass the tagged rows on
    to their inner functionals, so those are memoised too.  Only the tagged
    rows refer to the stencil, so it and its values go with the last of them.

    On fewer than 8 sites the layout is a box slice's (``_site_major``): the
    slice's rows are stored site-major, and the plus and minus rows are
    built site-outermost, (n, m, n), as n site-major blocks, so a
    functional's values there are (n, m) and ``around`` hands them over as
    a site-major (m, n) view.  (rows, n, n) tensors, a field's shifts and
    ``second_order``, are C-ordered.  On 8 sites or more every part is
    C-ordered, (m, n, n) for the plus and minus rows.
    """

    def __init__(self, rows: np.ndarray):
        self._site_major = _site_major(rows.shape[-1])
        if self._site_major:
            rows = np.ascontiguousarray(rows.T).T
        self._rows = {"slice": rows}
        self._values: dict = {}

    def tagged(self, part: str) -> _SliceRows:
        """The rows of ``part``, as read-only counts that know this stencil."""
        rows = self._rows.get(part)
        if rows is None:
            base, step = _NEIGHBOURS[part]
            rows = self.tagged(base)
            if not self._site_major:
                rows = neighbour_rows(rows, step)
            elif part == "second":  # C-ordered, off the plus rows' [r, z]
                rows = neighbour_rows(rows.transpose(1, 0, 2), step)
            else:
                rows = _outer_neighbour_rows(rows, step)
            self._rows[part] = rows
        tagged = rows.view(_SliceRows)
        tagged.setflags(write=False)
        tagged.box, tagged.part = self, part
        return tagged

    def values(self, obj, part: str) -> np.ndarray:
        """``obj``'s values at the rows of ``part``."""
        values = self._values.get((obj, part))
        if values is None:
            values = self._values[obj, part] = _evaluate(obj, self.tagged(part))
        return values

    def around(self, obj, step: int, own_site: bool = False) -> np.ndarray:
        """``_BoxSlice.around`` read off ``obj``'s values at the plus or minus
        rows; on fewer than 8 sites a functional's (n, m) values are handed
        over as their site-major transpose and a field's as a C-ordered
        (m, n, n) copy."""
        values = self.values(obj, "plus" if step == 1 else "minus")
        if not self._site_major:
            return np.diagonal(values, axis1=-2, axis2=-1) if own_site else values
        if own_site:
            return np.diagonal(values, axis1=0, axis2=-1)
        if values.ndim == 2:
            return values.T
        return np.ascontiguousarray(values.transpose(1, 0, 2))

    def second_order(self, F) -> np.ndarray:
        """F(eta + delta_z + delta_zp) for every eta in the slice, shape
        (rows, n, n)."""
        return self.values(F, "second")


def is_tagged(counts) -> bool:
    """Whether ``counts`` are rows of a memo: a box slice's or a row
    stencil's own rows or their neighbours."""
    return getattr(counts, "box", None) is not None


def is_slice(counts) -> bool:
    """Whether ``counts`` are a memo's own rows, the ones a kernel
    receives: the rows whose shifts the memo can read off."""
    return is_tagged(counts) and counts.part == "slice"


# ---------------------------------------------------------------------------
# slicing the table
# ---------------------------------------------------------------------------


def _box_slicing(caps, step: int) -> tuple[int, int] | None:
    """The slices of the box with per-site ``caps``: k whole levels of site
    d at fixed levels of the sites before it, as ``(d, k)``; None when box
    slices would evaluate more rows than row stencils.

    A slice holds at most ``step`` rows, and its halo at most n * step, so
    its (rows, n) float64 values keep to the byte budget of a (step, n, n)
    slab.  The choice is also bounded by work.  A row stencil evaluates
    every shifted object on at least n rows per table row (its n shifted
    copies of the row); box slices evaluate it once on each slice's halo, which for a
    fixed site holds 3 levels per level (2 at level 0), for site d k + 2
    per k, and for each later site cap + 2 per cap + 1.  So d is the first
    site whose largest k within the byte bounds keeps the halos of a whole
    sweep to at most n rows per table row; on tables of up to ``step`` rows
    that is the whole table in one slice.  Tables with few levels per site
    (11 sites at cap 1: 3^11 halo rows against 11 * 2^11) are swept as
    row stencils.
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


def stencil_parts(total: int, step: int, rows_of):
    """``(start, stop, counts)`` parts of ``total`` rows, ``rows_of(a, b)``
    being rows a to b, tagged with a ``_RowStencil`` each.  A part holds
    ``step // 8`` rows, so its plus and minus rows, n^2 int64 per row each,
    take a quarter of the byte budget of a (step, n, n) slab."""
    size = max(1, step // 8)
    for a in range(0, total, size):
        b = min(a + size, total)
        yield a, b, _RowStencil(rows_of(a, b)).tagged("slice")


def sweep_parts(caps, step: int):
    """The box of per-site ``caps`` as ``(start, stop, counts)`` runs of
    consecutive table rows in table order: box slices (``_box_slicing``)
    or, where those would evaluate more, row stencils (``stencil_parts``),
    their counts tagged either way.  No (S, n) array is held."""
    shape = tuple(c + 1 for c in caps)
    n = len(shape)
    total = math.prod(shape)
    slicing = _box_slicing(caps, step)
    if slicing is None:
        yield from stencil_parts(
            total, step,
            lambda a, b: np.stack(np.unravel_index(np.arange(a, b), shape), axis=-1),
        )
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
