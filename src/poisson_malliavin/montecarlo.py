"""Seeded Poisson sampler and Monte Carlo expectation engine.

Stream discipline: a run is keyed by (seed, samples) and draws one stream,
``numpy.random.default_rng(SeedSequence(seed).spawn(1)[0])`` (``draw``).
Draws are made row by row, so the first m rows of a run are the whole of a
run of m samples, and ``sample --seed S --count m`` prints them, block by
block (``draw_blocks``).  The PCG64
bit generator behind ``numpy.random.default_rng`` passes the standard
statistical batteries, and its Poisson sampler is exact (inversion for
small means, transformed rejection above numpy's internal switchover near
lambda = 10).

A ``MonteCarloBackend`` draws its samples once, on first use, and keeps
the sorted distinct keys of the draws (``_keys``), one int64 per distinct
row, with their multiplicities: nothing per sample and no counts rows.
Where the box of each site's smallest level whose Poisson tail is at most
1 / samples has at most ``samples`` cells (``_grid_levels``), the stream is
drawn block by block and counted on that box, so memory is the box and one
block; otherwise the whole draw is keyed at once, freed and its keys
sorted, ``samples * (n + 1) * 8`` bytes at the peak, and spaces whose keys
overflow int64 also keep the plan's rank tables, each at most one entry per
distinct row.  Sorted keys are lexicographic in (eta_{n-1}, ..., eta_0)
whatever the radix, so both paths give the same keys and multiplicities.
A draw of input-sized rows past ``DRAW_BUDGET`` bytes is refused before it
is made (``_price_draw``).
Kernels run once per stencil part of the distinct rows
(``lattice.stencil_parts``), through the sweep loop both engines share
(``functionals._sweep``); each part's rows are decoded from its keys
(``_decode``) straight into the memo layout.

Every estimate is one sweep (one value per distinct row) and one reduction,
returned as a ``Mean``: the multiplicity-weighted mean sum w v / samples
and the standard error from the two-pass weighted variance, summed pairwise
in row order.  Estimates reproduce bit for bit for the same (seed,
samples); against a per-sample reduction they agree to rounding, not bit
for bit.  Identity defects are always paired per-sample differences, one
LHS - RHS value per distinct row weighted by its multiplicity, never two
independently estimated expectations subtracted, so the reported standard
error gates the quantity actually under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .exact import _smallest_cap
from .functionals import Functional, _check_binding, _sweep, _sweep_step, _weighted_sum
from .ground import GroundSpace, _is_int
from .lattice import _empty_rows, stencil_parts
from .operators import Mean

__all__ = [
    "DRAW_BUDGET",
    "SamplerConfig",
    "MonteCarloBackend",
]

# bytes an input-sized draw may take at once: rows * columns * 8 for the
# sorted path's draw and keys, and for the suite's seeded points
DRAW_BUDGET = 1 << 30


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility key for a Monte Carlo run: an integer seed >= 0 and
    at least 2 samples (a standard error needs two); anything else is a
    ``ConfigError`` naming the field."""

    seed: int
    samples: int

    def __post_init__(self):
        for name, low in (("seed", 0), ("samples", 2)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


# the largest mean numpy's Poisson sampler accepts: int64 max - 10 sqrt(int64 max)
_MAX_WEIGHT = 2.0**63 - 10.0 * math.sqrt(2.0**63)


def sample_counts(
    space: GroundSpace, rng: np.random.Generator, m: int
) -> np.ndarray:
    """Draw a block of m configurations as an (m, n) int64 counts array; a
    weight above ``_MAX_WEIGHT`` is a ``ConfigError``."""
    top = max(space.weights)
    if top > _MAX_WEIGHT:
        raise ConfigError(
            f"weight {top!r} is above {_MAX_WEIGHT!r}, the largest the Poisson sampler draws"
        )
    return rng.poisson(lam=space.weights_array, size=(m, space.n)).astype(np.int64, copy=False)


def _stream(seed: int) -> np.random.Generator:
    """The run stream of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def draw(space: GroundSpace, seed: int, m: int) -> np.ndarray:
    """The first m configurations of the run stream of ``seed``."""
    return sample_counts(space, _stream(seed), m)


_BLOCK = 4096  # rows per block of ``draw_blocks``


def draw_blocks(space: GroundSpace, seed: int, m: int):
    """``draw(space, seed, m)`` as consecutive (at most ``_BLOCK``, n) blocks
    of one stream.  The stream is drawn row by row, so their rows are the
    one-shot draw's, bit for bit."""
    rng = _stream(seed)
    for a in range(0, m, _BLOCK):
        yield sample_counts(space, rng, min(_BLOCK, m - a))


def _price_draw(what: str, rows: int, columns: int) -> None:
    """A ``ConfigError`` naming ``what`` and its price when rows x columns
    int64 values would take more than ``DRAW_BUDGET`` bytes."""
    price = rows * columns * 8
    if price > DRAW_BUDGET:
        raise ConfigError(
            f"{what}: {rows} x {columns} int64 values need {price} bytes at once,"
            f" past the draw budget of {DRAW_BUDGET} bytes"
        )


def _keys(counts: np.ndarray) -> tuple[np.ndarray, list]:
    """One int64 key per row of an (m, n) counts block, equal for equal
    rows only, and the plan that decodes keys back to rows (``_decode``).

    Keys are built one site at a time, last site first:
    ``keys = keys * radix_z + counts[:, z]`` with radix_z = max_z + 1.
    Where the radix product fits in int64 this is the mixed-radix key
    ``counts @ [1, r_0, r_0 r_1, ...]``.  Where the next product would
    overflow, the keys so far are ranked among their distinct values, the
    plan keeping that table; where a site's radix times the rank count
    still overflows, its column is ranked too, the plan keeping its values.
    """
    plan, top = [], np.iinfo(np.int64).max
    keys = np.zeros(len(counts), dtype=np.int64)
    bound = 1  # every key is below it
    for z in range(counts.shape[1] - 1, -1, -1):
        column = counts[:, z]
        radix, values, table = int(column.max()) + 1, None, None
        if bound * radix > top:
            table, keys = np.unique(keys, return_inverse=True)
            bound = len(table)
        if bound * radix > top:
            values, column = np.unique(column, return_inverse=True)
            radix = len(values)
        keys *= radix
        keys += column
        bound *= radix
        plan.append((radix, values, table))
    return keys, plan[::-1]


def _plan_keys(counts: np.ndarray, plan: list) -> np.ndarray:
    """The keys of a block's rows under a plan already made (``_keys``),
    whose radices, rank tables and ranked values cover the block's."""
    keys = np.zeros(len(counts), dtype=np.int64)
    for z in range(len(plan) - 1, -1, -1):
        radix, values, table = plan[z]
        column = counts[:, z]
        if table is not None:
            keys = np.searchsorted(table, keys)
        if values is not None:
            column = np.searchsorted(values, column)
        keys *= radix
        keys += column
    return keys


def _grid_levels(space: GroundSpace, samples: int) -> list[int] | None:
    """Each site's smallest level whose Poisson tail is at most 1 / samples
    (``exact._smallest_cap``), or None when the box of those levels holds
    more than ``_grid_limit(samples)`` cells: the draws then take the
    sorted path.  A weight >= samples alone makes the box too wide, and so
    does one whose level the pmf walk refuses (past ``exact._MAX_CAP``)."""
    levels, cells = [], 1
    for lam in space.weights:
        if lam >= samples:
            return None
        try:
            level = _smallest_cap(lam, 1.0 / samples)[0]
        except ConfigError:
            return None
        cells *= level + 1
        if cells > _grid_limit(samples):
            return None
        levels.append(level)
    return levels


def _grid_limit(samples: int) -> int:
    """The most cells a dense count grid may hold: ``samples``, so it never
    outweighs the sorted path's keys, and at most ``DRAW_BUDGET`` bytes."""
    return min(samples, DRAW_BUDGET // 8)


def _decode(keys: np.ndarray, plan: list) -> np.ndarray:
    """The counts rows of ``keys`` under ``_keys``' ``plan``, one divmod per
    site written straight into the memo layout (``lattice._empty_rows``)."""
    rows = _empty_rows(len(keys), len(plan))
    for z, (radix, values, table) in enumerate(plan):
        digit = rows[:, z]
        keys = np.divmod(keys, radix, out=(None, digit))[0]
        if values is not None:
            digit[...] = values[digit]
        if table is not None:
            keys = table[keys]
    return rows


class MonteCarloBackend:
    """Expectation engine backed by the seeded Poisson sampler.

    The draws are made once, on first use, and kept as sorted distinct keys
    with their multiplicities, and the plan that decodes them (``_keys``),
    for the backend's lifetime; the path that counts them is chosen at
    construction (``_grid_levels``), where a sorted-path draw past
    ``DRAW_BUDGET`` is a ``ConfigError``.  A check sweeps
    the distinct rows once and reduces each output (``mean``,
    ``expectation``).
    """

    def __init__(self, space: GroundSpace, cfg: SamplerConfig):
        self.space = space
        self.cfg = cfg
        self._levels = _grid_levels(space, cfg.samples)
        if self._levels is None:
            self._price_sorted()
        self._keys: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._plan: list | None = None

    @property
    def seed(self) -> int:
        return self.cfg.seed

    def _price_sorted(self) -> None:
        # the draw and its keys, held together while they are keyed
        _price_draw("samples", self.cfg.samples, self.space.n + 1)

    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct keys (``_keys``) of the run's draws and their
        multiplicities as float64 weights, counted on the dense grid where
        it holds (``_count_on_grid``), else keyed at once and sorted, the
        draw freed before the sort."""
        if self._keys is None:
            counted = None if self._levels is None else self._count_on_grid(self._levels)
            if counted is None:
                keys, self._plan = _keys(draw(self.space, self.cfg.seed, self.cfg.samples))
                self._keys, multiplicity = np.unique(keys, return_counts=True)
            else:
                self._keys, multiplicity, self._plan = counted
            self._weights = multiplicity.astype(np.float64)
        return self._keys, self._weights

    def _count_on_grid(self, levels: list[int]):
        """The run's distinct keys, multiplicities and plan, counted block by
        block into one int64 count per cell of the box of ``levels``.  A
        block past the box grows it to the block's column maxima; once the
        box would pass ``_grid_limit(samples)`` cells the sorted path is
        priced and None returned.  The box is cut to the drawn maxima at the
        end, so keys and plan are ``_keys``' of the whole draw."""
        radix = [level + 1 for level in levels]
        plan = [(r, None, None) for r in radix]
        grid = np.zeros(math.prod(radix), dtype=np.int64)
        seen = [1] * len(radix)  # the drawn column maxima + 1
        for block in draw_blocks(self.space, self.cfg.seed, self.cfg.samples):
            # column by column: block.max(axis=0) costs several times more
            seen = [max(t, int(block[:, z].max()) + 1) for z, t in enumerate(seen)]
            if any(t > r for t, r in zip(seen, radix)):
                top = [max(t, r) for t, r in zip(seen, radix)]
                if math.prod(top) > _grid_limit(self.cfg.samples):
                    self._price_sorted()
                    return None
                grown = np.zeros(top[::-1], dtype=np.int64)
                grown[tuple(slice(r) for r in radix[::-1])] = grid.reshape(radix[::-1])
                grid, radix = grown.reshape(-1), top
                plan = [(r, None, None) for r in radix]
            np.add.at(grid, _plan_keys(block, plan), 1)
        grid = grid.reshape(radix[::-1])[tuple(slice(t) for t in seen[::-1])].reshape(-1)
        keys = np.flatnonzero(grid)
        return keys, grid[keys], [(t, None, None) for t in seen]

    def _rows_of(self, a: int, b: int) -> np.ndarray:
        """Distinct rows a to b, decoded from their keys."""
        return _decode(self._distinct()[0][a:b], self._plan)

    def _first_draw(self, finite: np.ndarray) -> np.ndarray:
        """The first draw, in draw order, of a distinct row whose ``finite``
        entry is False.  The stream is walked again block by block, each
        keyed with the run's plan, so only this error path draws twice, a
        block at a time."""
        bad = self._distinct()[0][~finite]
        for block in draw_blocks(self.space, self.cfg.seed, self.cfg.samples):
            hit = np.flatnonzero(np.isin(_plan_keys(block, self._plan), bad))
            if hit.size:
                return block[hit[0]]

    def sweep(self, kernel, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """Run ``kernel(counts) -> tuple of arrays`` over the distinct rows,
        returning one value per distinct row and output.

        The kernel sees each distinct row once, in row stencils of
        ``_sweep_step(n) // 8`` rows (``_sweep``), each decoded from its
        keys, so memory is the held keys and weights, the per-row outputs
        and one part's rows, neighbour rows, memoised values and
        temporaries, within the 8 MiB budget of a (``_sweep_step(n)``, n, n)
        slab.  A non-finite value is named by its output's ``names`` entry
        and the first such sample in draw order (``_first_draw``).
        """
        m = len(self._distinct()[0])
        return _sweep(
            kernel, m, stencil_parts(m, _sweep_step(self.space.n), self._rows_of),
            names, self._first_draw,
        )

    def _average(self, values: np.ndarray) -> np.float64:
        return _weighted_sum(self._distinct()[1], values) / self.cfg.samples

    def mean(self, values: np.ndarray) -> Mean:
        """The sample mean of a sweep's per-row ``values`` weighted by
        multiplicity, with standard error std(ddof=1) / sqrt(n) from the
        two-pass weighted variance; a ``ShapeError`` unless one per row."""
        n = self.cfg.samples
        value = self._average(values)
        var = _weighted_sum(self._distinct()[1], (values - value) ** 2) / (n - 1)
        return Mean(float(value), n, std_error=float(np.sqrt(var) / np.sqrt(n)))

    def expectation(self, F: Functional, values: np.ndarray | None = None) -> Mean:
        _check_binding(self, F)
        if values is None:
            (values,) = self.sweep(lambda c: (F.batch(c),), (F.name,))
        return self.mean(values)

    def paired(self, kernel) -> tuple[float, float, Mean]:
        """The LHS and RHS sample means of a paired kernel, and the defect:
        the ``Mean`` of the per-row differences, weighted as ``mean``."""
        lhs, rhs = self.sweep(kernel, ("paired lhs", "paired rhs"))
        return float(self._average(lhs)), float(self._average(rhs)), self.mean(lhs - rhs)
