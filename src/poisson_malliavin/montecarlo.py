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

A ``MonteCarloBackend`` draws its samples once, on first use, keys each
draw by one int64 (``_keys``), frees the draw and keeps the sorted distinct
keys with their multiplicities: nothing per sample and no counts rows;
spaces whose keys overflow int64 also keep the plan's rank tables, each at
most one entry per distinct row.
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
from .functionals import Functional, _check_binding, _sweep, _sweep_step, _weighted_sum
from .ground import GroundSpace, _is_int
from .lattice import _empty_rows, stencil_parts
from .operators import Mean

__all__ = [
    "SamplerConfig",
    "MonteCarloBackend",
]


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
    for the backend's lifetime.  A check sweeps
    the distinct rows once and reduces each output (``mean``,
    ``expectation``).
    """

    def __init__(self, space: GroundSpace, cfg: SamplerConfig):
        self.space = space
        self.cfg = cfg
        self._keys: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._plan: list | None = None

    @property
    def seed(self) -> int:
        return self.cfg.seed

    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct keys (``_keys``) of the run's draws and their
        multiplicities as float64 weights.  The draw is freed before the
        sort."""
        if self._keys is None:
            keys, self._plan = _keys(draw(self.space, self.cfg.seed, self.cfg.samples))
            self._keys, multiplicity = np.unique(keys, return_counts=True)
            self._weights = multiplicity.astype(np.float64)
        return self._keys, self._weights

    def _rows_of(self, a: int, b: int) -> np.ndarray:
        """Distinct rows a to b, decoded from their keys."""
        return _decode(self._distinct()[0][a:b], self._plan)

    def _first_draw(self, finite: np.ndarray) -> np.ndarray:
        """The first draw, in draw order, of a distinct row whose ``finite``
        entry is False.  The stream is drawn and keyed again, so only this
        error path pays a second draw."""
        keys, plan = _keys(draw(self.space, self.cfg.seed, self.cfg.samples))
        first = np.flatnonzero(np.isin(keys, self._distinct()[0][~finite]))[0]
        return _decode(keys[first : first + 1], plan)[0]

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
