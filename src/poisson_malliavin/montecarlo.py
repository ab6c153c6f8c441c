"""Seeded Poisson sampler and Monte Carlo expectation engine.

Stream discipline: a run is keyed by (seed, samples) and draws one stream,
``numpy.random.default_rng(SeedSequence(seed).spawn(1)[0])`` (``draw``).
Draws are made row by row, so the first m rows of a run are the whole of a
run of m samples, and ``sample --seed S --count m`` prints them.  The PCG64
bit generator behind ``numpy.random.default_rng`` passes the standard
statistical batteries, and its Poisson sampler is exact (inversion for
small means, transformed rejection above numpy's internal switchover near
lambda = 10).

A ``MonteCarloBackend`` draws its samples once, on first use, and
deduplicates them once into distinct rows, each with its multiplicity and
the index of its first draw.  Kernels run once per stencil part of the
distinct rows (``lattice.stencil_parts``), through the sweep loop both
engines share (``functionals._sweep``).

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
from .lattice import stencil_parts
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


def sample_counts(
    space: GroundSpace, rng: np.random.Generator, m: int
) -> np.ndarray:
    """Draw a block of m configurations as an (m, n) int64 counts array."""
    return rng.poisson(lam=space.weights_array, size=(m, space.n)).astype(np.int64, copy=False)


def draw(space: GroundSpace, seed: int, m: int) -> np.ndarray:
    """The first m configurations of the run stream of ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return sample_counts(space, rng, m)


def _distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an (m, n) counts block into ``(rows, first, multiplicity)``.

    ``rows[r]`` is ``counts[first[r]]``, the first draw of that row, and
    ``multiplicity[r]`` the number of draws equal to it.  Rows are keyed by
    one mixed-radix int64 per row when the radix product fits in int64;
    otherwise the rows are compared whole.
    """
    radix = counts.max(axis=0) + 1
    if math.prod(radix.tolist()) <= np.iinfo(np.int64).max:
        keys = counts @ np.concatenate(([1], np.cumprod(radix[:-1])))
        _, first, multiplicity = np.unique(keys, return_index=True, return_counts=True)
    else:
        _, first, multiplicity = np.unique(
            counts, axis=0, return_index=True, return_counts=True
        )
    return counts[first], first, multiplicity


class MonteCarloBackend:
    """Expectation engine backed by the seeded Poisson sampler.

    The draws are made once, on first use, and kept as distinct rows with
    their multiplicities for the backend's lifetime.  A check sweeps the
    distinct rows once and reduces each output (``mean``, ``expectation``).
    """

    def __init__(self, space: GroundSpace, cfg: SamplerConfig):
        self.space = space
        self.cfg = cfg
        self._rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def seed(self) -> int:
        return self.cfg.seed

    def _distinct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_distinct_rows`` of the run's draws, the multiplicities as
        float64 weights."""
        if self._rows is None:
            rows, first, multiplicity = _distinct_rows(
                draw(self.space, self.cfg.seed, self.cfg.samples)
            )
            self._rows = rows, first, multiplicity.astype(np.float64)
        return self._rows

    def sweep(self, kernel, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """Run ``kernel(counts) -> tuple of arrays`` over the distinct rows,
        returning one value per distinct row and output.

        The kernel sees each distinct row once, in row stencils of
        ``_sweep_step(n) // 8`` rows (``_sweep``), so memory is the per-row
        arrays plus one part's neighbour rows, memoised values and
        temporaries, within the 8 MiB budget of a (``_sweep_step(n)``, n, n)
        slab.  A non-finite value is named by its output's ``names`` entry
        and the first such sample in draw order: of the rows holding one,
        the row drawn first.
        """
        rows, first, _ = self._distinct()
        m = len(rows)
        return _sweep(
            kernel, m, stencil_parts(m, _sweep_step(self.space.n), lambda a, b: rows[a:b]),
            names, lambda finite: rows[np.argmin(np.where(finite, self.cfg.samples, first))],
        )

    def _average(self, values: np.ndarray) -> np.float64:
        return _weighted_sum(self._distinct()[2], values) / self.cfg.samples

    def mean(self, values: np.ndarray) -> Mean:
        """The sample mean of a sweep's per-row ``values`` weighted by
        multiplicity, with standard error std(ddof=1) / sqrt(n) from the
        two-pass weighted variance; a ``ShapeError`` unless one per row."""
        n = self.cfg.samples
        value = self._average(values)
        var = _weighted_sum(self._distinct()[2], (values - value) ** 2) / (n - 1)
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
