"""Seeded Poisson sampler and Monte Carlo expectation engine.

Stream discipline: a run is keyed by (seed, samples, workers).  The master
``numpy.random.SeedSequence(seed)`` is spawned into one independent child
stream per worker, workers receive a fixed partition of the sample budget,
and per-worker results are merged in worker-index order.  Identical
configurations therefore reproduce bitwise-identical estimates regardless of
how the workers are scheduled, while different worker counts agree in
distribution (not bitwise).  The PCG64 bit generator behind
``numpy.random.default_rng`` passes the standard statistical batteries, and
its Poisson sampler is exact (inversion for small means, transformed
rejection above numpy's internal switchover near lambda = 10).

Workers are stream partitions, not processes: they run one after another in
the calling process.  A ``MonteCarloBackend`` draws each worker's block once,
on first use, and deduplicates it on its own into distinct rows plus an
inverse index.  Kernels are evaluated on the distinct rows only and scattered
back to one value per sample, so every estimate is computed from the same
per-sample arrays, in the same worker order, as a sweep over the full block.
The backend holds the deduplicated blocks in memory for its lifetime.

Identity defects are always estimated as paired per-sample differences, one
stream of LHS - RHS values per draw, never as two independently estimated
expectations subtracted, so the reported standard error gates the quantity
actually under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError
from .functionals import Functional, _sweep_rows
from .ground import GroundSpace
from .operators import PairedValue

__all__ = [
    "SamplerConfig",
    "Estimate",
    "mc_expectation",
    "MonteCarloBackend",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility key for a Monte Carlo run."""

    seed: int
    samples: int
    workers: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"an estimate needs n >= 2 samples, got {self.n}")

    @property
    def value(self) -> float:
        """Alias so exact and Monte Carlo results share one accessor."""
        return self.mean


def sample_counts(
    space: GroundSpace, rng: np.random.Generator, m: int
) -> np.ndarray:
    """Draw a block of m configurations as an (m, n) integer counts array."""
    return rng.poisson(lam=space.weights_array, size=(m, space.n)).astype(np.int64)


def _worker_sizes(samples: int, workers: int) -> list[int]:
    base, rem = divmod(samples, workers)
    return [base + (1 if j < rem else 0) for j in range(workers)]


def _distinct_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an (m, n) counts block into ``(distinct_rows, inverse)``.

    ``distinct_rows[inverse]`` rebuilds the block row for row.  Rows are keyed
    by one mixed-radix int64 per row when the radix product fits in int64;
    otherwise the rows are compared whole.
    """
    radix = counts.max(axis=0) + 1
    if math.prod(radix.tolist()) <= np.iinfo(np.int64).max:
        place = np.concatenate(([1], np.cumprod(radix[:-1])))
        _, first, inverse = np.unique(
            counts @ place, return_index=True, return_inverse=True
        )
        return counts[first], inverse
    rows, inverse = np.unique(counts, axis=0, return_inverse=True)
    return rows, inverse.reshape(-1)


def _estimate(values: np.ndarray) -> Estimate:
    n = values.size
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(n))
    return Estimate(mean, std_error, n)


def mc_expectation(F: Functional, space: GroundSpace, cfg: SamplerConfig) -> Estimate:
    """Monte Carlo estimate of E[F] with its standard error."""
    return MonteCarloBackend(space, cfg).expectation(F)


class MonteCarloBackend:
    """Expectation engine backed by the seeded Poisson sampler.

    Each worker's block is drawn once, on first use, and kept deduplicated
    for the backend's lifetime.
    """

    label = "mc"

    def __init__(self, space: GroundSpace, cfg: SamplerConfig):
        if cfg.samples < 2:
            raise ValueError("the Monte Carlo backend needs at least 2 samples")
        self.space = space
        self.cfg = cfg
        self._blocks: list[tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def seed(self) -> int:
        return self.cfg.seed

    def _worker_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(distinct_rows, inverse)`` per worker stream, in worker order."""
        if self._blocks is None:
            children = np.random.SeedSequence(self.cfg.seed).spawn(self.cfg.workers)
            sizes = _worker_sizes(self.cfg.samples, self.cfg.workers)
            self._blocks = [
                _distinct_rows(sample_counts(self.space, np.random.default_rng(child), m))
                for child, m in zip(children, sizes)
                if m > 0
            ]
        return self._blocks

    def _sweep(self, kernel) -> tuple[np.ndarray, ...]:
        """Run ``kernel(counts) -> tuple of arrays`` over the worker blocks.

        The kernel sees each distinct row once, in fixed-size slices of the
        block (``_sweep_rows``), so memory is the per-row and per-sample
        arrays plus a fixed 8 MiB of slice temporaries.  Outputs are checked
        for non-finite values in draw order, scattered back to one value per
        sample and concatenated in worker-index order.
        """
        chunks: list[tuple[np.ndarray, ...]] = []
        for rows, inverse in self._worker_blocks():
            out = _sweep_rows(kernel, rows)
            for arr in out:
                finite = np.isfinite(arr)
                if not finite.all():
                    bad = inverse[int(np.argmin(finite[inverse]))]
                    raise NonFiniteValueError(
                        "non-finite sample value at configuration"
                        f" counts={rows[bad].tolist()}"
                    )
            chunks.append(tuple(a[inverse] for a in out))
        return tuple(np.concatenate(arrs) for arrs in zip(*chunks))

    def expectation(self, F: Functional) -> Estimate:
        (values,) = self._sweep(lambda c: (F.batch(c),))
        return _estimate(values)

    def paired(self, kernel) -> PairedValue:
        """Sweep a paired LHS/RHS kernel; the defect is estimated per sample."""
        lhs, rhs = self._sweep(kernel)
        diff = lhs - rhs
        est = _estimate(diff)
        return PairedValue(
            lhs=lhs.mean(),
            rhs=rhs.mean(),
            defect=est.mean,
            n=est.n,
            std_error=est.std_error,
        )
