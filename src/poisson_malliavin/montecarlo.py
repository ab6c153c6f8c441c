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
inverse index.  Kernels are evaluated on the distinct rows only, through the
sweep loop both engines share (``functionals._sweep``), and scattered back
into one per-sample array per output, so every estimate is computed from the
same per-sample arrays, in the same worker order, as a sweep over the full
block.  The backend holds the deduplicated blocks in memory for its
lifetime.

Every estimate is one sweep (per-sample values) and one reduction (the sample
mean with standard error std(ddof=1) / sqrt(n)), returned as a ``Mean``.
Identity defects are always estimated as paired per-sample differences, one
stream of LHS - RHS values per draw, never as two independently estimated
expectations subtracted, so the reported standard error gates the quantity
actually under test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .functionals import Functional, _sweep, _sweep_step
from .ground import GroundSpace
from .operators import Mean
from .registry import _is_int

__all__ = [
    "SamplerConfig",
    "mc_expectation",
    "MonteCarloBackend",
]


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducibility key for a Monte Carlo run: an integer seed >= 0, at
    least 2 samples (a standard error needs two) and from 1 worker up to one
    per sample; anything else is a ``ConfigError`` naming the field."""

    seed: int
    samples: int
    workers: int = 1

    def __post_init__(self):
        for name, low in (("seed", 0), ("samples", 2), ("workers", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.workers > self.samples:
            # every worker stream past the sample count would draw nothing,
            # and spawning each costs time and memory before any sampling
            raise ConfigError(
                f"workers must be at most samples, got workers={self.workers}"
                f" > samples={self.samples}"
            )


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


def mc_expectation(F: Functional, space: GroundSpace, cfg: SamplerConfig) -> Mean:
    """Monte Carlo estimate of E[F] with its standard error."""
    return MonteCarloBackend(space, cfg).expectation(F)


class MonteCarloBackend:
    """Expectation engine backed by the seeded Poisson sampler.

    Each worker's block is drawn once, on first use, and kept deduplicated
    for the backend's lifetime.  A check sweeps the samples once and reduces
    each output (``mean``, ``expectation``).
    """

    label = "mc"

    def __init__(self, space: GroundSpace, cfg: SamplerConfig):
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
            ]
        return self._blocks

    def sweep(self, kernel, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """Run ``kernel(counts) -> tuple of arrays`` over the worker blocks.

        The kernel sees each distinct row once, in slices of at most
        ``_sweep_step(n)`` rows of the block (``_sweep``), so memory is the
        per-row and per-sample arrays plus a fixed 8 MiB of slice
        temporaries.  A non-finite value is named by its output's ``names``
        entry and the first such sample in draw order.  Each block's outputs
        are scattered back to one value per sample, straight into the
        per-sample arrays, in worker-index order.
        """
        step = _sweep_step(self.space.n)
        outs: tuple[np.ndarray, ...] = ()
        offset = 0
        for rows, inverse in self._worker_blocks():
            m = len(rows)
            parts = ((a, min(a + step, m), rows[a : a + step]) for a in range(0, m, step))
            values = _sweep(
                kernel, m, parts, names,
                lambda finite: rows[inverse[int(np.argmin(finite[inverse]))]],
            )
            if not outs:
                outs = tuple(np.empty(self.cfg.samples, dtype=np.float64) for _ in values)
            stop = offset + len(inverse)
            for out, v in zip(outs, values):
                np.take(v, inverse, out=out[offset:stop])
            offset = stop
        return outs

    def mean(self, values: np.ndarray) -> Mean:
        """The sample mean, with standard error std(ddof=1) / sqrt(n)."""
        n = values.size
        return Mean(float(values.mean()), n, std_error=float(values.std(ddof=1) / np.sqrt(n)))

    def expectation(self, F: Functional, values: np.ndarray | None = None) -> Mean:
        if values is None:
            (values,) = self.sweep(lambda c: (F.batch(c),), (F.name,))
        return self.mean(values)

    def paired(self, kernel) -> tuple[float, float, Mean]:
        """The LHS and RHS sample means of a paired kernel, and the defect:
        the ``Mean`` of the per-sample differences."""
        lhs, rhs = self.sweep(kernel, ("paired lhs", "paired rhs"))
        return float(lhs.mean()), float(rhs.mean()), self.mean(lhs - rhs)
