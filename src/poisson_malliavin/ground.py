"""Finite ground space.

The state space is a finite indexed set of sites Z = {1, ..., n}, each site
carrying a strictly positive intensity weight lambda_i.  A point configuration
eta is an N-valued multiplicity vector over the sites, held as an integer
counts array of shape (..., n), so eta(B) counts the points inside a site set
B, given as a plain iterable of site numbers and held as the 0/1 mask
``GroundSpace.site_mask(B)``.  Together they realise the pair (eta, nu) on
which every operator in this package acts; keeping Z finite with finite total
mass makes all expectations exactly enumerable while leaving the operator
identities intact.  Multiplicities above one are allowed.

Sites are 1-based in the public API, matching the configuration-file
conventions.  A ground space is an immutable value object, so instances can
be shared across concurrent workers without synchronisation.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError, InvalidSiteError

__all__ = ["GroundSpace"]


@dataclass(frozen=True)
class GroundSpace:
    """Finite site set with strictly positive intensity weights.

    ``weights[i]`` is the intensity mass of site ``i + 1``; the induced
    measure of a site set is the sum of its members' weights.  Weights that
    are missing, not real, non-positive or non-finite raise ``ConfigError``.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        try:
            ws = tuple(float(w) for w in self.weights)
        except (TypeError, ValueError):
            raise ConfigError(f"weights must be real numbers, got {self.weights!r}") from None
        if not ws:
            raise ConfigError("a ground space needs at least one site")
        object.__setattr__(self, "weights", ws)
        for i, w in enumerate(ws):
            if not np.isfinite(w) or w <= 0.0:
                raise ConfigError(
                    f"weights[{i}] must be a strictly positive finite real, got {w!r}"
                )

    @property
    def n(self) -> int:
        """The number of sites."""
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))

    @cached_property
    def weights_array(self) -> np.ndarray:
        arr = np.asarray(self.weights, dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @property
    def sites(self) -> range:
        """All site labels, 1-based."""
        return range(1, self.n + 1)

    def site_mask(self, sites: Iterable[int]) -> np.ndarray:
        """0/1 integer vector with ones at the given 1-based sites, repeats
        collapsing: exact in integer count sums, and bit for bit a 0.0/1.0
        factor on float values.  Anything but an integer in 1..n, bools and
        strings included, raises ``InvalidSiteError``."""
        mask = np.zeros(self.n, dtype=np.int64)
        for z in sites:
            if isinstance(z, bool) or not isinstance(z, numbers.Integral) or not 1 <= z <= self.n:
                raise InvalidSiteError(f"site {z!r} is not an integer in 1..{self.n}")
            mask[z - 1] = 1
        return mask
