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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError, InvalidSiteError

__all__ = ["GroundSpace"]


def _is_real(value) -> bool:
    """A number within the double range; bools, inf and nan are not.  A
    non-integral value is compared as a Python float: compared as itself, a
    numpy float narrower than a double casts the bound to its own type and
    overflows."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    try:
        return abs(float(value)) <= sys.float_info.max
    except OverflowError:  # a Fraction past the double range
        return False


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and _is_real(value)


@dataclass(frozen=True)
class GroundSpace:
    """Finite site set with strictly positive intensity weights.

    ``weights[i]`` is the intensity mass of site ``i + 1``; the induced
    measure of a site set is the sum of its members' weights.  Weights that
    are missing, not real numbers (``_is_real``: strings, bools, inf and nan
    are not) or not positive raise ``ConfigError``.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(self.weights) if np.iterable(self.weights) else None
        if ws is None or not all(map(_is_real, ws)):
            raise ConfigError(f"weights must be real numbers, got {self.weights!r}")
        if not ws:
            raise ConfigError("a ground space needs at least one site")
        ws = tuple(map(float, ws))
        object.__setattr__(self, "weights", ws)
        for i, w in enumerate(ws):
            if w <= 0.0:
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
        factor on float values.  Anything but an iterable of integers in
        1..n, bools and strings included, raises ``InvalidSiteError``."""
        try:
            sites = iter(sites)
        except TypeError:
            raise InvalidSiteError(f"site set {sites!r} is not iterable") from None
        mask = np.zeros(self.n, dtype=np.int64)
        for z in sites:
            if isinstance(z, bool) or not isinstance(z, numbers.Integral) or not 1 <= z <= self.n:
                raise InvalidSiteError(f"site {z!r} is not an integer in 1..{self.n}")
            mask[z - 1] = 1
        return mask
