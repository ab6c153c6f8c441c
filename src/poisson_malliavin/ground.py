"""Finite ground space, intensity measure, and point configurations.

The state space is a finite indexed set of sites Z = {1, ..., n}, each site
carrying a strictly positive intensity weight lambda_i.  A point configuration
eta is an N-valued multiplicity vector over the sites, so eta(B) counts the
points inside a site set B.  Together they realise the pair (eta, nu) on which
every operator in this package acts; keeping Z finite with finite total mass
makes all expectations exactly enumerable while leaving the operator
identities intact.  Multiplicities above one are allowed.

Sites are 1-based in the public API, matching the configuration-file
conventions.  All types are immutable value objects: operator code perturbs
configurations freely without defensive copies, and instances can be shared
across concurrent workers without synchronisation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import InvalidSiteError, PointAbsentError, ShapeError

__all__ = [
    "GroundSpace",
    "Configuration",
    "SiteSet",
    "measure_of",
    "count_of",
    "add_point",
    "drop_point",
]


@dataclass(frozen=True)
class GroundSpace:
    """Finite site set with strictly positive intensity weights.

    ``weights[i]`` is the intensity mass of site ``i + 1``; the induced
    measure of a site set is the sum of its members' weights.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("a ground space needs at least one site")
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        for i, w in enumerate(ws):
            if not np.isfinite(w) or w <= 0.0:
                raise ValueError(
                    f"weights[{i}] must be a strictly positive finite real, got {w!r}"
                )

    @property
    def site_count(self) -> int:
        return len(self.weights)

    # short alias used pervasively in array code
    @property
    def n(self) -> int:
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

    def validate_site(self, z: int) -> int:
        z = int(z)
        if not 1 <= z <= self.n:
            raise InvalidSiteError(f"site {z} outside 1..{self.n}")
        return z

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {"weights": list(self.weights)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "GroundSpace":
        if "weights" not in obj:
            raise ShapeError("ground space object must have a 'weights' key")
        return cls(tuple(obj["weights"]))

    @classmethod
    def from_json(cls, text: str) -> "GroundSpace":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Configuration:
    """Point configuration: one non-negative multiplicity per site.

    Value semantics throughout: :meth:`add_point` and :meth:`drop_point`
    return new configurations and never mutate their input, since difference
    operators evaluate a functional at several perturbations of one eta.
    """

    space: GroundSpace
    counts: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(k) for k in self.counts)
        object.__setattr__(self, "counts", cs)
        if len(cs) != self.space.n:
            raise ShapeError(
                f"counts has length {len(cs)}, ground space has {self.space.n} sites"
            )
        for i, k in enumerate(cs):
            if k < 0:
                raise ValueError(f"counts[{i}] must be >= 0, got {k}")

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.counts, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @property
    def total_points(self) -> int:
        return int(sum(self.counts))

    def multiplicity(self, z: int) -> int:
        return self.counts[self.space.validate_site(z) - 1]

    def add_point(self, z: int) -> "Configuration":
        z = self.space.validate_site(z)
        cs = list(self.counts)
        cs[z - 1] += 1
        return Configuration(self.space, tuple(cs))

    def drop_point(self, z: int) -> "Configuration":
        z = self.space.validate_site(z)
        if self.counts[z - 1] == 0:
            raise PointAbsentError(
                f"site {z} carries no point; guard drop operators with the"
                f" indicator 1_{{z in eta}} instead"
            )
        cs = list(self.counts)
        cs[z - 1] -= 1
        return Configuration(self.space, tuple(cs))

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {"counts": list(self.counts)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, space: GroundSpace, obj: dict) -> "Configuration":
        if "counts" not in obj:
            raise ShapeError("configuration object must have a 'counts' key")
        return cls(space, tuple(obj["counts"]))

    @classmethod
    def from_json(cls, space: GroundSpace, text: str) -> "Configuration":
        return cls.from_dict(space, json.loads(text))


@dataclass(frozen=True)
class SiteSet:
    """Subset of the 1-based site labels of some ground space."""

    members: frozenset[int]

    @classmethod
    def of(cls, sites: Iterable[int]) -> "SiteSet":
        return cls(frozenset(int(z) for z in sites))

    @classmethod
    def full(cls, space: GroundSpace) -> "SiteSet":
        return cls(frozenset(space.sites))

    def validate_for(self, space: GroundSpace) -> None:
        for z in self.members:
            if not 1 <= z <= space.n:
                raise InvalidSiteError(
                    f"site {z} not in ground space with {space.n} sites"
                )

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def imask(self, space: GroundSpace) -> np.ndarray:
        """0/1 integer vector with ones at member sites: exact in integer
        count sums, and bit for bit a 0.0/1.0 factor on float values."""
        self.validate_for(space)
        m = np.zeros(space.n, dtype=np.int64)
        for z in self.members:
            m[z - 1] = 1
        return m


def measure_of(space: GroundSpace, B: SiteSet) -> float:
    """Intensity nu(B): the sum of the weights of the sites in B."""
    B.validate_for(space)
    return float(sum(space.weights[z - 1] for z in B.sorted_members()))


def count_of(eta: Configuration, B: SiteSet) -> int:
    """Point count eta(B): the cylindrical evaluation at the site set B."""
    B.validate_for(eta.space)
    return int(sum(eta.counts[z - 1] for z in B.sorted_members()))


def add_point(eta: Configuration, z: int) -> Configuration:
    """eta + delta_z: increment the multiplicity at site z."""
    return eta.add_point(z)


def drop_point(eta: Configuration, z: int) -> Configuration:
    """eta - delta_z: decrement the multiplicity at site z (requires a point)."""
    return eta.drop_point(z)
