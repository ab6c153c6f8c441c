from __future__ import annotations

import numpy as np
import pytest

from poisson_malliavin import (
    ExactBackend,
    GroundSpace,
    bounded_sigmoid,
    constant,
    indicator_leq,
    linear_count,
    poly_count,
    product_of,
    affine_of,
)
from poisson_malliavin import functionals

CANONICAL_WEIGHTS = (0.5, 1.0, 1.5)


@pytest.fixture(scope="session")
def space() -> GroundSpace:
    return GroundSpace(CANONICAL_WEIGHTS)


@pytest.fixture(scope="session")
def exact(space) -> ExactBackend:
    # one tight table shared by the whole run; construction is cheap but
    # there is no point rebuilding it per test
    return ExactBackend(space, tol=1e-12)


@pytest.fixture()
def eta102() -> np.ndarray:
    return np.array([1, 0, 2], dtype=np.int64)


# The oracle: eta +- delta_z built by hand on one plain configuration (a tuple
# or an untagged counts row), as in Last & Penrose (2017), ch. 18; it shares
# no shift code with the batch operators it checks.

def shift(eta, z: int, step: int):
    """eta + step delta_z (site z is 1-based) as a new row; None below 0."""
    row = np.array(eta, dtype=np.int64)
    row[z - 1] += step
    return row if row[z - 1] >= 0 else None


def d_plus(F, eta, z: int) -> float:
    """D+_z F(eta) = F(eta + delta_z) - F(eta)."""
    return float(F.batch(shift(eta, z, 1)) - F.batch(np.array(eta)))


def d_minus(F, eta, z: int) -> float:
    """D-_z F(eta) = F(eta) - F(eta - delta_z), and 0 when eta_z = 0."""
    minus = shift(eta, z, -1)
    return 0.0 if minus is None else float(F.batch(np.array(eta)) - F.batch(minus))


def functional_pool(space: GroundSpace):
    """A fixed, registry-spanning family used by randomized property tests.

    Coefficients are dyadic and count polynomials are integer-valued, so the
    algebraic identities below hold to rounding level even without bounds.
    """
    lin1 = linear_count(space, [1])
    lin12 = linear_count(space, [1, 2])
    sig = bounded_sigmoid(space, [1, 2], 1.0)
    ind = indicator_leq(space, [1, 2, 3], 2)
    return [
        constant(space, 1.5),
        lin1,
        lin12,
        linear_count(space, [1, 2, 3]),
        poly_count(space, [1, 2, 3], 2),
        poly_count(space, [1, 3], 3),
        sig,
        ind,
        product_of(sig, ind),
        affine_of([(0.5, lin12), (-0.25, sig)], 1.0),
    ]


def sample_batch(space: GroundSpace, seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.poisson(lam=np.asarray(space.weights), size=(m, space.n)).astype(
        np.int64
    )


def random_functional_spec(rng: np.random.Generator, n_sites: int) -> dict:
    """Draw a reproducible random functional spec from the registry family.

    Used for randomized cross-validation between the exact and Monte Carlo
    backends; degrees stay <= 2 so fourth moments (hence standard errors)
    exist comfortably.
    """
    def random_sites() -> list[int]:
        k = int(rng.integers(1, n_sites + 1))
        return sorted(int(z) for z in rng.choice(n_sites, size=k, replace=False) + 1)

    kind = rng.choice(
        ["linear_count", "poly_count", "bounded_sigmoid", "indicator_leq",
         "product", "affine"]
    )
    if kind == "linear_count":
        return {"name": "linear_count", "B": random_sites()}
    if kind == "poly_count":
        return {"name": "poly_count", "B": random_sites(), "degree": int(rng.integers(1, 3))}
    if kind == "bounded_sigmoid":
        return {
            "name": "bounded_sigmoid",
            "B": random_sites(),
            "scale": round(float(rng.uniform(0.25, 1.5)), 3),
        }
    if kind == "indicator_leq":
        return {"name": "indicator_leq", "B": random_sites(), "m": int(rng.integers(0, 5))}
    if kind == "product":
        return {
            "name": "product",
            "factors": [
                {"name": "bounded_sigmoid", "B": random_sites(),
                 "scale": round(float(rng.uniform(0.25, 1.5)), 3)},
                {"name": "indicator_leq", "B": random_sites(), "m": int(rng.integers(0, 5))},
            ],
        }
    return {
        "name": "affine",
        "terms": [
            [0.5, {"name": "linear_count", "B": random_sites()}],
            [-0.25, {"name": "bounded_sigmoid", "B": random_sites(),
                     "scale": round(float(rng.uniform(0.25, 1.5)), 3)}],
        ],
        "constant": round(float(rng.uniform(-1.0, 1.0)), 3),
    }


def same_bits(a, b) -> bool:
    """Equal with ``np.array_equal`` and bit for bit, signed zeros too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def plain_sweep(kernel, states: np.ndarray, names) -> tuple[np.ndarray, ...]:
    """The one sweep loop over untagged parts of ``states``, of a box
    slice's row count: the plain evaluation every memo must reproduce."""
    m, n = states.shape
    step = functionals._sweep_step(n)
    parts = ((a, min(a + step, m), states[a : a + step]) for a in range(0, m, step))
    return functionals._sweep(kernel, m, parts, names, lambda finite: states[np.argmin(finite)])
