"""Pathwise operators: Skorokhod divergence, Ornstein-Uhlenbeck generator,
carre du champ, Dirichlet energy, and the three energy brackets.

All maps here are exact configuration-wise evaluations; expectations are
delegated to the exact-enumeration and Monte Carlo backends, which both
return a ``Mean``: a value with its truncation bound or standard error.

The divergence evaluates its eta-integral at the reduced configuration,

    delta u(eta) = sum_z k_z u(eta - delta_z, z) - sum_z lambda_z u(eta, z),

which is the unique pathwise form that is actually adjoint to the add
operator under the Mecke equation: pairing E[F delta u] against
E int u D+F dnu and shifting the eta-integral with Mecke forces the
u(eta - delta_z, z) evaluation.  (For fields with no dependence on whether
z carries a point, e.g. deterministic or predictable ones, the shift is
invisible and the familiar "integral against eta minus integral against nu"
reading coincides with this one.)  The Skorokhod isometry and the Heisenberg
commutation relation then hold exactly, pathwise, on a finite ground set.

Likewise the generator L = -delta D takes the birth-death form

    L F(eta) = sum_z lambda_z (F(eta+delta_z) - F(eta))
             - sum_z k_z (F(eta) - F(eta-delta_z)),

whose matrix on a truncated state table the exact engine builds and whose
kernel contains the constants.

Everything is pure: concurrent evaluation over disjoint arguments needs no
shared mutable state.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .functionals import (
    Functional,
    RandomField,
    add_diff_all,
    derivative_field,
    field_dropped_diag,
)

__all__ = [
    "BracketKind",
    "divergence_batch",
    "ou_generator_batch",
    "bracket_batch",
    "gamma_batch",
    "dirichlet_integrand",
    "Mean",
]


class BracketKind(enum.Enum):
    """The three brackets of square-integrable fields.

    GAMMA is the energy bracket (the average of the other two), PLUS the
    plain scalar product in L2(nu), MINUS the shifted eta-integral bracket.
    """

    GAMMA = "gamma"
    PLUS = "plus"
    MINUS = "minus"


def _check_same_space(a, b) -> None:
    if a.space != b.space:
        raise ShapeError("operands live on different ground spaces")


def divergence_batch(u: RandomField, counts: np.ndarray) -> np.ndarray:
    """delta u on a counts batch of shape (..., n); returns shape (...)."""
    w = u.space.weights_array
    dropped = field_dropped_diag(u, counts)
    return (counts * dropped).sum(axis=-1) - (w * u.values(counts)).sum(axis=-1)


def ou_generator_batch(F: Functional, counts: np.ndarray) -> np.ndarray:
    """L F = -delta(DF) on a counts batch; returns shape (...)."""
    return -divergence_batch(derivative_field(F), counts)


def bracket_batch(
    u: RandomField, v: RandomField, kind: BracketKind, counts: np.ndarray
) -> np.ndarray:
    """[u, v]_kind on a counts batch; returns shape (...)."""
    _check_same_space(u, v)
    w = u.space.weights_array

    def plus() -> np.ndarray:
        return (w * u.values(counts) * v.values(counts)).sum(axis=-1)

    def minus() -> np.ndarray:
        # both factors evaluated at eta - delta_z; k_z = 0 contributes nothing
        ud = field_dropped_diag(u, counts)
        vd = field_dropped_diag(v, counts)
        return (counts * ud * vd).sum(axis=-1)

    if kind is BracketKind.PLUS:
        return plus()
    if kind is BracketKind.MINUS:
        return minus()
    return 0.5 * plus() + 0.5 * minus()


def gamma_batch(F: Functional, G: Functional, counts: np.ndarray) -> np.ndarray:
    """Carre du champ density Gamma(F, G) = [DF, DG]_Gamma on a counts batch
    of shape (..., n); returns shape (...).

    The carre du champ 1/2 (L(FG) - F LG - G LF) of the Ornstein-Uhlenbeck
    generator is, in complete generality,

    Gamma(F, G)(eta) = 1/2 sum_z lambda_z D+F D+G + 1/2 sum_z k_z D-F D-G,

    i.e. 1/2 int D+F D+G dnu + 1/2 int D-F D-G d eta.  The drop half is
    D+F(eta - delta_z) at the occupied sites (the drop/add conjugation
    identity D-_z F(eta) = D+_z F(eta - delta_z)), computed as D-F with
    n + 1 evaluations of F per configuration.
    """
    return bracket_batch(
        derivative_field(F), derivative_field(G), BracketKind.GAMMA, counts
    )


def dirichlet_integrand(F: Functional, G: Functional) -> Functional:
    """The configuration functional sum_z lambda_z D+F D+G whose expectation
    is the Dirichlet energy: ``backend.expectation(dirichlet_integrand(F, G))``
    on either engine."""
    _check_same_space(F, G)
    space = F.space
    w = space.weights_array

    def fn(counts: np.ndarray) -> np.ndarray:
        return (w * add_diff_all(F, counts) * add_diff_all(G, counts)).sum(axis=-1)

    bound = None
    if F.bound is not None and G.bound is not None:
        bound = 4.0 * F.bound * G.bound * space.total_mass
    return Functional(space, fn, f"dirichlet[{F.name},{G.name}]", bound)


@dataclass(frozen=True)
class Mean:
    """A weighted mean of per-configuration values with its one error term.

    Exact sweeps carry the truncation ``error_bound`` (``std_error`` is
    None), Monte Carlo sweeps the ``std_error`` of the sample mean
    (``error_bound`` is None); ``n`` is the number of states or samples.
    A backend's ``paired`` returns the LHS and RHS means as floats and the
    defect as a ``Mean``: the mean of the per-configuration differences,
    never the difference of two independently estimated means, so Monte
    Carlo standard errors gate the actual quantity under test.
    """

    value: float
    n: int
    error_bound: float | None = None
    std_error: float | None = None
