"""The identity suite: every operator identity as a scalar-defect check.

Each check reduces one identity to a single scalar defect with an explicit
gate, so tolerances always apply to one number:

* expectation-level identities (Mecke, duality, Skorokhod isometry, the
  integrated chain rule, the carre du champ representation, the bracket
  expectation identities) take their means from one backend sweep per
  check, LHS and RHS paired per configuration; the exact gate is an absolute
  tolerance plus the reported truncation bound, the Monte Carlo gate a
  z-multiplier times the paired standard error;
* pathwise identities (Heisenberg commutation, the divergence product
  formula) are checked pointwise on a seeded batch of configurations against
  a rounding-level gate;
* the chain-rule counterexample search inverts the pass convention: it must
  exhibit a defect strictly above its gate, confirming that the Dirichlet
  form is non-local (its generator is not a diffusion).

Reports serialize deterministically; the suite runner measures each check's
wall time and keeps it on the in-memory report only, so equal configurations
yield byte-identical report files.
"""
from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import ConfigError, ShapeError
from .functionals import (
    Functional,
    RandomField,
    add_diff_all,
    derivative_field,
    drop_diff_all,
    field_add_tensor,
    field_added_diag,
    product_field,
    shifted_all,
)
from .ground import GroundSpace
from .montecarlo import sample_counts
from .operators import (
    BracketKind,
    Mean,
    bracket_batch,
    dirichlet_integrand,
    divergence_batch,
    gamma_batch,
)
from .registry import ScalarMap, _is_int, _is_real, product_of, scalar_map

__all__ = [
    "Gates",
    "DEFAULT_GATES",
    "VerificationReport",
    "mecke_kernel",
    "mecke_check",
    "duality_check",
    "skorokhod_check",
    "commutation_check",
    "product_formula_check",
    "energy_derivation_check",
    "gamma_representation_check",
    "gamma_form_bound_check",
    "bracket_expectation_check",
    "non_diffusion_counterexample",
    "chain_rule_control_check",
]


@dataclass(frozen=True)
class Gates:
    """Tolerance policy for the whole suite.

    ``exact`` is the absolute gate on exact-backend defects (truncation error
    bounds are added on top per check); ``mc_z`` multiplies the paired
    standard error (4 sigma is roughly a 6e-5 false-alarm rate per check);
    ``pointwise`` gates pathwise identities; the counterexample must exceed
    ``counterexample_factor * exact``.  Every gate is a finite number > 0
    (``ConfigError`` otherwise).
    """

    exact: float = 1e-10
    mc_z: float = 4.0
    pointwise: float = 1e-12
    counterexample_factor: float = 10.0

    def __post_init__(self):
        # no defect carrying rounding meets an upper gate <= 0, and a lower
        # gate < 0 lets the counterexample search pass on a zero defect
        for f in fields(self):
            value = getattr(self, f.name)
            if not (_is_real(value) and value > 0):
                raise ConfigError(f"gate {f.name} must be a number > 0, got {value!r}")


DEFAULT_GATES = Gates()


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check.

    ``gate_kind`` is "upper" for every ordinary check and "lower" (pass iff
    ``defect > gate``) for the counterexample search, whose whole point is a
    nonzero defect.  An "upper" check passes iff ``|defect| <= gate``, except
    gamma_form_bound: its defect is a signed constraint violation, negative
    when both bounds hold with slack, and it passes iff ``defect <= gate``.
    ``wall_time`` is set by the suite runner around each check (0.0 on a
    direct call) and excluded from serialization; reports with equal inputs
    must be byte-identical.  ``to_dict`` writes a non-finite number, such as
    the NaN values of a check that failed with an error, as None (JSON null).
    """

    case: str
    lhs: float
    rhs: float
    defect: float
    gate: float
    gate_kind: str
    passed: bool
    seed: int | None
    n: int
    tail_bound: float | None = None
    wall_time: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "case": self.case,
            "lhs": _finite(self.lhs),
            "rhs": _finite(self.rhs),
            "defect": _finite(self.defect),
            "gate": _finite(self.gate),
            "gate_kind": self.gate_kind,
            "pass": self.passed,
            "seed": self.seed,
            "n": self.n,
        }
        if self.tail_bound is not None:
            out["tail_bound"] = _finite(self.tail_bound)
        if self.error is not None:
            out["error"] = self.error
        return out


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _gate_for(defect: Mean, gates: Gates) -> float:
    if defect.std_error is not None:
        return gates.mc_z * defect.std_error
    return gates.exact + defect.error_bound


def _report(
    case: str,
    backend,
    lhs: float,
    rhs: float,
    defect: float,
    gate: float,
    passed: bool,
    n: int,
    gate_kind: str = "upper",
    seed: int | None = None,
) -> VerificationReport:
    """Every check's report; ``passed`` is the check's own pass rule.  The
    seed and tail bound come from the backend when there is one."""
    return VerificationReport(
        case=case,
        lhs=lhs,
        rhs=rhs,
        defect=defect,
        gate=gate,
        gate_kind=gate_kind,
        passed=passed,
        seed=getattr(backend, "seed", seed),
        n=n,
        tail_bound=getattr(backend, "tail_bound", None),
    )


def _paired_report(case: str, kernel, backend, gates: Gates) -> VerificationReport:
    lhs, rhs, d = backend.paired(kernel)
    gate = _gate_for(d, gates)
    return _report(case, backend, lhs, rhs, d.value, gate, abs(d.value) <= gate, d.n)


def _pointwise_counts(space: GroundSpace, seed: int, case: str, points: int) -> np.ndarray:
    if not (_is_int(points) and points >= 1):
        raise ConfigError(f"{case}: points must be an integer >= 1, got {points!r}")
    # per-case salt keeps different checks on decorrelated streams
    salt = zlib.crc32(case.encode("utf-8"))
    ss = np.random.SeedSequence([int(seed), salt])
    return sample_counts(space, np.random.default_rng(ss), points)


def _require_exact(backend, check: str) -> None:
    if getattr(backend, "table", None) is None:
        raise ConfigError(
            f"{check} enumerates the state table, so it needs an ExactBackend,"
            f" not a {type(backend).__name__}"
        )


def _check_binding(backend, *objs) -> None:
    for obj in objs:
        if obj.space != backend.space:
            raise ShapeError(
                f"{obj.name!r} is bound to a different ground space than the backend"
            )


# ---------------------------------------------------------------------------
# expectation-level identities
# ---------------------------------------------------------------------------

def mecke_kernel(u: RandomField):
    """Paired kernel for E int u d eta = E int u(eta + delta_z, z) nu(dz)."""
    w = u.space.weights_array

    def kernel(counts: np.ndarray):
        lhs = (counts * u.values(counts)).sum(axis=-1)
        rhs = (w * field_added_diag(u, counts)).sum(axis=-1)
        return lhs, rhs

    return kernel


def mecke_check(
    u: RandomField, backend, gates: Gates = DEFAULT_GATES, case: str = "mecke"
) -> VerificationReport:
    """Mecke equation, the identity characterising the Poisson law."""
    _check_binding(backend, u)
    return _paired_report(case, mecke_kernel(u), backend, gates)


def duality_check(
    F: Functional,
    u: RandomField,
    backend,
    gates: Gates = DEFAULT_GATES,
    case: str = "duality",
) -> VerificationReport:
    """Integration by parts: E[F delta u] = E int u D+F dnu."""
    _check_binding(backend, F, u)
    w = F.space.weights_array

    def kernel(counts: np.ndarray):
        lhs = F.batch(counts) * divergence_batch(u, counts)
        rhs = (w * u.values(counts) * add_diff_all(F, counts)).sum(axis=-1)
        return lhs, rhs

    return _paired_report(case, kernel, backend, gates)


# bytes of the (rows, n, n) differences ``_double_integral`` holds at once,
# few enough to stay in cache while their columns are read
_DOUBLE_INTEGRAL_BYTES = 1 << 20


def _double_integral(added: np.ndarray, vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """int int D+_z u(., z') D+_z' u(., z) nu(dz) nu(dz') per configuration,
    from ``added`` = u(eta + delta_z, z') (``field_add_tensor``) and
    ``vals`` = u(eta, z').  With d = added - vals[..., None, :], each term
    ((d_ij d_ji) w_i) w_j is added to 0 in (i, j) order: bit for bit
    ``np.einsum("...ij,...ji,i,j->...", d, d, w, w)``, whatever the layout,
    but from column products over blocks of rows, with no (rows, n, n) d."""
    n, lead = len(w), added.shape[:-2]
    added, vals = added.reshape(-1, n, n), vals.reshape(-1, n)
    total = np.zeros(len(added))
    block = max(1, _DOUBLE_INTEGRAL_BYTES // (8 * n * n))
    term = np.empty(min(block, len(added)))
    for a in range(0, len(added), block):
        d = added[a : a + block] - vals[a : a + block, None, :]
        t, acc = term[: len(d)], total[a : a + block]
        for i, j in itertools.product(range(n), repeat=2):
            np.multiply(d[:, i, j], d[:, j, i], out=t)
            t *= w[i]
            t *= w[j]
            acc += t
    return total.reshape(lead)


def skorokhod_check(
    u: RandomField, backend, gates: Gates = DEFAULT_GATES, case: str = "skorokhod"
) -> VerificationReport:
    """Skorokhod isometry:

    E (delta u)^2 = E int u^2 dnu
                  + E int int D+_z u(., z') D+_{z'} u(., z) nu(dz) nu(dz').
    """
    _check_binding(backend, u)
    w = u.space.weights_array

    def kernel(counts: np.ndarray):
        lhs = divergence_batch(u, counts) ** 2
        vals = u.values(counts)
        rhs = (w * vals * vals).sum(axis=-1)
        rhs += _double_integral(field_add_tensor(u, counts), vals, w)
        return lhs, rhs

    return _paired_report(case, kernel, backend, gates)


def energy_derivation_check(
    F: Functional,
    G: Functional,
    u: RandomField,
    backend,
    gates: Gates = DEFAULT_GATES,
    case: str = "energy_derivation",
) -> VerificationReport:
    """Integrated chain rule: the energy acts as a derivation,

    E [D(FG), u]_Gamma = E F [DG, u]_Gamma + E G [DF, u]_Gamma,

    for bounded F, G.  With u = DH this is the derivation property of the
    Dirichlet form itself.
    """
    _check_binding(backend, F, G, u)
    dF, dG = derivative_field(F), derivative_field(G)
    dFG = derivative_field(product_of(F, G))

    def kernel(counts: np.ndarray):
        lhs = bracket_batch(dFG, u, BracketKind.GAMMA, counts)
        rhs = F.batch(counts) * bracket_batch(
            dG, u, BracketKind.GAMMA, counts
        ) + G.batch(counts) * bracket_batch(dF, u, BracketKind.GAMMA, counts)
        return lhs, rhs

    return _paired_report(case, kernel, backend, gates)


def gamma_representation_check(
    F: Functional,
    Phi: Functional,
    backend,
    gates: Gates = DEFAULT_GATES,
    case: str = "gamma_representation",
) -> VerificationReport:
    """Carre du champ representation: for bounded F and test factor Phi,

    E(F, F Phi) - 1/2 E(F^2, Phi) = E[ Gamma(F) Phi ]

    with Gamma(F) = [DF, DF]_Gamma.
    """
    _check_binding(backend, F, Phi)
    lhs_fun = dirichlet_integrand(F, product_of(F, Phi))
    mid_fun = dirichlet_integrand(product_of(F, F), Phi)

    def kernel(counts: np.ndarray):
        lhs = lhs_fun.batch(counts)
        rhs = 0.5 * mid_fun.batch(counts) + gamma_batch(F, F, counts) * Phi.batch(
            counts
        )
        return lhs, rhs

    return _paired_report(case, kernel, backend, gates)


def gamma_form_bound_check(
    F: Functional,
    Phi: Functional,
    backend,
    gates: Gates = DEFAULT_GATES,
    case: str = "gamma_form_bound",
) -> VerificationReport:
    """Two-sided bound on the functional carre du champ:

    0 <= E(F, F Phi) - 1/2 E(F^2, Phi) <= sup|Phi| * E(F, F)

    for bounded F and bounded non-negative Phi; sup|Phi| is the certified
    registry bound.  The report's defect is the worst constraint violation
    (negative part on the left, excess on the right); its gate absorbs the
    error terms of both estimated quantities.  Both come from one sweep.
    """
    _check_binding(backend, F, Phi)
    if Phi.bound is None:
        raise ShapeError("gamma_form_bound needs a Phi with a certified bound")
    lhs_fun = dirichlet_integrand(F, product_of(F, Phi))
    mid_fun = dirichlet_integrand(product_of(F, F), Phi)
    energy_fun = dirichlet_integrand(F, F)

    def kernel(counts: np.ndarray):
        return lhs_fun.batch(counts), 0.5 * mid_fun.batch(counts), energy_fun.batch(counts)

    lhs, half_mid, energy_values = backend.sweep(kernel, ("form lhs", "form rhs", "energy"))
    form = backend.mean(lhs - half_mid)  # the linear form value Gamma_a(F)[Phi]
    energy = backend.expectation(energy_fun, energy_values)
    value = form.value
    upper = Phi.bound * energy.value
    if form.std_error is not None:
        gate = gates.mc_z * (form.std_error + Phi.bound * energy.std_error)
    else:
        gate = gates.exact + form.error_bound + Phi.bound * energy.error_bound
    defect = max(-value, value - upper)
    # signed: a negative defect is slack, so the rule is not |defect| <= gate
    return _report(case, backend, value, upper, defect, gate, defect <= gate, form.n)


def bracket_expectation_check(
    u: RandomField,
    v: RandomField,
    backend,
    gates: Gates = DEFAULT_GATES,
    case: str = "bracket_expectation",
) -> VerificationReport:
    """Bracket expectation identities: E[u,v]_Gamma = E[u,v]_+ = E[u,v]_-.

    One sweep yields the plus and minus brackets, and the energy bracket is
    their average, so E[u,v]_Gamma - E[u,v]_- is exactly the negative of
    E[u,v]_Gamma - E[u,v]_+.  The report checks the latter, paired per
    configuration, with lhs = E[u,v]_+ and rhs = E[u,v]_-.
    """
    _check_binding(backend, u, v)

    def kernel(counts: np.ndarray):
        return (
            bracket_batch(u, v, BracketKind.PLUS, counts),
            bracket_batch(u, v, BracketKind.MINUS, counts),
        )

    plus_values, minus_values = backend.sweep(kernel, ("plus bracket", "minus bracket"))
    gamma_values = 0.5 * plus_values + 0.5 * minus_values
    plus, minus = backend.mean(plus_values).value, backend.mean(minus_values).value
    defect = backend.mean(gamma_values - plus_values)
    gate = _gate_for(defect, gates)
    return _report(
        case,
        backend,
        lhs=plus,
        rhs=minus,
        defect=defect.value,
        gate=gate,
        passed=abs(defect.value) <= gate,
        n=defect.n,
    )


# ---------------------------------------------------------------------------
# pathwise identities, checked pointwise on seeded configurations
# ---------------------------------------------------------------------------

def _shifted_diff_field(u: RandomField, z_index: int) -> RandomField:
    """The field (eta, y) -> D+_z u(eta, y) for a fixed site index."""
    row = np.eye(u.space.n, dtype=np.int64)[z_index]

    def fn(counts: np.ndarray) -> np.ndarray:
        return u.values(counts + row) - u.values(counts)

    return RandomField(u.space, fn, f"D+_{z_index + 1}({u.name})")


def commutation_check(
    u: RandomField,
    sites: Iterable[int] | None = None,
    *,
    seed: int = 0,
    points: int = 200,
    gates: Gates = DEFAULT_GATES,
    case: str = "commutation",
) -> VerificationReport:
    """Heisenberg commutation relation, pathwise:

    D+_z (delta u)(eta) = u(eta, z) + delta(D+_z u(., .))(eta)

    checked at every sampled configuration and every requested site, all
    sites by default.  ``sites`` is any iterable of 1-based site numbers,
    repeats counted once (``GroundSpace.site_mask``); an empty one is a
    ``ConfigError``, not a vacuous pass.
    """
    space = u.space
    zis = range(space.n) if sites is None else np.flatnonzero(space.site_mask(sites)).tolist()
    if not zis:
        raise ConfigError(f"{case}: needs at least one site, got an empty site set")
    counts = _pointwise_counts(space, seed, case, points)
    base_div = divergence_batch(u, counts)
    vals = u.values(counts)
    worst = 0.0
    lhs_mag = 0.0
    rhs_mag = 0.0
    eye = np.eye(space.n, dtype=np.int64)
    for zi in zis:
        lhs = divergence_batch(u, counts + eye[zi]) - base_div
        rhs = vals[:, zi] + divergence_batch(_shifted_diff_field(u, zi), counts)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        lhs_mag = max(lhs_mag, float(np.abs(lhs).max()))
        rhs_mag = max(rhs_mag, float(np.abs(rhs).max()))
    return _report(
        case,
        None,
        lhs=lhs_mag,
        rhs=rhs_mag,
        defect=worst,
        gate=gates.pointwise,
        passed=worst <= gates.pointwise,
        n=points * len(zis),
        seed=seed,
    )


def product_formula_check(
    F: Functional,
    u: RandomField,
    *,
    seed: int = 0,
    points: int = 200,
    gates: Gates = DEFAULT_GATES,
    case: str = "product_formula",
) -> VerificationReport:
    """Divergence product formula, pathwise:

    delta(F u) = F delta u - [DF, u]_-

    checked at every sampled configuration.
    """
    if F.space != u.space:
        raise ShapeError("F and u live on different ground spaces")
    counts = _pointwise_counts(F.space, seed, case, points)
    lhs = divergence_batch(product_field(F, u), counts)
    rhs = F.batch(counts) * divergence_batch(u, counts) - bracket_batch(
        derivative_field(F), u, BracketKind.MINUS, counts
    )
    worst = float(np.abs(lhs - rhs).max())
    return _report(
        case,
        None,
        lhs=float(np.abs(lhs).max()),
        rhs=float(np.abs(rhs).max()),
        defect=worst,
        gate=gates.pointwise,
        passed=worst <= gates.pointwise,
        n=points,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the non-diffusion counterexample
# ---------------------------------------------------------------------------

def _chain_rule_defects(phis: list[ScalarMap], F: Functional, G: Functional, backend):
    """Both failure modes of the diffusion chain rule at one (F, G), per phi,
    from one sweep.  Returns, per phi, the paired integrated defect of

        E(phi(F), G) = E[ phi'(F) [DF, DG]_Gamma ]

    and the maximal pointwise defect of the carre du champ chain rule

        Gamma(phi(F), G) = phi'(F) Gamma(F, G)

    over the enumerated states.  The integrated identity is a theorem for
    affine and quadratic phi (it is the derivation lemma), so only the
    pointwise defect can witness non-diffusion there; genuinely nonlinear
    phi (cube, tanh) break both.  Per slice of states, F at eta +- delta_z,
    G's differences and Gamma(F, G) serve all phis; phi(F) is phi of F's.
    """
    w = F.space.weights_array
    worst: list[list[float]] = [[] for _ in phis]

    def kernel(counts: np.ndarray):
        here, up, down = F.batch(counts), shifted_all(F, counts, 1), shifted_all(F, counts, -1)
        dG_add, dG_drop = add_diff_all(G, counts), drop_diff_all(G, counts)

        def halves(at, plus, minus):  # of [DH, DG]_Gamma, from H at eta and eta +- delta_z
            # the drop is clipped at 0, so at - minus is D-H with its indicator
            add = (w * (plus - at[..., None]) * dG_add).sum(axis=-1)
            return add, (counts * (at[..., None] - minus) * dG_drop).sum(axis=-1)

        add, drop = halves(here, up, down)
        gamma_FG = 0.5 * add + 0.5 * drop
        defects = []
        for phi, worst_phi in zip(phis, worst):
            rhs = phi.deriv(here) * gamma_FG  # the paired rhs and the pointwise comparand
            energy, drop = halves(phi.fn(here), phi.fn(up), phi.fn(down))
            worst_phi.append(np.abs(0.5 * energy + 0.5 * drop - rhs).max())
            defects.append(energy - rhs)  # the energy integrand is the add half
        return tuple(defects)

    names = tuple(f"chain rule defect of {phi.name}({F.name}) against {G.name}" for phi in phis)
    defects = backend.sweep(kernel, names)
    return [(backend.mean(d), float(np.max(w_phi))) for d, w_phi in zip(defects, worst)]


def non_diffusion_counterexample(
    backend,
    phis: list[str | ScalarMap],
    Fs: list[Functional],
    Gs: list[Functional],
    budget: int = 100,
    gates: Gates = DEFAULT_GATES,
    case: str = "non_diffusion",
) -> VerificationReport:
    """Search for a violation of the diffusion chain rule.

    Sweeps the (phi, F, G) grid on the exact backend, up to ``budget``
    combinations, and returns the largest defect found (integrated or
    pointwise).  The pass convention is inverted: the check passes only when
    the defect clears ``counterexample_factor * exact`` (the report's
    gate_kind says "lower"), because a local chain rule holding everywhere
    would mean the generator is a diffusion, which it is not.  A ``budget``
    that is not an integer >= 0 raises ``ConfigError``.
    """
    _require_exact(backend, "non_diffusion_counterexample")
    _check_binding(backend, *Fs, *Gs)
    if not (_is_int(budget) and budget >= 0):
        raise ConfigError(f"budget must be a non-negative integer, got {budget!r}")
    maps = [scalar_map(p) if isinstance(p, str) else p for p in phis]
    # the first ``budget`` combinations in (phi, F, G) order, one sweep per (F, G)
    groups: dict[tuple[int, int], list[ScalarMap]] = {}
    for phi, i, j in itertools.islice(
        itertools.product(maps, range(len(Fs)), range(len(Gs))), budget
    ):
        groups.setdefault((i, j), []).append(phi)
    best_integrated = 0.0
    best_pointwise = 0.0
    for (i, j), group in groups.items():
        for integrated, pointwise in _chain_rule_defects(group, Fs[i], Gs[j], backend):
            best_integrated = max(best_integrated, abs(integrated.value))
            best_pointwise = max(best_pointwise, pointwise)
    gate = gates.counterexample_factor * gates.exact
    defect = max(best_integrated, best_pointwise)
    return _report(
        case,
        backend,
        lhs=best_integrated,
        rhs=best_pointwise,
        defect=defect,
        gate=gate,
        passed=defect > gate,
        n=backend.state_count,
        gate_kind="lower",
    )


def chain_rule_control_check(
    F: Functional,
    G: Functional,
    backend,
    gates: Gates = DEFAULT_GATES,
    case: str = "non_diffusion_control",
) -> VerificationReport:
    """Control for the counterexample search: phi = identity is linear, so
    both chain-rule defects must vanish (up to truncation)."""
    _require_exact(backend, "chain_rule_control_check")
    _check_binding(backend, F, G)
    ((integrated, pointwise),) = _chain_rule_defects([scalar_map("identity")], F, G, backend)
    gate = _gate_for(integrated, gates)
    lhs = abs(integrated.value)
    defect = max(lhs, pointwise)
    return _report(case, backend, lhs, pointwise, defect, gate, defect <= gate, integrated.n)
