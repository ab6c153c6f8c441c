"""Exact expectation oracle on a truncated product-Poisson state space.

Under the product-Poisson law each site's multiplicity is an independent
Poisson(lambda_i) variable, so capping site i at K_i and enumerating the box
prod_i {0..K_i} makes every expectation a finite weighted sum.  Each
site's cap and tail come from the same pmf vector as the box's
probabilities, its tails summed from the far end, and a union bound over
sites yields a rigorous ``tail_bound`` on the probability mass the box
misses.  Every exact value is one sweep over the box (per-state values) and
one reduction (their probability-weighted sum), returned as a ``Mean`` with
an error bound derived from that mass: rigorous when the integrand carries a
certified sup-norm bound, heuristic (sup over enumerated states) otherwise.

The Ornstein-Uhlenbeck generator is a sparse matrix in table order, built
from the weights and caps alone: each jump s -> s +- dz is the neighbour one
box stride away, so the matrix is 2n + 1 bands (``_generator``, the only code
that writes the stencil).  Transitions that would leave the box are dropped
while the diagonal keeps the full outflow rate, so the matrix is the honest
restriction of the generator with out-of-box jumps killed; the killed mass is
surfaced as ``boundary_leak`` rather than silently folded back in.  Rows at
interior states (no site at its cap) agree with the untruncated operator
exactly.
``ou_pseudo_inverse`` inverts it on centred vectors through the
conservative generator, a Kronecker sum of per-site birth-death chains: every
site but the widest is diagonalised in its pi-symmetrised eigenbasis, which
leaves one sparse M-matrix block per mode of those sites, and all blocks are
factored at once.

State enumeration order is lexicographic in the counts and fixed, so values
and reports are byte-reproducible run to run.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BoundaryLeakError,
    BudgetExceededError,
    ConfigError,
    ShapeError,
    SolverError,
    TruncationError,
)
from .functionals import Functional, _check_binding, _sweep, _sweep_step, _weighted_sum
from .ground import GroundSpace, _is_int, _is_real
from .lattice import _box_rows, _box_strides, sweep_parts
from .operators import Mean

__all__ = [
    "TruncationPlan",
    "StateTable",
    "plan_truncation",
    "exact_expectation",
    "GeneratorMatrix",
    "build_generator_matrix",
    "ou_pseudo_inverse",
    "ExactBackend",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 4_000_000
_MAX_CAP = 100_000
# exp(x) is subnormal or zero below this, so a pmf recursion started there
# has lost its relative precision
_LOG_TINY = math.log(sys.float_info.min)
# Stirling series coefficients of Loader's stirlerr, for k > 15
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _bd0(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x without cancellation near x = mu (Loader 2000)."""
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        ej = 2.0 * x * v
        j = 1
        while True:
            ej *= v * v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mu) + mu - x


def _log_pmf(k: int, lam: float) -> float:
    """log P(Poisson(lam) = k), for k > 15 in Loader's saddle-point form,
    accurate to a few ulps where -lam + k log(lam) - lgamma(k + 1) loses
    digits to cancellation."""
    if k <= 15:
        return -lam + k * math.log(lam) - math.lgamma(k + 1)
    s0, s1, s2, s3, s4 = _STIRLING
    k2 = 1.0 / (k * k)
    stirlerr = (s0 - (s1 - (s2 - (s3 - s4 * k2) * k2) * k2) * k2) / k
    return -stirlerr - _bd0(k, lam) - 0.5 * math.log(2 * math.pi * k)


def _poisson_pmf_vector(lam: float, cap: int) -> np.ndarray:
    """pmf(0..cap) of Poisson(lam), by the stable multiplicative recursion.

    The recursion starts at exp(-lam).  Where that start underflows (lam
    above about 708) it starts instead at the mode, or at the cap below it,
    from a log-space value, and runs outward both ways.
    """
    out = np.empty(cap + 1, dtype=np.float64)
    if -lam >= _LOG_TINY:
        out[0] = math.exp(-lam)
        for k in range(1, cap + 1):
            out[k] = out[k - 1] * lam / k
        return out
    start = min(cap, int(lam))
    out[start] = math.exp(_log_pmf(start, lam))
    for k in range(start + 1, cap + 1):
        out[k] = out[k - 1] * lam / k
    for k in range(start, 0, -1):
        out[k - 1] = out[k] * k / lam
    return out


def _smallest_cap(lam: float, share: float) -> tuple[int, float]:
    """The smallest cap >= 1 whose Poisson tail is at most ``share``, with
    that tail.

    One pmf vector runs to lam + 60 sqrt(lam) + 120, past which every term
    underflows, and the cap walks down from there while the tail, summed
    from the far end, still fits.  A weight whose mass lies wholly past
    ``_MAX_CAP`` makes no vector: every tail up to there is 1, so a share
    >= 1 takes cap 1 with tail 1.0 and a smaller one is refused.
    """
    root = math.sqrt(lam)
    if lam - 40.0 * root <= _MAX_CAP:
        pmf = _poisson_pmf_vector(lam, int(lam + 60.0 * root + 120.0))
        cap, tail = len(pmf) - 1, 0.0  # tail = P(cap < X <= end)
        while cap > 1:
            wider = min(tail + pmf[cap], 1.0)  # rounding can carry a sum past 1
            if wider > share:
                break
            cap, tail = cap - 1, wider
        if cap <= _MAX_CAP:
            return cap, float(tail)
    elif share >= 1.0:
        return 1, 1.0
    raise ConfigError(
        f"no cap below {_MAX_CAP} reaches tail share {share:g} for weight {lam}"
    )


@dataclass(frozen=True)
class TruncationPlan:
    """Per-site caps plus a rigorous bound on the omitted probability mass."""

    caps: tuple[int, ...]
    site_tails: tuple[float, ...]
    tail_bound: float

    @property
    def state_count(self) -> int:
        count = 1
        for k in self.caps:
            count *= k + 1
        return count


def plan_truncation(
    space: GroundSpace, tol: float, budget: int = DEFAULT_BUDGET
) -> TruncationPlan:
    """Find minimal caps with total tail mass at most ``tol``.

    Each site gets an equal share tol/n of the tolerance and the smallest cap
    (at least 1) whose exact Poisson tail fits the share; the union bound over
    sites then certifies ``tail_bound <= tol``.  A ``tol`` that is not a
    finite number > 0, a ``budget`` that is not an integer >= 1, or a site
    that needs a cap above ``_MAX_CAP`` is a ``ConfigError``.  Fails with the
    required state count when the box would exceed ``budget`` states.
    """
    if not (_is_real(tol) and tol > 0.0):
        raise ConfigError(f"tolerance must be a finite number > 0, got {tol!r}")
    if not (_is_int(budget) and budget >= 1):
        raise ConfigError(f"budget must be an integer >= 1, got {budget!r}")
    share = tol / space.n
    caps = []
    tails = []
    for lam in space.weights:
        cap, tail = _smallest_cap(lam, share)
        caps.append(cap)
        tails.append(tail)
    plan = TruncationPlan(tuple(caps), tuple(tails), float(sum(tails)))
    if plan.state_count > budget:
        raise BudgetExceededError(plan.state_count, budget)
    return plan


class StateTable:
    """All configurations under the caps with their product-Poisson weights.

    ``states`` has shape (S, n), C-ordered, in fixed lexicographic order,
    ``probs`` the matching probabilities; their sum is at least
    1 - tail_bound, and ``build`` checks that up to rounding.  ``states`` is made from the caps
    on first use: the exact sweeps make each slice's counts themselves
    (``lattice.sweep_parts``), so they never hold the (S, n) array.
    """

    def __init__(self, space: GroundSpace, plan: TruncationPlan, probs: np.ndarray):
        self.space = space
        self.plan = plan
        self.probs = probs

    @cached_property
    def states(self) -> np.ndarray:
        hi = tuple(cap + 1 for cap in self.plan.caps)
        states = _box_rows((0,) * self.space.n, hi, site_major=False)
        states.setflags(write=False)
        return states

    @classmethod
    def build(cls, space: GroundSpace, plan: TruncationPlan) -> "StateTable":
        probs = np.ones(1, dtype=np.float64)
        for lam, cap in zip(space.weights, plan.caps):
            probs = np.multiply.outer(probs, _poisson_pmf_vector(lam, cap))
        probs = probs.reshape(-1)
        probs.setflags(write=False)
        table = cls(space, plan, probs)
        total = table.total_prob
        eps = table.mass_rounding
        if not 1.0 - plan.tail_bound - eps <= total <= 1.0 + eps:
            raise TruncationError(
                f"box mass {total!r} is outside [1 - tail_bound, 1] ="
                f" [{1.0 - plan.tail_bound!r}, 1] by more than rounding ({eps:.1e})"
            )
        return table

    @classmethod
    def from_tolerance(
        cls, space: GroundSpace, tol: float, budget: int = DEFAULT_BUDGET
    ) -> "StateTable":
        return cls.build(space, plan_truncation(space, tol, budget))

    @property
    def state_count(self) -> int:
        return self.plan.state_count

    @property
    def total_prob(self) -> float:
        return float(self.probs.sum())

    @property
    def mass_rounding(self) -> float:
        """Rounding allowance on ``total_prob``.

        Each pmf entry and tail comes out of O(cap + lam) roundings, the box
        product and the pairwise sum add O(n + log S); 64 ulps per unit of
        that count is the allowance.
        """
        return 64 * sys.float_info.epsilon * (
            sum(self.plan.caps)
            + self.space.total_mass
            + self.space.n
            + math.log2(self.probs.size)
        )


def _sweep_table(kernel, table: StateTable, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """``kernel(counts) -> tuple of per-state values`` over the table, in
    table order (``_sweep`` over ``lattice.sweep_parts``): box slices of
    whole levels of one site where their halos evaluate no more rows than
    row stencils would, row stencils otherwise.  On a box slice every
    functional is evaluated once, on the slice grown by one level per site
    when it is shifted, and D+ / D- are stride offsets into those values,
    bit for bit the plain evaluation's.  Memory is the (S,) value
    arrays plus a fixed 8 MiB of slice temporaries.  A non-finite value is
    named by its output's ``names`` entry and the first such state in table
    order.
    """
    caps = table.plan.caps
    shape = [cap + 1 for cap in caps]
    parts = sweep_parts(caps, _sweep_step(len(caps)))
    return _sweep(
        kernel, table.state_count, parts, names,
        lambda finite: np.unravel_index(int(np.argmin(finite)), shape),
    )


def _table_mean(values: np.ndarray, table: StateTable, bound: float | None = None) -> Mean:
    """sum_s probs(s) values(s), with error bound tail_bound times the
    certified sup-norm ``bound`` when there is one and tail_bound times the
    enumerated sup otherwise (heuristic for unbounded integrands, reported
    as such); a ``ShapeError`` unless there is one value per state."""
    value = float(_weighted_sum(table.probs, values))
    sup = bound if bound is not None else float(np.abs(values).max())
    return Mean(value, table.state_count, error_bound=table.plan.tail_bound * sup)


def exact_expectation(F: Functional, table: StateTable, values: np.ndarray | None = None) -> Mean:
    """E[F] = sum_s probs(s) F(s) from F's per-state ``values`` of a sweep
    already made, or swept here once per box slice (``_sweep_table``); the
    error bound uses F's certified bound when it carries one.  An F bound
    to another ground space than the table's raises ``ShapeError``."""
    _check_binding(table, F)
    if values is None:
        (values,) = _sweep_table(lambda counts: (F.batch(counts),), table, (F.name,))
    return _table_mean(values, table, F.bound)


# ---------------------------------------------------------------------------
# generator matrix and pseudo-inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Sparse OU generator on the truncated box, in table order.

    ``killed`` is each state's dropped out-of-box birth rate (the summed
    weights of its capped sites); ``boundary_leak`` is its probability-
    weighted sum; ``interior``, read-only, is ``killed == 0``: every weight
    is > 0, so it marks the states with no site at its cap, whose rows equal
    the exact untruncated operator.
    """

    matrix: sp.csr_matrix
    boundary_leak: float
    interior: np.ndarray
    killed: np.ndarray


def _generator(weights, caps) -> tuple[sp.csr_matrix, np.ndarray]:
    """L f(s) = sum_z lam_z (f(s+dz) - f(s)) - sum_z k_z (f(s) - f(s-dz)) on
    the box prod_z {0..caps[z]} in table order, and each state's killed birth
    rate.  The jump s -> s +- dz is the neighbour a stride ``strides[z]``
    away, so the matrix is 2n + 1 bands: lam_z below the cap at +strides[z],
    the level k_z at -strides[z] (zero at level 0, dropped with the capped
    births), and the diagonal, which keeps the full outflow, killed births
    at the cap included.
    """
    shape = tuple(cap + 1 for cap in caps)
    size = math.prod(shape)
    diag = np.zeros(size)
    killed = np.zeros(size)
    bands, offsets = [diag], [0]
    for lam, cap, stride in zip(weights, caps, _box_strides(shape).tolist()):
        # the box as (outer, levels of z, inner), with z's level on axis 1
        grid = (size // ((cap + 1) * stride), cap + 1, stride)
        level = np.arange(cap + 1, dtype=np.float64)[:, None]
        up = np.broadcast_to(np.where(level < cap, lam, 0.0), grid).reshape(-1)
        down = np.broadcast_to(level, grid).reshape(-1)
        bands += [up[: size - stride], down[stride:]]
        offsets += [stride, -stride]
        view = diag.reshape(grid)
        view -= lam  # full outflow, including the killed part at the cap
        view -= level
        killed.reshape(grid)[:, cap] += lam
    return sp.diags(bands, offsets, shape=(size, size), format="csr"), killed


def build_generator_matrix(table: StateTable) -> GeneratorMatrix:
    """The OU generator of ``table``'s box (``_generator``), built from the
    weights and caps alone.

    Up-transitions at capped sites are dropped while the diagonal keeps the
    full outflow, so leaked mass is visible (rows at capped states sum to
    minus their killed rate) instead of being reflected back.
    """
    matrix, killed = _generator(table.space.weights, table.plan.caps)
    interior = killed == 0.0
    interior.setflags(write=False)
    return GeneratorMatrix(matrix, float(table.probs @ killed), interior, killed)


# minimum degree on the pattern of A + A^T with diagonal pivots, for the
# M-matrix of the generator solve (see ``ou_pseudo_inverse``); panels and
# supernodes of one column keep SuperLU's dense work arrays small
_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "panel_size": 1,
    "relax": 1,
    "options": {"SymmetricMode": True},
}


def _site_eigen(lam: float, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending: the others <= -1, then 0) and right / left
    eigenvectors of one site's chain A = right diag(w) left, left right = I.
    A is reversible for the truncated Poisson law pi, so D^(1/2) A D^(-1/2)
    = Q diag(w) Q^T, D = diag(pi), is symmetric tridiagonal; right =
    D^(-1/2) Q and left = Q^T D^(1/2), with sqrt(pi) from log pmfs shifted
    by their largest so that no level underflows.
    """
    k = np.arange(cap + 1, dtype=np.float64)
    w, Q = sla.eigh_tridiagonal(-(k + np.where(k < cap, lam, 0.0)), np.sqrt(lam * k[1:]))
    log_pi = np.array([_log_pmf(j, lam) for j in range(cap + 1)])
    root = np.exp(0.5 * (log_pi - log_pi.max()))
    return w, Q / root[:, None], Q.T * root


def _mode_products(grid: np.ndarray, matrices) -> np.ndarray:
    """``grid`` with the i-th matrix applied along axis i."""
    for axis, matrix in enumerate(matrices):
        grid = np.moveaxis(np.tensordot(matrix, grid, axes=(1, axis)), 0, axis)
    return grid


def _solve_conservative(
    table: StateTable, gen: GeneratorMatrix, rhs: np.ndarray, diagonal
) -> np.ndarray:
    """A solution y of A y = rhs, A the conservative generator (``gen.matrix``
    plus the killed rates), for rhs of zero probs-mean: the sites in
    ``diagonal`` in their eigenbasis, one factor for the other sites over all
    modes (the zero mode grounded), and one refinement step with it.
    """
    caps, weights = table.plan.caps, table.space.weights
    box = tuple(cap + 1 for cap in caps)
    kept = [z for z in range(len(caps)) if z not in diagonal]
    order = list(diagonal) + kept
    eigen = [_site_eigen(weights[z], caps[z]) for z in diagonal]
    modes = reduce(np.add.outer, [w for w, _, _ in eigen], np.zeros(())).reshape(-1)
    # the kept sites' conservative generator; the last varies fastest, as in the table
    block, killed = _generator([weights[z] for z in kept], [caps[z] for z in kept])
    block = block + sp.diags(killed)
    # the zero mode is the last (eigenvalues ascend); the kept sites'
    # marginal factors out of the box probs
    probs = table.probs.reshape(box).transpose(order)
    ground = int(np.argmax(probs.reshape(modes.size, -1).sum(axis=0)))
    keep = np.ones(modes.size * block.shape[0], dtype=bool)
    keep[(modes.size - 1) * block.shape[0] + ground] = False
    system = sp.kronsum(block, sp.diags(modes), format="csr")
    lu = spla.splu(system[keep][:, keep].tocsc(), **_LU_OPTIONS)

    def solve(b: np.ndarray) -> np.ndarray:
        grid = _mode_products(b.reshape(box).transpose(order), [left for _, _, left in eigen])
        x = np.zeros(b.size)
        x[keep] = lu.solve(grid.reshape(-1)[keep])
        grid = _mode_products(x.reshape(probs.shape), [right for _, right, _ in eigen])
        return grid.transpose(np.argsort(order)).reshape(-1)

    y = solve(rhs)
    return y + solve(rhs - (gen.matrix @ y + gen.killed * y))


def ou_pseudo_inverse(
    F: Functional,
    table: StateTable,
    tol: float = 1e-9,
    max_leak: float = 1e-6,
    generator: GeneratorMatrix | None = None,
) -> np.ndarray:
    """Solve L g = F - E_box[F] on the truncated box with sum_s probs(s) g(s) = 0.

    E_box[F] is the box-normalised mean sum_s probs(s) F(s) / sum_s probs(s),
    so a constant F maps to the zero vector exactly.  It differs from the
    enumerated E[F] by |E[F]| (1 - P) / P with P the box mass, at most
    ``tail_bound * max_box |F|`` since P >= 1 - tail_bound; a larger shift
    means the table's mass is wrong and raises ``TruncationError``.

    The solve runs on the censored (conservative) generator: adding the
    killed rates back to the diagonal makes its kernel exactly the constants,
    and its interior rows still agree with the untruncated generator.  It is
    a Kronecker sum of reversible per-site chains.  Every site but the
    widest (most levels, ties: lowest index) is diagonalised in its
    pi-symmetrised eigenbasis (Lynch, Rice & Thomas 1964), leaving one block
    A_c + Lambda_m I per mode m of those sites: A_c the widest site's chain,
    Lambda_m the summed eigenvalues, 0 for the zero mode (grounded at the
    most probable level) and <= -1 otherwise.  Minus each block, and every
    symmetric permutation of it, is a nonsingular M-matrix, so SuperLU
    factors them all at once without pivoting (minimum degree on A + A^T,
    perm_r == perm_c), and one refinement step reuses the factor.  The
    widest site stays sparse since the back transform D^(-1/2) Q fails from
    weight about 250, where sqrt(pi) spans over 53 decades.  A solve that
    misses the contract is redone once as one grounded block of the box.

    Refuses a ``tol`` that is not a finite number > 0 or a ``max_leak`` that
    is not a finite number >= 0 (``ConfigError``), an F bound to another
    ground space and a ``generator`` whose matrix is not (S, S) for
    ``table`` (``ShapeError``), refuses to solve
    when the boundary leak exceeds ``max_leak``, and reports the achieved
    residual if the interior contract ``|L g - (F - E_box F)| <= tol`` is
    missed.
    """
    _check_binding(table, F)
    if not (_is_real(tol) and tol > 0.0):
        raise ConfigError(f"solve tol must be a finite number > 0, got {tol!r}")
    if not (_is_real(max_leak) and max_leak >= 0.0):
        raise ConfigError(f"max_leak must be a finite number >= 0, got {max_leak!r}")
    gen = generator if generator is not None else build_generator_matrix(table)
    if gen.matrix.shape != (table.state_count,) * 2:
        raise ShapeError(
            f"generator matrix is {gen.matrix.shape[0]} x {gen.matrix.shape[1]},"
            f" the table has {table.state_count} states"
        )
    if gen.boundary_leak > max_leak:
        raise BoundaryLeakError(
            f"boundary leak {gen.boundary_leak:.3e} exceeds {max_leak:.3e};"
            f" tighten the truncation before inverting the generator"
        )
    (f,) = _sweep_table(lambda counts: (F.batch(counts),), table, (F.name,))
    mean = exact_expectation(F, table, f).value
    box_mean = mean / table.total_prob
    # |E F| <= P sup|f| and P >= 1 - tail_bound - mass_rounding (checked at
    # build), so the shift |E F| (1 - P) / P is at most sup|f| times their
    # sum; the second mass_rounding covers the rounding of the shift itself
    shift = abs(box_mean - mean)
    sup = float(np.abs(f).max())
    allowed = sup * (table.plan.tail_bound + 2 * table.mass_rounding)
    if not shift <= allowed:
        raise TruncationError(
            f"box-normalised mean of {F.name} moved {shift:.3e} from E[F],"
            f" more than tail_bound * max|F| allows ({allowed:.3e})"
        )
    centered = f - box_mean
    caps = table.plan.caps
    widest = max(range(len(caps)), key=lambda z: caps[z])  # ties: the lowest index
    others = [z for z in range(len(caps)) if z != widest]
    for diagonal in [others, []] if others else [[]]:
        y = _solve_conservative(table, gen, centered, diagonal)
        g = y - float(table.probs @ y) / table.total_prob
        worst = float(np.abs((gen.matrix @ g - centered)[gen.interior]).max())
        if np.isfinite(worst) and worst <= tol:
            return g
    raise SolverError(
        f"generator solve missed the interior residual contract:"
        f" {worst:.3e} > {tol:.3e}"
    )


# ---------------------------------------------------------------------------
# backend facade used by the identity suite
# ---------------------------------------------------------------------------

class ExactBackend:
    """Expectation engine backed by full enumeration of a truncated table.
    A check sweeps it once and reduces each output (``mean``, ``expectation``)."""

    def __init__(
        self,
        space: GroundSpace,
        tol: float = 1e-12,
        budget: int = DEFAULT_BUDGET,
    ):
        self.space = space
        self.plan = plan_truncation(space, tol, budget)
        self.table = StateTable.build(space, self.plan)

    @property
    def tail_bound(self) -> float:
        return self.plan.tail_bound

    @property
    def state_count(self) -> int:
        return self.table.state_count

    def sweep(self, kernel, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        return _sweep_table(kernel, self.table, names)

    def mean(self, values: np.ndarray) -> Mean:
        return _table_mean(values, self.table)

    def expectation(self, F: Functional, values: np.ndarray | None = None) -> Mean:
        return exact_expectation(F, self.table, values)

    def paired(self, kernel) -> tuple[float, float, Mean]:
        """The LHS and RHS means of a paired kernel
        ``counts -> (lhs_values, rhs_values)`` swept over the table, and the
        defect: the ``Mean`` of the per-state differences."""
        lhs, rhs = self.sweep(kernel, ("paired lhs", "paired rhs"))
        probs = self.table.probs
        lhs_mean, rhs_mean = float(_weighted_sum(probs, lhs)), float(_weighted_sum(probs, rhs))
        return lhs_mean, rhs_mean, self.mean(lhs - rhs)
