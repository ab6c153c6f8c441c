"""Exact expectation oracle on a truncated product-Poisson state space.

Under the product-Poisson law each site's multiplicity is an independent
Poisson(lambda_i) variable, so capping site i at K_i and enumerating the box
prod_i {0..K_i} makes every expectation a finite weighted sum.  Caps are
chosen by exact Poisson tail partial sums per site, and a union bound over
sites yields a rigorous ``tail_bound`` on the probability mass the box
misses.  Every exact value is reported together with an expectation error
bound derived from that mass: rigorous when the integrand carries a certified
sup-norm bound, heuristic (sup over enumerated states) otherwise.

The Ornstein-Uhlenbeck generator is assembled as a sparse matrix in the state
indicator basis.  Transitions that would leave the box are dropped while the
diagonal keeps the full outflow rate, so the matrix is the honest restriction
of the generator with out-of-box jumps killed; the killed mass is surfaced as
``boundary_leak`` rather than silently folded back in.  Rows at interior
states (no site at its cap) agree with the untruncated operator exactly.
``ou_pseudo_inverse`` inverts it on centred vectors through the
conservative generator, a Kronecker sum of per-site birth-death chains: the
widest site's chain is put in real Schur form, and block back-substitution
over that site's levels factors one sparse M-matrix over the other sites per
level.

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
    NonFiniteValueError,
    SolverError,
    TruncationError,
)
from .functionals import Functional, _sweep_box
from .ground import GroundSpace
from .lattice import _box_rows, _box_strides
from .operators import PairedValue
from .registry import _is_real

__all__ = [
    "TruncationPlan",
    "StateTable",
    "plan_truncation",
    "ExactExpectation",
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


def _poisson_tail(lam: float, cap: int) -> float:
    """P(Poisson(lam) > cap) by forward summation of the tail terms.

    Summing the tail directly (rather than 1 - cdf) keeps tiny tails accurate
    in absolute terms; terms decay superexponentially past the mode.  Where
    the first term underflows, the pmf vector is summed instead, up to where
    its terms underflow too; for weights whose exp(-lam) underflows it starts
    at the mode, so the result never falls below the true tail by more than
    rounding.
    """
    log_term = -lam + (cap + 1) * math.log(lam) - math.lgamma(cap + 2)
    if log_term < _LOG_TINY:
        # reached only with cap far below the mode (tail about 1) or far
        # above it (tail below the double range); past lam + 40 sqrt(lam) the
        # terms are below exp(-500) for every weight whose exp(-lam) underflows
        last = max(cap + 1, int(lam + 40.0 * math.sqrt(lam) + 40.0))
        return float(_poisson_pmf_vector(lam, last)[cap + 1 :].sum())
    term = math.exp(log_term)
    total = 0.0
    k = cap + 1
    while term > 0.0:
        total += term
        k += 1
        term *= lam / k
        if k > cap + 1 + 10 * (cap + lam + 10):
            break
    return total


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
    sites then certifies ``tail_bound <= tol``.  Fails with the required state
    count when the box would exceed ``budget`` states.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    share = tol / space.n
    caps = []
    tails = []
    for lam in space.weights:
        cap = 1
        tail = _poisson_tail(lam, cap)
        while tail > share:
            cap += 1
            tail = _poisson_tail(lam, cap)
            if cap > _MAX_CAP:
                raise ValueError(
                    f"no cap below {_MAX_CAP} reaches tail share {share:g}"
                    f" for weight {lam}"
                )
        caps.append(cap)
        tails.append(tail)
    plan = TruncationPlan(tuple(caps), tuple(tails), float(sum(tails)))
    if plan.state_count > budget:
        raise BudgetExceededError(plan.state_count, budget)
    return plan


class StateTable:
    """All configurations under the caps with their product-Poisson weights.

    ``states`` has shape (S, n) in fixed lexicographic order, ``probs`` the
    matching probabilities; their sum is at least 1 - tail_bound, and
    ``build`` checks that up to rounding.  ``build`` leaves ``states`` to be
    filled on first use: the exact sweeps make each slice's counts
    themselves (``_sweep_box``), so they never hold the (S, n) array.
    """

    def __init__(
        self,
        space: GroundSpace,
        plan: TruncationPlan,
        states: np.ndarray | None,
        probs: np.ndarray,
    ):
        self.space = space
        self.plan = plan
        self.probs = probs
        if states is not None:
            self.states = states

    @cached_property
    def states(self) -> np.ndarray:
        states = _box_rows((0,) * self.space.n, tuple(cap + 1 for cap in self.plan.caps))
        states.setflags(write=False)
        return states

    @classmethod
    def build(cls, space: GroundSpace, plan: TruncationPlan) -> "StateTable":
        probs = np.ones(1, dtype=np.float64)
        for lam, cap in zip(space.weights, plan.caps):
            probs = np.multiply.outer(probs, _poisson_pmf_vector(lam, cap))
        probs = probs.reshape(-1)
        probs.setflags(write=False)
        table = cls(space, plan, None, probs)
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

    @cached_property
    def interior(self) -> np.ndarray:
        """Mask of states with every site strictly below its cap."""
        below = [np.arange(cap + 1) < cap for cap in self.plan.caps]
        mask = reduce(np.logical_and.outer, below).reshape(-1)
        mask.setflags(write=False)
        return mask

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


@dataclass(frozen=True)
class ExactExpectation:
    """An exactly enumerated expectation with its truncation error bound."""

    value: float
    error_bound: float


def _check_finite(values: np.ndarray, table: StateTable, what: str) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.unravel_index(int(np.argmin(finite)), [cap + 1 for cap in table.plan.caps])
        raise NonFiniteValueError(
            f"{what} produced a non-finite value at configuration"
            f" counts={[int(k) for k in bad]}"
        )


def exact_expectation(F: Functional, table: StateTable) -> ExactExpectation:
    """E[F] = sum_s probs(s) F(s) over the truncated table.

    F is evaluated on runs of table rows (``_sweep_box``): box slices of
    whole levels of one site, F once per slice, or plain counts where those
    evaluate less.  Memory is one (S,) value array plus a fixed 8 MiB of
    slice temporaries; the sum and the sup run once over the full array.
    The error bound is tail_bound times the certified sup-norm bound when F carries one, and
    tail_bound times the enumerated sup otherwise (heuristic for unbounded F,
    reported as such).
    """
    (values,) = _sweep_box(lambda counts: (F.batch(counts),), table.plan.caps)
    _check_finite(values, table, F.name)
    value = float(table.probs @ values)
    sup = F.bound if F.bound is not None else float(np.abs(values).max())
    return ExactExpectation(value, table.plan.tail_bound * sup)


# ---------------------------------------------------------------------------
# generator matrix and pseudo-inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Sparse OU generator on the truncated box, in the state indicator basis.

    ``boundary_leak`` is the probability-weighted rate of the dropped
    out-of-box transitions, sum over states of probs(s) times the total birth
    rate at capped sites; ``interior`` marks the rows equal to the exact
    untruncated operator.
    """

    matrix: sp.csr_matrix
    boundary_leak: float
    interior: np.ndarray


def build_generator_matrix(table: StateTable) -> GeneratorMatrix:
    """Assemble L f(s) = sum_z lambda_z (f(s+dz) - f(s)) - sum_z k_z (f(s) - f(s-dz)).

    Up-transitions at capped sites are dropped while the diagonal keeps the
    full outflow, so leaked mass is visible (rows at capped states sum to
    minus their killed rate) instead of being reflected back.
    """
    space = table.space
    caps = np.asarray(table.plan.caps, dtype=np.int64)
    counts = table.states
    S, n = counts.shape
    idx = np.arange(S, dtype=np.int64)
    strides = _box_strides(caps + 1)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    diag = np.zeros(S, dtype=np.float64)
    for z in range(n):
        lam = space.weights[z]
        up_ok = counts[:, z] < caps[z]
        rows.append(idx[up_ok])
        cols.append(idx[up_ok] + strides[z])
        data.append(np.full(int(up_ok.sum()), lam))
        diag -= lam  # full outflow, including the killed part at capped states

        down_ok = counts[:, z] > 0
        rows.append(idx[down_ok])
        cols.append(idx[down_ok] - strides[z])
        data.append(counts[down_ok, z].astype(np.float64))
        diag -= counts[:, z]

    rows.append(idx)
    cols.append(idx)
    data.append(diag)
    matrix = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(S, S),
    )
    at_cap = counts == caps
    leak = float(table.probs @ (at_cap @ space.weights_array))
    return GeneratorMatrix(matrix, leak, table.interior)


# sites with more levels are not diagonalised: a dense Schur form and its
# application cost m^3 and m S flops
_MAX_SCHUR_LEVELS = 256
# minimum degree on the pattern of A + A^T with diagonal pivots, for the
# M-matrix blocks of the generator solve (see ``ou_pseudo_inverse``)
_LU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


def _site_chain(lam: float, cap: int) -> sp.csr_matrix:
    """Conservative generator of one site on {0..cap}: birth rate lam below
    the cap, death rate k at level k, reflected at the cap."""
    k = np.arange(cap + 1, dtype=np.float64)
    outflow = k + np.where(k < cap, lam, 0.0)
    return sp.diags([k[1:], -outflow, np.full(cap, lam)], [-1, 0, 1], format="csr")


def _site_schur(lam: float, cap: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Real Schur form A = U R U^T of one site's chain, zero eigenvalue first.

    The chain is reversible, so its spectrum is real: 0, then values at or
    below -1 (gap 1.000 measured for weights 0.05-120).  From weight about
    150 on, rounding of the strongly non-normal chain splits eigenvalues into
    complex pairs and leaves 2x2 blocks in R; the site is then not
    diagonalised (None).
    """
    R, U, sorted_count = sla.schur(
        _site_chain(lam, cap).toarray(), output="real", sort=lambda re, im: re > -0.5
    )
    if np.tril(R, -1).any():
        return None
    if sorted_count != 1:
        raise SolverError(
            f"chain of a site at weight {lam} with cap {cap} has {sorted_count}"
            f" eigenvalues above -0.5, not the zero eigenvalue alone"
        )
    return U, R


def _solve_conservative(table: StateTable, rhs: np.ndarray) -> np.ndarray:
    """A solution y of A y = rhs, A the conservative generator of the box,
    for a right-hand side with sum_s probs(s) rhs(s) = 0 up to rounding.

    A = A_c (x) I + I (x) A_rest, with c the widest site (ties: lowest index)
    with at most ``_MAX_SCHUR_LEVELS`` levels whose Schur form is triangular.
    With A_c = U R U^T and the site's levels as rows, A y = rhs reads
    R Y + Y A_rest^T = U^T rhs, solved block row by block row from the last.
    Without such a site the whole box is the grounded block.
    """
    caps = table.plan.caps
    weights = table.space.weights
    site, U, R = None, np.ones((1, 1)), np.zeros((1, 1))
    for z in sorted(range(len(caps)), key=lambda z: -caps[z]):
        schur = _site_schur(weights[z], caps[z]) if caps[z] < _MAX_SCHUR_LEVELS else None
        if schur is not None:
            site, (U, R) = z, schur
            break
    others = [z for z in range(len(caps)) if z != site]
    rest = sp.csr_matrix((1, 1))
    for z in others:  # the last site varies fastest, as in the table
        rest = sp.kronsum(_site_chain(weights[z], caps[z]), rest, format="csr")

    shape = tuple(cap + 1 for cap in caps)
    m = U.shape[0]

    def site_first(v: np.ndarray) -> np.ndarray:
        grid = v.reshape(shape)
        return (grid if site is None else np.moveaxis(grid, site, 0)).reshape(m, -1)

    B = U.T @ site_first(rhs)
    # the rest's mode: the site's marginal factors out of the box probs
    keep = np.ones(B.shape[1], dtype=bool)
    keep[int(np.argmax(site_first(table.probs).sum(axis=0)))] = False
    eye = sp.identity(B.shape[1], format="csr")
    Y = np.zeros_like(B)
    for j in range(m - 1, -1, -1):
        b = B[j] - R[j, j + 1 :] @ Y[j + 1 :]
        if j:
            Y[j] = spla.splu((rest + R[j, j] * eye).tocsc(), **_LU_OPTIONS).solve(b)
        elif keep.any():
            grounded = rest[keep][:, keep].tocsc()
            Y[0, keep] = spla.splu(grounded, **_LU_OPTIONS).solve(b[keep])
    X = U @ Y
    if site is not None:
        X = np.moveaxis(X.reshape((m,) + tuple(shape[z] for z in others)), 0, site)
    return X.reshape(-1)


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
    and its interior rows still agree with the untruncated generator.  That
    generator is a Kronecker sum A = A_c (x) I + I (x) A_rest of per-site
    birth-death chains.  The widest site c (ties: lowest index) is
    diagonalised by a real Schur form A_c = U R U^T, zero eigenvalue first,
    and the rest is solved block by block, one level of c at a time from the
    last: (A_rest + R[j, j] I) y_j = (U^T b)_j - sum_{k > j} R[j, k] y_k.
    Each R[j, j] with j >= 1 is at most -0.5 by the sort (-1 measured), so
    minus the block is a strictly diagonally dominant M-matrix; the j = 0
    block is the singular generator of the other sites, grounded at their
    most probable state (the chain returns to it at an O(1) rate, so the
    grounded block is well conditioned) and an irreducibly diagonally
    dominant M-matrix too.  Every symmetric permutation of an M-matrix is
    one, so elimination in any symmetric order needs no pivoting: SuperLU
    factors each block with a minimum-degree order on the pattern of
    A + A^T and diagonal pivots (``perm_r == perm_c``).  The centred
    right-hand side makes the dropped grounding equation hold
    automatically; g = U Y is re-centred afterwards.  A site whose chain
    rounds into complex eigenvalue pairs (weights above about 150) or that
    has more than ``_MAX_SCHUR_LEVELS`` levels is not diagonalised; with no
    other site left, the whole box is the grounded block.

    On 4 sites at weight 0.3, the boxes of 4,096, 6,561 and 10,000 states
    take 8, 9 and 10 factors holding 0.19 M, 0.34 M and 0.67 M L+U nonzeros
    and solve in 0.03, 0.03 and 0.06 s; one factor of the whole grounded box
    holds 1.37 M, 3.16 M and 6.11 M and takes 0.14, 0.52 and 1.25 s.

    Refuses a ``tol`` that is not a finite number > 0 or a ``max_leak`` that
    is not a finite number >= 0 (``ConfigError``), refuses to solve when the
    boundary leak exceeds ``max_leak``, and reports the achieved residual if
    the interior contract ``|L g - (F - E_box F)| <= tol`` is missed.
    """
    if not (_is_real(tol) and tol > 0.0):
        raise ConfigError(f"solve tol must be a finite number > 0, got {tol!r}")
    if not (_is_real(max_leak) and max_leak >= 0.0):
        raise ConfigError(f"max_leak must be a finite number >= 0, got {max_leak!r}")
    gen = generator if generator is not None else build_generator_matrix(table)
    if gen.boundary_leak > max_leak:
        raise BoundaryLeakError(
            f"boundary leak {gen.boundary_leak:.3e} exceeds {max_leak:.3e};"
            f" tighten the truncation before inverting the generator"
        )
    mean = exact_expectation(F, table).value
    f = F.batch(table.states)
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
    y = _solve_conservative(table, centered)
    g = y - float(table.probs @ y) / table.total_prob
    residual = gen.matrix @ g - centered
    worst = float(np.abs(residual[gen.interior]).max())
    if not np.isfinite(worst) or worst > tol:
        raise SolverError(
            f"generator solve missed the interior residual contract:"
            f" {worst:.3e} > {tol:.3e}"
        )
    return g


# ---------------------------------------------------------------------------
# backend facade used by the identity suite
# ---------------------------------------------------------------------------

class ExactBackend:
    """Expectation engine backed by full enumeration of a truncated table."""

    label = "exact"

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

    def expectation(self, F: Functional) -> ExactExpectation:
        return exact_expectation(F, self.table)

    def paired(self, kernel) -> PairedValue:
        """Sweep a paired LHS/RHS kernel over the table.

        ``kernel(counts) -> (lhs_values, rhs_values)`` is called on
        consecutive runs of the states (``_sweep_box``): box slices of whole
        levels of one site where their halos evaluate no more rows than
        plain counts would, plain counts otherwise.  On a box slice every
        functional and field is evaluated once, on the slice grown by one
        level per site when it is shifted, and D+ / D- are stride offsets
        into those values, bit for bit the plain evaluation's.  Memory is the (S,) value arrays plus a fixed 8 MiB of
        slice temporaries.  The expectations, the defect from the per-state
        differences, the truncation term and the non-finite check all run
        once over the full arrays, in table order.
        """
        lhs, rhs = _sweep_box(kernel, self.plan.caps)
        _check_finite(lhs, self.table, "paired lhs")
        _check_finite(rhs, self.table, "paired rhs")
        diff = lhs - rhs
        sup = float(np.abs(diff).max()) if diff.size else 0.0
        return PairedValue(
            lhs=self.table.probs @ lhs,
            rhs=self.table.probs @ rhs,
            defect=self.table.probs @ diff,
            n=self.table.state_count,
            error_bound=self.plan.tail_bound * sup,
        )
