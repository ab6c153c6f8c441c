"""Add/drop operator calculus on finite Poisson spaces.

A point configuration over a finite weighted site set, held as a counts
array of shape (..., n), carries the whole first-order Malliavin toolbox:
add/drop difference operators, the Skorokhod divergence, the
Ornstein-Uhlenbeck generator, the Dirichlet energy, the carre du champ, and
the energy brackets, each evaluated on a whole counts batch at once.  Two
expectation engines, exact enumeration of a truncated product-Poisson state
space and a seeded Monte Carlo sampler, numerically certify every identity
relating them.
"""
from .errors import (
    BoundaryLeakError,
    BudgetExceededError,
    ConfigError,
    InvalidSiteError,
    NonFiniteValueError,
    PoissonMalliavinError,
    ShapeError,
    SolverError,
    TruncationError,
)
from .exact import (
    ExactBackend,
    GeneratorMatrix,
    StateTable,
    TruncationPlan,
    build_generator_matrix,
    exact_expectation,
    ou_pseudo_inverse,
    plan_truncation,
)
from .functionals import (
    Functional,
    RandomField,
    derivative_field,
    product_field,
)
from .ground import GroundSpace
from .identities import (
    DEFAULT_GATES,
    Gates,
    VerificationReport,
    bracket_expectation_check,
    chain_rule_control_check,
    commutation_check,
    duality_check,
    energy_derivation_check,
    gamma_form_bound_check,
    gamma_representation_check,
    mecke_check,
    non_diffusion_counterexample,
    product_formula_check,
    skorokhod_check,
)
from .montecarlo import (
    MonteCarloBackend,
    SamplerConfig,
    mc_expectation,
)
from .operators import (
    BracketKind,
    Mean,
    bracket_batch,
    dirichlet_integrand,
    divergence_batch,
    gamma_batch,
    ou_generator_batch,
)
from .registry import (
    affine_of,
    bounded_sigmoid,
    compose,
    constant,
    count_times_deterministic,
    deterministic_field,
    field_from_spec,
    functional_from_spec,
    functional_times_indicator,
    indicator_leq,
    linear_count,
    poly_count,
    product_of,
    scalar_map,
    site_indicator_field,
)
from .suite import (
    SuiteConfig,
    default_config,
    load_config,
    parse_config,
    reports_to_json,
    run_suite,
    summarize,
    write_report,
)

__version__ = "0.1.0"
