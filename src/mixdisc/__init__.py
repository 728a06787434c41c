"""Mixed discriminants of Hermitian matrix tuples: evaluation, scaling,
capacity, extremal experiments, block Pascal determinants, and hyperbolic
polynomial mixed values."""

from .core import (
    DEFAULT_TOL,
    DimensionTooLarge,
    InvalidWeight,
    MixdiscError,
    NonConvergence,
    NotDoublyStochastic,
    NotHermitian,
    NotIndecomposable,
    NotPositiveDefinite,
    NumericalInconsistency,
    PreconditionViolated,
    SamplerExhausted,
    SingularPencil,
    TermNotPsd,
    Tolerances,
    make_rng,
    random_psd,
)
from .discriminant import (
    DiscriminantGradient,
    DsTupleReport,
    MatrixTuple,
    check_doubly_stochastic,
    diagonal_tuple,
    euler_identity_residual,
    eval_double_perm,
    eval_polarized,
    eval_sigma_det,
    eval_signed_permanent,
    eval_tensor,
    exchange_value,
    gradient,
    permanent,
)
from .structure import (
    DecompositionResult,
    decompose,
    is_indecomposable,
    positivity_rank_test,
)
from .capacity import (
    CapacityResult,
    ScalingResult,
    capacity,
    capacity_bound_report,
    capacity_via_scaling,
    n_pow_n_over_factorial,
    scale_to_doubly_stochastic,
)
from .extremal import (
    SearchRecord,
    bapat_bound,
    dnp_family_value,
    lemma36_family,
    minimize_search,
    random_ds_tuple,
    random_ds_tuples,
)
from .genaf import (
    AfExperimentResult,
    ConvexCombination,
    Theorem52Report,
    af_lower_bound_experiment,
    check_theorem52,
    classical_af_combination,
    column_repeated,
    expand_tuple,
    m_alpha,
    validate_weight,
)
from .pascal import (
    BlockDsReport,
    BlockMatrix,
    SeparableSpec,
    assemble_separable,
    check_block_ds,
    qp_block,
    qp_tensor,
    sample_block_ds,
    sample_separable_ds,
)
from .hyperbolic import (
    ConjectureExperimentReport,
    HdMembershipReport,
    HyperbolicPencil,
    RootVector,
    axis_vectors,
    check_hd_membership,
    conjecture_experiment,
    is_e_nonnegative,
    mixed_value,
    pencil_from_tuple,
    roots,
    trace_e,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
