"""Exact structure theory of multiplicative matrix semigroups M(n, F_q).

Everything is table-driven integer arithmetic over small finite fields:
conjugacy via stable-image cores, maximal nilpotent subsemigroups as flag
semigroups, isomorphism fingerprints, and isolated subsemigroups — each
theorem-backed computation paired with a brute-force route so the two can
be played against each other.
"""

__version__ = "0.1.0"

from .conjugacy import (
    ConjugacyChain,
    CoreDecomposition,
    class_key,
    core,
    core_chain,
    core_decomposition,
    semigroup_conjugate,
    sg_classes,
    stability_index,
)
from .engine import (
    MatSet,
    Partition,
    SemigroupTable,
    ambient,
    build_table,
    closure,
    closure_ids,
    enumerate_subsemigroups,
    equiv_closure,
    mat_set,
    power_sets,
    preorder_depths,
    product_grid,
    table_iso,
    table_nd,
)
from .errors import (
    BadDimension,
    BadK,
    BadSignature,
    CapExceeded,
    ConflictingOptions,
    DimMismatch,
    FieldMismatch,
    InternalError,
    InvariantViolation,
    MatSemiError,
    NotAChain,
    NotClosed,
    NotInContext,
    NotInvertible,
    NotNilpotent,
    NotPrime,
    OutputNotWritable,
    PreconditionViolated,
    SignatureMismatch,
    VerificationFailed,
    ZeroElement,
)
from .flags import (
    Flag,
    all_flags,
    consolidates,
    flag_basis,
    flag_make,
    flag_semigroup,
    flags_with_signature,
    format_flag,
    is_k_maximal,
    lowering_mask,
    lowers_flag,
    nilpotency_degree,
    parse_flag,
    power_image_flag,
    standard_flag,
)
from .gf import (
    FieldSpec,
    Matrix,
    Subspace,
    enumerate_matrices,
    enumerate_subspaces,
    field_make,
    format_field,
    format_matrix,
    format_poly,
    format_subspace,
    full_space,
    gaussian_binomial,
    identity_matrix,
    invariant_factors,
    mat_image,
    mat_inverse,
    mat_kernel,
    mat_pow,
    mat_rank,
    matrix,
    parse_field,
    parse_matrix,
    parse_subspace,
    prime_power,
    projection_idempotent,
    similar,
    standard_complement,
    subspace,
    unit_matrix,
    zero_matrix,
    zero_subspace,
)
from .isolated import (
    IsolatedRecord,
    enumerate_isolated,
    ideal,
    ideal_absorption_check,
    ideal_generated_by_stratum,
    is_completely_isolated,
    is_isolated,
    rank_stratum,
)
from .nilclass import (
    Fingerprint,
    IsoDecision,
    IsoMap,
    NilContext,
    annihilator_census,
    depth_sets,
    fingerprint,
    iso_construct,
    iso_decide,
    ll,
    nil_context,
    prec,
    super_rank,
    u_stat,
)
from .verify import CriterionResult, VerifyReport, run as run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
