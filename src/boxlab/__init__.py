"""Exact-arithmetic cube measures, box seminorms, and multiple ergodic
averages on finite measure-preserving systems with commuting
transformations.

Everything is computed over arbitrary-precision rationals; seminorms are
handled through their 2^d-th powers so theorem-level identities and
inequalities are decided by exact comparison.
"""

from .averages import (
    AverageResult,
    CharacteristicBound,
    Interval,
    UniformityReport,
    VdcBound,
    characteristic_bound_check,
    common_period,
    decomposable_reduction_check,
    derive_T_from_S,
    derived_transform_system,
    multi_average,
    multi_average_limit,
    multilinear_average_J,
    uniformity_scan,
    van_der_corput_bound,
)
from .box_measure import (
    SparseCubeMeasure,
    Vertex,
    apply_digit_flip,
    apply_index_permutation,
    build_box_measure,
    cube_integral,
    diagonal_transform,
    integrate_product,
    marginal,
    permute_order,
    push_forward,
    relative_self_product,
    side_transform,
)
from .errors import (
    BoxlabError,
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SupportCapError,
)
from .magic import (
    MagicCheck,
    SharpSpace,
    StarSystem,
    build_star_system,
    derive_S_star,
    magic_check,
    normstar_check,
    sharp_invariant_partition,
    sharp_space,
    span0_orthogonality_check,
    star_conditional_expectation,
    star_seminorm_pow,
    vertex_product_observable,
    wstar_partition,
    zed_from_sharp,
)
from .seminorm import (
    CsgResult,
    SeminormValue,
    csg_check,
    gowers_norm_pow,
    seminorm_oracle_pow,
    seminorm_pow,
    seminorm_recursion_pow,
    triangle_check,
    zed_equivalence_check,
    zed_partition,
)
from .system import (
    SUPPORT_CAP_DEFAULT,
    FiniteSystem,
    Observable,
    Partition,
    conditional_expectation,
    group_orbit_partition,
    join_partitions,
    orbit_partition,
    transform_period,
    validate_system,
)

__version__ = "0.1.0"
