"""Exact combinatorics of box-bounded plane partitions.

Counts plane partitions and their self-complementary subclasses, evaluates
signed enumerations, verifies two rectangular Schur polynomial product
identities by full expansion, and evaluates the bordered binomial
Pfaffians that reproduce the middle-line counts.  Every closed form is
cross-checked against an independent brute-force oracle at desk scale.
"""

from scpp.budget import DEFAULT_NODE_CAP, BudgetExceededError, WorkBudget
from scpp.partitions import (
    Partition,
    contains,
    horizontal_strips_within,
    is_horizontal_strip,
    partition,
    partitions_in_rectangle,
    rectangle,
    rotated_complement,
    size,
)
from scpp.pfaffian import (
    PfaffianCheck,
    SkewSymmetricMatrix,
    binomial_safe,
    corollary_matrix,
    exact_determinant,
    pfaffian,
    pfaffian_check,
)
from scpp.plane_partitions import (
    MoveGraphReport,
    PlanePartition,
    SignedCount,
    check_move_graph,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
    enumerate_pp,
    enumerate_scpp,
    flipped_pair_count,
    half_full,
    is_self_complementary,
    middle_line_constraint,
    move_neighbors,
    pp_to_tableau,
    tableau_to_pp,
    weight,
)
from scpp.polynomials import MPoly
from scpp.products import (
    ParityError,
    box_count,
    middle_line_product,
    rising_factorial,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.schur import (
    SemistandardTableau,
    alternating_limit_value,
    alternating_point,
    complete_homogeneous,
    enumerate_ssyt,
    hook_content_rectangular,
    lr_coefficient,
    schur_determinant_oracle,
    schur_tableau_sum,
    specialize_alternating,
)
from scpp.verify import (
    VerificationReport,
    schurid1_rhs,
    schurid2_rhs,
    verify_box,
    verify_middle_line,
    verify_schurid,
    verify_scpp_count,
    verify_signed_enumeration,
    verify_specialization_bridge,
    verify_square_reduction,
    verify_weight_consistency,
)

__version__ = "0.1.0"
