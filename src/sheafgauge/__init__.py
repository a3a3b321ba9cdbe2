"""Finite numerical models of glued bundle data over sampled covers.

The package represents a base space as a finite point sample covered by
named regions, carries first-order jets (value plus gradient) so the
Leibniz rule is structural rather than approximate, and checks the
identities that make the data a bundle: cocycle conditions, connection
transition laws, representation compatibility, covariant derivative
laws, and the round trips between the principal and vector pictures.
"""

from .errors import (
    CoverError,
    CycleInconsistencyError,
    DimensionMismatchError,
    EmptyOverlapError,
    EquivarianceError,
    ExprDomainError,
    FieldMismatchError,
    MissingEntryError,
    MissingExtensionError,
    MissingJacobianError,
    NonFiniteError,
    OverlapMismatchError,
    ParseError,
    PreconditionError,
    PullbackImageError,
    ScenarioError,
    SheafGaugeError,
    SingularMatrixError,
    SpanError,
    UnknownRegionError,
)
from .report import CheckResult, Report
from .jets import (
    Jet,
    JetMatrix,
    MatrixField,
    MatrixOneForm,
    OneForm,
    ScalarField,
    constant_matrix_field,
    d_field,
    field_add,
    field_mul,
    field_residual,
    identity_matrix_field,
    jet_mul,
    mat_add,
    mat_d,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_transpose,
    point_order,
)
from .cover import (
    Region,
    SampledCover,
    arc_range,
    circle_cover,
    glue,
    overlap,
    restrict,
    transport_field,
    transport_form,
)
from .groups import (
    GroupModel,
    LieValuedOneForm,
    ad_action,
    check_logarithmic_rule,
    gl1_positive_model,
    gl_model,
    group_mul,
    mc,
    model_by_name,
    rho_dot_form,
    rho_matrix,
    so2_model,
    torus_model,
)
from .principal import (
    PrincipalConnection,
    PrincipalSectionLocal,
    PrincipalSheafData,
    check_cocycle,
    check_connection,
    complete_connection,
    evaluate_connection,
    section_transition,
)
from .associated import (
    AssociatedSection,
    RepresentationModel,
    TensorialMorphismData,
    VectorSheafData,
    check_components,
    check_lie_type,
    check_representation,
    check_vector_cocycle,
    evaluate_tensorial,
    gl1_diag_powers,
    push_cocycle,
    quotient_reduce,
    rep_by_name,
    section_add,
    section_smul,
    section_to_tensorial,
    so2_in_gl2,
    tensorial_to_section,
    trivial_rep,
)
from .vconn import (
    VectorConnection,
    check_frame_roundtrip,
    check_leibniz_koszul,
    check_nabla_agreement,
    check_vector_connection,
    frame_section,
    frame_sheaf,
    induce_connection,
    lie_form_to_matrix,
    matrix_form_to_lie,
    nabla_apply,
    pull_back_connection,
)
from .expr import eval_expr, parse_expr, to_source
from .catalog import (
    catalog_elements,
    catalog_rows,
    random_element,
    random_principal_section,
    random_scalar_field,
    random_section,
    random_vector_data,
    stable_seed,
)
from .scenario import (
    Scenario,
    build_cover,
    build_group,
    build_principal,
    build_representation,
    build_seed,
    demo_names,
    load_demo,
    load_scenario,
    parse_scenario,
)
from .checks import SUITES, TOLERANCES, run_checks

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
