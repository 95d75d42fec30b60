"""Restricted root systems, Gamma-product invariants, and Weyl-chamber
quadrature for testing projective flatness of quantization on compact
symmetric spaces."""

from .rootsys import (
    RootSystem,
    SphericalWeight,
    as_vector,
    build_root_system,
    dimension,
    dominant_weights,
    is_reduced,
    rescale,
    rho_pairing_identity,
    root_spec,
    spherical_weight,
)
from .hcfun import (
    QInvarianceReport,
    c_function,
    c_function_duplicated,
    classify_group_manifold,
    f_factor,
    f_factors,
    g_product_probe,
    group_c_closed_form,
    log_gamma,
    predicted_constants,
    q_invariance_test,
    q_of_weight,
)
from .asymquad import (
    AsymptoticReport,
    b_delta_rank1,
    leading_infinity,
    log_I_mu,
    verify_tau_infinity,
    verify_tau_zero,
    watson_expand,
)
from .cli import (
    Catalog,
    CatalogError,
    SpaceDescriptor,
    default_catalog,
    emit,
    load_catalog,
    parse_catalog,
    run_asym,
    run_flatness,
)

__version__ = "0.1.0"
