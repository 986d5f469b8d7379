"""Exact finite-window algebra for lattice interacting systems.

Configuration graphs over finite site windows, conditional-expectation
projections, orthogonal subset expansions, discrete degree-one forms with
potential solving, and the decomposition of shift-invariant closed forms
into exact and conserved-quantity parts.  All arithmetic is exact
rational; a float passed in is read as the simplest rational that rounds
to it, and float output (the CLI's ``--mode float``) is ``float()`` of the
exact result.
"""

from .errors import (
    ActionLeavesWindow,
    ColocalError,
    EdgeOutsideSiteSet,
    EmptySet,
    FloatOverflow,
    InvalidPath,
    MalformedForm,
    NonProductMeasure,
    NotClosed,
    NotConnected,
    NotInvariant,
    NotOrdinary,
    NotReversible,
    NotSimple,
    NotSubset,
    NotSymmetric,
    ResidueNotConserved,
    SiteSetMismatch,
    SizeTooSmall,
    SpaceTooLarge,
    TooManySubsets,
    WindowTooSmall,
)
from .statespace import (
    Config,
    ConfigSpace,
    DEFAULT_STATE_CAP,
    DEFAULT_SUBSET_CAP,
    GroupAction,
    Interaction,
    Locale,
    SiteMap,
    SiteSet,
    TransitionGraph,
    apply_transition,
    build_locale,
    edges_within,
    enumerate_configs,
    exclusion_interaction,
    group_act,
    identity_interaction,
    identity_map,
    lattice_translations,
    lattice_window,
    make_interaction,
    permutation_map,
    site_diameter,
    siteset,
    transition_graph,
    translation_map,
    validate_interaction,
)
from .tables import (
    FnTable,
    fn_constant,
    fn_from_callable,
    fn_zeros,
    site_occupation,
    site_table,
)
from .measure import (
    OrdinaryReport,
    ProductMeasure,
    StateMeasure,
    WindowMeasure,
    bernoulli,
    conditional_expectation,
    expectation,
    inner,
    is_ordinary,
    materialize,
    product_measure,
    pushforward,
    state_measure,
    uniform_states,
    window_measure_from_raw,
)
from .functions import (
    CoLocalChain,
    ConservedQuantity,
    Expansion,
    IqReport,
    build_chain,
    check_iq,
    conserved_colocal,
    conserved_quantities,
    expand_martingale,
    iota_restrict,
    uniform_radius,
)
from .forms import (
    Form,
    Path,
    closed_form_space_dimension,
    differential,
    is_closed_path,
    kernel_basis,
    make_form,
    path_configs,
    path_integral,
    project_form,
    solve_potential,
    validate_form,
)
from .varadhan import (
    Cocycle,
    FundamentalDomain,
    InvariantFormSpec,
    VaradhanDecomposition,
    cocycle_from_coefficients,
    decompose_invariant_form,
    fundamental_domain,
    interior_edges,
    interior_sites,
    invariant_form_from_cocycle,
    invariant_form_from_potential_stencil,
    invariant_spec_from_anchors,
    omega_from_cocycle,
    theta_from_cocycle,
    verify_cocycle_identity,
    zero_cocycle,
)
from .l2 import L2Norm, MartingaleReport, form_l2_norm, l2_norm, martingale_chain_report

__version__ = "0.1.0"
