"""qslice: exact slices of a self-affine graph via non-integer base expansions.

The package computes horizontal slices of the attractor of a three-map
vertical IFS on the unit square, by enumerating branches of the associated
digit-expansion dynamics in exact algebraic arithmetic. It certifies slice
cardinalities, fractal thickness facts, odd orbit counts at multinacci
bases, and dimension bounds, and renders the carrier as SVG.
"""

from .algebraic import (
    AlgebraicError,
    AlgebraicNumber,
    FieldElement,
    MixedField,
    Ordering,
    algebraic_from_poly,
    bonacci_root,
    compare_reals,
    enclose,
    refine,
)
from .words import (
    Alphabet,
    Tail,
    Word,
    WordSyntaxError,
    avoids,
    format_word,
    lex_consecutive,
    member,
    parse_word,
    project_q,
    project_ternary,
    reflect,
    run_limited,
    tail,
    uniform_run_limited,
    word,
    word_successor,
)
from .dynamics import (
    BranchMap,
    ExpansionSystem,
    Frontier,
    InvalidBase,
    UniqueOrbitResult,
    UniqueOrbitStatus,
    apply_word,
    enumerate_orbits,
    tail_is_orbit,
    ternary_branch_system,
    unique_orbit_check,
    word_is_applicable,
)
from .slices import (
    CardinalityClaim,
    ClaimKind,
    SliceInputError,
    SliceResult,
    compute_slice,
    geometric_slice_oracle,
    slice_matches_oracle,
)
from .certificates import (
    Certificate,
    CertificateError,
    IntervalCheck,
    bracket,
    check,
    exact_check,
    from_json,
    to_json,
    verify,
)
from .thickness import (
    GapFamily,
    GapLaw,
    GapStructure,
    ShiftSetAnalysis,
    ThicknessError,
    build_aq_prefixes,
    enumerate_gaps,
    find_slice3_witness,
    fixed_expansion_of_one,
    interleaving_check,
    newhouse_certify,
    prefix_run_length,
    thickness_lower_bound,
)
from .bonacci import (
    BonacciError,
    C2Outcome,
    C2Report,
    CertificationFailed,
    c2_probe,
    null_infinite_probe,
    periodic_expansions_of_one,
    two_orbit_base,
    verify_odd_cardinality,
    x_m_witness,
)
from .dimension import (
    BranchingPair,
    DimensionError,
    RTree,
    affinity_dimension,
    box_dimension_estimate,
    branching_pair_search,
    build_r_tree,
    dimension_lower_bound,
    estimate_M,
)
from .render import RenderError, RenderSpec, graph_polyline, render_kq

__version__ = "0.1.0"
