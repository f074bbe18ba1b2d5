"""groupoidlab: exact finite models of equivalence-relation groupoids,
twisted convolution algebras, and Fell-type openness criteria.

Everything is computed at finite scale with verified identities: finite
topologies via minimal opens, relation groupoids of surjections with the
product-subspace topology, Z/n-valued cocycles with decidable cohomology,
convolution algebras with induced representations and matrix-block
models, and the single-threaded-vertex criterion for path groupoids of
directed graphs.
"""

from .finspace import (
    FinSpace,
    SpaceMap,
    MapProperties,
    classify_map,
    is_local_homeomorphism,
    is_quotient_map,
    space_properties,
    quotient_space,
    hausdorff_cover_resolution,
    closed_hausdorff_core,
    discrete,
    sierpinski,
)
from .groupoid import (
    FinGroupoid,
    RelationGroupoid,
    GroupoidAxiomError,
    NonPrincipalError,
    build_relation_groupoid,
    orbit_space,
    orbit_map_check,
    groupoid_properties,
    fell_check,
)
from .twist import (
    TwoCocycle,
    OneCochain,
    CechData,
    CocycleError,
    CechError,
    verify_two_cocycle,
    coboundary_twist,
    are_cohomologous,
    extension_groupoid,
    verify_cech,
    cech_is_coboundary,
    cech_to_groupoid_cocycle,
)
from .calgebra import (
    AlgebraElement,
    InducedRep,
    BlockDecomposition,
    convolve,
    involute,
    identity_element,
    induced_rep,
    reduced_norm,
    operator_norm,
    block_decompose,
    build_doubled_model,
    build_cover_model,
    build_doubled_cover_space,
    equivariant_suite,
    CoverAlgebra,
    SizeCapError,
)
from .graphfell import (
    DirectedGraph,
    PeriodicGraph,
    FellVerdict,
    GraphError,
    validate_graph,
    single_threaded_vertices,
    path_counts,
    fell_verdict,
    periodic_fell_verdict,
    two_thread_ladder,
)
from .modlin import solve_mod, ModSolveResult

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
