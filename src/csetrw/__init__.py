"""Categorical rewriting of C-sets on finitely presented schemas.

Instances are tables of parts with total foreign-key columns; rewriting
is double-, single- or sesqui-pushout over spans of natural
transformations, with pattern matching by backtracking search.
"""

from .colimits import (
    Classifier,
    DanglingViolation,
    IdentificationViolation,
    PullbackResult,
    PushoutResult,
    check_pushout_complement,
    classifier_map,
    coproduct,
    final_pullback_complement,
    partial_map_classifier,
    pullback,
    pushout,
    pushout_complement,
)
from .errors import (
    CommutativityFailureError,
    ComplementViolationsError,
    CyclicSchemaError,
    EndpointMismatchError,
    FootMismatchError,
    InvalidInstanceError,
    MatchNotNaturalError,
    NotMonicError,
    ParseError,
    PartOutOfRangeError,
    TypingMismatchError,
    UnknownReferenceError,
)
from .instance import (
    CSetInstance,
    EquationFailure,
    MissingEdge,
    MultipleEdges,
    TypedGraph,
    check_discrete_opfibration,
    elements,
    empty_instance,
    incident,
    make_instance,
    restrict,
    schema_graph,
    validate_instance,
)
from .mesh import flip_rule, gen_mesh, quad_pattern
from .open_systems import (
    CospanMorphism,
    Diagram,
    OpenRewriteOutcome,
    OpenRule,
    SliceInstance,
    StructuredCospan,
    compose_cospans,
    cset_to_slice,
    diagram_colimit,
    discrete_instance,
    identity_cospan,
    interface_objects,
    open_rewrite,
    slice_rewrite,
    slice_schema,
    slice_to_cset,
)
from .rewrite import (
    DPO,
    SPO,
    SQPO,
    RewriteOutcome,
    Rule,
    find_and_rewrite,
    rewrite,
    rewrite_dpo,
    rewrite_spo,
    rewrite_sqpo,
)
from .schema import (
    Generator,
    SchemaPath,
    SchemaPresentation,
    delta2_schema,
    graph_schema,
    hom_paths,
    is_acyclic,
    paths_equal,
    validate_schema,
    without_equations,
)
from .search import SearchOptions, homomorphisms, is_isomorphic
from .transform import NaturalityViolation, Transformation, identity, is_natural

__version__ = "0.1.0"
