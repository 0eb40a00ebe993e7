"""Two-level epistemic logic on chromatic hypergraphs.

Agents hold local views; worlds are hyperedges assembling compatible views,
with agents allowed to be absent.  The package provides the sorted formula
language and parser, the model checker, conversions to and from partial
epistemic frames, a KB4 embedding, a Hilbert-style proof kernel, bounded
countermodel search, and a CLI (``hyperknow``).
"""

from .core import (
    ChromaticHypergraph,
    ChromaticHypergraphModel,
    GeneralizedChromaticHypergraph,
    GeneralizedChromaticHypergraphModel,
    Signature,
    SimpleHypergraph,
    SimplicialComplex,
    alive,
    build_generalized,
    build_generalized_model,
    build_hypergraph,
    build_model,
    downward_closure,
    example,
    example_names,
    strip_agent_atoms,
    underlying_simple,
    worlds_of_view,
)
from .errors import (
    BoundsError,
    DerivationCheckError,
    HyperknowError,
    NonEmptyAgentAtomsError,
    ParseError,
    SortError,
    UnknownPointError,
    ValidationError,
)
from .frames import (
    FrameMorphism,
    HypergraphMorphism,
    PartialEpistemicFrame,
    PartialEpistemicModel,
    build_frame,
    build_frame_model,
    check_frame_morphism,
    check_hypergraph_morphism,
    eta,
    eta_model,
    eta_morphism,
    is_isomorphic,
    is_isomorphic_frames,
    kappa,
    kappa_model,
    kappa_morphism,
)
from .kb4 import check_translation_equiv, sat_kb4, translate
from .neighborhood import (
    NeighborhoodFrame,
    from_functional,
    sat_generalized,
    shared_memory_example,
    to_neighborhood,
)
from .parser import (
    parse_agent,
    parse_derivation,
    parse_frame,
    parse_kb4,
    parse_model,
    parse_world,
    render,
    render_frame,
    render_model,
)
from .proofkernel import (
    Derivation,
    DerivationLine,
    Statement,
    check_derivation,
    check_line,
    soundness_spotcheck,
)
from .search import (
    Bounds,
    Countermodel,
    ValidWithinBounds,
    check_scheme,
    enumerate_frames,
    enumerate_hypergraphs,
    enumerate_models,
    find_countermodel,
)
from .semantics import (
    Evaluator,
    View,
    World,
    extension_agent,
    extension_world,
    sat_agent,
    sat_world,
    valid_in_model,
)
from .syntax import (
    AgentFormula,
    KB4Formula,
    SourceSpan,
    WorldFormula,
    atoms_of,
    desugar,
    modal_depth,
    sort_check_agent,
    sort_check_kb4,
    sort_check_world,
    sort_of,
)

__version__ = "0.1.0"
