"""Combinatorics of decorated Gauss diagrams for knots in a solid torus."""
from types import ModuleType as _Module

from .braid import (
    Letter,
    VirtualBraidWord,
    braid_to_sliceword,
    closure_permutation,
    parse_braid,
    represent_as_closed_braid,
    serialize_braid,
    synthesize_braid,
)
from .rebuild import (
    AnnularDiagram,
    ComponentMap,
    annular_to_json,
    find_section,
    reconstruct,
    render_svg,
    to_sliceword,
    whitney_index,
)
from .slices import (
    Cap,
    Cup,
    RealCross,
    SliceReport,
    SliceWord,
    VirtualCross,
    crossing_records,
    direction_levels,
    extract_tdiagram,
    parse_sliceword,
    represent_dgd,
    represent_tdiagram,
    serialize_sliceword,
    validate_sliceword,
)
from .admit import (
    ADMISSIBLE,
    NOT_WEAKLY,
    WEAKLY_ONLY,
    AdmissibilityReport,
    TransitionGraph,
    check_admissible,
    level_decomposition,
    transition_graph,
)
from .diagrams import (
    Arrow,
    ArrowJump,
    CircleForward,
    DecoratedGaussDiagram,
    DiagramLoop,
    TDiagram,
    Token,
    ValidationReport,
    assemble_tdiagram,
    canonical_serialize,
    check_loop,
    forget_markings,
    is_full,
    is_reduced,
    loop_from_json,
    loop_homology,
    loop_to_json,
    parse_diagram,
    validate,
)
from .errors import (
    InvalidDiagram,
    NoLevels,
    NotAdmissible,
    NotFull,
    NotPositive,
    NotRealRealizable,
    NotWeaklyAdmissible,
    ParseError,
)
from .refine import (
    Move,
    TypeIDelete,
    TypeIInsert,
    TypeIIMinus,
    TypeIIPlus,
    apply_move,
    connect_refinements,
    find_refinement,
    kernel_basis,
    minimal_refinement,
    move_from_json,
    move_to_json,
    non_negative_refinement,
    positive_refinement,
)

__version__ = "0.1.0"

# every name imported above, and the version
__all__ = [n for n, v in list(globals().items()) if n[0] != "_" and not isinstance(v, _Module)]
__all__.append("__version__")
