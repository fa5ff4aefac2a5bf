"""Cut-and-paste calculus for triangulated surfaces.

Exact-integer scissors congruence at desk scale: Smith normal form and
finitely presented abelian groups, a combinatorial surface calculus with
cut/paste moves, K0 of categories with squares, the truncated cut-and-paste
groups with their exact sequence, and the Euler characteristic realized as
a chain-level invariant.
"""

from .abgroup import (
    AbGroupPresentation,
    AbHom,
    IntMatrix,
    IntegerLattice,
    NormalForm,
    SNFResult,
    check_exact_at,
    smith_normal_form,
)
from .chains import (
    ChainComplex,
    ChainMap,
    HomologyType,
    PushoutResult,
    pushout,
    quasi_iso_type_equal,
)
from .euler_functor import (
    SquareInstance,
    chains_of,
    coproduct_square,
    functor_on_square,
    pi0_commutation,
    square_from_circles,
)
from .sk_groups import (
    MoveStep,
    MoveWitness,
    SKPresentation,
    SearchExhausted,
    boundary_sk_presentation,
    circles_group,
    closed_sk_presentation,
    decide_equivalent,
    doubling_witness,
    find_witness,
    replay_witness,
    skk_collapse_check,
    verify_exact_sequence,
)
from .squares_k0 import (
    Caps,
    FiniteSquaresCategory,
    SquaresPresentation,
    check_lemma_hypotheses,
    k0_of_surfaces,
    k0_presentation,
    surface_squares_presentation,
)
from .surface import (
    BoundaryGluing,
    DiffeoClass,
    EmbeddedCircle,
    TriSurface,
    annulus,
    build_standard,
    cut,
    disjoint_union,
    double_circle,
    fan_disk,
    mirror,
    octahedron,
    paste,
    paste_cut,
    refine_boundary,
    seven_vertex_torus,
    sk_move,
    sk_system_move,
    subdivide,
)

__version__ = "0.1.0"
