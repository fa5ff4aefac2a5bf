"""Cut-and-paste calculus for triangulated surfaces.

Exact-integer scissors congruence at desk scale: Smith normal form and
finitely presented abelian groups, a combinatorial surface calculus with
cut/paste moves, K0 of categories with squares, the truncated cut-and-paste
groups with their exact sequence, and the Euler characteristic realized as
a chain-level invariant.

Every public name resolves on first use: ``import cutpaste`` loads no layer,
and ``cutpaste.k0_of_surfaces`` loads ``squares_k0`` with what it imports
(``abgroup`` and ``classes``), not the triangulated calculus.  A name is the
object of its home module (``cutpaste.DiffeoClass is
cutpaste.classes.DiffeoClass``).
"""

# home module -> the public names it gives the package root
_EXPORTS = {
    "abgroup": (
        "AbGroupPresentation",
        "AbHom",
        "IntMatrix",
        "IntegerLattice",
        "NormalForm",
        "SNFResult",
        "check_exact_at",
        "smith_normal_form",
    ),
    "chains": (
        "ChainComplex",
        "ChainMap",
        "HomologyType",
        "PushoutResult",
        "pushout",
        "quasi_iso_type_equal",
    ),
    "classes": ("DiffeoClass",),
    "euler_functor": (
        "SquareInstance",
        "chains_of",
        "coproduct_square",
        "functor_on_square",
        "pi0_commutation",
        "square_from_circles",
    ),
    "sk_groups": (
        "MoveStep",
        "MoveWitness",
        "SKPresentation",
        "SearchExhausted",
        "boundary_sk_presentation",
        "circles_group",
        "closed_sk_presentation",
        "decide_equivalent",
        "doubling_witness",
        "find_witness",
        "replay_witness",
        "skk_collapse_check",
        "verify_exact_sequence",
    ),
    "squares_k0": (
        "Caps",
        "FiniteSquaresCategory",
        "SquaresPresentation",
        "check_lemma_hypotheses",
        "k0_of_surfaces",
        "k0_presentation",
        "surface_squares_presentation",
    ),
    "surface": (
        "BoundaryGluing",
        "EmbeddedCircle",
        "TriSurface",
        "annulus",
        "build_standard",
        "cut",
        "disjoint_union",
        "double_circle",
        "fan_disk",
        "mirror",
        "octahedron",
        "paste",
        "paste_cut",
        "refine_boundary",
        "seven_vertex_torus",
        "sk_move",
        "sk_system_move",
        "subdivide",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the home module of a public name and keep the name here, so
    the next lookup is an ordinary global.  ``__import__`` rather than
    ``importlib.import_module``, so ``-X importtime`` reports the load."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
