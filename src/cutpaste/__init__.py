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
cutpaste.classes.DiffeoClass``).  ``squares_k0`` and ``sk_groups`` forward
the same way the names that moved out of them: the lemma checker to
``lemma_check`` and the surface-side SK operations to ``surface``.
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
    "lemma_check": ("FiniteSquaresCategory", "check_lemma_hypotheses"),
    "sk_groups": ("circles_group", "closed_sk_presentation", "verify_exact_sequence"),
    "squares_k0": (
        "Caps",
        "SquaresPresentation",
        "k0_of_surfaces",
        "k0_presentation",
        "surface_squares_presentation",
    ),
    "surface": (
        "BoundaryGluing",
        "EmbeddedCircle",
        "MoveStep",
        "MoveWitness",
        "SearchExhausted",
        "TriSurface",
        "annulus",
        "build_standard",
        "cut",
        "decide_equivalent",
        "disjoint_union",
        "double_circle",
        "doubling_witness",
        "fan_disk",
        "find_witness",
        "mirror",
        "octahedron",
        "paste",
        "paste_cut",
        "refine_boundary",
        "replay_witness",
        "seven_vertex_torus",
        "sk_move",
        "sk_system_move",
        "skk_collapse_check",
        "subdivide",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _forwarder(namespace: dict, homes: dict):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: a name of ``homes`` (name -> home module) imports its
    home on first use and is kept in ``namespace``, so the next lookup is
    an ordinary global; any other name is an AttributeError.
    ``__import__`` rather than ``importlib.import_module``, so
    ``-X importtime`` reports the load."""

    def __getattr__(name):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(__import__(home, fromlist=(name,)), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _forwarder(globals(), _HOME)


def __dir__():
    return sorted({*globals(), *__all__})
