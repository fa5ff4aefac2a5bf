"""K0 of finitely presented categories with squares.

The engine itself only consumes square quadruples: the group is the free
abelian group on the object list modulo [basepoint] = 0 and, for every
distinguished square (A, B, C, D), the relation [A] + [D] = [B] + [C].

On top of that sits ``surface_squares_presentation``, the truncated
gluing category of compact oriented surfaces with boundary: objects are
diffeomorphism classes within caps, squares are the disjoint-union squares
and the collar squares (annulus stack, piece, piece, glued result).
Collar squares are enumerated between connected pieces; gluings of
disconnected objects decompose into these plus disjoint-union squares:
``test_disconnected_gluings_keep_every_coordinate`` adds every such
gluing at caps (2,2,2) and finds the group still Z^2 with every coordinate
unchanged.  Of the disjoint-union squares only a spanning set is presented,
one per class of two or more components (``union_squares``); the rest are
consequences, and the record counts the category's squares without
building them.  Its record,
``SurfaceSquares``, is the with-boundary cut-and-paste group
(``k0_of_surfaces``); ``sk_groups`` presents the closed group as one too,
with extra relation rows.

The exhaustive checker of a finite category's squares axioms and of the
side conditions under which this presentation computes K0
(``FiniteSquaresCategory``, ``check_lemma_hypotheses``) lives in
``lemma_check``; its names read from here load that module on first use.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import _forwarder
from .abgroup import AbGroupPresentation, NormalForm, require_json_ints
from .classes import DiffeoClass

__getattr__ = _forwarder(globals(), dict.fromkeys(
    ("CheckResult", "FiniteSquaresCategory", "HypothesisReport", "Morphism", "check_lemma_hypotheses"),
    "cutpaste.lemma_check",
))


class Caps(NamedTuple):
    """Truncation caps: per-component genus and boundary circles, and the
    number of components per object."""

    genus: int
    boundary: int
    components: int


@dataclass(frozen=True)
class SquaresPresentation:
    """Finite object list, basepoint index, distinguished-square quadruples."""

    objects: tuple[str, ...]
    basepoint: int
    squares: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        n = len(self.objects)
        if not 0 <= self.basepoint < n:
            raise ValueError("basepoint index out of range")
        for q in self.squares:
            if len(q) != 4 or any(not 0 <= i < n for i in q):
                raise ValueError(f"square {q} references invalid objects")

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "basepoint": self.basepoint,
            "squares": [list(q) for q in self.squares],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SquaresPresentation":
        """Parse the squares file format: the objects a JSON list of distinct
        strings, the basepoint and square indices JSON integers."""
        objects = data["objects"]
        if not isinstance(objects, list) or any(type(x) is not str for x in objects) or len(set(objects)) < len(objects):
            raise ValueError(f"objects {objects!r} are not a JSON list of pairwise distinct strings")
        basepoint = data["basepoint"]
        squares = tuple(tuple(q) for q in data["squares"])
        require_json_ints((basepoint,), "basepoint")
        for q in squares:
            require_json_ints(q, "square index")
        return cls(tuple(objects), basepoint, squares)


def k0_presentation(p: SquaresPresentation, extra=()) -> AbGroupPresentation:
    """Free abelian group on the objects modulo [O] = 0 and, per square
    (A, B, C, D), the relation [A] + [D] - [B] - [C] = 0, built as sparse
    rows, then the ``extra`` rows, each given as (index, coefficient)
    pairs.  A repeated square is kept as one more row; it reduces to zero
    and leaves the group as it was."""
    relations = [{p.basepoint: 1}]
    for q in p.squares:
        rel: dict[int, int] = {}
        for i, x in zip(q, (1, -1, -1, 1)):
            rel[i] = rel.get(i, 0) + x
        relations.append(rel)
    relations.extend(map(dict, extra))
    return AbGroupPresentation.make(p.objects, relations)


# ---------------------------------------------------------------------------
# The truncated surface instance
# ---------------------------------------------------------------------------


# Largest number of classes a caps request may span.  Class lists, union
# squares and the relation lattice all grow with it.  The acceptance run and
# the benchmark reach (4,3,3), 1,771 classes, and the tests (6,4,3).  A cold
# k0 takes about 45-80 ms at (5,3,3), 2,925 classes, and about 0.12-0.17 s
# at (6,4,3), 8,436 classes (Python 3.11.7, one process on a 2-vCPU x86-64
# host, three fresh runs each).
MAX_CLASSES = 10_000


def multiset_count(types: int, most: int) -> int:
    """Multisets of at most ``most`` items from ``types`` kinds, the empty
    one included: sum over k <= most of C(types + k - 1, k).  The sum stops
    once it passes MAX_CLASSES, so huge arguments cost a few steps; a result
    above MAX_CLASSES is then a lower bound."""
    types, most = max(types, 0), max(most, 0)
    if types <= 1:
        return 1 + most * types
    total = term = 1
    for k in range(1, most + 1):
        term = term * (types + k - 1) // k
        total += term
        if total > MAX_CLASSES:
            break
    return total


def refuse_oversized(caps: Caps) -> None:
    """Raise ValueError, before anything is enumerated, when the caps span
    more than MAX_CLASSES classes: multisets of at most ``components`` of
    the (genus+1)(boundary+1) connected types."""
    types = max(caps.genus + 1, 0) * max(caps.boundary + 1, 0)
    count = multiset_count(types, caps.components)
    if count > MAX_CLASSES:
        raise ValueError(
            f"caps {caps.genus},{caps.boundary},{caps.components} span at least "
            f"{count} classes, above the ceiling of {MAX_CLASSES}"
        )


def connected_types(caps: Caps) -> list[tuple[int, int]]:
    return [
        (g, b)
        for g in range(caps.genus + 1)
        for b in range(caps.boundary + 1)
    ]


def classes_of_types(types, components: int) -> list[DiffeoClass]:
    """All disjoint unions of at most ``components`` connected types, the
    empty class included, ordered by descending component count (the empty
    class comes last)."""
    out = [DiffeoClass.empty()]
    for k in range(1, components + 1):
        for combo in itertools.combinations_with_replacement(types, k):
            out.append(DiffeoClass.from_pairs(combo))
    out.sort(key=lambda c: (-c.component_count, c.components))
    return out


def classes_within(caps: Caps) -> list[DiffeoClass]:
    """All diffeomorphism classes within the caps, the empty class included,
    ordered by descending component count (the empty class comes last)."""
    return classes_of_types(connected_types(caps), caps.components)


def within_caps(cls: DiffeoClass, caps: Caps) -> bool:
    if cls.component_count > caps.components:
        return False
    return all(g <= caps.genus and b <= caps.boundary for g, b in cls.components)


def union_squares(index: dict, caps: Caps) -> tuple[list[tuple[int, int, int, int]], int, int]:
    """Disjoint-union squares spanning the union relations over the classes
    of ``index`` (class -> object index, in object order): one square
    (empty, X without its last component, last component, X) per class X
    of two or more components.  By induction on the component count they
    give [X] = the sum of X's components, hence [A|B] = [A] + [B] for every
    pair whose union stays within the caps.

    Returns the squares, the count of such fitting pairs (the category's
    union squares) and the count of pairs skipped for leaving the caps.
    The classes must lie within the caps, by descending component count as
    ``classes_of_types`` orders them: then the partners B that fit next to
    A form a suffix of the list, so both counts come from one bisection per
    class, without building the pairs."""
    basepoint = index[DiffeoClass.empty()]
    nonempty = [c for c in index if not c.is_empty]
    neg_counts = [-c.component_count for c in nonempty]
    n = len(nonempty)
    squares = []
    fitting = 0
    for i, x in enumerate(nonempty):
        first = bisect_left(neg_counts, x.component_count - caps.components)
        fitting += n - max(i, first)
        if x.component_count > 1:
            rest, last = DiffeoClass(x.components[:-1]), DiffeoClass(x.components[-1:])
            squares.append((basepoint, index[rest], index[last], index[x]))
    return squares, fitting, n * (n + 1) // 2 - fitting


def glue_connected(m1: tuple[int, int], m2: tuple[int, int], k: int) -> tuple[int, int]:
    """Class of two connected pieces glued along k boundary-circle pairs:
    one circle merges the pieces, each further circle adds a handle."""
    g1, b1 = m1
    g2, b2 = m2
    if k < 1 or k > min(b1, b2):
        raise ValueError("invalid circle count for gluing")
    return (g1 + g2 + k - 1, b1 + b2 - 2 * k)


ANNULUS = (0, 2)


@dataclass(frozen=True)
class SurfaceSquares:
    """A truncated cut-and-paste group: classes in object order, the
    squares that present it, ``square_count``, the category's squares within
    the caps (the presented squares span their relations), the count
    skipped for leaving the caps, and ``relations``, rows beyond the
    squares' own as (index, coefficient) pairs (none for K0 of the
    squares).  Every field is a tuple or a count, so the record stays
    hashable."""

    caps: Caps
    presentation: SquaresPresentation
    classes: tuple[DiffeoClass, ...]
    square_count: int
    skipped: int
    relations: tuple[tuple[tuple[int, int], ...], ...] = ()

    @cached_property
    def group(self) -> AbGroupPresentation:
        return k0_presentation(self.presentation, self.relations)

    @property
    def free_rank(self) -> int:
        return self.group.quotient_invariants()[0]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.group.quotient_invariants()[1]

    @cached_property
    def coordinates(self) -> dict[str, NormalForm]:
        """Class label -> normal form of its generator."""
        group = self.group
        return {label: group.element_normal_form({i: 1}) for i, label in enumerate(group.generators)}

    def coordinate_of(self, cls: DiffeoClass) -> NormalForm:
        return self.coordinates[cls.label()]

    def to_lines(self) -> list[str]:
        return [
            f"caps={self.caps.genus},{self.caps.boundary},{self.caps.components}",
            f"objects={len(self.classes)}",
            f"squares={self.square_count}",
            f"free_rank={self.free_rank}",
            f"torsion={list(self.torsion)}",
        ]


@lru_cache(maxsize=None)
def surface_squares_presentation(caps: Caps) -> SurfaceSquares:
    """The truncated category-with-squares instance for compact oriented
    surfaces with boundary, built once per caps.

    Squares are (i) disjoint-union squares (empty, A, B, A|B) and (ii)
    collar squares (annulus stack, M, M', glued result) for connected M, M'
    and every circle count that stays within the caps; entries that would
    leave the caps are skipped and counted.  The presentation lists the
    collar squares and the spanning union squares of ``union_squares``,
    which present the same group as every fitting pair; ``square_count``
    counts the category's squares of both kinds.
    """
    caps = Caps(*caps)
    if min(caps) < 1:
        raise ValueError("caps must be at least (1,1,1)")
    refuse_oversized(caps)
    classes = classes_within(caps)
    index = {c: i for i, c in enumerate(classes)}
    squares, square_count, skipped = union_squares(index, caps)

    # collar squares between connected pieces
    types = [t for t in connected_types(caps) if t[1] >= 1]
    for x, m1 in enumerate(types):
        for m2 in types[x:]:
            for k in range(1, min(m1[1], m2[1], caps.components) + 1):
                glued = glue_connected(m1, m2, k)
                collar = DiffeoClass.from_pairs([ANNULUS] * k)
                d_cls = DiffeoClass.from_pairs([glued])
                if not (within_caps(d_cls, caps) and within_caps(collar, caps)):
                    skipped += 1
                    continue
                squares.append(
                    (
                        index[collar],
                        index[DiffeoClass.from_pairs([m1])],
                        index[DiffeoClass.from_pairs([m2])],
                        index[d_cls],
                    )
                )
                square_count += 1

    pres = SquaresPresentation(
        objects=tuple(c.label() for c in classes),
        basepoint=index[DiffeoClass.empty()],
        squares=tuple(squares),
    )
    return SurfaceSquares(caps, pres, tuple(classes), square_count, skipped)


def k0_of_surfaces(caps: Caps) -> SurfaceSquares:
    """The with-boundary group at caps of at least (2,2,2), where K0 is
    free of rank two."""
    caps = Caps(*caps)
    if caps.genus < 2 or caps.boundary < 2 or caps.components < 2:
        raise ValueError("k0_of_surfaces needs caps of at least (2,2,2)")
    return surface_squares_presentation(caps)
