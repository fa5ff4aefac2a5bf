"""Scissors congruence groups of surfaces at a chosen truncation.

Both groups are ``squares_k0.SurfaceSquares`` records.  The with-boundary
group is the truncated gluing-square instance itself
(``surface_squares_presentation``): its K0 presentation is the
with-boundary cut-and-paste group.  The closed group is presented on
closed classes with disjoint-union relations plus difference relations
[result of gluing phi] = [result of gluing psi] for every pair of gluing
patterns of the same two piece collections (pieces range over bounded
multisets of connected types, gluing all boundary circles).  Both kinds
are presented by spanning rows: the union squares of ``union_squares``,
and a spanning forest of the difference relations, which the record
carries as its extra relation rows.

The two groups sit in a short exact sequence with the free group on the
circle: closed classes include into with-boundary classes, and a
with-boundary class maps to its total boundary circle count.  Exactness is
verified lattice-exactly at the truncation.

This module is the group layer only and loads no triangulation code.  The
operations on triangulated surfaces -- the doubling witness for the
middle-kernel argument, the equivalence decision, the move-witness search
and the cylinder regluing collapse -- live in ``surface``, next to the
builder they use.  Their names read from here (``sk_groups.find_witness``)
load ``surface`` on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import _forwarder
from .abgroup import AbGroupPresentation, AbHom, IntMatrix, check_exact_at
from .classes import DiffeoClass
from .squares_k0 import (
    MAX_CLASSES,
    Caps,
    SquaresPresentation,
    SurfaceSquares,
    classes_of_types,
    multiset_count,
    refuse_oversized,
    surface_squares_presentation,
    union_squares,
)

__getattr__ = _forwarder(globals(), dict.fromkeys(
    (
        "CircleSpec", "CylinderRegluingReport", "DoublingWitness", "EquivalenceDecision",
        "MoveStep", "MoveWitness", "SearchExhausted", "apply_move", "decide_equivalent",
        "double_surface", "doubling_witness", "find_witness", "glue_to_mirror",
        "replay_witness", "skk_collapse_check",
    ),
    "cutpaste.surface",
))

CIRCLE_LABEL = "[S^1]"

# piece enumeration bound for the closed-group gluing relations: patterns
# that differ only beyond four glued circles are consequences of smaller ones
# (the tests check that a bound of five leaves the (3,3,3) group unchanged)
_MAX_GLUED_CIRCLES = 4
# and pieces of at most three components: over every piece pair at (3,3,3),
# a fourth adds outcome pairs (302 to 481) but no distinct gluing row, and
# leaves every class's normal form unchanged
# (test_fourth_piece_component_adds_no_closed_relation)
_MAX_PIECE_COMPONENTS = 3


def _piece_multisets(caps: Caps):
    """Bounded multisets of connected pieces with boundary, keyed by their
    total boundary circle count."""
    types = [
        (g, b)
        for g in range(caps.genus + 1)
        for b in range(1, _MAX_GLUED_CIRCLES + 1)
    ]
    by_circles: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for k in range(1, _MAX_PIECE_COMPONENTS + 1):
        for combo in itertools.combinations_with_replacement(types, k):
            m = sum(b for _, b in combo)
            if m <= _MAX_GLUED_CIRCLES:
                by_circles.setdefault(m, []).append(combo)
    return by_circles


def _piece_pairs(caps: Caps):
    """The pairs x <= y of piece multisets with equal circle counts, with
    their total chi, in the closed build's visiting order: the most glued
    circles first, and within a circle count the most pieces first (a stable
    sort, so ``_piece_multisets`` order breaks ties)."""
    for _, combos in sorted(_piece_multisets(caps).items(), reverse=True):
        combos = sorted(combos, key=len, reverse=True)
        chis = [sum(2 - 2 * g - b for g, b in combo) for combo in combos]
        for x, left in enumerate(combos):
            for y in range(x, len(combos)):
                yield left, combos[y], chis[x] + chis[y]


@lru_cache(maxsize=None)
def _block_partitions(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> tuple:
    """The distinct ways gluing every circle of the left pieces (nodes
    0..p-1, with ``row_sums`` circles each) to a circle of the right pieces
    (nodes p.., with ``col_sums``) splits the pieces into connected blocks:
    a sorted tuple of partitions, each a sorted tuple of sorted node tuples.

    Every piece has a circle.  A partition arises exactly when each block
    holds as many left circles as right circles, L, and L >= n - 1 for its
    n pieces.  Every circle is glued inside its block, and a connected
    block of n pieces needs n - 1 glued pairs.  Conversely, a bipartite
    tree with any degrees >= 1 that sum to n - 1 on each side exists
    (remove a leaf and induct), each side of the block can give its pieces
    such tree degrees within their circle counts since L >= n - 1, and the
    spare circles are glued in pairs inside the block."""
    circles = row_sums + col_sums
    signed = [b if x < len(row_sums) else -b for x, b in enumerate(circles)]

    def split(rest):
        # the block of the least unplaced node, then the rest
        if not rest:
            yield ()
            return
        for k in range(len(rest)):
            for mates in itertools.combinations(rest[1:], k):
                block = rest[:1] + mates
                if sum(signed[x] for x in block) == 0 and sum(circles[x] for x in block) >= 2 * len(block) - 2:
                    others = tuple(x for x in rest[1:] if x not in mates)
                    for tail in split(others):
                        yield (block,) + tail

    return tuple(sorted(split(tuple(range(len(circles))))))


def _gluing_results(left, right, caps: Caps) -> set[DiffeoClass]:
    """All closed classes obtainable by gluing every circle of the left
    pieces to a circle of the right pieces, truncated to the caps.

    A gluing pattern matters only through the blocks of pieces it
    connects (``_block_partitions``).  Gluing along circles adds Euler
    characteristics and every circle is glued, so each block is a closed
    connected surface whose chi is the sum over its pieces."""
    chis = [2 - 2 * g - b for g, b in left + right]
    # Every piece has a boundary circle, so each glued component holds a
    # left and a right piece: there are at most k of them, and within the
    # caps each has chi >= 2 - 2 * genus.
    k = min(len(left), len(right), caps.components)
    floor = 2 - 2 * caps.genus
    if sum(chis) < min(floor, k * floor):
        return set()
    found = set()
    for blocks in _block_partitions(tuple(b for _, b in left), tuple(b for _, b in right)):
        if len(blocks) > caps.components:
            continue
        genera = []
        for block in blocks:
            chi = 0
            for x in block:
                chi += chis[x]
            if chi < floor:  # genus above the caps
                break
            genera.append((2 - chi) // 2)
        else:
            genera.sort()
            found.add(tuple(genera))
    return {DiffeoClass(tuple((g, 0) for g in genera)) for genera in found}


def _refuse_oversized_closed(caps: Caps) -> None:
    """Raise ValueError when the caps span more than MAX_CLASSES
    with-boundary classes or gluing-piece multisets."""
    refuse_oversized(caps)
    pieces = multiset_count((caps.genus + 1) * _MAX_GLUED_CIRCLES, _MAX_PIECE_COMPONENTS) - 1
    if pieces > MAX_CLASSES:
        raise ValueError(
            f"caps {caps.genus},{caps.boundary},{caps.components} need at least {pieces} "
            f"gluing-piece multisets, above the ceiling of {MAX_CLASSES}"
        )


@lru_cache(maxsize=None)
def closed_sk_presentation(caps: Caps) -> SurfaceSquares:
    """Cut-and-paste group of closed oriented surfaces at the truncation:
    the closed classes and their spanning union squares, with a spanning
    forest of the gluing-difference relations as the record's extra rows.
    The piece pairs are visited richest first (``_piece_pairs``), and the
    walk stops once the forest joins every chi level into one tree, which
    leaves the lattice of the rows unchanged (see below).
    Caps spanning more than MAX_CLASSES with-boundary classes, or
    gluing-piece multisets, are refused before anything is enumerated."""
    caps = Caps(*caps)
    _refuse_oversized_closed(caps)
    classes = classes_of_types([(g, 0) for g in range(caps.genus + 1)], caps.components)
    index = {c: i for i, c in enumerate(classes)}
    squares, square_count, skipped = union_squares(index, caps)
    # Every result of a piece pair has the pair's chi, so the difference rows
    # join classes of one chi level.  A row is kept only when it joins two
    # trees of a union-find: a spanning forest generates the lattice of all
    # the rows.  Once a level is one tree, every difference of two of its
    # classes is a sum of forest rows along the tree path, so any row its
    # pairs could still give is already in the lattice: the pair is skipped,
    # and the walk stops when ``split``, the count of levels of more than one
    # tree, reaches 0.  A level that never joins keeps the walk to the end.
    # Pairs with more glued circles and more pieces give more results, so
    # ``_piece_pairs`` visits them first and the levels join early.
    parent = list(range(len(classes)))
    trees: dict[int, int] = {}
    for c in classes:
        if not c.is_empty:
            trees[c.chi] = trees.get(c.chi, 0) + 1
    split = sum(1 for n in trees.values() if n > 1)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    relations = []
    for left, right, chi in _piece_pairs(caps):
        if not split:
            break
        if trees.get(chi, 0) <= 1:
            continue
        results = [index[r] for r in sorted(_gluing_results(left, right, caps))]
        for r1, r2 in zip(results, results[1:]):
            a, b = find(r1), find(r2)
            if a != b:
                parent[a] = b
                trees[chi] -= 1
                relations.append(((r1, 1), (r2, -1)))
        if trees[chi] == 1:
            split -= 1
    pres = SquaresPresentation(
        objects=tuple(c.label() for c in classes),
        basepoint=index[DiffeoClass.empty()],
        squares=tuple(squares),
    )
    return SurfaceSquares(caps, pres, tuple(classes), square_count, skipped, tuple(relations))


def circles_group() -> AbGroupPresentation:
    """Free abelian group on the circle: every closed oriented 1-manifold is
    a disjoint union of circles and bounds."""
    return AbGroupPresentation.free([CIRCLE_LABEL])


def closed_inclusion_hom(caps: Caps) -> AbHom:
    """Closed classes included into the with-boundary group: closed class i
    goes to that class's position in the with-boundary ``classes``."""
    closed = closed_sk_presentation(Caps(*caps))
    bdry = surface_squares_presentation(Caps(*caps))
    columns = [{} for _ in bdry.classes]
    position = {c: j for j, c in enumerate(bdry.classes)}
    for i, c in enumerate(closed.classes):
        columns[position[c]] = {i: 1}
    matrix = IntMatrix.from_columns(len(closed.classes), len(columns), columns)
    return AbHom(closed.group, bdry.group, matrix)


def boundary_count_hom(bdry: SurfaceSquares) -> AbHom:
    """A class of the with-boundary record ``bdry`` maps to (number of
    boundary circles) [S^1]."""
    column = {i: c.boundary_circles for i, c in enumerate(bdry.classes) if c.boundary_circles}
    return AbHom(bdry.group, circles_group(), IntMatrix.from_columns(len(bdry.classes), 1, [column]))


@dataclass(frozen=True)
class ExactSequenceReport:
    caps: Caps
    closed_invariants: tuple[int, tuple[int, ...]]
    boundary_invariants: tuple[int, tuple[int, ...]]
    inclusion_injective: bool
    exact_at_middle: bool
    count_surjective: bool
    composite_zero: bool

    @property
    def passed(self) -> bool:
        return (
            self.inclusion_injective
            and self.exact_at_middle
            and self.count_surjective
            and self.composite_zero
        )

    def to_lines(self) -> list[str]:
        cr, ct = self.closed_invariants
        br, bt = self.boundary_invariants
        return [
            f"caps={self.caps.genus},{self.caps.boundary},{self.caps.components}",
            f"closed_group=Z^{cr}" + "".join(f"+Z/{d}" for d in ct),
            f"boundary_group=Z^{br}" + "".join(f"+Z/{d}" for d in bt),
            f"inclusion_injective={'PASS' if self.inclusion_injective else 'FAIL'}",
            f"exact_at_middle={'PASS' if self.exact_at_middle else 'FAIL'}",
            f"boundary_count_surjective={'PASS' if self.count_surjective else 'FAIL'}",
            f"composite_zero={'PASS' if self.composite_zero else 'FAIL'}",
        ]


# Least boundary cap at which verify_exact_sequence checks the sequence.
# Below it the annulus lies outside the caps, so the with-boundary
# presentation has no collar square and is not the cut-and-paste group.
MIN_EXACT_BOUNDARY = 2
# Least component cap.  Below it no disjoint-union square fits, so the closed
# record lacks relations such as [S_2] + [S^2] = 2[T] that the collar squares
# imply (two one-holed tori glue to S_2): at (2,2,1) and (3,2,1) the
# inclusion is not injective.
MIN_EXACT_COMPONENTS = 2


def verify_exact_sequence(caps: Caps) -> ExactSequenceReport:
    """Check 0 -> closed -> with-boundary -> circles -> 0 at the truncation.
    Caps above the ceilings, then a boundary cap below MIN_EXACT_BOUNDARY,
    then a component cap below MIN_EXACT_COMPONENTS, are refused with
    ValueError before anything is enumerated."""
    caps = Caps(*caps)
    _refuse_oversized_closed(caps)
    if caps.boundary < MIN_EXACT_BOUNDARY:
        raise ValueError(
            f"the exact sequence needs a boundary cap of at least {MIN_EXACT_BOUNDARY}, "
            f"got {caps.boundary}: below it the annulus lies outside the caps, "
            f"so the with-boundary group has no collar square"
        )
    if caps.components < MIN_EXACT_COMPONENTS:
        raise ValueError(
            f"the exact sequence needs a component cap of at least {MIN_EXACT_COMPONENTS}, "
            f"got {caps.components}: below it no disjoint-union square fits the caps, "
            f"so the closed group lacks relations that the collar squares imply"
        )
    alpha = closed_inclusion_hom(caps)
    beta = boundary_count_hom(surface_squares_presentation(caps))
    composite = beta.compose(alpha)
    return ExactSequenceReport(
        caps=caps,
        closed_invariants=alpha.source.quotient_invariants(),
        boundary_invariants=alpha.target.quotient_invariants(),
        inclusion_injective=alpha.is_injective(),
        exact_at_middle=check_exact_at(alpha, beta),
        count_surjective=beta.is_surjective(),
        composite_zero=composite.is_zero(),
    )
