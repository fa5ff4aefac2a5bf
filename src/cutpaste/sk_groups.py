"""Scissors congruence groups of surfaces at a chosen truncation.

Two presentations are computed.  The with-boundary group reuses the
truncated gluing-square instance verbatim: its K0 presentation is the
with-boundary cut-and-paste group.  The closed group is presented on
closed classes with disjoint-union relations plus difference relations
[result of gluing phi] = [result of gluing psi] for every pair of gluing
patterns of the same two piece collections (pieces range over bounded
multisets of connected types, gluing all boundary circles).

The two groups sit in a short exact sequence with the free group on the
circle: closed classes include into with-boundary classes, and a
with-boundary class maps to its total boundary circle count.  Exactness is
verified lattice-exactly at the truncation, with a constructive doubling
witness for the middle-kernel argument: for M, N with diffeomorphic
boundaries, [M] - [N] = [double of M] - [N glued to reversed M].  That
witness, the equivalence decision and the cylinder regluing collapse read
(chi, b) coordinates, which the with-boundary group maps injectively at
every caps, so they build no group and have no class ceiling.

Move witnesses are sequences of cut-and-paste operations over a canonical
circle family (handle seams and disk-bounding circles of the standard
library surfaces); search is breadth-first and returns the first witness
in deterministic order, never claiming inequivalence on exhaustion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .abgroup import AbGroupPresentation, AbHom, NormalForm, check_exact_at
from .classes import DiffeoClass, NonSeparatingCut, SurfaceError
from .squares_k0 import (
    MAX_CLASSES,
    Caps,
    SquaresPresentation,
    classes_of_types,
    k0_presentation,
    multiset_count,
    refuse_oversized,
    surface_squares_presentation,
    union_squares,
)

# The groups and their exact sequence need no triangulations, so this module
# does not load ``surface``: the functions that build surfaces import from it
# when called, and ``TriSurface`` (``cutpaste.surface.TriSurface``) appears
# only in annotations, which ``from __future__ import annotations`` leaves
# unevaluated.

CIRCLE_LABEL = "[S^1]"

# piece enumeration bound for the closed-group gluing relations: patterns
# that differ only beyond four glued circles are consequences of smaller ones
# (the tests check that a bound of five leaves the (3,3,3) group unchanged)
_MAX_GLUED_CIRCLES = 4
_MAX_PIECE_COMPONENTS = 3


@dataclass(frozen=True)
class SKPresentation:
    group: AbGroupPresentation
    classes: tuple[DiffeoClass, ...]

    def vector_of(self, combo) -> list[int]:
        """Integer vector of a formal sum given as (class, coefficient) pairs
        (repeated classes accumulate)."""
        vec = [0] * len(self.group.generators)
        for cls, coeff in combo:
            vec[self.group.generator_index[cls.label()]] += coeff
        return vec

    def coordinate_of(self, cls: DiffeoClass) -> NormalForm:
        return self.group.element_normal_form(self.vector_of([(cls, 1)]))


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


def _bounded_compositions(total: int, bounds: tuple[int, ...]):
    """Every tuple x with sum(x) == total and 0 <= x[j] <= bounds[j]."""
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for x in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - x, bounds[1:]):
            yield (x,) + rest


def _degree_tables(row_sums: tuple[int, ...], col_sums: tuple[int, ...]):
    """Every nonnegative integer matrix, as a tuple of rows, with the given
    row and column sums (whose totals must agree)."""
    if not row_sums:
        yield ()
        return
    for row in _bounded_compositions(row_sums[0], col_sums):
        rest = tuple(c - x for c, x in zip(col_sums, row))
        for tail in _degree_tables(row_sums[1:], rest):
            yield (row,) + tail


@lru_cache(maxsize=None)
def _block_partitions(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> tuple:
    """The distinct ways the degree tables with these margins split their
    row and column nodes (rows 0..p-1, then columns p..p+q-1) into
    connected blocks, each a tuple of nodes."""
    p = len(row_sums)
    out = set()
    for table in _degree_tables(row_sums, col_sums):
        root = list(range(p + len(col_sums)))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for i, row in enumerate(table):
            for j, x in enumerate(row):
                if x:
                    root[find(p + j)] = find(i)
        blocks: dict[int, list[int]] = {}
        for node in range(len(root)):
            blocks.setdefault(find(node), []).append(node)
        out.add(tuple(sorted(tuple(b) for b in blocks.values())))
    return tuple(sorted(out))


def _gluing_results(left, right, caps: Caps) -> set[DiffeoClass]:
    """All closed classes obtainable by gluing every circle of the left
    pieces to a circle of the right pieces, truncated to the caps.

    A gluing pattern is its degree table: how many circles of left piece i
    are glued to right piece j.  Gluing along circles adds Euler
    characteristics and every circle is glued, so each connected block of
    the table is a closed surface whose chi is the sum over its pieces."""
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


@lru_cache(maxsize=None)
def closed_sk_presentation(caps: Caps) -> SKPresentation:
    """Cut-and-paste group of closed oriented surfaces at the truncation:
    the K0 presentation of the closed disjoint-union squares plus the
    gluing-difference relations.  Caps spanning more than MAX_CLASSES
    with-boundary classes, or gluing-piece multisets, are refused before
    anything is enumerated."""
    caps = Caps(*caps)
    refuse_oversized(caps)
    pieces = multiset_count((caps.genus + 1) * _MAX_GLUED_CIRCLES, _MAX_PIECE_COMPONENTS) - 1
    if pieces > MAX_CLASSES:
        raise ValueError(
            f"caps {caps.genus},{caps.boundary},{caps.components} need at least {pieces} "
            f"gluing-piece multisets, above the ceiling of {MAX_CLASSES}"
        )
    classes = classes_of_types([(g, 0) for g in range(caps.genus + 1)], caps.components)
    index = {c: i for i, c in enumerate(classes)}
    squares, _ = union_squares(index, caps)
    unions = k0_presentation(
        SquaresPresentation(
            objects=tuple(c.label() for c in classes),
            basepoint=index[DiffeoClass.empty()],
            squares=tuple(squares),
        )
    )
    relations = list(unions.rows)
    pieces = _piece_multisets(caps)
    for m, combos in sorted(pieces.items()):
        for x, left in enumerate(combos):
            for right in combos[x:]:
                results = sorted(_gluing_results(left, right, caps))
                for r1, r2 in zip(results, results[1:]):
                    relations.append({index[r1]: 1, index[r2]: -1})
    group = AbGroupPresentation.make(unions.generators, relations)
    return SKPresentation(group=group, classes=tuple(classes))


def boundary_sk_presentation(caps: Caps) -> SKPresentation:
    """Cut-and-paste group of surfaces with boundary: the K0 group of the
    truncated gluing-square instance, shared with ``k0_of_surfaces``."""
    inst = surface_squares_presentation(Caps(*caps))
    return SKPresentation(group=inst.group, classes=inst.classes)


def circles_group() -> AbGroupPresentation:
    """Free abelian group on the circle: every closed oriented 1-manifold is
    a disjoint union of circles and bounds."""
    return AbGroupPresentation.free([CIRCLE_LABEL])


def closed_inclusion_hom(caps: Caps) -> AbHom:
    """Closed classes included into the with-boundary group."""
    closed = closed_sk_presentation(Caps(*caps))
    bdry = boundary_sk_presentation(Caps(*caps))
    return AbHom.on_generators(
        closed.group, bdry.group, lambda label: {label: 1}
    )


def boundary_count_hom(caps: Caps) -> AbHom:
    """A with-boundary class maps to (number of boundary circles) [S^1]."""
    return _boundary_count_on(boundary_sk_presentation(Caps(*caps)).group)


def _boundary_count_on(bdry: AbGroupPresentation) -> AbHom:
    return AbHom.on_generators(
        bdry,
        circles_group(),
        lambda label: {CIRCLE_LABEL: DiffeoClass.from_label(label).boundary_circles},
    )


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


def verify_exact_sequence(caps: Caps) -> ExactSequenceReport:
    """Check 0 -> closed -> with-boundary -> circles -> 0 at the truncation."""
    caps = Caps(*caps)
    alpha = closed_inclusion_hom(caps)
    beta = _boundary_count_on(alpha.target)
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


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


def double_surface(m: TriSurface) -> TriSurface:
    """Glue m to its orientation reversal along the whole boundary by the
    identity correspondence of boundary edges."""
    from .surface import _Builder, _glue_ref_pairs

    b = _Builder.from_surface(m)
    place = b.add_surface(m, mirrored=True)
    _glue_ref_pairs(b, [(ref, place(ref)) for ref in m.boundary_refs])
    out, _ = b.finish()
    return out.require_valid()


def glue_to_mirror(n: TriSurface, m: TriSurface) -> TriSurface:
    """Glue n to the orientation reversal of m along a canonical matching of
    their boundary cycles (cycle lengths are equalized by refinement)."""
    from .surface import _Builder, _order_cycle, _paste_cycles_raw, _refine_cycle_raw

    if n.boundary_circle_count() != m.boundary_circle_count():
        raise SurfaceError("boundary circle counts differ; cannot glue")
    b = _Builder.from_surface(n)
    place = b.add_surface(m, mirrored=True)
    n_cycles = [list(cyc) for cyc in n.boundary_cycles]
    m_cycles = [[place(r) for r in cyc] for cyc in m.boundary_cycles]
    for left, right in zip(n_cycles, m_cycles):
        target = max(len(left), len(right))
        _refine_cycle_raw(b, left, target)
        _refine_cycle_raw(b, right, target)
    for left, right in zip(n_cycles, m_cycles):
        lcyc = _order_cycle(b.endpoints, left)
        rcyc = _order_cycle(b.endpoints, right)
        _paste_cycles_raw(b, lcyc, rcyc, 0)
    out, _ = b.finish()
    return out.require_valid()


@dataclass(frozen=True)
class DoublingWitness:
    original: DiffeoClass
    other: DiffeoClass
    double: DiffeoClass
    glued: DiffeoClass
    difference_matches: bool

    @property
    def certified(self) -> bool:
        return self.difference_matches and self.double.is_closed and self.glued.is_closed

    def to_lines(self) -> list[str]:
        return [
            f"m={self.original.label()} n={self.other.label()}",
            f"double={self.double.label()} glued={self.glued.label()}",
            f"closed={'PASS' if self.double.is_closed and self.glued.is_closed else 'FAIL'}",
            f"difference={'PASS' if self.difference_matches else 'FAIL'}",
        ]


def _chi_b(plus: DiffeoClass, minus: DiffeoClass) -> tuple[int, int]:
    """The (chi, b) coordinates of [plus] - [minus] in the with-boundary
    group, which (chi, b) maps injectively at every caps (see
    ``decide_equivalent``)."""
    return plus.chi - minus.chi, plus.boundary_circles - minus.boundary_circles


def doubling_witness(m: TriSurface, n: TriSurface) -> DoublingWitness:
    """Constructive middle-kernel witness: builds the double DM and the
    cross-gluing L = N glued to reversed M, then certifies
    [M] - [N] = [DM] - [L] in (chi, b) coordinates.  No group is built, so
    no class ceiling applies."""
    if m.boundary_circle_count() != n.boundary_circle_count():
        raise SurfaceError(
            "boundaries are not diffeomorphic (circle counts differ)"
        )
    dm = double_surface(m)
    glued = glue_to_mirror(n, m)
    cls_m, cls_n = m.classify(), n.classify()
    cls_dm, cls_l = dm.classify(), glued.classify()
    return DoublingWitness(
        original=cls_m,
        other=cls_n,
        double=cls_dm,
        glued=cls_l,
        difference_matches=_chi_b(cls_m, cls_n) == _chi_b(cls_dm, cls_l),
    )


# ---------------------------------------------------------------------------
# Equivalence decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceDecision:
    equivalent: bool
    left: DiffeoClass
    right: DiffeoClass
    chi: tuple[int, int]
    boundary_circles: tuple[int, int]

    def to_lines(self) -> list[str]:
        return [
            f"left={self.left.label()} right={self.right.label()}",
            f"chi={self.chi[0]},{self.chi[1]} boundary={self.boundary_circles[0]},{self.boundary_circles[1]}",
            f"equivalent={'yes' if self.equivalent else 'no'}",
        ]


def decide_equivalent(m: TriSurface, n: TriSurface) -> EquivalenceDecision:
    """Cut-and-paste equivalence of two surfaces, decided by (chi, b).

    A collar square glues M to M' along k circles, which keeps chi and loses
    2k boundary circles, and adds k annuli (chi 0, b 2k); so (chi, b) adds up
    on it and on every disjoint-union square, and is a homomorphism out of
    the truncated with-boundary group at every caps.  Acceptance criterion 4
    and the tests' lattice oracle compute that it is injective there.  No
    group is built here, so no class ceiling applies."""
    cls_m, cls_n = m.classify(), n.classify()
    chi, circles = (cls_m.chi, cls_n.chi), (cls_m.boundary_circles, cls_n.boundary_circles)
    return EquivalenceDecision(
        equivalent=chi[0] == chi[1] and circles[0] == circles[1],
        left=cls_m, right=cls_n, chi=chi, boundary_circles=circles,
    )


# ---------------------------------------------------------------------------
# Move witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class CircleSpec:
    """Names a canonical circle on a library surface of a class."""

    component: int
    kind: str  # "seam" | "null"
    index: int


@dataclass(frozen=True)
class MoveStep:
    circles: tuple[CircleSpec, ...]
    pairing: tuple[int, ...]


@dataclass(frozen=True)
class MoveWitness:
    start: DiffeoClass
    steps: tuple[MoveStep, ...]
    end: DiffeoClass


class SearchExhausted(SurfaceError):
    """The bounded witness search ran out of budget; says nothing about
    inequivalence."""


def _resolve_circles(cls: DiffeoClass):
    from .surface import library_for_class

    surf, entries = library_for_class(cls)
    mapping = {}
    for comp, ent in enumerate(entries):
        for i, c in enumerate(ent.seams):
            mapping[CircleSpec(comp, "seam", i)] = c
        for i, c in enumerate(ent.nulls):
            mapping[CircleSpec(comp, "null", i)] = c
    return surf, mapping


def apply_move(cls: DiffeoClass, step: MoveStep) -> DiffeoClass:
    """Apply a named cut-and-paste move to (the library surface of) a class."""
    from .surface import sk_system_move

    surf, mapping = _resolve_circles(cls)
    circles = [mapping[spec] for spec in step.circles]
    moved = sk_system_move(surf, circles, pairing=step.pairing)
    return moved.classify()


def replay_witness(w: MoveWitness) -> DiffeoClass:
    cls = w.start
    for step in w.steps:
        cls = apply_move(cls, step)
    return cls


def _candidate_moves(cls: DiffeoClass) -> list[MoveStep]:
    _, mapping = _resolve_circles(cls)
    specs = sorted(mapping)
    moves = []
    for a, b in itertools.combinations(specs, 2):
        moves.append(MoveStep(circles=(a, b), pairing=(1, 0)))
    return moves


def find_witness(m: TriSurface, n: TriSurface, budget: int) -> MoveWitness:
    """Bounded breadth-first search for a cut-and-paste move sequence taking
    the class of m to the class of n.  Raises SearchExhausted when the
    budget runs out; the witness, when found, replays deterministically."""
    start = m.classify()
    target = n.classify()
    if start == target:
        return MoveWitness(start=start, steps=(), end=target)
    comp_bound = max(start.component_count, target.component_count) + max(budget, 0)
    parents: dict[DiffeoClass, tuple[DiffeoClass, MoveStep] | None] = {start: None}
    frontier = [start]
    depth = 0
    while frontier and depth < budget:
        depth += 1
        next_frontier = []
        for cls in frontier:
            for step in _candidate_moves(cls):
                try:
                    out = apply_move(cls, step)
                except NonSeparatingCut:
                    continue
                if out in parents or out.component_count > comp_bound:
                    continue
                parents[out] = (cls, step)
                if out == target:
                    steps = []
                    cur = out
                    while parents[cur] is not None:
                        prev, st = parents[cur]
                        steps.append(st)
                        cur = prev
                    return MoveWitness(
                        start=start, steps=tuple(reversed(steps)), end=target
                    )
                next_frontier.append(out)
        frontier = next_frontier
    raise SearchExhausted(
        f"no witness within {budget} moves (this does not prove inequivalence)"
    )


# ---------------------------------------------------------------------------
# Cylinder regluing collapse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderRegluingReport:
    circle_count: int
    first_pairing: tuple[int, ...]
    second_pairing: tuple[int, ...]
    first_class: DiffeoClass
    second_class: DiffeoClass
    coordinates_equal: bool

    @property
    def certified(self) -> bool:
        return self.first_class == self.second_class and self.coordinates_equal

    def to_lines(self) -> list[str]:
        return [
            f"circles={self.circle_count}",
            f"first_pairing={list(self.first_pairing)} class={self.first_class.label()}",
            f"second_pairing={list(self.second_pairing)} class={self.second_class.label()}",
            f"collapse={'PASS' if self.certified else 'FAIL'}",
        ]


def _glue_cylinder_stacks(k: int, pairing, offsets=None) -> TriSurface:
    """Concrete gluing of k annuli onto k annuli: annulus i's far cycle is
    glued to annulus (k + pairing[i])'s near cycle."""
    from .surface import _Builder, _order_cycle, _paste_cycles_raw

    offsets = list(offsets) if offsets is not None else [0] * k
    b = _Builder()
    cycles_near = []
    cycles_far = []
    length = 3
    for _ in range(2 * k):
        a_row = [b.new_vertex() for _ in range(length)]
        b_row = [b.new_vertex() for _ in range(length)]
        base = b.annulus_strip(a_row, b_row)
        cycles_near.append([(base + 2 * i, 2) for i in range(length)])
        cycles_far.append([(base + 2 * i + 1, 0) for i in range(length)])
    for i in range(k):
        left = _order_cycle(b.endpoints, cycles_far[i])
        right = _order_cycle(b.endpoints, cycles_near[k + pairing[i]])
        _paste_cycles_raw(b, left, right, offsets[i])
    out, _ = b.finish()
    return out.require_valid()


def skk_collapse_check(
    circle_count: int,
    first_pairing,
    second_pairing,
    first_offsets=None,
    second_offsets=None,
) -> CylinderRegluingReport:
    """Certify that regluing cylinder stacks by two different pairings gives
    the same class, with equal (chi, b) coordinates, so the
    controlled-regluing difference terms vanish and the refined relation
    collapses onto the plain cut-and-paste relation.  No group is built, so
    no class ceiling applies."""
    k = int(circle_count)
    if k < 1:
        raise ValueError("need at least one circle")
    first = tuple(first_pairing)
    second = tuple(second_pairing)
    for p in (first, second):
        if sorted(p) != list(range(k)):
            raise ValueError("pairing must be a permutation of the circles")
    s1 = _glue_cylinder_stacks(k, first, first_offsets)
    s2 = _glue_cylinder_stacks(k, second, second_offsets)
    c1, c2 = s1.classify(), s2.classify()
    return CylinderRegluingReport(
        circle_count=k,
        first_pairing=first,
        second_pairing=second,
        first_class=c1,
        second_class=c2,
        coordinates_equal=_chi_b(c1, c2) == (0, 0),
    )
