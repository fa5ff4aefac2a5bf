"""K0 of finitely presented categories with squares.

The engine itself only consumes square quadruples: the group is the free
abelian group on the object list modulo [basepoint] = 0 and, for every
distinguished square (A, B, C, D), the relation [A] + [D] = [B] + [C].

On top of that sit two concrete providers:

* ``FiniteSquaresCategory`` plus ``check_lemma_hypotheses`` -- a finite
  category with chosen cofibration / cofiber-map subcategories whose
  axioms, and the side conditions under which the object-and-squares
  presentation computes K0, can be verified exhaustively.

* ``surface_squares_presentation`` -- the truncated gluing category of
  compact oriented surfaces with boundary: objects are diffeomorphism
  classes within caps, squares are the disjoint-union squares and the
  collar squares (annulus stack, piece, piece, glued result).  Collar
  squares are enumerated between connected pieces; gluings of disconnected
  objects decompose into these plus disjoint-union squares, which the
  computed group confirms (rank stabilizes at two).
  Its record, ``SurfaceSquares``, is the with-boundary cut-and-paste
  group (``k0_of_surfaces``); ``sk_groups`` presents the closed group as
  one too, with extra relation rows.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .abgroup import AbGroupPresentation, NormalForm, require_json_ints
from .classes import DiffeoClass


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
    pairs."""
    relations = [{p.basepoint: 1}]
    seen = set()
    for q in p.squares:
        if q in seen:
            continue
        seen.add(q)
        rel: dict[int, int] = {}
        for i, x in zip(q, (1, -1, -1, 1)):
            rel[i] = rel.get(i, 0) + x
        relations.append(rel)
    relations.extend(map(dict, extra))
    return AbGroupPresentation.make(p.objects, relations)


# ---------------------------------------------------------------------------
# Finite categories with squares: exhaustive hypothesis checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Morphism:
    name: str
    src: int
    tgt: int


@dataclass
class FiniteSquaresCategory:
    """Fully tabulated finite category with squares.

    ``squares`` holds (top, left, right, bottom) morphism indices for each
    distinguished square: top: A -> B and bottom: C -> D are cofibrations,
    left: A -> C and right: B -> D are cofiber maps.  ``coproducts`` maps
    object pairs to the coproduct object; ``morphism_coproducts`` maps
    morphism pairs to their coproduct morphism (both optional -- without
    them the coproduct-closure check reports as skipped).
    """

    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identities: tuple[int, ...]
    composition: dict
    cof: frozenset
    fib: frozenset
    basepoint: int
    squares: frozenset
    coproducts: dict | None = None
    morphism_coproducts: dict | None = None

    def compose(self, g: int, f: int) -> int | None:
        return self.composition.get((g, f))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_lines(self) -> list[str]:
        out = [f"check={c.name} status={c.status.upper()}" + (f" detail={c.detail}" if c.detail else "") for c in self.checks]
        out.append(f"hypotheses={'PASS' if self.passed else 'FAIL'}")
        return out


def _isomorphisms(cat: FiniteSquaresCategory) -> set[int]:
    isos = set()
    for f_idx, f in enumerate(cat.morphisms):
        for g_idx, g in enumerate(cat.morphisms):
            if g.src == f.tgt and g.tgt == f.src:
                if (
                    cat.compose(g_idx, f_idx) == cat.identities[f.src]
                    and cat.compose(f_idx, g_idx) == cat.identities[f.tgt]
                ):
                    isos.add(f_idx)
    return isos


def check_lemma_hypotheses(cat: FiniteSquaresCategory) -> HypothesisReport:
    """Exhaustively verify the squares-category axioms and the side
    conditions of the K0 presentation on the finite data.  Each check
    returns its first violation, in its loop order, as the failure's
    witness, or None when it passes; axiom 1 is skipped without coproduct
    tables."""
    mor = cat.morphisms
    objects = range(len(cat.objects))
    o = cat.basepoint

    # category sanity -------------------------------------------------------
    def identities_well_formed():
        for i, obj_id in enumerate(cat.identities):
            m = mor[obj_id]
            if m.src != i or m.tgt != i:
                return f"identity of object {i} has wrong endpoints"

    def composition_total():
        for g_idx, g in enumerate(mor):
            for f_idx, f in enumerate(mor):
                if f.tgt == g.src:
                    gf = cat.compose(g_idx, f_idx)
                    if gf is None:
                        return f"missing composite {g.name}*{f.name}"
                    h = mor[gf]
                    if h.src != f.src or h.tgt != g.tgt:
                        return f"composite {g.name}*{f.name} has wrong endpoints"

    def composition_associative():
        for h_idx, h in enumerate(mor):
            for g_idx, g in enumerate(mor):
                if g.tgt != h.src:
                    continue
                for f_idx, f in enumerate(mor):
                    if f.tgt != g.src:
                        continue
                    left = cat.compose(cat.compose(h_idx, g_idx), f_idx)
                    right = cat.compose(h_idx, cat.compose(g_idx, f_idx))
                    if left != right:
                        return f"({h.name}{g.name}){f.name} != {h.name}({g.name}{f.name})"

    def identity_laws():
        for f_idx, f in enumerate(mor):
            if cat.compose(f_idx, cat.identities[f.src]) != f_idx:
                return f"{f.name} * id != {f.name}"
            if cat.compose(cat.identities[f.tgt], f_idx) != f_idx:
                return f"id * {f.name} != {f.name}"

    def subcategory_closed(sub):
        for i in objects:
            if cat.identities[i] not in sub:
                return f"identity of object {i} missing"
        for g_idx in sub:
            for f_idx in sub:
                if mor[f_idx].tgt == mor[g_idx].src and cat.compose(g_idx, f_idx) not in sub:
                    return f"{mor[g_idx].name}*{mor[f_idx].name} escapes"

    # axiom 1: closure of squares under coproducts --------------------------
    def squares_closed_under_coproducts():
        for q1 in cat.squares:
            for q2 in cat.squares:
                parts = tuple(cat.morphism_coproducts.get(pair) for pair in zip(q1, q2))
                if None not in parts and parts not in cat.squares:
                    return f"coproduct of {q1} and {q2} not distinguished"

    # axiom 2: squares commute and compose ----------------------------------
    def squares_commute():
        for top, left, right, bottom in cat.squares:
            square = (top, left, right, bottom)
            if (
                mor[top].src != mor[left].src
                or mor[top].tgt != mor[right].src
                or mor[left].tgt != mor[bottom].src
                or mor[right].tgt != mor[bottom].tgt
            ):
                return f"square {square} malformed"
            if top not in cat.cof or bottom not in cat.cof:
                return f"square {square}: horizontals not cofibrations"
            if left not in cat.fib or right not in cat.fib:
                return f"square {square}: verticals not cofiber maps"
            if cat.compose(right, top) != cat.compose(bottom, left):
                return f"square {square} does not commute"

    def squares_compose():
        for q1 in cat.squares:
            for q2 in cat.squares:
                # horizontal: q1 then q2 when q2's left edge is q1's right edge
                if q2[1] == q1[2]:
                    comp = (cat.compose(q2[0], q1[0]), q1[1], q2[2], cat.compose(q2[3], q1[3]))
                    if None not in comp and comp not in cat.squares:
                        return f"horizontal composite of {q1},{q2} missing"
                # vertical: q1 on top of q2 when q2's top edge is q1's bottom edge
                if q2[0] == q1[3]:
                    comp = (q1[0], cat.compose(q2[1], q1[1]), cat.compose(q2[2], q1[2]), q2[3])
                    if None not in comp and comp not in cat.squares:
                        return f"vertical composite of {q1},{q2} missing"

    # axioms 3 and 4: isomorphisms ------------------------------------------
    def isos_in_both_subcategories():
        for i in _isomorphisms(cat):
            if i not in cat.cof or i not in cat.fib:
                return f"isomorphism {mor[i].name} missing"

    def iso_squares_distinguished():
        isos = _isomorphisms(cat)
        for top, bottom, left, right in itertools.product(cat.cof, cat.cof, cat.fib, cat.fib):
            tm, bm, lm, rm = mor[top], mor[bottom], mor[left], mor[right]
            if (
                tm.src == lm.src
                and tm.tgt == rm.src
                and lm.tgt == bm.src
                and rm.tgt == bm.tgt
                and cat.compose(right, top) == cat.compose(bottom, left)
                and ((top in isos and bottom in isos) or (left in isos and right in isos))
                and (top, left, right, bottom) not in cat.squares
            ):
                return (
                    f"commuting square ({tm.name},{lm.name},"
                    f"{rm.name},{bm.name}) with iso pair not distinguished"
                )

    # side conditions of the K0 presentation --------------------------------
    def initial_or_terminal(sub):
        ends = [(mor[i].src, mor[i].tgt) for i in sub]
        initial = all(ends.count((o, x)) == 1 for x in objects)
        terminal = all(ends.count((x, o)) == 1 for x in objects)
        if not (initial or terminal):
            return "basepoint neither initial nor terminal"

    def spans(square, a, b):  # the square's top runs o -> a and its left o -> b
        top, left, _, _ = square
        return mor[top].src == o and mor[top].tgt == a and mor[left].src == o and mor[left].tgt == b

    def mirrored(a, b, x):  # a square spans (a, b) with its bottom ending at x
        return any(spans(q, a, b) and mor[q[3]].tgt == x for q in cat.squares)

    def coproduct_squares_exist():
        for a in objects:
            for b in objects:
                if not any(spans(q, a, b) and mirrored(b, a, mor[q[3]].tgt) for q in cat.squares):
                    return f"no coproduct squares for pair ({cat.objects[a]},{cat.objects[b]})"

    checks = (
        ("identities_well_formed", identities_well_formed),
        ("composition_total", composition_total),
        ("composition_associative", composition_associative),
        ("identity_laws", identity_laws),
        ("cof_subcategory_closed", lambda: subcategory_closed(cat.cof)),
        ("fib_subcategory_closed", lambda: subcategory_closed(cat.fib)),
        ("axiom1_squares_closed_under_coproducts", squares_closed_under_coproducts),
        ("axiom2_squares_commute", squares_commute),
        ("axiom2_squares_compose", squares_compose),
        ("axiom3_isos_in_both_subcategories", isos_in_both_subcategories),
        ("axiom4_iso_squares_distinguished", iso_squares_distinguished),
        ("basepoint_initial_or_terminal_in_cof", lambda: initial_or_terminal(cat.cof)),
        ("basepoint_initial_or_terminal_in_fib", lambda: initial_or_terminal(cat.fib)),
        ("coproduct_squares_exist", coproduct_squares_exist),
    )
    has_tables = cat.coproducts is not None and cat.morphism_coproducts is not None
    results = []
    for name, check in checks:
        if check is squares_closed_under_coproducts and not has_tables:
            results.append(CheckResult(name, "skipped", "no coproduct tables provided"))
        elif (violation := check()) is None:
            results.append(CheckResult(name, "pass"))
        else:
            results.append(CheckResult(name, "fail", violation))
    return HypothesisReport(checks=tuple(results))


# ---------------------------------------------------------------------------
# The truncated surface instance
# ---------------------------------------------------------------------------


# Largest number of classes a caps request may span.  Class lists, union
# squares and the relation lattice all grow with it.  The tests, the
# acceptance run and the benchmark reach (4,3,3), 1,771 classes.  A cold k0
# takes about 2.5 s at (5,3,3), 2,925 classes, and about 18 s at (6,4,3),
# 8,436 classes (Python 3.11, one core of a 2-core x86-64 host).
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


def union_squares(index: dict, caps: Caps) -> tuple[list[tuple[int, int, int, int]], int]:
    """Disjoint-union squares (empty, A, B, A|B) over the nonempty classes
    of ``index`` (class -> object index, in object order), kept when A|B
    stays within the caps; returns the squares and the skipped count.
    The classes must lie within the caps, by descending component count as
    ``classes_of_types`` orders them: then the partners B that fit next to
    A form a suffix of the list, and only the kept pairs are built."""
    basepoint = index[DiffeoClass.empty()]
    nonempty = [c for c in index if not c.is_empty]
    neg_counts = [-c.component_count for c in nonempty]
    squares = []
    for i, a in enumerate(nonempty):
        first = bisect_left(neg_counts, a.component_count - caps.components)
        for b in nonempty[max(i, first):]:
            squares.append((basepoint, index[a], index[b], index[a.union(b)]))
    n = len(nonempty)
    return squares, n * (n + 1) // 2 - len(squares)


def glue_connected(m1: tuple[int, int], m2: tuple[int, int], k: int) -> tuple[int, int]:
    """Class of two connected pieces glued along k boundary-circle pairs:
    one circle merges the pieces, each further circle adds a handle."""
    g1, b1 = m1
    g2, b2 = m2
    if k < 1 or k > min(b1, b2):
        raise ValueError("invalid circle count for gluing")
    return (g1 + g2 + k - 1, b1 + b2 - 2 * k)


def glue_class_components(
    left: DiffeoClass, right: DiffeoClass, edges
) -> DiffeoClass:
    """Gluing along a bipartite multigraph: edges are (left component index,
    right component index) pairs, one per glued circle pair; degrees may not
    exceed the boundary-circle counts."""
    ln = left.component_count
    nodes = list(left.components) + list(right.components)
    deg = [0] * len(nodes)
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_list = []
    for i, j in edges:
        a, b = i, ln + j
        deg[a] += 1
        deg[b] += 1
        edge_list.append((a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    for x, (g, b) in enumerate(nodes):
        if deg[x] > b:
            raise ValueError("component does not have enough boundary circles")
    groups: dict[int, list[int]] = {}
    for x in range(len(nodes)):
        groups.setdefault(find(x), []).append(x)
    edge_count: dict[int, int] = {}
    for a, b in edge_list:
        edge_count[find(a)] = edge_count.get(find(a), 0) + 1
    pairs = []
    for root, members in groups.items():
        chi = sum(2 - 2 * nodes[x][0] - nodes[x][1] for x in members)
        b = sum(nodes[x][1] for x in members) - 2 * edge_count.get(root, 0)
        g2 = 2 - chi - b
        if b < 0 or g2 < 0 or g2 % 2:
            raise ValueError("gluing pattern does not produce oriented surfaces")
        pairs.append((g2 // 2, b))
    return DiffeoClass.from_pairs(pairs)


ANNULUS = (0, 2)


@dataclass(frozen=True)
class SurfaceSquares:
    """A truncated cut-and-paste group: classes in object order, squares,
    the count skipped for leaving the caps, and ``relations``, rows beyond
    the squares' own as (index, coefficient) pairs (none for K0 of the
    squares).  Every field is a tuple, so the record stays hashable."""

    caps: Caps
    presentation: SquaresPresentation
    classes: tuple[DiffeoClass, ...]
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
            f"squares={len(self.presentation.squares)}",
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
    leave the caps are skipped and counted.
    """
    caps = Caps(*caps)
    if min(caps) < 1:
        raise ValueError("caps must be at least (1,1,1)")
    refuse_oversized(caps)
    classes = classes_within(caps)
    index = {c: i for i, c in enumerate(classes)}
    squares, skipped = union_squares(index, caps)

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

    pres = SquaresPresentation(
        objects=tuple(c.label() for c in classes),
        basepoint=index[DiffeoClass.empty()],
        squares=tuple(squares),
    )
    return SurfaceSquares(
        caps=caps, presentation=pres, classes=tuple(classes), skipped=skipped
    )


def k0_of_surfaces(caps: Caps) -> SurfaceSquares:
    """The with-boundary group at caps of at least (2,2,2), where K0 is
    free of rank two."""
    caps = Caps(*caps)
    if caps.genus < 2 or caps.boundary < 2 or caps.components < 2:
        raise ValueError("k0_of_surfaces needs caps of at least (2,2,2)")
    return surface_squares_presentation(caps)
