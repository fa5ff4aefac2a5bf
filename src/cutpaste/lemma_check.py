"""Finite categories with squares: exhaustive hypothesis checking.

``FiniteSquaresCategory`` is a fully tabulated finite category with chosen
cofibration and cofiber-map subcategories and distinguished squares.
``check_lemma_hypotheses`` verifies its axioms, and the side conditions
under which the object-and-squares presentation of
``squares_k0.k0_presentation`` computes K0, by running over every
morphism, composite and square.  No K0 computation calls the checker, so
it lives apart from the presentation engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
