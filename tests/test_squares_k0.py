"""Tests for the K0-of-squares engine and the truncated surface instance."""

import collections
import itertools
import random
from dataclasses import replace

import pytest

from cutpaste import sk_groups, squares_k0
from cutpaste.squares_k0 import (
    MAX_CLASSES,
    Caps,
    FiniteSquaresCategory,
    Morphism,
    SquaresPresentation,
    check_lemma_hypotheses,
    classes_of_types,
    connected_types,
    glue_connected,
    k0_of_surfaces,
    k0_presentation,
    classes_within,
    multiset_count,
    surface_squares_presentation,
    union_squares,
    within_caps,
)
from cutpaste.sk_groups import closed_sk_presentation
from cutpaste.surface import (
    BoundaryGluing,
    DiffeoClass,
    build_standard,
    disjoint_union,
    paste,
)

from gluing_oracle import glue_class_components


# ---------------------------------------------------------------------------
# k0_presentation
# ---------------------------------------------------------------------------


def test_k0_no_squares_is_free_on_nonbasepoint_objects():
    p = SquaresPresentation(objects=("O", "X"), basepoint=0, squares=())
    g = k0_presentation(p)
    assert g.quotient_invariants() == (1, ())


def test_k0_coproduct_square_relation():
    p = SquaresPresentation(
        objects=("O", "A", "B", "S"), basepoint=0, squares=((0, 1, 2, 3),)
    )
    g = k0_presentation(p)
    assert g.quotient_invariants() == (2, ())
    # [S] = [A] + [B]
    n = 4
    vec = [0, -1, -1, 1]
    assert g.is_relation(vec)


def test_k0_degenerate_square_changes_nothing():
    base = SquaresPresentation(objects=("O", "A", "B"), basepoint=0, squares=())
    with_degenerate = SquaresPresentation(
        objects=("O", "A", "B"), basepoint=0, squares=((1, 2, 1, 2),)
    )
    assert (
        k0_presentation(base).quotient_invariants()
        == k0_presentation(with_degenerate).quotient_invariants()
    )


def random_presentation(rng) -> SquaresPresentation:
    n = rng.randint(2, 6)
    objects = tuple(f"X{i}" for i in range(n))
    squares = tuple(
        tuple(rng.randrange(n) for _ in range(4)) for _ in range(rng.randint(0, 8))
    )
    return SquaresPresentation(objects=objects, basepoint=0, squares=squares)


def test_k0_square_set_order_irrelevant():
    rng = random.Random(31)
    for _ in range(30):
        p = random_presentation(rng)
        inv = k0_presentation(p).quotient_invariants()
        shuffled = list(p.squares)
        rng.shuffle(shuffled)
        p2 = SquaresPresentation(p.objects, p.basepoint, tuple(shuffled))
        assert k0_presentation(p2).quotient_invariants() == inv


def test_k0_axiom4_shaped_squares_never_change_invariants():
    rng = random.Random(37)
    for _ in range(30):
        p = random_presentation(rng)
        inv = k0_presentation(p).quotient_invariants()
        n = len(p.objects)
        a, b = rng.randrange(n), rng.randrange(n)
        # both horizontals equal (A,B,A,B) or both verticals equal (A,A,B,B)
        extra = (a, b, a, b) if rng.random() < 0.5 else (a, a, b, b)
        p2 = SquaresPresentation(p.objects, p.basepoint, p.squares + (extra,))
        assert k0_presentation(p2).quotient_invariants() == inv


def test_squares_presentation_json_round_trip():
    p = SquaresPresentation(objects=("O", "A"), basepoint=0, squares=((0, 1, 1, 0),))
    assert SquaresPresentation.from_json(p.to_json()) == p


# ---------------------------------------------------------------------------
# Finite category checker
# ---------------------------------------------------------------------------


def poset_category() -> FiniteSquaresCategory:
    """The join-semilattice O <= A, B <= S with unions as coproducts and
    every commuting square distinguished; satisfies all the hypotheses."""
    objects = ("O", "A", "B", "S")
    leq = {
        (0, 0), (1, 1), (2, 2), (3, 3),
        (0, 1), (0, 2), (0, 3), (1, 3), (2, 3),
    }
    morphisms = []
    mor_index = {}
    for s, t in sorted(leq):
        mor_index[(s, t)] = len(morphisms)
        morphisms.append(Morphism(f"{objects[s]}->{objects[t]}", s, t))
    identities = tuple(mor_index[(i, i)] for i in range(4))
    composition = {}
    for (s1, t1), f in mor_index.items():
        for (s2, t2), g in mor_index.items():
            if t1 == s2:
                composition[(g, f)] = mor_index[(s1, t2)]
    join = {}
    for i in range(4):
        for j in range(4):
            join[(i, j)] = min(
                k for k in range(4) if (i, k) in leq and (j, k) in leq
            )
    morphism_coproducts = {}
    for (s1, t1), f in mor_index.items():
        for (s2, t2), g in mor_index.items():
            morphism_coproducts[(f, g)] = mor_index[
                (join[(s1, s2)], join[(t1, t2)])
            ]
    squares = set()
    for (pa, qa), top in mor_index.items():
        for (pl, rl), left in mor_index.items():
            if pl != pa:
                continue
            for (qr, tr), right in mor_index.items():
                if qr != qa:
                    continue
                for (rb, tb), bottom in mor_index.items():
                    if rb == rl and tb == tr:
                        squares.add((top, left, right, bottom))
    all_mor = frozenset(range(len(morphisms)))
    return FiniteSquaresCategory(
        objects=objects,
        morphisms=tuple(morphisms),
        identities=identities,
        composition=composition,
        cof=all_mor,
        fib=all_mor,
        basepoint=0,
        squares=frozenset(squares),
        coproducts=join,
        morphism_coproducts=morphism_coproducts,
    )


def test_poset_category_passes_all_hypotheses():
    report = check_lemma_hypotheses(poset_category())
    failing = [c for c in report.checks if c.status == "fail"]
    assert not failing, failing
    assert report.passed
    assert all(c.status == "pass" for c in report.checks)


def test_missing_coproduct_square_fails_condition_three():
    cat = poset_category()
    # drop every square witnessing the pair (A, B)
    bad = {
        q
        for q in cat.squares
        if cat.morphisms[q[0]].src == 0
        and cat.morphisms[q[0]].tgt == 1
        and cat.morphisms[q[1]].src == 0
        and cat.morphisms[q[1]].tgt == 2
    }
    cat2 = FiniteSquaresCategory(
        objects=cat.objects,
        morphisms=cat.morphisms,
        identities=cat.identities,
        composition=cat.composition,
        cof=cat.cof,
        fib=cat.fib,
        basepoint=cat.basepoint,
        squares=frozenset(cat.squares - bad),
        coproducts=cat.coproducts,
        morphism_coproducts=cat.morphism_coproducts,
    )
    report = check_lemma_hypotheses(cat2)
    cond3 = next(c for c in report.checks if c.name == "coproduct_squares_exist")
    assert cond3.status == "fail"
    assert "A" in cond3.detail and "B" in cond3.detail


def test_undistinguished_iso_square_fails_axiom_four():
    cat = poset_category()
    iso_square = None
    for q in cat.squares:
        top, left, right, bottom = q
        if (
            cat.morphisms[top].src == cat.morphisms[top].tgt
            and cat.morphisms[bottom].src == cat.morphisms[bottom].tgt
            and cat.morphisms[left].src != cat.morphisms[left].tgt
        ):
            iso_square = q
            break
    assert iso_square is not None
    cat2 = FiniteSquaresCategory(
        objects=cat.objects,
        morphisms=cat.morphisms,
        identities=cat.identities,
        composition=cat.composition,
        cof=cat.cof,
        fib=cat.fib,
        basepoint=cat.basepoint,
        squares=frozenset(cat.squares - {iso_square}),
        coproducts=cat.coproducts,
        morphism_coproducts=cat.morphism_coproducts,
    )
    report = check_lemma_hypotheses(cat2)
    axiom4 = next(c for c in report.checks if c.name.startswith("axiom4"))
    assert axiom4.status == "fail"


def test_skipped_when_no_coproduct_tables():
    cat = poset_category()
    cat2 = FiniteSquaresCategory(
        objects=cat.objects,
        morphisms=cat.morphisms,
        identities=cat.identities,
        composition=cat.composition,
        cof=cat.cof,
        fib=cat.fib,
        basepoint=cat.basepoint,
        squares=cat.squares,
    )
    report = check_lemma_hypotheses(cat2)
    axiom1 = next(c for c in report.checks if c.name.startswith("axiom1"))
    assert axiom1.status == "skipped"
    assert report.passed  # skips do not fail the report


def _dropped(table: dict, key) -> dict:
    return {k: v for k, v in table.items() if k != key}


def _updated(table: dict, key, value) -> dict:
    return {**table, key: value}


CHECK_NAMES = (
    "identities_well_formed",
    "composition_total",
    "composition_associative",
    "identity_laws",
    "cof_subcategory_closed",
    "fib_subcategory_closed",
    "axiom1_squares_closed_under_coproducts",
    "axiom2_squares_commute",
    "axiom2_squares_compose",
    "axiom3_isos_in_both_subcategories",
    "axiom4_iso_squares_distinguished",
    "basepoint_initial_or_terminal_in_cof",
    "basepoint_initial_or_terminal_in_fib",
    "coproduct_squares_exist",
)

# One small mutation of poset_category() per check, aimed at that check, and
# every check the mutation fails with its detail: the first violation in the
# checker's loop order.  Morphisms are indexed 0 O->O, 1 O->A, 2 O->B,
# 3 O->S, 4 A->A, 5 A->S, 6 B->B, 7 B->S, 8 S->S.
LEMMA_MUTATIONS = {
    "identities_well_formed": (
        lambda c: replace(c, identities=(1,) + c.identities[1:]),
        {
            "identities_well_formed": "identity of object 0 has wrong endpoints",
            "identity_laws": "O->O * id != O->O",
        },
    ),
    "composition_total": (
        lambda c: replace(c, composition=_dropped(c.composition, (5, 1))),
        {
            "composition_total": "missing composite A->S*O->A",
            "cof_subcategory_closed": "A->S*O->A escapes",
            "fib_subcategory_closed": "A->S*O->A escapes",
            "axiom2_squares_commute": "square (1, 3, 5, 8) does not commute",
        },
    ),
    "composition_associative": (
        lambda c: replace(c, composition=_updated(c.composition, (5, 1), 2)),
        {
            "composition_total": "composite A->S*O->A has wrong endpoints",
            "composition_associative": "(S->SA->S)O->A != S->S(A->SO->A)",
            "axiom2_squares_commute": "square (1, 3, 5, 8) does not commute",
            "axiom2_squares_compose": "horizontal composite of (1, 3, 5, 8),(5, 5, 8, 8) missing",
        },
    ),
    "identity_laws": (
        lambda c: replace(c, composition=_updated(c.composition, (4, 1), 3)),
        {
            "composition_total": "composite A->A*O->A has wrong endpoints",
            "composition_associative": "(A->AA->A)O->A != A->A(A->AO->A)",
            "identity_laws": "id * O->A != O->A",
            "axiom2_squares_commute": "square (1, 0, 4, 1) does not commute",
            "axiom2_squares_compose": "horizontal composite of (1, 3, 5, 8),(4, 5, 5, 8) missing",
        },
    ),
    "cof_subcategory_closed": (
        lambda c: replace(c, cof=c.cof - {3}),
        {
            "cof_subcategory_closed": "A->S*O->A escapes",
            "axiom2_squares_commute": "square (3, 1, 8, 5): horizontals not cofibrations",
            "basepoint_initial_or_terminal_in_cof": "basepoint neither initial nor terminal",
        },
    ),
    "fib_subcategory_closed": (
        lambda c: replace(c, fib=c.fib - {3}),
        {
            "fib_subcategory_closed": "A->S*O->A escapes",
            "axiom2_squares_commute": "square (2, 3, 7, 8): verticals not cofiber maps",
            "basepoint_initial_or_terminal_in_fib": "basepoint neither initial nor terminal",
        },
    ),
    "axiom1_squares_closed_under_coproducts": (
        lambda c: replace(c, morphism_coproducts=_updated(c.morphism_coproducts, (0, 0), 1)),
        {
            "axiom1_squares_closed_under_coproducts": (
                "coproduct of (0, 2, 2, 6) and (0, 2, 2, 6) not distinguished"
            ),
        },
    ),
    "axiom2_squares_commute": (
        lambda c: replace(c, squares=c.squares | {(1, 0, 0, 1)}),
        {
            "axiom1_squares_closed_under_coproducts": (
                "coproduct of (2, 3, 7, 8) and (1, 0, 0, 1) not distinguished"
            ),
            "axiom2_squares_commute": "square (1, 0, 0, 1) malformed",
        },
    ),
    "axiom2_squares_compose": (
        lambda c: replace(c, squares=c.squares - {(0, 1, 3, 5)}),
        {
            "axiom1_squares_closed_under_coproducts": (
                "coproduct of (0, 0, 2, 2) and (0, 1, 1, 4) not distinguished"
            ),
            "axiom2_squares_compose": "vertical composite of (0, 0, 1, 1),(1, 1, 5, 5) missing",
        },
    ),
    "axiom3_isos_in_both_subcategories": (
        lambda c: replace(c, cof=c.cof - {8}),
        {
            "cof_subcategory_closed": "identity of object 3 missing",
            "axiom2_squares_commute": "square (2, 3, 7, 8): horizontals not cofibrations",
            "axiom3_isos_in_both_subcategories": "isomorphism S->S missing",
        },
    ),
    "axiom4_iso_squares_distinguished": (
        lambda c: replace(c, squares=c.squares - {(0, 1, 1, 4)}),
        {
            "axiom2_squares_compose": "vertical composite of (0, 0, 1, 1),(1, 1, 4, 4) missing",
            "axiom4_iso_squares_distinguished": (
                "commuting square (O->O,O->A,O->A,A->A) with iso pair not distinguished"
            ),
        },
    ),
    "basepoint_initial_or_terminal_in_cof": (
        lambda c: replace(c, cof=c.cof - {1}),
        {
            "axiom2_squares_commute": "square (1, 3, 5, 8): horizontals not cofibrations",
            "basepoint_initial_or_terminal_in_cof": "basepoint neither initial nor terminal",
        },
    ),
    "basepoint_initial_or_terminal_in_fib": (
        lambda c: replace(c, fib=c.fib - {2}),
        {
            "axiom2_squares_commute": "square (0, 2, 2, 6): verticals not cofiber maps",
            "basepoint_initial_or_terminal_in_fib": "basepoint neither initial nor terminal",
        },
    ),
    "coproduct_squares_exist": (
        lambda c: replace(c, squares=c.squares - {(1, 2, 5, 7)}),
        {
            "axiom1_squares_closed_under_coproducts": (
                "coproduct of (0, 2, 2, 6) and (1, 0, 4, 1) not distinguished"
            ),
            "axiom2_squares_compose": "horizontal composite of (0, 2, 3, 7),(1, 3, 5, 8) missing",
            "coproduct_squares_exist": "no coproduct squares for pair (A,B)",
        },
    ),
}


@pytest.mark.parametrize("target", CHECK_NAMES)
def test_each_lemma_check_reports_its_first_violation(target):
    mutate, failures = LEMMA_MUTATIONS[target]
    assert target in failures
    report = check_lemma_hypotheses(mutate(poset_category()))
    assert report.to_lines() == [
        f"check={name} status=FAIL detail={failures[name]}" if name in failures
        else f"check={name} status=PASS"
        for name in CHECK_NAMES
    ] + ["hypotheses=FAIL"]


# ---------------------------------------------------------------------------
# Gluing rules
# ---------------------------------------------------------------------------


def test_glue_connected_rules():
    # one circle between distinct pieces merges
    assert glue_connected((1, 1), (2, 2), 1) == (3, 1)
    # a second circle adds a handle
    assert glue_connected((0, 2), (0, 2), 2) == (1, 0)
    assert glue_connected((0, 1), (0, 1), 1) == (0, 0)
    with pytest.raises(ValueError):
        glue_connected((0, 1), (0, 1), 2)


def test_glue_class_components_matches_connected_rule():
    left = DiffeoClass.from_pairs([(1, 2)])
    right = DiffeoClass.from_pairs([(0, 2)])
    out = glue_class_components(left, right, [(0, 0), (0, 0)])
    assert out == DiffeoClass.from_pairs([glue_connected((1, 2), (0, 2), 2)])
    # untouched components pass through (components are kept sorted, so the
    # (1,1) piece sits at index 1)
    left2 = DiffeoClass.from_pairs([(1, 1), (0, 0)])
    out2 = glue_class_components(left2, DiffeoClass.from_pairs([(0, 1)]), [(1, 0)])
    assert out2 == DiffeoClass.from_pairs([(1, 0), (0, 0)])


def concrete_glue(m1, m2, k) -> DiffeoClass:
    """Glue library surfaces along k boundary circle pairs, classifying."""
    s = disjoint_union(build_standard(*m1), build_standard(*m2))
    for step in range(k):
        cycles = s.boundary_cycles
        comp = s.component_of_triangle
        by_comp = {}
        for idx, cyc in enumerate(cycles):
            by_comp.setdefault(comp[cyc[0][0]], []).append(idx)
        if step == 0:
            groups = sorted(by_comp.values(), key=len)
            i, j = groups[0][0], groups[-1][0]
            if i == j:
                j = groups[-1][1]
        else:
            # pieces already merged; any two distinct cycles work
            i, j = 0, 1
        s = paste(s, BoundaryGluing(i, j, 0))
    return s.classify()


@pytest.mark.parametrize(
    "m1,m2,k",
    [
        ((0, 1), (0, 1), 1),
        ((0, 2), (0, 1), 1),
        ((1, 1), (0, 1), 1),
        ((0, 2), (0, 2), 2),
        ((1, 2), (0, 2), 2),
    ],
)
def test_class_level_gluing_matches_concrete_paste(m1, m2, k):
    expected = DiffeoClass.from_pairs([glue_connected(m1, m2, k)])
    assert concrete_glue(m1, m2, k) == expected


# ---------------------------------------------------------------------------
# Surface instance
# ---------------------------------------------------------------------------


def test_instance_object_enumeration():
    inst = surface_squares_presentation(Caps(2, 2, 2))
    # 9 connected types, multisets of size <= 2, plus the empty class
    assert len(inst.classes) == 1 + 9 + 45
    assert inst.presentation.objects[inst.presentation.basepoint] == "{}"
    assert all(within_caps(c, inst.caps) for c in inst.classes)


def test_instance_contains_expected_squares():
    inst = surface_squares_presentation(Caps(2, 2, 2))
    pres = inst.presentation
    idx = {label: i for i, label in enumerate(pres.objects)}
    disk = DiffeoClass.connected(0, 1).label()
    sphere = DiffeoClass.connected(0, 0).label()
    ann = DiffeoClass.connected(0, 2).label()
    torus = DiffeoClass.connected(1, 0).label()
    two_disks = DiffeoClass.from_pairs([(0, 1), (0, 1)]).label()
    two_ann = DiffeoClass.from_pairs([(0, 2), (0, 2)]).label()
    # collar square: disk + disk glued along one circle = sphere
    assert (idx[ann], idx[disk], idx[disk], idx[sphere]) in pres.squares
    # collar square: annulus + annulus along two circles = torus
    assert (idx[two_ann], idx[ann], idx[ann], idx[torus]) in pres.squares
    # coproduct square for (torus, disk)
    td = DiffeoClass.from_pairs([(1, 0), (0, 1)]).label()
    assert (pres.basepoint, idx[torus], idx[disk], idx[td]) in pres.squares or (
        pres.basepoint,
        idx[disk],
        idx[torus],
        idx[td],
    ) in pres.squares


def test_instance_squares_respect_chi_and_boundary_additivity():
    inst = surface_squares_presentation(Caps(3, 3, 3))
    classes = inst.classes
    for a, b, c, d in inst.presentation.squares:
        ca, cb, cc, cd = classes[a], classes[b], classes[c], classes[d]
        assert ca.chi + cd.chi == cb.chi + cc.chi
        assert ca.boundary_circles + cd.boundary_circles == (
            cb.boundary_circles + cc.boundary_circles
        )


def test_instance_monotone_in_caps():
    small = surface_squares_presentation(Caps(2, 2, 2))
    big = surface_squares_presentation(Caps(3, 3, 3))

    def labeled(inst):
        objs = inst.presentation.objects
        return {
            (objs[a], objs[b], objs[c], objs[d])
            for a, b, c, d in inst.presentation.squares
        }

    assert labeled(small) <= labeled(big)


def all_pairs_union_squares(index, caps):
    """Every pair of nonempty classes, kept when the union fits the caps."""
    basepoint = index[DiffeoClass.empty()]
    nonempty = [c for c in index if not c.is_empty]
    squares, skipped = [], 0
    for i, a in enumerate(nonempty):
        for b in nonempty[i:]:
            u = a.union(b)
            if within_caps(u, caps):
                squares.append((basepoint, index[a], index[b], index[u]))
            else:
                skipped += 1
    return squares, skipped


@pytest.mark.parametrize("closed", [False, True], ids=["with_boundary", "closed"])
@pytest.mark.parametrize("caps", [Caps(2, 2, 2), Caps(3, 2, 3), Caps(1, 1, 4)])
def test_union_squares_match_all_pairs_filter(caps, closed):
    """The spanning union squares are all-pairs squares, count the fitting
    and the skipped pairs, and give every class the normal form that all
    the pairs give."""
    types = [(g, 0) for g in range(caps.genus + 1)] if closed else connected_types(caps)
    classes = classes_of_types(types, caps.components)
    index = {c: i for i, c in enumerate(classes)}
    squares, fitting, skipped = union_squares(index, caps)
    all_pairs, all_skipped = all_pairs_union_squares(index, caps)
    assert (fitting, skipped) == (len(all_pairs), all_skipped)
    assert set(squares) <= set(all_pairs)
    objects, basepoint = tuple(c.label() for c in classes), index[DiffeoClass.empty()]
    spanning, every = (
        k0_presentation(SquaresPresentation(objects, basepoint, tuple(q))) for q in (squares, all_pairs)
    )
    for i in range(len(classes)):
        assert spanning.element_normal_form({i: 1}) == every.element_normal_form({i: 1}), classes[i]


def test_instance_square_counts_at_333():
    inst = surface_squares_presentation(Caps(3, 3, 3))
    assert inst.square_count == 2370
    assert inst.skipped == 466750
    # 952 spanning union squares, one per class of two or three components,
    # and the 58 collar squares
    assert len(inst.presentation.squares) == 1010


def test_k0_of_surfaces_shares_the_boundary_group():
    caps = Caps(2, 2, 2)
    assert k0_of_surfaces(caps) is surface_squares_presentation(caps)


def test_k0_of_surfaces_small_caps():
    res = k0_of_surfaces(Caps(2, 2, 2))
    assert res.free_rank == 2
    assert res.torsion == ()
    # [S^2] and [D^2] coordinates form a basis of the free part
    s2 = res.coordinate_of(DiffeoClass.connected(0, 0))
    d2 = res.coordinate_of(DiffeoClass.connected(0, 1))
    from cutpaste.abgroup import IntMatrix

    m = IntMatrix.from_rows([list(s2.free), list(d2.free)])
    assert abs(m.det()) == 1
    # the torus class vanishes
    assert res.coordinate_of(DiffeoClass.connected(1, 0)).is_zero()


def test_k0_of_surfaces_four_components():
    """At (3,3,4) the group is free of rank two and (chi, boundary circles)
    is a complete coordinate, as criterion 4 checks at three components."""
    res = k0_of_surfaces(Caps(3, 3, 4))
    assert (res.free_rank, res.torsion) == (2, ())
    by_coord: dict = {}
    by_chib: dict = {}
    for cls in res.classes:
        nf = res.coordinate_of(cls)
        by_coord.setdefault((nf.free, nf.torsion), set()).add(cls)
        by_chib.setdefault((cls.chi, cls.boundary_circles), set()).add(cls)
    assert set(map(frozenset, by_coord.values())) == set(map(frozenset, by_chib.values()))


def gluing_patterns(left: DiffeoClass, right: DiffeoClass, k: int):
    """Every multiset of k circle pairs (left component, right component)
    that no component's boundary circles run short of."""
    slots = itertools.product(range(left.component_count), range(right.component_count))
    for edges in itertools.combinations_with_replacement(slots, k):
        for side, pieces in ((0, left), (1, right)):
            degrees = collections.Counter(e[side] for e in edges)
            if any(d > pieces.components[i][1] for i, d in degrees.items()):
                break
        else:
            yield edges


def test_disconnected_gluings_keep_every_coordinate():
    """The instance's collar squares glue connected pieces only.  Adding
    every collar square (annulus^k, M, M', glued) in which M or M' is
    disconnected, with collar and result within the caps, leaves the group
    Z^2 and every class's coordinate as it was."""
    caps = Caps(2, 2, 2)
    base = surface_squares_presentation(caps)
    index = {c: i for i, c in enumerate(base.classes)}
    nonempty = [c for c in base.classes if not c.is_empty]
    extra = set()
    for m, m2 in itertools.product(nonempty, repeat=2):
        if m.component_count == m2.component_count == 1:
            continue
        for k in range(1, caps.components + 1):
            collar = DiffeoClass.from_pairs([squares_k0.ANNULUS] * k)
            for edges in gluing_patterns(m, m2, k):
                glued = glue_class_components(m, m2, edges)
                if within_caps(glued, caps):
                    extra.add((index[collar], index[m], index[m2], index[glued]))
    assert len(extra) == 1053
    pres = replace(base.presentation, squares=base.presentation.squares + tuple(sorted(extra)))
    wider = replace(base, presentation=pres)
    assert (wider.free_rank, wider.torsion) == (2, ())
    for cls in base.classes:
        assert wider.coordinate_of(cls) == base.coordinate_of(cls), cls


def test_k0_of_surfaces_rejects_tiny_caps():
    with pytest.raises(ValueError):
        k0_of_surfaces(Caps(1, 1, 1))


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_k0_invariants_stable_under_square_permutation_hypothesis(data):
    n = data.draw(st.integers(2, 5))
    objects = tuple(f"X{i}" for i in range(n))
    squares = tuple(
        tuple(data.draw(st.integers(0, n - 1)) for _ in range(4))
        for _ in range(data.draw(st.integers(0, 6)))
    )
    p = SquaresPresentation(objects=objects, basepoint=0, squares=squares)
    inv = k0_presentation(p).quotient_invariants()
    perm = data.draw(st.permutations(list(squares))) if squares else []
    p2 = SquaresPresentation(objects, 0, tuple(perm))
    assert k0_presentation(p2).quotient_invariants() == inv
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    p3 = SquaresPresentation(objects, 0, squares + ((a, b, a, b),))
    assert k0_presentation(p3).quotient_invariants() == inv


def test_class_count_matches_enumeration():
    """The closed form sum_{k <= components} C(types + k - 1, k), with
    (genus+1)(boundary+1) types, counts the enumerated classes, and the
    ceiling admits (5,3,3) with 2,925 classes."""
    for caps in (Caps(1, 1, 1), Caps(2, 3, 2), Caps(3, 2, 3), Caps(4, 3, 3), Caps(8, 3, 2)):
        types = (caps.genus + 1) * (caps.boundary + 1)
        assert multiset_count(types, caps.components) == len(classes_within(caps))
    assert multiset_count(24, 3) == 2925 <= MAX_CLASSES
    assert multiset_count(1, 7) == 8 and multiset_count(0, 7) == 1


@pytest.mark.parametrize(
    "caps",
    [Caps(10**9, 10**9, 10**9), Caps(7, 4, 3), Caps(2, 2, 10**12), Caps(1000, 1, 1)],
)
def test_oversized_caps_refused_before_enumeration(monkeypatch, caps):
    """Both cached builders refuse caps above the ceiling from the count
    alone: every enumerator raises if it is reached.  (1000,1,1) spans few
    with-boundary classes, but its closed group would enumerate millions of
    gluing-piece multisets."""

    def enumerate_(*args, **kwargs):
        raise AssertionError("enumeration reached for oversized caps")

    for mod in (squares_k0, sk_groups):
        for name in ("classes_within", "classes_of_types", "union_squares", "_piece_multisets"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, enumerate_)
    builders = [closed_sk_presentation]
    if caps != Caps(1000, 1, 1):
        builders.append(surface_squares_presentation)
    for build in builders:
        with pytest.raises(ValueError, match=f"above the ceiling of {MAX_CLASSES}"):
            build(caps)
