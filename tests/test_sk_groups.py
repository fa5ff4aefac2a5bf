"""Scissors-congruence group tests: presentations, exactness, witnesses."""

import hashlib
import itertools
import json
from functools import lru_cache

import pytest

from cutpaste import sk_groups
import lattice_oracle
from gluing_oracle import all_gluing_rows, all_rows_closed_record, glue_class_components
from test_squares_k0 import all_pairs_union_squares
from cutpaste.abgroup import (
    AbGroupPresentation,
    IntMatrix,
    IntegerLattice,
    NormalForm,
    check_exact_at,
    to_sparse,
)
from cutpaste.squares_k0 import (
    classes_within,
    k0_of_surfaces,
    surface_squares_presentation,
    within_caps,
)
from cutpaste.sk_groups import (
    MIN_EXACT_BOUNDARY,
    Caps,
    SearchExhausted,
    apply_move,
    boundary_count_hom,
    circles_group,
    closed_inclusion_hom,
    closed_sk_presentation,
    decide_equivalent,
    double_surface,
    doubling_witness,
    find_witness,
    glue_to_mirror,
    replay_witness,
    skk_collapse_check,
    verify_exact_sequence,
)
from cutpaste.surface import (
    DiffeoClass,
    SurfaceError,
    build_standard,
    disjoint_union,
    fan_disk,
    library_for_class,
    octahedron,
    seven_vertex_torus,
)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


def test_closed_group_is_z_with_euler_coordinates():
    pres = closed_sk_presentation(Caps(3, 3, 3))
    assert pres.group.quotient_invariants() == (1, ())
    sphere = DiffeoClass.connected(0, 0)
    for g in range(4):
        got = pres.coordinate_of(DiffeoClass.connected(g, 0))
        want = pres.group.element_normal_form(lattice_oracle.class_vector(pres.group, [(sphere, 1 - g)]))
        assert got == want
    # torus class dies
    assert pres.coordinate_of(DiffeoClass.connected(1, 0)).is_zero()


def test_fifth_glued_circle_adds_no_closed_relation(monkeypatch):
    # the closed presentation enumerates gluing patterns of at most
    # _MAX_GLUED_CIRCLES = 4 circles; one more circle must not change it.
    # A fifth circle adds distinct gluing rows (all_gluing_rows, 42 to 43);
    # the record keeps a spanning forest of them, which need not grow.
    caps = Caps(3, 3, 3)
    closed_sk_presentation.cache_clear()
    try:
        rows_at_four = all_gluing_rows(caps)
        at_four = closed_sk_presentation(caps)
        monkeypatch.setattr(sk_groups, "_MAX_GLUED_CIRCLES", 5)
        closed_sk_presentation.cache_clear()
        rows_at_five = all_gluing_rows(caps)
        at_five = closed_sk_presentation(caps)
    finally:
        closed_sk_presentation.cache_clear()
    assert set(rows_at_four) < set(rows_at_five)
    assert at_four.group.quotient_invariants() == (1, ())
    assert at_five.group.quotient_invariants() == (1, ())
    assert at_five.classes == at_four.classes
    for cls in at_four.classes:
        assert at_five.coordinate_of(cls) == at_four.coordinate_of(cls), cls


def test_fourth_piece_component_adds_no_closed_relation(monkeypatch):
    # the closed presentation glues pieces of at most
    # _MAX_PIECE_COMPONENTS = 3 components; a fourth must not change it
    # (at (4,3,3) a bound of four is refused: 10,625 piece multisets).
    # Evaluated over every piece pair (all_gluing_rows), the bound of four
    # adds outcome pairs but no distinct gluing row.
    caps = Caps(3, 3, 3)
    gluing_results = sk_groups._gluing_results
    outcome_pairs = []

    def counting(left, right, caps):
        out = gluing_results(left, right, caps)
        outcome_pairs.append(max(len(out) - 1, 0))
        return out

    monkeypatch.setattr(sk_groups, "_gluing_results", counting)
    closed_sk_presentation.cache_clear()
    try:
        rows_at_three = all_gluing_rows(caps)
        pairs_at_three = sum(outcome_pairs)
        at_three = closed_sk_presentation(caps)
        monkeypatch.setattr(sk_groups, "_MAX_PIECE_COMPONENTS", 4)
        outcome_pairs.clear()
        rows_at_four = all_gluing_rows(caps)
        pairs_at_four = sum(outcome_pairs)
        closed_sk_presentation.cache_clear()
        at_four = closed_sk_presentation(caps)
    finally:
        closed_sk_presentation.cache_clear()
    assert (pairs_at_three, pairs_at_four) == (302, 481)
    assert rows_at_four == rows_at_three
    assert at_three.group.quotient_invariants() == (1, ())
    assert at_four.group.quotient_invariants() == (1, ())
    assert at_four.classes == at_three.classes
    for cls in at_three.classes:
        assert at_four.coordinate_of(cls) == at_three.coordinate_of(cls), cls


@lru_cache(maxsize=None)
def permutation_gluings(left, right):
    """Oracle for the closed gluing relations: every bijection of the left
    pieces' boundary circles onto the right pieces', one glued class per
    distinct edge pattern, untruncated; also returns the pattern count."""
    lslots = [i for i, (_, b) in enumerate(left) for _ in range(b)]
    rslots = [j for j, (_, b) in enumerate(right) for _ in range(b)]
    lcls, rcls = DiffeoClass.from_pairs(left), DiffeoClass.from_pairs(right)
    lorder = {c: i for i, c in enumerate(sorted(range(len(left)), key=lambda i: left[i]))}
    rorder = {c: j for j, c in enumerate(sorted(range(len(right)), key=lambda j: right[j]))}
    patterns = {
        tuple(sorted((lorder[lslots[a]], rorder[rslots[p[a]]]) for a in range(len(lslots))))
        for p in itertools.permutations(range(len(rslots)))
    }
    return {glue_class_components(lcls, rcls, e) for e in patterns}, len(patterns)


def piece_pairs(caps):
    for _, combos in sorted(sk_groups._piece_multisets(caps).items()):
        for x, left in enumerate(combos):
            for right in combos[x:]:
                yield left, right


@pytest.mark.parametrize(
    "caps", [(1, 1, 1), (2, 2, 2), (3, 2, 3), (3, 3, 3), (4, 2, 3), (3, 2, 4)]
)
def test_gluing_results_match_permutation_oracle(caps):
    caps = Caps(*caps)
    pairs = 0
    for left, right in piece_pairs(caps):
        want = {c for c in permutation_gluings(left, right)[0] if within_caps(c, caps)}
        assert sk_groups._gluing_results(left, right, caps) == want, (left, right)
        pairs += 1
    assert pairs > 0


def slot_bijection_blocks(row_sums, col_sums):
    """Oracle for ``_block_partitions``: every bijection of the left circle
    slots onto the right ones, and the connected components of each
    resulting bipartite multigraph (left nodes 0..p-1, right nodes p..)."""
    p = len(row_sums)
    lslots = [i for i, b in enumerate(row_sums) for _ in range(b)]
    rslots = [p + j for j, b in enumerate(col_sums) for _ in range(b)]
    found = set()
    for perm in itertools.permutations(rslots):
        adjacent = {node: set() for node in range(p + len(col_sums))}
        for a, b in zip(lslots, perm):
            adjacent[a].add(b)
            adjacent[b].add(a)
        blocks, seen = [], set()
        for start in adjacent:
            if start in seen:
                continue
            component, stack = set(), [start]
            while stack:
                node = stack.pop()
                if node not in component:
                    component.add(node)
                    stack.extend(adjacent[node] - component)
            seen |= component
            blocks.append(tuple(sorted(component)))
        found.add(tuple(sorted(blocks)))
    return tuple(sorted(found))


def test_block_partitions_match_slot_bijections():
    # every balanced pair of margins with at most three pieces and four
    # circles a side; the pieces a closed presentation glues give 49 of them
    margins = [
        m
        for total in range(1, 5)
        for k in range(1, 4)
        for m in itertools.product(range(1, total + 1), repeat=k)
        if sum(m) == total
    ]
    pairs = [(r, c) for r in margins for c in margins if sum(r) == sum(c)]
    assert len(pairs) == 70
    for row_sums, col_sums in pairs:
        want = slot_bijection_blocks(row_sums, col_sums)
        assert sk_groups._block_partitions(row_sums, col_sums) == want, (row_sums, col_sums)
    used = {
        (tuple(b for _, b in left), tuple(b for _, b in right))
        for left, right in piece_pairs(Caps(2, 2, 2))
    }
    assert len(used) == 49
    assert used <= set(pairs)


# sha256 of the JSON of [every distinct gluing row, every fitting union
# square, class labels]: the closed group presented by all its rows
CLOSED_DIGESTS = {
    (2, 2, 2): (5, "9b7f7d5f48ad3f93eabe085953d4a35dbc59ff51c4f431dcad2f5df99a525601"),
    (3, 2, 3): (42, "f2ada44d584a2ac5e0e2fa944c812d1bf988ae690d845a5a9a5b80d47198d84f"),
    (3, 3, 3): (42, "f2ada44d584a2ac5e0e2fa944c812d1bf988ae690d845a5a9a5b80d47198d84f"),
    (4, 3, 3): (92, "7bc59202fdd3c1e1055ccfd0db92c8dafffdfbd8b22743f9074593ec959da9b7"),
}
# gluing rows the closed record keeps: a spanning forest of those above
FOREST_ROWS = {(2, 2, 2): 4, (3, 2, 3): 24, (3, 3, 3): 24, (4, 3, 3): 42}


@pytest.mark.parametrize("caps", sorted(CLOSED_DIGESTS))
def test_closed_presentation_digest(caps):
    """The record keeps a spanning forest of the gluing rows and spanning
    union squares; every class has the normal form it has when the group is
    presented by all of them."""
    caps = Caps(*caps)
    pres = closed_sk_presentation(caps)
    oracle = all_rows_closed_record(caps)
    squares, _ = all_pairs_union_squares({c: i for i, c in enumerate(pres.classes)}, caps)
    blob = json.dumps([oracle.relations, squares, [c.label() for c in pres.classes]])
    assert (len(oracle.relations), hashlib.sha256(blob.encode()).hexdigest()) == CLOSED_DIGESTS[caps]
    assert set(pres.relations) <= set(oracle.relations)
    assert len(pres.relations) == FOREST_ROWS[caps]
    assert pres.coordinates == oracle.coordinates


def test_closed_presentation_evaluates_fewer_patterns(monkeypatch):
    # The permutation enumeration evaluated one glued class per distinct
    # edge pattern of every piece pair.  The block-partition enumeration of
    # every pair (all_gluing_rows) skips piece pairs whose chi cannot fit the
    # caps and evaluates each block partition once per remaining pair.  The
    # record also skips pairs whose chi level its forest already spans.
    caps = Caps(3, 2, 3)
    oracle_patterns = sum(permutation_gluings(l, r)[1] for l, r in piece_pairs(caps))
    assert oracle_patterns == 13107
    evaluated = []
    partitions = sk_groups._block_partitions

    def counting(row_sums, col_sums):
        out = partitions(row_sums, col_sums)
        evaluated.append(len(out))
        return out

    monkeypatch.setattr(sk_groups, "_block_partitions", counting)
    closed_sk_presentation.cache_clear()
    try:
        all_rows = all_gluing_rows(caps)
        every_pair = sum(evaluated)
        evaluated.clear()
        pres = closed_sk_presentation(caps)
    finally:
        closed_sk_presentation.cache_clear()
    assert len(all_rows) == 42
    assert every_pair < oracle_patterns
    assert every_pair == 4676
    assert len(pres.group.relations) == 55
    assert sum(evaluated) == 1960


# sha256 of the JSON of [label, free, torsion, moduli] for every class's
# normal form, in class order: (with-boundary record, closed record).  A
# change to how either record is presented must leave these unchanged.
NORMAL_FORM_DIGESTS = {
    (2, 2, 2): (
        "f26104c38df4c73a1323b2d579f902ddfc0d5e672ffc3935a850ec632e8c2a8b",
        "69bc33905b52de2c42386620e7bc25aefc741a93a1720e8aa59dff0181eb7cd3",
    ),
    (3, 2, 3): (
        "6669229ba1ce1de05f600b621b328f3f3a44ac035a0ecc8df6a41a3f3a09f890",
        "6b7c343859a24c5c18ee79a7f28c391f081e21eeed200e7893d283adc9da186f",
    ),
    (3, 3, 3): (
        "52120c91f574607d66e10eed5059ad3985968ef4b5288a6d9473efb76bf7a2d2",
        "6b7c343859a24c5c18ee79a7f28c391f081e21eeed200e7893d283adc9da186f",
    ),
    (4, 2, 3): (
        "ce5f5f5d5e711cf022f0d52b71c6c1ee3ca7ed388e15ccdaaa703ed9bf6a6092",
        "a7feef9426e25f4b526baac55612c4f9f867cc1583bbc99f79c2b7c83a9b7c17",
    ),
    (4, 3, 3): (
        "ce76f2a1df11242f177dcce2f1ebb95de1a113d6691fd07573a8a1434d72473e",
        "a7feef9426e25f4b526baac55612c4f9f867cc1583bbc99f79c2b7c83a9b7c17",
    ),
    (5, 3, 3): (
        "262f82d5d096cd9ca26b0825969daf70879783f90a7bba693ada2029dc57e6ce",
        "9124b3857473819756c457f3d8aad32b73eff7387b1439f7465d8a408dfc44ab",
    ),
    (6, 4, 3): (
        "7ac9a80f58e3b15ac33b5418c3aa0ef4f11fb1087a8db3f24260de4956c9b226",
        "23a20a1bc4d52ba48db4e12a2cf578c9aa11bb86b5525902f739aeb59f809d52",
    ),
}


def normal_form_digest(record) -> str:
    blob = json.dumps([[label, nf.free, nf.torsion, nf.moduli] for label, nf in record.coordinates.items()])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("caps", sorted(NORMAL_FORM_DIGESTS), ids=lambda c: "%d,%d,%d" % c)
def test_normal_forms_digest(caps):
    caps = Caps(*caps)
    records = (surface_squares_presentation(caps), closed_sk_presentation(caps))
    assert tuple(map(normal_form_digest, records)) == NORMAL_FORM_DIGESTS[caps]


def test_caps_requests_build_no_dense_relation(monkeypatch):
    """Presentations, AbHom checks and K0 coordinates run on sparse relation
    rows and sparse hom images: with the dense relation view and the dense
    matrix views raising, both cold caps requests still pass."""

    def dense(self, *args):
        raise AssertionError("a dense relation row or matrix row was read")

    monkeypatch.setattr(AbGroupPresentation, "relations", property(dense))
    monkeypatch.setattr(IntMatrix, "entries", property(dense))
    caches = (surface_squares_presentation, closed_sk_presentation)
    for f in caches:
        f.cache_clear()
    try:
        k0 = k0_of_surfaces(Caps(3, 2, 3))
        report = verify_exact_sequence(Caps(3, 2, 3))
    finally:
        for f in caches:
            f.cache_clear()
    assert (k0.free_rank, k0.torsion) == (2, ())
    assert report.passed


def test_boundary_group_is_z2():
    pres = surface_squares_presentation(Caps(3, 3, 3))
    assert pres.group.quotient_invariants() == (2, ())


def test_disjoint_union_is_addition_in_coordinates():
    group = surface_squares_presentation(Caps(2, 2, 2)).group
    pairs = [((0, 1), (1, 1)), ((0, 0), (0, 2)), ((1, 0), (2, 1))]
    for p1, p2 in pairs:
        a = DiffeoClass.connected(*p1)
        b = DiffeoClass.connected(*p2)
        u = a.union(b)
        vec = lattice_oracle.class_vector(group, [(u, 1), (a, -1), (b, -1)])
        assert group.element_normal_form(vec).is_zero()


def test_circles_group():
    g = circles_group()
    assert g.quotient_invariants() == (1, ())
    nf = g.element_normal_form([3])
    assert nf == NormalForm((), (), (3,))


# ---------------------------------------------------------------------------
# The two homomorphisms
# ---------------------------------------------------------------------------


def test_boundary_count_on_disk():
    bdry = surface_squares_presentation(Caps(2, 2, 2))
    group = bdry.group
    beta = boundary_count_hom(bdry)
    disk_vec = to_sparse(lattice_oracle.class_vector(group, [(DiffeoClass.connected(0, 1), 1)]))
    img = beta._transpose.times_column(disk_vec)
    assert img == {0: 1}
    assert beta.target.element_normal_form(img) == NormalForm((), (), (1,))
    assert beta.is_surjective()


def test_composite_is_zero():
    alpha = closed_inclusion_hom(Caps(2, 2, 2))
    beta = boundary_count_hom(surface_squares_presentation(Caps(2, 2, 2)))
    assert beta.compose(alpha).is_zero()


def test_inclusion_coordinates_of_sphere():
    alpha = closed_inclusion_hom(Caps(2, 2, 2))
    closed = closed_sk_presentation(Caps(2, 2, 2))
    bdry = surface_squares_presentation(Caps(2, 2, 2))
    sphere = DiffeoClass.connected(0, 0)
    img = alpha._transpose.times_column(to_sparse(lattice_oracle.class_vector(closed.group, [(sphere, 1)])))
    assert img == {bdry.group.generator_index[sphere.label()]: 1}
    assert bdry.group.element_normal_form(img) == bdry.coordinate_of(sphere)


def test_exact_sequence_reads_no_class_label(monkeypatch):
    """Both maps read the records' classes by index: with label parsing
    raising, a cold exact sequence still passes."""

    def parse(cls, text):
        raise AssertionError("a class label was parsed")

    monkeypatch.setattr(DiffeoClass, "from_label", classmethod(parse))
    caches = (surface_squares_presentation, closed_sk_presentation)
    for f in caches:
        f.cache_clear()
    try:
        report = verify_exact_sequence(Caps(3, 2, 3))
    finally:
        for f in caches:
            f.cache_clear()
    assert report.passed


@pytest.mark.parametrize("caps", [Caps(2, 2, 2), Caps(3, 3, 3), Caps(3, 3, 4)])
def test_exact_sequence(caps):
    report = verify_exact_sequence(caps)
    assert report.inclusion_injective
    assert report.exact_at_middle
    assert report.count_surjective
    assert report.composite_zero
    assert report.passed


@pytest.mark.parametrize(
    "caps", [Caps(1, 1, 1), Caps(2, 2, 2), Caps(3, 2, 3), Caps(3, 3, 3)]
)
def test_exact_sequence_matches_lattice_oracle(caps):
    """The four report fields, decided in Smith quotient coordinates, equal
    the full-width lattice verdicts.  verify_exact_sequence refuses (1,1,1),
    below its boundary floor; the same four checks on its two maps read
    exact_at_middle FAIL there, and so does the oracle."""
    alpha = closed_inclusion_hom(caps)
    beta = boundary_count_hom(surface_squares_presentation(caps))
    if caps.boundary < MIN_EXACT_BOUNDARY:
        with pytest.raises(ValueError, match="boundary cap of at least 2"):
            verify_exact_sequence(caps)
        fields = (
            alpha.is_injective(),
            check_exact_at(alpha, beta),
            beta.is_surjective(),
            beta.compose(alpha).is_zero(),
        )
        assert not fields[1]
    else:
        report = verify_exact_sequence(caps)
        assert report.passed
        fields = (
            report.inclusion_injective,
            report.exact_at_middle,
            report.count_surjective,
            report.composite_zero,
        )
    assert fields == (
        lattice_oracle.is_injective(alpha),
        lattice_oracle.exact_at(alpha, beta),
        lattice_oracle.is_surjective(beta),
        lattice_oracle.is_zero(beta.compose(alpha)),
    )


# Widest lattice the hom checks of the exact sequence may build, in columns:
# the quotient-coordinate kernel of beta is augmented over Q(with boundary)
# + Q(circles) = Z^2 + Z, three columns.  The generator space at (3,3,3) has
# 969 with-boundary generators.
HOM_CHECK_WIDTH_BOUND = 3


def test_exact_sequence_hom_checks_stay_narrow(monkeypatch):
    """With both presentations and their lattices warm, no IntegerLattice
    that verify_exact_sequence builds at (3,3,3) is wider than
    HOM_CHECK_WIDTH_BOUND."""
    caps = Caps(3, 3, 3)
    for pres in (closed_sk_presentation(caps), surface_squares_presentation(caps)):
        pres.group._analysis.normalized_lattice
    widths = []
    init = IntegerLattice.__init__

    def recording(self, width):
        widths.append(width)
        init(self, width)

    monkeypatch.setattr(IntegerLattice, "__init__", recording)
    assert verify_exact_sequence(caps).passed
    assert widths
    assert max(widths) <= HOM_CHECK_WIDTH_BOUND


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


def test_double_of_disk_is_sphere():
    disk = fan_disk(3)
    assert double_surface(disk).classify() == DiffeoClass.connected(0, 0)


def test_double_is_closed():
    for g, b in [(0, 1), (1, 1), (0, 2), (2, 1)]:
        dm = double_surface(build_standard(g, b))
        assert dm.classify().is_closed
        # chi(DM) = 2 chi(M)
        assert dm.euler_characteristic() == 2 * (2 - 2 * g - b)


def test_doubling_witness_disk_vs_disk():
    w = doubling_witness(fan_disk(3), fan_disk(4))
    assert w.certified
    assert w.double == DiffeoClass.connected(0, 0)
    assert w.glued == DiffeoClass.connected(0, 0)


def test_doubling_witness_mixed_pair():
    w = doubling_witness(build_standard(1, 1), build_standard(0, 1))
    assert w.certified
    assert w.double == DiffeoClass.connected(2, 0)
    assert w.glued == DiffeoClass.connected(1, 0)


def test_doubling_requires_matching_boundaries():
    with pytest.raises(SurfaceError):
        doubling_witness(fan_disk(3), octahedron())


def test_doubling_witness_generator_pairs_small():
    types = [(g, b) for g in range(2) for b in range(3)]
    for m1, m2 in itertools.combinations_with_replacement(types, 2):
        if m1[1] != m2[1]:
            continue
        w = doubling_witness(build_standard(*m1), build_standard(*m2))
        assert w.certified, (m1, m2)


def acceptance_doubling_pairs():
    """The pairs acceptance criterion 5 certifies: library surfaces of
    connected types up to (3,3) with equal circle counts, and two
    disconnected samples."""
    types = [(g, b) for g in range(4) for b in range(4)]
    pairs = [
        (DiffeoClass.connected(*m1), DiffeoClass.connected(*m2))
        for m1, m2 in itertools.combinations_with_replacement(types, 2)
        if m1[1] == m2[1]
    ]
    return pairs + [
        (DiffeoClass.from_pairs([(0, 1), (0, 1)]), DiffeoClass.from_pairs([(1, 2)])),
        (DiffeoClass.from_pairs([(1, 1), (0, 1)]), DiffeoClass.from_pairs([(0, 2), (0, 0)])),
    ]


def test_doubling_witness_matches_the_lattice_oracle():
    """On every pair of the acceptance suite, the (chi, b) comparison of
    [M] - [N] with [DM] - [L] answers as coordinates in the with-boundary
    group at the covering caps do."""
    pairs = acceptance_doubling_pairs()
    assert len(pairs) == 42
    for cm, cn in pairs:
        w = doubling_witness(library_surface(cm), library_surface(cn))
        assert (w.original, w.other) == (cm, cn)
        oracle = lattice_oracle.lattice_differences_equal((cm, cn), (w.double, w.glued))
        assert w.difference_matches == oracle, (cm.label(), cn.label())
        assert w.certified


def test_certificates_build_no_presentation(monkeypatch):
    """The doubling witness and the cylinder collapse read (chi, b): neither
    builds a presentation, so neither has a class ceiling."""
    from cutpaste import squares_k0

    def build(*args, **kwargs):
        raise AssertionError("a presentation was built")

    for module in (squares_k0, sk_groups):
        monkeypatch.setattr(module, "surface_squares_presentation", build)
    monkeypatch.setattr(squares_k0, "classes_within", build)
    assert doubling_witness(build_standard(3, 3), build_standard(1, 3)).certified
    assert skk_collapse_check(3, (0, 1, 2), (2, 0, 1)).certified
    # seven annuli: covering caps 2,2,7 span 11,440 classes, above the ceiling
    identity = tuple(range(7))
    rep = skk_collapse_check(7, identity, (1, 0) + identity[2:])
    assert rep.certified and rep.first_class.component_count == 7


def test_glue_to_mirror_produces_closed_surface():
    out = glue_to_mirror(build_standard(0, 2), build_standard(1, 2))
    assert out.classify().is_closed


# ---------------------------------------------------------------------------
# Equivalence decision
# ---------------------------------------------------------------------------


def fig2_surfaces():
    m = disjoint_union(build_standard(2, 0), build_standard(0, 0))
    n = disjoint_union(build_standard(1, 0), build_standard(1, 0))
    return m, n


def test_decide_fig2_yes():
    m, n = fig2_surfaces()
    dec = decide_equivalent(m, n)
    assert dec.equivalent
    assert dec.chi == (-2 + 2, 0 + 0)


def test_decide_disk_vs_sphere_no():
    dec = decide_equivalent(fan_disk(3), octahedron())
    assert not dec.equivalent
    assert dec.boundary_circles == (1, 0)


def test_decide_torus_vs_sphere_no():
    dec = decide_equivalent(seven_vertex_torus(), octahedron())
    assert not dec.equivalent
    assert dec.chi == (0, 2)


# the caps at which the decision is compared with the lattice oracle
ORACLE_CAPS = [Caps(g, b, k) for g in range(2, 5) for b in range(2, 4) for k in range(2, 4)]


@pytest.mark.parametrize("caps", ORACLE_CAPS, ids=lambda c: "%d,%d,%d" % c)
def test_coordinate_partition_is_the_chi_b_partition(caps):
    blocks: dict = {}
    for cls in surface_squares_presentation(caps).classes:
        blocks.setdefault((cls.chi, cls.boundary_circles), set()).add(cls)
    assert lattice_oracle.coordinate_partition(caps) == {frozenset(b) for b in blocks.values()}


@lru_cache(maxsize=None)
def library_surface(cls):
    return library_for_class(cls)[0]


@pytest.mark.parametrize("caps", ORACLE_CAPS, ids=lambda c: "%d,%d,%d" % c)
def test_decide_agrees_with_the_lattice_decision(caps):
    """Library surfaces whose covering caps are exactly ``caps``: the class
    of genus caps.genus with caps.boundary circles plus spheres up to the
    component cap, against every class within the caps whose chi and whose
    circle count are each within 2 of its own (chi + b is even, so equal chi
    with other circle counts needs a circle count 2 away)."""
    top = DiffeoClass.from_pairs([(caps.genus, caps.boundary)] + [(0, 0)] * (caps.components - 1))
    others = [
        c for c in classes_within(caps)
        if abs(c.chi - top.chi) <= 2 and abs(c.boundary_circles - top.boundary_circles) <= 2
    ]
    assert lattice_oracle.covering_caps([top]) == caps
    answers = set()
    for other in others:
        dec = decide_equivalent(library_surface(top), library_surface(other))
        assert dec.equivalent == lattice_oracle.lattice_decision(top, other), other.label()
        answers.add(dec.equivalent)
    assert answers == {True, False}


def test_decide_above_the_class_ceiling_builds_no_group(monkeypatch):
    """Covering caps 12,2,3 span 11,480 classes, above the ceiling; the
    decision still answers, from (chi, b) alone."""
    from cutpaste import squares_k0

    def build(*args, **kwargs):
        raise AssertionError("a group was built")

    for module in (squares_k0, sk_groups):
        monkeypatch.setattr(module, "surface_squares_presentation", build)
    monkeypatch.setattr(squares_k0, "classes_within", build)
    m = library_surface(DiffeoClass.from_pairs([(12, 1), (1, 1), (0, 2)]))
    n = library_surface(DiffeoClass.from_pairs([(11, 1), (2, 1), (0, 2)]))
    n2 = library_surface(DiffeoClass.from_pairs([(11, 1), (1, 1), (0, 2)]))
    assert m.triangle_count == 578
    dec = decide_equivalent(m, n)
    assert dec.equivalent and dec.chi == (-24, -24) and dec.boundary_circles == (4, 4)
    dec = decide_equivalent(m, n2)
    assert not dec.equivalent and dec.chi == (-24, -22) and dec.boundary_circles == (4, 4)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def test_witness_for_isomorphic_surfaces_is_empty():
    m = build_standard(1, 1)
    w = find_witness(m, build_standard(1, 1), budget=3)
    assert w.steps == ()
    assert replay_witness(w) == m.classify()


def test_witness_exhausted_on_zero_budget():
    m, n = fig2_surfaces()
    with pytest.raises(SearchExhausted):
        find_witness(m, n, budget=0)


def test_fig2_witness_within_budget():
    m, n = fig2_surfaces()
    w = find_witness(m, n, budget=6)
    assert 1 <= len(w.steps) <= 6
    assert w.end == DiffeoClass.from_pairs([(1, 0), (1, 0)])
    assert replay_witness(w) == n.classify()


def test_witness_steps_preserve_invariants():
    m, n = fig2_surfaces()
    w = find_witness(m, n, budget=6)
    cls = w.start
    for step in w.steps:
        nxt = apply_move(cls, step)
        assert nxt.chi == cls.chi
        assert nxt.boundary_circles == cls.boundary_circles
        cls = nxt
    assert cls == w.end


def test_witness_determinism():
    m, n = fig2_surfaces()
    w1 = find_witness(m, n, budget=6)
    w2 = find_witness(m, n, budget=6)
    assert w1 == w2


# ---------------------------------------------------------------------------
# Cylinder regluing collapse
# ---------------------------------------------------------------------------


def test_single_circle_collapse():
    rep = skk_collapse_check(1, (0,), (0,), first_offsets=[0], second_offsets=[1])
    assert rep.certified
    assert rep.first_class == DiffeoClass.connected(0, 2)


def test_two_circle_swap_collapse():
    rep = skk_collapse_check(2, (0, 1), (1, 0))
    assert rep.certified
    assert rep.first_class == DiffeoClass.from_pairs([(0, 2), (0, 2)])
    assert rep.second_class == DiffeoClass.from_pairs([(0, 2), (0, 2)])


@pytest.mark.parametrize("first, second", [([0], None), (None, [0, 0, 0])])
def test_collapse_refuses_offsets_of_the_wrong_length(first, second):
    count = len(first or second)
    with pytest.raises(ValueError, match=f"got {count} offsets for 2 circles"):
        skk_collapse_check(2, (0, 1), (1, 0), first, second)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_collapse_for_all_pairings(k):
    identity = tuple(range(k))
    for phi in itertools.permutations(range(k)):
        rep = skk_collapse_check(k, identity, phi)
        assert rep.certified, (k, phi)
        assert rep.coordinates_equal


def test_decide_beyond_default_caps():
    # genus five vs a two-component class with equal chi and no boundary
    m = build_standard(5, 0)
    n = disjoint_union(build_standard(4, 0), build_standard(2, 0))
    assert m.euler_characteristic() == n.euler_characteristic() == -8
    dec = decide_equivalent(m, n)
    assert dec.equivalent
    # and a near miss differing in chi only
    n2 = disjoint_union(build_standard(4, 0), build_standard(1, 0))
    assert not decide_equivalent(m, n2).equivalent
