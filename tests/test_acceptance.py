"""The acceptance gate: every criterion must pass within its stated budget.

Each test prints one pass/fail line (shown with pytest -s or on failure)
and asserts both the outcome and the runtime limit pinned in the suite.
"""

import json

import pytest

from cutpaste import abgroup, sk_groups, surface
from cutpaste.acceptance import (
    criterion_1_snf,
    criterion_2_surfaces,
    criterion_3_two_tori,
    criterion_4_k0,
    criterion_5_exact_sequence,
    criterion_6_chain_level,
    criterion_7_collapse,
    criterion_8_engine_sanity,
    run_acceptance_suite,
)
from cutpaste.squares_k0 import Caps, k0_of_surfaces, surface_squares_presentation
from cutpaste.surface import TriSurface, build_standard, subdivide

CRITERIA = [
    criterion_1_snf,
    criterion_2_surfaces,
    criterion_3_two_tori,
    criterion_4_k0,
    criterion_5_exact_sequence,
    criterion_6_chain_level,
    criterion_7_collapse,
    criterion_8_engine_sanity,
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(seed=0)
    print(result.line(with_timing=True))
    assert result.passed, result.detail
    assert result.runtime_seconds < result.limit_seconds, (
        f"{result.name} took {result.runtime_seconds:.1f}s, "
        f"limit {result.limit_seconds:.0f}s"
    )


def test_suite_report_is_deterministic():
    rep1 = run_acceptance_suite(seed=0, only={7, 8})
    rep2 = run_acceptance_suite(seed=0, only={7, 8})
    assert rep1.to_lines() == rep2.to_lines()
    assert rep1.passed


# Work bounds: counts of lattice operations, which repeat exactly from run to
# run.  They sit beside the wall-clock limits above and do not replace them.

# `_submul` calls made while fully normalizing the with-boundary lattice at
# caps (3,3,3) (969 generators, rank 967), starting from the state
# `_Analysis` leaves.  Normalizing last pivot first makes 2,628; the
# first-pivot-first walk, which meets later rows before they are reduced,
# made 85,954.
MAX_NORMALIZE_SUBMULS_333 = 3_000

# `_submul` calls made inside `IntegerLattice.add` while a cold `_Analysis`
# echelons the with-boundary relations at caps (5,3,3) (2,925 generators,
# 7,627 relations).  Inserting by least column, descending, makes 14,349;
# the given order, which fills in rows that later rows change again, made
# 300,452.
MAX_ADD_SUBMULS_533 = 30_000

# The same count with the with-boundary relations presented by spanning union
# squares, one per class of two or more components (3,027 relations): 549.
# All fitting pairs of classes as union squares made 14,349.
MAX_SPANNING_ADD_SUBMULS_533 = 1_000

# `_gluing_results` calls made by a cold closed build at caps (4,3,3).
# Skipping a piece pair once its chi level is one tree of the gluing-row
# forest makes 2,294; evaluating every piece pair made 9,630.
MAX_GLUING_RESULTS_433 = 3_000


@pytest.fixture
def cold_group_333():
    """The (3,3,3) with-boundary group, built afresh around the cache."""
    return surface_squares_presentation.__wrapped__(Caps(3, 3, 3)).group


def test_normalize_work_bound_at_333(monkeypatch, cold_group_333):
    analysis = cold_group_333._analysis
    calls = 0
    submul = abgroup._submul

    def counting(*args):
        nonlocal calls
        calls += 1
        submul(*args)

    monkeypatch.setattr(abgroup, "_submul", counting)
    analysis.normalized_lattice
    assert 0 < calls <= MAX_NORMALIZE_SUBMULS_333


def test_add_work_bound_at_533(monkeypatch):
    group = surface_squares_presentation.__wrapped__(Caps(5, 3, 3)).group
    calls = 0
    in_add = False
    submul, add = abgroup._submul, abgroup.IntegerLattice.add

    def counting(*args):
        nonlocal calls
        calls += in_add
        submul(*args)

    def adding(self, vec):
        nonlocal in_add
        in_add = True
        try:
            return add(self, vec)
        finally:
            in_add = False

    monkeypatch.setattr(abgroup, "_submul", counting)
    monkeypatch.setattr(abgroup.IntegerLattice, "add", adding)
    group._analysis
    assert 0 < calls <= MAX_ADD_SUBMULS_533
    assert calls <= MAX_SPANNING_ADD_SUBMULS_533


def test_gluing_work_bound_at_433(monkeypatch):
    calls = 0
    gluing_results = sk_groups._gluing_results

    def counting(*args):
        nonlocal calls
        calls += 1
        return gluing_results(*args)

    monkeypatch.setattr(sk_groups, "_gluing_results", counting)
    closed = sk_groups.closed_sk_presentation.__wrapped__(Caps(4, 3, 3))
    assert closed.group.quotient_invariants() == (1, ())
    assert 0 < calls <= MAX_GLUING_RESULTS_433


class _NoWalk(dict):
    """Pivot rows that may be probed by column but never walked whole."""

    def __iter__(self):
        raise AssertionError("walked every pivot column of the lattice")

    keys = __iter__


def test_normal_forms_never_walk_the_pivots(cold_group_333):
    """`reduce` and `contains` cost the pivot columns a vector reaches: the
    969 unit-vector normal forms and membership tests at (3,3,3) run with
    a pivot-row dict that refuses to be iterated."""
    group = cold_group_333
    lat = group._analysis.normalized_lattice
    lat.rows = _NoWalk(lat.rows)
    n = len(group.generators)
    forms = [group.element_normal_form({i: 1}) for i in range(n)]
    assert [group.is_relation({i: 1}) for i in range(n)] == [f.is_zero() for f in forms]
    assert all(group.is_relation(r) for r in group.rows)
    assert forms == list(k0_of_surfaces(Caps(3, 3, 3)).coordinates.values())


def test_reading_and_checking_a_surface_runs_in_flat_passes(monkeypatch, tmp_path):
    """Parsing a written 3,440-triangle surface and validating it make no
    `_turn` call per corner, and the parse maps the canonical file's refs by
    the identity range, with no per-ref list built."""
    path = tmp_path / "s.surf"
    path.write_text(json.dumps(subdivide(subdivide(build_standard(3, 3))).to_json()))

    def refuse(*args):
        raise AssertionError("stepped corner by corner")

    monkeypatch.setattr(surface, "_turn", refuse)
    s, new_ref = TriSurface.parse_json(json.loads(path.read_text()))
    assert s.triangle_count == 3440
    assert new_ref == range(3 * 3440)
    assert s.validate() is None
