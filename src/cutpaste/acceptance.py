"""The acceptance suite: one callable per criterion, deterministic given the seed.

Each criterion returns a CriterionResult with a pass flag, a detail string
and its runtime; the stated runtime limits are recorded alongside so the
test harness can pin them.  Reports rendered through ``to_lines`` exclude
timings, which keeps repeated runs byte-identical.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import prod

from .abgroup import IntMatrix, smith_normal_form
from .euler_functor import chains_of, functor_on_square, square_from_circles
from .sk_groups import (
    Caps,
    decide_equivalent,
    doubling_witness,
    find_witness,
    replay_witness,
    skk_collapse_check,
    verify_exact_sequence,
)
from .squares_k0 import SquaresPresentation, k0_of_surfaces, k0_presentation
from .surface import (
    DiffeoClass,
    NonSeparatingCut,
    build_standard,
    cut,
    disjoint_union,
    paste_cut,
    sk_system_move,
    standard_library,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    limit_seconds: float
    runtime_seconds: float
    detail: str

    def line(self, with_timing: bool = False) -> str:
        out = (
            f"criterion={self.number} name={self.name} "
            f"status={'PASS' if self.passed else 'FAIL'} detail={self.detail}"
        )
        if with_timing:
            out += f" time={self.runtime_seconds:.2f}s limit={self.limit_seconds:.0f}s"
        return out


def _criterion(number: int, name: str, limit_seconds: float):
    """Make a body that returns (passed, detail) a criterion: called with a
    seed, it times the body and returns its CriterionResult."""

    def wrap(body):
        @wraps(body)
        def criterion(seed: int = 0) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = body(seed)
            return CriterionResult(
                number, name, passed, limit_seconds, time.perf_counter() - start, detail
            )

        return criterion

    return wrap


# ---------------------------------------------------------------------------
# 1. Smith normal form against a coset-enumeration oracle
# ---------------------------------------------------------------------------


def _rational_inverse(rows):
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        piv = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def coset_count_oracle(rows) -> int:
    """Order of Z^n modulo the row lattice of a full-rank square matrix,
    counted by enumerating fractional coordinates (no Smith machinery)."""
    n = len(rows)
    rinv = _rational_inverse(rows)

    def key(v):
        out = []
        for j in range(n):
            s = sum(Fraction(v[i]) * rinv[i][j] for i in range(n))
            out.append(s - (s.numerator // s.denominator))
        return tuple(out)

    seen = {key(tuple([0] * n))}
    frontier = [tuple([0] * n)]
    while frontier:
        v = frontier.pop()
        for i in range(n):
            for delta in (1, -1):
                w = list(v)
                w[i] += delta
                k = key(w)
                if k not in seen:
                    seen.add(k)
                    frontier.append(tuple(w))
    return len(seen)


@_criterion(1, "snf_correctness", 10.0)
def criterion_1_snf(seed: int = 0):
    rng = random.Random(seed)
    oracle_checked = 0
    for trial in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n)))
        res = smith_normal_form(a)
        try:
            res.verify(a)
        except AssertionError as exc:
            return False, f"trial {trial}: {exc}"
        if m == n:
            det = a.det()
            if det != 0 and abs(det) <= 200:
                order = coset_count_oracle(a.to_rows())
                if order != prod(res.d):
                    return False, f"trial {trial}: oracle order {order} != {prod(res.d)}"
                oracle_checked += 1
    return True, f"500 matrices verified, {oracle_checked} against the coset oracle"


# ---------------------------------------------------------------------------
# 2. Surface calculus
# ---------------------------------------------------------------------------


@_criterion(2, "surface_calculus", 30.0)
def criterion_2_surfaces(seed: int = 0):
    for g in range(4):
        for b in range(4):
            s = build_standard(g, b)
            if s.classify() != DiffeoClass.connected(g, b):
                return False, f"classify(build_standard({g},{b})) = {s.classify()}"
            if s.euler_characteristic() != 2 - 2 * g - b:
                return False, f"chi(build_standard({g},{b})) wrong"
    rng = random.Random(seed)
    classes = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    trips = 0
    while trips < 200:
        g, b = classes[rng.randrange(len(classes))]
        lib = standard_library(g, b)
        circles = list(lib.seams) + list(lib.nulls)
        if not circles:
            continue
        circle = circles[rng.randrange(len(circles))]
        s = lib.surface
        fingerprint = sorted(len(c) for c in s.boundary_cycles)
        try:
            cut_surface, rec = cut(s, circle)
        except NonSeparatingCut:
            continue
        back = paste_cut(cut_surface, rec, rng.randrange(len(rec.left)))
        if (
            back.classify() != s.classify()
            or back.euler_characteristic() != s.euler_characteristic()
            or sorted(len(c) for c in back.boundary_cycles) != fingerprint
        ):
            return False, f"round trip {trips} on ({g},{b}) broke an invariant"
        trips += 1
    return True, "library classified, 200 cut/paste round trips clean"


# ---------------------------------------------------------------------------
# 3. The two-tori relation
# ---------------------------------------------------------------------------


@_criterion(3, "two_tori_relation", 60.0)
def criterion_3_two_tori(seed: int = 0):
    m = disjoint_union(build_standard(2, 0), build_standard(0, 0))
    n = disjoint_union(build_standard(1, 0), build_standard(1, 0))
    dec = decide_equivalent(m, n)
    if not dec.equivalent:
        return False, "equivalence decision failed"
    witness = find_witness(m, n, budget=6)
    replayed = replay_witness(witness)
    target = DiffeoClass.from_pairs([(1, 0), (1, 0)])
    ok = len(witness.steps) <= 6 and replayed == target
    return ok, f"witness of {len(witness.steps)} moves replays to {replayed.label()}"


# ---------------------------------------------------------------------------
# 4. K0 of the surface squares category vs the cut-and-paste group
# ---------------------------------------------------------------------------


@_criterion(4, "k0_equals_sk", 60.0)
def criterion_4_k0(seed: int = 0):
    for caps in (Caps(2, 2, 2), Caps(3, 3, 3), Caps(4, 3, 3)):
        res = k0_of_surfaces(caps)
        if res.free_rank != 2 or res.torsion:
            return False, f"caps {caps}: invariants ({res.free_rank}, {res.torsion})"
        by_coord: dict = {}
        by_chib: dict = {}
        for cls in res.instance.classes:
            nf = res.coordinate_of(cls)
            by_coord.setdefault((nf.free, nf.torsion), set()).add(cls)
            by_chib.setdefault((cls.chi, cls.boundary_circles), set()).add(cls)
        part1 = sorted(frozenset(v) for v in by_coord.values())
        part2 = sorted(frozenset(v) for v in by_chib.values())
        if part1 != part2:
            return False, f"caps {caps}: (chi, boundary) is not a complete coordinate invariant"
        group = res.group
        ngen = len(group.generators)
        s2 = group.generator_index[DiffeoClass.connected(0, 0).label()]
        for g in range(caps.genus + 1):
            vec = [0] * ngen
            vec[s2] = 1 - g
            want = group.element_normal_form(vec)
            got = res.coordinate_of(DiffeoClass.connected(g, 0))
            if want != got:
                return False, f"caps {caps}: genus-{g} class is not (1-{g}) times the sphere"
    return True, "rank 2, torsion-free, (chi, boundary) complete, genus line exact at all caps"


# ---------------------------------------------------------------------------
# 5. Exact sequence with doubling witnesses
# ---------------------------------------------------------------------------


@_criterion(5, "exact_sequence", 60.0)
def criterion_5_exact_sequence(seed: int = 0):
    for caps in (Caps(2, 2, 2), Caps(3, 3, 3)):
        rep = verify_exact_sequence(caps)
        if not rep.passed:
            return False, f"caps {caps}: " + "; ".join(rep.to_lines())
    pairs = 0
    types = [(g, b) for g in range(4) for b in range(4)]
    for m1, m2 in itertools.combinations_with_replacement(types, 2):
        if m1[1] != m2[1]:
            continue
        w = doubling_witness(build_standard(*m1), build_standard(*m2))
        if not w.certified:
            return False, f"doubling witness failed for {m1} vs {m2}"
        pairs += 1
    # a few disconnected samples
    samples = [
        (DiffeoClass.from_pairs([(0, 1), (0, 1)]), DiffeoClass.from_pairs([(1, 2)])),
        (DiffeoClass.from_pairs([(1, 1), (0, 1)]), DiffeoClass.from_pairs([(0, 2), (0, 0)])),
    ]
    from .surface import library_for_class

    for ca, cb in samples:
        sa, _ = library_for_class(ca)
        sb, _ = library_for_class(cb)
        w = doubling_witness(sa, sb)
        if not w.certified:
            return False, f"doubling witness failed for {ca.label()} vs {cb.label()}"
        pairs += 1
    return True, f"exactness at both cap levels, {pairs} doubling certificates"


# ---------------------------------------------------------------------------
# 6. Chain-level theorems
# ---------------------------------------------------------------------------


@_criterion(6, "chain_level", 60.0)
def criterion_6_chain_level(seed: int = 0):
    rng = random.Random(seed)
    classes = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)]
    squares = 0
    attempts = 0
    while squares < 50 and attempts < 400:
        attempts += 1
        g, b = classes[rng.randrange(len(classes))]
        lib = standard_library(g, b)
        circles = list(lib.seams) + list(lib.nulls)
        if not circles:
            continue
        take = rng.randint(1, min(2, len(circles)))
        chosen = rng.sample(circles, take)
        from .surface import circles_vertex_disjoint

        if not circles_vertex_disjoint(chosen):
            continue
        q = square_from_circles(lib.surface, chosen)
        rep = functor_on_square(q)
        if not rep.passed:
            return False, f"square on ({g},{b}) failed at degree {rep.failing_degree}"
        squares += 1
    if squares < 50:
        return False, f"only {squares} squares generated"
    # commutation on generators and on move outputs
    samples = [build_standard(g, b) for g in range(4) for b in range(4)]
    from .surface import library_for_class

    surf, comps = library_for_class(DiffeoClass.from_pairs([(2, 0), (0, 0)]))
    genus2 = next(c for c in comps if c.seams)
    sphere = next(c for c in comps if not c.seams)
    samples.append(surf)
    samples.append(
        sk_system_move(surf, [genus2.seams[0], sphere.nulls[0]], pairing=(1, 0))
    )
    for s in samples:
        if chains_of(s).k0_class() != s.euler_characteristic():
            return False, f"k0 class disagrees with chi on {s.classify().label()}"
    return True, f"{squares} gluing squares verified, k0 = chi on {len(samples)} samples"


# ---------------------------------------------------------------------------
# 7. Cylinder regluing collapse
# ---------------------------------------------------------------------------


@_criterion(7, "cylinder_collapse", 10.0)
def criterion_7_collapse(seed: int = 0):
    checked = 0
    for k in (1, 2, 3):
        identity = tuple(range(k))
        for phi in itertools.permutations(range(k)):
            rep = skk_collapse_check(k, identity, phi)
            if not rep.certified:
                return False, f"pairing {phi} on {k} circles does not collapse"
            checked += 1
    return True, f"{checked} pairings certified for up to three circles"


# ---------------------------------------------------------------------------
# 8. K0 engine sanity
# ---------------------------------------------------------------------------


@_criterion(8, "k0_engine_sanity", 10.0)
def criterion_8_engine_sanity(seed: int = 0):
    rng = random.Random(seed)
    for trial in range(100):
        n = rng.randint(2, 6)
        objects = tuple(f"X{i}" for i in range(n))
        squares = tuple(
            tuple(rng.randrange(n) for _ in range(4))
            for _ in range(rng.randint(0, 8))
        )
        p = SquaresPresentation(objects=objects, basepoint=0, squares=squares)
        inv = k0_presentation(p).quotient_invariants()
        a, b = rng.randrange(n), rng.randrange(n)
        extra = (a, b, a, b) if rng.random() < 0.5 else (a, a, b, b)
        p2 = SquaresPresentation(objects, 0, squares + (extra,))
        if k0_presentation(p2).quotient_invariants() != inv:
            return False, f"trial {trial}: degenerate square changed the invariants"
        shuffled = list(squares)
        rng.shuffle(shuffled)
        p3 = SquaresPresentation(objects, 0, tuple(shuffled))
        if k0_presentation(p3).quotient_invariants() != inv:
            return False, f"trial {trial}: permuting squares changed the invariants"
    return True, "100 presentations stable under degenerate squares and permutation"


ALL_CRITERIA = (
    criterion_1_snf,
    criterion_2_surfaces,
    criterion_3_two_tori,
    criterion_4_k0,
    criterion_5_exact_sequence,
    criterion_6_chain_level,
    criterion_7_collapse,
    criterion_8_engine_sanity,
)


@dataclass(frozen=True)
class AcceptanceReport:
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_lines(self, with_timing: bool = False) -> list[str]:
        out = [r.line(with_timing) for r in self.results]
        out.append(f"acceptance={'PASS' if self.passed else 'FAIL'}")
        return out


def run_acceptance_suite(seed: int = 0, only=None) -> AcceptanceReport:
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if only is not None and i not in only:
            continue
        results.append(fn(seed))
    return AcceptanceReport(results=tuple(results))
