"""Tests for the exact integer linear algebra core.

The oracles here are deliberately independent of the production code paths:
coset counting goes through rational coordinates (Fractions), and the
elementary-divisor sanity facts are first-principles gcd/determinant
computations.
"""

import random
import re
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import lattice_oracle
from cutpaste.abgroup import (
    AbGroupPresentation,
    AbHom,
    IntMatrix,
    IntegerLattice,
    NormalForm,
    SNFResult,
    _Analysis,
    check_exact_at,
    smith_normal_form,
    to_sparse,
    xgcd,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def rational_inverse(rows):
    """Inverse of a full-rank square matrix over the rationals."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
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


def coset_oracle(relation_rows):
    """Enumerate Z^n modulo the row lattice of a full-rank square matrix.

    Returns (order, element_orders).  A vector v lies in coset determined by
    the fractional part of v @ R^{-1}; the order of its coset is the lcm of
    the denominators.  This never touches Smith normal form.
    """
    n = len(relation_rows)
    rinv = rational_inverse(relation_rows)

    def frac_coords(v):
        out = []
        for j in range(n):
            s = sum(Fraction(v[i]) * rinv[i][j] for i in range(n))
            out.append(s - (s.numerator // s.denominator))
        return tuple(out)

    seen = {}
    frontier = [tuple([0] * n)]
    seen[frac_coords(frontier[0])] = frontier[0]
    while frontier:
        v = frontier.pop()
        for i in range(n):
            for delta in (1, -1):
                w = list(v)
                w[i] += delta
                key = frac_coords(w)
                if key not in seen:
                    seen[key] = tuple(w)
                    frontier.append(tuple(w))
        if len(seen) > 100000:
            raise RuntimeError("oracle enumeration exploded")
    orders = [lcm(*(c.denominator for c in key)) if n else 1 for key in seen]
    return len(seen), orders


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_diag_2_3_is_cyclic_of_order_six():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = smith_normal_form(a)
    res.verify(a)
    assert res.d == (1, 6)
    order, element_orders = coset_oracle([[2, 0], [0, 3]])
    assert order == 6
    assert max(element_orders) == 6  # cyclic


def test_snf_zero_matrix():
    a = IntMatrix.zeros(2, 2)
    res = smith_normal_form(a)
    assert res.d == (0, 0)
    assert res.U == IntMatrix.identity(2)
    assert res.V == IntMatrix.identity(2)


def test_snf_2x2_example_matches_gcd_and_det_facts():
    rows = [[2, 4], [6, 8]]
    a = IntMatrix.from_rows(rows)
    res = smith_normal_form(a)
    res.verify(a)
    # independent facts: d1 is the gcd of all entries, d1*d2 = |det|
    d1 = gcd(2, 4, 6, 8)
    det = abs(2 * 8 - 4 * 6)
    assert res.d == (2, 4)
    assert res.d[0] == d1
    assert res.d[0] * res.d[1] == det


def test_snf_rectangular_shapes():
    a = IntMatrix.from_rows([[0, 0, 7]])
    res = smith_normal_form(a)
    res.verify(a)
    assert res.d == (7,)
    b = a.transpose()
    res_b = smith_normal_form(b)
    res_b.verify(b)
    assert res_b.d == (7,)


def _diag(*d):
    return IntMatrix.from_rows([[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)])


_I1, _I2 = IntMatrix.identity(1), IntMatrix.identity(2)

# message -> (A, a result for A that breaks that invariant and no earlier one)
_CORRUPT_SNF = {
    "U*A*V is not diag(d)": (_diag(2, 4), SNFResult((2, 8), _I2, _I2, _I2, _I2)),
    "U not unimodular": (_diag(0), SNFResult((0,), _diag(2), _I1, _I1, _I1)),
    "V not unimodular": (_diag(0), SNFResult((0,), _I1, _diag(3), _I1, _I1)),
    "U*U_inv is not the identity": (_diag(1), SNFResult((1,), _I1, _I1, _diag(2), _I1)),
    "V*V_inv is not the identity": (_diag(1), SNFResult((1,), _I1, _I1, _I1, _diag(-1))),
    "negative invariant factor": (_diag(-1), SNFResult((-1,), _I1, _I1, _I1, _I1)),
    "divisibility chain broken": (_diag(2, 3), SNFResult((2, 3), _I2, _I2, _I2, _I2)),
    "zero invariant factor before a nonzero one": (_diag(0, 1), SNFResult((0, 1), _I2, _I2, _I2, _I2)),
}


@pytest.mark.parametrize("message", sorted(_CORRUPT_SNF))
def test_snf_verify_rejects_each_broken_invariant(message):
    a, res = _CORRUPT_SNF[message]
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        res.verify(a)
    smith_normal_form(a).verify(a)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_properties_random(m, n, data):
    entries = [data.draw(st.integers(-9, 9)) for _ in range(m * n)]
    a = IntMatrix(m, n, tuple(entries))
    res = smith_normal_form(a)
    res.verify(a)
    # deterministic
    again = smith_normal_form(a)
    assert again == res


def test_snf_quotient_order_against_coset_oracle():
    rng = random.Random(0)
    checked = 0
    while checked < 25:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        a = IntMatrix.from_rows(rows)
        det = a.det()
        if det == 0 or abs(det) > 60:
            continue
        res = smith_normal_form(a)
        res.verify(a)
        order, _ = coset_oracle(rows)
        assert order == prod(res.d)
        checked += 1


def test_bareiss_det_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]

        def cofactor_det(r):
            if len(r) == 1:
                return r[0][0]
            total = 0
            for j in range(len(r)):
                minor = [row[:j] + row[j + 1 :] for row in r[1:]]
                total += (-1) ** j * r[0][j] * cofactor_det(minor)
            return total

        assert IntMatrix.from_rows(rows).det() == cofactor_det(rows)


def test_xgcd_contract():
    for a, b in [(0, 0), (5, 0), (0, -7), (12, 18), (-4, 6), (35, 21)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g


# ---------------------------------------------------------------------------
# IntegerLattice
# ---------------------------------------------------------------------------


def test_lattice_membership_and_residues():
    lat = IntegerLattice(3)
    lat.add([2, 0, 0])
    lat.add([0, 3, 0])
    assert lat.contains([4, -3, 0])
    assert not lat.contains([1, 0, 0])
    assert not lat.contains([0, 0, 1])
    r1 = lat.reduce([5, 7, -2])
    r2 = lat.reduce([1, 1, -2])
    assert r1 == r2  # differ by (4,6,0) which is in the lattice


def test_lattice_gcd_combination():
    lat = IntegerLattice(1)
    lat.add([6])
    lat.add([10])
    assert lat.pivots() == [(0, 2)]
    assert lat.contains([4])
    assert not lat.contains([3])


@st.composite
def lattice_rows(draw):
    """Rows in Z^n with torsion and free parts: up to two rows m e_k + tail
    per column k, with m from {1, 2, 4, 6} (so 4 and 6 merge to a pivot 2
    by gcd), a few random rows, and redundant integer combinations, in a
    drawn order."""
    n = draw(st.integers(1, 7))
    rows = []
    for k in range(n):
        for m in draw(st.lists(st.sampled_from((1, 2, 4, 6)), max_size=2)):
            tail = draw(st.lists(st.integers(-3, 3), min_size=n - k - 1, max_size=n - k - 1))
            rows.append([0] * k + [m] + tail)
    rows += draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            cs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)])
    return n, draw(st.permutations(rows))


def _lattice(n, rows):
    lat = IntegerLattice(n)
    for r in rows:
        lat.add(r)
    return lat


@settings(max_examples=200, deadline=None)
@given(lattice_rows(), st.data())
def test_lattice_normalize_and_reduce_match_full_walk(nrows, data):
    """normalize (last pivot first) and reduce (heap of reached pivot
    columns) give the rows and residues of the full-walk oracle."""
    n, rows = nrows
    oracle = _lattice(n, rows)
    lattice_oracle.top_down_normalize(oracle)
    lat = _lattice(n, rows)
    lat.normalize()
    assert lat.rows == oracle.rows

    subset = data.draw(st.lists(st.sampled_from(sorted(lat.rows)), unique=True)) if lat.rows else []
    partial, partial_oracle = _lattice(n, rows), _lattice(n, rows)
    partial.normalize(only=subset)
    lattice_oracle.top_down_normalize(partial_oracle, only=sorted(subset))
    assert partial.rows == partial_oracle.rows
    partial.normalize()
    assert partial.rows == oracle.rows

    vecs = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=4))
    if rows:
        cs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        vecs.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)])
    unnormalized = _lattice(n, rows)
    for v in vecs:
        for basis in (lat, unnormalized):
            want = lattice_oracle.full_walk_reduce(basis, v)
            assert basis.reduce(v) == want
            assert basis.reduce(to_sparse(v)) == want
            assert basis.contains(v) == (not want)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


def test_quotient_invariants_examples():
    free2 = AbGroupPresentation.free(["a", "b"])
    assert free2.quotient_invariants() == (2, ())

    g = AbGroupPresentation.make(["a", "b"], [[2, 0], [0, 3]])
    assert g.quotient_invariants() == (0, (6,))
    order, element_orders = coset_oracle([[2, 0], [0, 3]])
    assert order == 6 and max(element_orders) == 6

    trivial = AbGroupPresentation.make(["a"], [[1]])
    assert trivial.quotient_invariants() == (0, ())
    assert trivial.describe() == "0"


def test_quotient_invariants_isomorphism_invariance():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        rels = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        g = AbGroupPresentation.make([f"g{i}" for i in range(n)], rels)
        inv = g.quotient_invariants()

        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [[r[perm[j]] for j in range(n)] for r in rels]
        g2 = AbGroupPresentation.make([f"h{i}" for i in range(n)], permuted)
        assert g2.quotient_invariants() == inv

        if rels:
            coeffs = [rng.randint(-3, 3) for _ in rels]
            combo = [sum(c * r[j] for c, r in zip(coeffs, rels)) for j in range(n)]
            g3 = AbGroupPresentation.make(g.generators, list(rels) + [combo])
            assert g3.quotient_invariants() == inv


def test_element_normal_form_examples():
    g = AbGroupPresentation.make(["a", "b"], [[2, 0]])
    nf = g.element_normal_form([3, 5])
    assert nf.torsion == (1,) and nf.moduli == (2,) and nf.free == (5,)
    # oracle check from the statement: (3,5) - (1,5) is in the lattice
    assert g.is_relation([3 - 1, 5 - 5])

    assert g.element_normal_form([2, 0]).is_zero()
    assert g.element_normal_form([-4, 0]).is_zero()

    free = AbGroupPresentation.free(["x", "y"])
    assert free.element_normal_form([7, -2]) == NormalForm((), (), (7, -2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_deferred_normalization_matches_eager(n, data):
    """_Analysis normalizes only its non-unit rows up front.  Normal forms
    must equal those of an analysis whose lattice is normalized eagerly,
    as every row was before the Smith form."""
    entry = st.integers(-6, 6)
    rels = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=7))
    vecs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    deferred = _Analysis(n, rels)
    full_normalize = IntegerLattice.normalize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegerLattice, "normalize", lambda self, only=None: full_normalize(self))
        eager = _Analysis(n, rels)
    eager_rows = eager.lattice.basis_rows()
    assert (deferred.small_d, deferred.small_v) == (eager.small_d, eager.small_v)
    for v in vecs:
        assert deferred.normal_form(v) == eager.normal_form(v)
    assert deferred.lattice.basis_rows() == eager_rows


@st.composite
def relation_rows(draw):
    """Rows in Z^n: pure torsion rows m e_k with m in {2, 4, 6} (Z/2, Z/4
    and Z/6 summands, or their gcd when two share a column), echelon rows
    m e_k + tail, sparse rows with one or two entries, dense rows, zero rows
    and integer combinations of the rest; each row dense or as a dict."""
    n = draw(st.integers(1, 7))
    col = st.integers(0, n - 1)
    rows = [{k: m} for k, m in draw(st.lists(st.tuples(col, st.sampled_from((2, 4, 6))), max_size=3))]
    for k in draw(st.lists(col, max_size=3)):
        tail = draw(st.lists(st.integers(-3, 3), min_size=n - k - 1, max_size=n - k - 1))
        rows.append({k: draw(st.sampled_from((1, 2, 4, 6))), **{k + 1 + i: x for i, x in enumerate(tail)}})
    for cols in draw(st.lists(st.lists(col, min_size=1, max_size=2, unique=True), max_size=3)):
        rows.append({c: draw(st.sampled_from((-2, -1, 1, 3))) for c in cols})
    dense = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=2))
    rows += [to_sparse(r) for r in dense]
    rows += [{}] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 2))):
        combo: dict = {}
        for r in rows:
            c = draw(st.integers(-2, 2))
            for j, x in r.items():
                combo[j] = combo.get(j, 0) + c * x
        rows.append(combo)
    shapes = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows = [r if as_dict else [r.get(j, 0) for j in range(n)] for r, as_dict in zip(rows, shapes)]
    return n, rows


@settings(max_examples=150, deadline=None)
@given(relation_rows(), st.data())
def test_analysis_is_independent_of_row_order(nrows, data):
    """_Analysis inserts rows in its own order.  Under any permutation of
    the rows, the normalized rows, small_d, small_v and every unit-vector
    normal form equal those of the echelon built in the given order."""
    n, rows = nrows
    ref = lattice_oracle.GivenOrderAnalysis(n, rows)
    for _ in range(2):
        a = _Analysis(n, data.draw(st.permutations(rows)))
        assert a.normalized_lattice.rows == ref.lattice.rows
        assert (a.small_d, a.small_v) == (ref.small_d, ref.small_v)
        assert [a.normal_form({i: 1}) for i in range(n)] == [ref.normal_form({i: 1}) for i in range(n)]


def test_lattice_rejects_columns_outside_the_width():
    """Every column is checked, not only the leading one."""
    for vec in ({0: 1, 7: 2}, {0: 1, -1: 2}, {1: 1, 3: 1}):
        lat = IntegerLattice(3)
        with pytest.raises(ValueError, match="outside ambient space"):
            lat.add(vec)
        assert lat.rank == 0
        lat.add({0: 1})
        with pytest.raises(ValueError, match="outside ambient space"):
            lat.reduce(vec)
    with pytest.raises(ValueError, match="outside ambient space"):
        IntegerLattice(2).add([1, 0, 5])
    assert IntegerLattice(2).add([1, 0, 0])
    assert IntegerLattice(2).add({0: 1, 5: 0})


def test_element_normal_form_iff_lattice_membership():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        rels = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        g = AbGroupPresentation.make([f"g{i}" for i in range(n)], rels)
        v = [rng.randint(-6, 6) for _ in range(n)]
        w = [rng.randint(-6, 6) for _ in range(n)]
        same = g.element_normal_form(v) == g.element_normal_form(w)
        diff_in = g.is_relation([a - b for a, b in zip(v, w)])
        assert same == diff_in


def test_quotient_order_against_bruteforce_small():
    rng = random.Random(4)
    checked = 0
    while checked < 15:
        n = rng.randint(1, 3)
        rels = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        a = IntMatrix.from_rows(rels)
        det = a.det()
        if det == 0 or abs(det) > 60:
            continue
        g = AbGroupPresentation.make([f"g{i}" for i in range(n)], rels)
        rank, torsion = g.quotient_invariants()
        assert rank == 0
        order, _ = coset_oracle(rels)
        assert order == prod(torsion) if torsion else order == 1
        checked += 1


# ---------------------------------------------------------------------------
# Homomorphisms and exactness
# ---------------------------------------------------------------------------


def test_identity_hom_bijective():
    g = AbGroupPresentation.make(["a", "b"], [[0, 5]])
    ident = AbHom(g, g, IntMatrix.identity(2))
    assert ident.is_injective()
    assert ident.is_surjective()


def test_times_two_on_z():
    z = AbGroupPresentation.free(["t"])
    f = AbHom(z, z, IntMatrix.from_rows([[2]]))
    assert f.is_injective()
    assert not f.is_surjective()


def test_ill_defined_hom_rejected():
    z2 = AbGroupPresentation.make(["a"], [[2]])
    z = AbGroupPresentation.free(["t"])
    # Z/2 -> Z sending a to t is not well-defined (2t is not a relation in Z)
    with pytest.raises(ValueError):
        AbHom(z2, z, IntMatrix.from_rows([[1]]))
    # but Z -> Z/2 quotient map is fine
    AbHom(z, z2, IntMatrix.from_rows([[1]]))


def test_exactness_identity_sequence():
    zero = AbGroupPresentation.free([])
    z = AbGroupPresentation.free(["t"])
    inj = AbHom(zero, z, IntMatrix(0, 1, ()))
    ident = AbHom(z, z, IntMatrix.identity(1))
    out = AbHom(z, zero, IntMatrix(1, 0, ()))
    assert check_exact_at(inj, ident)  # ker(id) = 0 = im(0 -> Z)
    assert check_exact_at(ident, out)  # im(id) = Z = ker(Z -> 0)


def test_exactness_mod_two_sequence():
    z = AbGroupPresentation.free(["t"])
    z2 = AbGroupPresentation.make(["u"], [[2]])
    times2 = AbHom(z, z, IntMatrix.from_rows([[2]]))
    quot = AbHom(z, z2, IntMatrix.from_rows([[1]]))
    assert check_exact_at(times2, quot)
    times4 = AbHom(z, z, IntMatrix.from_rows([[4]]))
    assert not check_exact_at(times4, quot)
    assert quot.is_surjective()
    assert times2.is_injective()


def test_kernel_lattice_of_projection():
    """The full-width oracle kernel and the quotient-coordinate kernel of
    Z^2 -> Z, (a, b) -> a, are both spanned by (0, 1)."""
    z2 = AbGroupPresentation.free(["a", "b"])
    z = AbGroupPresentation.free(["t"])
    proj = AbHom(z2, z, IntMatrix.from_rows([[1], [0]]))
    for ker in (lattice_oracle.kernel_rows(proj), proj._kernel()):
        lat = IntegerLattice(2)
        for r in ker:
            lat.add(r)
        assert lat.contains([0, 1])
        assert not lat.contains([1, 0])


def test_compose_and_zero():
    z = AbGroupPresentation.free(["t"])
    z2 = AbGroupPresentation.make(["u"], [[2]])
    quot = AbHom(z, z2, IntMatrix.from_rows([[1]]))
    times2 = AbHom(z, z, IntMatrix.from_rows([[2]]))
    comp = quot.compose(times2)
    assert comp.is_zero()


# ---------------------------------------------------------------------------
# Quotient-coordinate checks against the full-width lattice oracle
# ---------------------------------------------------------------------------


def _matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


def _disguised(moduli, ops):
    """Presentation of (+) Z/d over ``moduli`` (0: free coordinate, 1: a
    redundant generator) after the change of generators P built from the row
    operations ``ops`` = (i, j, c): row i += c * row j.  Relations are the
    rows d_i P_i; canonical coordinates are x P^-1.  Returns (presentation,
    moduli, P, P^-1)."""
    n = len(moduli)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    p_inv = [[int(x) for x in row] for row in rational_inverse(p)] if n else []
    rels = [[d * x for x in p[i]] for i, d in enumerate(moduli) if d]
    return AbGroupPresentation.make([f"g{i}" for i in range(n)], rels), tuple(moduli), p, p_inv


def _hom_from_canonical(src, tgt, h):
    """The hom whose canonical matrix is h (row i: image of canonical source
    coordinate i), written on generators as P_src^-1 h P_tgt.  An entry with
    d_i h[i][j] nonzero modulo d_j is scaled until it vanishes, so the map is
    well-defined."""
    pres_s, mod_s, _, pinv_s = src
    pres_t, mod_t, p_t, _ = tgt
    fixed = []
    for i, row in enumerate(h):
        out = []
        for j, x in enumerate(row):
            di, dj = mod_s[i], mod_t[j]
            if dj == 0:
                out.append(x if di == 0 else 0)
            elif di * x % dj:
                out.append(x * (dj // gcd(di, dj)))
            else:
                out.append(x)
        fixed.append(out)
    n_s, n_t = len(mod_s), len(mod_t)
    t = _matmul(_matmul(pinv_s, fixed), p_t) if n_s and n_t else []
    return AbHom(pres_s, pres_t, IntMatrix(n_s, n_t, tuple(x for row in t for x in row)))


def _assert_matches_oracle(f, g):
    for h in (f, g, g.compose(f)):
        assert h.is_injective() == lattice_oracle.is_injective(h)
        assert h.is_surjective() == lattice_oracle.is_surjective(h)
        assert h.is_zero() == lattice_oracle.is_zero(h)
    assert check_exact_at(f, g) == lattice_oracle.exact_at(f, g)


MODULI = st.lists(st.sampled_from((0, 1, 2, 4, 6)), max_size=4)


@st.composite
def disguised_groups(draw, moduli=MODULI):
    moduli = draw(moduli)
    n = len(moduli)
    ops = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            ops.append((i, j, draw(st.integers(-2, 2))))
    return _disguised(moduli, ops)


def _canonical_matrix(data, src, tgt):
    entry = st.integers(-3, 3)
    return [[data.draw(entry) for _ in tgt[1]] for _ in src[1]]


@settings(max_examples=200, deadline=None)
@given(disguised_groups(), disguised_groups(), disguised_groups(), st.data())
def test_quotient_checks_match_lattice_oracle(a, b, c, data):
    """On random presentations with torsion (Z/2, Z/4, Z/6), free parts and
    redundant generators, each under a random change of generators, random
    well-defined maps A -> B -> C get the same injective, surjective, zero
    and exact-at-B verdicts from the quotient checks as from the full-width
    lattice oracle."""
    f = _hom_from_canonical(a, b, _canonical_matrix(data, a, b))
    g = _hom_from_canonical(b, c, _canonical_matrix(data, b, c))
    _assert_matches_oracle(f, g)


@settings(max_examples=150, deadline=None)
@given(disguised_groups(), disguised_groups(), st.data())
def test_quotient_checks_on_split_sequences(a, c, data):
    """A -> A + C -> C, inclusion then projection, with each group under its
    own random change of generators: exact, injective then surjective, on
    both paths.  Unlike random maps, these verdicts depend on every Smith
    coordinate of the middle group being lifted correctly."""
    na, nc = len(a[1]), len(c[1])
    b = data.draw(disguised_groups(st.just(a[1] + c[1])))
    include = [[int(i == j) for j in range(na + nc)] for i in range(na)]
    project = [[int(i == na + j) for j in range(nc)] for i in range(na + nc)]
    f = _hom_from_canonical(a, b, include)
    g = _hom_from_canonical(b, c, project)
    assert check_exact_at(f, g) and f.is_injective() and g.is_surjective()
    _assert_matches_oracle(f, g)


OPS = ((0, 1, 2), (1, 0, -1), (0, 2, 1), (2, 1, 3), (1, 2, -2))


@pytest.mark.parametrize(
    "mods_a, mods_b, mods_c, hf, hg, exact",
    [
        # Z/2 -x2-> Z/4 -mod 2-> Z/2, next to a redundant generator
        ((2,), (4, 1), (2,), [[2, 0]], [[1], [0]], True),
        # Z -x2-> Z -mod 4-> Z/4: image 2Z, kernel 4Z
        ((0,), (0,), (4,), [[2]], [[1]], False),
        # Z -x4-> Z -mod 4-> Z/4, exact
        ((0,), (0,), (4,), [[4]], [[1]], True),
        # Z/2 into the Z/2 summand of Z/2 + Z/6, then the projection onto Z/6
        ((2,), (2, 6), (6,), [[1, 0]], [[0], [1]], True),
        # the image in the 2-part of the Z/6 summand instead: not exact
        ((2,), (2, 6), (6,), [[0, 3]], [[0], [1]], False),
        # Z + Z/4 onto its copy in Z + Z/4 + (redundant), then onto Z: the
        # kernel Z/4 is the image of the Z/4 summand only
        ((0, 4), (0, 4, 1), (0,), [[1, 0, 0], [0, 1, 0]], [[1], [0], [0]], False),
        ((4,), (0, 4, 1), (0,), [[0, 1, 0]], [[1], [0], [0]], True),
    ],
)
def test_quotient_checks_on_known_sequences(mods_a, mods_b, mods_c, hf, hg, exact):
    """Known exact and non-exact sequences, each under three changes of
    generators: the quotient checks give the expected exactness and agree
    with the oracle on every verdict."""
    for shift in range(3):
        a, b, c = (
            _disguised(m, [op for op in OPS[shift:] if max(op[:2]) < len(m)])
            for m in (mods_a, mods_b, mods_c)
        )
        f = _hom_from_canonical(a, b, hf)
        g = _hom_from_canonical(b, c, hg)
        assert check_exact_at(f, g) == exact
        _assert_matches_oracle(f, g)


def test_sparse_helpers():
    assert to_sparse([0, 3, 0, -1]) == {1: 3, 3: -1}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.data())
def test_sparse_and_dense_relation_rows_agree(n, data):
    """make keeps relation rows sparse.  Dense rows and the same rows as
    {index: coeff} dicts (zeros left in or dropped) give one presentation:
    equal relations, invariants and normal forms."""
    entry = st.integers(-6, 6)
    rels = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=7))
    keep_zeros = data.draw(st.booleans())
    sparse = [{i: x for i, x in enumerate(r) if x or keep_zeros} for r in rels]
    gens = [f"g{i}" for i in range(n)]
    dense_g = AbGroupPresentation.make(gens, rels)
    sparse_g = AbGroupPresentation.make(gens, sparse)
    assert sparse_g == dense_g and hash(sparse_g) == hash(dense_g)
    assert sparse_g.relations == dense_g.relations == tuple(tuple(r) for r in rels)
    assert sparse_g.quotient_invariants() == dense_g.quotient_invariants()
    vecs = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    for v in vecs:
        want = dense_g.element_normal_form(v)
        assert sparse_g.element_normal_form(v) == want
        assert sparse_g.element_normal_form(to_sparse(v)) == want
        assert sparse_g.is_relation(to_sparse(v)) == dense_g.is_relation(v)


def test_sparse_relation_rows_are_checked():
    with pytest.raises(ValueError, match="outside the generators"):
        AbGroupPresentation.make(["a", "b"], [{2: 1}])
    with pytest.raises(ValueError, match="does not match"):
        AbGroupPresentation.make(["a", "b"], [[1, 2, 3]])
    g = AbGroupPresentation.make(["a", "b"], [{1: 2}])
    with pytest.raises(ValueError, match="outside the generators"):
        g.element_normal_form({5: 1})
    assert g.rows == ({1: 2},) and g.relations == ((0, 2),)
