"""Bounded chain complexes of finitely generated free integer modules.

Complexes are given by their ranks per degree and exact integer boundary
matrices (rows index degree n-1, columns degree n); the composite of two
consecutive boundaries must vanish identically.  Homology and the cokernel
torsion test of chain maps run on ``abgroup._Analysis``, the lattice kernel
that also diagonalizes group presentations:

* rank of H_n is rank C_n minus the ranks of the two adjacent boundaries,
* torsion of H_n equals the invariant factors (> 1) of the boundary into
  degree n.  The second fact holds because ker(d_n) is a saturated
  subgroup of C_n containing im(d_{n+1}), so the torsion of the quotient
  of C_n by the image restricts to the torsion of H_n.

Pushouts along levelwise injections come in three flavours: an exact
quotient when the injection is a signed coordinate inclusion (the case all
surface subcomplex inclusions produce), an exact quotient through Smith
transforms when the cokernel is torsion-free, and a mapping-cone model
(free, quasi-isomorphic to the pushout, one extra degree) when the
cokernel has torsion and the honest quotient would leave the free world.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abgroup import IntMatrix, IntegerLattice, _Analysis, smith_normal_form


class ChainComplexError(ValueError):
    pass


def _columns_sparse(m: IntMatrix) -> list[dict]:
    cols: list[dict] = [dict() for _ in range(m.cols)]
    for i in range(m.rows):
        row = m.row(i)
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


@dataclass(frozen=True)
class HomologyType:
    """Per-degree isomorphism type: (free rank, invariant factors > 1)."""

    lo: int
    groups: tuple[tuple[int, tuple[int, ...]], ...]

    def at(self, n: int) -> tuple[int, tuple[int, ...]]:
        idx = n - self.lo
        if 0 <= idx < len(self.groups):
            return self.groups[idx]
        return (0, ())

    def degrees(self):
        return range(self.lo, self.lo + len(self.groups))

    def __eq__(self, other):
        if not isinstance(other, HomologyType):
            return NotImplemented
        degs = set(self.degrees()) | set(other.degrees())
        return all(self.at(n) == other.at(n) for n in degs)

    def __hash__(self):
        items = [(n, self.at(n)) for n in self.degrees() if self.at(n) != (0, ())]
        return hash(tuple(items))

    def describe(self) -> str:
        parts = []
        for n in self.degrees():
            rank, torsion = self.at(n)
            if rank or torsion:
                bits = []
                if rank == 1:
                    bits.append("Z")
                elif rank > 1:
                    bits.append(f"Z^{rank}")
                bits.extend(f"Z/{d}" for d in torsion)
                parts.append(f"H_{n}=" + "+".join(bits))
        return ", ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ChainComplex:
    """Degrees lo..hi, free module of rank ranks[n-lo] in degree n, and
    boundary matrices boundaries[k] : degree lo+1+k -> degree lo+k."""

    lo: int
    hi: int
    ranks: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    def __post_init__(self):
        if self.hi < self.lo:
            raise ChainComplexError("empty degree range")
        if len(self.ranks) != self.hi - self.lo + 1:
            raise ChainComplexError("ranks do not match the degree range")
        if any(r < 0 for r in self.ranks):
            raise ChainComplexError("negative rank")
        if len(self.boundaries) != self.hi - self.lo:
            raise ChainComplexError("need one boundary per consecutive degree pair")
        for k, d in enumerate(self.boundaries):
            if d.rows != self.ranks[k] or d.cols != self.ranks[k + 1]:
                raise ChainComplexError(
                    f"boundary {k} has shape {d.rows}x{d.cols}, expected "
                    f"{self.ranks[k]}x{self.ranks[k + 1]}"
                )
        for k in range(len(self.boundaries) - 1):
            lower = self.boundaries[k]
            upper = self.boundaries[k + 1]
            lower_cols = _columns_sparse(lower)
            for j, col in enumerate(_columns_sparse(upper)):
                acc: dict[int, int] = {}
                for i, x in col.items():
                    for i2, y in lower_cols[i].items():
                        acc[i2] = acc.get(i2, 0) + x * y
                if any(acc.values()):
                    raise ChainComplexError(
                        f"boundary composite does not vanish at degree {self.lo + k + 2}, column {j}"
                    )

    @classmethod
    def make(cls, lo, hi, ranks, boundaries) -> "ChainComplex":
        ranks = tuple(int(r) for r in ranks)
        mats = []
        for k, d in enumerate(boundaries):
            if isinstance(d, IntMatrix):
                mats.append(d)
            else:
                entries = tuple(int(x) for row in d for x in row)
                mats.append(IntMatrix(ranks[k], ranks[k + 1], entries))
        return cls(int(lo), int(hi), ranks, tuple(mats))

    @classmethod
    def zero(cls) -> "ChainComplex":
        return cls(0, 0, (0,), ())

    @classmethod
    def single(cls, degree: int, rank: int) -> "ChainComplex":
        return cls(degree, degree, (rank,), ())

    def rank_at(self, n: int) -> int:
        idx = n - self.lo
        if 0 <= idx < len(self.ranks):
            return self.ranks[idx]
        return 0

    def boundary_at(self, n: int) -> IntMatrix:
        """The boundary map out of degree n (into degree n-1)."""
        k = n - self.lo - 1
        if 0 <= k < len(self.boundaries):
            return self.boundaries[k]
        return IntMatrix.zeros(self.rank_at(n - 1), self.rank_at(n))

    @cached_property
    def _boundary_data(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """Per degree n: (rank of d_n, invariant factors > 1 of d_n)."""
        out = {}
        for n in self.degrees():
            d = self.boundary_at(n)
            a = _Analysis(d.rows, _columns_sparse(d))
            out[n] = (a.lattice.rank, a.torsion)
        return out

    def homology(self) -> HomologyType:
        groups = []
        for n in self.degrees():
            rank_dn = self._boundary_data[n][0]
            rank_up, torsion = self._boundary_data.get(n + 1, (0, ()))
            free = self.rank_at(n) - rank_dn - rank_up
            groups.append((free, torsion))
        return HomologyType(lo=self.lo, groups=tuple(groups))

    def euler_char(self) -> int:
        """Alternating rank sum; asserted equal to the homology version."""
        by_ranks = sum((-1) ** n * self.rank_at(n) for n in self.degrees())
        h = self.homology()
        by_homology = sum((-1) ** n * h.at(n)[0] for n in self.degrees())
        assert by_ranks == by_homology, "rank and homology Euler characteristics differ"
        return by_ranks

    def k0_class(self) -> int:
        """The alternating sum of homology ranks (constant on quasi-isomorphism
        classes; torsion contributes nothing)."""
        h = self.homology()
        return sum((-1) ** n * h.at(n)[0] for n in h.degrees())

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def pad(self, lo: int, hi: int) -> "ChainComplex":
        """Extend the degree range with zero modules."""
        if lo > self.lo or hi < self.hi:
            raise ChainComplexError("pad cannot shrink the range")
        ranks = (
            [0] * (self.lo - lo) + list(self.ranks) + [0] * (hi - self.hi)
        )
        bnds = []
        for n in range(lo + 1, hi + 1):
            if self.lo < n <= self.hi:
                bnds.append(self.boundary_at(n))
            else:
                r0 = ranks[n - 1 - lo]
                r1 = ranks[n - lo]
                bnds.append(IntMatrix.zeros(r0, r1))
        return ChainComplex(lo, hi, tuple(ranks), tuple(bnds))

    def direct_sum(self, other: "ChainComplex") -> "ChainComplex":
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        a = self.pad(lo, hi)
        b = other.pad(lo, hi)
        ranks = tuple(x + y for x, y in zip(a.ranks, b.ranks))
        bnds = []
        for n in range(lo + 1, hi + 1):
            da, db = a.boundary_at(n), b.boundary_at(n)
            rows = []
            for i in range(da.rows):
                rows.append(list(da.row(i)) + [0] * db.cols)
            for i in range(db.rows):
                rows.append([0] * da.cols + list(db.row(i)))
            if rows:
                bnds.append(IntMatrix.from_rows(rows))
            else:
                bnds.append(IntMatrix.zeros(ranks[n - 1 - lo], ranks[n - lo]))
        return ChainComplex(lo, hi, ranks, tuple(bnds))

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "ranks": list(self.ranks),
            "boundaries": [m.to_json() for m in self.boundaries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainComplex":
        return cls(
            int(data["lo"]),
            int(data["hi"]),
            tuple(int(r) for r in data["ranks"]),
            tuple(IntMatrix.from_json(m) for m in data["boundaries"]),
        )


@dataclass(frozen=True)
class ChainMap:
    """Degreewise matrices commuting with the boundaries exactly.

    ``mats[k]`` maps degree lo+k of the source into the same degree of the
    target (target_rank x source_rank).  Source and target must share the
    degree range; pad first if they do not.
    """

    source: ChainComplex
    target: ChainComplex
    mats: tuple[IntMatrix, ...]

    def __post_init__(self):
        if (self.source.lo, self.source.hi) != (self.target.lo, self.target.hi):
            raise ChainComplexError("source and target ranges differ; pad first")
        if len(self.mats) != len(self.source.ranks):
            raise ChainComplexError("need one matrix per degree")
        for k, m in enumerate(self.mats):
            if m.rows != self.target.ranks[k] or m.cols != self.source.ranks[k]:
                raise ChainComplexError(
                    f"map at degree {self.source.lo + k} has shape {m.rows}x{m.cols}"
                )
        for n in range(self.source.lo + 1, self.source.hi + 1):
            k = n - self.source.lo
            left = self.target.boundary_at(n) * self.mats[k]
            right = self.mats[k - 1] * self.source.boundary_at(n)
            if left != right:
                raise ChainComplexError(f"map does not commute with boundaries at degree {n}")

    def mat_at(self, n: int) -> IntMatrix:
        return self.mats[n - self.source.lo]

    @cached_property
    def levelwise_injective(self) -> bool:
        for m in self.mats:
            if m.cols == 0:
                continue
            lat = IntegerLattice(m.rows)
            rank = 0
            for col in _columns_sparse(m):
                if lat.add(col):
                    rank += 1
            if rank != m.cols:
                return False
        return True

    @cached_property
    def cokernel_torsion_free(self) -> bool:
        """True when every level's cokernel is torsion-free (split injection)."""
        return not any(_Analysis(m.rows, _columns_sparse(m)).torsion for m in self.mats)

    def is_monomial_injection(self) -> bool:
        """Each column hits exactly one row, with a unit, rows distinct."""
        for m in self.mats:
            hit_rows = set()
            for j in range(m.cols):
                col = [m.entry(i, j) for i in range(m.rows)]
                nz = [(i, x) for i, x in enumerate(col) if x]
                if len(nz) != 1 or abs(nz[0][1]) != 1:
                    return False
                if nz[0][0] in hit_rows:
                    return False
                hit_rows.add(nz[0][0])
        return True

    @classmethod
    def identity(cls, c: ChainComplex) -> "ChainMap":
        return cls(c, c, tuple(IntMatrix.identity(r) for r in c.ranks))

    def compose(self, first: "ChainMap") -> "ChainMap":
        if first.target != self.source:
            raise ChainComplexError("maps not composable")
        return ChainMap(
            first.source,
            self.target,
            tuple(m2 * m1 for m1, m2 in zip(first.mats, self.mats)),
        )


def quasi_iso_type_equal(c: ChainComplex, d: ChainComplex) -> bool:
    """Equality of homology in every degree.  Over the integers bounded
    complexes are quasi-isomorphic (through a zig-zag) exactly when their
    homologies agree degreewise."""
    return c.homology() == d.homology()


def homology(c: ChainComplex) -> HomologyType:
    return c.homology()


def euler_char(c: ChainComplex) -> int:
    return c.euler_char()


def k0_class(c: ChainComplex) -> int:
    return c.k0_class()


@dataclass(frozen=True)
class PushoutResult:
    complex: ChainComplex
    from_first: ChainMap   # from the target of f (the cofibration side)
    from_second: ChainMap  # from the target of g
    model: str             # "quotient" or "cone"


def pushout(f: ChainMap, g: ChainMap) -> PushoutResult:
    """Pushout of  B <-f- A -g-> C  in chain complexes, f levelwise injective.

    Returns a levelwise-free model: the honest quotient (B (+) C)/A when the
    quotient stays free, otherwise the mapping cone of A -> B (+) C, which
    is quasi-isomorphic to the pushout because f is injective.
    """
    if f.source != g.source:
        raise ChainComplexError("pushout legs must share their source")
    if not f.levelwise_injective:
        raise ChainComplexError("first leg must be levelwise injective (a cofibration)")
    a = f.source
    b = f.target
    c = g.target
    bc = b.direct_sum(c)

    def stacked(n: int) -> IntMatrix:
        fm = f.mat_at(n)
        gm = g.mat_at(n)
        rows = [list(fm.row(i)) for i in range(fm.rows)]
        rows += [[-x for x in gm.row(i)] for i in range(gm.rows)]
        if rows:
            return IntMatrix.from_rows(rows)
        return IntMatrix.zeros(0, a.rank_at(n))

    if f.is_monomial_injection():
        return _pushout_monomial(f, g, a, b, c, bc)
    if f.cokernel_torsion_free:
        return _pushout_snf(f, g, a, b, c, bc, stacked)
    return _pushout_cone(f, g, a, b, c, bc, stacked)


def _pushout_monomial(f, g, a, b, c, bc) -> PushoutResult:
    """f sends each basis element of A to a signed basis element of B: the
    quotient basis is (B minus the image) plus C, and the B-image coordinates
    are rerouted through g."""
    lo, hi = a.lo, a.hi
    proj_b = []
    proj_c = []
    ranks = []
    for n in range(lo, hi + 1):
        fm = f.mat_at(n)
        gm = g.mat_at(n)
        image_row_sign: dict[int, tuple[int, int]] = {}
        for j in range(fm.cols):
            i, s = next(
                (i, fm.entry(i, j)) for i in range(fm.rows) if fm.entry(i, j)
            )
            image_row_sign[i] = (j, s)
        survivors = [i for i in range(b.rank_at(n)) if i not in image_row_sign]
        rank_p = len(survivors) + c.rank_at(n)
        ranks.append(rank_p)
        pb = [[0] * b.rank_at(n) for _ in range(rank_p)]
        for pos, i in enumerate(survivors):
            pb[pos][i] = 1
        for i, (j, s) in image_row_sign.items():
            # [e_i] = s * [g(a_j)] in the quotient
            for i2 in range(gm.rows):
                coeff = s * gm.entry(i2, j)
                if coeff:
                    pb[len(survivors) + i2][i] += coeff
        pc = [[0] * c.rank_at(n) for _ in range(rank_p)]
        for i2 in range(c.rank_at(n)):
            pc[len(survivors) + i2][i2] = 1
        proj_b.append(_matrix_or_zero(pb, rank_p, b.rank_at(n)))
        proj_c.append(_matrix_or_zero(pc, rank_p, c.rank_at(n)))
    # sections: survivor basis lifts to B, C part lifts to C
    bnds = []
    for n in range(lo + 1, hi + 1):
        k = n - lo
        # boundary of a P-basis vector: lift, apply boundary in B (+) C, project
        db = b.boundary_at(n)
        dc = c.boundary_at(n)
        cols = []
        fm = f.mat_at(n)
        image_rows = set()
        for j in range(fm.cols):
            i = next(i for i in range(fm.rows) if fm.entry(i, j))
            image_rows.add(i)
        survivors = [i for i in range(b.rank_at(n)) if i not in image_rows]
        for i in survivors:
            vec_b = db.column(i)
            col = _project_bc(proj_b[k - 1], proj_c[k - 1], list(vec_b), [0] * c.rank_at(n - 1))
            cols.append(col)
        for i2 in range(c.rank_at(n)):
            vec_c = dc.column(i2)
            col = _project_bc(proj_b[k - 1], proj_c[k - 1], [0] * b.rank_at(n - 1), list(vec_c))
            cols.append(col)
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(ranks[k - 1])]
        bnds.append(_matrix_or_zero(rows, ranks[k - 1], ranks[k]))
    p = ChainComplex(lo, hi, tuple(ranks), tuple(bnds))
    map_b = ChainMap(b, p, tuple(proj_b))
    map_c = ChainMap(c, p, tuple(proj_c))
    return PushoutResult(complex=p, from_first=map_b, from_second=map_c, model="quotient")


def _project_bc(pb: IntMatrix, pc: IntMatrix, vec_b, vec_c):
    out = [0] * pb.rows
    for j, x in enumerate(vec_b):
        if x:
            for i in range(pb.rows):
                out[i] += x * pb.entry(i, j)
    for j, x in enumerate(vec_c):
        if x:
            for i in range(pc.rows):
                out[i] += x * pc.entry(i, j)
    return out


def _matrix_or_zero(rows, nrows, ncols) -> IntMatrix:
    if nrows == 0 or ncols == 0:
        return IntMatrix.zeros(nrows, ncols)
    return IntMatrix.from_rows(rows)


def _pushout_snf(f, g, a, b, c, bc, stacked) -> PushoutResult:
    """General split case: diagonalize the relation columns h_n = (f, -g)
    and quotient out the unit directions."""
    lo, hi = a.lo, a.hi
    projections = []
    sections = []
    ranks = []
    for n in range(lo, hi + 1):
        h = stacked(n)  # (rankB+rankC) x rankA
        m = h.rows
        r = h.cols
        if r == 0:
            proj = IntMatrix.identity(m)
            sect = IntMatrix.identity(m)
            ranks.append(m)
            projections.append(proj)
            sections.append(sect)
            continue
        snf = smith_normal_form(h)
        if any(d not in (0, 1) for d in snf.d) or any(d == 0 for d in snf.d):
            raise ChainComplexError("internal: split pushout expected unit invariant factors")
        u = snf.U
        uinv = u.inverse_unimodular()
        keep = list(range(r, m))
        proj_rows = [list(u.row(i)) for i in keep]
        proj = _matrix_or_zero(proj_rows, len(keep), m)
        sect_rows = [[uinv.entry(i, j) for j in keep] for i in range(m)]
        sect = _matrix_or_zero(sect_rows, m, len(keep))
        ranks.append(len(keep))
        projections.append(proj)
        sections.append(sect)
    bnds = []
    for n in range(lo + 1, hi + 1):
        k = n - lo
        d_bc = bc.boundary_at(n)
        bnds.append(projections[k - 1] * d_bc * sections[k])
    p = ChainComplex(lo, hi, tuple(ranks), tuple(bnds))
    include_b = []
    include_c = []
    for n in range(lo, hi + 1):
        k = n - lo
        rb, rc = b.rank_at(n), c.rank_at(n)
        ib = [[1 if (i == j) else 0 for j in range(rb)] for i in range(rb + rc)]
        ic = [[1 if (i == j + rb) else 0 for j in range(rc)] for i in range(rb + rc)]
        include_b.append(projections[k] * _matrix_or_zero(ib, rb + rc, rb))
        include_c.append(projections[k] * _matrix_or_zero(ic, rb + rc, rc))
    map_b = ChainMap(b, p, tuple(include_b))
    map_c = ChainMap(c, p, tuple(include_c))
    return PushoutResult(complex=p, from_first=map_b, from_second=map_c, model="quotient")


def _pushout_cone(f, g, a, b, c, bc, stacked) -> PushoutResult:
    """Mapping cone of h = (f, -g): A -> B (+) C; free in every degree and
    quasi-isomorphic to the pushout since f is injective.  This is the
    two-adjacent-degree free resolution of the torsion quotient."""
    lo, hi = a.lo, a.hi + 1
    ranks = []
    for n in range(lo, hi + 1):
        ranks.append(bc.rank_at(n) + a.rank_at(n - 1))
    bnds = []
    for n in range(lo + 1, hi + 1):
        rows_out = bc.rank_at(n - 1) + a.rank_at(n - 2)
        cols_in = bc.rank_at(n) + a.rank_at(n - 1)
        d_bc = bc.boundary_at(n)
        h = stacked(n - 1)
        d_a = a.boundary_at(n - 1)
        rows = []
        for i in range(bc.rank_at(n - 1)):
            row = list(d_bc.row(i)) if d_bc.cols else []
            row += [h.entry(i, j) for j in range(a.rank_at(n - 1))]
            rows.append(row)
        for i in range(a.rank_at(n - 2)):
            row = [0] * bc.rank_at(n)
            row += [-d_a.entry(i, j) for j in range(a.rank_at(n - 1))]
            rows.append(row)
        bnds.append(_matrix_or_zero(rows, rows_out, cols_in))
    p = ChainComplex(lo, hi, tuple(ranks), tuple(bnds))
    include_b = []
    include_c = []
    for n in range(lo, hi + 1):
        rb = b.rank_at(n)
        rc = c.rank_at(n)
        total = ranks[n - lo]
        ib = [[1 if i == j else 0 for j in range(rb)] for i in range(total)]
        ic = [[1 if i == j + rb else 0 for j in range(rc)] for i in range(total)]
        include_b.append(_matrix_or_zero(ib, total, rb))
        include_c.append(_matrix_or_zero(ic, total, rc))
    bp = b.pad(lo, hi)
    cp = c.pad(lo, hi)
    map_b = ChainMap(bp, p, tuple(include_b))
    map_c = ChainMap(cp, p, tuple(include_c))
    return PushoutResult(complex=p, from_first=map_b, from_second=map_c, model="cone")
