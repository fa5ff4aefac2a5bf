"""Bounded chain complexes of finitely generated free integer modules.

Complexes are given by their ranks per degree and exact integer boundary
matrices (rows index degree n-1, columns degree n); the composite of two
consecutive boundaries must vanish identically.  Homology and the
injectivity and cokernel torsion tests of chain maps run on
``abgroup._Analysis``, the lattice kernel that also diagonalizes group
presentations.

Homology first shrinks the complex by eliminating pairs of cells joined by
a +-1 entry: free-face collapses and coreductions, which cause no fill-in,
then the unit pair of least fill, lowest degree first (Mrozek-Batko
coreduction; acyclic matchings of discrete Morse theory).  Every pivot is
a unit, so the smaller complex is chain-homotopy equivalent over Z (the
Gaussian elimination lemma) and keeps the homology, torsion included.  A
connected surface shrinks to its Betti numbers of cells.  The boundaries
left over go to ``_Analysis``:

* rank of H_n is the number of cells left in degree n minus the ranks of
  the two adjacent reduced boundaries,
* torsion of H_n equals the invariant factors (> 1) of the reduced
  boundary into degree n.  The second fact holds because ker(d_n) is a
  saturated subgroup of C_n containing im(d_{n+1}), so the torsion of the
  quotient of C_n by the image restricts to the torsion of H_n.

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
from heapq import heapify, heappop, heappush
from itertools import chain

from .abgroup import IntMatrix, _Analysis, require_json_ints, smith_normal_form


class ChainComplexError(ValueError):
    pass


# Largest number of cells a chain file may declare: the sum of a complex's
# ranks, or rows + cols of one matrix.  A declared cell costs memory whether
# or not the file lists an entry for it, so the file parsers refuse more
# before building anything.  `chain homology` on a file declaring 100,000
# cells and no entries takes about 0.16 s and 41 MB above the interpreter's
# own (Python 3.11, one core of a 2-core x86-64 host); the chains of the
# 17,536-triangle surface have 52,692 cells.  Library callers (`chains_of`,
# `pushout`) are not capped.
MAX_FILE_CELLS = 100_000


def _refuse_declared(count: int, what: str) -> None:
    if count > MAX_FILE_CELLS:
        raise ChainComplexError(f"{what} declares {count} cells, above the ceiling of {MAX_FILE_CELLS}")


def matrix_from_json(data: dict) -> IntMatrix:
    """Parse a chain file matrix {"rows", "cols", "entries"}, dense and row
    major.  Every one of them must hold JSON integers (not floats, strings
    or booleans), else ValueError; a matrix whose rows + cols pass
    MAX_FILE_CELLS is refused before it is built."""
    rows, cols = data["rows"], data["cols"]
    require_json_ints((rows, cols), "matrix shape")
    _refuse_declared(rows + cols, "matrix")
    entries = data["entries"]
    require_json_ints(entries, "matrix entry")
    return IntMatrix(rows, cols, entries)


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
            lower = self.boundaries[k].columns
            for j, col in enumerate(self.boundaries[k + 1].columns):
                acc: dict[int, int] = {}
                for i, b in col.items():
                    for r, a in lower[i].items():
                        acc[r] = acc.get(r, 0) + a * b
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
    def _boundary_data(self) -> dict[int, tuple[int, int, tuple[int, ...]]]:
        """Per degree n of the unit-pair reduction: (cells left, rank of the
        reduced d_n, invariant factors > 1 of the reduced d_n)."""
        ranks = self.ranks
        down = [[{}] * ranks[0]]
        down += ([dict(col) for col in d.columns] for d in self.boundaries)
        up = _reduce_unit_pairs(ranks, down)
        out = {}
        left = []
        for k, n in enumerate(self.degrees()):
            below, left = left, [i for i, x in enumerate(up[k]) if x is not None]
            if k == 0:
                out[n] = (len(left), 0, ())
                continue
            pos = {x: p for p, x in enumerate(below)}
            cols = down[k]
            a = _Analysis(len(below), [{pos[x]: c for x, c in cols[i].items()} for i in left])
            out[n] = (len(left), a.lattice.rank, a.torsion)
        return out

    def homology(self) -> HomologyType:
        groups = []
        for n in self.degrees():
            cells, rank_dn, _ = self._boundary_data[n]
            _, rank_up, torsion = self._boundary_data.get(n + 1, (0, 0, ()))
            groups.append((cells - rank_dn - rank_up, torsion))
        return HomologyType(lo=self.lo, groups=tuple(groups))

    def euler_char(self) -> int:
        """Alternating rank sum; checked equal to the homology version."""
        by_ranks = sum((-1) ** n * self.rank_at(n) for n in self.degrees())
        h = self.homology()
        by_homology = sum((-1) ** n * h.at(n)[0] for n in self.degrees())
        if by_ranks != by_homology:
            raise AssertionError("rank and homology Euler characteristics differ")
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
            bnds.append(_block_diagonal(da, db))
        return ChainComplex(lo, hi, ranks, tuple(bnds))

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "ranks": list(self.ranks),
            "boundaries": [
                {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)} for m in self.boundaries
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainComplex":
        """Parse the chain file format.  ``lo``, ``hi``, ``ranks`` and every
        matrix's ``rows``, ``cols`` and ``entries`` must be JSON integers;
        anything else raises ValueError naming the value.  A complex or
        matrix declaring more than MAX_FILE_CELLS cells is refused with
        ChainComplexError before it is built."""
        lo, hi, ranks = data["lo"], data["hi"], data["ranks"]
        require_json_ints((lo, hi), "degree bound")
        require_json_ints(ranks, "rank")
        _refuse_declared(sum(ranks), "chain complex")
        return cls(lo, hi, tuple(ranks), tuple(matrix_from_json(m) for m in data["boundaries"]))


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
        mono = [_monomial(m) for m in self.mats]
        for k, (ds, dt) in enumerate(zip(self.source.boundaries, self.target.boundaries), 1):
            if not _commutes(ds, dt, self.mats[k - 1], self.mats[k], mono[k - 1], mono[k]):
                n = self.source.lo + k
                raise ChainComplexError(f"map does not commute with boundaries at degree {n}")

    def mat_at(self, n: int) -> IntMatrix:
        return self.mats[n - self.source.lo]

    @cached_property
    def _analyses(self) -> tuple[_Analysis, ...]:
        """The lattice spanned by each level's image columns."""
        return tuple(_Analysis(m.rows, m.columns) for m in self.mats)

    @property
    def levelwise_injective(self) -> bool:
        return all(x.lattice.rank == m.cols for x, m in zip(self._analyses, self.mats))

    @property
    def cokernel_torsion_free(self) -> bool:
        """True when every level's cokernel is torsion-free (split injection)."""
        return not any(x.torsion for x in self._analyses)

    def is_monomial_injection(self) -> bool:
        """Each column hits exactly one row, with a unit, rows distinct."""
        for m in self.mats:
            hit_rows = set()
            for col in m.columns:
                if len(col) != 1:
                    return False
                (i, x), = col.items()
                if abs(x) != 1 or i in hit_rows:
                    return False
                hit_rows.add(i)
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


def _monomial(m: IntMatrix) -> tuple[list[int], list[int]] | None:
    """(rows, entries) of a matrix with one entry in every column, else None."""
    cols = m.columns
    if not all(cols) or sum(map(len, cols)) != len(cols):
        return None
    return list(chain.from_iterable(cols)), list(chain.from_iterable(map(dict.values, cols)))


def _image(m: IntMatrix, mono, col: dict) -> dict:
    """m times the sparse column col, where mono = (rows, entries) is
    ``_monomial(m)``.  For a monomial m, entry c at i becomes entries[i] * c
    at rows[i], unless two entries land on one row and must be summed."""
    if mono is not None:
        rows, xs = mono
        out = {rows[i]: xs[i] * c for i, c in col.items()}
        if len(out) == len(col):
            return out
    return m.times_column(col)


def _commutes(ds: IntMatrix, dt: IntMatrix, lower: IntMatrix, upper: IntMatrix, mono_lo, mono_up) -> bool:
    """Whether dt * upper == lower * ds, one column at a time and without
    building either product.  ``mono_lo`` and ``mono_up`` are ``_monomial``
    of lower and upper.  Where both are monomial, column j of each side is
    a relabelled column: upper's entry x at row r in column j picks x times
    column r of dt, and lower relabels column j of ds.  Otherwise, or where
    the relabelling would sum two entries, both sides go into one sum that
    must vanish."""
    dt_cols, lower_cols, upper_cols = dt.columns, lower.columns, upper.columns

    def vanishes(j, col):
        acc: dict[int, int] = {}
        for i, b in upper_cols[j].items():
            for r, a in dt_cols[i].items():
                acc[r] = acc.get(r, 0) + a * b
        for i, b in col.items():
            for r, a in lower_cols[i].items():
                acc[r] = acc.get(r, 0) - a * b
        return not any(acc.values())

    if mono_lo is None or mono_up is None:
        return all(vanishes(j, col) for j, col in enumerate(ds.columns))
    rows, xs = mono_lo
    for j, (col, r, x) in enumerate(zip(ds.columns, *mono_up)):
        right = {rows[i]: xs[i] * c for i, c in col.items()}
        if len(right) < len(col):
            if not vanishes(j, col):
                return False
        elif right != (dt_cols[r] if x == 1 else {i: x * c for i, c in dt_cols[r].items()}):
            return False
    return True


_NO_COFACES = frozenset()


def _reduce_unit_pairs(ranks, down) -> list[list]:
    """Shrink a complex by eliminating pairs (s in degree k, t in degree
    k-1) whose incidence is +-1, in place on ``down``: down[k][s] is the
    boundary of cell s of degree k as {face: entry} (degree 0 holds empty
    dicts that are never changed).  Returns ``up``: up[k][i] is the set of
    cofaces of cell i of degree k, or None once the cell is eliminated.

    Eliminating (s, t) with entry e deletes both cells and replaces the
    boundary of each other coface s' of t by  d(s') - a*e*d(s),  where a is
    the entry of s' at t.  Since e is a unit this is the Gaussian
    elimination lemma: the smaller complex is chain-homotopy equivalent to
    the old one over Z, so it has the same homology, torsion included.
    Pairs without fill-in go first (a free face, where t's only coface is
    s, or a coreduction, where d(s) = e*t); when none is left, the pair of
    least fill (|d(s)| - 1)(|cofaces of t| - 1), lowest degree first.  The
    degree being reduced keeps one heap entry per cell, keyed by its least
    fill when pushed and re-keyed when popped stale.  A cell leaves the heap
    only without a unit entry, and only an elimination in its own degree
    can give it one back (it is then pushed again); so every boundary left
    over has no unit entry."""
    m = len(ranks)
    up = [[set() for _ in range(r)] for r in ranks[:-1]] + [[_NO_COFACES] * ranks[-1]]
    todo = []  # cells (i * m + k) that may now have a free face or a coreduction
    for k in range(1, m):
        below = up[k - 1]
        for s, col in enumerate(down[k]):
            for t in col:
                below[t].add(s)
            if len(col) == 1:
                todo.append(s * m + k)
        todo.extend(t * m + k - 1 for t, cof in enumerate(below) if len(cof) == 1)

    heap, queued = [], bytearray()  # the degree being reduced by least fill

    def eliminate(k, s, t, e, requeue=False):
        col = down[k][s]
        below = up[k - 1]
        for r in up[k][s]:
            above = down[k + 1][r]
            del above[s]
            if len(above) == 1:
                todo.append(r * m + k + 1)
        del col[t]
        cols = down[k]
        below[t].discard(s)
        for s2 in below[t]:
            c2 = cols[s2]
            q = c2.pop(t) * e
            for x, c in col.items():
                v = c2.get(x, 0) - q * c
                if v:
                    if x not in c2:
                        below[x].add(s2)
                    c2[x] = v
                else:
                    del c2[x]
                    below[x].discard(s2)
            if len(c2) == 1:
                todo.append(s2 * m + k)
            if requeue and not queued[s2]:
                heappush(heap, s2)  # fill 0: popped next and re-keyed
                queued[s2] = 1
        for x in col:
            cof = below[x]
            cof.discard(s)
            if len(cof) == 1:
                todo.append(x * m + k - 1)
        if k > 1:
            lower = up[k - 2]
            for y in down[k - 1][t]:
                cof = lower[y]
                cof.discard(t)
                if len(cof) == 1:
                    todo.append(y * m + k - 2)
            down[k - 1][t] = None
        cols[s] = below[t] = up[k][s] = None

    def drain():
        while todo:
            i, k = divmod(todo.pop(), m)
            cof = up[k][i]
            if cof is None:
                continue
            if k and len(down[k][i]) == 1:
                (t, e), = down[k][i].items()
                if e == 1 or e == -1:
                    eliminate(k, i, t, e)
                    continue
            if len(cof) == 1:
                s, = cof
                e = down[k + 1][s][i]
                if e == 1 or e == -1:
                    eliminate(k + 1, s, i, e)

    drain()
    for k in range(1, m):
        below, cols, rk = up[k - 1], down[k], ranks[k]
        heap = []
        queued = bytearray(rk)
        for s, col in enumerate(cols):
            best = None if col is None else _least_fill(col, below)
            if best is not None:
                heap.append(best[0] * rk + s)
                queued[s] = 1
        heapify(heap)
        while heap:
            fill, s = divmod(heappop(heap), rk)
            queued[s] = 0
            col = cols[s]
            best = None if col is None else _least_fill(col, below)
            if best is None:
                continue
            if best[0] > fill:
                heappush(heap, best[0] * rk + s)
                queued[s] = 1
                continue
            eliminate(k, s, best[1], best[2], requeue=True)
            drain()
    return up


def _least_fill(col, below):
    """(fill, face, entry) of the unit entry of col whose face has the
    fewest cofaces, or None when col has no unit entry."""
    best = None
    for t, e in col.items():
        if e == 1 or e == -1:
            n = len(below[t])
            if best is None or n < best:
                best, face, unit = n, t, e
    if best is None:
        return None
    return (len(col) - 1) * (best - 1), face, unit


def quasi_iso_type_equal(c: ChainComplex, d: ChainComplex) -> bool:
    """Equality of homology in every degree.  Over the integers bounded
    complexes are quasi-isomorphic (through a zig-zag) exactly when their
    homologies agree degreewise."""
    return c.homology() == d.homology()


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
    is quasi-isomorphic to the pushout because f is injective.  A monomial
    injection is injective by its shape, so that case is tested first.
    """
    if f.source != g.source:
        raise ChainComplexError("pushout legs must share their source")
    a = f.source
    b = f.target
    c = g.target
    if f.is_monomial_injection():
        return _pushout_monomial(f, g, a, b, c)
    if not f.levelwise_injective:
        raise ChainComplexError("first leg must be levelwise injective (a cofibration)")

    def stacked(n: int) -> IntMatrix:
        """h_n = (f_n, -g_n): A_n -> B_n (+) C_n."""
        fm, gm = f.mat_at(n), g.mat_at(n)
        cols = ({**fc, **_shift(gc, fm.rows, -1)} for fc, gc in zip(fm.columns, gm.columns))
        return IntMatrix.from_columns(fm.rows + gm.rows, fm.cols, cols)

    bc = b.direct_sum(c)
    if f.cokernel_torsion_free:
        return _pushout_snf(f, g, a, b, c, bc, stacked)
    return _pushout_cone(f, g, a, b, c, bc, stacked)


def _shift(col: dict, offset: int, sign: int = 1) -> dict:
    """A sparse column moved down by offset rows and multiplied by sign."""
    return {i + offset: sign * x for i, x in col.items()}


def _block_diagonal(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The matrix [[x, 0], [0, y]]."""
    cols = x.columns + tuple(_shift(col, x.rows) for col in y.columns)
    return IntMatrix.from_columns(x.rows + y.rows, x.cols + y.cols, cols)


def _pushout_monomial(f, g, a, b, c) -> PushoutResult:
    """f sends each basis element of A to a signed basis element of B: the
    quotient basis is (B minus the image) plus C, and the B-image coordinates
    are rerouted through g."""
    lo, hi = a.lo, a.hi
    proj_b = []
    proj_c = []
    survivors = []
    for n in range(lo, hi + 1):
        image = [next(iter(col.items())) for col in f.mat_at(n).columns]
        hit = {i for i, _ in image}
        surv = [i for i in range(b.rank_at(n)) if i not in hit]
        ns = len(surv)
        rank_p = ns + c.rank_at(n)
        cols_b = [None] * b.rank_at(n)
        for k, i in enumerate(surv):
            cols_b[i] = {k: 1}
        # [e_i] = s * [g(a_j)] in the quotient when f(a_j) = s * e_i
        for (i, s), gcol in zip(image, g.mat_at(n).columns):
            cols_b[i] = _shift(gcol, ns, s)
        proj_b.append(IntMatrix.from_columns(rank_p, b.rank_at(n), cols_b))
        proj_c.append(IntMatrix.from_columns(rank_p, c.rank_at(n), ({ns + i: 1} for i in range(c.rank_at(n)))))
        survivors.append(surv)
    # boundary of a P-basis vector: lift it (survivors to B, the C part to
    # C), apply the boundary of B (+) C, project
    bnds = []
    for n in range(lo + 1, hi + 1):
        k = n - lo
        pb, ns = proj_b[k - 1], len(survivors[k - 1])
        mono, db = _monomial(pb), b.boundary_at(n).columns
        cols = [_image(pb, mono, db[i]) for i in survivors[k]]
        cols += [_shift(col, ns) for col in c.boundary_at(n).columns]
        bnds.append(IntMatrix.from_columns(pb.rows, proj_b[k].rows, cols))
    ranks = tuple(m.rows for m in proj_b)
    p = ChainComplex(lo, hi, ranks, tuple(bnds))
    map_b = ChainMap(b, p, tuple(proj_b))
    map_c = ChainMap(c, p, tuple(proj_c))
    return PushoutResult(complex=p, from_first=map_b, from_second=map_c, model="quotient")


def _pushout_snf(f, g, a, b, c, bc, stacked) -> PushoutResult:
    """General split case: diagonalize the relation columns h_n = (f, -g)
    and quotient out the unit directions.  U h V = diag(1, .., 1) with
    r = rank A_n ones, so the last m - r Smith coordinates are a basis of
    the quotient: the projection is rows r.. of U, a section of it is
    columns r.. of U_inv, and the maps from B and C are the projection's
    first rank B_n columns and the rest."""
    lo, hi = a.lo, a.hi
    projections = []
    sections = []
    for n in range(lo, hi + 1):
        h = stacked(n)  # (rankB+rankC) x rankA
        m, r = h.rows, h.cols
        snf = smith_normal_form(h)
        if any(d != 1 for d in snf.d):
            raise ChainComplexError("internal: split pushout expected unit invariant factors")
        cols = ({i - r: x for i, x in col.items() if i >= r} for col in snf.U.columns)
        projections.append(IntMatrix.from_columns(m - r, m, cols))
        sections.append(IntMatrix.from_columns(m, m - r, snf.U_inv.columns[r:]))
    bnds = []
    for n in range(lo + 1, hi + 1):
        k = n - lo
        d_bc = bc.boundary_at(n)
        bnds.append(projections[k - 1] * d_bc * sections[k])
    p = ChainComplex(lo, hi, tuple(proj.rows for proj in projections), tuple(bnds))
    include_b = []
    include_c = []
    for n, proj in zip(range(lo, hi + 1), projections):
        rb = b.rank_at(n)
        include_b.append(IntMatrix.from_columns(proj.rows, rb, proj.columns[:rb]))
        include_c.append(IntMatrix.from_columns(proj.rows, c.rank_at(n), proj.columns[rb:]))
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
    # basis of degree n: B (+) C in degree n, then A in degree n-1
    bnds = []
    for n in range(lo + 1, hi + 1):
        top = bc.rank_at(n - 1)
        cols = list(bc.boundary_at(n).columns)
        cols += [
            {**hc, **_shift(ac, top, -1)}
            for hc, ac in zip(stacked(n - 1).columns, a.boundary_at(n - 1).columns)
        ]
        bnds.append(IntMatrix.from_columns(top + a.rank_at(n - 2), ranks[n - lo], cols))
    p = ChainComplex(lo, hi, tuple(ranks), tuple(bnds))
    include_b = []
    include_c = []
    for n in range(lo, hi + 1):
        rb = b.rank_at(n)
        total = ranks[n - lo]
        include_b.append(IntMatrix.from_columns(total, rb, ({j: 1} for j in range(rb))))
        include_c.append(IntMatrix.from_columns(total, c.rank_at(n), ({rb + j: 1} for j in range(c.rank_at(n)))))
    bp = b.pad(lo, hi)
    cp = c.pad(lo, hi)
    map_b = ChainMap(bp, p, tuple(include_b))
    map_c = ChainMap(cp, p, tuple(include_c))
    return PushoutResult(complex=p, from_first=map_b, from_second=map_c, model="cone")
