"""Exact linear algebra over the integers.

Everything in this module runs on arbitrary-precision Python ints; there is
no floating point and no modular shortcut anywhere.  It provides

* ``IntMatrix`` -- a small immutable integer matrix with exact determinants,
* ``smith_normal_form`` -- Smith normal form with unimodular transforms and
  their inverses,
* ``IntegerLattice`` -- an incremental Hermite-style row basis used for
  membership, canonical residues and kernel computations,
* ``AbGroupPresentation`` -- a finitely presented abelian group (free group
  on named generators modulo integer relation vectors) with invariant
  factors and canonical element normal forms,
* ``AbHom`` -- homomorphisms between presentations with exact injectivity,
  surjectivity and exactness tests.

Matrix intermediate entries can blow up during elimination, which is why
fixed-width arithmetic is banned here: Python ints keep everything exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with x*a + y*b == g and g >= 0.

    >>> xgcd(12, -18)
    (6, -1, -1)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def require_json_ints(values, what: str) -> None:
    """Raise ValueError naming the first value that is not a JSON integer
    (floats, strings and booleans are not); ``int()`` would truncate or
    convert them silently."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not a JSON integer")


class IntMatrix:
    """Immutable integer matrix, stored as its nonzero entries by column.

    ``columns[j]`` maps a row index to the nonzero entry at (row, j); zeros
    are never stored, so equal matrices have equal columns.  The constructor
    takes dense row-major entries and ``from_columns`` takes the sparse form
    as it is.  ``entries`` and ``to_rows`` are dense views derived from the
    columns, built on first use.
    """

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.columns = tuple(
            {i: x for i, x in enumerate(entries[j::cols]) if x} for j in range(cols)
        )
        self.__dict__["entries"] = entries

    @classmethod
    def from_columns(cls, rows: int, cols: int, columns) -> "IntMatrix":
        """Build from one {row: nonzero entry} dict per column.  The dicts
        are kept, not copied, so the caller must not change them later."""
        columns = tuple(columns)
        if rows < 0 or len(columns) != cols:
            raise ValueError(f"expected {cols} columns of height {rows}, got {len(columns)}")
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.columns = columns
        return out

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        return cls(m, n, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_columns(n, n, ({j: 1} for j in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls.from_columns(m, n, ({} for _ in range(n)))

    @cached_property
    def entries(self) -> tuple[int, ...]:
        """Row-major dense entries."""
        out = [0] * (self.rows * self.cols)
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i * self.cols + j] = x
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.columns) == (other.rows, other.cols, other.columns)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self.columns)))

    def __repr__(self):
        return f"IntMatrix({self.rows}, {self.cols}, {self.entries!r})"

    def entry(self, i: int, j: int) -> int:
        return self.columns[j].get(i, 0)

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return out

    def transpose(self) -> "IntMatrix":
        rows: list[dict] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = x
        return IntMatrix.from_columns(self.cols, self.rows, rows)

    def times_column(self, vec: dict) -> dict:
        """Matrix times a sparse column vector {index: coeff}, zeros dropped."""
        acc: dict[int, int] = {}
        for k, b in vec.items():
            for i, a in self.columns[k].items():
                acc[i] = acc.get(i, 0) + a * b
        return {i: x for i, x in acc.items() if x}

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix.from_columns(
            self.rows, other.cols, [self.times_column(col) for col in other.columns]
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form: U @ A @ V == diag(d) with U, V unimodular, and
    their inverses ``U_inv`` and ``V_inv``.

    Invariant factors ``d`` are nonnegative, each divides the next nonzero
    one, and trailing zeros account for the free rank of the cokernel.
    """

    d: tuple[int, ...]
    U: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    def diagonal_matrix(self) -> IntMatrix:
        m, n = self.U.rows, self.V.rows
        ents = [0] * (m * n)
        for k, dk in enumerate(self.d):
            ents[k * n + k] = dk
        return IntMatrix(m, n, tuple(ents))

    def verify(self, a: IntMatrix) -> None:
        """Check every SNF invariant exactly; raises AssertionError otherwise,
        also under ``python -O``."""
        if self.U * a * self.V != self.diagonal_matrix():
            raise AssertionError("U*A*V is not diag(d)")
        if abs(self.U.det()) != 1:
            raise AssertionError("U not unimodular")
        if abs(self.V.det()) != 1:
            raise AssertionError("V not unimodular")
        if self.U * self.U_inv != IntMatrix.identity(self.U.rows):
            raise AssertionError("U*U_inv is not the identity")
        if self.V * self.V_inv != IntMatrix.identity(self.V.rows):
            raise AssertionError("V*V_inv is not the identity")
        if any(dk < 0 for dk in self.d):
            raise AssertionError("negative invariant factor")
        nz = [dk for dk in self.d if dk]
        if any(b_ % a_ for a_, b_ in zip(nz, nz[1:])):
            raise AssertionError("divisibility chain broken")
        if list(self.d[: len(nz)]) != nz:
            raise AssertionError("zero invariant factor before a nonzero one")


def _find_pivot(m, t, rows, cols):
    best = None
    best_abs = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            a = mi[j]
            if a:
                a = -a if a < 0 else a
                if best_abs is None or a < best_abs:
                    best_abs = a
                    best = (i, j)
    return best


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with transforms and their inverses, deterministic
    for a fixed input.

    The pivot at each stage is a nonzero entry of minimal absolute value in
    the remaining submatrix, ties broken by lowest (row, col) index.  The
    inverses come from the same elimination: each row operation on U is
    undone by the opposite column operation on U_inv, and each column
    operation on V by the opposite row operation on V_inv.  U_inv is kept
    as its list of columns, so that every operation moves whole lists.
    """
    rows, cols = a.rows, a.cols
    m = a.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    u_inv = IntMatrix.identity(rows).to_rows()  # the columns of U_inv
    v = IntMatrix.identity(cols).to_rows()
    v_inv = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]
        u_inv[i], u_inv[k] = u_inv[k], u_inv[i]

    def swap_cols(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        v_inv[j], v_inv[k] = v_inv[k], v_inv[j]

    def row_addmul(i, k, q):
        mi, mk = m[i], m[k]
        for j in range(cols):
            mi[j] += q * mk[j]
        ui, uk = u[i], u[k]
        for j in range(rows):
            ui[j] += q * uk[j]
        ci, ck = u_inv[i], u_inv[k]
        for j in range(rows):
            ck[j] -= q * ci[j]

    def col_addmul(j, k, q):
        for r in m:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]
        vj, vk = v_inv[j], v_inv[k]
        for i in range(cols):
            vk[i] -= q * vj[i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]
        u_inv[i] = [-x for x in u_inv[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _find_pivot(m, t, rows, cols)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            swap_rows(i0, t)
        if j0 != t:
            swap_cols(j0, t)
        while True:
            if m[t][t] < 0:
                negate_row(t)
            p = m[t][t]
            restart = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q, r = divmod(m[i][t], p)
                    row_addmul(i, t, -q)
                    if r:
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    q, r = divmod(m[t][j], p)
                    col_addmul(j, t, -q)
                    if r:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, rows):
                mi = m[i]
                for j in range(t + 1, cols):
                    if mi[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        t += 1

    d = tuple(m[k][k] for k in range(limit))
    return SNFResult(
        d=d,
        U=IntMatrix.from_rows(u),
        V=IntMatrix.from_rows(v),
        U_inv=IntMatrix.from_columns(rows, rows, map(to_sparse, u_inv)),
        V_inv=IntMatrix.from_rows(v_inv),
    )


# ---------------------------------------------------------------------------
# Sparse integer row lattices (Hermite-style echelon bases)
# ---------------------------------------------------------------------------


def _submul(v: dict, row: dict, q: int) -> None:
    # v -= q * row, dropping zeros
    for c, x in row.items():
        nv = v.get(c, 0) - q * x
        if nv:
            v[c] = nv
        else:
            v.pop(c, None)


def to_sparse(vec) -> dict:
    return {i: int(x) for i, x in enumerate(vec) if x}


class IntegerLattice:
    """Subgroup of Z^width maintained as an echelon row basis.

    Rows are sparse dicts; each basis row is keyed by its pivot column and
    has a positive pivot entry.  ``add`` inserts a vector (gcd-combining
    with existing pivots where needed), ``reduce`` returns the canonical
    residue of a vector modulo the lattice (entries at pivot columns lie in
    [0, pivot)), which makes coset equality a plain dict comparison.
    ``reduce`` and ``normalize`` cost the pivot columns a vector reaches,
    never the whole pivot set; ``normalize`` reduces rows last pivot first.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict] = {}

    def _sparse_copy(self, vec) -> dict:
        """A fresh sparse dict of vec's nonzero entries, after checking that
        every one of its columns lies in 0..width-1."""
        v = {c: x for c, x in vec.items() if x} if isinstance(vec, dict) else to_sparse(vec)
        if v and (min(v) < 0 or max(v) >= self.width):
            raise ValueError("vector outside ambient space")
        return v

    def add(self, vec) -> bool:
        """Insert a vector; returns True if the lattice grew."""
        v = self._sparse_copy(vec)
        while v:
            j = min(v)
            row = self.rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = {c: -x for c, x in v.items()}
                self.rows[j] = v
                return True
            p = row[j]
            b = v[j]
            if b % p == 0:
                _submul(v, row, b // p)
            else:
                g, x, y = xgcd(p, b)
                keys = set(row) | set(v)
                new_row = {}
                for c in keys:
                    val = x * row.get(c, 0) + y * v.get(c, 0)
                    if val:
                        new_row[c] = val
                new_v = {}
                pg, bg = p // g, b // g
                for c in keys:
                    val = pg * v.get(c, 0) - bg * row.get(c, 0)
                    if val:
                        new_v[c] = val
                self.rows[j] = new_row
                v = new_v
        return False

    def _reduce_after(self, v: dict, start: int) -> None:
        """Reduce v in place at the pivot columns after ``start``, so its
        entries there lie in [0, p).  Columns are popped in increasing order
        from a heap of v's own pivot columns; each ``_submul`` pushes the
        pivot columns the subtracted row brings in.  So the cost is in the
        pivot columns v reaches, not in the rank of the lattice."""
        rows = self.rows
        heap = [c for c in v if c > start and c in rows]
        heapify(heap)
        queued = set(heap)
        while heap:
            j = heappop(heap)
            x = v.get(j)
            if x:
                row = rows[j]
                q = x // row[j]
                if q:
                    _submul(v, row, q)
                    for c in row:
                        if c not in queued and c in rows:
                            queued.add(c)
                            heappush(heap, c)

    def reduce(self, vec) -> dict:
        """Canonical residue of vec modulo the lattice (sparse dict)."""
        v = self._sparse_copy(vec)
        self._reduce_after(v, -1)
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[tuple[int, int]]:
        """Sorted (column, pivot value) pairs."""
        return [(j, self.rows[j][j]) for j in sorted(self.rows)]

    def normalize(self, only=None) -> None:
        """Reduce each row (or each row whose pivot column is in ``only``)
        against the later rows, so its entries at later pivot columns lie in
        [0, p).  A reduced row is the unique such residue of the row modulo
        the rows after it, whether or not those rows are reduced themselves.
        Rows are reduced last pivot first, so each one meets later rows that
        are already reduced: no fill-in reaches a unit pivot column, and a
        row costs the pivot columns it reaches."""
        for j0 in sorted(self.rows if only is None else only, reverse=True):
            self._reduce_after(self.rows[j0], j0)

    def basis_rows(self) -> list[dict]:
        return [dict(self.rows[j]) for j in sorted(self.rows)]


def kernel_into_quotient(rows: list[dict], target: IntegerLattice) -> list[dict]:
    """Generators of {x in Z^m : sum x_i rows_i lies in the target lattice},
    where m is the number of rows, each a vector of the target's Z^width.

    Works by echelon-reducing the stacked, identity-augmented system; rows
    whose lattice part dies carry the kernel combination in their tail.  The
    echelon is ``width + m`` columns wide, so homomorphism checks call it on
    Smith quotient coordinates, never on generator coordinates.
    """
    width, m = target.width, len(rows)
    aug = IntegerLattice(width + m)
    for r in target.basis_rows():
        aug.add(r)
    for i, r in enumerate(rows):
        v = dict(r)
        v[width + i] = v.get(width + i, 0) + 1
        aug.add(v)
    out = []
    for j in sorted(aug.rows):
        if j >= width:
            out.append({c - width: x for c, x in aug.rows[j].items()})
    return out


def moduli_lattice(moduli) -> IntegerLattice:
    """Relations of the quotient (+) Z/d_k: the row d_k e_k for each d_k > 0
    (a modulus 0 is a free coordinate)."""
    lat = IntegerLattice(len(moduli))
    for k, d in enumerate(moduli):
        if d:
            lat.add({k: d})
    return lat


# ---------------------------------------------------------------------------
# Finitely presented abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Canonical coordinates of a group element in the diagonalized basis.

    ``torsion[i]`` is reduced modulo ``moduli[i]`` (each modulus > 1, in
    divisibility order); ``free`` carries the unreduced free coordinates.
    Two vectors represent the same element iff their normal forms are equal.
    """

    torsion: tuple[int, ...]
    moduli: tuple[int, ...]
    free: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.torsion) and not any(self.free)


class _Analysis:
    """Diagonalization of the lattice spanned by sparse or dense vectors in
    Z^n: Hermite echelon, unit pivots dropped, Smith normal form on the
    remaining rows.  It backs presentations and chain homology alike.

    Only the non-unit rows, the Smith input, are normalized here; chain
    homology reads nothing else.  ``normalized_lattice`` normalizes the rest
    on first use, for normal forms and membership tests.

    Zero rows are dropped and the rest are inserted by least column,
    descending, so a row mostly meets pivot rows that are already settled
    instead of filling in rows that later rows will change again.  Among
    rows with the same least column the sparsest goes first, to become the
    pivot row, and then the one whose last column is greatest.  This order
    cannot change any output.  In a fixed column order, the pivot columns
    and pivot values of an echelon basis are invariants of the lattice L:
    p_j is the gcd of the column-j entries of L_{>=j}, the vectors of L
    whose first nonzero column is j or later.  A normalized row is the
    unique residue of its row modulo L_{>j}: two candidates differ by a
    vector of L_{>j} whose first nonzero entry would be a multiple of a
    pivot p_k lying strictly between -p_k and p_k.  So the normalized
    basis, the Smith input, ``small_d``, ``small_v`` and every normal form
    do not depend on the order of the ``add`` calls."""

    def __init__(self, n: int, relations):
        self.n = n
        lat = IntegerLattice(n)
        rows = filter(None, map(lat._sparse_copy, relations))
        for r in sorted(rows, key=lambda r: (-min(r), len(r), -max(r))):
            lat.add(r)
        nonunit = [j for j, p in lat.pivots() if p != 1]
        lat.normalize(nonunit)
        self.lattice = lat
        unit_cols = set(lat.rows).difference(nonunit)
        surviving = [j for j in range(n) if j not in unit_cols]
        self.surviving = surviving
        small_rows = [[lat.rows[j].get(c, 0) for c in surviving] for j in nonunit]
        n2 = len(surviving)
        if small_rows:
            m2 = IntMatrix.from_rows(small_rows)
            snf = smith_normal_form(m2)
            self.small_d = snf.d
            self.small_v = snf.V
            self.small_v_inv = snf.V_inv
        else:
            self.small_d = ()
            self.small_v = self.small_v_inv = None
        self.free_rank = n - lat.rank
        self.torsion = tuple(dk for dk in self.small_d if dk > 1)
        # diagonal entry at each position of the surviving basis
        self._positions = self.small_d + (0,) * (n2 - len(self.small_d))

    @cached_property
    def normalized_lattice(self) -> IntegerLattice:
        """The relation lattice with every row normalized, so that ``reduce``
        needs one pass over the rows."""
        self.lattice.normalize()
        return self.lattice

    @cached_property
    def quotient(self) -> tuple[tuple[int, ...], tuple[dict, ...]]:
        """The group as Q = (+) Z/d_k over the Smith positions with d_k != 1,
        torsion positions first and then free ones (d_k = 0), in the order of
        ``normal_form``.  Returns (moduli, lifts): lift k is a sparse vector
        of Z^n whose normal form is the k-th unit vector of Q, namely row k
        of ``small_v_inv`` placed on the surviving columns.  Built on first
        use; chain homology reads none of it."""
        pos = self._positions
        order = [k for k, d in enumerate(pos) if d > 1] + [k for k, d in enumerate(pos) if d == 0]
        if self.small_v is None:
            rows = [{k: 1} for k in range(len(pos))]
        else:
            rows = self.small_v_inv.transpose().columns
        lifts = tuple({self.surviving[i]: x for i, x in rows[k].items()} for k in order)
        return tuple(pos[k] for k in order), lifts

    def normal_form(self, vec) -> NormalForm:
        w = self.normalized_lattice.reduce(vec)
        u = [w.get(j, 0) for j in self.surviving]
        if self.small_v is not None:
            u = [sum(u[i] * x for i, x in col.items()) for col in self.small_v.columns]
        torsion = []
        moduli = []
        free = []
        for k, x in enumerate(u):
            dk = self._positions[k]
            if dk == 0:
                free.append(x)
            elif dk > 1:
                torsion.append(x % dk)
                moduli.append(dk)
        return NormalForm(torsion=tuple(torsion), moduli=tuple(moduli), free=tuple(free))


class AbGroupPresentation:
    """Free abelian group on named generators modulo integer relation rows.

    Each relation row is stored sparse in ``rows``, as a {generator index:
    nonzero coefficient} dict; ``relations`` is the dense view, built on
    first use.  The constructor (and ``make``) takes dense rows, sparse
    rows or a mix."""

    def __init__(self, generators, relations):
        generators = tuple(str(g) for g in generators)
        if len(set(generators)) != len(generators):
            raise ValueError("generator labels must be pairwise distinct")
        n = len(generators)
        rows = []
        for r in relations:
            if isinstance(r, dict):
                if any(type(c) is not int or not 0 <= c < n for c in r):
                    raise ValueError("relation index outside the generators")
                items = r.items()
            else:
                r = tuple(r)
                if len(r) != n:
                    raise ValueError("relation length does not match generator count")
                items = enumerate(r)
            row = {}
            for c, x in items:
                x = int(x)
                if x:
                    row[c] = x
            rows.append(row)
        self.generators = generators
        self.rows = tuple(rows)

    @classmethod
    def make(cls, generators, relations) -> "AbGroupPresentation":
        return cls(generators, relations)

    @classmethod
    def free(cls, generators) -> "AbGroupPresentation":
        return cls.make(generators, [])

    @cached_property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        """Dense view of the relation rows."""
        out = []
        for row in self.rows:
            dense = [0] * len(self.generators)
            for c, x in row.items():
                dense[c] = x
            out.append(tuple(dense))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, AbGroupPresentation):
            return NotImplemented
        return self is other or (self.generators, self.rows) == (other.generators, other.rows)

    def __hash__(self):
        return hash((self.generators, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self):
        return f"AbGroupPresentation({self.generators!r}, {self.rows!r})"

    @cached_property
    def _analysis(self) -> _Analysis:
        return _Analysis(len(self.generators), self.rows)

    @cached_property
    def generator_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.generators)}

    def _checked(self, vec):
        """vec itself, once it is known to be a dense vector of the right
        length or a sparse {index: coeff} dict inside the generators."""
        n = len(self.generators)
        if isinstance(vec, dict):
            if any(not 0 <= c < n for c in vec):
                raise ValueError("vector index outside the generators")
        elif len(vec) != n:
            raise ValueError("vector length does not match generator count")
        return vec

    def quotient_invariants(self) -> tuple[int, tuple[int, ...]]:
        """Isomorphism type as (free rank, invariant factors > 1)."""
        a = self._analysis
        return a.free_rank, a.torsion

    def element_normal_form(self, vec) -> NormalForm:
        """Normal form of a dense vector or a sparse {index: coeff} dict."""
        return self._analysis.normal_form(self._checked(vec))

    def is_relation(self, vec) -> bool:
        """True iff vec (dense or sparse) lies in the relation lattice
        (represents zero)."""
        return self._analysis.normalized_lattice.contains(self._checked(vec))

    def describe(self) -> str:
        """Human-readable isomorphism type, e.g. 'Z^2' or 'Z + Z/6'."""
        rank, torsion = self.quotient_invariants()
        parts = []
        if rank == 1:
            parts.append("Z")
        elif rank > 1:
            parts.append(f"Z^{rank}")
        parts.extend(f"Z/{d}" for d in torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between presented groups, given on generators.

    ``matrix`` has one row per source generator; row i is the image of
    source generator i written in target generator coordinates.  The
    constructor rejects matrices that do not send every source relation
    into the target relation lattice (ill-defined maps); that check reads the
    images as sparse rows, the columns of the transposed matrix.
    Injectivity, surjectivity, zero and exactness run on the induced map
    between the Smith quotients, a matrix a few columns wide.
    """

    source: AbGroupPresentation
    target: AbGroupPresentation
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != len(self.source.generators):
            raise ValueError("matrix rows must match source generator count")
        if self.matrix.cols != len(self.target.generators):
            raise ValueError("matrix cols must match target generator count")
        lat = self.target._analysis.normalized_lattice
        for rel in self.source.rows:
            if not lat.contains(self._transpose.times_column(rel)):
                raise ValueError("map is not well-defined: a source relation escapes the target lattice")

    @cached_property
    def _transpose(self) -> IntMatrix:
        """Column i is the sparse image of source generator i."""
        return self.matrix.transpose()

    @cached_property
    def _induced(self) -> tuple[dict, ...]:
        """The induced map Q_source -> Q_target on Smith quotients: column k
        is the target normal form (torsion, then free coordinates) of the
        image of the source's k-th lift, as a sparse dict."""
        _, lifts = self.source._analysis.quotient
        image = self._transpose.times_column
        out = []
        for lift in lifts:
            nf = self.target.element_normal_form(image(lift))
            out.append(to_sparse(nf.torsion + nf.free))
        return tuple(out)

    def _kernel(self) -> list[dict]:
        """Generators, in Q_source coordinates, of the preimage of zero."""
        moduli, _ = self.target._analysis.quotient
        return kernel_into_quotient(self._induced, moduli_lattice(moduli))

    def is_injective(self) -> bool:
        src = moduli_lattice(self.source._analysis.quotient[0])
        return all(src.contains(k) for k in self._kernel())

    def is_surjective(self) -> bool:
        lat = moduli_lattice(self.target._analysis.quotient[0])
        for c in self._induced:
            lat.add(c)
        pivs = lat.pivots()
        return len(pivs) == lat.width and all(p == 1 for _, p in pivs)

    def is_zero(self) -> bool:
        return not any(self._induced)

    def compose(self, first: "AbHom") -> "AbHom":
        """self after first (first: A->B, self: B->C)."""
        if first.target is not self.source and first.target != self.source:
            raise ValueError("maps are not composable")
        return AbHom(first.source, self.target, first.matrix * self.matrix)


def check_exact_at(f: AbHom, g: AbHom) -> bool:
    """Exactness at the middle of  source(f) -> target(f)=source(g) -> target(g).

    In the middle group's Smith quotient coordinates, compares image-of-f +
    quotient relations against kernel-of-g + quotient relations by mutual
    lattice membership.
    """
    if f.target != g.source:
        raise ValueError("target of f must equal source of g")
    moduli, _ = g.source._analysis.quotient
    image_rows = f._induced
    kernel_rows = g._kernel()

    im_lat = moduli_lattice(moduli)
    for r in image_rows:
        im_lat.add(r)
    ker_lat = moduli_lattice(moduli)
    for r in kernel_rows:
        ker_lat.add(r)

    if not all(im_lat.contains(k) for k in kernel_rows):
        return False
    return all(ker_lat.contains(r) for r in image_rows)
