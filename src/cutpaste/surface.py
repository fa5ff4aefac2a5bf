"""Combinatorial compact oriented surfaces with boundary, and their cut-and-paste calculus.

A surface is a collection of oriented triangles together with a partial
pairing of directed edges: a directed edge (t, e) runs from vertex
``triangles[t][e]`` to ``triangles[t][(e+1) % 3]``, and a glued pair must
consist of mutually reversed directed edges (this is what makes the whole
complex oriented).  Unglued edges form the boundary.  Repeated vertex
labels inside a triangle are allowed (the complex is a Delta-complex, not
a strict simplicial complex); validity is governed by the vertex-link
condition: the corners around every vertex form a single cycle (interior
vertex) or a single path (boundary vertex).

Inside the package a ref is named by its flat index 3t+e, from the stored
gluing through the builder and its helpers to the map that
canonicalization returns.  (t, e) pairs are made or read only at the
public edge: ``EmbeddedCircle.refs``, ``CutRecord``, ``boundary_cycles``
and ``boundary_refs``, ``TriSurface.partner`` and ``endpoints``, and the
file format.

Everything is immutable; operations return new surfaces with canonically
regenerated labels (breadth-first from the lexicographically least
triangle), so equal constructions serialize identically.  A written
surface in which no triangle repeats a vertex id parses back to itself.
One with a repeated id need not: its parse may renumber it (see
``_canonical_flat``), so it may take one more write and parse to reach
the fixpoint.

The surface-side operations of the cut-and-paste groups live here too,
next to the builder they glue with, so that ``sk_groups`` stays the group
layer and loads no triangulation code.  The doubling witness certifies
[M] - [N] = [double of M] - [N glued to reversed M] for M, N with
diffeomorphic boundaries (the middle-kernel argument of the exact
sequence); it, the equivalence decision and the cylinder regluing
collapse read (chi, b) coordinates, which the with-boundary group maps
injectively at every caps, so they build no group and have no class
ceiling.  Move witnesses are sequences of cut-and-paste moves over a
canonical circle family (handle seams and disk-bounding circles of the
standard library surfaces); the search is breadth-first, returns the first
witness in deterministic order, and never claims inequivalence on
exhaustion.  ``sk_groups`` forwards these names, so
``sk_groups.find_witness is surface.find_witness``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, count, islice
from operator import eq, lt

from .classes import (
    CircleTouchesBoundary,
    DiffeoClass,
    InvalidSurface,
    LengthMismatch,
    NonSeparatingCut,
    OrientationClash,
    SurfaceError,
)

Ref = tuple[int, int]


# ---------------------------------------------------------------------------
# Walks over a gluing
# ---------------------------------------------------------------------------

# Orientation reversal turns triangle (a, b, c) into (a, c, b); its edge e is
# the reverse of the original's edge _MIRROR_EDGE[e].
_MIRROR_EDGE = (2, 1, 0)

# The walks below read a gluing as a flat partner list: ref (t, e) is index
# 3t+e, and its entry is the partner's index, or -1 when the ref is unglued.
# Corner k is where ref k starts.  Around a vertex, the corner after c is
# partners[_turn(_turn(c))], across the ref that ends at c, and the corner
# before c is _turn(partners[c]), across c's own ref.


def _turn(k: int) -> int:
    """The ref after ref k in its triangle, which starts where ref k ends."""
    return k + 1 if k % 3 != 2 else k - 2


def _corners_around(partners, c: int) -> list[int]:
    """The corners at corner c's vertex in rotation order: the cycle from c
    when every ref out of the vertex is glued, else the arc from its first
    corner, whose ref is unglued.  The vertex is read from the gluing alone,
    not from vertex ids."""
    out = [c]
    k = partners[_turn(_turn(c))]
    while k >= 0 and k != c:
        out.append(k)
        k = partners[_turn(_turn(k))]
    if k < 0:  # an arc: put the corners before c in front
        before = []
        k = c
        while partners[k] >= 0:
            k = _turn(partners[k])
            before.append(k)
        out[:0] = reversed(before)
    return out


def _edge_count(refs, first: int) -> int:
    """Geometric edges of the refs first, first+1, ...: a glued pair counts
    once, and a ref glued to itself is a pair of its own."""
    glued = len(refs) - refs.count(-1)
    self_glued = sum(map(eq, refs, count(first)))
    return len(refs) - (glued + self_glued) // 2


def _flat(refs) -> list[int]:
    """The flat indices of (t, e) refs."""
    return [3 * t + e for t, e in refs]


def _pairs(refs) -> tuple[Ref, ...]:
    """The (t, e) refs of flat indices."""
    return tuple(divmod(k, 3) for k in refs)


def _unglued(partners) -> list[int]:
    """Indices of the unglued refs, in increasing order."""
    return list(compress(count(), map((-1).__eq__, partners)))


def _components(partners) -> list[int]:
    """Component index of each triangle, numbered in order of first triangle."""
    comp = [-1] * (len(partners) // 3)
    cur = 0
    for start in range(len(comp)):
        if comp[start] != -1:
            continue
        comp[start] = cur
        queue = [start]
        for t in queue:  # breadth first: the queue grows while it is read
            for p in partners[3 * t : 3 * t + 3]:
                if p >= 0 and comp[p // 3] == -1:
                    comp[p // 3] = cur
                    queue.append(p // 3)
        cur += 1
    return comp


def _boundary_cycles(partners) -> list[list[int]]:
    """The unglued refs as directed cycles of flat indices.  Each cycle
    starts at its least index, and the cycles come in increasing order."""
    seen: set[int] = set()
    cycles = []
    for start in _unglued(partners):
        if start in seen:
            continue
        cyc = [start]
        k = start
        while True:
            # rotate back around the endpoint vertex to the next unglued edge
            k = _turn(k)
            while partners[k] >= 0:
                k = _turn(partners[k])
            if k == start:
                break
            cyc.append(k)
        seen.update(cyc)
        cycles.append(cyc)
    return cycles


# ---------------------------------------------------------------------------
# The surface type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriSurface:
    """Triangles with vertex ids in 0..vertex_count-1, and the gluing as a
    flat involution ``partners``: ref (t, e) is index 3t+e, and its entry is
    the partner's index (its own for a ref glued to itself), or -1 when the
    ref is unglued.  ``component_starts`` holds the first triangle of each
    component, whose triangles are consecutive; it follows from the other
    fields, so equality and hashing ignore it.  ``from_json``,
    ``surface_from_data`` and the operations build such surfaces; one built
    directly from its fields is unchecked, and ``validate`` names what breaks.
    """

    vertex_count: int
    triangles: tuple[tuple[int, int, int], ...]
    partners: tuple[int, ...]
    component_starts: tuple[int, ...] = field(compare=False)

    # -- basic accessors ----------------------------------------------------

    def partner(self, ref: Ref) -> Ref | None:
        t, e = ref
        if 0 <= t < len(self.triangles) and 0 <= e < 3:
            p = self.partners[3 * t + e]
            if p >= 0:
                return divmod(p, 3)
        return None

    def endpoints(self, ref: Ref) -> tuple[int, int]:
        t, e = ref
        tri = self.triangles[t]
        return tri[e], tri[(e + 1) % 3]

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    @property
    def edge_count(self) -> int:
        """Geometric edges: glued pairs count once."""
        return _edge_count(self.partners, 0)

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + len(self.triangles)

    # -- connectivity ---------------------------------------------------------

    @cached_property
    def component_of_triangle(self) -> tuple[int, ...]:
        starts = self.component_starts
        out: list[int] = []
        for c, (lo, hi) in enumerate(zip(starts, starts[1:] + (len(self.triangles),))):
            out += [c] * (hi - lo)
        return tuple(out)

    @property
    def component_count(self) -> int:
        return len(self.component_starts)

    # -- corners and links ----------------------------------------------------

    @cached_property
    def _boundary_vertices(self) -> frozenset[int]:
        """The vertices at which an unglued ref ends."""
        tris = self.triangles
        return frozenset(tris[k // 3][(k + 1) % 3] for k in _unglued(self.partners))

    def vertex_is_interior(self, v: int) -> bool:
        """Every corner at v is glued across its incoming edge."""
        return v not in self._boundary_vertices

    # -- validation -------------------------------------------------------------

    def validate(self) -> str | None:
        """Check all structural invariants; returns the first violation or None."""
        tris = self.triangles
        n_tri, vc = len(tris), self.vertex_count
        for t, tri in enumerate(tris):
            if len(tri) != 3:
                return f"triangle {t} does not have three vertices"
            for v in tri:
                if type(v) is not int:
                    return f"vertex id {v!r} of triangle {t} is not a JSON integer"
                if not 0 <= v < vc:
                    return f"triangle {t} references vertex {v} outside 0..{vc - 1}"
        # Corner (t, i) is flat index 3t+i, at vertex corner_vertex[3t+i]; ref
        # 3t+i runs from that corner's vertex to tail[3t+i].
        corner_vertex = [v for tri in tris for v in tri]
        tail = [v for a, b, c in tris for v in (b, c, a)]
        if len(set(corner_vertex)) != vc:
            return "vertex ids are not exactly 0..vertex_count-1 (isolated or missing ids)"

        # One pass over the gluing: each entry is -1 or a ref whose entry
        # points back, and each pair is checked from its lesser ref.
        partners = self.partners
        n3 = 3 * n_tri
        if len(partners) != n3:
            return f"partners has {len(partners)} entries, not 3 x {n_tri} triangles = {n3}"
        if not set(map(type, partners)) <= {int}:
            k = next(k for k, p in enumerate(partners) if type(p) is not int)
            return f"partner index {partners[k]!r} of ref {divmod(k, 3)} is not a JSON integer"
        for k, p in enumerate(partners):
            if p == -1:
                continue
            if not 0 <= p < n3:
                return f"ref {divmod(k, 3)} has partner index {p} outside -1..{n3 - 1}"
            if partners[p] != k:
                return f"ref {divmod(k, 3)} is glued to {divmod(p, 3)}, which is not glued back to it"
            if p == k:
                return f"edge {divmod(k, 3)} glued to itself"
            if k < p and (corner_vertex[k] != tail[p] or tail[k] != corner_vertex[p]):
                return (
                    f"glued pair {divmod(k, 3)}~{divmod(p, 3)} is not orientation-reversing: "
                    f"({corner_vertex[k]},{tail[k]}) vs ({corner_vertex[p]},{tail[p]})"
                )

        # Each component is one block of consecutive triangles, and
        # component_starts holds where each block begins.
        comp = _components(partners)
        starts = [t for t in range(n_tri) if t == 0 or comp[t] != comp[t - 1]]
        for t in starts[1:]:
            if comp[t] < comp[t - 1]:
                return f"triangle {t} belongs to component {comp[t]}, whose triangles are not consecutive"
        given = list(self.component_starts)
        if given != starts:
            if len(given) != len(starts):
                return f"component_starts has {len(given)} entries, not one per component ({len(starts)})"
            c = next(c for c, (a, b) in enumerate(zip(given, starts)) if a != b)
            return f"component {c} starts at triangle {starts[c]}, not at {given[c]}"

        # The link check.  nxt[c] is the corner after c around its vertex,
        # partners[_turn(_turn(c))], or -1.  The step is injective once
        # partners is an involution, and _turn(partners[c]) inverts it, so c
        # has a predecessor exactly when its ref is glued and the rotation
        # never branches.  Each orbit is then an arc from a corner whose ref
        # is unglued, or a cycle; an arc ends where the incoming ref is
        # unglued, so no orbit has a dead end inside it.  The pairs reverse
        # orientation, so an orbit stays at one vertex, and every id in
        # 0..vertex_count-1 has a corner, so each vertex has at least one
        # orbit.  Hence there are exactly vertex_count orbits when every
        # vertex's corners form one orbit, a manifold point, and more when
        # some vertex's do not.
        nxt = [-1] * n3
        nxt[0::3], nxt[1::3], nxt[2::3] = partners[2::3], partners[0::3], partners[1::3]
        seen = bytearray(n3)
        arc_starts = _unglued(partners)
        for c in arc_starts:
            while c >= 0:
                seen[c] = 1
                c = nxt[c]
        cycle_starts = []
        c = seen.find(0)
        while c >= 0:
            cycle_starts.append(c)
            k = c
            while not seen[k]:
                seen[k] = 1
                k = nxt[k]
            c = seen.find(0, c + 1)
        if len(arc_starts) + len(cycle_starts) == vc:
            return None
        # name the first vertex, in first-appearance order, with two orbits
        arcs = Counter(corner_vertex[c] for c in arc_starts)
        cycles = Counter(corner_vertex[c] for c in cycle_starts)
        v = next(v for v in dict.fromkeys(corner_vertex) if arcs[v] + cycles[v] > 1)
        if arcs[v] > 1:
            return f"link of vertex {v} splits into {arcs[v]} arcs"
        if arcs[v]:
            return f"link of vertex {v} is not a single path"
        return f"link of vertex {v} is not a single cycle"

    def require_valid(self) -> "TriSurface":
        violation = self.validate()
        if violation is not None:
            raise InvalidSurface(violation)
        return self

    # -- boundary ---------------------------------------------------------------

    @cached_property
    def _boundary_walk(self) -> list[list[int]]:
        return _boundary_cycles(self.partners)

    @cached_property
    def boundary_cycles(self) -> tuple[tuple[Ref, ...], ...]:
        """Boundary decomposed into directed edge cycles, canonically ordered."""
        return tuple(map(_pairs, self._boundary_walk))

    @cached_property
    def boundary_refs(self) -> tuple[Ref, ...]:
        """The unglued refs in increasing order; the boundary cycles
        partition them."""
        return _pairs(_unglued(self.partners))

    def boundary_circle_count(self) -> int:
        return len(self._boundary_walk)

    # -- classification ------------------------------------------------------------

    @cached_property
    def diffeo_class(self) -> DiffeoClass:
        partners = self.partners
        starts = self.component_starts
        bnd = [0] * len(starts)
        for cyc in self._boundary_walk:
            bnd[bisect_right(starts, cyc[0] // 3) - 1] += 1
        pairs = []
        for c, (lo, hi) in enumerate(zip(starts, starts[1:] + (len(self.triangles),))):
            verts = len(set(chain.from_iterable(self.triangles[lo:hi])))
            # a glued pair joins two refs of one component
            chi = verts - _edge_count(partners[3 * lo : 3 * hi], 3 * lo) + hi - lo
            b = bnd[c]
            g2 = 2 - chi - b
            if g2 < 0 or g2 % 2:
                raise InvalidSurface(
                    f"component {c} has chi={chi}, boundary={b}; not an oriented surface"
                )
            pairs.append((g2 // 2, b))
        return DiffeoClass.from_pairs(pairs)

    def classify(self) -> DiffeoClass:
        return self.diffeo_class

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        """The surface file: each glued pair once, from its lesser ref, in
        increasing order."""
        return {
            "vertices": self.vertex_count,
            "triangles": [list(t) for t in self.triangles],
            "gluing": [
                [[k // 3, k % 3], [p // 3, p % 3]] for k, p in enumerate(self.partners) if k <= p
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TriSurface":
        """Parse the surface file format (see ``parse_json``)."""
        return cls.parse_json(data)[0]

    @staticmethod
    def parse_json(data: dict) -> tuple["TriSurface", list[int] | range]:
        """Parse the surface file format.  Malformed files raise ValueError
        naming the broken rule before anything is canonicalized: the file is
        a JSON object with ``vertices``, ``triangles`` and ``gluing``;
        ``vertices`` must be a non-negative int, every triangle a list of
        vertex ids and every gluing entry two refs of two indices each;
        vertex ids, triangle indices and edge indices must be JSON integers
        (not floats, strings or booleans), vertex ids lie in
        0..vertices-1, no ref is glued twice, every triangle has exactly
        three vertex ids, and every glued ref has its triangle index in
        0..len(triangles)-1 and its edge index in 0..2.  The gluing entries
        are read in order, each checked for shape, integers and refs glued
        twice; triangle sizes and ref ranges are checked after the last.
        Returns the canonical surface and ``new_ref``, which takes each of
        the file's flat refs 3t+e to its canonical flat index: the triangle
        t lands at ``new_ref[3 * t] // 3``.  For a file already in canonical
        form it is ``range(3 * len(triangles))``."""
        if not isinstance(data, dict):
            raise ValueError("a surface file is a JSON object with vertices, triangles and gluing")
        violation = _vertex_id_violation(_entry(data, "vertices"), _entry(data, "triangles"))
        if violation is not None:
            raise ValueError(violation)
        triangles = [tuple(t) for t in data["triangles"]]
        gluing = _entry(data, "gluing")
        if _is_json_scalar(gluing):
            raise ValueError(f"gluing must be a list of ref pairs, got {gluing!r}")
        n3 = 3 * len(triangles)
        partners = [-1] * n3
        stray: dict[Ref, None] = {}  # glued refs outside the triangles, in file order
        for k, pair in enumerate(gluing):
            try:
                (t1, e1), (t2, e2) = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"gluing entry {k} is not two [triangle, edge] refs: {pair!r}"
                ) from None
            if not (type(t1) is type(e1) is type(t2) is type(e2) is int):
                raise ValueError(
                    f"gluing pair {(t1, e1)}~{(t2, e2)} holds an index that is not a JSON integer"
                )
            i, j = 3 * t1 + e1, 3 * t2 + e2
            if 0 <= e1 <= 2 and 0 <= e2 <= 2 and 0 <= i < n3 and 0 <= j < n3:
                twice = partners[i] >= 0 or partners[j] >= 0
                partners[i] = j
                partners[j] = i
            else:
                # A ref outside the triangles fails the range check after the
                # loop; until then it is only checked for being glued twice,
                # and an in-range ref of its pair is marked glued to itself.
                keys = [
                    3 * t + e if 0 <= e <= 2 and 0 <= 3 * t + e < n3 else (t, e)
                    for t, e in ((t1, e1), (t2, e2))
                ]
                twice = any(x in stray if type(x) is tuple else partners[x] >= 0 for x in keys)
                for x in keys:
                    if type(x) is tuple:
                        stray[x] = None
                    else:
                        partners[x] = x
            if twice:
                raise ValueError(f"gluing pair {(t1, e1)}~{(t2, e2)} has a ref that is glued twice")
        violation = _shape_violation(triangles, stray)
        if violation is not None:
            raise ValueError(violation)
        return _canonical_flat(triangles, partners)


# ---------------------------------------------------------------------------
# Canonicalization and the mutable builder
# ---------------------------------------------------------------------------


def _entry(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"a surface file needs a {key!r} entry") from None


def _is_json_scalar(x) -> bool:
    """A JSON number, boolean or null: nothing that can be read as a list."""
    return x is None or isinstance(x, (int, float))


def _vertex_id_violation(n, triangles) -> str | None:
    """The first broken rule of a vertex count n and the triangles' vertex
    ids: n is a non-negative int, the triangles and each triangle are
    lists, every id is an int (not a float, string or bool) in 0..n-1.
    None when all hold."""
    if type(n) is not int or n < 0:
        return f"vertices must be a non-negative int, got {n!r}"
    try:
        bad = [v for t in triangles for v in t if type(v) is not int or not 0 <= v < n]
    except TypeError:  # the triangles, or one of them, cannot be iterated
        if _is_json_scalar(triangles):
            return f"triangles must be a list of vertex id lists, got {triangles!r}"
        t = next(t for t, tri in enumerate(triangles) if _is_json_scalar(tri))
        return f"triangle {t} is not a list of vertex ids: {triangles[t]!r}"
    if bad and type(bad[0]) is not int:
        return f"vertex id {bad[0]!r} is not a JSON integer"
    if bad:
        return f"vertex id {bad[0]} outside 0..{n - 1}"
    return None


def _shape_violation(triangles, glued) -> str | None:
    """The first triangle without exactly three vertex ids, or ref of
    ``glued`` outside the triangles, that ``_canonical_flat`` cannot take;
    else None."""
    n_tri = len(triangles)
    bad = [t for t, tri in enumerate(triangles) if len(tri) != 3]
    if bad:
        return f"triangle {bad[0]} does not have exactly three vertex ids"
    bad = [r for r in glued if not (0 <= r[0] < n_tri and 0 <= r[1] <= 2)]
    if not bad:
        return None
    if 0 <= bad[0][0] < n_tri:
        return f"gluing ref {bad[0]} has edge index outside 0..2"
    return f"gluing ref {bad[0]} has triangle index outside 0..{n_tri - 1}"


# Canonical edge f of a triangle at rotation r is its input edge _ROT_EDGES[r][f].
_ROT_EDGES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _canonical_flat(triangles, partners: list[int]) -> tuple[TriSurface, list[int] | range]:
    """Relabel triangles, vertices and refs canonically.

    ``triangles`` holds three vertex ids per triangle.  ``partners`` is a
    flat partner list (see ``TriSurface``) and must be an involution on
    valid refs: every entry is -1 or in 0..3n-1, and
    ``partners[partners[k]] == k`` for every glued k.  The parser and the
    builder guarantee this; a ref glued to itself is allowed.

    Triangles are renumbered breadth-first, each component from its least
    triangle (ties by index): the first start is found with ``min``, and
    only the triangles a block leaves unnumbered are sorted, once, for the
    later starts.  A start visits its neighbours across its
    edges 0, 1, 2; a triangle entered across its edge e visits them from
    edge e+1 on, cyclically, so the order does not move with the
    triangle's rotation.  Vertices are numbered by first appearance in that
    order and each triangle is rotated to its least rotation.

    On a valid surface in which no triangle repeats a vertex id, the result
    canonicalizes to itself: a triangle entered across an edge brings at
    most one new vertex, so its rotation leaves the first appearances in
    order; a start is numbered m, m+1, m+2 in its own edge order, which is
    its least rotation; and every other triangle of its component, and of
    later ones, sorts after it.  A repeated id breaks the last two.  A
    triangle whose least rotation repeats an id, such as (0, 0, 2) or
    (0, 1, 1), sorts before a start (0, 1, 2) of its component, so the next
    canonicalization starts from it; and a start with a repeated id may be
    rotated, which moves its edge order.  Such a surface may need one more
    round trip.

    When the walk order, the first appearances and the rotations all come
    out as the identity (every triangle's first id is less than its other
    two), the input lists are already the canonical surface and are
    returned as they are, with ``range(3n)`` as the map; the
    first-appearance and rotation checks then read the triangles in file
    order.

    The surface stores the canonical partner list the walk ends with as
    ``partners``, and where each component's block of triangles starts as
    ``component_starts``.  The map returned with it is ``new_ref``: the
    canonical flat index of each input flat ref.
    """
    n_tri = len(triangles)
    new_index = [-1] * n_tri
    order: list[int] = []
    starts: list[int] = []  # where each component's block begins
    later = None  # the triangles left after the first block, least first
    while len(order) < n_tri:
        if not order:
            start = triangles.index(min(triangles))
        else:
            if later is None:
                later = iter(sorted((t for t in range(n_tri) if new_index[t] < 0), key=triangles.__getitem__))
            start = next(t for t in later if new_index[t] < 0)
        starts.append(len(order))
        new_index[start] = len(order)
        # each triangle of the block as the first ref it visits: a
        # triangle entered across ref p visits from _turn(p) (inlined) on,
        # and skips p, whose partner's triangle is already numbered
        block = [3 * start]
        for p in partners[3 * start : 3 * start + 3]:
            if p >= 0 and new_index[p // 3] < 0:
                new_index[p // 3] = len(order) + len(block)
                block.append(p + 1 if p % 3 != 2 else p - 2)
        for f in islice(block, 1, None):  # breadth first: the block grows while it is read
            for p in (partners[f], partners[f + 1 if f % 3 != 2 else f - 2]):
                if p >= 0 and new_index[p // 3] < 0:
                    new_index[p // 3] = len(order) + len(block)
                    block.append(p + 1 if p % 3 != 2 else p - 2)
        order += [f // 3 for f in block]
    identity = order == list(range(n_tri))
    flat = list(chain.from_iterable(triangles if identity else map(triangles.__getitem__, order)))
    seen = list(dict.fromkeys(flat))  # vertex ids by first appearance
    if (
        identity
        and seen == list(range(len(seen)))
        and all(map(lt, flat[0::3], flat[1::3]))
        and all(map(lt, flat[0::3], flat[2::3]))
    ):
        surf = TriSurface(len(seen), tuple(map(tuple, triangles)), tuple(partners), tuple(starts))
        return surf, range(3 * n_tri)
    vmap = dict(zip(seen, count()))
    new_tris = []
    rots = []  # by new index
    ids = iter([vmap[v] for v in flat])
    for a, b, c in zip(ids, ids, ids):
        if a < b and a < c:
            rots.append(0)
            new_tris.append((a, b, c))
        elif b < c and b < a:
            rots.append(1)
            new_tris.append((b, c, a))
        elif c < a and c < b:
            rots.append(2)
            new_tris.append((c, a, b))
        else:  # the least id repeats: compare whole rotations
            tri = (a, b, c)
            rot = min(range(3), key=lambda r: tri[r:] + tri[:r])
            rots.append(rot)
            new_tris.append(tri[rot:] + tri[:rot])
    # the input index of each canonical ref, and the canonical index of each
    # input ref, with -1 (the last slot) mapped to -1
    old_ref = [3 * t + e for t, rot in zip(order, rots) for e in _ROT_EDGES[rot]]
    new_ref = [-1] * (3 * n_tri + 1)
    for k, o in enumerate(old_ref):
        new_ref[o] = k
    out = tuple(map(new_ref.__getitem__, map(partners.__getitem__, old_ref)))
    new_ref.pop()
    return TriSurface(len(vmap), tuple(new_tris), out, tuple(starts)), new_ref


class _Builder:
    """Mutable scratch representation used inside operations: triangles as
    vertex lists and the gluing as a flat partner list (see ``TriSurface``),
    read and written through the ref-level methods below, which name each
    ref by its flat index."""

    def __init__(self):
        self.triangles: list[list[int]] = []
        self.partners: list[int] = []
        self.next_vertex = 0

    @classmethod
    def from_surface(cls, s: TriSurface) -> "_Builder":
        b = cls()
        b.add_surface(s)
        return b

    def new_vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        return v

    def add_surface(self, s: TriSurface, mirrored: bool = False):
        """Disjointly add another surface, orientation-reversed when mirrored;
        returns the map from flat refs of s to flat refs of the builder."""
        voff = self.next_vertex
        off = 3 * len(self.triangles)
        emap = _MIRROR_EDGE if mirrored else (0, 1, 2)

        def place(k: int) -> int:
            return off + k - k % 3 + emap[k % 3]

        self.triangles += (
            [x + voff, z + voff, y + voff] if mirrored else [x + voff, y + voff, z + voff]
            for x, y, z in s.triangles
        )
        if mirrored:
            # ref k of s lands at place(k), and so does each entry
            placed = [-1 if p < 0 else off + p - p % 3 + emap[p % 3] for p in s.partners]
            placed[0::3], placed[2::3] = placed[2::3], placed[0::3]
        else:
            placed = [-1 if p < 0 else off + p for p in s.partners]
        self.partners += placed
        self.next_vertex += s.vertex_count
        return place

    def add_triangle(self, a: int, b: int, c: int) -> int:
        """Append an unglued triangle; returns its index."""
        self.triangles.append([a, b, c])
        self.partners += (-1, -1, -1)
        return len(self.triangles) - 1

    def endpoints(self, k: int) -> tuple[int, int]:
        t, e = divmod(k, 3)
        tri = self.triangles[t]
        return tri[e], tri[(e + 1) % 3]

    def _link(self, i: int, j: int) -> None:
        """Glue the unglued refs at flat indices i and j to each other,
        without checking their vertices."""
        if self.partners[i] >= 0 or self.partners[j] >= 0:
            raise SurfaceError("edge already glued")
        self.partners[i] = j
        self.partners[j] = i

    def unglue(self, k: int) -> int:
        """Unglue ref k from its partner; returns the partner."""
        p = self.partners[k]
        if p < 0:
            raise SurfaceError(f"edge {divmod(k, 3)} is not glued")
        self.partners[p] = self.partners[k] = -1
        return p

    def glue_pair(self, i: int, j: int) -> None:
        u, v = self.endpoints(i)
        x, y = self.endpoints(j)
        if (u, v) != (y, x):
            raise OrientationClash(
                f"cannot glue {divmod(i, 3)}:{(u, v)} to {divmod(j, 3)}:{(x, y)}; "
                "directions must be mutually reversed"
            )
        self._link(i, j)

    def annulus_strip(self, a_row: list[int], b_row: list[int]) -> int:
        """Append one cylinder band between two vertex rows of equal length
        and return its first triangle t0.

        Unglued refs afterwards: 3(t0 + 2i) + 2 = (a_{i+1} -> a_i) on the a
        side and 3(t0 + 2i + 1) = (b_i -> b_{i+1}) on the b side.
        """
        k = len(a_row)
        base = len(self.triangles)
        for i in range(k):
            j = (i + 1) % k
            self.add_triangle(a_row[i], b_row[i], a_row[j])  # t1_i = base + 2i
            self.add_triangle(b_row[i], b_row[j], a_row[j])  # t2_i = base + 2i + 1
        for i in range(k):
            t1 = 3 * (base + 2 * i)
            t2 = t1 + 3
            self._link(t1 + 1, t2 + 2)  # (b_i -> a_j) ~ (a_j -> b_i)
            self._link(t2 + 1, 3 * (base + 2 * ((i + 1) % k)))  # (b_j -> a_j) ~ (a_j -> b_j)
        return base

    def drop_triangles(self, indices: set[int]) -> None:
        """Remove triangles (they must not be glued to the kept part)."""
        keep = [t for t in range(len(self.triangles)) if t not in indices]
        # the new index of each ref: -2 for a dropped one, and -1 (the last
        # slot) stays -1
        new_ref = [-2] * (3 * len(self.triangles)) + [-1]
        for new, old in enumerate(keep):
            new_ref[3 * old : 3 * old + 3] = range(3 * new, 3 * new + 3)
        partners = [new_ref[self.partners[3 * t + e]] for t in keep for e in range(3)]
        if -2 in partners:
            raise SurfaceError("cannot drop triangles still glued to the rest")
        self.triangles = [self.triangles[t] for t in keep]
        self.partners = partners

    def components(self) -> list[int]:
        return _components(self.partners)

    def finish(self) -> tuple[TriSurface, list[int] | range]:
        """The canonical surface and ``new_ref``, the canonical flat index
        of each of the builder's flat refs (see ``_canonical_flat``)."""
        return _canonical_flat(self.triangles, self.partners)


# ---------------------------------------------------------------------------
# Embedded circles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmbeddedCircle:
    """Simple closed edge-cycle in the interior of the 1-skeleton.

    ``refs`` are directed edges, consecutively chained, on pairwise distinct
    vertices, each glued (interior), with every vertex interior.
    """

    surface: TriSurface
    refs: tuple[Ref, ...]

    def __post_init__(self):
        s = self.surface
        refs = self.refs
        if not refs:
            raise SurfaceError("empty circle")
        n = s.triangle_count
        for r in refs:
            if not (0 <= r[0] < n and 0 <= r[1] < 3):
                raise SurfaceError(
                    f"circle edge {r} is not a ref of this surface, "
                    f"whose triangles are 0..{n - 1} and edges 0..2"
                )
        verts = []
        for i, r in enumerate(refs):
            if s.partner(r) is None:
                raise CircleTouchesBoundary(f"circle edge {r} lies on the boundary")
            u, v = s.endpoints(r)
            verts.append(u)
            nu, _ = s.endpoints(refs[(i + 1) % len(refs)])
            if v != nu:
                raise SurfaceError(f"circle edges {i} and {(i + 1) % len(refs)} do not chain")
        if len(set(verts)) != len(verts):
            raise SurfaceError("circle revisits a vertex")
        for v in verts:
            if not s.vertex_is_interior(v):
                raise CircleTouchesBoundary(f"circle vertex {v} lies on the boundary")

    def __len__(self):
        return len(self.refs)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.surface.endpoints(r)[0] for r in self.refs)

    @classmethod
    def triangle_boundary(cls, s: TriSurface, t: int) -> "EmbeddedCircle":
        return cls(s, ((t, 0), (t, 1), (t, 2)))


def circles_vertex_disjoint(circles) -> bool:
    seen: set[int] = set()
    for c in circles:
        vs = set(c.vertices)
        if seen & vs:
            return False
        seen |= vs
    return True


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutRecord:
    """The two new boundary cycles after a cut, with their edge correspondence.

    ``left[i]`` and ``right[i]`` are the two copies of the i-th circle edge;
    re-gluing them pairwise restores the original surface exactly.
    """

    left: tuple[Ref, ...]
    right: tuple[Ref, ...]


@dataclass(frozen=True)
class BoundaryGluing:
    """Selects two boundary cycles (by index into boundary_cycles) and a
    cyclic offset for the orientation-reversing matching."""

    left: int
    right: int
    offset: int = 0


@dataclass(frozen=True)
class DoubledCircle:
    """A circle plus an inserted parallel collar.

    ``first`` is the original circle's position in the refined surface,
    ``second`` the parallel copy, ``collar_triangles`` the annulus between
    them; cutting along both circles always detaches that annulus.
    """

    surface: TriSurface
    first: EmbeddedCircle
    second: EmbeddedCircle
    collar_triangles: frozenset[int]


# ---------------------------------------------------------------------------
# Elementary constructions
# ---------------------------------------------------------------------------


def surface_from_data(vertex_count, triangles, gluing_pairs) -> TriSurface:
    """The canonical surface of raw triangles and glued pairs, read by the
    rules of the surface file format (see ``TriSurface.parse_json``): a
    broken rule raises InvalidSurface with the file's message before
    canonicalizing, and so does any invariant the canonical surface breaks."""
    data = {"vertices": vertex_count, "triangles": list(triangles), "gluing": list(gluing_pairs)}
    try:
        surf = TriSurface.from_json(data)
    except ValueError as exc:
        raise InvalidSurface(str(exc)) from None
    return surf.require_valid()


def closed_surface_from_triangles(triangles) -> TriSurface:
    """Glue every directed edge to its unique reverse (fixture helper)."""
    triangles = [tuple(t) for t in triangles]
    where: dict[tuple[int, int], list[int]] = {}  # flat indices of each directed edge
    for t, tri in enumerate(triangles):
        for e in range(3):
            u, v = tri[e], tri[(e + 1) % 3]
            where.setdefault((u, v), []).append(3 * t + e)
    partners = [-1] * (3 * len(triangles))
    for (u, v), refs in where.items():
        if len(refs) != 1:
            raise SurfaceError(f"directed edge ({u},{v}) appears {len(refs)} times")
        rev = where.get((v, u))
        if not rev or len(rev) != 1:
            raise SurfaceError(f"directed edge ({u},{v}) has no unique reverse")
        partners[refs[0]] = rev[0]
    surf, _ = _canonical_flat(triangles, partners)
    return surf.require_valid()


def octahedron() -> TriSurface:
    tris = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    return closed_surface_from_triangles(tris)


def seven_vertex_torus() -> TriSurface:
    tris = []
    for i in range(7):
        tris.append((i % 7, (i + 1) % 7, (i + 3) % 7))
        tris.append((i % 7, (i + 3) % 7, (i + 2) % 7))
    return closed_surface_from_triangles(tris)


def fan_disk(k: int = 3) -> TriSurface:
    """Disk triangulated as a fan with boundary cycle of length k (k >= 3)."""
    if k < 3:
        raise ValueError("fan disk needs boundary length >= 3")
    c = k
    tris = [(c, i, (i + 1) % k) for i in range(k)]
    partners = [-1] * (3 * k)
    for i in range(k):
        a = 3 * i + 2            # (i, 2) = ((i+1)%k -> c)
        b = 3 * ((i + 1) % k)    # ((i+1)%k, 0) = (c -> (i+1)%k)
        partners[a] = b
        partners[b] = a
    surf, _ = _canonical_flat(tris, partners)
    return surf.require_valid()


def annulus(k: int = 4) -> TriSurface:
    """Annulus with two boundary cycles of length k."""
    if k < 3:
        raise ValueError("annulus needs cycle length >= 3")
    b = _Builder()
    b.annulus_strip(list(range(k)), list(range(k, 2 * k)))
    surf, _ = b.finish()
    return surf.require_valid()


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def disjoint_union(a: TriSurface, b: TriSurface) -> TriSurface:
    bld = _Builder.from_surface(a)
    bld.add_surface(b)
    out, _ = bld.finish()
    return out


def mirror(s: TriSurface) -> TriSurface:
    """Orientation reversal: each triangle (a,b,c) becomes (a,c,b)."""
    b = _Builder()
    b.add_surface(s, mirrored=True)
    out, _ = b.finish()
    return out


def subdivide(s: TriSurface) -> TriSurface:
    """Global midpoint (1-to-4) subdivision; classify is unchanged."""
    partners = s.partners
    mid = [-1] * (len(partners) + 1)  # each ref's midpoint vertex; unglued refs write mid[-1]
    next_vertex = s.vertex_count
    for k, p in enumerate(partners):
        if mid[k] < 0:
            mid[k] = mid[p] = next_vertex
            next_vertex += 1
    tris: list = []
    out = [-1] * (4 * len(partners))
    for t, (va, vb, vc) in enumerate(s.triangles):
        m01, m12, m20 = mid[3 * t : 3 * t + 3]
        tris.append((va, m01, m20))   # 4t
        tris.append((vb, m12, m01))   # 4t+1
        tris.append((vc, m20, m12))   # 4t+2
        tris.append((m01, m12, m20))  # 4t+3
        for e in range(3):  # (4t+3, e) ~ (4t+(e+1)%3, 1)
            a, b = 12 * t + 9 + e, 12 * t + 3 * ((e + 1) % 3) + 1
            out[a], out[b] = b, a

    def halves(k: int) -> tuple[int, int]:
        """Ref k's half from its start, (4t+e, 0), and to its end, (4t+(e+1)%3, 2)."""
        t, e = divmod(k, 3)
        return 12 * t + 3 * e, 12 * t + 3 * ((e + 1) % 3) + 2

    for k, p in enumerate(partners):  # both refs of each pair
        if p >= 0:
            a1, a2 = halves(k)
            b1, b2 = halves(p)
            out[a1] = b2
            out[a2] = b1
    surf, _ = _canonical_flat(tris, out)
    return surf.require_valid()


def _cut_circle_raw(b: _Builder, refs: list[int]) -> tuple[list[int], list[int]]:
    """Unglue a circle and split its vertices; triangle indices stay valid.

    Once the circle is unglued, the corners at the start of refs[i] form two
    arcs: one holds refs[i], and the other begins at the old partner of
    refs[i-1].  That arc gets a fresh vertex id, for i = 0, 1, ... in turn."""
    partners = [b.unglue(k) for k in refs]
    tris = b.triangles
    for p in partners[-1:] + partners[:-1]:
        w = b.new_vertex()
        for k in _corners_around(b.partners, p):
            tris[k // 3][k % 3] = w
    return list(refs), partners


def cut(s: TriSurface, circle: EmbeddedCircle) -> tuple[TriSurface, CutRecord]:
    """Cut along a separating circle, producing two new boundary cycles.

    Raises NonSeparatingCut when the two copies stay in one component (use
    double_circle and cut along the resulting pair instead).
    """
    out, rec = cut_nonseparating_ok(s, circle)
    comp = out.component_of_triangle
    if comp[rec.left[0][0]] == comp[rec.right[0][0]]:
        raise NonSeparatingCut(
            "circle does not separate; cut along it together with a parallel "
            "copy from double_circle"
        )
    return out, rec


def cut_nonseparating_ok(s: TriSurface, circle: EmbeddedCircle) -> tuple[TriSurface, CutRecord]:
    """Cut without the separation requirement."""
    _check_circle_on(s, circle)
    b = _Builder.from_surface(s)
    left, right = _cut_circle_raw(b, _flat(circle.refs))
    out, new_ref = b.finish()
    return out.require_valid(), CutRecord(*(_pairs(new_ref[k] for k in refs) for refs in (left, right)))


def _check_circle_on(s: TriSurface, circle: EmbeddedCircle) -> None:
    if circle.surface is not s and circle.surface != s:
        raise SurfaceError("circle does not live on this surface")


def _order_cycle(triangles, refs: list[int]) -> list[int]:
    """Order the flat refs of triangles into a chained cycle from the least
    (next starts where previous ends)."""
    by_start = {}
    for k in refs:
        u = triangles[k // 3][k % 3]
        if u in by_start:
            raise SurfaceError("refs do not form a simple cycle")
        by_start[u] = k
    start = min(refs)
    out = [start]
    k = by_start[triangles[start // 3][_turn(start) % 3]]
    while k != start:
        out.append(k)
        k = by_start[triangles[k // 3][_turn(k) % 3]]
    if len(out) != len(refs):
        raise SurfaceError("refs split into several cycles")
    return out


def _glue_ref_pairs(b: _Builder, pairs) -> None:
    """Glue each (i, j) pair of flat refs and merge the vertices it joins.

    This relies on an invariant of the builder when it is called: the
    corners of each vertex id form one rotation orbit.  Linking the pairs
    then joins orbits just as identifying the pairs' endpoint ids would, so
    each joined orbit takes the least id among its corners."""
    corners = []  # where i and j start: every joined vertex has one of them
    for i, j in pairs:
        b._link(i, j)
        corners += (i, j)
    partners, tris = b.partners, b.triangles
    done: set[int] = set()
    for c in corners:
        if c in done:
            continue
        orbit = _corners_around(partners, c)
        done.update(orbit)
        least = min(tris[k // 3][k % 3] for k in orbit)
        for k in orbit:
            tris[k // 3][k % 3] = least


def _paste_cycles_raw(b: _Builder, left: list[int], right: list[int], offset: int) -> None:
    """Glue two equal-length boundary cycles, reversing orientation, with a
    cyclic offset; merges vertices as needed."""
    k = len(left)
    if k != len(right):
        raise LengthMismatch(
            f"cycle lengths {k} and {len(right)} differ; refine_boundary can fix this"
        )
    _glue_ref_pairs(b, [(left[i], right[(offset - i) % k]) for i in range(k)])


def paste(s: TriSurface, gluing: BoundaryGluing) -> TriSurface:
    """Glue two distinct boundary cycles of s along an orientation-reversing
    matching with the given cyclic offset."""
    cycles = s._boundary_walk
    if not (0 <= gluing.left < len(cycles) and 0 <= gluing.right < len(cycles)):
        raise SurfaceError(f"boundary cycle index out of range (have {len(cycles)})")
    if gluing.left == gluing.right:
        raise OrientationClash("cannot glue a boundary circle to itself and stay oriented")
    left = cycles[gluing.left]
    right = cycles[gluing.right]
    if len(left) != len(right):
        raise LengthMismatch(
            f"cycles have lengths {len(left)} and {len(right)}; use refine_boundary"
        )
    tris = s.triangles
    if {tris[k // 3][k % 3] for k in left} & {tris[k // 3][k % 3] for k in right}:
        raise SurfaceError("boundary cycles share vertices; refine before pasting")
    b = _Builder.from_surface(s)
    _paste_cycles_raw(b, left, right, gluing.offset)
    out, _ = b.finish()
    out.require_valid()
    if out.euler_characteristic() != s.euler_characteristic():
        raise SurfaceError("internal error: paste changed the Euler characteristic")
    return out


def paste_cut(s: TriSurface, record: CutRecord, offset: int = 0) -> TriSurface:
    """Re-glue the two cycles produced by cut.  Offset 0 uses the exact edge
    correspondence, restoring the pre-cut surface up to canonical relabeling.

    The record is checked against s first: every ref is a ref of s and
    unglued, the sides have equal length, no ref repeats, and each side is
    one chained cycle, the left in record order and the right against it,
    so that gluing them position by position matches the two circles.
    SurfaceError, or LengthMismatch for the lengths, names the first rule
    broken."""
    n = s.triangle_count
    for t, e in chain(record.left, record.right):
        if not (0 <= t < n and 0 <= e <= 2):
            raise SurfaceError(
                f"cut record ref {(t, e)} is not a ref of this surface, "
                f"whose triangles are 0..{n - 1} and edges 0..2"
            )
        if s.partners[3 * t + e] >= 0:
            raise SurfaceError(f"cut record ref {(t, e)} is glued, not on the boundary")
    left, right = _flat(record.left), _flat(record.right)
    if len(left) != len(right):
        raise LengthMismatch(f"cut record sides have lengths {len(left)} and {len(right)}")
    if len(set(left + right)) != 2 * len(left):
        raise SurfaceError("cut record repeats a ref")
    tris = s.triangles
    # left[i] ends where left[i+1] starts, and right[i+1] where right[i] starts
    steps = chain(zip(left, left[1:] + left[:1]), zip(right[1:] + right[:1], right))
    if not left or any(tris[i // 3][_turn(i) % 3] != tris[j // 3][j % 3] for i, j in steps):
        raise SurfaceError(
            "cut record sides are not one chained cycle each, "
            "the left in record order and the right against it"
        )
    b = _Builder.from_surface(s)
    if offset == 0:
        _glue_ref_pairs(b, list(zip(left, right)))
    else:
        _paste_cycles_raw(b, _order_cycle(tris, left), _order_cycle(tris, right), offset)
    out, _ = b.finish()
    return out.require_valid()


def _split_boundary_edge_raw(b: _Builder, k: int):
    """Split an unglued edge (and its triangle) in two.

    Returns (first piece, second piece, moved) where moved maps the two
    relocated sibling refs of the old triangle to their new refs.
    """
    if b.partners[k] >= 0:
        raise SurfaceError("can only split boundary edges")
    t, e = divmod(k, 3)
    tri = b.triangles[t]
    u, v, x = tri[e], tri[(e + 1) % 3], tri[(e + 2) % 3]
    e1 = 3 * t + (e + 1) % 3
    e2 = 3 * t + (e + 2) % 3
    # unglue the siblings; when they are glued to each other, the first
    # unglue frees both
    glued = [(r, b.unglue(r)) for r in (e1, e2) if b.partners[r] >= 0]
    w = b.new_vertex()
    b.triangles[t] = [u, w, x]
    t2 = b.add_triangle(w, v, x)
    b.glue_pair(3 * t + 1, 3 * t2 + 2)
    moved = {e1: 3 * t2 + 1, e2: 3 * t + 2}
    for r, p in glued:
        b.glue_pair(moved[r], moved.get(p, p))
    return 3 * t, 3 * t2, moved


def _refine_cycle_raw(b: _Builder, refs: list[int], target: int) -> list[int]:
    """Split the cycle's first edge until it has target edges.

    A split relocates the edge's two sibling refs.  A glued sibling is
    reglued at its new place; an unglued one meets the split edge at a
    corner where both are unglued, so it lies on this cycle, and only
    ``refs`` needs updating.
    """
    if target < len(refs):
        raise SurfaceError(f"cannot shrink a cycle from {len(refs)} to {target} edges")
    while len(refs) < target:
        first, second, moved = _split_boundary_edge_raw(b, refs[0])
        refs[:] = [first, second] + [moved.get(r, r) for r in refs[1:]]
    return refs


def refine_boundary(s: TriSurface, cycle_index: int, target_length: int) -> TriSurface:
    """Subdivide boundary edges until the selected cycle has target_length edges."""
    cycles = s._boundary_walk
    if not 0 <= cycle_index < len(cycles):
        raise SurfaceError(f"boundary cycle index out of range (have {len(cycles)})")
    b = _Builder.from_surface(s)
    _refine_cycle_raw(b, list(cycles[cycle_index]), target_length)
    out, _ = b.finish()
    return out.require_valid()


# -- collars and parallel circles ------------------------------------------------


def _insert_collar_raw(b: _Builder, refs: list[int]):
    """Cut along refs and splice in a two-band annulus.

    Returns (seam refs, core refs, collar triangle indices); the seam sits at
    the original circle's position, the core is the parallel copy.
    ``double_circle`` reads all three; ``square_from_circles`` reads only
    the collar, since ungluing its triangles' refs separates the pieces
    between the circles.
    """
    k = len(refs)
    left, right = _cut_circle_raw(b, refs)
    a_row = [b.new_vertex() for _ in range(k)]
    m_row = [b.new_vertex() for _ in range(k)]
    b_row = [b.new_vertex() for _ in range(k)]
    base1 = b.annulus_strip(a_row, m_row)
    base2 = b.annulus_strip(m_row, b_row)
    # the annulus between the seam and the core circle is band one only;
    # band two is a collar padding that stays with the far side
    collar = frozenset(range(base1, base2))
    a_refs = [3 * (base1 + 2 * i) + 2 for i in range(k)]  # (a_{i+1} -> a_i)
    core_b1 = [3 * (base1 + 2 * i + 1) for i in range(k)]  # (m_i -> m_{i+1})
    core_b2 = [3 * (base2 + 2 * i) + 2 for i in range(k)]  # (m_{i+1} -> m_i)
    b_refs = [3 * (base2 + 2 * i + 1) for i in range(k)]   # (b_i -> b_{i+1})
    for i, j in zip(core_b1, core_b2):
        b.glue_pair(i, j)
    left_cycle, right_cycle, a_cycle, b_cycle = (
        _order_cycle(b.triangles, refs) for refs in (left, right, a_refs, b_refs)
    )
    _paste_cycles_raw(b, left_cycle, a_cycle, 0)
    _paste_cycles_raw(b, right_cycle, b_cycle, 0)
    return left, core_b1, collar


def double_circle(s: TriSurface, circle: EmbeddedCircle) -> DoubledCircle:
    """Insert a parallel copy of the circle inside an annular collar.

    Cutting the refined surface along both returned circles detaches the
    collar annulus, so the pair is a separating system even when the
    original circle is not separating."""
    _check_circle_on(s, circle)
    b = _Builder.from_surface(s)
    seam, core, collar = _insert_collar_raw(b, _flat(circle.refs))
    out, new_ref = b.finish()
    out.require_valid()
    first, second = (
        EmbeddedCircle(out, _pairs(_order_cycle(out.triangles, [new_ref[k] for k in refs])))
        for refs in (seam, core)
    )
    collar_new = frozenset(new_ref[3 * t] // 3 for t in collar)
    return DoubledCircle(surface=out, first=first, second=second, collar_triangles=collar_new)


# -- cut-and-paste moves -----------------------------------------------------


def sk_system_move(s: TriSurface, circles, pairing=None, offsets=None) -> TriSurface:
    """One cut-and-paste operation along a system of disjoint circles.

    The system must two-color the cut surface (each circle sees its two
    copies in opposite color classes); the regluing pairs the color-0 copy
    of circle i with the color-1 copy of circle pairing[i].  The identity
    pairing with zero offsets restores the surface up to canonical
    relabeling.
    """
    circles = list(circles)
    if not circles:
        return s
    for c in circles:
        _check_circle_on(s, c)
    if not circles_vertex_disjoint(circles):
        raise SurfaceError("system circles must be pairwise vertex-disjoint")
    k = len(circles)
    pairing = tuple(pairing) if pairing is not None else tuple(range(k))
    if sorted(pairing) != list(range(k)):
        raise SurfaceError("pairing must be a permutation of the circles")
    offsets = list(offsets) if offsets is not None else [0] * k
    if len(offsets) != k:
        raise SurfaceError(f"got {len(offsets)} offsets for {k} circles")

    b = _Builder.from_surface(s)
    copies = [_cut_circle_raw(b, _flat(c.refs)) for c in circles]
    comp = b.components()

    color: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    edges = []
    for left, right in copies:
        ca, cb = comp[left[0] // 3], comp[right[0] // 3]
        edges.append((ca, cb))
        adj.setdefault(ca, []).append(cb)
        adj.setdefault(cb, []).append(ca)
    for root in sorted(adj):
        if root in color:
            continue
        color[root] = 0
        dq = deque([root])
        while dq:
            x = dq.popleft()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    dq.append(y)
                elif color[y] == color[x]:
                    raise NonSeparatingCut(
                        "circle system does not separate the surface; add "
                        "parallel copies via double_circle"
                    )

    side0: list[list[int]] = []
    side1: list[list[int]] = []
    for (left, right), (ca, cb) in zip(copies, edges):
        if color[ca] == 0:
            side0.append(left)
            side1.append(right)
        else:
            side0.append(right)
            side1.append(left)

    exact = [pairing[i] == i and offsets[i] == 0 for i in range(k)]
    # order the cycles that need generic pasting before any refinement
    cycles0 = {i: _order_cycle(b.triangles, side0[i]) for i in range(k) if not exact[i]}
    cycles1 = {j: _order_cycle(b.triangles, side1[j]) for j in range(k) if not exact[pairing.index(j)]}
    for i in range(k):
        if exact[i]:
            continue
        j = pairing[i]
        n = max(len(cycles0[i]), len(cycles1[j]))
        _refine_cycle_raw(b, cycles0[i], n)
        _refine_cycle_raw(b, cycles1[j], n)
    for i in range(k):
        if exact[i]:
            _glue_ref_pairs(b, list(zip(copies[i][0], copies[i][1])))
        else:
            _paste_cycles_raw(b, cycles0[i], cycles1[pairing[i]], offsets[i])

    out, _ = b.finish()
    out.require_valid()
    if out.euler_characteristic() != s.euler_characteristic():
        raise SurfaceError("internal error: move changed the Euler characteristic")
    return out


def sk_move(s: TriSurface, circle: EmbeddedCircle, offset: int = 0) -> TriSurface:
    """Cut along one separating circle and re-glue with a cyclic offset."""
    cut_surface, record = cut(s, circle)  # enforces the separating condition
    return paste_cut(cut_surface, record, offset)


# ---------------------------------------------------------------------------
# Standard generator library
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LibrarySurface:
    """A standard surface together with named circles for move searches.

    ``seams``: one separating circle per handle (cutting splits off a
    genus-1, one-boundary-circle piece).  ``nulls``: the boundaries of the
    first two sites that ``_disjoint_site_triangles`` finds with the seams'
    vertices blocked, so disk-bounding triangle circles, pairwise disjoint
    and disjoint from the seams.
    """

    surface: TriSurface
    seams: tuple[EmbeddedCircle, ...]
    nulls: tuple[EmbeddedCircle, ...]


def _disjoint_site_triangles(s: TriSurface, count: int, blocked=()) -> list[int]:
    """Up to count pairwise vertex-disjoint sites, greedily in triangle
    order; the list is short when sites are scarce.  A site has three
    distinct vertices, none in ``blocked`` and all interior, and every ref
    glued; a rejected triangle blocks nothing."""
    chosen: list[int] = []
    blocked = set(blocked)
    for t, tri in enumerate(s.triangles):
        if len(chosen) == count:
            break
        if len(set(tri)) != 3 or any(v in blocked for v in tri):
            continue
        if -1 in s.partners[3 * t : 3 * t + 3]:
            continue
        if not all(s.vertex_is_interior(v) for v in tri):
            continue
        chosen.append(t)
        blocked.update(tri)
    return chosen


def _cut_holes_raw(b: _Builder, sites) -> None:
    """Cut each site triangle out of the builder, leaving a hole."""
    for t in sites:
        _cut_circle_raw(b, [3 * t, 3 * t + 1, 3 * t + 2])
    b.drop_triangles(set(sites))


@lru_cache(maxsize=None)
def _handle_piece() -> TriSurface:
    """Genus one, one boundary circle of length 3."""
    torus = subdivide(paste(annulus(4), BoundaryGluing(0, 1, 0)))
    b = _Builder.from_surface(torus)
    _cut_holes_raw(b, _disjoint_site_triangles(torus, 1))
    out, _ = b.finish()
    if out.require_valid().classify() != DiffeoClass.connected(1, 1):
        raise SurfaceError(f"handle piece is {out.classify()}, not {{(1,1)}}")
    return out


# Largest genus + boundary that ``standard_library`` builds, each a hole cut
# in an octahedron subdivided until they fit.  Tests, acceptance and the
# benchmark stay at genus 12 or below; genus 5,000 builds 182,768 triangles
# in about 3 s with a 176 MB peak (Python 3.11, one core of a 2-core host).
MAX_STANDARD_SITES = 5_000


@lru_cache(maxsize=None)
def standard_library(genus: int, boundary: int) -> LibrarySurface:
    """Connected oriented surface of the given type, with named circles.
    Types above MAX_STANDARD_SITES are refused before any subdivision."""
    if genus < 0 or boundary < 0:
        raise ValueError("genus and boundary must be nonnegative")
    sites_needed = genus + boundary
    if sites_needed > MAX_STANDARD_SITES:
        raise ValueError(
            f"genus {genus} plus boundary {boundary} is {sites_needed}, "
            f"above the ceiling of {MAX_STANDARD_SITES}"
        )
    base = subdivide(octahedron())
    while len(sites := _disjoint_site_triangles(base, sites_needed + 2)) < sites_needed + 2:
        base = subdivide(base)
    b = _Builder.from_surface(base)
    _cut_holes_raw(b, sites[:sites_needed])
    cycles = _boundary_cycles(b.partners)
    if len(cycles) != sites_needed:
        raise SurfaceError(f"expected {sites_needed} holes, found {len(cycles)}")
    seam_refs = cycles[boundary:]
    piece = _handle_piece() if genus else None
    for hole in seam_refs:
        place = b.add_surface(piece)
        _paste_cycles_raw(b, hole, list(map(place, piece._boundary_walk[0])), 0)
    out, new_ref = b.finish()
    out.require_valid()
    seams = tuple(
        EmbeddedCircle(out, _pairs(_order_cycle(out.triangles, [new_ref[k] for k in refs])))
        for refs in seam_refs
    )
    seam_vertices = {v for c in seams for v in c.vertices}
    nulls = tuple(
        EmbeddedCircle.triangle_boundary(out, t)
        for t in _disjoint_site_triangles(out, 2, seam_vertices)
    )
    expected = DiffeoClass.connected(genus, boundary)
    if out.classify() != expected:
        raise SurfaceError(
            f"library construction produced {out.classify()} instead of {expected}"
        )
    return LibrarySurface(surface=out, seams=seams, nulls=nulls)


def build_standard(genus: int, boundary: int) -> TriSurface:
    """Standard connected surface of the given genus and boundary-circle count."""
    return standard_library(genus, boundary).surface


@lru_cache(maxsize=None)
def library_for_class(cls: DiffeoClass) -> tuple[TriSurface, tuple[LibrarySurface, ...]]:
    """Disjoint union of library components, circles remapped to the union."""
    entries = [standard_library(g, bb) for g, bb in cls.components]
    b = _Builder()
    places = [b.add_surface(ent.surface) for ent in entries]
    out, new_ref = b.finish()

    def remap_circle(place, circ: EmbeddedCircle) -> EmbeddedCircle:
        return EmbeddedCircle(out, _pairs(new_ref[place(k)] for k in _flat(circ.refs)))

    remapped = tuple(
        LibrarySurface(
            surface=out,
            seams=tuple(remap_circle(place, c) for c in ent.seams),
            nulls=tuple(remap_circle(place, c) for c in ent.nulls),
        )
        for place, ent in zip(places, entries)
    )
    return out, remapped


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


def double_surface(m: TriSurface) -> TriSurface:
    """Glue m to its orientation reversal along the whole boundary by the
    identity correspondence of boundary edges."""
    b = _Builder.from_surface(m)
    place = b.add_surface(m, mirrored=True)
    _glue_ref_pairs(b, [(k, place(k)) for k in _unglued(m.partners)])
    out, _ = b.finish()
    return out.require_valid()


def glue_to_mirror(n: TriSurface, m: TriSurface) -> TriSurface:
    """Glue n to the orientation reversal of m along a canonical matching of
    their boundary cycles (cycle lengths are equalized by refinement)."""
    if n.boundary_circle_count() != m.boundary_circle_count():
        raise SurfaceError("boundary circle counts differ; cannot glue")
    b = _Builder.from_surface(n)
    place = b.add_surface(m, mirrored=True)
    n_cycles = [list(cyc) for cyc in n._boundary_walk]
    m_cycles = [list(map(place, cyc)) for cyc in m._boundary_walk]
    for left, right in zip(n_cycles, m_cycles):
        target = max(len(left), len(right))
        _refine_cycle_raw(b, left, target)
        _refine_cycle_raw(b, right, target)
    for left, right in zip(n_cycles, m_cycles):
        lcyc = _order_cycle(b.triangles, left)
        rcyc = _order_cycle(b.triangles, right)
        _paste_cycles_raw(b, lcyc, rcyc, 0)
    out, _ = b.finish()
    return out.require_valid()


@dataclass(frozen=True)
class DoublingWitness:
    original: DiffeoClass
    other: DiffeoClass
    double: DiffeoClass
    glued: DiffeoClass
    difference_matches: bool

    @property
    def certified(self) -> bool:
        return self.difference_matches and self.double.is_closed and self.glued.is_closed

    def to_lines(self) -> list[str]:
        return [
            f"m={self.original.label()} n={self.other.label()}",
            f"double={self.double.label()} glued={self.glued.label()}",
            f"closed={'PASS' if self.double.is_closed and self.glued.is_closed else 'FAIL'}",
            f"difference={'PASS' if self.difference_matches else 'FAIL'}",
        ]


def _chi_b(plus: DiffeoClass, minus: DiffeoClass) -> tuple[int, int]:
    """The (chi, b) coordinates of [plus] - [minus] in the with-boundary
    group, which (chi, b) maps injectively at every caps (see
    ``decide_equivalent``)."""
    return plus.chi - minus.chi, plus.boundary_circles - minus.boundary_circles


def doubling_witness(m: TriSurface, n: TriSurface) -> DoublingWitness:
    """Constructive middle-kernel witness: builds the double DM and the
    cross-gluing L = N glued to reversed M, then certifies
    [M] - [N] = [DM] - [L] in (chi, b) coordinates.  No group is built, so
    no class ceiling applies."""
    if m.boundary_circle_count() != n.boundary_circle_count():
        raise SurfaceError(
            "boundaries are not diffeomorphic (circle counts differ)"
        )
    dm = double_surface(m)
    glued = glue_to_mirror(n, m)
    cls_m, cls_n = m.classify(), n.classify()
    cls_dm, cls_l = dm.classify(), glued.classify()
    return DoublingWitness(
        original=cls_m,
        other=cls_n,
        double=cls_dm,
        glued=cls_l,
        difference_matches=_chi_b(cls_m, cls_n) == _chi_b(cls_dm, cls_l),
    )


# ---------------------------------------------------------------------------
# Equivalence decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceDecision:
    equivalent: bool
    left: DiffeoClass
    right: DiffeoClass
    chi: tuple[int, int]
    boundary_circles: tuple[int, int]

    def to_lines(self) -> list[str]:
        return [
            f"left={self.left.label()} right={self.right.label()}",
            f"chi={self.chi[0]},{self.chi[1]} boundary={self.boundary_circles[0]},{self.boundary_circles[1]}",
            f"equivalent={'yes' if self.equivalent else 'no'}",
        ]


def decide_equivalent(m: TriSurface, n: TriSurface) -> EquivalenceDecision:
    """Cut-and-paste equivalence of two surfaces, decided by (chi, b).

    A collar square glues M to M' along k circles, which keeps chi and loses
    2k boundary circles, and adds k annuli (chi 0, b 2k); so (chi, b) adds up
    on it and on every disjoint-union square, and is a homomorphism out of
    the truncated with-boundary group at every caps.  Acceptance criterion 4
    and the tests' lattice oracle compute that it is injective there.  No
    group is built here, so no class ceiling applies."""
    cls_m, cls_n = m.classify(), n.classify()
    chi, circles = (cls_m.chi, cls_n.chi), (cls_m.boundary_circles, cls_n.boundary_circles)
    return EquivalenceDecision(
        equivalent=chi[0] == chi[1] and circles[0] == circles[1],
        left=cls_m, right=cls_n, chi=chi, boundary_circles=circles,
    )


# ---------------------------------------------------------------------------
# Move witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class CircleSpec:
    """Names a canonical circle on a library surface of a class."""

    component: int
    kind: str  # "seam" | "null"
    index: int


@dataclass(frozen=True)
class MoveStep:
    circles: tuple[CircleSpec, ...]
    pairing: tuple[int, ...]


@dataclass(frozen=True)
class MoveWitness:
    start: DiffeoClass
    steps: tuple[MoveStep, ...]
    end: DiffeoClass


class SearchExhausted(SurfaceError):
    """The bounded witness search ran out of budget; says nothing about
    inequivalence."""


def _resolve_circles(cls: DiffeoClass):
    surf, entries = library_for_class(cls)
    mapping = {}
    for comp, ent in enumerate(entries):
        for i, c in enumerate(ent.seams):
            mapping[CircleSpec(comp, "seam", i)] = c
        for i, c in enumerate(ent.nulls):
            mapping[CircleSpec(comp, "null", i)] = c
    return surf, mapping


def apply_move(cls: DiffeoClass, step: MoveStep) -> DiffeoClass:
    """Apply a named cut-and-paste move to (the library surface of) a class."""
    surf, mapping = _resolve_circles(cls)
    circles = [mapping[spec] for spec in step.circles]
    moved = sk_system_move(surf, circles, pairing=step.pairing)
    return moved.classify()


def replay_witness(w: MoveWitness) -> DiffeoClass:
    cls = w.start
    for step in w.steps:
        cls = apply_move(cls, step)
    return cls


def _candidate_moves(cls: DiffeoClass) -> list[MoveStep]:
    _, mapping = _resolve_circles(cls)
    specs = sorted(mapping)
    moves = []
    for a, b in combinations(specs, 2):
        moves.append(MoveStep(circles=(a, b), pairing=(1, 0)))
    return moves


def find_witness(m: TriSurface, n: TriSurface, budget: int) -> MoveWitness:
    """Bounded breadth-first search for a cut-and-paste move sequence taking
    the class of m to the class of n.  Raises SearchExhausted when the
    budget runs out; the witness, when found, replays deterministically.
    A negative budget is refused with ValueError before anything else."""
    if budget < 0:
        raise ValueError(f"witness budget must be at least 0, got {budget}")
    start = m.classify()
    target = n.classify()
    if start == target:
        return MoveWitness(start=start, steps=(), end=target)
    comp_bound = max(start.component_count, target.component_count) + budget
    parents: dict[DiffeoClass, tuple[DiffeoClass, MoveStep] | None] = {start: None}
    frontier = [start]
    depth = 0
    while frontier and depth < budget:
        depth += 1
        next_frontier = []
        for cls in frontier:
            for step in _candidate_moves(cls):
                try:
                    out = apply_move(cls, step)
                except NonSeparatingCut:
                    continue
                if out in parents or out.component_count > comp_bound:
                    continue
                parents[out] = (cls, step)
                if out == target:
                    steps = []
                    cur = out
                    while parents[cur] is not None:
                        prev, st = parents[cur]
                        steps.append(st)
                        cur = prev
                    return MoveWitness(
                        start=start, steps=tuple(reversed(steps)), end=target
                    )
                next_frontier.append(out)
        frontier = next_frontier
    raise SearchExhausted(
        f"no witness within {budget} moves (this does not prove inequivalence)"
    )


# ---------------------------------------------------------------------------
# Cylinder regluing collapse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderRegluingReport:
    circle_count: int
    first_pairing: tuple[int, ...]
    second_pairing: tuple[int, ...]
    first_class: DiffeoClass
    second_class: DiffeoClass
    coordinates_equal: bool

    @property
    def certified(self) -> bool:
        return self.first_class == self.second_class and self.coordinates_equal

    def to_lines(self) -> list[str]:
        return [
            f"circles={self.circle_count}",
            f"first_pairing={list(self.first_pairing)} class={self.first_class.label()}",
            f"second_pairing={list(self.second_pairing)} class={self.second_class.label()}",
            f"collapse={'PASS' if self.certified else 'FAIL'}",
        ]


def _glue_cylinder_stacks(k: int, pairing, offsets=None) -> TriSurface:
    """Concrete gluing of k annuli onto k annuli: annulus i's far cycle is
    glued to annulus (k + pairing[i])'s near cycle."""
    offsets = list(offsets) if offsets is not None else [0] * k
    b = _Builder()
    cycles_near = []
    cycles_far = []
    length = 3
    for _ in range(2 * k):
        a_row = [b.new_vertex() for _ in range(length)]
        b_row = [b.new_vertex() for _ in range(length)]
        base = b.annulus_strip(a_row, b_row)
        cycles_near.append([3 * (base + 2 * i) + 2 for i in range(length)])
        cycles_far.append([3 * (base + 2 * i + 1) for i in range(length)])
    for i in range(k):
        left = _order_cycle(b.triangles, cycles_far[i])
        right = _order_cycle(b.triangles, cycles_near[k + pairing[i]])
        _paste_cycles_raw(b, left, right, offsets[i])
    out, _ = b.finish()
    return out.require_valid()


def skk_collapse_check(
    circle_count: int,
    first_pairing,
    second_pairing,
    first_offsets=None,
    second_offsets=None,
) -> CylinderRegluingReport:
    """Certify that regluing cylinder stacks by two different pairings gives
    the same class, with equal (chi, b) coordinates, so the
    controlled-regluing difference terms vanish and the refined relation
    collapses onto the plain cut-and-paste relation.  No group is built, so
    no class ceiling applies."""
    k = int(circle_count)
    if k < 1:
        raise ValueError("need at least one circle")
    first = tuple(first_pairing)
    second = tuple(second_pairing)
    for p in (first, second):
        if len(p) != k or sorted(p) != list(range(k)):
            raise ValueError("pairing must be a permutation of the circles")
    for offsets in (first_offsets, second_offsets):
        if offsets is not None and len(offsets) != k:
            raise ValueError(f"got {len(offsets)} offsets for {k} circles")
    s1 = _glue_cylinder_stacks(k, first, first_offsets)
    s2 = _glue_cylinder_stacks(k, second, second_offsets)
    c1, c2 = s1.classify(), s2.classify()
    return CylinderRegluingReport(
        circle_count=k,
        first_pairing=first,
        second_pairing=second,
        first_class=c1,
        second_class=c2,
        coordinates_equal=_chi_b(c1, c2) == (0, 0),
    )
