"""Reference canonicalization for the tests.

``canonical_form`` is the plain form of ``surface._canonical_flat``: it
orders the breadth-first starts with a ``(tuple, index)`` key, has a start
visit its edges 0, 1, 2 and a triangle entered across edge e visit all
three edges from e+1 on (the package skips edge e, which leads back to a
triangle already numbered), maps every glued ref (t, e) to (its new
triangle, e minus its rotation), picks each triangle's rotation as the
least of its three rotated copies, and sorts the set of glued pairs.  It
returns that ref map in the package's flat form, the canonical flat index
of each input flat ref.  The package's version reaches the same surface and
the same map in flat passes over lists.

``components``, ``boundary_cycles``, ``diffeo_class`` and ``validate`` are
the walks over a ``dict[Ref, Ref]`` gluing that ``TriSurface`` ran before it
stored its gluing as a flat partner list: every lookup is a dict lookup
keyed by a ref tuple.  ``from_fields`` builds a ``TriSurface`` directly
from a vertex count, triangles and such a dict, and ``partner_dict`` reads
one off a surface, through ``glued_pairs``, its glued pairs as ref tuples.
``package_canonical_form`` feeds such a dict to the package's
``_canonical_flat``, and ``identity_map`` is the map that returns on a
surface already in canonical form, as a list.
"""

from collections import deque

from cutpaste.surface import DiffeoClass, InvalidSurface, TriSurface, _canonical_flat


def flat_partners(n_tri: int, glue: dict) -> list[int]:
    """The flat partner list of n_tri triangles glued by a ref dict."""
    partners = [-1] * (3 * n_tri)
    for (t, e), (u, f) in glue.items():
        partners[3 * t + e] = 3 * u + f
    return partners


def package_canonical_form(triangles, glue) -> tuple[TriSurface, list[int]]:
    """The package's ``_canonical_flat`` of a ref-dict gluing, with its
    map as a list."""
    surf, new_ref = _canonical_flat(triangles, flat_partners(len(triangles), glue))
    return surf, list(new_ref)


def identity_map(s: TriSurface) -> list[int]:
    """The flat ref map of a file that is already in canonical form."""
    return list(range(3 * len(s.triangles)))


def from_fields(vertex_count: int, triangles, glue: dict) -> TriSurface:
    """The surface with these fields, unchecked; each component starts at
    its first triangle."""
    partners = flat_partners(len(triangles), glue)
    comp = components(len(triangles), glue)
    starts = tuple(comp.index(c) for c in range(max(comp, default=-1) + 1))
    return TriSurface(vertex_count, tuple(tuple(t) for t in triangles), tuple(partners), starts)


def glued_pairs(s: TriSurface) -> list:
    """Each glued pair of s once, from its lesser ref, in increasing order:
    the pairs that ``to_json`` writes, as ref tuples."""
    return [(divmod(k, 3), divmod(p, 3)) for k, p in enumerate(s.partners) if k <= p]


def partner_dict(s: TriSurface) -> dict:
    out = {}
    for r1, r2 in glued_pairs(s):
        out[r1] = r2
        out[r2] = r1
    return out


def components(n: int, glue: dict) -> list[int]:
    """Component index of each of n triangles, numbered in order of first triangle."""
    comp = [-1] * n
    cur = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = cur
        dq = deque([start])
        while dq:
            t = dq.popleft()
            for e in range(3):
                p = glue.get((t, e))
                if p is not None and comp[p[0]] == -1:
                    comp[p[0]] = cur
                    dq.append(p[0])
        cur += 1
    return comp


def boundary_cycles(n: int, glue: dict) -> tuple:
    """The unglued edges of n triangles as directed cycles, each from its
    least ref, in increasing order."""
    seen = set()
    cycles = []
    for start in ((t, e) for t in range(n) for e in range(3)):
        if start in glue or start in seen:
            continue
        cyc = [start]
        while True:
            t, e = cyc[-1]
            corner = (t, (e + 1) % 3)
            while corner in glue:
                p = glue[corner]
                corner = (p[0], (p[1] + 1) % 3)
            if corner == start:
                break
            cyc.append(corner)
        seen.update(cyc)
        cycles.append(tuple(cyc))
    return tuple(cycles)


def diffeo_class(s: TriSurface) -> DiffeoClass:
    glue = partner_dict(s)
    comp = components(len(s.triangles), glue)
    ncomp = max(comp, default=-1) + 1
    verts = [set() for _ in range(ncomp)]
    faces = [0] * ncomp
    for t, tri in enumerate(s.triangles):
        faces[comp[t]] += 1
        verts[comp[t]].update(tri)
    edges = [3 * f for f in faces]
    for (t, _), _ in glued_pairs(s):
        edges[comp[t]] -= 1
    bnd = [0] * ncomp
    for cyc in boundary_cycles(len(s.triangles), glue):
        bnd[comp[cyc[0][0]]] += 1
    pairs = []
    for c in range(ncomp):
        chi = len(verts[c]) - edges[c] + faces[c]
        g2 = 2 - chi - bnd[c]
        if g2 < 0 or g2 % 2:
            raise InvalidSurface(
                f"component {c} has chi={chi}, boundary={bnd[c]}; not an oriented surface"
            )
        pairs.append((g2 // 2, bnd[c]))
    return DiffeoClass.from_pairs(pairs)


def validate(s: TriSurface) -> str | None:
    """The first violated invariant of s, or None."""
    n_tri = len(s.triangles)
    used = set()
    for t, tri in enumerate(s.triangles):
        if len(tri) != 3:
            return f"triangle {t} does not have three vertices"
        for v in tri:
            if not (0 <= v < s.vertex_count):
                return f"triangle {t} references vertex {v} outside 0..{s.vertex_count - 1}"
            used.add(v)
    if len(used) != s.vertex_count:
        return "vertex ids are not exactly 0..vertex_count-1 (isolated or missing ids)"
    seen = set()
    for r1, r2 in glued_pairs(s):
        for t, e in (r1, r2):
            if not (0 <= t < n_tri and 0 <= e < 3):
                return f"gluing references invalid edge ({t},{e})"
        if r1 == r2:
            return f"edge {r1} glued to itself"
        if r1 in seen or r2 in seen:
            return f"edge glued more than once near {r1}"
        seen.add(r1)
        seen.add(r2)
        u, v = s.endpoints(r1)
        x, y = s.endpoints(r2)
        if (u, v) != (y, x):
            return (
                f"glued pair {r1}~{r2} is not orientation-reversing: "
                f"({u},{v}) vs ({x},{y})"
            )
    glue = partner_dict(s)
    comp = components(n_tri, glue)
    for t in range(1, n_tri):
        if comp[t] < comp[t - 1]:
            return f"triangle {t} belongs to component {comp[t]}, whose triangles are not consecutive"
    starts = [comp.index(c) for c in range(max(comp, default=-1) + 1)]
    given = list(s.component_starts)
    if len(given) != len(starts):
        return f"component_starts has {len(given)} entries, not one per component ({len(starts)})"
    for c, (a, b) in enumerate(zip(given, starts)):
        if a != b:
            return f"component {c} starts at triangle {b}, not at {a}"
    corners_at = {}
    for t, tri in enumerate(s.triangles):
        for i in range(3):
            corners_at.setdefault(tri[i], []).append((t, i))
    for v, corners in corners_at.items():
        cset = set(corners)
        nxt = {}
        preds = set()
        for t, i in corners:
            c2 = glue.get((t, (i + 2) % 3))
            if c2 is not None:
                if c2 not in cset:
                    return f"link of vertex {v} jumps to a corner of another vertex"
                if c2 in preds:
                    return f"link of vertex {v} branches"
                nxt[(t, i)] = c2
                preds.add(c2)
        starts = [c for c in corners if c not in preds]
        if not starts:
            walk = corners[0]
            count = 0
            cur = walk
            while True:
                cur = nxt.get(cur)
                count += 1
                if cur is None:
                    return f"link of vertex {v} has a dead end inside a cycle"
                if cur == walk:
                    break
            if count != len(corners):
                return f"link of vertex {v} is not a single cycle"
        else:
            if len(starts) != 1:
                return f"link of vertex {v} splits into {len(starts)} arcs"
            cur = starts[0]
            count = 1
            while cur in nxt:
                cur = nxt[cur]
                count += 1
            if count != len(corners):
                return f"link of vertex {v} is not a single path"
    return None


def canonical_form(triangles, glue) -> tuple[TriSurface, list[int]]:
    n_tri = len(triangles)
    visited = [False] * n_tri
    order: list[int] = []
    by_key = sorted(range(n_tri), key=lambda t: (tuple(triangles[t]), t))
    for start in by_key:
        if visited[start]:
            continue
        visited[start] = True
        dq = deque([(start, 0)])
        while dq:
            t, first = dq.popleft()
            order.append(t)
            for e in range(first, first + 3):
                p = glue.get((t, e % 3))
                if p is not None and not visited[p[0]]:
                    visited[p[0]] = True
                    dq.append((p[0], (p[1] + 1) % 3))
    tri_map = {old: new for new, old in enumerate(order)}
    vmap: dict[int, int] = {}
    for old in order:
        for v in triangles[old]:
            if v not in vmap:
                vmap[v] = len(vmap)
    new_tris = []
    rots: dict[int, int] = {}
    for old in order:
        tri = [vmap[v] for v in triangles[old]]
        rot = min(range(3), key=lambda r: tri[r:] + tri[:r])
        rots[old] = rot
        new_tris.append(tuple(tri[rot:] + tri[:rot]))

    def ref(r):
        return tri_map[r[0]], (r[1] - rots[r[0]]) % 3

    new_glue = {ref(r1): ref(r2) for r1, r2 in glue.items()}
    new_ref = [3 * t + e for t, e in (ref((old, e)) for old in range(n_tri) for e in range(3))]
    return from_fields(len(vmap), new_tris, new_glue), new_ref
