"""Reference canonicalization for the tests.

``canonical_form`` is the plain form of ``surface._canonical_form``: it
orders the breadth-first starts with a ``(tuple, index)`` key, maps every
glued ref through ``RefMap.ref``, picks each triangle's rotation as the
least of its three rotated copies, and sorts the set of glued pairs.  The
package's version reaches the same surface and the same ``RefMap`` in flat
passes over lists.
"""

from collections import deque

from cutpaste.surface import RefMap, TriSurface


def canonical_form(triangles, glue) -> tuple[TriSurface, RefMap]:
    n_tri = len(triangles)
    visited = [False] * n_tri
    order: list[int] = []
    by_key = sorted(range(n_tri), key=lambda t: (tuple(triangles[t]), t))
    for start in by_key:
        if visited[start]:
            continue
        visited[start] = True
        dq = deque([start])
        while dq:
            t = dq.popleft()
            order.append(t)
            for e in range(3):
                p = glue.get((t, e))
                if p is not None and not visited[p[0]]:
                    visited[p[0]] = True
                    dq.append(p[0])
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
    refmap = RefMap(tri_map, rots, vmap)
    pairs = set()
    for r1, r2 in glue.items():
        a, b = refmap.ref(r1), refmap.ref(r2)
        pairs.add((a, b) if a <= b else (b, a))
    surf = TriSurface(
        vertex_count=len(vmap),
        triangles=tuple(new_tris),
        gluing=tuple(sorted(pairs)),
    )
    return surf, refmap
