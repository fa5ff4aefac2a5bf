"""Reference piece rule of a gluing square for the tests.

``square_from_circles`` is the plain form of
``euler_functor.square_from_circles``: after splicing a collar in along
each circle it copies the refined surface into a second builder, unglues
every seam and core ref (translated to the refined surface's refs through
the flat map ``finish`` returns), and takes the components.  A component
that holds a collar triangle must lie inside the collars; the others are
the pieces between the circles, dealt to B and C alternately in order of
their least triangle, and both B and C keep every collar.
"""

from itertools import chain

from cutpaste.euler_functor import SquareInstance
from cutpaste.surface import SurfaceError, _Builder, _insert_collar_raw


def square_from_circles(s, circles) -> SquareInstance:
    b = _Builder.from_surface(s)
    raw = [_insert_collar_raw(b, [3 * t + e for t, e in c.refs]) for c in circles]
    refined, new_ref = b.finish()
    refined.require_valid()
    collar = {new_ref[3 * t] // 3 for _, _, coll in raw for t in coll}
    b2 = _Builder.from_surface(refined)
    for seam, core, _ in raw:
        for k in chain(seam, core):
            b2.unglue(new_ref[k])
    pieces: dict[int, set[int]] = {}
    for t, c in enumerate(b2.components()):
        pieces.setdefault(c, set()).add(t)
    outer = []
    for p in pieces.values():
        overlap = p & collar
        if overlap and overlap != p:
            raise SurfaceError("piece straddles a collar")
        if not overlap:
            outer.append(p)
    outer.sort(key=min)
    b_tris, c_tris = set(collar), set(collar)
    for i, piece in enumerate(outer):
        (b_tris if i % 2 == 0 else c_tris).update(piece)
    return SquareInstance(surface=refined, b_triangles=frozenset(b_tris), c_triangles=frozenset(c_tris))
