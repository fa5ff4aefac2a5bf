"""Seeded request streams for the three workloads, and the oracles that
check each response.

A stream is a list of cycles; a cycle is a list of ``(request, expect)``
pairs.  Every cycle holds the same mix of request kinds and sizes, and the
seed picks the classes, circles, pairings, offsets and order inside it, so
a run that completes whole cycles does the same amount of work whatever
the seed.  Requests and the surface pool are plain JSON and are all the
worker receives; ``expect`` stays with the runner (run.py).

The oracles do not call the code path a request times: expected classes,
Euler characteristics, boundary counts and homology come from the
generator's own parameters, and the moved surfaces are re-counted from
their raw JSON here.  The two exceptions are the ones the checks are
about: a move witness is replayed with ``replay_witness``, and the
exact-sequence and square reports are checked through their own
``passed`` verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import cutpaste as cp
from cutpaste import sk_groups
from cutpaste.surface import NonSeparatingCut, library_for_class

# Cycle makeup.  caps_k0: genus 3-4, boundary 2-3, three components, where
# K0 is already free of rank two.  (4,3,3) is left out: one cold request
# takes 10-12 s there, which would leave too few requests in a run.  The
# three exact-sequence requests are the middle of each cycle's latencies,
# so the median and the tail both fall inside that group for any run of
# three or more cycles, instead of in a gap between two request kinds.
CAPS_CYCLE = (
    ("k0", (3, 2, 3)),
    ("k0", (3, 2, 3)),
    ("exact", (3, 2, 3)),
    ("exact", (3, 2, 3)),
    ("exact", (3, 2, 3)),
    ("k0", (4, 2, 3)),
    ("k0", (3, 3, 3)),
)

SESSION_CONNECTED = tuple((g, b) for g in range(4) for b in range(4))
# two-component classes; most share (chi, b) with a connected class above
SESSION_PAIRS = (
    ((1, 0), (1, 0)),
    ((0, 0), (2, 0)),
    ((1, 1), (1, 1)),
    ((0, 1), (1, 0)),
    ((0, 2), (2, 1)),
    ((1, 2), (3, 0)),
    ((2, 3), (0, 1)),
    ((1, 3), (3, 1)),
)
# subdivided twice: about 1900-3500 triangles each, in two pairs that
# share (chi, b).  One decide per cycle compares two of them; it is the
# heaviest request of a cycle, so the tail of a run falls among these.
SESSION_LEVEL2 = (((3, 2),), ((1, 2), (3, 0)), ((1, 3),), ((0, 2), (2, 1)))
# (level of m, level of n, same (chi, b)?); "alt" alternates between cycles
SESSION_DECIDE_SLOTS = (
    (2, 2, "alt"),
    (1, 1, True),
    (0, 1, False),
    (0, 0, True),
    (1, 0, False),
    (0, 0, "not-alt"),
)

# Gluing squares: one per genus in every cycle, since their time grows with
# the genus; (boundary, circle count) rotates within each genus.  A run
# that ends part way through a rotation still holds every genus equally.
SQUARE_GENERA = range(6)
SQUARE_SHAPES = tuple((b, k) for b in range(5) for k in (1, 2))
HOMOLOGY_SMALL = tuple((g, b) for g in range(2) for b in range(5))
# The large homology request is one fixed surface (genus 5, boundary 4,
# subdivided once: 1096 triangles), twice per cycle.  It is the heaviest
# request, so the tail of a run of six or more cycles is one of these and
# the peak memory is the same in every run.
HOMOLOGY_LARGE = (5, 4)


def cls_of(pairs) -> cp.DiffeoClass:
    return cp.DiffeoClass.from_pairs(pairs)


def chi_b(pairs) -> tuple[int, int]:
    return sum(2 - 2 * g - b for g, b in pairs), sum(b for _, b in pairs)


class Pool:
    """Surfaces sent to the worker once, referenced by index in requests."""

    def __init__(self):
        self.surfaces: list[dict] = []
        self.index: dict[tuple, int] = {}
        self.pairs: dict[int, tuple] = {}

    def add(self, pairs, level: int = 0) -> int:
        pairs = tuple(sorted(pairs))
        key = (pairs, level)
        if key not in self.index:
            s = library_surface(pairs)
            for _ in range(level):
                s = cp.subdivide(s)
            self.index[key] = len(self.surfaces)
            self.pairs[len(self.surfaces)] = pairs
            self.surfaces.append(s.to_json())
        return self.index[key]


def library_surface(pairs) -> cp.TriSurface:
    surf, _ = library_for_class(cls_of(pairs))
    # circle refs are sent as refs, so parsing must not relabel the surface
    if cp.TriSurface.from_json(surf.to_json()) != surf:
        raise RuntimeError(f"library surface of {pairs} is not canonical")
    return surf


def library_circles(pairs) -> list[tuple]:
    """(spec, refs) for every named circle of the class's library surface."""
    _, entries = library_for_class(cls_of(pairs))
    out = []
    for comp, ent in enumerate(entries):
        for kind, circles in (("seam", ent.seams), ("null", ent.nulls)):
            for i, c in enumerate(circles):
                out.append(((comp, kind, i), [list(r) for r in c.refs]))
    return out


def homology_of(pairs) -> list:
    """Homology of a connected oriented surface, as HomologyType.groups."""
    (g, b), = pairs
    h1 = 2 * g + b - 1 if b else 2 * g
    return [[1, []], [h1, []], [0 if b else 1, []]]


@dataclass
class Stream:
    name: str
    fresh_worker: bool  # one worker process per request
    pool: Pool
    cycles: list
    # Cycles in the traced batch per second of --seconds: a fixed factor,
    # not a measurement, so the batch depends only on the seed and seconds.
    trace_cycles_per_s: float
    min_cycles: int = 1  # a timed run holds at least this many cycles
    # a session worker probes the host's speed after every this many
    # requests: about every 0.3-1 s of request time
    probe_every: int = 1


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def caps_k0(seed: int, cycles: int) -> Stream:
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        cyc = [({"op": op, "caps": list(caps)}, {"caps": caps}) for op, caps in CAPS_CYCLE]
        rng.shuffle(cyc)
        out.append(cyc)
    return Stream("caps_k0", True, Pool(), out, trace_cycles_per_s=1 / 30, min_cycles=3)


def rotation(rng, items):
    """Endless sequence that uses every item once per round, each round in
    a fresh seeded order, so every run draws its mix evenly."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from list(items)


def one_move_target(rng, pairs) -> tuple:
    """Class reached from pairs by one seeded two-circle move (generation
    only: the worker never sees this result)."""
    specs = [sk_groups.CircleSpec(*spec) for spec, _ in library_circles(pairs)]
    steps = [(a, b) for i, a in enumerate(specs) for b in specs[i + 1:]]
    rng.shuffle(steps)
    for circles in steps:
        try:
            end = sk_groups.apply_move(cls_of(pairs), sk_groups.MoveStep(circles=circles, pairing=(1, 0)))
        except NonSeparatingCut:
            continue
        return end.components
    raise RuntimeError(f"no move applies to {pairs}")


def surface_session(seed: int, cycles: int) -> Stream:
    rng = random.Random(seed)
    pool = Pool()
    classes = [((g, b),) for g, b in SESSION_CONNECTED] + list(SESSION_PAIRS)
    by_level = {0: [], 1: [], 2: []}
    for pairs in classes:
        for level in (0, 1):
            by_level[level].append(pool.add(pairs, level))
    for pairs in SESSION_LEVEL2:
        by_level[2].append(pool.add(pairs, 2))
    by_chib: dict[tuple, list] = {}
    for pairs in classes:
        by_chib.setdefault(chi_b(pairs), []).append(pairs)
    # witness pairs: one seeded one-move target per class (found within any
    # budget), and every equal-(chi, b) pair of distinct classes at budget
    # one, where the search runs out (a valid outcome)
    witnesses = [(p, one_move_target(rng, p), True) for p in classes]
    witnesses += [(p, q, False) for p in classes for q in by_chib[chi_b(p)] if q != p]

    lefts = {level: rotation(rng, entries) for level, entries in by_level.items()}
    cut_classes = rotation(rng, [((g, b),) for g, b in SESSION_CONNECTED])
    move_classes = rotation(rng, classes)
    doublings = rotation(rng, [(gm, gn, b) for gm in range(3) for gn in range(3) for b in (1, 2)])
    witness_pairs = rotation(rng, witnesses)

    # right-hand surfaces rotate per (left, level, same) too, so a run holds
    # every pairing, the heaviest included, in the same proportion
    partners = {}

    def decide(lm, ln, same):
        m = next(lefts[lm])
        if (m, ln, same) not in partners:
            key = chi_b(pool.pairs[m])
            cands = [n for n in by_level[ln] if (chi_b(pool.pairs[n]) == key) == same and n != m]
            partners[m, ln, same] = rotation(rng, cands or [m])
        n = next(partners[m, ln, same])
        req = {"op": "decide", "m": m, "n": n}
        return req, {"same": same, "left": pool.pairs[m], "right": pool.pairs[n]}

    def cutpaste():
        pairs = next(cut_classes)
        _, refs = rng.choice(library_circles(pairs))
        req = {"op": "cutpaste", "s": pool.add(pairs), "circle": refs, "offset": rng.randrange(len(refs))}
        return req, {"chi_b": chi_b(pairs)}

    def move():
        pairs = next(move_classes)
        picked = rng.sample(library_circles(pairs), 2)
        req = {"op": "move", "s": pool.add(pairs), "circles": [refs for _, refs in picked], "pairing": [1, 0]}
        return req, {"chi_b": chi_b(pairs)}

    def doubling():
        gm, gn, b = next(doublings)
        m, n = ((gm, b),), ((gn, b),)
        req = {"op": "doubling", "m": pool.add(m), "n": pool.add(n)}
        return req, {"m": m, "n": n}

    def witness():
        start, target, known = next(witness_pairs)
        budget = rng.randrange(1, 4) if known else 1
        req = {"op": "witness", "m": pool.add(start), "n": pool.add(target), "budget": budget}
        return req, {"start": start, "target": target, "reachable": known}

    out = []
    for i in range(cycles):
        alt = i % 2 == 0
        cyc = []
        for lm, ln, same in SESSION_DECIDE_SLOTS:
            same = alt if same == "alt" else (not alt if same == "not-alt" else same)
            cyc.append(decide(lm, ln, same))
        cyc += [cutpaste(), cutpaste(), move(), move(), doubling(), witness()]
        rng.shuffle(cyc)
        out.append(cyc)
    return Stream("surface_session", False, pool, out, trace_cycles_per_s=3.0, probe_every=24)


def chain_squares(seed: int, cycles: int) -> Stream:
    rng = random.Random(seed)
    pool = Pool()
    shapes = {g: rotation(rng, SQUARE_SHAPES) for g in SQUARE_GENERA}
    small = rotation(rng, HOMOLOGY_SMALL)
    out = []
    for _ in range(cycles):
        cyc = []
        for g in SQUARE_GENERA:
            b, k = next(shapes[g])
            pairs = ((g, b),)
            picked = rng.sample(library_circles(pairs), k)
            req = {"op": "square", "s": pool.add(pairs), "circles": [refs for _, refs in picked]}
            cyc.append((req, {"pairs": pairs}))
        for pairs in ((next(small),), (HOMOLOGY_LARGE,), (HOMOLOGY_LARGE,)):
            cyc.append(({"op": "homology", "s": pool.add(pairs, 1)}, {"pairs": pairs}))
        rng.shuffle(cyc)
        out.append(cyc)
    return Stream("chain_squares", False, pool, out, trace_cycles_per_s=0.2, probe_every=3)


# name -> (generator, cycles generated in advance: more than a run can use)
GENERATORS = {
    "caps_k0": (caps_k0, 60),
    "surface_session": (surface_session, 800),
    "chain_squares": (chain_squares, 300),
}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def surface_chi_b(js: dict) -> tuple[int, int]:
    """Euler characteristic and boundary-circle count from raw surface JSON."""
    tris = js["triangles"]
    glued = {tuple(r) for pair in js["gluing"] for r in pair}
    verts = {v for t in tris for v in t}
    edges = 3 * len(tris) - len(js["gluing"])
    nxt = {}
    for t, tri in enumerate(tris):
        for e in range(3):
            if (t, e) not in glued:
                u = tri[e]
                if u in nxt:
                    raise ValueError(f"boundary vertex {u} is pinched")
                nxt[u] = tri[(e + 1) % 3]
    cycles, seen = 0, set()
    for u in nxt:
        if u not in seen:
            cycles += 1
            while u not in seen:
                seen.add(u)
                u = nxt[u]
    return len(verts) - edges + len(tris), cycles


def class_count(caps) -> int:
    """Classes within caps: multisets of at most `components` connected types."""
    types = (caps[0] + 1) * (caps[1] + 1)
    return sum(comb(types + k - 1, k) for k in range(caps[2] + 1))


def check(req: dict, exp: dict, out) -> str | None:
    """None when the output is right, else what is wrong with it."""
    op = req["op"]
    if op == "k0":
        if out["free_rank"] != 2 or out["torsion"]:
            return f"K0 is Z^{out['free_rank']} + {out['torsion']}, not Z^2"
        coords = out["coords"]
        if len(coords) != class_count(exp["caps"]):
            return f"{len(coords)} objects, expected {class_count(exp['caps'])}"
        by_coord, by_inv = {}, {}
        for label, coord in coords.items():
            c = cp.DiffeoClass.from_label(label)
            inv = (c.chi, c.boundary_circles)
            by_coord.setdefault(repr(coord), set()).add(inv)
            by_inv.setdefault(inv, set()).add(repr(coord))
        if any(len(v) != 1 for v in by_coord.values()) or any(len(v) != 1 for v in by_inv.values()):
            return "coordinate partition differs from the (chi, b) partition"
        return None
    if op == "exact":
        if not out["passed"]:
            return "exact sequence check failed"
        if out["closed"] != [1, []] or out["boundary"] != [2, []]:
            return f"groups closed={out['closed']} boundary={out['boundary']}"
        return None
    if op == "decide":
        if out["left"] != cls_of(exp["left"]).label() or out["right"] != cls_of(exp["right"]).label():
            return f"classified {out['left']} {out['right']}"
        if out["equivalent"] != exp["same"]:
            return f"decided {out['equivalent']}, (chi, b) equality is {exp['same']}"
        return None
    if op in ("cutpaste", "move"):
        got = surface_chi_b(out)
        return None if got == exp["chi_b"] else f"(chi, b) {got} != {exp['chi_b']}"
    if op == "doubling":
        (gm, b), = exp["m"]
        (gn, _), = exp["n"]
        want = (cls_of([(2 * gm + b - 1, 0)]).label(), cls_of([(gm + gn + b - 1, 0)]).label())
        if not out["certified"]:
            return "doubling witness not certified"
        return None if (out["double"], out["glued"]) == want else f"double/glued {out} != {want}"
    if op == "witness":
        if out.get("exhausted"):
            return "search exhausted though a witness is within budget" if exp["reachable"] else None
        start, target = cls_of(exp["start"]), cls_of(exp["target"])
        steps = tuple(
            sk_groups.MoveStep(
                circles=tuple(sk_groups.CircleSpec(*spec) for spec in circles),
                pairing=tuple(pairing),
            )
            for circles, pairing in out["steps"]
        )
        w = sk_groups.MoveWitness(start=start, steps=steps, end=target)
        end = sk_groups.replay_witness(w)
        return None if end == target else f"witness replays to {end}, not {target}"
    if op == "square":
        want = homology_of(exp["pairs"])
        if not out["passed"]:
            return "square check failed"
        return None if out["total"] == want else f"glued homology {out['total']} != {want}"
    if op == "homology":
        want = homology_of(exp["pairs"])
        chi = chi_b(exp["pairs"])[0]
        if out["homology"] != want:
            return f"homology {out['homology']} != {want}"
        return None if out["k0"] == chi else f"k0 class {out['k0']} != chi {chi}"
    return f"unknown op {op}"
