"""Benchmark worker: runs requests through the public ``cutpaste`` API.

Protocol (one JSON document per line):

* stdin line 1: ``{"trace": 0|1, "pool": [surface JSON, ...]}``; the worker
  answers ``{"ready": true}`` once ``cutpaste`` is imported and the inputs
  are loaded, which is where the runner stops its set-up clock.
* each further stdin line is a request; the answer is
  ``{"ok": true, "out": ...}`` or ``{"ok": false, "error": "..."}``.
* ``{"op": "probe"}`` runs a fixed piece of pure-Python work and answers
  with its own duration; the runner uses it to gauge the host's speed.
* ``null`` ends the session; the last answer carries the peak RSS and, in
  a traced run, the span and counter totals.

The worker only computes; the runner (run.py) times each request and
checks it.
"""

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cutpaste as cp  # noqa: E402
from cutpaste import sk_groups  # noqa: E402


def _surface(pool, i):
    return cp.TriSurface.from_json(pool[i])


def _circle(s, refs):
    return cp.EmbeddedCircle(s, tuple(tuple(r) for r in refs))


def _k0(req, pool):
    r = cp.k0_of_surfaces(cp.Caps(*req["caps"]))
    coords = {label: [list(nf.torsion), list(nf.free)] for label, nf in r.coordinates.items()}
    return {"free_rank": r.free_rank, "torsion": list(r.torsion), "coords": coords}


def _exact(req, pool):
    rep = cp.verify_exact_sequence(cp.Caps(*req["caps"]))
    return {
        "passed": rep.passed,
        "closed": [rep.closed_invariants[0], list(rep.closed_invariants[1])],
        "boundary": [rep.boundary_invariants[0], list(rep.boundary_invariants[1])],
    }


def _decide(req, pool):
    d = cp.decide_equivalent(_surface(pool, req["m"]), _surface(pool, req["n"]))
    return {"equivalent": d.equivalent, "left": d.left.label(), "right": d.right.label()}


def _cutpaste(req, pool):
    s = _surface(pool, req["s"])
    cut_surface, record = cp.cut(s, _circle(s, req["circle"]))
    return cp.paste_cut(cut_surface, record, req["offset"]).to_json()


def _move(req, pool):
    s = _surface(pool, req["s"])
    circles = [_circle(s, refs) for refs in req["circles"]]
    return cp.sk_system_move(s, circles, pairing=req["pairing"]).to_json()


def _doubling(req, pool):
    w = cp.doubling_witness(_surface(pool, req["m"]), _surface(pool, req["n"]))
    return {"certified": w.certified, "double": w.double.label(), "glued": w.glued.label()}


def _witness(req, pool):
    try:
        w = cp.find_witness(_surface(pool, req["m"]), _surface(pool, req["n"]), req["budget"])
    except sk_groups.SearchExhausted:
        return {"exhausted": True}
    steps = [
        [[[c.component, c.kind, c.index] for c in st.circles], list(st.pairing)]
        for st in w.steps
    ]
    return {"start": w.start.label(), "end": w.end.label(), "steps": steps}


def _square(req, pool):
    s = _surface(pool, req["s"])
    q = cp.square_from_circles(s, [_circle(s, refs) for refs in req["circles"]])
    r = cp.functor_on_square(q)
    return {
        "passed": r.passed,
        "model": r.pushout_model,
        "pushout": [[f, list(t)] for f, t in r.pushout_homology.groups],
        "total": [[f, list(t)] for f, t in r.total_homology.groups],
    }


def _homology(req, pool):
    c = cp.chains_of(_surface(pool, req["s"]))
    h = c.homology()
    return {"homology": [[f, list(t)] for f, t in h.groups], "k0": c.k0_class()}


def _probe(req, pool):
    """Fixed pure-Python work that never calls cutpaste.  The runner scales
    the request times next to it by how long it took (see run.py).  The
    collector is off, so the probe's time does not grow with the heap the
    requests leave behind."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = [[(i * 7 + j) % 11 for j in range(40)] for i in range(6000)]
        tally = {}
        for row in rows:
            for j, x in enumerate(row):
                if x:
                    tally[j, x] = tally.get((j, x), 0) + x * 3
        sorted(tally.values())
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    return {"probe_s": dt}


HANDLERS = {
    "k0": _k0,
    "exact": _exact,
    "decide": _decide,
    "cutpaste": _cutpaste,
    "move": _move,
    "doubling": _doubling,
    "witness": _witness,
    "square": _square,
    "homology": _homology,
    "probe": _probe,
}


def _send(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main():
    header = json.loads(sys.stdin.readline())
    tracer = None
    if header["trace"]:
        import tracing

        tracer = tracing.install()
    pool = header["pool"]
    _send({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if req is None:
            break
        try:
            resp = {"ok": True, "out": HANDLERS[req["op"]](req, pool)}
        except Exception as exc:  # a failed request is reported, not fatal
            resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        _send(resp)
        if tracer is not None:
            tracer.flush()
    _send({
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer is not None else None,
    })


if __name__ == "__main__":
    main()
