"""Per-layer spans and counters, recorded from outside the package.

``install()`` replaces public functions and methods of each ``cutpaste``
layer with thin wrappers that time every call and feed counters.  Nothing
under ``src/`` is edited: the wrappers are swapped into every module
namespace that holds the original object, so calls between modules are
timed too.  Only the worker process of a traced run installs them.

A span name is a layer (``squares_k0``, ``abgroup``, ``sk_groups``,
``surface``, ``euler_functor``, ``chains``) and an operation.  For each
name the tracer keeps

* busy time: wall time inside the outermost call of that name, and
* self time: busy time minus the time of the spans called from it.

A span nested in a span of the same name is transparent, so the two
builders of one presentation (``k0_presentation`` calling
``AbGroupPresentation.make``) are counted once.

Counters that need to look at big results (dense matrices, lattices) are
computed in ``flush()`` after the request has returned, so their cost
lands in neither a span nor the request latency of an untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import cutpaste
from cutpaste import abgroup, chains, euler_functor, sk_groups, squares_k0, surface

LAYER_MODULES = (surface, squares_k0, abgroup, sk_groups, chains, euler_functor)

# span names, in report order
SPANS = (
    "squares_k0.classes",
    "squares_k0.enumerate",
    "abgroup.present",
    "abgroup.analysis",
    "abgroup.normal_form",
    "abgroup.hom_checks",
    "sk_groups.closed_presentation",
    "sk_groups.decide",
    "sk_groups.doubling",
    "sk_groups.witness",
    "surface.parse",
    "surface.classify",
    "surface.move",
    "euler_functor.square_build",
    "euler_functor.chain_data",
    "euler_functor.inclusion",
    "chains.complex_build",
    "chains.pushout",
    "chains.homology",
)

COUNTERS = (
    "squares_k0.objects",
    "squares_k0.squares_kept",
    "squares_k0.squares_skipped",
    "abgroup.relation_entries",
    "abgroup.relation_nnz",
    "abgroup.lattice_rank",
    "abgroup.nonunit_pivots",
    "abgroup.max_coeff_bits",
    "abgroup.normal_form_calls",
    "sk_groups.closed_relations",
    "sk_groups.presentation_builds",
    "sk_groups.bfs_moves_applied",
    "sk_groups.witness_exhausted",
    "surface.triangles_parsed",
    "surface.move_calls",
    "chains.pushout_models",
    "chains.boundary_entries",
    "chains.boundary_nnz",
)


class Tracer:
    """Span and counter registry of one worker process."""

    def __init__(self, caches=()):
        self.caches = caches  # lru_cache'd presentation builders
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [name, time spent in child spans]
        self._active: set[str] = set()
        self._pending: list[tuple[str, object]] = []

    def wrap(self, name, fn, after=None, raises=None):
        """Time every call of fn under the span name (None: no span).
        after(args, result) runs once the span is closed; raises is an
        (exception class, counter) pair counted when fn raises it."""

        def traced(*args, **kwargs):
            frame = None
            if name is not None and name not in self._active:
                frame = [name, 0.0]
                self._stack.append(frame)
                self._active.add(name)
                t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raises is not None and isinstance(exc, raises[0]):
                    self.counts[raises[1]] += 1
                raise
            finally:
                if frame is not None:
                    dt = time.perf_counter() - t0
                    self._stack.pop()
                    self._active.discard(name)
                    self.busy[name] += dt
                    self.self_time[name] += dt - frame[1]
                    if self._stack:
                        self._stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return traced

    def defer(self, kind, obj):
        self._pending.append((kind, obj))

    def flush(self):
        """Compute the deferred counters of the request that just ended."""
        c = self.counts
        for kind, obj in self._pending:
            if kind == "presentation":
                rels = obj.relations
                c["abgroup.relation_entries"] += len(rels) * len(obj.generators)
                c["abgroup.relation_nnz"] += sum(
                    len(r) - r.count(0) for r in rels
                )
            elif kind == "lattice":
                pivots = obj.pivots()
                c["abgroup.lattice_rank"] += obj.rank
                c["abgroup.nonunit_pivots"] += sum(1 for _, p in pivots if p != 1)
                bits = max(
                    (abs(x).bit_length() for row in obj.basis_rows() for x in row.values()),
                    default=0,
                )
                c["abgroup.max_coeff_bits"] = max(c["abgroup.max_coeff_bits"], bits)
            elif kind == "complex":
                for d in obj.boundaries:
                    c["chains.boundary_entries"] += d.rows * d.cols
                    c["chains.boundary_nnz"] += len(d.entries) - d.entries.count(0)
        self._pending.clear()

    def report(self) -> dict:
        self.flush()
        c = dict(self.counts)
        c["sk_groups.presentation_builds"] = sum(f.cache_info().misses for f in self.caches)
        return {
            "busy": {n: self.busy.get(n, 0.0) for n in SPANS},
            "self": {n: self.self_time.get(n, 0.0) for n in SPANS},
            "counts": {n: c.get(n, 0) for n in COUNTERS},
        }


def _replace_everywhere(orig, new) -> None:
    """Point every layer-module (and package) name bound to orig at new."""
    for mod in LAYER_MODULES + (cutpaste,):
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _wrap_function(tracer, module, name, span, after=None, raises=None):
    orig = getattr(module, name, None)
    if orig is None:
        print(f"trace: {module.__name__}.{name} is gone; its span reads 0", file=sys.stderr)
        return
    _replace_everywhere(orig, tracer.wrap(span, orig, after, raises))


def _wrap_method(tracer, cls, name, span, after=None):
    raw = cls.__dict__.get(name)
    if raw is None:
        print(f"trace: {cls.__name__}.{name} is gone; its span reads 0", file=sys.stderr)
        return
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(span, raw.__func__, after)))
    else:
        setattr(cls, name, tracer.wrap(span, raw, after))


def install() -> Tracer:
    """Wrap each layer's public entry points; returns the registry."""
    caches = [getattr(sk_groups, n, None) for n in ("boundary_sk_presentation", "closed_sk_presentation")]
    t = Tracer(caches=[f for f in caches if hasattr(f, "cache_info")])
    c = t.counts

    def squares_after(args, res):
        c["squares_k0.objects"] += len(res.classes)
        c["squares_k0.squares_kept"] += len(res.presentation.squares)
        c["squares_k0.squares_skipped"] += res.skipped

    def count(name):
        def after(args, res):
            c[name] += 1
        return after

    _wrap_function(t, squares_k0, "classes_within", "squares_k0.classes")
    _wrap_function(t, squares_k0, "surface_squares_presentation", "squares_k0.enumerate", squares_after)

    ab = abgroup.AbGroupPresentation
    _wrap_function(t, squares_k0, "k0_presentation", "abgroup.present")
    _wrap_method(t, ab, "make", "abgroup.present", lambda a, res: t.defer("presentation", res))
    # The lazy diagonalization behind quotient_invariants, element_normal_form
    # and is_relation; it has no public name of its own.
    analysis = getattr(abgroup, "_Analysis", None)
    if analysis is not None:
        _wrap_method(t, analysis, "__init__", "abgroup.analysis", lambda a, res: t.defer("lattice", a[0].lattice))
    else:
        print("trace: abgroup._Analysis is gone; abgroup.analysis reads 0", file=sys.stderr)
    _wrap_method(t, ab, "element_normal_form", "abgroup.normal_form", count("abgroup.normal_form_calls"))
    for meth in ("__post_init__", "is_injective", "is_surjective", "is_zero"):
        _wrap_method(t, abgroup.AbHom, meth, "abgroup.hom_checks")
    _wrap_function(t, abgroup, "check_exact_at", "abgroup.hom_checks")

    closed = getattr(sk_groups, "closed_sk_presentation", None)
    seen_misses = [0]

    def closed_after(args, res):
        # count relations only when the call built the presentation
        misses = closed.cache_info().misses if hasattr(closed, "cache_info") else seen_misses[0] + 1
        if misses != seen_misses[0]:
            seen_misses[0] = misses
            c["sk_groups.closed_relations"] += len(res.group.relations)

    _wrap_function(t, sk_groups, "closed_sk_presentation", "sk_groups.closed_presentation", closed_after)
    _wrap_function(t, sk_groups, "decide_equivalent", "sk_groups.decide")
    _wrap_function(t, sk_groups, "doubling_witness", "sk_groups.doubling")
    _wrap_function(t, sk_groups, "apply_move", None, count("sk_groups.bfs_moves_applied"))
    _wrap_function(
        t, sk_groups, "find_witness", "sk_groups.witness",
        raises=(sk_groups.SearchExhausted, "sk_groups.witness_exhausted"),
    )

    def parsed(args, res):
        c["surface.triangles_parsed"] += res.triangle_count

    _wrap_method(t, surface.TriSurface, "from_json", "surface.parse", parsed)
    _wrap_method(t, surface.TriSurface, "classify", "surface.classify")
    for name in ("cut", "paste", "paste_cut", "sk_move", "sk_system_move"):
        _wrap_function(t, surface, name, "surface.move", count("surface.move_calls"))

    _wrap_function(t, euler_functor, "square_from_circles", "euler_functor.square_build")
    _wrap_function(t, euler_functor, "surface_chain_data", "euler_functor.chain_data")
    _wrap_function(t, euler_functor, "inclusion_chain_map", "euler_functor.inclusion")

    cc = chains.ChainComplex
    _wrap_method(t, cc, "make", "chains.complex_build")
    _wrap_method(t, cc, "__init__", "chains.complex_build", lambda a, res: t.defer("complex", a[0]))
    _wrap_method(t, cc, "homology", "chains.homology")
    _wrap_function(t, chains, "pushout", "chains.pushout", count("chains.pushout_models"))
    return t
