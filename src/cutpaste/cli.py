"""Command-line surface for the cut-and-paste calculus.

One binary with subcommands sharing the JSON file formats of the library
modules.  Output is line-oriented ``key=value`` text with a stable field
order so reports diff cleanly; exit codes: 0 success, 1 domain error
(structured message naming the violated invariant), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import cutpaste as cp

from .classes import SurfaceError

# Library names are read through the lazy package root (``cp.TriSurface``),
# so a command loads only the layers it calls: ``sk k0`` and ``sk exact``
# load the group layer and no triangulation, chain or acceptance code.


class MalformedInput(ValueError):
    pass


_INT = re.compile(r"-?[0-9]+")


def _int_list(text: str, option: str, count: int | None = None) -> tuple[int, ...]:
    """The comma-separated integers of an option (``count`` of them, if
    given); anything else is malformed input, named with the rule."""
    parts = [x.strip() for x in text.split(",")]
    if not all(_INT.fullmatch(x) for x in parts) or count not in (None, len(parts)):
        rule = f"{count} comma-separated integers" if count else "comma-separated integers"
        raise MalformedInput(f"{option} takes {rule}, got {text!r}")
    return tuple(int(x) for x in parts)


def _caps(text: str) -> cp.Caps:
    return cp.Caps(*_int_list(text, "--caps (genus,boundary,components)", 3))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _load_surface(path: str) -> cp.TriSurface:
    """The checked surface of a file: a malformed file is malformed input,
    and an invalid surface raises InvalidSurface, a domain error."""
    data = _load_json(path)
    try:
        s = cp.TriSurface.from_json(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise MalformedInput(f"{path} is not a surface file: {exc}") from exc
    return s.require_valid()


def _load_chain(path: str) -> cp.ChainComplex:
    from .chains import ChainComplexError

    data = _load_json(path)
    try:
        return cp.ChainComplex.from_json(data)
    except ChainComplexError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{path} is not a chain complex file: {exc}") from exc


def _circle_refs(spec: str, n_tri: int) -> tuple[tuple[int, int], ...]:
    """The refs of a ``--circle`` spec, checked like the glued refs of a
    surface file: a JSON list of [triangle, edge] pairs of JSON integers,
    with the triangle index in 0..n_tri-1 and the edge index in 0..2."""
    try:
        refs = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad circle spec: {exc}") from exc
    if not isinstance(refs, list):
        raise MalformedInput(f"bad circle spec: {spec} is not a list of [triangle, edge] refs")
    for r in refs:
        if not isinstance(r, list) or len(r) != 2:
            rule = "is not a [triangle, edge] ref"
        elif type(r[0]) is not int or type(r[1]) is not int:
            rule = "holds an index that is not a JSON integer"
        elif not 0 <= r[0] < n_tri:
            rule = f"has triangle index outside 0..{n_tri - 1}"
        elif not 0 <= r[1] <= 2:
            rule = "has edge index outside 0..2"
        else:
            continue
        raise MalformedInput(f"bad circle spec: circle ref {r!r} {rule}")
    return tuple(map(tuple, refs))


def _write_or_print(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise MalformedInput(f"cannot write {out}: {exc}") from exc
        print(f"written={out}")
    else:
        print(text)


def _emit(lines) -> None:
    for line in lines:
        print(line)


# -- surface ------------------------------------------------------------------


def _cmd_surface(args) -> int:
    if args.surface_cmd == "validate":
        s_data = _load_json(args.file)
        try:
            s = cp.TriSurface.from_json(s_data)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise MalformedInput(str(exc)) from exc
        violation = s.validate()
        if violation is None:
            print("valid=yes")
            return 0
        print("valid=no")
        print(f"violation={violation}")
        return 1
    if args.surface_cmd == "classify":
        print(f"class={_load_surface(args.file).classify().label()}")
        return 0
    if args.surface_cmd == "chi":
        print(f"chi={_load_surface(args.file).euler_characteristic()}")
        return 0
    if args.surface_cmd == "union":
        out = cp.disjoint_union(_load_surface(args.file), _load_surface(args.other))
        print(f"class={out.classify().label()}")
        _write_or_print(out.to_json(), args.out)
        return 0
    if args.surface_cmd == "cut":
        s = _load_surface(args.file)
        circle = cp.EmbeddedCircle(s, _circle_refs(args.circle, s.triangle_count))
        out, rec = cp.cut(s, circle)
        print(f"class={out.classify().label()}")
        print(f"left_cycle={json.dumps([list(r) for r in rec.left])}")
        print(f"right_cycle={json.dumps([list(r) for r in rec.right])}")
        _write_or_print(out.to_json(), args.out)
        return 0
    if args.surface_cmd == "paste":
        s = _load_surface(args.file)
        out = cp.paste(s, cp.BoundaryGluing(args.left, args.right, args.offset))
        print(f"class={out.classify().label()}")
        _write_or_print(out.to_json(), args.out)
        return 0
    # "standard", the last subcommand the parser admits
    s = cp.build_standard(args.genus, args.boundary)
    print(f"class={s.classify().label()}")
    _write_or_print(s.to_json(), args.out)
    return 0


# -- sk ----------------------------------------------------------------------


def _cmd_sk(args) -> int:
    if args.sk_cmd == "decide":
        dec = cp.decide_equivalent(_load_surface(args.left), _load_surface(args.right))
        _emit(dec.to_lines())
        return 0
    if args.sk_cmd == "witness":
        m = _load_surface(args.left)
        n = _load_surface(args.right)
        try:
            w = cp.find_witness(m, n, budget=args.budget)
        except cp.SearchExhausted as exc:
            print("witness=exhausted")
            print(f"detail={exc}")
            return 1
        print(f"witness_moves={len(w.steps)}")
        for i, step in enumerate(w.steps):
            circles = ";".join(
                f"{c.component}:{c.kind}:{c.index}" for c in step.circles
            )
            print(f"move={i} circles={circles} pairing={list(step.pairing)}")
        print(f"end_class={cp.replay_witness(w).label()}")
        return 0
    if args.sk_cmd == "exact":
        rep = cp.verify_exact_sequence(_caps(args.caps))
        _emit(rep.to_lines())
        return 0 if rep.passed else 1
    if args.sk_cmd == "k0":
        res = cp.k0_of_surfaces(_caps(args.caps))
        _emit(res.to_lines())
        return 0
    # "skk", the last subcommand the parser admits
    first = _int_list(args.first, "--first")
    second = _int_list(args.second, "--second")
    rep = cp.skk_collapse_check(args.circles, first, second)
    _emit(rep.to_lines())
    return 0 if rep.certified else 1


# -- k0 ----------------------------------------------------------------------


def _cmd_k0(args) -> int:
    data = _load_json(args.file)
    try:
        pres = cp.SquaresPresentation.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{args.file} is not a squares presentation: {exc}") from exc
    # One coordinate line per object, each as long as the group's rank: the
    # output grows with the square of the object count.
    from .squares_k0 import MAX_CLASSES

    if len(pres.objects) > MAX_CLASSES:
        raise ValueError(f"{args.file} declares {len(pres.objects)} objects, above the ceiling of {MAX_CLASSES}")
    group = cp.k0_presentation(pres)
    print(f"group={group.describe()}")
    for label in group.generators:
        nf = group.element_normal_form({group.generator_index[label]: 1})
        print(f"object={label} free={list(nf.free)} torsion={list(nf.torsion)}")
    return 0


# -- chain -------------------------------------------------------------------


def _cmd_chain(args) -> int:
    if args.chain_cmd == "homology":
        c = _load_chain(args.file)
        h = c.homology()
        for n in h.degrees():
            rank, torsion = h.at(n)
            print(f"degree={n} rank={rank} torsion={list(torsion)}")
        return 0
    if args.chain_cmd == "chi":
        print(f"chi={_load_chain(args.file).euler_char()}")
        return 0
    if args.chain_cmd == "qiso":
        same = cp.quasi_iso_type_equal(_load_chain(args.file), _load_chain(args.other))
        print(f"quasi_isomorphic={'yes' if same else 'no'}")
        return 0
    # "pushout", the last subcommand the parser admits
    from .chains import ChainComplexError, matrix_from_json

    data = _load_json(args.file)
    try:
        a = cp.ChainComplex.from_json(data["a"])
        b = cp.ChainComplex.from_json(data["b"])
        c = cp.ChainComplex.from_json(data["c"])
        fmats = tuple(matrix_from_json(m) for m in data["f"])
        gmats = tuple(matrix_from_json(m) for m in data["g"])
    except ChainComplexError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad pushout file: {exc}") from exc
    f = cp.ChainMap(a, b, fmats)
    g = cp.ChainMap(a, c, gmats)
    res = cp.pushout(f, g)
    print(f"model={res.model}")
    h = res.complex.homology()
    for n in h.degrees():
        rank, torsion = h.at(n)
        print(f"degree={n} rank={rank} torsion={list(torsion)}")
    _write_or_print(res.complex.to_json(), args.out)
    return 0


# -- euler -------------------------------------------------------------------


# Largest number of standard surfaces `euler commute --caps` may build: one
# per (genus, boundary) within the caps, (genus+1)(boundary+1) in all, with
# `components` playing no part.  The ceiling admits caps 9,9,x, which take
# about 3 s; 20,20,x (441 surfaces) took 31 s (Python 3.11, one core of a
# 2-core x86-64 host).
MAX_COMMUTE_SURFACES = 100


def _cmd_euler(args) -> int:
    if args.euler_cmd == "chi":
        s = _load_surface(args.file)
        c = cp.chains_of(s)
        print(f"chi={s.euler_characteristic()}")
        print(f"k0_class={c.k0_class()}")
        print(f"agree={'yes' if c.k0_class() == s.euler_characteristic() else 'no'}")
        return 0
    if args.euler_cmd == "verify-square":
        data = _load_json(args.file)
        try:
            q = cp.SquareInstance.from_json(data)
        except SurfaceError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise MalformedInput(f"bad square file: {exc}") from exc
        rep = cp.functor_on_square(q)
        _emit(rep.to_lines())
        return 0 if rep.passed else 1
    # "commute", the last subcommand the parser admits
    caps = _caps(args.caps)
    if caps.genus < 0 or caps.boundary < 0:
        raise ValueError(
            f"euler commute needs nonnegative genus and boundary caps, "
            f"got {caps.genus},{caps.boundary},{caps.components}"
        )
    count = (caps.genus + 1) * (caps.boundary + 1)
    if count > MAX_COMMUTE_SURFACES:
        raise ValueError(
            f"caps {caps.genus},{caps.boundary},{caps.components} span {count} "
            f"standard surfaces, above the ceiling of {MAX_COMMUTE_SURFACES}"
        )
    samples = [
        cp.build_standard(g, b)
        for g in range(caps.genus + 1)
        for b in range(caps.boundary + 1)
    ]
    rep = cp.pi0_commutation(samples)
    _emit(rep.to_lines())
    return 0 if rep.passed else 1


# -- accept ------------------------------------------------------------------


def _cmd_accept(args) -> int:
    from .acceptance import run_acceptance_suite

    only = set(_int_list(args.only, "--only")) if args.only else None
    report = run_acceptance_suite(seed=args.seed, only=only)
    _emit(report.to_lines(with_timing=args.timings))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutpaste",
        description="Cut-and-paste calculus for triangulated surfaces.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_surface = sub.add_parser("surface", help="triangulated surface operations")
    s_sub = p_surface.add_subparsers(dest="surface_cmd", required=True)
    for name in ("validate", "classify", "chi"):
        p = s_sub.add_parser(name)
        p.add_argument("file")
    p = s_sub.add_parser("union")
    p.add_argument("file")
    p.add_argument("other")
    p.add_argument("--out")
    p = s_sub.add_parser("cut")
    p.add_argument("file")
    p.add_argument("--circle", required=True, help="JSON list of [triangle, edge] refs")
    p.add_argument("--out")
    p = s_sub.add_parser("paste")
    p.add_argument("file")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--out")
    p = s_sub.add_parser("standard")
    p.add_argument("genus", type=int)
    p.add_argument("boundary", type=int)
    p.add_argument("--out")

    p_sk = sub.add_parser("sk", help="scissors congruence groups")
    k_sub = p_sk.add_subparsers(dest="sk_cmd", required=True)
    p = k_sub.add_parser("decide")
    p.add_argument("left")
    p.add_argument("right")
    p = k_sub.add_parser("witness")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--budget", type=int, default=6)
    p = k_sub.add_parser("exact")
    p.add_argument("--caps", default="3,3,3")
    p = k_sub.add_parser("k0")
    p.add_argument("--caps", default="3,3,3")
    p = k_sub.add_parser("skk")
    p.add_argument("--circles", type=int, default=2)
    p.add_argument("--first", default="0,1")
    p.add_argument("--second", default="1,0")

    p_k0 = sub.add_parser("k0", help="K0 of a squares presentation file")
    p_k0.add_argument("file")

    p_chain = sub.add_parser("chain", help="chain complex operations")
    c_sub = p_chain.add_subparsers(dest="chain_cmd", required=True)
    for name in ("homology", "chi"):
        p = c_sub.add_parser(name)
        p.add_argument("file")
    p = c_sub.add_parser("qiso")
    p.add_argument("file")
    p.add_argument("other")
    p = c_sub.add_parser("pushout")
    p.add_argument("file")
    p.add_argument("--out")

    p_euler = sub.add_parser("euler", help="the chain functor and its checks")
    e_sub = p_euler.add_subparsers(dest="euler_cmd", required=True)
    p = e_sub.add_parser("chi")
    p.add_argument("file")
    p = e_sub.add_parser("verify-square")
    p.add_argument("file")
    p = e_sub.add_parser("commute")
    p.add_argument("--caps", default="3,3,3")

    p_accept = sub.add_parser("accept", help="run the acceptance suite")
    p_accept.add_argument("--only", help="comma-separated criterion numbers")
    p_accept.add_argument("--timings", action="store_true")

    return parser


_DISPATCH = {
    "surface": _cmd_surface,
    "sk": _cmd_sk,
    "k0": _cmd_k0,
    "chain": _cmd_chain,
    "euler": _cmd_euler,
    "accept": _cmd_accept,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.cmd](args)
    except MalformedInput as exc:
        print(f"error=malformed_input detail={exc}")
        return 2
    except ValueError as exc:  # SurfaceError and ChainComplexError among them
        print(f"error=domain detail={exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
