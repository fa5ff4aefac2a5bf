"""CLI smoke tests: exit codes, structured output, determinism."""

import json

import pytest

from cutpaste.cli import main
from cutpaste.euler_functor import square_from_circles
from cutpaste.surface import build_standard, fan_disk, octahedron, standard_library

from test_euler_functor import sphere_halves_square
from test_surface import equator_circle


@pytest.fixture
def octa_file(tmp_path):
    path = tmp_path / "octahedron.surf"
    path.write_text(json.dumps(octahedron().to_json()))
    return str(path)


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.surf"
    path.write_text(json.dumps(fan_disk(4).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_surface_classify(octa_file, capsys):
    code, out = run(capsys, "surface", "classify", octa_file)
    assert code == 0
    assert "class={(0,0)}" in out


def test_surface_chi_and_validate(octa_file, capsys):
    code, out = run(capsys, "surface", "chi", octa_file)
    assert code == 0 and "chi=2" in out
    code, out = run(capsys, "surface", "validate", octa_file)
    assert code == 0 and "valid=yes" in out


def test_surface_union(octa_file, disk_file, tmp_path, capsys):
    out_path = str(tmp_path / "union.surf")
    code, out = run(capsys, "surface", "union", octa_file, disk_file, "--out", out_path)
    assert code == 0
    assert "class={(0,0),(0,1)}" in out


def test_surface_cut_and_paste(octa_file, tmp_path, capsys):
    circle = equator_circle(octahedron())
    out_path = str(tmp_path / "cut.surf")
    code, out = run(
        capsys,
        "surface",
        "cut",
        octa_file,
        "--circle",
        json.dumps([list(r) for r in circle.refs]),
        "--out",
        out_path,
    )
    assert code == 0
    assert "class={(0,1),(0,1)}" in out
    code, out = run(capsys, "surface", "paste", out_path, "--left", "0", "--right", "1")
    assert code == 0
    assert "class={(0,0)}" in out


def test_surface_cut_on_a_written_standard_surface(tmp_path, capsys):
    # a written surface parses to itself, so the library's seam refs name
    # the seam on the file
    path = str(tmp_path / "torus.surf")
    code, _ = run(capsys, "surface", "standard", "1", "0", "--out", path)
    assert code == 0
    seam = standard_library(1, 0).seams[0]
    code, out = run(capsys, "surface", "cut", path, "--circle", json.dumps([list(r) for r in seam.refs]))
    assert code == 0, out
    assert "class={(0,1),(1,1)}" in out


@pytest.mark.parametrize(
    "circle, edges",
    [([[0, 0]], "0 and 0"), ([[0, 0], [0, 1]], "1 and 0")],
    ids=["one_edge", "two_edges"],
)
def test_circle_that_does_not_close_names_its_first_edge(circle, edges, tmp_path, capsys):
    # the last edge must chain to edge 0, not to an edge past the end
    path = str(tmp_path / "s.surf")
    code, _ = run(capsys, "surface", "standard", "1", "1", "--out", path)
    assert code == 0
    code, out = run(capsys, "surface", "cut", path, "--circle", json.dumps(circle))
    assert code == 1, out
    assert f"detail=circle edges {edges} do not chain" in out


@pytest.mark.parametrize(
    "circle, rule",
    [
        ([[999, 0], [1, 0], [2, 0]], "circle ref [999, 0] has triangle index outside 0..{last}"),
        ([[0, 7], [1, 0], [2, 0]], "circle ref [0, 7] has edge index outside 0..2"),
        ([[-1, 0], [1, 0], [2, 0]], "circle ref [-1, 0] has triangle index outside 0..{last}"),
        ([[1, 2, 3]], "circle ref [1, 2, 3] is not a [triangle, edge] ref"),
        ([[0]], "circle ref [0] is not a [triangle, edge] ref"),
        ([[0.5, 0]], "circle ref [0.5, 0] holds an index that is not a JSON integer"),
        ([[True, 0]], "circle ref [True, 0] holds an index that is not a JSON integer"),
    ],
    ids=["triangle_above", "edge_above", "triangle_below", "three_ids", "one_id", "float", "bool"],
)
def test_malformed_circle_ref_exits_2(circle, rule, tmp_path, capsys):
    s = build_standard(1, 0)
    path = tmp_path / "torus.surf"
    path.write_text(json.dumps(s.to_json()))
    code, out = run(capsys, "surface", "cut", str(path), "--circle", json.dumps(circle))
    assert code == 2, out
    assert out.startswith("error=malformed_input")
    assert out.rstrip().endswith(rule.format(last=s.triangle_count - 1)), out


def test_square_file_with_a_triangle_outside_d_exits_2(tmp_path, capsys):
    path = tmp_path / "outside.square"
    path.write_text(
        json.dumps({"d": fan_disk(3).to_json(), "b_triangles": [0, 1, 2], "c_triangles": [0, 999]})
    )
    code, out = run(capsys, "euler", "verify-square", str(path))
    assert code == 2, out
    assert out.startswith("error=malformed_input") and "triangle index 999 outside 0..2" in out, out


def test_sk_decide_and_exact(tmp_path, capsys):
    from cutpaste.surface import disjoint_union

    m = disjoint_union(build_standard(2, 0), build_standard(0, 0))
    n = disjoint_union(build_standard(1, 0), build_standard(1, 0))
    mf = tmp_path / "m.surf"
    nf = tmp_path / "n.surf"
    mf.write_text(json.dumps(m.to_json()))
    nf.write_text(json.dumps(n.to_json()))
    code, out = run(capsys, "sk", "decide", str(mf), str(nf))
    assert code == 0 and "equivalent=yes" in out
    code, out = run(capsys, "sk", "witness", str(mf), str(nf), "--budget", "6")
    assert code == 0
    assert "end_class={(1,0),(1,0)}" in out
    code, out = run(capsys, "sk", "exact", "--caps", "2,2,2")
    assert code == 0
    assert out.count("PASS") >= 4
    code, out = run(capsys, "sk", "exact", "--caps", "1,1,1")
    assert code == 1
    assert out.startswith("error=domain detail=the exact sequence needs a boundary cap of at least 2")


def test_sk_decide_above_the_class_ceiling(tmp_path, monkeypatch, capsys):
    """Covering caps 12,2,3 span 11,480 classes: the decision compares
    (chi, b) and builds no group, so it answers with exit 0."""
    from cutpaste import sk_groups, squares_k0
    from cutpaste.surface import DiffeoClass, library_for_class

    def build(*args, **kwargs):
        raise AssertionError("a group was built")

    for module in (squares_k0, sk_groups):
        monkeypatch.setattr(module, "surface_squares_presentation", build)
    monkeypatch.setattr(squares_k0, "classes_within", build)
    paths = {}
    for name, pairs in (
        ("m", [(12, 1), (1, 1), (0, 2)]),
        ("n", [(11, 1), (2, 1), (0, 2)]),
        ("n2", [(11, 1), (1, 1), (0, 2)]),
    ):
        paths[name] = tmp_path / f"{name}.surf"
        paths[name].write_text(json.dumps(library_for_class(DiffeoClass.from_pairs(pairs))[0].to_json()))
    code, out = run(capsys, "sk", "decide", str(paths["m"]), str(paths["n"]))
    assert code == 0, out
    assert out == (
        "left={(0,2),(1,1),(12,1)} right={(0,2),(2,1),(11,1)}\n"
        "chi=-24,-24 boundary=4,4\n"
        "equivalent=yes\n"
    )
    code, out = run(capsys, "sk", "decide", str(paths["m"]), str(paths["n2"]))
    assert code == 0, out
    assert out.splitlines()[1:] == ["chi=-24,-22 boundary=4,4", "equivalent=no"]


def test_square_file_with_uncovered_triangles_exits_1(tmp_path, capsys):
    path = tmp_path / "uncovered.square"
    path.write_text(
        json.dumps({"d": fan_disk(3).to_json(), "b_triangles": [0], "c_triangles": [0]})
    )
    code, out = run(capsys, "euler", "verify-square", str(path))
    assert code == 1
    assert out.startswith("error=domain") and "must cover" in out, out


def test_sk_skk(capsys):
    code, out = run(capsys, "sk", "skk", "--circles", "2", "--first", "0,1", "--second", "1,0")
    assert code == 0
    assert "collapse=PASS" in out


def test_sk_skk_above_the_class_ceiling(capsys):
    """Seven circles: the collapse reads (chi, b), so it answers where the
    covering caps 2,2,7 span more classes than the ceiling admits."""
    code, out = run(
        capsys, "sk", "skk", "--circles", "7", "--first", "0,1,2,3,4,5,6", "--second", "1,0,2,3,4,5,6"
    )
    assert code == 0, out
    assert "collapse=PASS" in out


def test_sk_skk_refuses_a_short_pairing_before_building_the_range(capsys):
    """A pairing shorter than --circles is refused by its length, before
    anything of the requested circle count is built."""
    import tracemalloc

    tracemalloc.start()
    try:
        code, out = run(capsys, "sk", "skk", "--circles", "1000000", "--first", "0,1", "--second", "1,0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1, out
    assert out == "error=domain detail=pairing must be a permutation of the circles\n"
    assert peak < 1_000_000, peak


def test_k0_presentation_file(tmp_path, capsys):
    pres = {"objects": ["O", "X"], "basepoint": 0, "squares": []}
    path = tmp_path / "pres.sq"
    path.write_text(json.dumps(pres))
    code, out = run(capsys, "k0", str(path))
    assert code == 0
    assert "group=Z" in out.splitlines()[0]


def test_squares_file_above_the_class_ceiling_exits_1_before_building(monkeypatch, tmp_path, capsys):
    """A squares file declaring more objects than MAX_CLASSES is a domain
    error, refused before the presentation is built; library callers are
    not capped."""
    import cutpaste
    from cutpaste import squares_k0

    monkeypatch.setattr(squares_k0, "MAX_CLASSES", 3)
    path = tmp_path / "pres.sq"
    path.write_text(json.dumps({"objects": ["O", "a", "b"], "basepoint": 0, "squares": [[0, 1, 1, 2]]}))
    code, out = run(capsys, "k0", str(path))
    assert (code, out.splitlines()[0]) == (0, "group=Z"), out

    def build(*args, **kwargs):
        raise AssertionError("a presentation was built above the ceiling")

    monkeypatch.setattr(cutpaste, "k0_presentation", build)
    path.write_text(json.dumps({"objects": ["O", "a", "b", "c"], "basepoint": 0, "squares": []}))
    code, out = run(capsys, "k0", str(path))
    assert code == 1, out
    assert out == f"error=domain detail={path} declares 4 objects, above the ceiling of 3\n", out
    pres = squares_k0.SquaresPresentation(("O", "a", "b", "c"), 0, ())
    assert squares_k0.k0_presentation(pres).quotient_invariants() == (3, ())


def test_chain_homology_and_chi(tmp_path, capsys):
    chain = {
        "lo": 0,
        "hi": 1,
        "ranks": [1, 1],
        "boundaries": [{"rows": 1, "cols": 1, "entries": [2]}],
    }
    path = tmp_path / "times2.chain"
    path.write_text(json.dumps(chain))
    code, out = run(capsys, "chain", "homology", str(path))
    assert code == 0
    assert "degree=0 rank=0 torsion=[2]" in out
    code, out = run(capsys, "chain", "chi", str(path))
    assert code == 0 and "chi=0" in out


def test_chain_corrupted_boundary_is_domain_error(tmp_path, capsys):
    chain = {
        "lo": 0,
        "hi": 2,
        "ranks": [1, 1, 1],
        "boundaries": [
            {"rows": 1, "cols": 1, "entries": [1]},
            {"rows": 1, "cols": 1, "entries": [1]},
        ],
    }
    path = tmp_path / "bad.chain"
    path.write_text(json.dumps(chain))
    for cmd in ("homology", "chi"):
        code, out = run(capsys, "chain", cmd, str(path))
        assert code == 1
        assert "boundary composite does not vanish" in out


def _times_two_chain():
    return {
        "lo": 0,
        "hi": 1,
        "ranks": [1, 1],
        "boundaries": [{"rows": 1, "cols": 1, "entries": [2]}],
    }


def _set(*path_and_value):
    *path, key, value = path_and_value

    def corrupt(data):
        for k in path:
            data = data[k]
        data[key] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt, rule",
    [
        (_set("boundaries", 0, "entries", [2.7]), "matrix entry 2.7 is not a JSON integer"),
        (_set("boundaries", 0, "entries", ["2"]), "matrix entry '2' is not a JSON integer"),
        (_set("boundaries", 0, "entries", [2, 2]), "expected 1 entries, got 2"),
        (_set("boundaries", 0, "rows", 1.0), "matrix shape 1.0 is not a JSON integer"),
        (_set("boundaries", 0, "cols", "1"), "matrix shape '1' is not a JSON integer"),
        (_set("ranks", [True, 1]), "rank True is not a JSON integer"),
        (_set("lo", "0"), "degree bound '0' is not a JSON integer"),
        (_set("hi", 1.0), "degree bound 1.0 is not a JSON integer"),
    ],
    ids=["entry_float", "entry_string", "entry_count", "rows_float", "cols_string", "rank_bool", "lo_string", "hi_float"],
)
def test_malformed_chain_file_exits_2(corrupt, rule, tmp_path, capsys):
    bad = _times_two_chain()
    corrupt(bad)
    path = tmp_path / "bad.chain"
    path.write_text(json.dumps(bad))
    good = tmp_path / "good.chain"
    good.write_text(json.dumps(_times_two_chain()))
    zero = {"lo": 0, "hi": 1, "ranks": [0, 0], "boundaries": [{"rows": 0, "cols": 0, "entries": []}]}
    empty_maps = [{"rows": 1, "cols": 0, "entries": []}] * 2
    bundle = tmp_path / "bad.bundle"
    bundle.write_text(json.dumps({"a": zero, "b": bad, "c": _times_two_chain(), "f": empty_maps, "g": empty_maps}))
    for argv in (
        ("chain", "homology", str(path)),
        ("chain", "chi", str(path)),
        ("chain", "qiso", str(good), str(path)),
        ("chain", "pushout", str(bundle)),
    ):
        code, out = run(capsys, *argv)
        assert code == 2, (argv, out)
        assert out.startswith("error=malformed_input") and rule in out, out


def test_chain_files_above_the_cell_ceiling_exit_1_before_building(monkeypatch, tmp_path, capsys):
    """A chain file declaring more cells than the ceiling (the sum of a
    complex's ranks, rows + cols of a matrix) is a domain error, refused
    before any matrix is built; library constructors are not capped."""
    from cutpaste import chains
    from cutpaste.abgroup import IntMatrix

    monkeypatch.setattr(chains, "MAX_FILE_CELLS", 10)
    path = tmp_path / "at_ceiling.chain"
    path.write_text(json.dumps({"lo": 0, "hi": 1, "ranks": [10, 0], "boundaries": [{"rows": 10, "cols": 0, "entries": []}]}))
    code, out = run(capsys, "chain", "homology", str(path))
    assert (code, out) == (0, "degree=0 rank=10 torsion=[]\ndegree=1 rank=0 torsion=[]\n")

    def build(*args, **kwargs):
        raise AssertionError("a matrix was built above the ceiling")

    wide = {"rows": 0, "cols": 11, "entries": []}
    zero = {"lo": 0, "hi": 0, "ranks": [0], "boundaries": []}
    files = {
        "ranks.chain": {"lo": 0, "hi": 1, "ranks": [11, 0], "boundaries": [{"rows": 11, "cols": 0, "entries": []}]},
        "boundary.chain": {"lo": 0, "hi": 1, "ranks": [1, 1], "boundaries": [wide]},
        "maps.bundle": {"a": zero, "b": zero, "c": zero, "f": [wide], "g": [wide]},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    with monkeypatch.context() as m:
        m.setattr(IntMatrix, "__init__", build)
        for argv, what in (
            (("chain", "homology", str(tmp_path / "ranks.chain")), "chain complex"),
            (("chain", "chi", str(tmp_path / "ranks.chain")), "chain complex"),
            (("chain", "qiso", str(tmp_path / "ranks.chain"), str(path)), "chain complex"),
            (("chain", "homology", str(tmp_path / "boundary.chain")), "matrix"),
            (("chain", "pushout", str(tmp_path / "maps.bundle")), "matrix"),
        ):
            code, out = run(capsys, *argv)
            assert code == 1, (argv, out)
            assert out == f"error=domain detail={what} declares 11 cells, above the ceiling of 10\n", (argv, out)
    assert chains.ChainComplex.make(0, 1, [11, 0], [[[]] * 11]).ranks == (11, 0)


def test_chain_qiso(tmp_path, capsys):
    a = {"lo": 0, "hi": 0, "ranks": [1], "boundaries": []}
    b = {
        "lo": 0,
        "hi": 1,
        "ranks": [2, 1],
        "boundaries": [{"rows": 2, "cols": 1, "entries": [1, 0]}],
    }
    pa = tmp_path / "a.chain"
    pb = tmp_path / "b.chain"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code, out = run(capsys, "chain", "qiso", str(pa), str(pb))
    assert code == 0 and "quasi_isomorphic=yes" in out


def test_chain_pushout_file(tmp_path, capsys):
    zero = {"lo": 0, "hi": 0, "ranks": [0], "boundaries": []}
    one = {"lo": 0, "hi": 0, "ranks": [1], "boundaries": []}
    bundle = {
        "a": zero,
        "b": one,
        "c": one,
        "f": [{"rows": 1, "cols": 0, "entries": []}],
        "g": [{"rows": 1, "cols": 0, "entries": []}],
    }
    path = tmp_path / "po.json"
    path.write_text(json.dumps(bundle))
    code, out = run(capsys, "chain", "pushout", str(path))
    assert code == 0
    assert "model=quotient" in out
    assert "degree=0 rank=2 torsion=[]" in out


def _mat(rows, cols, entries):
    return {"rows": rows, "cols": cols, "entries": entries}


def _cx(ranks, *boundaries):
    return {"lo": 0, "hi": len(ranks) - 1, "ranks": ranks, "boundaries": list(boundaries)}


_CIRCLE = _cx([3, 3, 0], _mat(3, 3, [-1, 0, 1, 1, -1, 0, 0, 1, -1]), _mat(3, 0, []))
_DISK = _cx(
    [4, 6, 3],
    _mat(4, 6, [-1, 0, 1, -1, 0, 0, 1, -1, 0, 0, -1, 0, 0, 1, -1, 0, 0, -1, 0, 0, 0, 1, 1, 1]),
    _mat(6, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1, -1, 0, 1, 1, -1, 0, 0, 1, -1]),
)
_CIRCLE_IN_DISK = [
    _mat(4, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]),
    _mat(6, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1] + [0] * 9),
    _mat(3, 0, []),
]
_KERNEL_DIAGONAL = _cx([2, 2], _mat(2, 2, [1, -1, -1, 1]))
_ZERO_Z = _cx([1, 1], _mat(1, 1, [0]))
_ONES = [_mat(2, 1, [1, 1])] * 2
_TIMES_TWO = _cx([1, 1], _mat(1, 1, [2]))


@pytest.mark.parametrize(
    "bundle, expected",
    [
        (
            {"a": _CIRCLE, "b": _DISK, "c": _DISK, "f": _CIRCLE_IN_DISK, "g": _CIRCLE_IN_DISK},
            "model=quotient\ndegree=0 rank=1 torsion=[]\ndegree=1 rank=0 torsion=[]\n"
            "degree=2 rank=1 torsion=[]\n"
            '{"boundaries": [{"cols": 9, "entries": [1, 1, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0, '
            "1, -1, 0, 0, 0, -1, 0, 1, -1, 0, 0, -1, 0, 0, 0, -1, 0, 1, -1, 0, 0, -1, 0, 0, 0, 0, "
            '0, 0, 1, 1, 1], "rows": 5}, {"cols": 6, "entries": [-1, 0, 1, 0, 0, 0, 1, -1, 0, 0, '
            "0, 0, 0, 1, -1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, "
            '0, -1, 0, 1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 1, -1], "rows": 9}], "hi": 2, "lo": 0, '
            '"ranks": [5, 9, 6]}\n',
        ),
        (
            {"a": _ZERO_Z, "b": _KERNEL_DIAGONAL, "c": _ZERO_Z, "f": _ONES, "g": [_mat(1, 1, [1])] * 2},
            "model=quotient\ndegree=0 rank=1 torsion=[]\ndegree=1 rank=1 torsion=[]\n"
            '{"boundaries": [{"cols": 2, "entries": [2, 0, -1, 0], "rows": 2}], "hi": 1, "lo": 0, '
            '"ranks": [2, 2]}\n',
        ),
        (
            {"a": _TIMES_TWO, "b": _TIMES_TWO, "c": _TIMES_TWO, "f": [_mat(1, 1, [3])] * 2, "g": [_mat(1, 1, [1])] * 2},
            "model=cone\ndegree=0 rank=0 torsion=[2]\ndegree=1 rank=0 torsion=[]\n"
            "degree=2 rank=0 torsion=[]\n"
            '{"boundaries": [{"cols": 3, "entries": [2, 0, 3, 0, 2, -1], "rows": 2}, {"cols": 1, '
            '"entries": [3, -1, -2], "rows": 3}], "hi": 2, "lo": 0, "ranks": [2, 3, 1]}\n',
        ),
    ],
    ids=["quotient_monomial", "quotient_smith", "cone"],
)
def test_chain_pushout_output_is_pinned(bundle, expected, tmp_path, capsys):
    """Exact stdout, JSON included, of the three pushout models: quotient
    through a coordinate inclusion, quotient through Smith transforms, and
    the mapping cone.  The matrix storage must not change a byte of it."""
    path = tmp_path / "po.json"
    path.write_text(json.dumps(bundle))
    code, out = run(capsys, "chain", "pushout", str(path))
    assert code == 0
    assert out == expected


def test_euler_chi_and_square(tmp_path, capsys, octa_file):
    code, out = run(capsys, "euler", "chi", octa_file)
    assert code == 0 and "agree=yes" in out
    q = square_from_circles(octahedron(), [equator_circle(octahedron())])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(q.to_json()))
    code, out = run(capsys, "euler", "verify-square", str(path))
    assert code == 0 and "square_check=PASS" in out


def test_failing_square_exits_1(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(sphere_halves_square().to_json()))
    code, out = run(capsys, "euler", "verify-square", str(path))
    assert code == 1, out
    assert out.splitlines()[0] == "square_check=FAIL" and "first_failing_degree=0" in out, out


def test_euler_commute(capsys):
    code, out = run(capsys, "euler", "commute", "--caps", "1,1,1")
    assert code == 0
    assert "commutation=PASS" in out


def test_euler_commute_refuses_oversized_caps(monkeypatch, capsys):
    """Caps spanning more than MAX_COMMUTE_SURFACES standard surfaces are
    refused from the count alone, before any surface is built."""
    import cutpaste
    from cutpaste import cli

    def build(*args):
        raise AssertionError("a surface was built")

    # the command reads the library through the package root
    monkeypatch.setattr(cutpaste, "build_standard", build)
    for caps, count in (("10,9,1", 110), ("1000000000,1000000000,1", (10**9 + 1) ** 2)):
        code, out = run(capsys, "euler", "commute", "--caps", caps)
        assert code == 1, out
        assert out.startswith("error=domain"), out
        assert f"span {count} standard surfaces, above the ceiling of {cli.MAX_COMMUTE_SURFACES}" in out
    # the ceiling itself is admitted, and so are the caps the docs use
    for caps in ("9,9,1", "3,3,3"):
        with pytest.raises(AssertionError, match="a surface was built"):
            main(["euler", "commute", "--caps", caps])


def test_euler_commute_refuses_negative_caps(monkeypatch, capsys):
    """Negative genus or boundary caps are domain errors, refused before any
    surface is built, with no commutation verdict printed."""
    import cutpaste

    def build(*args):
        raise AssertionError("a surface was built")

    # the command reads the library through the package root
    monkeypatch.setattr(cutpaste, "build_standard", build)
    for caps in ("-1,0,0", "0,-1,3"):
        code, out = run(capsys, "euler", "commute", f"--caps={caps}")
        assert code == 1, out
        assert out.startswith("error=domain"), out
        assert "needs nonnegative genus and boundary caps" in out, out
        assert "commutation=" not in out, out


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.surf"
    path.write_text("{not json")
    code, out = run(capsys, "surface", "classify", str(path))
    assert code == 2
    assert "error=malformed_input" in out


@pytest.mark.parametrize("group", ["surface", "sk", "chain", "euler"])
def test_unknown_subcommand_exits_2(group, capsys):
    code, out = run(capsys, group, "frobnicate")
    assert code == 2
    assert out == ""


def test_missing_file_exit_2(capsys):
    code, out = run(capsys, "surface", "classify", "/nonexistent/file.surf")
    assert code == 2


def test_accept_single_fast_criterion(capsys):
    code, out = run(capsys, "accept", "--only", "8")
    assert code == 0
    assert "criterion=8" in out and "status=PASS" in out
    assert "acceptance=PASS" in out


def test_accept_determinism(capsys):
    code1, out1 = run(capsys, "accept", "--only", "8")
    code2, out2 = run(capsys, "accept", "--only", "8")
    assert (code1, out1) == (code2, out2)


def test_invalid_surface_validate_reports(tmp_path, capsys):
    bad = {
        "vertices": 4,
        "triangles": [[0, 1, 2], [0, 1, 3]],
        "gluing": [[[0, 0], [1, 0]]],
    }
    path = tmp_path / "bad.surf"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "surface", "validate", str(path))
    assert code == 1
    assert "violation=" in out and "orientation-reversing" in out


def test_self_glued_edge_is_a_validate_violation(tmp_path, capsys):
    path = tmp_path / "self.surf"
    path.write_text(json.dumps({"vertices": 3, "triangles": [[0, 1, 2]], "gluing": [[[0, 0], [0, 0]]]}))
    code, out = run(capsys, "surface", "validate", str(path))
    assert code == 1
    assert out == "valid=no\nviolation=edge (0, 0) glued to itself\n"


def _edge_index_five(data):
    data["gluing"][0][1][1] = 5


def _vertices_not_int(data):
    data["vertices"] = "x"


def _vertex_id_negative(data):
    data["triangles"] = [[-1 if v == 3 else v for v in t] for t in data["triangles"]]


def _ref_glued_twice(data):
    data["gluing"].append(data["gluing"][0][::-1])


def _vertex_id_float(data):
    data["triangles"][0][1] = 1.5


def _vertex_id_string(data):
    data["triangles"][0][0] = "0"


def _edge_index_float(data):
    data["gluing"][0][1][1] = 2.0


def _triangle_two_ids(data):
    data["triangles"][1] = data["triangles"][1][:2]


def _gluing_triangle_five(data):
    data["gluing"][0][0][0] = 5


def _gluing_triangle_negative(data):
    data["gluing"][0][0][0] = -1


@pytest.mark.parametrize(
    "corrupt, rule",
    [
        (_edge_index_five, "edge index outside 0..2"),
        (_vertices_not_int, "vertices must be a non-negative int"),
        (_vertex_id_negative, "vertex id -1 outside 0..3"),
        (_ref_glued_twice, "glued twice"),
        (_vertex_id_float, "vertex id 1.5 is not a JSON integer"),
        (_vertex_id_string, "vertex id '0' is not a JSON integer"),
        (_edge_index_float, "index that is not a JSON integer"),
        (_triangle_two_ids, "triangle 1 does not have exactly three vertex ids"),
        (_gluing_triangle_five, "has triangle index outside 0..2"),
        (_gluing_triangle_negative, "has triangle index outside 0..2"),
    ],
    ids=[
        "edge_index",
        "vertices_type",
        "vertex_range",
        "glued_twice",
        "vertex_id_float",
        "vertex_id_string",
        "edge_index_float",
        "triangle_two_ids",
        "gluing_triangle_five",
        "gluing_triangle_negative",
    ],
)
def test_malformed_surface_file_exits_2(corrupt, rule, tmp_path, capsys):
    data = fan_disk(3).to_json()
    all_triangles = list(range(len(data["triangles"])))
    corrupt(data)
    path = tmp_path / "bad.surf"
    path.write_text(json.dumps(data))
    square = tmp_path / "bad.square"
    square.write_text(
        json.dumps({"d": data, "b_triangles": all_triangles, "c_triangles": all_triangles})
    )
    for argv in (
        ("surface", "classify", str(path)),
        ("sk", "decide", str(path), str(path)),
        ("euler", "verify-square", str(square)),
    ):
        code, out = run(capsys, *argv)
        assert code == 2, (argv, out)
        assert out.startswith("error=malformed_input") and rule in out, out


def _surface_shape(name):
    data = fan_disk(3).to_json()
    if name == "pair_of_ints":
        data["gluing"] = [[0, 1]]
    elif name == "one_ref":
        data["gluing"] = [[[0, 1]]]
    elif name == "ref_of_three_ids":
        data["gluing"] = [[[0, 1, 5], [0, 2]]]
    elif name == "no_gluing":
        del data["gluing"]
    elif name == "top_level_array":
        data = [data]
    return data


@pytest.mark.parametrize(
    "shape, rule",
    [
        ("pair_of_ints", "gluing entry 0 is not two [triangle, edge] refs: [0, 1]"),
        ("one_ref", "gluing entry 0 is not two [triangle, edge] refs: [[0, 1]]"),
        ("ref_of_three_ids", "gluing entry 0 is not two [triangle, edge] refs: [[0, 1, 5], [0, 2]]"),
        ("no_gluing", "a surface file needs a 'gluing' entry"),
        ("top_level_array", "a surface file is a JSON object with vertices, triangles and gluing"),
    ],
)
def test_malformed_surface_shape_names_its_rule(shape, rule, tmp_path, capsys):
    data = _surface_shape(shape)
    path = tmp_path / "bad.surf"
    path.write_text(json.dumps(data))
    square = tmp_path / "bad.square"
    square.write_text(json.dumps({"d": data, "b_triangles": [0, 1, 2], "c_triangles": [0, 1, 2]}))
    for argv in (
        ("surface", "classify", str(path)),
        ("surface", "validate", str(path)),
        ("sk", "decide", str(path), str(path)),
        ("euler", "verify-square", str(square)),
    ):
        code, out = run(capsys, *argv)
        assert code == 2, (argv, out)
        assert out.startswith("error=malformed_input") and out.rstrip().endswith(rule), out


def test_float_and_string_indices_exit_2(tmp_path, capsys):
    data = fan_disk(3).to_json()
    square = tmp_path / "bad.square"
    square.write_text(json.dumps({"d": data, "b_triangles": [0, 1.7, 2], "c_triangles": [0, 1, 2]}))
    objects = ["O", "X", "Y"]
    basepoint = tmp_path / "basepoint.sq"
    basepoint.write_text(json.dumps({"objects": objects, "basepoint": 0.9, "squares": []}))
    index = tmp_path / "index.sq"
    index.write_text(json.dumps({"objects": objects, "basepoint": 0, "squares": [[0, 1.5, "1", 2]]}))
    for argv, rule in (
        (("euler", "verify-square", str(square)), "triangle index 1.7 is not a JSON integer"),
        (("k0", str(basepoint)), "basepoint 0.9 is not a JSON integer"),
        (("k0", str(index)), "square index 1.5 is not a JSON integer"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2, (argv, out)
        assert out.startswith("error=malformed_input") and rule in out, out


@pytest.mark.parametrize(
    "objects",
    ["ab", {"a": 0, "b": 1}, ["a", 1], ["a", "a"]],
    ids=["string", "object", "number_label", "repeated_label"],
)
def test_squares_objects_must_be_distinct_strings(objects, tmp_path, capsys):
    path = tmp_path / "objects.sq"
    path.write_text(json.dumps({"objects": objects, "basepoint": 0, "squares": []}))
    code, out = run(capsys, "k0", str(path))
    assert code == 2, out
    assert out.startswith("error=malformed_input") and "not a JSON list of pairwise distinct strings" in out, out


@pytest.mark.parametrize(
    "argv, rule",
    [
        (("sk", "k0", "--caps", "2,2,x"), "--caps (genus,boundary,components) takes 3 comma-separated integers"),
        (("sk", "k0", "--caps", "2,2"), "--caps (genus,boundary,components) takes 3 comma-separated integers"),
        (("sk", "exact", "--caps", "2,2.5,2"), "--caps (genus,boundary,components) takes 3 comma-separated integers"),
        (("euler", "commute", "--caps", "1,1,1,1"), "--caps (genus,boundary,components) takes 3 comma-separated integers"),
        (("sk", "skk", "--first", "1,x"), "--first takes comma-separated integers"),
        (("sk", "skk", "--second", "1,"), "--second takes comma-separated integers"),
        (("accept", "--only", "1,x"), "--only takes comma-separated integers"),
    ],
    ids=["caps_letter", "caps_two", "caps_float", "caps_four", "first", "second_empty", "only"],
)
def test_malformed_integer_option_exits_2(argv, rule, capsys):
    code, out = run(capsys, *argv)
    assert code == 2, (argv, out)
    assert out.startswith("error=malformed_input") and rule in out, out


def test_out_of_range_integer_option_exits_1(capsys):
    # well-formed integers that the domain rejects stay domain errors
    for argv in (("sk", "exact", "--caps", "0,0,0"), ("sk", "skk", "--first", "0,0")):
        code, out = run(capsys, *argv)
        assert code == 1, (argv, out)
        assert out.startswith("error=domain"), out


def test_unwritable_out_path_exits_2(octa_file, disk_file, tmp_path, capsys):
    """Every command that writes --out reports a path it cannot write as
    malformed input, in the wording of an unreadable file, with exit 2."""
    refs = json.dumps([list(r) for r in equator_circle(octahedron()).refs])
    cut_path = str(tmp_path / "cut.surf")
    assert run(capsys, "surface", "cut", octa_file, "--circle", refs, "--out", cut_path)[0] == 0
    zero = {"lo": 0, "hi": 0, "ranks": [0], "boundaries": []}
    one = {"lo": 0, "hi": 0, "ranks": [1], "boundaries": []}
    empty = [{"rows": 1, "cols": 0, "entries": []}]
    bundle = tmp_path / "po.json"
    bundle.write_text(json.dumps({"a": zero, "b": one, "c": one, "f": empty, "g": empty}))
    bad = str(tmp_path / "missing" / "out.json")
    for argv in (
        ("surface", "union", octa_file, disk_file),
        ("surface", "cut", octa_file, "--circle", refs),
        ("surface", "paste", cut_path, "--left", "0", "--right", "1"),
        ("surface", "standard", "1", "1"),
        ("chain", "pushout", str(bundle)),
    ):
        code, out = run(capsys, *argv, "--out", bad)
        assert code == 2, (argv, out)
        assert out.splitlines()[-1].startswith(f"error=malformed_input detail=cannot write {bad}: "), out


def test_negative_witness_budget_is_a_domain_error(tmp_path, capsys):
    """A negative --budget is refused before any search, also for equal
    classes, where a budget of 0 returns the empty witness."""
    torus, sphere = tmp_path / "torus.surf", tmp_path / "sphere.surf"
    torus.write_text(json.dumps(build_standard(1, 0).to_json()))
    sphere.write_text(json.dumps(octahedron().to_json()))
    for right in (torus, sphere):
        code, out = run(capsys, "sk", "witness", str(torus), str(right), "--budget", "-3")
        assert code == 1, out
        assert out == "error=domain detail=witness budget must be at least 0, got -3\n"
    code, out = run(capsys, "sk", "witness", str(torus), str(torus), "--budget", "0")
    assert code == 0 and out.startswith("witness_moves=0\n"), out


def test_witness_search_out_of_budget_exits_1(tmp_path, capsys):
    """Torus + sphere and the sphere have the same chi and no boundary, but
    no single move relates them: the search reports exhaustion, which is no
    proof of inequivalence, and exits 1."""
    from cutpaste.surface import DiffeoClass, library_for_class

    left, sphere = tmp_path / "torus_sphere.surf", tmp_path / "sphere.surf"
    left.write_text(json.dumps(library_for_class(DiffeoClass.from_pairs([(1, 0), (0, 0)]))[0].to_json()))
    code, _ = run(capsys, "surface", "standard", "0", "0", "--out", str(sphere))
    assert code == 0
    code, out = run(capsys, "sk", "witness", str(left), str(sphere), "--budget", "1")
    assert (code, out) == (
        1,
        "witness=exhausted\ndetail=no witness within 1 moves (this does not prove inequivalence)\n",
    )


def test_sk_exact_with_one_boundary_circle_per_component(capsys):
    """At a boundary cap of 1 the annulus lies outside the caps, so the
    with-boundary group has no collar square and is not the cut-and-paste
    group.  `sk exact` refuses such caps up front with a domain error that
    names the floor, and prints no report."""
    for caps in ("1,1,1", "2,1,1", "1,1,2", "2,1,2", "2,1,3", "3,1,3"):
        code, out = run(capsys, "sk", "exact", "--caps", caps)
        assert (code, out) == (
            1,
            "error=domain detail=the exact sequence needs a boundary cap of at least 2, got 1: "
            "below it the annulus lies outside the caps, so the with-boundary group has no "
            "collar square\n",
        ), caps


def test_standard_surface_above_the_ceiling_exits_1_before_subdividing(monkeypatch, capsys):
    """genus + boundary above 5,000 is a domain error, refused before the
    base surface is subdivided."""
    from cutpaste import surface

    def subdivide(*args, **kwargs):
        raise AssertionError("subdivision reached above the ceiling")

    monkeypatch.setattr(surface, "subdivide", subdivide)
    for genus, boundary in ((5001, 0), (0, 5001), (2500, 2501), (10**12, 0)):
        code, out = run(capsys, "surface", "standard", str(genus), str(boundary))
        assert code == 1, out
        assert out == (
            f"error=domain detail=genus {genus} plus boundary {boundary} is "
            f"{genus + boundary}, above the ceiling of 5000\n"
        )


def test_oversized_caps_exit_1_before_enumeration(monkeypatch, capsys):
    """Caps above the class ceiling are domain errors, refused before any
    enumerator runs."""
    from cutpaste import sk_groups, squares_k0

    def enumerate_(*args, **kwargs):
        raise AssertionError("enumeration reached for oversized caps")

    monkeypatch.setattr(squares_k0, "classes_within", enumerate_)
    monkeypatch.setattr(sk_groups, "classes_of_types", enumerate_)
    monkeypatch.setattr(sk_groups, "_piece_multisets", enumerate_)
    for sub in ("exact", "k0"):
        code, out = run(capsys, "sk", sub, "--caps", "1000000,1000000,1000000")
        assert code == 1, (sub, out)
        assert out.startswith("error=domain") and "above the ceiling of 10000" in out, out
    code, out = run(capsys, "sk", "exact", "--caps", "1000,1,1")
    assert code == 1 and "gluing-piece multisets" in out, out


def test_square_file_round_trip_verifies(tmp_path, capsys):
    # the square's surface is renumbered when parsed; its subsets follow
    from cutpaste.surface import standard_library

    lib = standard_library(2, 1)
    q = square_from_circles(lib.surface, [lib.seams[0], lib.nulls[0]])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(q.to_json()))
    code, out = run(capsys, "euler", "verify-square", str(path))
    assert code == 0 and "square_check=PASS" in out, out
