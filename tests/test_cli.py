"""CLI smoke tests: exit codes, structured output, determinism."""

import json

import pytest

from cutpaste.cli import main
from cutpaste.euler_functor import square_from_circles
from cutpaste.surface import build_standard, fan_disk, octahedron

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
    assert "exact_at_middle=FAIL" in out


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


def test_k0_presentation_file(tmp_path, capsys):
    pres = {"objects": ["O", "X"], "basepoint": 0, "squares": []}
    path = tmp_path / "pres.sq"
    path.write_text(json.dumps(pres))
    code, out = run(capsys, "k0", str(path))
    assert code == 0
    assert "group=Z" in out.splitlines()[0]


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
    code, out = run(capsys, "chain", "homology", str(path))
    assert code == 1
    assert "boundary composite does not vanish" in out


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


def test_euler_chi_and_square(tmp_path, capsys, octa_file):
    code, out = run(capsys, "euler", "chi", octa_file)
    assert code == 0 and "agree=yes" in out
    q = square_from_circles(octahedron(), [equator_circle(octahedron())])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(q.to_json()))
    code, out = run(capsys, "euler", "verify-square", str(path))
    assert code == 0 and "square_check=PASS" in out


def test_euler_commute(capsys):
    code, out = run(capsys, "euler", "commute", "--caps", "1,1,1")
    assert code == 0
    assert "commutation=PASS" in out


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.surf"
    path.write_text("{not json")
    code, out = run(capsys, "surface", "classify", str(path))
    assert code == 2
    assert "error=malformed_input" in out


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
    ],
    ids=[
        "edge_index",
        "vertices_type",
        "vertex_range",
        "glued_twice",
        "vertex_id_float",
        "vertex_id_string",
        "edge_index_float",
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
