"""The package root loads each layer on first use.

``import cutpaste`` loads no submodule, and a caller of the groups (K0, the
with-boundary and closed SK groups, their exact sequence) never loads the
triangulated calculus.  Each check runs in a fresh interpreter, since the
test process has long since imported every module.  The bound is on the
modules loaded, so it holds on any host, whatever its speed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cutpaste

SRC = pathlib.Path(cutpaste.__file__).parent.parent

# The names the package root has always exported, by the module that held
# them when every layer was imported eagerly.
ROOT_NAMES = {
    "abgroup": [
        "AbGroupPresentation", "AbHom", "IntMatrix", "IntegerLattice",
        "NormalForm", "SNFResult", "check_exact_at", "smith_normal_form",
    ],
    "chains": [
        "ChainComplex", "ChainMap", "HomologyType", "PushoutResult", "pushout",
        "quasi_iso_type_equal",
    ],
    "euler_functor": [
        "SquareInstance", "chains_of", "coproduct_square", "functor_on_square",
        "pi0_commutation", "square_from_circles",
    ],
    "sk_groups": [
        "MoveStep", "MoveWitness", "SearchExhausted",
        "circles_group", "closed_sk_presentation",
        "decide_equivalent", "doubling_witness", "find_witness", "replay_witness",
        "skk_collapse_check", "verify_exact_sequence",
    ],
    "squares_k0": [
        "Caps", "FiniteSquaresCategory", "SquaresPresentation",
        "check_lemma_hypotheses", "k0_of_surfaces", "k0_presentation",
        "surface_squares_presentation",
    ],
    "surface": [
        "BoundaryGluing", "DiffeoClass", "EmbeddedCircle", "TriSurface", "annulus",
        "build_standard", "cut", "disjoint_union", "double_circle", "fan_disk",
        "mirror", "octahedron", "paste", "paste_cut", "refine_boundary",
        "seven_vertex_torus", "sk_move", "sk_system_move", "subdivide",
    ],
}
ALL_NAMES = sorted(n for names in ROOT_NAMES.values() for n in names)


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter on this checkout's package, warnings
    raised as errors."""
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        input=code,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def fresh_json(code: str):
    out = fresh(code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'cutpaste')"


def test_importing_the_package_loads_no_layer():
    assert fresh_json(f"import json, sys\nimport cutpaste\nprint(json.dumps({LOADED}))") == [
        "cutpaste"
    ]


def test_group_callers_load_no_triangulation_code():
    """K0 and the exact sequence, reached the way a worker reaches them,
    load the group layers and the class module only."""
    code = (
        "import json, sys\n"
        "import cutpaste\n"
        "from cutpaste import sk_groups\n"
        "res = cutpaste.k0_of_surfaces(cutpaste.Caps(3, 2, 3))\n"
        "torus = res.coordinate_of(cutpaste.DiffeoClass.connected(1, 0)).is_zero()\n"
        "rep = sk_groups.verify_exact_sequence(cutpaste.Caps(2, 2, 2))\n"
        f"print(json.dumps([res.free_rank, list(res.torsion), torus, rep.passed, {LOADED}]))\n"
    )
    rank, torsion, torus, passed, loaded = fresh_json(code)
    assert (rank, torsion, torus, passed) == (2, [], True, True)
    assert not {"cutpaste.surface", "cutpaste.chains", "cutpaste.euler_functor"} & set(loaded)
    assert loaded == [
        "cutpaste", "cutpaste.abgroup", "cutpaste.classes", "cutpaste.sk_groups",
        "cutpaste.squares_k0",
    ]


def test_root_names_are_the_objects_of_their_modules():
    """Each name, looked up on a cold root, is the object its old module
    holds and the object of the module that defines it."""
    code = (
        "import importlib, json, sys\n"
        "import cutpaste\n"
        f"table = {ROOT_NAMES!r}\n"
        "got = {n: getattr(cutpaste, n) for names in table.values() for n in names}\n"
        "bad = []\n"
        "for mod, names in table.items():\n"
        "    old = importlib.import_module('cutpaste.' + mod)\n"
        "    for n in names:\n"
        "        home = sys.modules[got[n].__module__]\n"
        "        if got[n] is not getattr(old, n) or got[n] is not getattr(home, n):\n"
        "            bad.append(n)\n"
        "print(json.dumps(bad))\n"
    )
    assert fresh_json(code) == []


def test_root_lists_and_binds_the_same_names():
    from cutpaste import classes, surface

    assert sorted(cutpaste.__all__) == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(cutpaste))
    code = (
        "import json\n"
        "from cutpaste import *\n"
        "import cutpaste\n"
        "names = [n for n in cutpaste.__all__ if globals().get(n) is not getattr(cutpaste, n)]\n"
        "print(json.dumps(names))\n"
    )
    assert fresh_json(code) == []
    assert cutpaste.DiffeoClass is surface.DiffeoClass is classes.DiffeoClass


def test_unknown_root_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cutpaste' has no attribute 'no_such_name'"):
        cutpaste.no_such_name  # noqa: B018
    assert not hasattr(cutpaste, "_no_such_private")


def test_surface_errors_keep_their_hierarchy_and_exit_codes(tmp_path):
    from cutpaste import classes, sk_groups, surface

    assert issubclass(sk_groups.SearchExhausted, surface.SurfaceError)
    for name in (
        "SurfaceError", "InvalidSurface", "NonSeparatingCut", "CircleTouchesBoundary",
        "LengthMismatch", "OrientationClash",
    ):
        assert getattr(surface, name) is getattr(classes, name)
        assert issubclass(getattr(surface, name), ValueError)

    def cli(*argv):
        out = fresh("", "-m", "cutpaste", *argv)
        return out.returncode, out.stdout

    torus, sphere = str(tmp_path / "t10.surf"), str(tmp_path / "s00.surf")
    holed = str(tmp_path / "t11.surf")
    for args, path in (("1 0", torus), ("0 0", sphere), ("1 1", holed)):
        assert cli("surface", "standard", *args.split(), "--out", path)[0] == 0
    self_glued = tmp_path / "self.surf"
    self_glued.write_text(json.dumps({"vertices": 3, "triangles": [[0, 1, 2]], "gluing": [[[0, 0], [0, 0]]]}))
    assert cli("sk", "witness", torus, sphere, "--budget", "0") == (
        1,
        "witness=exhausted\ndetail=no witness within 0 moves (this does not prove inequivalence)\n",
    )
    assert cli("surface", "classify", str(self_glued)) == (
        1, "error=domain detail=edge (0, 0) glued to itself\n"
    )
    assert cli("surface", "cut", holed, "--circle", "[[0,0]]") == (
        1, "error=domain detail=circle edges 0 and 0 do not chain\n"
    )
    assert cli("surface", "paste", holed, "--left", "0", "--right", "0") == (
        1, "error=domain detail=cannot glue a boundary circle to itself and stay oriented\n"
    )
