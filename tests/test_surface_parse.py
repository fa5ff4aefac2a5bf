"""Which rule ``TriSurface.parse_json`` names first on a file with several faults.

The file is ``fan_disk(3)``: 4 vertices, triangles [0,1,2], [0,3,1],
[0,2,3], and glued pairs (0,0)~(1,2), (0,2)~(2,0), (1,0)~(2,2).  The
expected messages were recorded from the ref-dict parser that read each
gluing pair into a ``dict[Ref, Ref]``; the flat parser must report the
same rule first.  Its order: the vertex count, the triangles' shapes and
vertex ids, then each gluing entry in file order (shape, integers, a ref
glued twice), then triangle sizes, then ref ranges in file order.
"""

import copy

import pytest

from cutpaste.surface import TriSurface

BASE = {
    "vertices": 4,
    "triangles": [[0, 1, 2], [0, 3, 1], [0, 2, 3]],
    "gluing": [[[0, 0], [1, 2]], [[0, 2], [2, 0]], [[1, 0], [2, 2]]],
}
T = BASE["triangles"]
G = BASE["gluing"]


def _file(**changes):
    data = copy.deepcopy(BASE)
    data.update(changes)
    return data


def _without(key):
    return {k: copy.deepcopy(v) for k, v in BASE.items() if k != key}


MULTI_FAULT = {
    "glued_twice_and_two_id_triangle": (
        _file(triangles=[T[0], T[1][:2], T[2]], gluing=G + [[[0, 0], [2, 0]]]),
        "gluing pair (0, 0)~(2, 0) has a ref that is glued twice",
    ),
    "non_int_after_ref_out_of_range": (
        _file(gluing=[[[7, 0], [0, 2]], [[1, 1.0], [2, 2]]]),
        "gluing pair (1, 1.0)~(2, 2) holds an index that is not a JSON integer",
    ),
    "bool_index_after_ref_out_of_range": (
        _file(gluing=[[[0, 2], [1, 0]], [[9, 1], [2, 2]], [[1, 1], [True, 0]]]),
        "gluing pair (1, 1)~(True, 0) holds an index that is not a JSON integer",
    ),
    "glued_twice_after_pairing_with_a_ref_out_of_range": (
        _file(gluing=[[[0, 5], [1, 0]], [[0, 2], [1, 0]]]),
        "gluing pair (0, 2)~(1, 0) has a ref that is glued twice",
    ),
    "ref_out_of_range_glued_twice": (
        _file(gluing=[[[9, 1], [0, 0]], [[9, 1], [1, 0]]]),
        "gluing pair (9, 1)~(1, 0) has a ref that is glued twice",
    ),
    "ref_glued_to_itself_then_again": (
        _file(gluing=[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]),
        "gluing pair (0, 0)~(1, 0) has a ref that is glued twice",
    ),
    "glued_twice_on_the_second_ref": (
        _file(gluing=[[[0, 2], [1, 0]], [[2, 1], [1, 0]]]),
        "gluing pair (2, 1)~(1, 0) has a ref that is glued twice",
    ),
    "non_int_before_glued_twice": (
        _file(gluing=[[[0, 2], [1, 0]], [[0, "2"], [1, 0]], [[0, 2], [2, 0]]]),
        "gluing pair (0, '2')~(1, 0) holds an index that is not a JSON integer",
    ),
    "glued_twice_before_a_malformed_entry": (
        _file(gluing=[[[0, 2], [1, 0]], [[2, 1], [1, 0]], [0, 1]]),
        "gluing pair (2, 1)~(1, 0) has a ref that is glued twice",
    ),
    "malformed_entry_before_non_int": (
        _file(gluing=[[[0, 2]], [[0, 2.5], [1, 0]]]),
        "gluing entry 0 is not two [triangle, edge] refs: [[0, 2]]",
    ),
    "two_id_triangle_and_ref_out_of_range": (
        _file(triangles=[T[0], T[1], T[2][:2]], gluing=[[[0, 5], [1, 0]]]),
        "triangle 2 does not have exactly three vertex ids",
    ),
    "four_ids_before_two_ids": (
        _file(triangles=[T[0] + [1], T[1][:2], T[2]]),
        "triangle 0 does not have exactly three vertex ids",
    ),
    "vertex_out_of_range_and_glued_twice": (
        _file(triangles=[T[0], [0, 1, 9], T[2]], gluing=G + [[[0, 0], [2, 0]]]),
        "vertex id 9 outside 0..3",
    ),
    "vertex_out_of_range_before_float_vertex": (
        _file(triangles=[[0, 9, 1], [0, 1.5, 2], T[2]]),
        "vertex id 9 outside 0..3",
    ),
    "vertex_count_before_vertex_ids": (
        _file(vertices=-1, triangles=[[0, 9, 1], T[1], T[2]]),
        "vertices must be a non-negative int, got -1",
    ),
    "edge_index_before_triangle_index_in_one_pair": (
        _file(gluing=[[[0, 4], [-1, 0]]]),
        "gluing ref (0, 4) has edge index outside 0..2",
    ),
    "triangle_index_and_edge_index_in_one_ref": (
        _file(gluing=[[[3, 4], [0, 0]]]),
        "gluing ref (3, 4) has triangle index outside 0..2",
    ),
    "first_ref_out_of_range_in_file_order": (
        _file(gluing=[[[0, 2], [5, 0]], [[-1, 0], [1, 0]]]),
        "gluing ref (5, 0) has triangle index outside 0..2",
    ),
    "edge_index_three_is_not_the_next_triangle": (
        _file(gluing=[[[0, 3], [2, 0]], [[1, 0], [2, 1]]]),
        "gluing ref (0, 3) has edge index outside 0..2",
    ),
    "negative_edge_index": (
        _file(gluing=[[[1, -1], [0, 0]]]),
        "gluing ref (1, -1) has edge index outside 0..2",
    ),
    "ref_out_of_range_glued_to_itself": (
        _file(gluing=[[[9, 1], [9, 1]]]),
        "gluing ref (9, 1) has triangle index outside 0..2",
    ),
    "vertex_id_before_missing_gluing": (
        {"vertices": 4, "triangles": [T[0], [0, 1, 9], T[2]]},
        "vertex id 9 outside 0..3",
    ),
    "missing_gluing_before_two_id_triangle": (
        {"vertices": 4, "triangles": [T[0], T[1][:2], T[2]]},
        "a surface file needs a 'gluing' entry",
    ),
}


@pytest.mark.parametrize("data, message", MULTI_FAULT.values(), ids=MULTI_FAULT.keys())
def test_first_broken_rule_is_named(data, message):
    with pytest.raises(ValueError) as exc:
        TriSurface.parse_json(data)
    assert str(exc.value) == message


MALFORMED = {
    "entry_of_two_ints": (_file(gluing=[[0, 1]]), "gluing entry 0 is not two [triangle, edge] refs: [0, 1]"),
    "entry_of_one_ref": (_file(gluing=[[[0, 1]]]), "gluing entry 0 is not two [triangle, edge] refs: [[0, 1]]"),
    "ref_of_three_ids": (
        _file(gluing=[[[0, 1, 5], [0, 2]]]),
        "gluing entry 0 is not two [triangle, edge] refs: [[0, 1, 5], [0, 2]]",
    ),
    "entry_of_three_refs": (
        _file(gluing=G + [[[0, 1], [1, 1], [2, 1]]]),
        "gluing entry 3 is not two [triangle, edge] refs: [[0, 1], [1, 1], [2, 1]]",
    ),
    "ref_not_a_list": (_file(gluing=[[[0, 2], 5]]), "gluing entry 0 is not two [triangle, edge] refs: [[0, 2], 5]"),
    "gluing_not_a_list": (_file(gluing=5), "gluing must be a list of ref pairs, got 5"),
    "gluing_null": (_file(gluing=None), "gluing must be a list of ref pairs, got None"),
    "no_gluing": (_without("gluing"), "a surface file needs a 'gluing' entry"),
    "no_triangles": (_without("triangles"), "a surface file needs a 'triangles' entry"),
    "no_vertices": (_without("vertices"), "a surface file needs a 'vertices' entry"),
    "triangles_not_a_list": (_file(triangles=3), "triangles must be a list of vertex id lists, got 3"),
    "triangle_not_a_list": (_file(triangles=[T[0], 7, T[2]]), "triangle 1 is not a list of vertex ids: 7"),
    "top_level_array": ([BASE], "a surface file is a JSON object with vertices, triangles and gluing"),
    "top_level_string": ("surface", "a surface file is a JSON object with vertices, triangles and gluing"),
}


@pytest.mark.parametrize("data, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_shapes_name_their_rule(data, message):
    with pytest.raises(ValueError) as exc:
        TriSurface.parse_json(data)
    assert str(exc.value) == message


def test_base_file_parses():
    s = TriSurface.from_json(copy.deepcopy(BASE))
    assert s.require_valid().triangle_count == 3
