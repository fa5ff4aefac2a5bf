"""Reference gluings for the tests.

``glue_class_components`` glues two disjoint unions along a bipartite
multigraph of circle pairs with its own union-find.  It is the oracle of
the closed group's gluing blocks (``sk_groups._gluing_results``) and of the
claim in ``squares_k0`` that collar squares between connected pieces,
with the disjoint-union squares, cover the gluings of disconnected
objects.

``all_gluing_rows`` evaluates every piece pair and keeps every distinct
gluing-difference row, where the closed record keeps a spanning forest of
them; ``all_rows_closed_record`` is the closed record with those rows.
"""

from dataclasses import replace

from cutpaste import sk_groups
from cutpaste.classes import DiffeoClass
from cutpaste.squares_k0 import Caps, classes_of_types


def glue_class_components(
    left: DiffeoClass, right: DiffeoClass, edges
) -> DiffeoClass:
    """Gluing along a bipartite multigraph: edges are (left component index,
    right component index) pairs, one per glued circle pair; degrees may not
    exceed the boundary-circle counts."""
    ln = left.component_count
    nodes = list(left.components) + list(right.components)
    deg = [0] * len(nodes)
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_list = []
    for i, j in edges:
        a, b = i, ln + j
        deg[a] += 1
        deg[b] += 1
        edge_list.append((a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    for x, (g, b) in enumerate(nodes):
        if deg[x] > b:
            raise ValueError("component does not have enough boundary circles")
    groups: dict[int, list[int]] = {}
    for x in range(len(nodes)):
        groups.setdefault(find(x), []).append(x)
    edge_count: dict[int, int] = {}
    for a, b in edge_list:
        edge_count[find(a)] = edge_count.get(find(a), 0) + 1
    pairs = []
    for root, members in groups.items():
        chi = sum(2 - 2 * nodes[x][0] - nodes[x][1] for x in members)
        b = sum(nodes[x][1] for x in members) - 2 * edge_count.get(root, 0)
        g2 = 2 - chi - b
        if b < 0 or g2 < 0 or g2 % 2:
            raise ValueError("gluing pattern does not produce oriented surfaces")
        pairs.append((g2 // 2, b))
    return DiffeoClass.from_pairs(pairs)


def all_gluing_rows(caps: Caps) -> tuple:
    """Every distinct difference row [r1] - [r2] between consecutive sorted
    gluing results of every piece pair, in first-seen order.  The piece
    bounds and ``_gluing_results`` are read from ``sk_groups`` on each call,
    so a patched bound or a counting wrapper applies."""
    classes = classes_of_types([(g, 0) for g in range(caps.genus + 1)], caps.components)
    index = {c: i for i, c in enumerate(classes)}
    rows = {}
    for _, combos in sorted(sk_groups._piece_multisets(caps).items()):
        for x, left in enumerate(combos):
            for right in combos[x:]:
                results = sorted(sk_groups._gluing_results(left, right, caps))
                for r1, r2 in zip(results, results[1:]):
                    rows[(index[r1], 1), (index[r2], -1)] = None
    return tuple(rows)


def all_rows_closed_record(caps: Caps):
    """The closed record with every distinct gluing row in place of its
    spanning forest."""
    return replace(sk_groups.closed_sk_presentation(caps), relations=all_gluing_rows(caps))
