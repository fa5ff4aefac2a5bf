"""Reference gluing of whole classes for the tests.

``glue_class_components`` glues two disjoint unions along a bipartite
multigraph of circle pairs with its own union-find.  It is the oracle of
the closed group's gluing blocks (``sk_groups._gluing_results``) and of the
claim in ``squares_k0`` that collar squares between connected pieces,
with the disjoint-union squares, cover the gluings of disconnected
objects.
"""

from cutpaste.classes import DiffeoClass


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
