"""Graph builders: the named families, seeded random graphs, and isomorphism classes.

Everything here is deterministic: random graphs take explicit seeds.
``iso_distinct`` keeps one graph per isomorphism class, bucketing by
``graphs.refinement_certificate`` and deciding with ``graphs.isomorphic``.
``scheme_corpus`` is the fixed mix of small graphs the partition-scheme
checks run over.
"""

import random
from itertools import combinations

from .graphs import Graph, adjacency_masks, isomorphic, refinement_certificate


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def claw_graph() -> Graph:
    return star_graph(3)


def diamond_graph() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def square_graph() -> Graph:
    return cycle_graph(4)


def chorded_cycle(n: int) -> Graph:
    """The n-cycle with the chord {0, 2}."""
    return Graph(n, [*cycle_graph(n).edges, (0, 2)])


def prism_graph() -> Graph:
    """Two triangles joined by a perfect matching."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def wheel_graph(rim: int) -> Graph:
    """Cycle of ``rim`` vertices plus a hub adjacent to all of them."""
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


def antiprism_graph(k: int) -> Graph:
    """Two k-cycles, each outer vertex joined to two consecutive inner ones."""
    if k < 3:
        raise ValueError("antiprism needs k >= 3")
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((k + i, k + (i + 1) % k))
        edges.append((i, k + i))
        edges.append((i, k + (i + 1) % k))
    return Graph(2 * k, edges)


def octahedron() -> Graph:
    return antiprism_graph(3)


def icosahedron() -> Graph:
    """The 5-regular triangulation on 12 vertices."""
    a = [1, 2, 3, 4, 5]
    b = [6, 7, 8, 9, 10]
    edges = [(0, v) for v in a] + [(11, v) for v in b]
    for j in range(5):
        edges.append((a[j], a[(j + 1) % 5]))
        edges.append((b[j], b[(j + 1) % 5]))
        edges.append((a[j], b[j]))
        edges.append((a[j], b[(j - 1) % 5]))
    return Graph(12, edges)


def line_graph(g: Graph) -> Graph:
    """Vertex per edge of g, adjacent when the edges share an endpoint."""
    es = sorted(g.edges)
    incident = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(es):
        incident[u].append(i)
        incident[v].append(i)
    # Two edges share at most one endpoint, so each pair is found once; sorted,
    # the pairs come in the order of a scan over all pairs of sorted edges.
    out = sorted(pair for edges in incident for pair in combinations(edges, 2))
    return Graph(len(es), out)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus ``extra_edges`` distinct random chords."""
    rng = random.Random(seed)
    edges = set()
    verts = list(range(1, n))
    rng.shuffle(verts)
    reached = [0]
    for v in verts:
        u = rng.choice(reached)
        edges.add((min(u, v), max(u, v)))
        reached.append(v)
    pool = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(pool)
    edges.update(pool[: min(extra_edges, len(pool))])
    return Graph(n, edges)


def iso_distinct(graphs) -> list[Graph]:
    """The first graph of each isomorphism class, in input order.

    Graphs are bucketed by vertex count, edge count and refinement
    certificate, which isomorphic graphs share, and ``isomorphic`` decides
    each entry of a bucket, so a colliding certificate costs an isomorphism
    test and never a wrong answer.
    """
    buckets: dict[tuple, list] = {}
    out = []
    for g in graphs:
        adj = adjacency_masks(g)
        certificate, labels = refinement_certificate(adj)
        bucket = buckets.setdefault((g.n, g.m, certificate), [])
        if not any(isomorphic(adj, labels, *seen) for seen in bucket):
            bucket.append((adj, labels))
            out.append(g)
    return out


def scheme_corpus() -> list[Graph]:
    """Mixed small graphs (not claw-free only) for the partition checks."""
    return [
        complete_graph(3),
        path_graph(4),
        square_graph(),
        claw_graph(),
        diamond_graph(),
        complete_graph(4),
        cycle_graph(5),
        star_graph(4),
        disjoint_union(complete_graph(3), path_graph(2)),
        complete_graph(5),
        prism_graph(),
        random_graph(7, 0.5, seed=11),
        random_graph(8, 0.4, seed=7),
        random_connected_graph(8, 5, seed=23),
    ]
