"""The fixed graph families and seeded batches the test suites run over.

Everything here is deterministic: random graphs and orderings take explicit
seeds, and each corpus is built the same way, in the same order, on every
call. The graphs come from the builders in ``chromadisk.corpus``, and
``corpus.iso_distinct`` keeps one graph per isomorphism class.
``all_graphs_up_to_iso`` memoises its classes for the test process, since
several suites walk every graph on up to six vertices.
"""

import functools
import random
from itertools import combinations

from chromadisk.corpus import (
    antiprism_graph,
    chorded_cycle,
    complete_graph,
    cycle_graph,
    diamond_graph,
    icosahedron,
    iso_distinct,
    line_graph,
    octahedron,
    path_graph,
    prism_graph,
    random_connected_graph,
    random_graph,
    wheel_graph,
)
from chromadisk.graphs import Graph, adjacency_masks, classify, is_claw_free


def random_ordering(n: int, seed: int) -> list[int]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def components(adj) -> list[int]:
    """Vertex bitmasks of the connected components, by least vertex."""
    out = []
    rest = (1 << len(adj)) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


@functools.cache
def all_graphs_up_to_iso(n: int) -> tuple[Graph, ...]:
    """Every isomorphism class on exactly n vertices; intended for n <= 6."""
    pairs = list(combinations(range(n), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        graphs.append(Graph(n, edges))
    return tuple(iso_distinct(graphs))


def connected_graphs_with_edges(m_max: int) -> list[Graph]:
    """Connected graphs with 1..m_max edges, one per isomorphism class.

    A connected graph with m edges has at most m + 1 vertices, so scanning
    vertex counts up to m_max + 1 is exhaustive.
    """
    out = []
    for n in range(2, m_max + 2):
        for g in all_graphs_up_to_iso(n):
            if 1 <= g.m <= m_max and len(components(adjacency_masks(g))) == 1:
                out.append(g)
    return out


def claw_free_corpus() -> list[Graph]:
    """Claw-free graphs on at most 8 vertices for the merge-obstruction checks."""
    cands = [
        complete_graph(3),
        complete_graph(4),
        complete_graph(5),
        diamond_graph(),
        path_graph(4),
        path_graph(6),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        cycle_graph(7),
        cycle_graph(8),
        chorded_cycle(7),
        octahedron(),
        prism_graph(),
    ]
    cands += connected_line_graph_family(max_line_vertices=8)
    return iso_distinct([g for g in cands if is_claw_free(g)])


def connected_line_graph_family(max_line_vertices: int = 8) -> list[Graph]:
    """Line graphs of all connected graphs with up to 5 edges, plus two
    seeded 6-edge ones."""
    hs = connected_graphs_with_edges(5)
    hs.append(random_connected_graph(5, 2, seed=3))
    hs.append(random_connected_graph(6, 1, seed=5))
    out = [line_graph(h) for h in hs]
    return [g for g in out if 1 <= g.n <= max_line_vertices]


def g1_corpus() -> list[Graph]:
    """Claw-free, square-free, diamond-free graphs on at most 8 vertices."""
    cands = [
        complete_graph(2),
        complete_graph(3),
        complete_graph(4),
        complete_graph(5),
        complete_graph(6),
        path_graph(3),
        path_graph(5),
        path_graph(7),
        cycle_graph(5),
        cycle_graph(6),
        cycle_graph(7),
        cycle_graph(8),
        chorded_cycle(7),
        chorded_cycle(8),
    ]
    return iso_distinct([g for g in cands if classify(g).class_index == 1])


def certificate_corpus() -> list[Graph]:
    """Claw-free graphs on at most 12 vertices with max degree >= 3 for the
    zero-free disk checks."""
    cands = [
        complete_graph(4),
        complete_graph(5),
        complete_graph(6),
        complete_graph(7),
        diamond_graph(),
        chorded_cycle(7),
        chorded_cycle(9),
        octahedron(),
        prism_graph(),
        wheel_graph(5),
        antiprism_graph(4),
        line_graph(complete_graph(5)),
        line_graph(random_connected_graph(6, 2, seed=17)),
        line_graph(random_connected_graph(7, 1, seed=29)),
    ]
    cands += connected_line_graph_family(max_line_vertices=12)
    cands.append(icosahedron())
    return iso_distinct([g for g in cands if g.max_degree() >= 3 and is_claw_free(g)])


def random_graph_batch(count: int = 200, sizes=(6, 7, 8)) -> list[Graph]:
    """Seeded random graphs cycling through the given sizes and densities."""
    densities = (0.3, 0.5, 0.7)
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = densities[(i // len(sizes)) % len(densities)]
        out.append(random_graph(n, p, seed=1000 + i))
    return out
