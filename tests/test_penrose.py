import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from chromadisk import (
    ConditioningError,
    ContractViolationError,
    EnumerationCapError,
    Forest,
    Graph,
    IntPolynomial,
    RootedTreeView,
    VertexOrdering,
    chromatic_deletion_contraction,
    chromatic_to_forest,
    chromatic_via_penrose,
    enumerate_penrose_forests,
    forest_polynomial,
    forest_to_chromatic,
    is_penrose_forest,
    is_penrose_tree,
    obstruction_check,
    penrose,
    penrose_closure,
    penrose_polynomial,
    penrose_tree_series,
    penrose_trees_containing,
    ratio_R,
    verify_partition_scheme,
)
from chromadisk.corpus import (
    antiprism_graph,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    icosahedron,
    octahedron,
    path_graph,
    random_connected_graph,
    random_graph,
    scheme_corpus,
)
from chromadisk.graphs import adjacency_masks
from corpora import all_graphs_up_to_iso, random_ordering
from oracles import (
    brute_force_penrose_forests,
    brute_force_penrose_trees_containing,
    brute_force_trees_containing,
    is_forest_edge_set,
    spanning_tree_total,
    verify_partition_scheme_scan,
)


def k3():
    return complete_graph(3)


def nat(n):
    return VertexOrdering.natural(n)


class TestOrdering:
    def test_natural(self):
        o = nat(4)
        assert o.order == (0, 1, 2, 3)
        assert o.rank == (0, 1, 2, 3)

    def test_from_order_builds_rank(self):
        o = VertexOrdering.from_order([2, 0, 1])
        assert o.rank == (1, 2, 0)

    def test_from_order_rejects_non_permutation(self):
        with pytest.raises(ContractViolationError):
            VertexOrdering.from_order([0, 0, 1])

    def test_anchored_at_puts_neighbors_first(self):
        g = Graph(5, [(2, 0), (2, 4), (1, 3)])
        o = VertexOrdering.anchored_at(g, 2)
        assert o.order[0] == 2
        assert set(o.order[1:3]) == {0, 4}
        assert set(o.order[3:]) == {1, 3}

    def test_anchored_at_pair(self):
        g = cycle_graph(5)
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 4)
        assert o.order[:3] == (0, 1, 4)

    @pytest.mark.parametrize("u", [-1, 9])
    def test_anchor_outside_graph(self, u):
        g = cycle_graph(4)
        with pytest.raises(ContractViolationError, match=f"vertex {u} "):
            VertexOrdering.anchored_at(g, u)
        with pytest.raises(ContractViolationError, match=f"vertex {u} "):
            VertexOrdering.anchored_at_pair(g, u, 1, 3)

    def test_anchored_at_pair_rejects_non_neighbor(self):
        g = cycle_graph(5)
        with pytest.raises(ContractViolationError):
            VertexOrdering.anchored_at_pair(g, 0, 1, 2)

    def test_least(self):
        o = VertexOrdering.from_order([3, 1, 0, 2])
        assert o.least({0, 1, 2}) == 1


class TestRootedTreeView:
    def test_depth_and_father_maps(self):
        g = path_graph(4)
        t = RootedTreeView(g, nat(4), [(0, 1), (1, 2), (2, 3)])
        assert t.root == 0
        assert t.depth == {0: 0, 1: 1, 2: 2, 3: 3}
        assert t.father == {1: 0, 2: 1, 3: 2}

    def test_root_is_least_by_ordering(self):
        g = path_graph(3)
        t = RootedTreeView(g, VertexOrdering.from_order([2, 1, 0]), [(0, 1), (1, 2)])
        assert t.root == 2
        assert t.depth[0] == 2

    def test_rejects_cycle(self):
        with pytest.raises(ContractViolationError):
            RootedTreeView(k3(), nat(3), [(0, 1), (1, 2), (0, 2)])

    def test_rejects_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ContractViolationError):
            RootedTreeView(g, nat(4), [(0, 1), (2, 3)])

    def test_rejects_non_graph_edge(self):
        with pytest.raises(ContractViolationError):
            RootedTreeView(path_graph(3), nat(3), [(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            RootedTreeView(path_graph(3), nat(3), [])


class TestClosure:
    def test_k3_star_gains_equal_depth_edge(self):
        clo = penrose_closure(k3(), nat(3), [(0, 1), (0, 2)])
        assert clo == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_k3_path_is_fixed_point(self):
        clo = penrose_closure(k3(), nat(3), [(0, 1), (1, 2)])
        assert clo == frozenset({(0, 1), (1, 2)})

    def test_no_chords_means_no_additions(self):
        g = path_graph(4)
        edges = frozenset({(0, 1), (1, 2), (2, 3)})
        assert penrose_closure(g, nat(4), edges) == edges

    def test_father_order_direction(self):
        # path 1-0-2 rooted at 0 under 0<1<2; chord {1,2} sits at equal depth
        clo = penrose_closure(k3(), nat(3), [(0, 1), (0, 2)])
        assert (1, 2) in clo
        # same tree under order 1<0<2 roots at 1, depths 0,1,2: chord skips a level
        o = VertexOrdering.from_order([1, 0, 2])
        clo2 = penrose_closure(k3(), o, [(0, 1), (0, 2)])
        assert clo2 == frozenset({(0, 1), (0, 2)})

    def test_depth_one_apart_uses_father_rank(self):
        # cycle 0-1-3-2-0, tree {01,02,13}: chord {2,3} spans depths 1 and 2
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        tree = [(0, 1), (0, 2), (1, 3)]
        # natural order: shallow end 2 comes after father(3) = 1, chord joins
        clo = penrose_closure(g, nat(4), tree)
        assert clo == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
        # swap 1 and 2 in the order and the same chord no longer qualifies
        o = VertexOrdering.from_order([0, 2, 1, 3])
        assert penrose_closure(g, o, tree) == frozenset(tree)


class TestPenroseRecognition:
    def test_k3_examples(self):
        assert not is_penrose_tree(k3(), nat(3), [(0, 1), (0, 2)])
        assert is_penrose_tree(k3(), nat(3), [(0, 1), (1, 2)])

    def test_empty_forest_is_penrose(self):
        assert is_penrose_forest(k3(), nat(3), [])

    def test_forest_componentwise(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        assert is_penrose_forest(g, nat(6), [(0, 1), (1, 2), (3, 4)])
        assert not is_penrose_forest(g, nat(6), [(0, 1), (0, 2), (3, 4)])

    def test_forest_factorization_matches_componentwise_closure(self):
        g = random_graph(7, 0.5, seed=2)
        o = nat(7)
        for forest in enumerate_penrose_forests(g):
            # closure of the whole forest is the union of component closures
            union = frozenset()
            for comp in forest.components:
                union |= penrose_closure(g, o, comp)
            assert union == forest.edges


class TestForestType:
    def test_components_split(self):
        f = Forest.from_edges([(0, 1), (2, 3), (3, 4)])
        assert f.n_trees == 2
        assert frozenset({(2, 3), (3, 4)}) in f.components

    def test_empty_forest(self):
        f = Forest.from_edges([])
        assert f.n_trees == 0
        assert f.vertices == frozenset()

    def test_rejects_cycle(self):
        with pytest.raises(ContractViolationError):
            Forest.from_edges([(0, 1), (1, 2), (0, 2)])


class TestEnumeration:
    def test_k3_forest_counts(self):
        assert penrose_polynomial(k3()).coeffs == (1, 3, 2)

    def test_single_vertex(self):
        assert penrose_polynomial(Graph(1, [])).coeffs == (1,)

    def test_single_edge(self):
        assert penrose_polynomial(Graph(2, [(0, 1)])).coeffs == (1, 1)

    def test_enumeration_matches_polynomial(self):
        g = random_graph(6, 0.6, seed=9)
        counts = {}
        for f in enumerate_penrose_forests(g):
            counts[len(f.edges)] = counts.get(len(f.edges), 0) + 1
        p = penrose_polynomial(g)
        assert counts == {k: p.coeff(k) for k in range(p.degree + 1) if p.coeff(k)}

    def test_forests_unique(self):
        g = random_graph(6, 0.5, seed=31)
        seen = [f.edges for f in enumerate_penrose_forests(g)]
        assert len(seen) == len(set(seen))

    def test_exhaustive_against_brute_force_small(self):
        for n in range(1, 6):
            for g in all_graphs_up_to_iso(n):
                for seed in (0, 1):
                    o = VertexOrdering.from_order(random_ordering(n, seed + 10 * n))
                    got = [f.edges for f in enumerate_penrose_forests(g, o)]
                    want = brute_force_penrose_forests(g, o)
                    assert len(got) == len(set(got))
                    assert set(got) == set(want)

    def test_cap_refused_eagerly(self):
        big = Graph(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(EnumerationCapError):
            enumerate_penrose_forests(big)
        with pytest.raises(EnumerationCapError):
            penrose_polynomial(big)

    def test_counting_bound_forests_majorize(self):
        g = random_graph(6, 0.5, seed=12)
        p = penrose_polynomial(g)
        es = sorted(g.edges)
        for k in range(p.degree + 1):
            all_forests = sum(1 for sub in combinations(es, k) if is_forest_edge_set(sub))
            assert p.coeff(k) <= all_forests


def _general_v_cases():
    # v is not order-least, so trees through v have roots before it
    cases = [(g, nat(5), 3, None) for g in all_graphs_up_to_iso(5)]
    for seed in range(8):
        n = 6 + seed % 2
        g = random_graph(n, 0.5, seed=seed)
        o = VertexOrdering.from_order(random_ordering(n, 50 + seed))
        v = o.order[n // 2]
        rng = random.Random(seed)
        allowed = {v, rng.choice(o.order[: n // 2]), *rng.sample(range(n), n - 3)}
        cases += [(g, o, v, None), (g, o, v, allowed)]
    return cases


class TestTreesContaining:
    def test_fast_path_matches_brute_force(self):
        for n in (4, 5):
            for g in all_graphs_up_to_iso(n):
                o = nat(n)
                got = list(penrose_trees_containing(g, o, 0))
                want = brute_force_penrose_trees_containing(g, o, 0)
                assert len(got) == len(set(got))
                assert set(got) == set(want)

    def test_general_path_matches_brute_force(self):
        for g, o, v, allowed in _general_v_cases():
            got = list(penrose_trees_containing(g, o, v, allowed=allowed))
            want = brute_force_penrose_trees_containing(g, o, v, allowed)
            assert len(got) == len(set(got))
            assert set(got) == set(want)

    def test_tree_series_is_edge_count_histogram(self):
        # the series counts the walk's bitmasks, the trees route its edges
        for g, o, v, allowed in _general_v_cases():
            sizes = Counter(map(len, penrose_trees_containing(g, o, v, allowed=allowed)))
            want = tuple(sizes[k] for k in range(max(sizes) + 1))
            assert penrose_tree_series(g, o, v, allowed=allowed) == want

    def test_allowed_restriction(self):
        g = complete_graph(5)
        o = nat(5)
        allowed = {0, 1, 2}
        for t in penrose_trees_containing(g, o, 0, allowed=allowed):
            assert {x for e in t for x in e} <= allowed

    def test_subtree_growth_covers_all_trees(self):
        # sanity for the underlying grower: every subtree through v, no dups
        g = random_graph(6, 0.6, seed=5)
        o = nat(6)
        got = list(penrose_trees_containing(g, o, 0))
        assert len(got) == len(set(got))
        brute = brute_force_trees_containing(g, 0)
        penrose_brute = {t for t in brute if not t or is_penrose_tree(g, o, t)}
        assert set(got) == penrose_brute

    def test_streams_trees(self):
        # K8 has 13,700 Penrose trees rooted at 0; keeping them all as tuples
        # peaks near 2.8 MB, streaming them at a few KB
        g = complete_graph(8)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            count = sum(1 for _ in penrose_trees_containing(g, nat(8), 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert count == 13700
        assert peak < 256 * 1024

    def test_v_must_be_allowed(self):
        with pytest.raises(ContractViolationError):
            penrose_trees_containing(k3(), nat(3), 0, allowed={1, 2})

    @pytest.mark.parametrize("stray", [-1, 99])
    def test_allowed_vertex_outside_graph(self, stray):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ContractViolationError, match=f"vertex {stray} "):
            penrose_trees_containing(g, nat(4), 1, allowed={0, 1, 2, stray})


_PATH = [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("size", [3, 6], ids=["short", "long"])
@pytest.mark.parametrize(
    "call",
    [
        penrose_polynomial,
        verify_partition_scheme,
        lambda g, o: list(penrose_trees_containing(g, o, 0)),
        lambda g, o: is_penrose_tree(g, o, _PATH),
        lambda g, o: penrose_closure(g, o, _PATH),
        lambda g, o: is_penrose_forest(g, o, _PATH),
        lambda g, o: RootedTreeView(g, o, _PATH),
        enumerate_penrose_forests,
        lambda g, o: obstruction_check(g, o, 3, (0, 1), [(0, 2)]),
    ],
    ids=[
        "penrose_polynomial",
        "verify_partition_scheme",
        "penrose_trees_containing",
        "is_penrose_tree",
        "penrose_closure",
        "is_penrose_forest",
        "RootedTreeView",
        "enumerate_penrose_forests",
        "obstruction_check",
    ],
)
def test_ordering_must_cover_the_graph(call, size):
    with pytest.raises(ContractViolationError):
        call(complete_graph(4), nat(size))


class TestChromaticIdentity:
    def test_k3(self):
        assert chromatic_via_penrose(k3()).coeffs == (0, 2, -3, 1)

    def test_single_edge(self):
        assert chromatic_via_penrose(Graph(2, [(0, 1)])).coeffs == (0, -1, 1)

    def test_c5(self):
        p = chromatic_via_penrose(cycle_graph(5))
        assert p.coeffs == (0, 4, -10, 10, -5, 1)

    def test_matches_oracle_up_to_4_vertices(self):
        for n in range(1, 5):
            for g in all_graphs_up_to_iso(n):
                assert chromatic_via_penrose(g) == chromatic_deletion_contraction(g)

    def test_ordering_invariance(self):
        for seed, g in [(3, random_graph(6, 0.5, seed=21)), (4, cycle_graph(6))]:
            base = penrose_polynomial(g)
            for k in range(5):
                o = VertexOrdering.from_order(random_ordering(g.n, seed * 100 + k))
                assert penrose_polynomial(g, o) == base

    def test_transforms_roundtrip(self):
        g = random_graph(6, 0.5, seed=8)
        p = chromatic_deletion_contraction(g)
        f = chromatic_to_forest(p)
        assert forest_to_chromatic(f, g.n) == p
        assert all(c >= 0 for c in f.coeffs)

    def test_chromatic_to_forest_rejects_non_monic(self):
        with pytest.raises(ValueError):
            chromatic_to_forest(IntPolynomial((0, 2)))

    def test_forest_to_chromatic_rejects_degree_above_n(self):
        with pytest.raises(ValueError):
            forest_to_chromatic(IntPolynomial((1, 3, 3)), 1)


class TestForestPolynomialRoutes:
    def test_routes_agree(self):
        for g in [k3(), cycle_graph(5), random_graph(7, 0.4, seed=13)]:
            assert forest_polynomial(g) == penrose_polynomial(g)


class TestRatio:
    def test_single_edge_gives_z(self):
        g = Graph(2, [(0, 1)])
        for u in (0, 1):
            for z in (0.25, -0.1 + 0.2j, 0.05j):
                assert ratio_R(g, u, z) == pytest.approx(z)

    def test_isolated_vertices_give_zero(self):
        g = Graph(2, [])
        assert ratio_R(g, 0, 0.3 + 0.1j) == 0

    def test_k3_at_zero(self):
        assert ratio_R(k3(), 0, 0.0) == 0

    def test_conditioning_error_near_denominator_zero(self):
        g = path_graph(3)
        # removing the end leaves one edge: denominator 1 + z vanishes at -1
        with pytest.raises(ConditioningError) as exc:
            ratio_R(g, 2, -1.0)
        assert exc.value.magnitude <= exc.value.threshold

    def test_vertex_range_checked(self):
        with pytest.raises(ContractViolationError, match=r"^vertex 7 is outside 0\.\.2$"):
            ratio_R(k3(), 7, 0.1)


class TestPartitionScheme:
    def test_k3_passes_with_counts(self):
        rep = verify_partition_scheme(k3())
        assert rep.passed
        # R=V contributes 4 connected spanning sets, each 2-subset one more
        assert rep.edge_sets_checked == 7
        assert rep.counterexample is None

    def test_tree_graph_all_singletons(self):
        rep = verify_partition_scheme(path_graph(5))
        assert rep.passed

    def test_c4_passes(self):
        rep = verify_partition_scheme(cycle_graph(4))
        assert rep.passed

    def test_respects_r_max(self):
        rep2 = verify_partition_scheme(complete_graph(5), r_max=2)
        rep3 = verify_partition_scheme(complete_graph(5), r_max=3)
        assert rep3.subsets_checked > rep2.subsets_checked

    def test_shuffled_ordering_still_passes(self):
        g = random_graph(6, 0.6, seed=17)
        o = VertexOrdering.from_order(random_ordering(6, 99))
        assert verify_partition_scheme(g, o, r_max=5).passed

def _scheme_cases():
    # the last three have subsets whose support is a smaller set or disconnected
    graphs = scheme_corpus() + [
        complete_graph(6),
        octahedron(),
        antiprism_graph(4),
        disjoint_union(k3(), k3()),
        disjoint_union(k3(), Graph(1, [])),
        disjoint_union(path_graph(3), Graph(1, [])),
    ]
    for i, g in enumerate(graphs):
        yield g, nat(g.n)
        yield g, VertexOrdering.from_order(random_ordering(g.n, 400 + i))


def _no_chords(adj, rank, depth, w, x):
    return []


def _every_chord(adj, rank, depth, w, x):
    # every edge from w to a tree vertex no deeper than w, but its father
    return [
        (w, y) if w < y else (y, w)
        for y in adj[w]
        if y in depth and y != x and depth[y] <= depth[x] + 1
    ]


@pytest.mark.parametrize("g, o", list(_scheme_cases()))
def test_each_penrose_tree_grown_once(monkeypatch, g, o):
    # By Penrose's theorem |[q^1] P_G[S]| Penrose trees span each vertex set S;
    # the layered tally that penrose_polynomial reads counts each of them once
    tallies = []
    tally = penrose._layer_tally

    def recording(*args):
        tallies.append(tally(*args))
        return tallies[-1]

    monkeypatch.setattr(penrose, "_layer_tally", recording)
    penrose_polynomial(g, o)
    [counted] = tallies
    want = {
        sum(1 << v for v in s): abs(chromatic_deletion_contraction(g.induced(s)).coeff(1))
        for r in range(1, g.n + 1)
        for s in combinations(range(g.n), r)
    }
    assert sum(counted.values()) == sum(want.values())
    assert +counted == +Counter(want)


def _layering_cases():
    # (g, o, roots, allowed): whole graphs from every root, and the trees
    # through v of the general-v cases, from the usable roots not after v
    whole = list(_scheme_cases())
    for g in (complete_graph(8), icosahedron()):
        whole += [(g, nat(g.n)), (g, VertexOrdering.from_order(random_ordering(g.n, 500 + g.n)))]
    for g, o in whole:
        yield g, o, o.order, range(g.n)
    for g, o, v, allowed in _general_v_cases():
        usable = set(range(g.n)) if allowed is None else allowed
        yield g, o, [r for r in o.order[: o.rank[v] + 1] if r in usable], usable


def test_layer_tally_matches_grown_tally():
    # the layering and _closure_chords are two statements of the closure rule
    for g, o, roots, allowed in _layering_cases():
        trees = penrose._grow_trees(penrose._sorted_adj(g), o.rank, roots, allowed, True)
        want = Counter(s for s, _, _ in trees)
        assert penrose._layer_tally(adjacency_masks(g), o.rank, roots, allowed) == want


def test_forest_counts_grow_no_tree(monkeypatch):
    # the series' reference is the edge-count histogram of the grown trees
    cases = [(complete_graph(7), 3), (octahedron(), 4), (random_graph(9, 0.5, seed=3), 5)]
    series = []
    for g, v in cases:
        sizes = Counter(map(len, penrose_trees_containing(g, nat(g.n), v)))
        series.append(tuple(sizes[k] for k in range(max(sizes) + 1)))

    def no_growth(*args):
        raise AssertionError("a tree was grown")
        yield  # a generator, as the walk is

    monkeypatch.setattr(penrose, "_grow_trees", no_growth)
    for (g, v), want in zip(cases, series):
        assert penrose_tree_series(g, nat(g.n), v) == want
    for g in [*(g for g, _ in cases), icosahedron()]:
        assert chromatic_via_penrose(g) == chromatic_deletion_contraction(g)


def _count_grown_trees(monkeypatch) -> Counter:
    """Wrap the tree walk; the returned Counter's "trees" counts the trees it
    grows, without the root alone that each growth yields first."""
    grown = Counter()
    grow = penrose._grow_trees

    def counting(*args):
        for s, tree, chords in grow(*args):
            grown["trees"] += bool(tree)
            yield s, tree, chords

    monkeypatch.setattr(penrose, "_grow_trees", counting)
    return grown


@pytest.mark.parametrize("g, o", list(_scheme_cases()))
def test_each_subtree_grown_once_per_scheme_check(monkeypatch, g, o):
    # every subtree of 2 to r_max vertices spans one vertex set S
    grown = _count_grown_trees(monkeypatch)
    assert verify_partition_scheme(g, o, r_max=6).passed
    assert grown["trees"] == spanning_tree_total(g, 6)


@pytest.mark.parametrize("max_vertices", [None, 1, 2, 6])
@pytest.mark.parametrize("penrose_only", [True, False], ids=["penrose", "all"])
def test_walk_yields_vertex_bitmask(penrose_only, max_vertices):
    for g, o in _scheme_cases():
        adj = penrose._sorted_adj(g)
        for r in o.order:
            for s, tree, _ in penrose._grow_trees(adj, o.rank, (r,), range(g.n), penrose_only, max_vertices):
                assert s == (1 << r) | sum({1 << x for e in tree for x in e})
                assert max_vertices is None or len(tree) < max_vertices


@pytest.mark.parametrize(
    "g, r_max", [(complete_graph(8), 8), (complete_graph(14), 10)], ids=["K8", "K14"]
)
def test_refused_scan_grows_few_trees(monkeypatch, g, r_max):
    # the stars at vertex 0 on {0, 1}, {0, 1, 2}, ... reach the first
    # 8-vertex set, 2^28 masks, with the 7th tree; walking every subset first
    # cost their count in time and, counting their supports, memory. The peak
    # is the 7-vertex set's bitsets of 2^21 bits, 256 KB each, about 0.7 MB
    grown = _count_grown_trees(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match="size 270566474 "):
            verify_partition_scheme(g, r_max=r_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grown["trees"] == 7
    assert peak < 800 * 1024


@pytest.mark.parametrize(
    "g, r_max", [(path_graph(30), 6), (cycle_graph(40), 5)], ids=["P30", "C40"]
)
def test_sparse_scan_follows_its_trees(g, r_max):
    # 768,181 and 760,058 subsets but 135 and 160 connected edge sets; a walk
    # over every subset took 1.2 s and 1.0 s
    start = time.perf_counter()
    assert verify_partition_scheme(g, r_max=r_max).passed
    assert time.perf_counter() - start < 0.5


class TestPartitionSchemeAgainstScan:
    def test_reports_match_scan(self):
        for g, o in _scheme_cases():
            rep = verify_partition_scheme(g, o)
            assert rep.passed
            assert rep == verify_partition_scheme_scan(g, o)

    @pytest.mark.parametrize(
        "chords, hits",
        [(_no_chords, lambda h: h == 0), (_every_chord, lambda h: h >= 2)],
        ids=["gaps", "overlaps"],
    )
    def test_broken_closure_reports_match_scan(self, monkeypatch, chords, hits):
        # the verifier and, through penrose_closure, the scan share the rule
        monkeypatch.setattr(penrose, "_closure_chords", chords)
        failed = 0
        for g, o in _scheme_cases():
            rep = verify_partition_scheme(g, o)
            assert rep == verify_partition_scheme_scan(g, o)
            if not rep.passed:
                failed += 1
                assert hits(rep.counterexample.containing_trees)
        assert failed > 0

    @pytest.mark.parametrize(
        "chords", [None, _no_chords, _every_chord], ids=["closure", "gaps", "overlaps"]
    )
    def test_sparse_graphs_match_scan(self, monkeypatch, chords):
        # larger and sparser than _scheme_cases(): sum C(n, r) 2^min(C(r, 2), m)
        # is far above the cap on each, the exact scan size far below it
        if chords is not None:
            monkeypatch.setattr(penrose, "_closure_chords", chords)
        graphs = [
            path_graph(14),
            cycle_graph(14),
            random_connected_graph(14, 3, seed=2),
            random_connected_graph(16, 2, seed=4),
        ]
        for i, g in enumerate(graphs):
            for o in (nat(g.n), VertexOrdering.from_order(random_ordering(g.n, 500 + i))):
                assert verify_partition_scheme(g, o) == verify_partition_scheme_scan(g, o)


def _merge_edges(u, pair, forest_edges):
    return set(forest_edges) | {(min(u, v), max(u, v)) for v in pair}


class TestObstruction:
    def test_child_of_first_anchor_blocks(self):
        g = cycle_graph(4)  # u=0, anchors 1 and 3, w=2 adjacent to both
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 3)
        res = obstruction_check(g, o, 0, (1, 3), [(1, 2)])
        assert not res.penrose
        assert res.violated_by == "c"

    def test_disjoint_branches_pass(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3)])
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 2)
        res = obstruction_check(g, o, 0, (1, 2), [(1, 3)])
        assert res.penrose
        assert res.violated_by is None

    def test_equal_depth_cross_edge(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 2)
        res = obstruction_check(g, o, 0, (1, 2), [(1, 3), (2, 4)])
        assert res.violated_by == "a"

    def test_father_order_cross_edge(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (2, 3)])
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 2)
        res = obstruction_check(g, o, 0, (1, 2), [(1, 3), (2, 4)])
        assert res.violated_by == "b"

    def test_empty_forest_rejected(self):
        g = cycle_graph(4)
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 3)
        with pytest.raises(ContractViolationError):
            obstruction_check(g, o, 0, (1, 3), [])

    def test_adjacent_anchors_rejected(self):
        g = k3()
        o = nat(3)
        with pytest.raises(ContractViolationError):
            obstruction_check(g, o, 0, (1, 2), [(1, 2)])

    def test_forest_touching_u_rejected(self):
        g = cycle_graph(4)
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 3)
        with pytest.raises(ContractViolationError):
            obstruction_check(g, o, 0, (1, 3), [(0, 1)])

    def test_anchorless_component_rejected(self):
        g = Graph(6, [(0, 1), (0, 2), (4, 5)])
        o = VertexOrdering.anchored_at_pair(g, 0, 1, 2)
        with pytest.raises(ContractViolationError):
            obstruction_check(g, o, 0, (1, 2), [(4, 5)])

    def test_matches_direct_closure_on_c5(self):
        g = cycle_graph(5)
        checked = 0
        for u in range(5):
            nbrs = sorted(g.adj[u])
            for v1, v2 in combinations(nbrs, 2):
                if g.has_edge(v1, v2):
                    continue
                o = VertexOrdering.anchored_at_pair(g, u, v1, v2)
                others = set(range(5)) - {u}
                for t1 in penrose_trees_containing(g, o, v1, allowed=others - {v2}):
                    t1_verts = {x for e in t1 for x in e} or {v1}
                    for t2 in penrose_trees_containing(
                        g, o, v2, allowed=others - t1_verts
                    ):
                        if not t1 and not t2:
                            continue
                        forest = set(t1) | set(t2)
                        res = obstruction_check(g, o, u, (v1, v2), forest)
                        direct = is_penrose_tree(
                            g, o, _merge_edges(u, (v1, v2), forest)
                        )
                        assert res.penrose == direct
                        checked += 1
        assert checked > 0
