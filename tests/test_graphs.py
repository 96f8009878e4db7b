import time
import tracemalloc
from contextlib import suppress
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromadisk import (
    DegenerateDegreeError,
    Graph,
    GraphFormatError,
    classify,
    format_graph,
    is_claw_free,
    is_diamond_free,
    is_square_free,
    neighborhood_stats,
    parse_graph,
)
from chromadisk.graphs import (
    MAX_VERTICES,
    adjacency_masks,
    isomorphic,
    refinement_certificate,
)
from chromadisk.corpus import (
    claw_graph,
    complete_graph,
    cycle_graph,
    diamond_graph,
    disjoint_union,
    iso_distinct,
    line_graph,
    octahedron,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)
from corpora import all_graphs_up_to_iso, components, random_graph_batch
from oracles import (
    is_diamond_free_scan,
    is_square_free_scan,
    neighborhood_complement_claw_free,
    non_edges_in_neighborhood,
)


def k3():
    return complete_graph(3)


class TestConstruction:
    def test_normalizes_and_dedupes_edges(self):
        g = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_immutable(self):
        g = k3()
        with pytest.raises(AttributeError):
            g.n = 5

    def test_induced_relabels(self):
        g = cycle_graph(5)
        h = g.induced([1, 2, 3])
        assert h.n == 3
        assert h.edges == frozenset({(0, 1), (1, 2)})

    def test_without_vertex(self):
        g = k3()
        h = g.without_vertex(1)
        assert (h.n, h.m) == (2, 1)

    @pytest.mark.parametrize("vertices", [[-1, 0, 1], [0, 1, 99], [99, -1]])
    def test_induced_rejects_vertex_outside_graph(self, vertices):
        with pytest.raises(ValueError, match="outside 0..3"):
            path_graph(4).induced(vertices)

    @pytest.mark.parametrize("v", [-1, 4, 99])
    def test_without_vertex_rejects_vertex_outside_graph(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} is outside 0..3"):
            path_graph(4).without_vertex(v)


class TestParse:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n0 2\n1 2")
        assert (g.n, g.m) == (3, 3)
        assert g.edges == k3().edges

    def test_single_vertex(self):
        g = parse_graph("1 0")
        assert (g.n, g.m) == (1, 0)

    def test_claw(self):
        g = parse_graph("4 3\n0 1\n0 2\n0 3")
        assert g.edges == claw_graph().edges

    def test_comments_and_blanks_skipped(self):
        g = parse_graph("# header comment\n\n3 2\n0 1\n# middle\n1 2\n")
        assert g.m == 2

    def test_duplicate_edge_collapses_with_warning(self):
        g = parse_graph("3 3\n0 1\n1 0\n1 2")
        assert g.m == 2
        assert len(g.parse_warnings) == 1
        assert "duplicate" in g.parse_warnings[0]
        assert "line 3" in g.parse_warnings[0]

    def test_self_loop_names_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3 2\n0 1\n2 2")
        assert exc.value.line_no == 3

    def test_vertex_out_of_range_names_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3 1\n0 7")
        assert exc.value.line_no == 2

    def test_malformed_edge_line(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3 1\n0 1 2")
        assert exc.value.line_no == 2

    def test_non_integer_tokens(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 1\nzero one")

    def test_missing_edges(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 3\n0 1")

    def test_extra_edges(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph("3 1\n0 1\n1 2")
        assert exc.value.line_no == 3

    def test_vertex_limit(self):
        assert parse_graph(f"{MAX_VERTICES} 0").n == MAX_VERTICES
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(f"# header next\n{MAX_VERTICES + 1} 0")
        assert exc.value.line_no == 2
        assert "MAX_VERTICES" in str(exc.value)

    def test_empty_document(self):
        with pytest.raises(GraphFormatError):
            parse_graph("# nothing here\n")

    def test_format_roundtrip(self):
        g = random_graph(6, 0.5, seed=4)
        assert parse_graph(format_graph(g)) == g


class TestDegreeAndClasses:
    def test_max_degree_examples(self):
        assert k3().max_degree() == 2
        assert claw_graph().max_degree() == 3
        assert cycle_graph(5).max_degree() == 2
        assert Graph(4, []).max_degree() == 0

    def test_claw_free_examples(self):
        assert not is_claw_free(claw_graph())
        assert is_claw_free(k3())
        assert is_claw_free(line_graph(complete_graph(4)))

    def test_square_free_defining_instance(self):
        assert not is_square_free(cycle_graph(4))
        assert is_square_free(cycle_graph(5))

    def test_diamond_free_defining_instance(self):
        assert not is_diamond_free(diamond_graph())
        assert is_diamond_free(cycle_graph(5))

    def test_classify_c5(self):
        cm = classify(cycle_graph(5))
        assert cm.claw_free and cm.square_free and cm.diamond_free
        assert cm.class_index == 1

    def test_classify_k4(self):
        cm = classify(complete_graph(4))
        assert cm.class_index == 1

    def test_classify_c4(self):
        cm = classify(cycle_graph(4))
        assert cm.claw_free and not cm.square_free
        assert cm.class_index == 0

    def test_classify_claw_has_no_index(self):
        assert classify(claw_graph()).class_index is None

    def test_octahedron_is_claw_free_class0(self):
        cm = classify(octahedron())
        assert cm.claw_free
        assert cm.class_index == 0

    def test_local_tests_match_quadruple_scans(self):
        graphs = [g for n in range(1, 7) for g in all_graphs_up_to_iso(n)]
        graphs += random_graph_batch()
        graphs += [
            line_graph(random_connected_graph(n, extra, seed=seed))
            for n in (6, 7, 8)
            for extra in (1, 2, 3)
            for seed in range(5)
        ]
        flags = set()
        for g in graphs:
            sf, df = is_square_free(g), is_diamond_free(g)
            assert (sf, df) == (is_square_free_scan(g), is_diamond_free_scan(g)), g
            flags.add((sf, df))
        assert flags == {(True, True), (True, False), (False, True), (False, False)}

    def test_local_tests_on_dense_and_high_degree_graphs(self):
        # each took over 10 s when every edge or every distance-two pair was scanned
        start = time.perf_counter()
        assert is_diamond_free(complete_graph(150))
        assert is_square_free(star_graph(4000))
        assert time.perf_counter() - start < 3.0


class TestNeighborhoodStats:
    def test_non_edges_k4(self):
        g = complete_graph(4)
        for v in range(4):
            assert non_edges_in_neighborhood(g, v) == frozenset()

    def test_non_edges_c5(self):
        g = cycle_graph(5)
        for v in range(5):
            assert len(non_edges_in_neighborhood(g, v)) == 1

    def test_non_edges_claw_center(self):
        assert len(non_edges_in_neighborhood(claw_graph(), 0)) == 3

    def test_kappa_k4_is_zero(self):
        assert neighborhood_stats(complete_graph(4)).kappa == 0

    def test_kappa_c5_is_one(self):
        assert neighborhood_stats(cycle_graph(5)).kappa == Fraction(1)

    def test_kappa_claw_exceeds_one(self):
        assert neighborhood_stats(claw_graph()).kappa == Fraction(3, 2)

    def test_kappa_is_exact_rational(self):
        k = neighborhood_stats(octahedron()).kappa
        assert isinstance(k, Fraction)
        assert k == Fraction(1, 2)

    def test_degenerate_degree_raises(self):
        with pytest.raises(DegenerateDegreeError):
            neighborhood_stats(Graph(3, [(0, 1)])).kappa
        with pytest.raises(DegenerateDegreeError):
            neighborhood_stats(Graph(2, [])).kappa

    def test_stats_fields(self):
        s = neighborhood_stats(cycle_graph(5))
        assert s.delta == 2
        assert s.i_v == (1, 1, 1, 1, 1)
        assert s.kappa == 1

    def test_kappa_zero_iff_complete_neighborhoods(self):
        # complete graphs are the only connected claw-free graphs with kappa 0
        for n in (3, 4, 5, 6):
            assert neighborhood_stats(complete_graph(n)).kappa == 0

    def test_counts_match_listed_non_edges(self):
        graphs = [g for n in range(1, 7) for g in all_graphs_up_to_iso(n)]
        graphs += random_graph_batch()
        checked = 0
        for g in graphs:
            if g.max_degree() <= 1:
                continue
            want = tuple(len(non_edges_in_neighborhood(g, v)) for v in range(g.n))
            assert neighborhood_stats(g).i_v == want, g
            checked += 1
        assert checked > 200

    def test_high_degree_counts_without_listing_pairs(self):
        # listing the ~1.1M neighbour pairs of the centre takes about 90 MB
        g = star_graph(1500)
        tracemalloc.start()
        try:
            s = neighborhood_stats(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.i_v[0] == 1500 * 1499 // 2
        assert peak < 5 * 2**20


class TestInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_mantel_bound_on_random_line_graphs(self, seed):
        h = random_graph(6, 0.6, seed=seed)
        g = line_graph(h)
        if g.max_degree() <= 1:
            return
        s = neighborhood_stats(g)
        cap = s.delta * s.delta // 4
        assert all(c <= cap for c in s.i_v)
        assert 0 <= s.kappa <= 1

    @given(st.integers(min_value=0, max_value=10_000), st.permutations(list(range(6))))
    @settings(max_examples=60, deadline=None)
    def test_classify_and_kappa_relabel_invariant(self, seed, perm):
        g = random_graph(6, 0.5, seed=seed)
        h = g.relabel(perm)
        assert classify(g) == classify(h)
        if g.max_degree() >= 2:
            assert neighborhood_stats(g).kappa == neighborhood_stats(h).kappa

    def test_claw_free_formulations_agree_on_all_small_graphs(self):
        # every labeled graph on up to 6 vertices
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
                g = Graph(n, edges)
                assert is_claw_free(g) == neighborhood_complement_claw_free(g)


def _record_isomorphism_tests(monkeypatch):
    """The answer of every isomorphism test iso_distinct runs, in order."""
    answers = []

    def recorded(*args):
        answers.append(isomorphic(*args))
        return answers[-1]

    monkeypatch.setattr("chromadisk.corpus.isomorphic", recorded)
    return answers


class TestIsomorphism:
    @given(st.integers(min_value=0, max_value=10_000), st.permutations(list(range(7))))
    @settings(max_examples=60, deadline=None)
    def test_relabeled_copy_shares_certificate_and_matches(self, seed, perm):
        g = random_graph(7, 0.5, seed=seed)
        a, b = adjacency_masks(g), adjacency_masks(g.relabel(perm))
        (ca, la), (cb, lb) = refinement_certificate(a), refinement_certificate(b)
        assert ca == cb
        assert all(la[v] == lb[perm[v]] for v in range(7))
        assert isomorphic(a, la, b, lb)

    def test_equal_certificates_of_non_isomorphic_graphs(self):
        # both 2-regular on six vertices: refinement cannot tell them apart
        hexagon = adjacency_masks(cycle_graph(6))
        triangles = adjacency_masks(disjoint_union(complete_graph(3), complete_graph(3)))
        (ch, lh), (ct, lt) = refinement_certificate(hexagon), refinement_certificate(triangles)
        assert ch == ct
        assert not isomorphic(hexagon, lh, triangles, lt)
        shuffled = adjacency_masks(cycle_graph(6).relabel([3, 5, 1, 0, 2, 4]))
        assert isomorphic(hexagon, (0,) * 6, shuffled, (0,) * 6)

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_are_a_stable_partition(self, seed):
        # every vertex of a class sees the same multiset of neighbour labels
        for g in (random_graph(9, 0.4, seed=seed), path_graph(seed + 2)):
            adj = adjacency_masks(g)
            labels = refinement_certificate(adj)[1]
            seen = {}
            for v in range(g.n):
                nbr = sorted(labels[w] for w in g.adj[v])
                assert seen.setdefault(labels[v], nbr) == nbr

    def test_refinement_has_no_round_cap(self):
        # the middle of P11 is told apart from its neighbours in round five
        labels = refinement_certificate(adjacency_masks(path_graph(11)))[1]
        assert labels == (0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0)

    def test_table_keeps_one_value_per_class(self, monkeypatch):
        # C6 and 2K3 share a certificate, so they share a bucket
        hexagon = cycle_graph(6)
        shuffled = cycle_graph(6).relabel([3, 5, 1, 0, 2, 4])
        triangles = disjoint_union(complete_graph(3), complete_graph(3))
        answers = _record_isomorphism_tests(monkeypatch)
        assert iso_distinct([hexagon, shuffled, triangles]) == [hexagon, triangles]
        assert answers == [True, False]

    def test_components(self):
        g = disjoint_union(cycle_graph(4), Graph(3, [(0, 2)]))
        assert components(adjacency_masks(g)) == [0b1111, 0b1010000, 0b100000]

    @pytest.mark.parametrize("certificates", ["refined", "colliding"])
    def test_labelled_graphs_on_five_vertices_form_52_classes(self, monkeypatch, certificates):
        # 1 + 2 + 4 + 11 + 34 classes; with one certificate for every graph,
        # isomorphic() alone tells the classes of a bucket apart
        if certificates == "colliding":
            monkeypatch.setattr(
                "chromadisk.corpus.refinement_certificate", lambda adj: (0, (0,) * len(adj))
            )
        answers = _record_isomorphism_tests(monkeypatch)
        labelled = []
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            labelled += [
                Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                for mask in range(1 << len(pairs))
            ]
        assert len(iso_distinct(labelled)) == 52
        # refinement tells apart every two graphs on at most five vertices, so
        # only colliding certificates put two classes in one bucket
        assert (False in answers) == (certificates == "colliding")

    def test_all_graphs_result_is_not_the_stored_list(self):
        first = all_graphs_up_to_iso(3)
        with suppress(AttributeError):
            first.clear()
        assert len(all_graphs_up_to_iso(3)) == len(first) == 4
