import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromadisk import (
    DomainError,
    EnumerationCapError,
    Graph,
    IntPolynomial,
    chromatic_deletion_contraction,
    polynomial_roots,
)
from chromadisk import chromatic
from chromadisk.graphs import adjacency_masks, refinement_certificate
from chromadisk.corpus import (
    antiprism_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    icosahedron,
    line_graph,
    octahedron,
    path_graph,
    random_graph,
    scheme_corpus,
    star_graph,
    wheel_graph,
)
from corpora import random_graph_batch
from oracles import count_proper_colorings


def _circulant(n, steps):
    return Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in steps})


def _fresh(g, **kwargs):
    """The oracle's answer with the process memo cleared first, so the
    transfer runs."""
    chromatic._transfer.cache_clear()
    return chromatic_deletion_contraction(g, **kwargs)


def _memo():
    info = chromatic._transfer.cache_info()
    return info.hits, info.misses


class TestClosedForms:
    def test_edgeless(self):
        for n in (1, 3, 6):
            assert chromatic_deletion_contraction(Graph(n, [])) == IntPolynomial.monomial(n)

    def test_complete(self):
        for n in range(2, 6):
            got = chromatic_deletion_contraction(complete_graph(n))
            assert got == IntPolynomial.falling_factorial(n)

    def test_k3(self):
        assert chromatic_deletion_contraction(complete_graph(3)).coeffs == (0, 2, -3, 1)

    def test_k4(self):
        got = chromatic_deletion_contraction(complete_graph(4))
        assert got.coeffs == (0, -6, 11, -6, 1)

    def test_trees_share_one_polynomial(self):
        want = chromatic_deletion_contraction(path_graph(6))
        assert chromatic_deletion_contraction(star_graph(5)) == want
        assert want == IntPolynomial((0, 1)) * IntPolynomial((-1, 1)) ** 5

    def test_cycles(self):
        qm1 = IntPolynomial((-1, 1))
        for n in (3, 4, 5, 6):
            got = chromatic_deletion_contraction(cycle_graph(n))
            assert got == qm1 ** n + qm1.scale((-1) ** n)

    def test_components_multiply(self):
        a, b = cycle_graph(4), path_graph(3)
        got = chromatic_deletion_contraction(disjoint_union(a, b))
        assert got == chromatic_deletion_contraction(a) * chromatic_deletion_contraction(b)

    def test_isolated_vertices_factor_out(self):
        # one edge plus three isolated vertices: q^3 (q^2 - q)
        g = Graph(5, [(1, 3)])
        assert chromatic_deletion_contraction(g).coeffs == (0, 0, 0, 0, -1, 1)


class TestAgainstColoringCounts:
    def test_random_graphs(self):
        for seed in (1, 2, 3):
            g = random_graph(6, 0.5, seed=seed)
            p = chromatic_deletion_contraction(g)
            for q in range(5):
                assert p(q) == count_proper_colorings(g, q)

    def test_denser_graph(self):
        g = random_graph(7, 0.7, seed=4)
        p = chromatic_deletion_contraction(g)
        for q in range(4):
            assert p(q) == count_proper_colorings(g, q)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.sampled_from([(a, b) for a in range(5) for b in range(a + 1, 5)])))
    def test_every_subgraph_of_k5_at_three_colors(self, edges):
        g = Graph(5, edges)
        assert chromatic_deletion_contraction(g)(3) == count_proper_colorings(g, 3)

    @staticmethod
    def _fan(k):
        return Graph(k + 1, [(0, i) for i in range(1, k + 1)] + [(i, i + 1) for i in range(1, k)])

    def test_chordal_graphs(self):
        graphs = [Graph(n, []) for n in (1, 3, 5)] + [
            Graph(6, [(1, 3), (3, 4), (1, 4)]),
            path_graph(2),
            path_graph(6),
            star_graph(5),
            complete_graph(5),
            complete_graph(6),
            self._fan(3),
            self._fan(5),
        ]
        for g in graphs:
            p = _fresh(g)
            assert [p(q) for q in range(g.n + 1)] == [
                count_proper_colorings(g, q) for q in range(g.n + 1)
            ]

    def test_graphs_without_simplicial_vertices(self):
        qm1 = IntPolynomial((-1, 1))
        for n in (4, 5, 8):
            assert _fresh(cycle_graph(n)) == qm1 ** n + qm1.scale((-1) ** n)
        for g in (octahedron(), icosahedron()):
            p = _fresh(g)
            assert [p(q) for q in range(5)] == [count_proper_colorings(g, q) for q in range(5)]

    def test_dense_graph_at_the_default_cap(self):
        g = random_graph(16, 0.6, seed=0)
        p = _fresh(g)
        assert p(5) == 3600
        assert [p(q) for q in range(6)] == [count_proper_colorings(g, q) for q in range(6)]

    def test_circulant_past_the_default_cap(self):
        g = _circulant(40, (1, 2, 3))
        p = _fresh(g, max_vertices=40)
        assert p(4) == 24
        assert [p(q) for q in range(5)] == [count_proper_colorings(g, q) for q in range(5)]


class TestCacheAndInvariance:
    def test_relabel_invariance(self):
        g = random_graph(7, 0.4, seed=11)
        perm = [3, 0, 6, 1, 5, 2, 4]
        assert chromatic_deletion_contraction(g.relabel(perm)) == chromatic_deletion_contraction(g)

    def test_shared_cache_reuses_minors(self):
        # every g - v once, then again: the second round is answered from the memo
        chromatic._transfer.cache_clear()
        g = random_graph(8, 0.5, seed=7)
        minors = [g.without_vertex(v) for v in range(g.n)]
        first = [chromatic_deletion_contraction(h) for h in minors]
        distinct = len({adjacency_masks(h) for h in minors})
        assert _memo() == (len(minors) - distinct, distinct)
        again = [chromatic_deletion_contraction(h) for h in minors]
        assert again == first
        assert _memo() == (2 * len(minors) - distinct, distinct)

    def test_cache_clear(self):
        chromatic._transfer.cache_clear()
        g = random_graph(6, 0.5, seed=5)
        chromatic_deletion_contraction(g)
        chromatic_deletion_contraction(g)
        chromatic._transfer.cache_clear()
        assert _memo() == (0, 0)
        chromatic_deletion_contraction(g)
        assert _memo() == (0, 1)

    def test_repeated_input_is_one_hit(self):
        chromatic._transfer.cache_clear()
        g = octahedron()
        first = chromatic_deletion_contraction(g)
        assert _memo() == (0, 1)
        again = chromatic_deletion_contraction(Graph(g.n, sorted(g.edges)))
        assert again == first
        assert _memo() == (1, 1)


class TestMemoKey:
    # The memo is keyed by the exact adjacency bitmasks of the input.
    @pytest.mark.parametrize(
        "g",
        [
            line_graph(complete_graph(5)),
            icosahedron(),
            _circulant(12, (1, 2)),
            line_graph(complete_graph(6)),
        ],
        ids=["L(K5)", "icosahedron", "C12(1,2)", "L(K6)"],
    )
    def test_relabelled_input_is_a_miss(self, g):
        chromatic._transfer.cache_clear()
        p = chromatic_deletion_contraction(g)
        h = g.relabel(random.Random(g.n).sample(range(g.n), g.n))
        assert adjacency_masks(h) != adjacency_masks(g)
        assert chromatic_deletion_contraction(h) == p
        assert _memo() == (0, 2)

    @pytest.mark.parametrize("labels", ["constant", "refined"])
    def test_colliding_certificates_stay_exact(self, monkeypatch, labels):
        # Refinement certificates play no part in the key: the oracle must not
        # consult them, whether they collide for every graph ("constant") or
        # are the real ones ("refined"). The stub records each call, so a
        # certificate-keyed memo fails here instead of passing unseen.
        calls = []

        def certificate(adj):
            calls.append(adj)
            return 0, ((0,) * len(adj) if labels == "constant" else refinement_certificate(adj)[1])

        monkeypatch.setattr("chromadisk.graphs.refinement_certificate", certificate)
        monkeypatch.setattr(chromatic, "refinement_certificate", certificate, raising=False)
        graphs = random_graph_batch() + scheme_corpus() + [
            octahedron(),
            wheel_graph(5),
            antiprism_graph(4),
            line_graph(complete_graph(4)),
        ]
        want = [_fresh(g) for g in graphs]
        chromatic._transfer.cache_clear()
        for g, p in zip(graphs, want):
            got = chromatic_deletion_contraction(g)
            assert got == p
            assert [got(q) for q in range(5)] == [count_proper_colorings(g, q) for q in range(5)]
        distinct = len({adjacency_masks(g) for g in graphs})
        assert _memo() == (len(graphs) - distinct, distinct)
        assert calls == []


class TestCap:
    def test_refuses_above_cap(self):
        big = Graph(17, [(i, i + 1) for i in range(16)])
        with pytest.raises(EnumerationCapError) as exc:
            chromatic_deletion_contraction(big)
        assert exc.value.size == 17 and exc.value.cap == 16

    def test_cap_override(self):
        big = Graph(17, [(i, i + 1) for i in range(16)])
        p = chromatic_deletion_contraction(big, max_vertices=17)
        assert p == IntPolynomial((0, 1)) * IntPolynomial((-1, 1)) ** 16


class TestRoots:
    def test_k3_roots(self):
        rs = polynomial_roots(chromatic_deletion_contraction(complete_graph(3)))
        vals = sorted(r.value.real for r in rs)
        assert vals == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)
        assert all(abs(r.value.imag) < 1e-9 for r in rs)

    def test_c5_roots(self):
        rs = polynomial_roots(chromatic_deletion_contraction(cycle_graph(5)))
        got = sorted((round(r.value.real, 6), round(r.value.imag, 6)) for r in rs)
        assert got == [(0.0, 0.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0)]

    def test_residuals_small_for_exact_roots(self):
        p = chromatic_deletion_contraction(cycle_graph(6))
        for r in polynomial_roots(p):
            assert r.residual < 1e-10

    def test_triple_zero(self):
        rs = polynomial_roots(IntPolynomial.monomial(3))
        assert len(rs) == 3
        for r in rs:
            assert abs(r.value) < 1e-6
            assert r.residual < 1e-8

    def test_sorted_by_real_then_imag(self):
        rs = polynomial_roots(chromatic_deletion_contraction(cycle_graph(4)))
        keys = [(r.value.real, r.value.imag) for r in rs]
        assert keys == sorted(keys)

    def test_degenerate_degrees(self):
        assert polynomial_roots(IntPolynomial((5,))) == []
        assert polynomial_roots(IntPolynomial.zero()) == []
        (only,) = polynomial_roots(IntPolynomial((-2, 1)))
        assert only.value == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [100, 171])
    def test_float_overflow_is_a_domain_error(self, n):
        # K171's coefficients pass 2**1024; K100's fit, but its residual scale
        # sum |c_k| * |r|**100 does not, which used to give residuals of 0.0
        p = chromatic_deletion_contraction(complete_graph(n), max_vertices=n)
        with pytest.raises(DomainError, match=f"overflows on the degree-{n} polynomial"):
            polynomial_roots(p)


def _expand(values):
    """Coefficients by degree of the product of (q - r) over values."""
    out = [1 + 0j]
    for r in values:
        out = [(out[k - 1] if k else 0) - r * (out[k] if k < len(out) else 0) for k in range(len(out) + 1)]
    return out


class TestExactIntegerRoots:
    @pytest.mark.parametrize("n", [25, 30])
    def test_complete_graph_roots_are_exact(self, n):
        p = chromatic_deletion_contraction(complete_graph(n), max_vertices=n)
        assert [r.value for r in polynomial_roots(p)] == [complex(k) for k in range(n)]

    def test_multiple_roots_of_a_triangle_chain_are_exact(self):
        # Five triangles glued at cut vertices: P = q (q - 1)^5 (q - 2)^5.
        g = Graph(11, [e for t in range(0, 10, 2) for e in ((t, t + 1), (t, t + 2), (t + 1, t + 2))])
        p = chromatic_deletion_contraction(g)
        assert p == IntPolynomial((0, 1)) * IntPolynomial((-1, 1)) ** 5 * IntPolynomial((-2, 1)) ** 5
        assert [r.value for r in polynomial_roots(p)] == [0j] + [1 + 0j] * 5 + [2 + 0j] * 5

    def test_strip_stops_at_the_first_positive_non_root(self):
        # (q - 1)(q - 3): 0 is skipped, 1 is stripped, 2 is no root, so 3 stays.
        roots, cofactor = chromatic._strip_integer_roots(IntPolynomial((3, -4, 1)))
        assert roots == [1] and cofactor == IntPolynomial((-3, 1))

    def test_strip_takes_exactly_the_roots_below_chi(self):
        # K4 beside C5: chi = 4 and P = q^2 (q-1)^2 (q-2)^2 (q-3) (q^2 - 2q + 2).
        g = disjoint_union(complete_graph(4), cycle_graph(5))
        roots, cofactor = chromatic._strip_integer_roots(chromatic_deletion_contraction(g))
        assert roots == [0, 0, 1, 1, 2, 2, 3]
        assert cofactor == IntPolynomial((2, -2, 1))

    def test_integer_root_above_a_gap_is_found_by_iteration(self):
        # (q - 3)(q^2 + 1): the strip stops at k = 1 and leaves 3 in the cofactor.
        rs = polynomial_roots(IntPolynomial((-3, 1)) * IntPolynomial((1, 0, 1)))
        assert [r.value for r in rs] == pytest.approx([-1j, 1j, 3], abs=1e-12)

    def test_repeated_non_real_roots_terminate(self):
        rs = polynomial_roots(IntPolynomial((1, 0, 1)) ** 2)
        assert len(rs) == 4
        assert sorted(round(r.value.imag) for r in rs) == [-1, -1, 1, 1]
        assert all(abs(r.value - 1j * round(r.value.imag)) < 1e-6 for r in rs)

    @pytest.mark.parametrize(
        "g",
        [icosahedron(), line_graph(complete_graph(5)), _circulant(13, (1, 2)), cycle_graph(20)]
        + random_graph_batch(12, sizes=(9, 10, 11)),
        ids=lambda g: f"n{g.n}m{g.m}",
    )
    def test_roots_multiply_back_to_the_polynomial(self, g):
        p = chromatic_deletion_contraction(g, max_vertices=g.n)
        rs = polynomial_roots(p)
        assert len(rs) == p.degree
        assert all(r.residual < 1e-12 for r in rs)
        values = [r.value for r in rs]
        # Non-real roots come in exact conjugate pairs.
        key = lambda v: (v.real, v.imag)
        assert sorted((v.conjugate() for v in values), key=key) == values
        scale = sum(abs(c) for c in p.coeffs)
        for got, want in zip(_expand(values), p.coeffs):
            assert abs(got - want) < 1e-9 * scale

    def test_package_imports_without_numpy(self):
        code = "import sys, chromadisk.cli; sys.exit('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestColoringCounter:
    def test_zero_colors(self):
        assert count_proper_colorings(complete_graph(3), 0) == 0
        assert count_proper_colorings(Graph(1, []), 0) == 0

    def test_known_counts(self):
        assert count_proper_colorings(complete_graph(3), 3) == 6
        assert count_proper_colorings(path_graph(3), 2) == 2
        assert count_proper_colorings(Graph(2, []), 3) == 9
