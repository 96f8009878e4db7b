import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromadisk import (
    BranchingParams,
    ContractViolationError,
    DomainError,
    EnumerationCapError,
    Graph,
    VertexOrdering,
    degree_tree_bound,
    envelope_bound,
    penrose,
    penrose_tree_series,
    tree_count_table,
    tree_series,
)
from chromadisk.corpus import complete_graph, octahedron, path_graph, prism_graph
from oracles import count_admissible_subtrees


def params(d, m):
    return BranchingParams(d=d, m=m)


class TestRecurrence:
    def test_d2_m1_prefix(self):
        t = tree_count_table(params(2, 1), 4)
        assert t.counts == (1, 2, 5, 14)

    def test_m0_powers(self):
        for d in (2, 3, 5):
            t = tree_count_table(params(d, 0), 7)
            assert t.counts == tuple(d ** (n - 1) for n in range(1, 8))

    @given(st.integers(2, 6), st.integers(0, 8))
    def test_third_count_closed_form(self, d, m):
        assert tree_count_table(params(d, m), 3).count(3) == d * d + m

    def test_against_explicit_enumeration(self):
        # every admissible structure built once, counted by vertex number
        for d in (2, 3):
            for m in range(min(2, d * (d - 1) // 2) + 1):
                t = tree_count_table(params(d, m), 6)
                assert list(t.counts) == count_admissible_subtrees(d, m, 6)

    def test_count_accessor_bounds(self):
        t = tree_count_table(params(2, 1), 4)
        assert t.count(1) == 1
        with pytest.raises(IndexError):
            t.count(5)
        with pytest.raises(IndexError):
            t.count(0)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            BranchingParams(d=1, m=0)
        with pytest.raises(DomainError):
            BranchingParams(d=2, m=-1)
        with pytest.raises(DomainError):
            tree_count_table(params(2, 0), 0)


class TestClosedForm:
    def test_value_at_zero(self):
        for d, m in [(2, 0), (2, 1), (4, 3)]:
            assert tree_series(params(d, m), 0.0) == 1.0

    def test_m0_geometric(self):
        for d in (2, 3):
            for y in (0.0, 0.1, 0.3 / d):
                assert tree_series(params(d, 0), y) == pytest.approx(1.0 / (1.0 - d * y))

    def test_spot_value(self):
        assert tree_series(params(2, 1), 0.1) == pytest.approx(1.270166, abs=1e-6)

    def test_matches_partial_sums(self):
        p = params(2, 1)
        y = 0.1
        s = tree_count_table(p, 30).series_value(y)
        assert tree_series(p, y) == pytest.approx(s, abs=1e-12)

    def test_truncation_error_decays_geometrically(self):
        p = params(3, 2)
        y = p.radius / 2
        w = tree_series(p, y)
        errs = [abs(tree_count_table(p, n).series_value(y) - w) for n in (10, 20, 30)]
        assert errs[1] < errs[0] * 0.01
        assert errs[2] < errs[1] * 0.01

    def test_functional_equation_residual(self):
        # u = y (1 + d u + m u^2) holds through order 30 at half the radius;
        # the m = 0 pole decays slower, so give it a longer table
        for d, m, n in [(2, 1, 30), (3, 2, 30), (4, 0, 45)]:
            p = params(d, m)
            y = p.radius / 2
            u = y * tree_count_table(p, n).series_value(y)
            assert abs(u - y * (1 + d * u + m * u * u)) < 1e-10

    def test_closed_form_satisfies_equation_on_grid(self):
        for d, m in [(2, 1), (3, 2), (5, 4)]:
            p = params(d, m)
            for i in range(100):
                y = p.radius * i / 100
                w = tree_series(p, y)
                resid = abs(w - (1 + d * y * w + m * (y * w) ** 2))
                assert resid <= 1e-12 * abs(w)

    def test_domain_error_carries_radius(self):
        p = params(2, 1)
        with pytest.raises(DomainError) as exc:
            tree_series(p, p.radius)
        assert exc.value.radius == p.radius
        with pytest.raises(DomainError):
            tree_series(p, -0.01)

    def test_nan_is_outside_the_domain(self):
        with pytest.raises(DomainError):
            tree_series(params(2, 1), math.nan)

    def test_radius_value(self):
        assert params(2, 1).radius == pytest.approx(0.25)
        assert params(3, 0).radius == pytest.approx(1 / 3)


class TestBoundingFunctions:
    def test_envelope_endpoints(self):
        assert envelope_bound(0.0) == 1.0
        assert envelope_bound(0.5) == 4.0
        assert envelope_bound(0.375) == pytest.approx(16 / 9, abs=1e-12)

    def test_envelope_domain(self):
        with pytest.raises(DomainError):
            envelope_bound(-0.001)
        with pytest.raises(DomainError):
            envelope_bound(0.501)
        with pytest.raises(DomainError):
            envelope_bound(math.nan)

    def test_degree_bound_domain(self):
        with pytest.raises(DomainError):
            degree_tree_bound(2, 0.1)
        with pytest.raises(DomainError):
            degree_tree_bound(3.0, 0.1)
        with pytest.raises(DomainError):
            degree_tree_bound(3, 0.26)
        with pytest.raises(DomainError, match=r"y must be in \[0, 0.25\], got nan"):
            degree_tree_bound(3, math.nan)
        assert degree_tree_bound(3, 0.25) == pytest.approx(4.0)

    def test_degree_bound_is_the_envelope_at_delta_minus_one_times_y(self):
        for delta in (3, 4, 7, 50):
            hi = 1.0 / (2.0 * (delta - 1))
            for y in (0.0, hi / 3, hi / 2, hi):
                assert degree_tree_bound(delta, y) == envelope_bound((delta - 1) * y)

    def test_both_increasing(self):
        xs = [i / 40 for i in range(21)]
        hs = [envelope_bound(x) for x in xs]
        assert all(a < b for a, b in zip(hs, hs[1:]))
        ys = [i / 100 for i in range(26)]
        gs = [degree_tree_bound(3, y) for y in ys]
        assert all(a < b for a, b in zip(gs, gs[1:]))

    def test_series_below_degree_bound(self):
        # w with d = delta - 1 slots and maximal pair budget stays under g
        for delta in range(3, 9):
            d = delta - 1
            p = params(d, d * d // 4)
            hi = 1.0 / (2.0 * d)
            for i in range(20):
                y = hi * i / 20
                assert tree_series(p, y) <= degree_tree_bound(delta, y) + 1e-12

    def test_degree_bound_below_envelope(self):
        for delta in range(3, 13):
            for i in range(21):
                x = 0.5 * i / 20
                assert degree_tree_bound(delta, x / delta) <= envelope_bound(x) + 1e-12

    def test_sqrt_clamp_at_boundary(self):
        # arguments a hair below zero from rounding must not raise
        assert envelope_bound(0.5) == 4.0
        d = 4
        assert tree_series(params(d, d * d // 4), (1.0 / (2 * d)) * (1 - 1e-15)) > 1.0


def _v_first(n, v):
    return VertexOrdering.from_order([v] + [x for x in range(n) if x != v])


class TestEnumeratedSeries:
    def test_isolated_vertex(self):
        g = Graph(1, [])
        assert penrose_tree_series(g, _v_first(1, 0), 0) == (1,)

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert penrose_tree_series(g, _v_first(2, 0), 0) == (1, 1)

    def test_k3_root_zero(self):
        g = complete_graph(3)
        assert penrose_tree_series(g, VertexOrdering.natural(3), 0) == (1, 2, 2)

    def test_cap(self):
        big = Graph(13, [(i, i + 1) for i in range(12)])
        with pytest.raises(EnumerationCapError):
            penrose_tree_series(big, _v_first(13, 0), 0)
        restricted = penrose_tree_series(
            big, _v_first(13, 0), 0, allowed=set(range(12))
        )
        assert restricted[0] == 1

    @pytest.mark.parametrize("g", [path_graph(14), complete_graph(14)], ids=["P14", "K14"])
    def test_generator_allowed_refused_at_cap(self, monkeypatch, g):
        # the cap reads the vertex set the trees are counted in, so a
        # one-pass iterable is refused too, before the tally starts
        def no_growth(*args):
            raise AssertionError("a tree was grown")
            yield  # a generator, as the walk is: only asking for a tree fails

        monkeypatch.setattr(penrose, "_grow_trees", no_growth)
        monkeypatch.setattr(penrose, "_layer_tally", no_growth)
        with pytest.raises(
            EnumerationCapError, match="^penrose tree enumeration: size 14 exceeds cap 12$"
        ):
            penrose_tree_series(g, VertexOrdering.natural(14), 0, allowed=(w for w in range(14)))

    @pytest.mark.parametrize("stray", [-1, 99])
    def test_allowed_vertex_outside_graph(self, stray):
        # checked before the cap, so the stray vertex is named even above it:
        # P13's vertices and the stray are 14 usable vertices, against 12
        for n in (4, 13):
            with pytest.raises(ContractViolationError, match=f"vertex {stray} "):
                penrose_tree_series(
                    path_graph(n), VertexOrdering.natural(n), 1, allowed={*range(n), stray}
                )

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.integers(0, 5))
    def test_enumerated_series_under_degree_bound(self, delta_src, u):
        # delete a neighbor u, root at one of its neighbors: degree drops below delta
        g = {3: prism_graph(), 4: octahedron(), 5: complete_graph(6)}[delta_src]
        u = u % g.n
        nbrs = sorted(g.adj[u])
        v = nbrs[0]
        h = g.without_vertex(u)
        vv = v if v < u else v - 1
        delta = g.max_degree()
        counts = penrose_tree_series(h, _v_first(h.n, vv), vv)
        hi = 1.0 / (2.0 * (delta - 1))
        for i in range(11):
            y = hi * i / 10
            total = sum(c * y ** k for k, c in enumerate(counts))
            assert total <= degree_tree_bound(delta, y) + 1e-12
