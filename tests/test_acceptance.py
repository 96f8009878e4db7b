"""Release checklist: one test per shipped guarantee, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they print. Budgeted tests assert wall-clock limits, so a pathologically slow
machine fails loudly instead of silently degrading.
"""

import time
from fractions import Fraction
from itertools import combinations, permutations

from corpora import (
    all_graphs_up_to_iso,
    certificate_corpus,
    claw_free_corpus,
    g1_corpus,
    random_graph_batch,
    random_ordering,
)
from oracles import count_admissible_subtrees, solve_x_linear

from chromadisk import (
    BranchingParams,
    VertexOrdering,
    chromatic_deletion_contraction,
    chromatic_via_penrose,
    classify,
    constants_table,
    degree_tree_bound,
    envelope_bound,
    forest_polynomial,
    is_penrose_tree,
    kappa_for_bounds,
    minimize_c,
    neighborhood_stats,
    obstruction_check,
    penrose_tree_series,
    penrose_trees_containing,
    polynomial_roots,
    ratio_R,
    solve_x,
    tree_count_table,
    tree_series,
    verify_partition_scheme,
)
from chromadisk.bounds import REFERENCE_TABLE, TABLE_CHECK_TOL
from chromadisk.cli import main
from chromadisk.corpus import (
    complete_graph,
    octahedron,
    prism_graph,
    scheme_corpus,
    wheel_graph,
)

RATIO_SLACK = 1e-9
CHAIN_SLACK = 1e-12


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _circle(radius: float, points: int = 16) -> list[complex]:
    import cmath
    import math

    return [radius * cmath.exp(2j * math.pi * k / points) for k in range(points)]


def test_criterion_1_constants_table_regression(capsys):
    t0 = time.perf_counter()
    code = main(["table1", "--step", "0.1", "--check"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()

    rows = constants_table(0.1)
    errs = []
    for row, ref in zip(rows, REFERENCE_TABLE, strict=True):
        for field in ("c_class0", "c_class1", "a_star0", "a_star1"):
            errs.append(abs(getattr(row, field) - getattr(ref, field)))
    ok = code == 0 and len(errs) == 44 and max(errs) <= TABLE_CHECK_TOL and elapsed < 5.0
    _verdict(1, ok, f"{len(errs)} cells, max err {max(errs):.1e}, {elapsed:.2f} s")
    assert code == 0
    assert len(errs) == 44
    assert max(errs) <= TABLE_CHECK_TOL
    assert elapsed < 5.0


def test_criterion_2_degenerate_pair_endpoint():
    results = [minimize_c(0, Fraction(0)), minimize_c(1, Fraction(0))]
    c_err = max(abs(res.c_star - 3.0) for res in results)
    a_err = max(abs(res.a_star - 1.0 / 3.0) for res in results)

    # With no independent neighbor pairs the threshold solve is linear, so
    # the root solve must land on a / (1 - a) capped at one half.
    x_err = 0.0
    for j in range(1, 50):
        a = j / 100.0
        x_err = max(x_err, abs(solve_x(0, Fraction(0), a) - solve_x_linear(a)))

    ok = c_err <= 5e-7 and a_err <= 1e-6 and x_err <= 1e-9
    _verdict(2, ok, f"C err {c_err:.1e}, a* err {a_err:.1e}, threshold err {x_err:.1e}")
    assert c_err <= 5e-7
    assert a_err <= 1e-6
    assert x_err <= 1e-9


def test_criterion_3_forest_count_identity():
    t0 = time.perf_counter()
    bad = []
    graphs = [g for n in range(1, 6) for g in all_graphs_up_to_iso(n)]
    exhaustive = len(graphs)
    graphs += random_graph_batch(200)
    for i, g in enumerate(graphs):
        o = VertexOrdering.from_order(random_ordering(g.n, seed=5000 + i))
        via_forests = chromatic_via_penrose(g, o)
        direct = chromatic_deletion_contraction(g)
        if via_forests != direct:
            bad.append((i, g))
    elapsed = time.perf_counter() - t0

    ok = not bad and exhaustive == 52 and elapsed < 120.0
    _verdict(3, ok, f"{exhaustive} exhaustive + 200 random graphs, {elapsed:.2f} s")
    assert exhaustive == 52
    assert not bad, bad[:3]
    assert elapsed < 120.0


def test_criterion_4_interval_decomposition():
    t0 = time.perf_counter()
    corpus = scheme_corpus()
    assert max(g.n for g in corpus) <= 8
    failures = []
    subsets = 0
    for g in corpus:
        report = verify_partition_scheme(g, r_max=6)
        subsets += report.subsets_checked
        if not report.passed:
            failures.append((g, report.counterexample))
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 120.0
    _verdict(4, ok, f"{len(corpus)} graphs, {subsets} subsets, {elapsed:.2f} s")
    assert not failures, failures
    assert elapsed < 120.0


def _merged_tree(u, pair, forest):
    v1, v2 = pair
    return frozenset(forest) | {tuple(sorted((u, v1))), tuple(sorted((u, v2)))}


def _anchored_forests(g, u):
    """Yield (ordering, pair, forest) for every two-tree forest anchored at
    an independent neighbor pair of u, avoiding u, plus the one-tree forests
    where the second anchor stays a bare vertex."""
    others = frozenset(range(g.n)) - {u}
    for v1, v2 in permutations(sorted(g.neighbors(u)), 2):
        if g.has_edge(v1, v2):
            continue
        o = VertexOrdering.anchored_at_pair(g, u, v1, v2)
        for t1 in penrose_trees_containing(g, o, v1, allowed=others - {v2}):
            t1_verts = {x for e in t1 for x in e} or {v1}
            for t2 in penrose_trees_containing(g, o, v2, allowed=others - t1_verts):
                forest = frozenset(t1) | frozenset(t2)
                if forest:
                    yield o, (v1, v2), forest


def test_criterion_5_merge_obstruction_equivalence():
    bad = []
    checked = 0
    for g in claw_free_corpus():
        for u in range(g.n):
            for o, pair, forest in _anchored_forests(g, u):
                res = obstruction_check(g, o, u, pair, forest)
                direct = is_penrose_tree(g, o, _merged_tree(u, pair, forest))
                if res.penrose != direct:
                    bad.append((g, u, pair, forest, res))
                checked += 1

    # Square- and diamond-free graphs admit no obstruction at all when the
    # second anchor contributes a bare vertex.
    exceptions = []
    g1_checked = 0
    for g in g1_corpus():
        for u in range(g.n):
            for o, pair, forest in _anchored_forests(g, u):
                if pair[1] in {x for e in forest for x in e}:
                    continue
                res = obstruction_check(g, o, u, pair, forest)
                direct = is_penrose_tree(g, o, _merged_tree(u, pair, forest))
                if not (res.penrose and direct):
                    exceptions.append((g, u, pair, forest))
                g1_checked += 1

    ok = not bad and not exceptions
    _verdict(5, ok, f"{checked} merges, {g1_checked} single-tree merges, 0 exceptions" if ok
             else f"{len(bad)} disagreements, {len(exceptions)} exceptions")
    assert not bad, bad[:3]
    assert not exceptions, exceptions[:3]
    assert checked > 1000
    assert g1_checked > 100


def _v_first(n: int, v: int) -> VertexOrdering:
    return VertexOrdering.from_order([v] + [w for w in range(n) if w != v])


def test_criterion_6_tree_series_chain():
    # Recurrence counts against brute-force local-tree enumeration.
    count_bad = []
    for d in (2, 3):
        for m in range(0, min(2, d * (d - 1) // 2) + 1):
            table = tree_count_table(BranchingParams(d, m), 6)
            direct = count_admissible_subtrees(d, m, 6)
            for n in range(1, 7):
                if table.count(n) != direct[n - 1]:
                    count_bad.append((d, m, n))

    # Closed form solves its own quadratic on a fine grid.
    fe_worst = 0.0
    for d, m in ((2, 1), (3, 2), (4, 0), (5, 3)):
        params = BranchingParams(d, m)
        for j in range(100):
            y = params.radius * j / 100.0
            w = tree_series(params, y)
            resid = abs(w - (1.0 + d * y * w + m * (y * w) ** 2))
            fe_worst = max(fe_worst, resid / max(1.0, abs(w)))

    # Enumerated tree series stays below the degree bound when the root has
    # one neighbor removed.
    series_worst = -1.0
    for g in (prism_graph(), octahedron(), complete_graph(6), wheel_graph(5)):
        delta = g.max_degree()
        hi = 1.0 / (2.0 * (delta - 1))
        for u in range(g.n):
            rest = g.without_vertex(u)
            for v in sorted(g.neighbors(u)):
                vr = v - (v > u)
                counts = penrose_tree_series(rest, _v_first(rest.n, vr), vr)
                for j in range(11):
                    y = hi * j / 10.0
                    total = sum(c * y**k for k, c in enumerate(counts))
                    series_worst = max(series_worst, total - degree_tree_bound(delta, y))

    # Closed form under degree bound under the degree-free envelope.
    chain_worst = -1.0
    for delta in range(3, 13):
        d = delta - 1
        params = BranchingParams(d, d * d // 4)
        hi = 1.0 / (2.0 * d)
        for j in range(20):
            y = hi * j / 20.0
            chain_worst = max(chain_worst, tree_series(params, y) - degree_tree_bound(delta, y))
        for j in range(21):
            x = 0.5 * j / 20.0
            chain_worst = max(
                chain_worst, degree_tree_bound(delta, x / delta) - envelope_bound(x)
            )

    ok = (
        not count_bad
        and fe_worst <= CHAIN_SLACK
        and series_worst <= CHAIN_SLACK
        and chain_worst <= CHAIN_SLACK
    )
    _verdict(
        6,
        ok,
        f"counts exact, residual {fe_worst:.1e}, "
        f"worst slack {max(series_worst, chain_worst):.1e}",
    )
    assert not count_bad, count_bad
    assert fe_worst <= CHAIN_SLACK
    assert series_worst <= CHAIN_SLACK
    assert chain_worst <= CHAIN_SLACK


def _disk_constants(g):
    stats = neighborhood_stats(g)
    res = minimize_c(classify(g).class_index, kappa_for_bounds(stats.kappa))
    return stats.delta, res


def test_criterion_7_zero_free_certificate():
    corpus = certificate_corpus()
    assert all(classify(g).claw_free and g.max_degree() >= 3 for g in corpus)

    # Every chromatic root sits strictly inside the disk, with margin far
    # beyond the root-finding residual.
    roots_checked = 0
    min_margin = float("inf")
    for g in corpus:
        delta, res = _disk_constants(g)
        radius = res.disk_radius(delta)
        p = chromatic_deletion_contraction(g)
        for root in polynomial_roots(p):
            margin = radius - abs(root.value)
            assert margin > 10.0 * max(root.residual, 1e-15), (g, root)
            min_margin = min(min_margin, margin)
            roots_checked += 1

    # Single-vertex ratio bound on the certificate circle.
    small = [g for g in corpus if g.n <= 10]
    ratio_worst = 0.0
    for g in small:
        delta, res = _disk_constants(g)
        for u in range(g.n):
            for z in _circle(res.z_star(delta)):
                ratio_worst = max(ratio_worst, abs(ratio_R(g, u, z)) - res.a_star)

    # Deleting up to two more vertices inflates the forest sum by at most
    # (1 - a*)^-|A| on the same circle.
    deletion_worst = 0.0
    for g in small:
        delta, res = _disk_constants(g)
        zs = _circle(res.z_star(delta))
        for u in range(g.n):
            rest = [v for v in range(g.n) if v != u]
            f_rest = forest_polynomial(g.induced(rest))
            removable = [()] + [(a,) for a in rest] + list(combinations(rest, 2))
            for dropped in removable:
                keep = [v for v in rest if v not in dropped]
                f_keep = forest_polynomial(g.induced(keep))
                bound = (1.0 - res.a_star) ** (-len(dropped))
                for z in zs:
                    ratio = abs(f_keep(z) / f_rest(z))
                    deletion_worst = max(deletion_worst, ratio - bound)

    # The forest sum itself stays clear of zero on and inside the circle.
    vanish_bad = []
    for g in corpus:
        delta, res = _disk_constants(g)
        f = forest_polynomial(g)
        for frac in (0.25, 0.5, 0.75, 1.0):
            r = frac * res.z_star(delta)
            floor = 1e-9 * f.eval_abs(r)
            for z in _circle(r):
                if not abs(f(z)) > floor:
                    vanish_bad.append((g, z))

    ok = ratio_worst <= RATIO_SLACK and deletion_worst <= RATIO_SLACK and not vanish_bad
    _verdict(
        7,
        ok,
        f"{roots_checked} roots (min margin {min_margin:.2f}), "
        f"ratio slack {ratio_worst:.1e}, deletion slack {deletion_worst:.1e}",
    )
    assert min_margin > 0
    assert ratio_worst <= RATIO_SLACK
    assert deletion_worst <= RATIO_SLACK
    assert not vanish_bad, vanish_bad[:3]
