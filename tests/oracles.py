"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: exhaustive subset scans and explicit
structure enumeration, no sharing with the package's algorithms beyond the
closure definition itself. The exceptions are minimize_c_nested, a brute
force over a built on the package's fixed-a constant fixed_a_bound, which checks
the closed-form minimize_c, and verify_partition_scheme_scan, which tests
every spanning tree against every connected edge set with the package's
penrose_closure. That function applies the chord rule penrose._closure_chords,
which the package's verifier applies too, so a test that substitutes the rule
changes both sides alike.
"""

import math
from itertools import combinations

from chromadisk import (
    BoundResult,
    ContractViolationError,
    DomainError,
    Graph,
    RootedTreeView,
    VertexOrdering,
    fixed_a_bound,
    is_penrose_forest,
    is_penrose_tree,
    penrose,
)
from chromadisk.penrose import SchemeCounterexample, SchemeReport


def is_tree_edge_set(edges) -> bool:
    es = list(edges)
    verts = {x for e in es for x in e}
    if not es or len(verts) != len(es) + 1:
        return False
    adj = {v: [] for v in verts}
    for u, v in es:
        adj[u].append(v)
        adj[v].append(u)
    seen = {next(iter(verts))}
    stack = [next(iter(seen))]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def is_forest_edge_set(edges) -> bool:
    es = list(edges)
    verts = {x for e in es for x in e}
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in es:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_force_penrose_forests(g: Graph, ordering: VertexOrdering):
    """Every Penrose forest by scanning all edge subsets."""
    es = sorted(g.edges)
    out = []
    for k in range(len(es) + 1):
        for sub in combinations(es, k):
            if is_forest_edge_set(sub) and is_penrose_forest(g, ordering, sub):
                out.append(frozenset(sub))
    return out


def brute_force_trees_containing(g: Graph, v: int, allowed=None):
    """Every subtree (edge set) whose vertex support contains v."""
    if allowed is None:
        allowed = set(range(g.n))
    es = sorted(
        e for e in g.edges if e[0] in allowed and e[1] in allowed
    )
    out = [frozenset()]
    for k in range(1, len(es) + 1):
        for sub in combinations(es, k):
            verts = {x for e in sub for x in e}
            if v in verts and is_tree_edge_set(sub):
                out.append(frozenset(sub))
    return out


def brute_force_penrose_trees_containing(g: Graph, ordering: VertexOrdering, v: int, allowed=None):
    return [
        t
        for t in brute_force_trees_containing(g, v, allowed)
        if not t or is_penrose_tree(g, ordering, t)
    ]


def neighborhood_complement_claw_free(g: Graph) -> bool:
    """Alternative claw-freeness formulation: no neighborhood has a triangle
    in its complement."""
    for v in range(g.n):
        ns = sorted(g.adj[v])
        comp = {(a, b) for a, b in combinations(ns, 2) if b not in g.adj[a]}
        for a, b, c in combinations(ns, 3):
            if (a, b) in comp and (a, c) in comp and (b, c) in comp:
                return False
    return True


def non_edges_in_neighborhood(g: Graph, v: int) -> frozenset:
    """Unordered pairs of neighbors of v that are not adjacent to each other."""
    ns = sorted(g.adj[v])
    return frozenset((a, b) for a, b in combinations(ns, 2) if b not in g.adj[a])


def count_proper_colorings(g: Graph, q: int) -> int:
    """Direct backtracking count of proper q-colorings; cross-check oracle."""
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    color = [-1] * g.n

    def rec(i: int) -> int:
        if i == g.n:
            return 1
        v = order[i]
        total = 0
        for c in range(q):
            if all(color[w] != c for w in g.adj[v]):
                color[v] = c
                total += rec(i + 1)
                color[v] = -1
        return total

    return rec(0)


def _induced_edge_count(g: Graph, quad) -> int:
    return sum(1 for u, v in combinations(quad, 2) if v in g.adj[u])


def is_square_free_scan(g: Graph) -> bool:
    """No 4 vertices induce a chordless cycle, by a scan over quadruples.

    On 4 vertices, exactly 4 induced edges with minimum degree 2 pins down
    the 4-cycle.
    """
    for quad in combinations(range(g.n), 4):
        if _induced_edge_count(g, quad) != 4:
            continue
        degs = [sum(1 for w in quad if w != u and w in g.adj[u]) for u in quad]
        if min(degs) == 2:
            return False
    return True


def is_diamond_free_scan(g: Graph) -> bool:
    """No 4 vertices induce K4 minus an edge, by a scan over quadruples."""
    for quad in combinations(range(g.n), 4):
        if _induced_edge_count(g, quad) == 5:
            return False
    return True


def verify_partition_scheme_scan(
    g: Graph, ordering: VertexOrdering | None = None, r_max: int = 6
) -> SchemeReport:
    """The interval partition check by brute force: every (k-1)-subset of the
    induced edges is tested for being a spanning tree, every edge mask for
    being connected and spanning, and every connected spanning set against
    every tree interval. A subset R that is not its own support S, the
    vertices its edges touch, is counted and skipped: its edge sets and
    trees are exactly S's, so its check repeats S's. The scan runs to the
    end and keeps the first failing set."""
    if ordering is None:
        ordering = VertexOrdering.natural(g.n)
    subsets = 0
    edge_sets = 0
    counterexample = None
    for r in range(2, min(r_max, g.n) + 1):
        for rset in combinations(range(g.n), r):
            rs = set(rset)
            er = sorted(e for e in g.edges if e[0] in rs and e[1] in rs)
            subsets += 1
            support = sorted({x for e in er for x in e})
            if support != list(rset):
                continue
            k = len(support)
            trees = []
            for cand in combinations(er, k - 1):
                try:
                    view = RootedTreeView(g, ordering, cand)
                except ContractViolationError:
                    continue
                if view.vertices == frozenset(support):
                    closure = penrose.penrose_closure(g, ordering, view)
                    trees.append((frozenset(cand), closure))
            pos = {v: i for i, v in enumerate(support)}
            bit_adj = [[] for _ in range(k)]
            for idx, (a, b) in enumerate(er):
                bit_adj[pos[a]].append((pos[b], idx))
                bit_adj[pos[b]].append((pos[a], idx))
            full = (1 << k) - 1
            for mask in range(1, 1 << len(er)):
                chosen = [e for i, e in enumerate(er) if mask >> i & 1]
                verts = 0
                for a, b in chosen:
                    verts |= 1 << pos[a]
                    verts |= 1 << pos[b]
                if verts != full:
                    continue
                in_mask = [False] * len(er)
                for i in range(len(er)):
                    if mask >> i & 1:
                        in_mask[i] = True
                stack = [0]
                seen_count = 1
                visited = [False] * k
                visited[0] = True
                while stack:
                    x = stack.pop()
                    for y, idx in bit_adj[x]:
                        if in_mask[idx] and not visited[y]:
                            visited[y] = True
                            seen_count += 1
                            stack.append(y)
                if seen_count != k:
                    continue
                edge_sets += 1
                cset = frozenset(chosen)
                hits = sum(1 for t, clo in trees if t <= cset <= clo)
                if hits != 1 and counterexample is None:
                    counterexample = SchemeCounterexample(
                        subset=frozenset(rs),
                        edge_set=cset,
                        containing_trees=hits,
                    )
    return SchemeReport(
        passed=counterexample is None,
        subsets_checked=subsets,
        edge_sets_checked=edge_sets,
        counterexample=counterexample,
    )


def spanning_tree_total(g: Graph, r_max: int) -> int:
    """Sum over the vertex sets S with 2 to r_max vertices of the number of
    spanning trees of G[S], found by testing every (|S|-1)-subset of the
    induced edges; a disconnected S has none."""
    total = 0
    for r in range(2, min(r_max, g.n) + 1):
        for s in combinations(range(g.n), r):
            es = sorted(e for e in g.edges if e[0] in s and e[1] in s)
            total += sum(
                1
                for cand in combinations(es, r - 1)
                if is_tree_edge_set(cand) and len({x for e in cand for x in e}) == r
            )
    return total


def count_admissible_subtrees(d: int, m: int, n_max: int) -> list[int]:
    """Counts of rooted slot-labeled subtrees by vertex number, enumerated
    explicitly.

    Each vertex hangs at most two children on distinct slots 0..d-1; a
    two-child vertex must use one of the first m slot pairs in lexicographic
    order. Structures are built as nested tuples, so each admissible subtree
    is constructed exactly once and independently of any recurrence.
    """
    pairs = list(combinations(range(d), 2))[:m]
    if len(pairs) < m:
        raise ValueError(f"d={d} offers only {len(pairs)} slot pairs, m={m} impossible")
    memo: dict[int, list] = {}

    def shapes(budget: int):
        if budget in memo:
            return memo[budget]
        out = [(1, "leaf")]
        if budget >= 2:
            for j in range(d):
                for s, sh in shapes(budget - 1):
                    if 1 + s <= budget:
                        out.append((1 + s, ("one", j, sh)))
        if budget >= 3:
            for j, k in pairs:
                for s1, sh1 in shapes(budget - 2):
                    for s2, sh2 in shapes(budget - 1 - s1):
                        if 1 + s1 + s2 <= budget:
                            out.append((1 + s1 + s2, ("two", j, sh1, k, sh2)))
        memo[budget] = out
        return out

    counts = [0] * n_max
    seen = set()
    for s, sh in shapes(n_max):
        if sh in seen:
            raise AssertionError("duplicate structure generated")
        seen.add(sh)
        counts[s - 1] += 1
    return counts


def solve_x_linear(a: float) -> float:
    """Closed form of solve_x for kappa = 0: a / (1 - a), capped at 1/2."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0, 1), got {a}")
    return min(a / (1.0 - a), 0.5)


A_GOLDEN_TOL = 1e-9
A_GRID_STEP = 1e-3
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_c_nested(class_index: int, kappa: float) -> BoundResult:
    """Infimum of fixed_a_bound over a in (0, 1) by brute force over a.

    A grid of 999 values of a, each solved for x by bisection, brackets the
    minimizer; golden section on a narrows the bracket to A_GOLDEN_TOL.
    """
    k = float(kappa)
    steps = round(1.0 / A_GRID_STEP) - 1
    grid = [(j + 1) * A_GRID_STEP for j in range(steps)]
    vals = [fixed_a_bound(class_index, k, a).c_star for a in grid]
    j = min(range(len(grid)), key=lambda i: (vals[i], grid[i]))
    lo = grid[j - 1] if j > 0 else grid[0]
    hi = grid[j + 1] if j + 1 < len(grid) else grid[-1]

    f = lambda a: fixed_a_bound(class_index, k, a).c_star
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > A_GOLDEN_TOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return fixed_a_bound(class_index, k, c if fc <= fd else d)
