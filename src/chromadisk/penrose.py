"""Penrose trees and forests under a total vertex order.

A subtree of the graph is rooted at its order-least vertex. Its closure adds
back every omitted graph edge between tree vertices that joins two vertices at
equal depth, or a vertex x to a vertex y one level above x such that y comes
after x's father in the order. A tree equal to its closure is called Penrose
here; a forest is Penrose when each component tree is and the closure glues no
two components together (no graph edge between components qualifies, which for
vertex-disjoint trees is automatic since closure edges stay inside one tree's
vertex set).

A forest is a frozenset of edges. One walk, ``_rooted_components``, splits a
given edge set into trees, refusing edges outside the graph and cycles, and
roots each at its order-least vertex with its depth and father maps. The
forest checks read every tree from it; ``RootedTreeView`` is its one-tree case.

Every enumeration grows trees from a fixed root, the order-least vertex it may
use, so a vertex's depth and father never change once it is attached and the
chords it closes are known then. One rule, ``_closure_chords``, lists them; it
serves ``penrose_closure`` too. One walk, ``_grow_trees``, grows trees from
given roots and streams each with its vertex bitmask. Skipping attachments
that add a chord leaves the Penrose trees; keeping them gives every subtree,
for the partition-scheme verifier. ``_layer_tally`` restates the closure rule
by depth layers to count the Penrose trees on each vertex bitmask without
building one. Summed over set partitions they count the forests, whose signed
count is the chromatic polynomial; summed over the sets through a vertex they
give the series that ``genfun`` bounds.
"""

from collections import Counter
from dataclasses import dataclass
from math import comb

from . import chromatic
from .errors import ConditioningError, ContractViolationError, DomainError, EnumerationCapError
from .graphs import Graph, adjacency_masks
from .intpoly import IntPolynomial

# Vertex cap of forest counting, whose cost follows from n. The worst graph
# measured at n = 12, over G(12, p) and structured graphs, took 0.3 s per order.
DEFAULT_FOREST_CAP = 12

# Largest partition-scheme scan verify_partition_scheme runs: the sum of
# 2^|E(S)| over the vertex sets S its walk reaches, so a refusal names a lower
# bound. The scan keeps two bitsets of 2^|E(S)| bits per vertex set the current
# root's subtrees span, a few operations per subtree, so near the cap it takes
# about 2 MB more memory and seconds: K9 at r_max 6 (2,890,344 masks) 0.6-1.2 s,
# K7 at r_max 7 (2,350,594 masks, one set of 2^21) 2.7-5.7 s, on a 2-core Xeon.
# K8 at r_max 8 is refused on reaching its first 8-vertex set, at 270,566,474.
MAX_SCHEME_MASKS = 1 << 22


@dataclass(frozen=True)
class VertexOrdering:
    """Total order on 0..n-1 with both direction maps.

    order[p] is the vertex at position p; rank[v] is the position of v.
    """

    order: tuple[int, ...]
    rank: tuple[int, ...]

    @classmethod
    def from_order(cls, seq) -> "VertexOrdering":
        order = tuple(seq)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ContractViolationError("ordering must be a permutation of 0..n-1")
        rank = [0] * n
        for p, v in enumerate(order):
            rank[v] = p
        return cls(order=order, rank=tuple(rank))

    @classmethod
    def natural(cls, n: int) -> "VertexOrdering":
        idx = tuple(range(n))
        return cls(order=idx, rank=idx)

    @classmethod
    def anchored_at(cls, g: Graph, u: int) -> "VertexOrdering":
        """u first, then its neighbors ascending, then the rest ascending."""
        _check_vertices(g, (u,))
        ns = sorted(g.adj[u])
        rest = sorted(set(range(g.n)) - {u} - set(ns))
        return cls.from_order([u, *ns, *rest])

    @classmethod
    def anchored_at_pair(cls, g: Graph, u: int, v1: int, v2: int) -> "VertexOrdering":
        """u, then v1, v2 from its neighborhood, then remaining neighbors, then rest."""
        _check_vertices(g, (u,))
        if v1 == v2 or v1 not in g.adj[u] or v2 not in g.adj[u]:
            raise ContractViolationError("v1, v2 must be distinct neighbors of u")
        ns = sorted(g.adj[u] - {v1, v2})
        rest = sorted(set(range(g.n)) - {u, v1, v2} - set(ns))
        return cls.from_order([u, v1, v2, *ns, *rest])

    def least(self, vertices) -> int:
        return min(vertices, key=self.rank.__getitem__)


def _check_vertices(g: Graph, vertices) -> None:
    """ContractViolationError naming the first of ``vertices`` outside 0..n-1."""
    for w in vertices:
        if not 0 <= w < g.n:
            raise ContractViolationError(f"vertex {w} is outside 0..{g.n - 1}")


def _checked_ordering(g: Graph, ordering: VertexOrdering | None) -> VertexOrdering:
    """``ordering``, which must order the graph's n vertices; None is the natural order."""
    if ordering is None:
        return VertexOrdering.natural(g.n)
    if len(ordering.order) != g.n:
        raise ContractViolationError(f"ordering has {len(ordering.order)} vertices, not {g.n}")
    return ordering


def _rooted_components(g: Graph, ordering: VertexOrdering, edges, refuse_cycles=True):
    """(edge set, trees): ``edges`` as (low, high) pairs, and each of its trees
    as (root, depth, father), rooted at its order-least vertex under the
    checked ``ordering``, in the order of their roots. This is the one walk
    that roots an arbitrary edge set. An edge outside the graph is refused,
    and so is a cycle unless ``refuse_cycles`` is false, when the trees span
    the components.
    """
    es = frozenset((u, v) if u < v else (v, u) for u, v in edges)
    adj: dict[int, list[int]] = {}
    for u, v in es:
        if (u, v) not in g.edges:
            raise ContractViolationError(f"edge {(u, v)} is not in the graph")
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    trees, seen = [], set()
    for root in sorted(adj, key=ordering.rank.__getitem__):
        if root in seen:
            continue
        depth, father, queue = {root: 0}, {}, [root]
        for x in queue:  # breadth first: the queue grows as it is read
            for y in adj[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    father[y] = x
                    queue.append(y)
        seen.update(depth)
        trees.append((root, depth, father))
    if refuse_cycles and len(es) != len(adj) - len(trees):
        raise ContractViolationError("edge set contains a cycle")
    return es, trees


class RootedTreeView:
    """A tree-shaped edge subset with root, depth, and father maps.

    The root is always the order-least vertex of the edge set's support.
    """

    __slots__ = ("edges", "vertices", "root", "depth", "father")

    def __init__(self, g: Graph, ordering: VertexOrdering, edges):
        ordering = _checked_ordering(g, ordering)
        es, trees = _rooted_components(g, ordering, edges, refuse_cycles=False)
        if not es:
            raise ContractViolationError("tree view needs at least one edge")
        if sum(len(depth) for _, depth, _ in trees) != len(es) + 1:
            raise ContractViolationError("edge set is not a tree")
        if len(trees) > 1:
            raise ContractViolationError("edge set is not connected")
        ((self.root, self.depth, self.father),) = trees
        self.edges, self.vertices = es, frozenset(self.depth)


def _chords(g: Graph, rank, depth, father) -> list:
    """The closure chords of a rooted tree given by its depth and father maps."""
    return [c for w, x in father.items() for c in _closure_chords(g.adj, rank, depth, w, x)]


def penrose_closure(g: Graph, ordering: VertexOrdering, tree) -> frozenset:
    """Edge set of the closure of a tree: the tree plus its qualifying chords.

    A chord {x, y} (a graph edge inside the tree's vertex set, not in the
    tree) qualifies when depth(x) == depth(y), or when, with x the deeper
    endpoint by one level, y comes after x's father in the order.
    """
    ordering = _checked_ordering(g, ordering)
    t = tree if isinstance(tree, RootedTreeView) else RootedTreeView(g, ordering, tree)
    return t.edges.union(_chords(g, ordering.rank, t.depth, t.father))


def is_penrose_tree(g: Graph, ordering: VertexOrdering, tree) -> bool:
    """True when the tree equals its own closure."""
    t = tree if isinstance(tree, RootedTreeView) else RootedTreeView(g, ordering, tree)
    return penrose_closure(g, ordering, t) == t.edges


def is_penrose_forest(g: Graph, ordering: VertexOrdering, forest) -> bool:
    """True when every tree of the edge set ``forest`` equals its closure.

    Closure acts componentwise, so no cross-component gluing can occur and
    the componentwise check is the whole condition.
    """
    ordering = _checked_ordering(g, ordering)
    _, trees = _rooted_components(g, ordering, forest)
    return not any(_chords(g, ordering.rank, depth, father) for _, depth, father in trees)


def _sorted_adj(g: Graph) -> list[tuple[int, ...]]:
    return [tuple(sorted(s)) for s in g.adj]


def _closure_chords(adj, rank, depth, w, x):
    """Closure chords joining w, a child of x, to tree vertices no deeper than w.

    ``depth`` maps the vertices of a tree rooted at its order-least vertex;
    w need not be in it yet. A graph edge {w, y} qualifies when y is at w's
    depth, or one level above w and after x in the order; tree edges never
    do. A closure chord joins two vertices at equal depth or one level apart,
    so applying the rule at every vertex of a tree finds each chord at its
    deeper end.
    """
    dx = depth[x]
    out = []
    for y in adj[w]:
        if y in depth and (
            depth[y] == dx + 1 or (depth[y] == dx and rank[y] > rank[x])
        ):
            out.append((w, y) if w < y else (y, w))
    return out


def _grow_trees(adj, rank, roots, allowed, penrose_only, max_vertices=None):
    """Yield (S, tree edges, closure chords) for the subtrees rooted at each
    of ``roots`` in turn, grown over the ``allowed`` vertices not before their
    root in the order, with at most ``max_vertices`` vertices when that is
    given; S is the tree's vertex bitmask, and each root's empty tree, the
    root alone, comes first. Roots must be allowed.

    The edge and chord lists are the walk's own, changed in place as it goes
    on, so a caller copies what it keeps past the next step.

    A tree grows only over vertices after its root, so the root, and with it
    every depth and father, stays fixed as the tree grows. Candidate edges
    are used in the order they were found, and one skipped is not used again
    below, so vertices join in order of depth: the chords found when a vertex
    joins are all the chords it closes, and final. With ``penrose_only`` an
    attachment that adds a chord is skipped, which leaves exactly the Penrose
    trees, since later growth never removes a chord.

    One generator frame walks each root's trees depth first over an explicit
    stack. A stack entry is [candidates, next index, vertex added, chords
    added].
    """
    chords_of = _closure_chords  # read once per walk, through the module
    tree: list[tuple[int, int]] = []
    chords: list[tuple[int, int]] = []
    for v in roots:
        later = {w for w in allowed if rank[w] >= rank[v]}
        steps = {x: [(x, y) for y in adj[x] if y in later] for x in later}
        limit = len(later) if max_vertices is None else max_vertices
        depth = {v: 0}
        s = 1 << v
        yield s, tree, chords
        stack = [[steps[v] if limit > 1 else (), 0, v, 0]]
        while stack:
            frame = stack[-1]
            cands, i = frame[0], frame[1]
            end = len(cands)
            while i < end:
                x, w = cands[i]
                i += 1
                if w in depth:
                    continue
                new = chords_of(adj, rank, depth, w, x)
                if new and penrose_only:
                    continue
                break
            else:
                # every candidate tried: take back the vertex this frame added
                stack.pop()
                if stack:
                    w, k = frame[2], frame[3]
                    del depth[w]
                    tree.pop()
                    if k:
                        del chords[-k:]
                    s ^= 1 << w
                continue
            frame[1] = i
            depth[w] = depth[x] + 1
            tree.append((x, w) if x < w else (w, x))
            if new:
                chords.extend(new)
            s |= 1 << w
            yield s, tree, chords
            stack.append([cands[i:] + steps[w] if len(depth) < limit else (), 0, w, len(new)])


def _layer_tally(nbrs, rank, roots, allowed) -> Counter:
    """t(S), the number of Penrose trees on each vertex bitmask S, rooted at
    each of ``roots`` over the ``allowed`` vertices not before it, from the
    adjacency bitmasks ``nbrs``; no tree is built. A Penrose tree is its
    layering L0 = {root}, L1, ...: no layer holds a graph edge, each vertex of
    L(k+1) has a neighbour in Lk and its father is the order-greatest one, and
    no edge two layers apart is a chord, or the closure would add those edges.
    One pass per root runs over states (U, C) by |U|, U the covered set and
    C = N(L) - U for the last layer L; each non-empty independent X inside C
    gives (U | X, N(X) - U) and each state adds its count to t(U). A root with
    m later vertices puts each in U, in C or in neither: at most the sum of
    3^m, (3^n - 1)/2, states.
    """
    tally = Counter()
    for r in roots:
        later = sum(1 << w for w in allowed if rank[w] > rank[r])
        by_size = [{} for _ in range(later.bit_count() + 2)]  # |U| -> {(U, C): trees}
        by_size[1][1 << r, nbrs[r] & later] = 1
        for k in range(1, len(by_size)):
            states, by_size[k] = by_size[k], None
            for (u, cands), c in states.items():
                tally[u] += c
                layers = [(0, 0)]  # (X, N(X)) for the independent X inside cands
                while cands:
                    b = cands & -cands
                    cands ^= b
                    nb = nbrs[b.bit_length() - 1]
                    layers += [(x | b, reach | nb) for x, reach in layers if not x & nb]
                free = later & ~u
                for x, reach in layers[1:]:
                    nxt, key = by_size[k + x.bit_count()], (u | x, reach & free)
                    nxt[key] = nxt.get(key, 0) + c
    return tally


def _usable_roots(g: Graph, ordering: VertexOrdering, v: int, allowed):
    """(rank, usable vertices, those not after v) for the trees through v."""
    ordering = _checked_ordering(g, ordering)
    usable = frozenset(range(g.n) if allowed is None else allowed)
    _check_vertices(g, usable)
    if v not in usable:
        raise ContractViolationError("v must be in the allowed set")
    roots = [r for r in ordering.order[: ordering.rank[v] + 1] if r in usable]
    return ordering.rank, usable, roots


def penrose_trees_containing(g: Graph, ordering: VertexOrdering, v: int, allowed=None):
    """Yield the edge sets of Penrose trees whose vertex set contains v, the
    empty tree (v alone) included. ``allowed`` restricts the usable vertices
    and must hold v. Arguments are checked when the function is called,
    before the first tree is grown."""
    rank, usable, roots = _usable_roots(g, ordering, v, allowed)
    trees = _grow_trees(_sorted_adj(g), rank, roots, usable, True)
    return (frozenset(tree) for s, tree, _ in trees if s >> v & 1)


def penrose_tree_series(
    g: Graph, ordering: VertexOrdering, v: int, allowed=None
) -> tuple[int, ...]:
    """Counts of Penrose trees through v, indexed by edge count.

    Entry k is the number of Penrose trees whose vertex set contains v and
    that use k edges, 1 for k = 0; the closed-form bounds of ``genfun``
    dominate the sum of entry k times y^k. More than ``DEFAULT_FOREST_CAP``
    usable vertices are refused before the tally, after the arguments are checked.
    """
    rank, usable, roots = _usable_roots(g, ordering, v, allowed)
    if len(usable) > DEFAULT_FOREST_CAP:
        raise EnumerationCapError("penrose tree enumeration", len(usable), DEFAULT_FOREST_CAP)
    tally = _layer_tally(adjacency_masks(g), rank, roots, usable)
    sizes = [(s.bit_count() - 1, t) for s, t in tally.items() if s >> v & 1]
    return tuple(sum(t for j, t in sizes if j == k) for k in range(max(sizes)[0] + 1))


def enumerate_penrose_forests(g: Graph, ordering: VertexOrdering | None = None):
    """Yield the edge set of every Penrose forest of the graph, as a frozenset
    of (low, high) pairs, the empty forest included.

    Components are chosen root by root in increasing order, so each forest
    appears exactly once. Graphs above ``DEFAULT_FOREST_CAP`` vertices are
    refused when the function is called.
    """
    if g.n > DEFAULT_FOREST_CAP:
        raise EnumerationCapError("penrose forest enumeration", g.n, DEFAULT_FOREST_CAP)
    ordering = _checked_ordering(g, ordering)
    adj = _sorted_adj(g)
    rank = ordering.rank

    def rec(avail, acc):
        if not avail:
            yield acc
            return
        v = min(avail, key=rank.__getitem__)
        yield from rec(avail - {v}, acc)
        for _, tree, _ in _grow_trees(adj, rank, (v,), avail, True):
            if tree:
                yield from rec(avail.difference(*tree), acc.union(tree))

    return rec(frozenset(range(g.n)), frozenset())


def penrose_polynomial(
    g: Graph, ordering: VertexOrdering | None = None, max_vertices: int = DEFAULT_FOREST_CAP
) -> IntPolynomial:
    """Count Penrose forests by edge count.

    t(S), the number of Penrose trees on each vertex bitmask S, comes from
    the layered tally. A forest is a set partition into tree blocks, so
    count(A) = sum of t(S) y^(|S|-1) count(A - S) over the S inside A holding
    A's lowest vertex, memoized on A. Each A walks the shorter of the tallied
    S and the 2^(|A|-1) subsets of A holding that vertex: at most 3^n steps.
    """
    if g.n > max_vertices:
        raise EnumerationCapError("penrose forest count", g.n, max_vertices)
    ordering = _checked_ordering(g, ordering)
    tally: dict[int, dict[int, int]] = {}  # lowest vertex bit -> {S: t(S)}
    trees = _layer_tally(adjacency_masks(g), ordering.rank, ordering.order, range(g.n))
    for s, t in trees.items():
        tally.setdefault(s & -s, {})[s] = t
    memo = {0: [1]}

    def count(avail: int) -> list[int]:
        if avail not in memo:
            acc = [0] * avail.bit_count()
            low = avail & -avail
            bucket, rest = tally[low], avail ^ low
            if len(bucket) > 1 << rest.bit_count():  # fewer subsets of A hold low
                subs = [rest]
                while subs[-1]:
                    subs.append((subs[-1] - 1) & rest)
                bucket = {s | low: bucket[s | low] for s in subs if s | low in bucket}
            for s, t in bucket.items():
                if s & avail == s:
                    k = s.bit_count() - 1
                    for j, c in enumerate(count(avail ^ s)):
                        acc[j + k] += t * c
            memo[avail] = acc
        return memo[avail]

    return IntPolynomial(count((1 << g.n) - 1))


def forest_to_chromatic(fpoly: IntPolynomial, n: int) -> IntPolynomial:
    """P(q) = q^n F(-1/q): coefficient of q^(n-k) is (-1)^k times the k-th count.

    Raises ValueError when F has degree above n, which no n-vertex graph's
    forest polynomial has."""
    if fpoly.degree > n:
        raise ValueError(f"forest polynomial of degree {fpoly.degree} for {n} vertices")
    out = [0] * (n + 1)
    for k in range(fpoly.degree + 1):
        out[n - k] = (-1) ** k * fpoly.coeff(k)
    return IntPolynomial(out)


def chromatic_to_forest(p: IntPolynomial) -> IntPolynomial:
    """Inverse transform; the chromatic polynomial is monic of degree n."""
    n = p.degree
    if n < 0 or p.coeff(n) != 1:
        raise ValueError("expected a monic chromatic polynomial")
    return IntPolynomial([-c if k & 1 else c for k, c in enumerate(reversed(p.coeffs))])


def chromatic_via_penrose(
    g: Graph, ordering: VertexOrdering | None = None, max_vertices: int = DEFAULT_FOREST_CAP
) -> IntPolynomial:
    """Chromatic polynomial through the signed forest count."""
    return forest_to_chromatic(penrose_polynomial(g, ordering, max_vertices), g.n)


def forest_polynomial(g: Graph) -> IntPolynomial:
    """Forest-count polynomial, converted from the chromatic oracle's
    polynomial; the counts do not depend on the vertex order.
    ``penrose_polynomial`` counts the same forests directly."""
    # Read through the module, so that a wrapper on its attribute sees the call.
    return chromatic_to_forest(chromatic.chromatic_deletion_contraction(g))


RATIO_DENOMINATOR_RTOL = 1e-9


def ratio_R(g: Graph, u: int, z: complex) -> complex:
    """F_V(z) / F_(V-u)(z) - 1 for the forest polynomials of g and g - u.

    Raises ConditioningError when the denominator is within 1e-9 of zero
    relative to the coefficient mass at |z|.
    """
    _check_vertices(g, (u,))
    f_all = forest_polynomial(g)
    f_del = forest_polynomial(g.without_vertex(u))
    denom = f_del(complex(z))
    threshold = RATIO_DENOMINATOR_RTOL * f_del.eval_abs(abs(z))
    if abs(denom) <= threshold:
        raise ConditioningError(abs(denom), threshold)
    return f_all(complex(z)) / denom - 1


@dataclass(frozen=True)
class SchemeCounterexample:
    """A failing vertex set, its lowest failing connected spanning edge set,
    and the number of its spanning trees whose closure intervals hold that
    edge set: 0 for a gap, 2 or more for an overlap."""

    subset: frozenset
    edge_set: frozenset
    containing_trees: int


@dataclass(frozen=True)
class SchemeReport:
    """subsets_checked counts the vertex subsets with 2 to r_max vertices;
    edge_sets_checked counts the connected spanning edge sets of each such
    vertex set once. counterexample is None exactly when passed."""

    passed: bool
    subsets_checked: int
    edge_sets_checked: int
    counterexample: SchemeCounterexample | None


def verify_partition_scheme(
    g: Graph, ordering: VertexOrdering | None = None, r_max: int = 6
) -> SchemeReport:
    """Check the interval partition of connected edge sets, once per vertex set.

    For every vertex subset R with 2 to r_max vertices, every connected
    spanning subset of the induced edge set E(R) must lie in the closure
    interval [T, closure(T)] of exactly one spanning tree T. Spanning means
    covering R's support S, the vertices E(R) touches. As E(R) = E(S), R has
    S's edge sets and spanning trees, so one check of each S covers every R
    on it; only a connected S has any. r_max below 2 raises DomainError.

    Every subtree with at most r_max vertices is grown once, from its
    order-least vertex, with the closure chords collected as it grew, the
    free edges of its interval, and folded into the bitsets of its vertex
    set S (see _IntervalScan). Each S adds 2^|E(S)| to the scan's size when
    first reached; once the sum passes MAX_SCHEME_MASKS, EnumerationCapError
    names it, a lower bound. A spanning tree of S is a subset of E(S), so
    the trees grown by then never outnumber the masks counted.

    A failure names the failing S that comes first by size, then as a sorted
    vertex tuple, which is the first failing R by size, then in lexicographic
    order: a failing R's support fails too, has at most |R| vertices and is
    its own support, so the least failing R is a support. The intervals
    holding S's lowest failing edge set are counted by growing S's trees again.
    """
    if r_max < 2:
        raise DomainError(f"r_max must be at least 2, got {r_max}")
    ordering = _checked_ordering(g, ordering)
    top = min(r_max, g.n)
    adj = _sorted_adj(g)
    rank = ordering.rank
    size = edge_sets = 0
    failures = []  # (|S|, S's sorted vertices, S, lowest bad mask)
    for r in ordering.order:
        scans: dict[int, _IntervalScan] = {}
        for s, tree, chords in _grow_trees(adj, rank, (r,), range(g.n), False, top):
            if tree:
                scan = scans.get(s)
                if scan is None:
                    scan = scans[s] = _IntervalScan(adj, s)
                    size += 1 << len(scan.edges)
                    if size > MAX_SCHEME_MASKS:
                        raise EnumerationCapError("partition scheme scan", size, MAX_SCHEME_MASKS)
                scan.add(tree, chords)
        for s, scan in scans.items():
            count, bad = scan.result()
            edge_sets += count
            if bad is not None:
                vs = [v for v in range(s.bit_length()) if s >> v & 1]
                failures.append((len(vs), vs, s, bad))
    subsets = sum(comb(g.n, k) for k in range(2, top + 1))
    first = _counterexample(adj, rank, *min(failures)[2:]) if failures else None
    return SchemeReport(first is None, subsets, edge_sets, first)


class _IntervalScan:
    """The interval partition check on the spanning trees of one vertex set.

    Edge sets are masks over the set's induced edges in sorted order, and a
    set of masks is a bitset with bit x for mask x. A tree's interval is its
    mask shifted by every sum of its chord bits; ``once`` holds the masks hit
    at least once and ``twice`` those hit again. Every hit mask contains a
    tree, so the connected spanning masks are the upward closure of once, and
    the scheme holds exactly when that closure equals once and twice is empty.
    """

    __slots__ = ("edges", "bit", "once", "twice")

    def __init__(self, adj, s: int):
        self.edges = [
            (u, w)
            for u in range(s.bit_length())
            if s >> u & 1
            for w in adj[u]
            if w > u and s >> w & 1
        ]
        self.bit = {e: 1 << i for i, e in enumerate(self.edges)}
        self.once = self.twice = 0

    def interval(self, tree, chords) -> int:
        bit = self.bit
        iv = 1
        for e in chords:
            iv |= iv << bit[e]
        return iv << sum(map(bit.__getitem__, tree))

    def add(self, tree, chords) -> None:
        iv = self.interval(tree, chords)
        self.twice |= self.once & iv
        self.once |= iv

    def result(self) -> tuple[int, int | None]:
        """(connected spanning masks, lowest bad mask or None)."""
        spans = self.once
        size = 1 << len(self.edges)
        for b in self.bit.values():
            low, width = (1 << b) - 1, b << 1  # the masks without edge b
            while width < size:
                low |= low << width
                width <<= 1
            spans |= (spans & low) << b
        bad = (spans ^ self.once) | self.twice
        return spans.bit_count(), (bad & -bad).bit_length() - 1 if bad else None


def _counterexample(adj, rank, s: int, x: int) -> SchemeCounterexample:
    """The edge mask x over the vertex set s, with the number of spanning
    trees of s whose intervals hold it; the trees are grown again."""
    scan = _IntervalScan(adj, s)
    vs = [v for v in range(s.bit_length()) if s >> v & 1]
    root = min(vs, key=rank.__getitem__)
    containing = sum(
        scan.interval(tree, chords) >> x & 1
        for t, tree, chords in _grow_trees(adj, rank, (root,), vs, False)
        if t == s
    )
    return SchemeCounterexample(
        subset=frozenset(vs),
        edge_set=frozenset(e for e in scan.edges if x & scan.bit[e]),
        containing_trees=containing,
    )


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the two-anchor merge test.

    penrose is True when attaching the two anchor edges to the forest gives a
    Penrose tree; otherwise violated_by names the first failing condition:
    'a' for a cross edge at equal depth, 'b' for a cross edge one level apart
    whose shallow end comes after the deep end's father, 'c' for an edge from
    the second anchor to a child of the first.
    """

    penrose: bool
    violated_by: str | None


def obstruction_check(
    g: Graph, ordering: VertexOrdering, u: int, pair, forest
) -> ObstructionResult:
    """Classify whether u joined to both anchors keeps the forest Penrose.

    ``pair`` is (v1, v2): two non-adjacent neighbors of u, placed immediately
    after u in the ordering. ``forest`` is a Penrose forest of g - u with at
    most two components, one rooted at each anchor (either may be absent, not
    both). The verdict comes from the three structural conditions alone; it
    matches the direct closure computation on the merged tree.
    """
    ordering = _checked_ordering(g, ordering)
    v1, v2 = pair
    rank = ordering.rank
    if rank[u] != 0 or rank[v1] != 1 or rank[v2] != 2:
        raise ContractViolationError("ordering must place u, v1, v2 first, in order")
    if v1 not in g.adj[u] or v2 not in g.adj[u]:
        raise ContractViolationError("anchors must be neighbors of u")
    if v2 in g.adj[v1]:
        raise ContractViolationError("anchors must be non-adjacent")
    es, trees = _rooted_components(g, ordering, forest)
    if not es:
        raise ContractViolationError("forest must have at least one edge")
    if any(u in depth for _, depth, _ in trees):
        raise ContractViolationError("forest must avoid u")
    if any(_chords(g, rank, depth, father) for _, depth, father in trees):
        raise ContractViolationError("forest must be Penrose")
    # Every other vertex comes after u, v1 and v2, so a tree holding v1 is
    # rooted at v1 and one holding v2 but not v1 at v2. Depths count from the
    # anchors, not from u, which shifts both sides alike.
    by_anchor = {v1: ({}, {}), v2: ({}, {})}
    for root, depth, father in trees:
        if v1 in depth and v2 in depth:
            raise ContractViolationError("anchors must lie in different components")
        if root not in by_anchor:
            raise ContractViolationError("every component must contain an anchor")
        by_anchor[root] = depth, father
    (d1, f1), (d2, f2) = by_anchor[v1], by_anchor[v2]

    violated = None
    for x in sorted(d1):
        for y in sorted(d2):
            if y not in g.adj[x]:
                continue
            if d1[x] == d2[y]:
                violated = "a"
                break
            if d1[x] == d2[y] + 1 and rank[y] > rank[f1[x]]:
                violated = "b"
                break
            if d2[y] == d1[x] + 1 and rank[x] > rank[f2[y]]:
                violated = "b"
                break
        if violated:
            break
    if violated is None:
        for x, d in d1.items():
            if d == 1 and v2 in g.adj[x]:
                violated = "c"
                break
    return ObstructionResult(penrose=violated is None, violated_by=violated)
