"""Chromatic polynomials by deletion and contraction, and their roots.

The recursion memoizes solved minors. A minor's key is its vertex and edge
counts and a hash of its label refinement (``graphs.refinement_certificate``),
which isomorphic minors share; within a key, ``graphs.isomorphic`` decides
each stored candidate, so a hash collision costs one more test and can never
return a wrong polynomial. Minors are stored as tuples of adjacency bitmasks,
and two equal tuples need no search. Components multiply, and trees, cycles,
and complete graphs short-circuit to closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError
from .graphs import Graph, components, isomorphic, refinement_certificate
from .intpoly import IntPolynomial

DEFAULT_ORACLE_CAP = 16


class ChromaticCache:
    """Solved minors, bucketed by (n, m, refinement certificate).

    Isomorphic minors share a certificate, so a lookup probes only the
    entries of one bucket, and those are nearly always isomorphic to the
    query; ``graphs.isomorphic`` decides each probe, so a colliding
    certificate costs an extra probe and never a wrong polynomial. Each entry
    keeps the minor as a tuple of adjacency bitmasks with its refined labels.
    ``hits`` and ``misses`` count lookups; ``probes`` counts isomorphism
    tests, so ``probes - hits`` is the number of probes that found no match.
    """

    def __init__(self):
        self._buckets: dict[tuple, list] = {}
        self.hits = 0
        self.misses = 0
        self.probes = 0

    def lookup(self, key, adj, labels):
        for stored_adj, stored_labels, poly in self._buckets.get(key, ()):
            self.probes += 1
            if isomorphic(adj, labels, stored_adj, stored_labels):
                self.hits += 1
                return poly
        self.misses += 1
        return None

    def store(self, key, adj, labels, poly):
        self._buckets.setdefault(key, []).append((adj, labels, poly))

    def clear(self):
        self._buckets.clear()
        self.hits = 0
        self.misses = 0
        self.probes = 0


_default_cache = ChromaticCache()


def _compact(vertices, edges):
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    return len(vs), frozenset(
        (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges
    )


def _tree_poly(n: int) -> IntPolynomial:
    return IntPolynomial((0, 1)) * (IntPolynomial((-1, 1)) ** (n - 1))


def _cycle_poly(n: int) -> IntPolynomial:
    qm1 = IntPolynomial((-1, 1))
    return qm1 ** n + qm1.scale((-1) ** n)


def _solve(n, edges, cache):
    if not edges:
        return IntPolynomial.monomial(n)
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    touched = [v for v in range(n) if adj[v]]
    if len(touched) < n:
        nn, ee = _compact(touched, edges)
        return IntPolynomial.monomial(n - len(touched)) * _solve(nn, ee, cache)
    comps = components(adj)
    if len(comps) > 1:
        poly = IntPolynomial.one()
        for comp in comps:
            verts = [v for v in range(n) if comp >> v & 1]
            sub = [e for e in edges if comp >> e[0] & 1]
            nn, ee = _compact(verts, sub)
            poly = poly * _solve(nn, ee, cache)
        return poly
    m = len(edges)
    if m == n - 1:
        return _tree_poly(n)
    if m == n * (n - 1) // 2:
        return IntPolynomial.falling_factorial(n)
    if all(a.bit_count() == 2 for a in adj):
        return _cycle_poly(n)
    adj = tuple(adj)
    certificate, labels = refinement_certificate(adj)
    key = (n, m, certificate)
    hit = cache.lookup(key, adj, labels)
    if hit is not None:
        return hit
    # contract the edge with the most common neighbors; collapses triangles fast
    u, v = max(edges, key=lambda e: ((adj[e[0]] & adj[e[1]]).bit_count(), -e[0], -e[1]))
    deleted = edges - {(u, v)}
    merged = set()
    for a, b in deleted:
        x = u if a == v else a
        y = u if b == v else b
        if x != y:
            merged.add((x, y) if x < y else (y, x))
    nn, ee = _compact(sorted(set(range(n)) - {v}), merged)
    poly = _solve(n, deleted, cache) - _solve(nn, ee, cache)
    cache.store(key, adj, labels, poly)
    return poly


def chromatic_deletion_contraction(
    g: Graph, *, cache: ChromaticCache | None = None, max_vertices: int = DEFAULT_ORACLE_CAP
) -> IntPolynomial:
    """Exact chromatic polynomial of g.

    Refuses graphs above ``max_vertices`` (default 16); the recursion is
    exponential and this package targets desk-scale instances. Passing a
    shared ChromaticCache makes repeated induced-subgraph calls cheap.
    """
    if g.n > max_vertices:
        raise EnumerationCapError("deletion-contraction", g.n, max_vertices)
    if cache is None:
        cache = _default_cache
    return _solve(g.n, frozenset(g.edges), cache)


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


@dataclass(frozen=True)
class PolynomialRoot:
    value: complex
    residual: float


def polynomial_roots(p: IntPolynomial) -> list[PolynomialRoot]:
    """All complex roots via the companion matrix, with a relative residual.

    The residual is |p(r)| / (sum_k |c_k| max(1, |r|)^deg), small when the
    root is numerically trustworthy. Roots are sorted by real part, then
    imaginary part.
    """
    if p.degree < 1:
        return []
    coeffs = [float(c) for c in reversed(p.coeffs)]
    roots = np.roots(coeffs)
    out = []
    csum = sum(abs(c) for c in p.coeffs)
    for r in roots:
        r = complex(r)
        val = abs(p(r))
        scale = csum * max(1.0, abs(r)) ** p.degree
        out.append(PolynomialRoot(value=r, residual=val / scale))
    out.sort(key=lambda pr: (pr.value.real, pr.value.imag))
    return out
