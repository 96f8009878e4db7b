"""Chromatic polynomials by deletion and contraction, and their roots.

The recursion works on tuples of adjacency bitmasks. Each step first drops
simplicial vertices, whose neighbours are pairwise adjacent: such a vertex v
contributes the factor (q - deg v), so trees, complete graphs and other
chordal graphs never branch. What is left splits into components, and each
connected minor is looked up in the cache, a ``graphs.IsomorphismTable``;
isomorphic minors share one entry, and a lookup never returns a
non-isomorphic minor's polynomial. A minor not found there is split on the
edge from vertex 0 to its lowest neighbour. The peel and the contraction
keep vertex order, so the recursion eliminates vertex 0 until the peel drops
it, then the next vertex: minors differ only around the vertices eliminated
so far, and they repeat often. Input graphs are also remembered by their
bitmask tuples, so a repeated input is answered before any of this starts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EnumerationCapError
from .graphs import Graph, IsomorphismTable, adjacency_masks, components
from .intpoly import IntPolynomial

DEFAULT_ORACLE_CAP = 16


class ChromaticCache(IsomorphismTable):
    """Solved minors, one per isomorphism class, and solved inputs.

    The table holds each connected minor the recursion branches on. Input
    graphs are kept apart, keyed by their exact bitmask tuples, and a
    repeated input counts as a hit without a refinement or a probe.
    ``clear`` empties both and zeroes the counters.
    """

    def __init__(self):
        super().__init__()
        self._inputs: dict[tuple, IntPolynomial] = {}

    def clear(self):
        self.__init__()


_default_cache = ChromaticCache()


def _restrict(adj, keep: int) -> tuple[int, ...]:
    """Adjacency of the subgraph induced by the vertex mask keep, renumbered in order."""
    out = [a for v, a in enumerate(adj) if keep >> v & 1]
    drop = ((1 << len(adj)) - 1) & ~keep
    while drop:
        v = drop.bit_length() - 1
        drop ^= 1 << v
        low = (1 << v) - 1
        out = [(a & low) | (a >> (v + 1) << v) for a in out]
    return tuple(out)


def _peel(adj) -> tuple[IntPolynomial, tuple[int, ...]]:
    """Drop simplicial vertices while there are any; P_G = (q - deg v) P_{G-v}.

    Returns the product of the dropped vertices' factors and the adjacency of
    the vertices left, renumbered in order. A simplicial vertex stays
    simplicial when other vertices go, so the vertices left do not depend on
    the order of removal; only the neighbours of a dropped vertex are tested
    again.
    """
    adj = list(adj)
    factor = IntPolynomial.one()
    alive = todo = (1 << len(adj)) - 1
    while todo:
        bit = todo & -todo
        todo ^= bit
        a = adj[bit.bit_length() - 1]
        rest = a
        while rest:
            w = rest & -rest
            if (adj[w.bit_length() - 1] | w) & a != a:
                break
            rest ^= w
        else:
            factor = factor * IntPolynomial((-a.bit_count(), 1))
            alive ^= bit
            todo |= a
            rest = a
            while rest:
                w = rest & -rest
                adj[w.bit_length() - 1] ^= bit
                rest ^= w
    return factor, _restrict(adj, alive)


def _contract(adj, v: int) -> tuple[int, ...]:
    """G / 0v: v merges into vertex 0 and the later vertices move down by one."""
    bv = 1 << v
    low = bv - 1
    out = []
    for x, a in enumerate(adj):
        if x == v:
            continue
        if x == 0:
            a = (a | adj[v]) & ~(1 | bv)
        elif a & bv:
            a |= 1
        out.append((a & low) | (a >> (v + 1) << v))
    return tuple(out)


def _solve(adj, cache) -> IntPolynomial:
    poly, adj = _peel(adj)
    if not adj:
        return poly
    comps = components(adj)
    if len(comps) > 1:
        for comp in comps:
            poly = poly * _solve_connected(_restrict(adj, comp), cache)
        return poly
    return poly * _solve_connected(adj, cache)


def _solve_connected(adj, cache) -> IntPolynomial:
    """A connected graph with no simplicial vertex, so every degree is at least 2.

    Looks the graph up, else deletes and contracts the edge from vertex 0 to
    its lowest neighbour v, and stores the result. Deletion only shrinks
    vertex 0's neighbourhood, and contraction merges v into vertex 0.
    """
    poly, slot = cache.find(adj)
    if poly is not None:
        return poly
    v = (adj[0] & -adj[0]).bit_length() - 1
    deleted = list(adj)
    deleted[0] ^= 1 << v
    deleted[v] ^= 1
    poly = _solve(deleted, cache) - _solve(_contract(adj, v), cache)
    cache.add(slot, poly)
    return poly


def chromatic_deletion_contraction(
    g: Graph, *, cache: ChromaticCache | None = None, max_vertices: int = DEFAULT_ORACLE_CAP
) -> IntPolynomial:
    """Exact chromatic polynomial of g.

    Refuses graphs above ``max_vertices`` (default 16); the recursion is
    exponential and this package targets desk-scale instances. Passing a
    shared ChromaticCache makes repeated induced-subgraph calls cheap, and
    a graph equal to an earlier input is answered from the cache at once.
    """
    if g.n > max_vertices:
        raise EnumerationCapError("deletion-contraction", g.n, max_vertices)
    if cache is None:
        cache = _default_cache
    adj = adjacency_masks(g)
    poly = cache._inputs.get(adj)
    if poly is not None:
        cache.hits += 1
        return poly
    poly = _solve(adj, cache)
    cache._inputs[adj] = poly
    return poly


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
    imaginary part. Raises DomainError when a coefficient or a residual's
    scale exceeds the float range, where neither means anything.
    """
    if p.degree < 1:
        return []
    out = []
    try:
        csum = float(sum(abs(c) for c in p.coeffs))
        for r in np.roots([float(c) for c in reversed(p.coeffs)]):
            r = complex(r)
            scale = csum * max(1.0, abs(r)) ** p.degree
            if math.isinf(scale):
                raise OverflowError
            out.append(PolynomialRoot(value=r, residual=abs(p(r)) / scale))
    except OverflowError:
        bits = max(abs(c) for c in p.coeffs).bit_length()
        raise DomainError(
            f"float arithmetic overflows on the degree-{p.degree} polynomial"
            f" with {bits}-bit coefficients"
        ) from None
    out.sort(key=lambda pr: (pr.value.real, pr.value.imag))
    return out
