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

Roots are found in the standard library alone: the integer roots 0, 1, ...
are divided out exactly, and the cofactor's roots come from Aberth–Ehrlich
iteration in complex doubles.
"""

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, EnumerationCapError
from .graphs import Graph, IsomorphismTable, adjacency_masks, components
from .intpoly import IntPolynomial

DEFAULT_ORACLE_CAP = 16
# Aberth–Ehrlich stops each root once |p(z)| <= STOP_TOLERANCE * sum_k |c_k|
# |z|^k, a multiple of the rounding error of Horner's rule, and every root
# after ABERTH_MAX_SWEEPS sweeps; the seed-1 certify polynomials need at most 9.
STOP_TOLERANCE = 8 * sys.float_info.epsilon
ABERTH_MAX_SWEEPS = 100


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


def _strip_integer_roots(p: IntPolynomial) -> tuple[list[int], IntPolynomial]:
    """Divide out (q - k) exactly for k = 0, 1, 2, ... while k is a root.

    Stops at the first k >= 1 that is not a root of p. A chromatic polynomial
    has the roots 0, 1, ..., chi - 1 and is positive at every integer k >=
    chi, so for one this strips exactly those roots with their
    multiplicities. Returns the stripped roots in increasing order and the
    cofactor.
    """
    c = list(p.coeffs)
    roots = []
    k = 0
    while len(c) > 1:
        # Synthetic division: c = (q - k) quotient + remainder.
        quotient = [0] * (len(c) - 1)
        remainder = c[-1]
        for i in range(len(c) - 2, -1, -1):
            quotient[i] = remainder
            remainder = c[i] + k * remainder
        if remainder == 0:
            roots.append(k)
            c = quotient
        elif k == 0 or roots[-1:] == [k]:
            k += 1
        else:
            break
    return roots, IntPolynomial(c)


def _start_points(c: list[float]) -> list[complex]:
    """Bini's start points, on circles about the centroid s of the roots.

    The coefficients a_k of c(q + s) give the points (k, log|a_k|). Each edge
    from j to k of their upper convex hull puts k - j points on the circle of
    radius (|a_j| / |a_k|)^(1 / (k - j)) about s. When s is itself a root,
    the circles are centred on 0 and use c's own coefficients.
    """
    n = len(c) - 1
    s = -c[n - 1] / (n * c[n])
    a = list(c)
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            a[k] += s * a[k + 1]
    if a[0] == 0:
        s, a = 0.0, c
    hull = []
    for k, x in enumerate(a):
        if x:
            y = math.log(abs(x))
            while len(hull) > 1:
                (k1, y1), (k2, y2) = hull[-2:]
                if (y2 - y1) * (k - k1) > (y - y1) * (k2 - k1):
                    break
                hull.pop()
            hull.append((k, y))
    z = []
    for (j, yj), (k, yk) in zip(hull, hull[1:]):
        radius = math.exp((yj - yk) / (k - j))
        z += [s + cmath.rect(radius, 2 * math.pi * (t / (k - j) + j / n) + 0.7) for t in range(k - j)]
    return z


def _aberth(c: list[float]) -> list[complex]:
    """All roots of c (floats by degree, c[0] != 0) by Aberth–Ehrlich iteration.

    Gauss–Seidel sweeps: each root moves at once, and the roots after it in
    the sweep see the new value.
    """
    lead, *rest = reversed(c)
    terms = [(x, abs(x)) for x in rest]
    z = _start_points(c)
    todo = range(len(z))
    for _ in range(ABERTH_MAX_SWEEPS):
        left = []
        for i in todo:
            zi = z[i]
            r = abs(zi)
            val, der, bound = lead, 0j, abs(lead)
            for x, ax in terms:
                der = der * zi + val
                val = val * zi + x
                bound = bound * r + ax
            if abs(val) <= STOP_TOLERANCE * bound:
                continue
            left.append(i)
            pull = 0j
            for zj in z:
                d = zi - zj
                if d:
                    pull += 1 / d
            den = der - val * pull
            if den:
                z[i] = zi - val / den
        if not left:
            break
        todo = left
    return z


def _conjugate_pairs(c: list[float], z: list[complex]) -> list[complex]:
    """Make roots of the real polynomial c real or exact conjugate pairs.

    A root whose real part alone passes Aberth's stopping test becomes real.
    If the others split evenly between the half-planes, the lower half is
    replaced by the conjugates of the upper.
    """
    real, upper, lower = [], [], []
    for w in z:
        x = w.real
        val = bound = 0.0
        for ck in reversed(c):
            val = val * x + ck
            bound = bound * abs(x) + abs(ck)
        if abs(val) <= STOP_TOLERANCE * bound:
            real.append(complex(x))
        else:
            (upper if w.imag > 0 else lower).append(w)
    if len(upper) == len(lower):
        lower = [w.conjugate() for w in upper]
    return real + upper + lower


def polynomial_roots(p: IntPolynomial) -> list[PolynomialRoot]:
    """All complex roots, with a relative residual, in pure Python.

    The integer roots 0, 1, ... come out exactly (``_strip_integer_roots``).
    The cofactor's roots come from Aberth–Ehrlich iteration in complex
    doubles, started on Bini's Newton-polygon circles; a real root is
    reported with a zero imaginary part and the others as exact conjugate
    pairs. The residual is |p(r)| / (sum_k |c_k| max(1, |r|)^deg) against p
    itself, small when the root is numerically trustworthy. Roots are sorted
    by real part, then imaginary part. Raises DomainError when a coefficient
    or a residual's scale exceeds the float range, where neither means
    anything.
    """
    if p.degree < 1:
        return []
    integer_roots, cofactor = _strip_integer_roots(p)
    values = [complex(k) for k in integer_roots]
    out = []
    try:
        if cofactor.degree > 0:
            c = [float(x) for x in cofactor.coeffs]
            values += _conjugate_pairs(c, _aberth(c))
        csum = float(sum(abs(c) for c in p.coeffs))
        for r in values:
            scale = csum * max(1.0, abs(r)) ** p.degree
            if math.isinf(scale) or not cmath.isfinite(r):
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
