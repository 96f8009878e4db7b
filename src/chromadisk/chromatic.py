"""Chromatic polynomials by a frontier transfer, and their roots.

The transfer adds the vertices one at a time in maximum cardinality search
order. The frontier is the set of added vertices that still have a neighbour
to come; a proper colouring of the added vertices splits it into colour
classes, and the transfer keeps, for each such partition, the polynomial
counting the colourings that induce it. Its cost follows from the order: the
states at a step are at most the partitions of that step's frontier, whatever
the labelling. This is the chromatic case of the frontier method (Sekine,
Imai and Tani, ISAAC 1995; Bedini and Jacobsen, J. Phys. A 2010). The
transfer is memoised for the process by the input's adjacency bitmask
tuple, so a repeated input is answered before any of this starts.

Roots are found in the standard library alone: the integer roots 0, 1, ...
are divided out exactly, and the cofactor's roots come from Aberth–Ehrlich
iteration in complex doubles.
"""

import cmath
import functools
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, EnumerationCapError
from .graphs import Graph, adjacency_masks
from .intpoly import IntPolynomial

DEFAULT_ORACLE_CAP = 16
# Aberth–Ehrlich stops each root once |p(z)| <= STOP_TOLERANCE * sum_k |c_k|
# |z|^k, a multiple of the rounding error of Horner's rule, and every root
# after ABERTH_MAX_SWEEPS sweeps; the seed-1 certify polynomials need at most 9.
STOP_TOLERANCE = 8 * sys.float_info.epsilon
ABERTH_MAX_SWEEPS = 100


def _order(adj) -> tuple[list[int], list[int]]:
    """Maximum cardinality search order, and the vertices leaving at each step.

    The next vertex is the unprocessed one with the most processed
    neighbours, the lowest index on ties. After vertex v is processed, only
    v and its processed neighbours can have lost their last unprocessed
    neighbour; those that have leave the frontier at that step.
    """
    weight = [0] * len(adj)
    order, leaves = [], []
    done = 0
    for _ in adj:
        v = weight.index(max(weight))
        weight[v] = -1
        bit = 1 << v
        done |= bit
        rest = adj[v] & ~done
        while rest:
            low = rest & -rest
            weight[low.bit_length() - 1] += 1
            rest ^= low
        leave = 0
        near = bit | adj[v] & done
        while near:
            low = near & -near
            if not adj[low.bit_length() - 1] & ~done:
                leave |= low
            near ^= low
        order.append(v)
        leaves.append(leave)
    return order, leaves


@functools.cache
def _transfer(adj) -> IntPolynomial:
    """P_G(q) by a transfer over the processed vertices' frontier.

    A state is the frontier's partition into colour classes, a sorted tuple
    of class bitmasks; its value is the polynomial in q, coefficients by
    degree, that counts the q-colourings of the processed vertices inducing
    that partition. The next vertex joins a class with no
    neighbour of it, or opens a new class with one of the q - b colours the
    b classes do not use. Leaving vertices are then masked out, and equal
    states are merged.
    """
    states = {(): [1] + [0] * len(adj)}
    for v, leave in zip(*_order(adj)):
        bit, nbrs, keep = 1 << v, adj[v], ~leave
        nxt = {}
        for classes, value in states.items():
            b = len(classes)
            moves = [([s - b * c for s, c in zip([0, *value], value)], classes + (bit,))]
            for i, c in enumerate(classes):
                if not c & nbrs:
                    moves.append((value, classes[:i] + (c | bit,) + classes[i + 1 :]))
            for val, new in moves:
                key = tuple(sorted(m for c in new if (m := c & keep)))
                old = nxt.get(key)
                nxt[key] = val if old is None else [x + y for x, y in zip(old, val)]
        states = nxt
    return IntPolynomial(states[()])


def chromatic_deletion_contraction(
    g: Graph, *, max_vertices: int = DEFAULT_ORACLE_CAP
) -> IntPolynomial:
    """Exact chromatic polynomial of g, by a frontier transfer.

    Refuses graphs above ``max_vertices`` (default 16); the transfer's cost
    grows with the number of partitions of its frontier, and this package
    targets desk-scale instances. ``_transfer`` is memoised for the process
    by the exact adjacency bitmask tuple, so a repeated input is answered at
    once, and a relabelled copy runs the transfer again;
    ``_transfer.cache_info()`` counts the hits and misses.
    """
    if g.n > max_vertices:
        raise EnumerationCapError("chromatic oracle", g.n, max_vertices)
    return _transfer(adjacency_masks(g))


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
