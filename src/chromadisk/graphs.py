"""Finite simple graphs: construction, parsing, and neighborhood structure.

Vertices are the integers 0..n-1. Edges are unordered pairs stored as sorted
tuples. The classification routines are local tests: each looks for a pair
of non-adjacent vertices inside a neighborhood or a common neighborhood, so
their cost grows with the number of vertices times the square of the maximum
degree rather than with the number of vertex quadruples.

The functions at the end work on adjacency bitmasks: a refinement
certificate that isomorphic graphs share, and an exact isomorphism test;
``corpus.iso_distinct`` buckets graphs with the two. No other module refines
or tests isomorphism itself.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DegenerateDegreeError, GraphFormatError

# Largest vertex count parse_graph accepts from a header. Graph allocates one
# adjacency set per vertex, so the header alone decides the memory a file can
# ask for; 100000 empty vertices cost tens of megabytes, far above any graph
# the exact routines can handle and above the thousands of vertices the
# bound-only path is meant to serve.
MAX_VERTICES = 100_000


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "parse_warnings")

    def __init__(self, n: int, edges, parse_warnings: tuple[str, ...] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        adj = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in adj))
        object.__setattr__(self, "parse_warnings", tuple(parse_warnings))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(len(s) for s in self.adj)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in increasing vertex order.

        A vertex outside 0..n-1 raises ValueError."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            bad = vs[0] if vs[0] < 0 else vs[-1]
            raise ValueError(f"vertex {bad} is outside 0..{self.n - 1}")
        pos = {v: i for i, v in enumerate(vs)}
        keep = [(pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos]
        return Graph(len(vs), keep)

    def without_vertex(self, v: int) -> "Graph":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} is outside 0..{self.n - 1}")
        return self.induced(set(range(self.n)) - {v})

    def relabel(self, perm) -> "Graph":
        """Apply a permutation given as a sequence: new label of v is perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format.

    The first significant line is "n m"; the next m significant lines are
    "u v" with 0-based endpoints. Lines starting with '#' and blank lines are
    skipped. Duplicate edges collapse to one and leave a warning on the
    returned graph's ``parse_warnings``. A header with more than
    MAX_VERTICES vertices is refused before anything is allocated. Anything
    else raises GraphFormatError naming the offending line.
    """
    header = None
    n = m = 0
    edges = []
    seen = {}
    warnings = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphFormatError("header must be 'n m'", line_no)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError("header must contain two integers", line_no)
            if n < 0 or m < 0:
                raise GraphFormatError("counts must be nonnegative", line_no)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"vertex count {n} exceeds the limit MAX_VERTICES = {MAX_VERTICES}",
                    line_no,
                )
            header = line_no
            continue
        if len(edges) + len(warnings) >= m:
            raise GraphFormatError(f"more than the declared {m} edges", line_no)
        if len(fields) != 2:
            raise GraphFormatError("edge line must be 'u v'", line_no)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError("edge endpoints must be integers", line_no)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range 0..{n - 1}", line_no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            warnings.append(
                f"line {line_no}: duplicate edge {key[0]} {key[1]}"
                f" (first seen on line {seen[key]})"
            )
        else:
            seen[key] = line_no
            edges.append(key)
    if header is None:
        raise GraphFormatError("empty document, expected an 'n m' header")
    found = len(edges) + len(warnings)
    if found != m:
        raise GraphFormatError(f"declared {m} edges but found {found}")
    return Graph(n, edges, parse_warnings=tuple(warnings))


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph, edges in sorted order."""
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ClassMembership:
    """Hereditary-class flags plus the bound family index they select.

    class_index is 0 for claw-free graphs, 1 for claw-free graphs that are
    also square-free and diamond-free, and None when a claw is present.
    """

    claw_free: bool
    square_free: bool
    diamond_free: bool
    class_index: int | None


def is_claw_free(g: Graph) -> bool:
    """True when no vertex has three pairwise non-adjacent neighbors."""
    for v in range(g.n):
        ns = sorted(g.adj[v])
        if len(ns) < 3:
            continue
        for a, b, c in combinations(ns, 3):
            if b not in g.adj[a] and c not in g.adj[a] and c not in g.adj[b]:
                return False
    return True


def _has_non_adjacent_pair(g: Graph, vertices) -> bool:
    """True when two of the given vertices are not adjacent."""
    return any(b not in g.adj[a] for a, b in combinations(vertices, 2))


def is_square_free(g: Graph) -> bool:
    """True when no 4 vertices induce a chordless cycle.

    An induced 4-cycle is two non-adjacent vertices u, w together with two
    non-adjacent common neighbors, so only pairs at distance two are tested.
    """
    for u in range(g.n):
        if len(g.adj[u]) < 2:
            continue  # a vertex of degree below two lies on no 4-cycle
        for w in {w for v in g.adj[u] for w in g.adj[v]}:
            if w > u and w not in g.adj[u] and _has_non_adjacent_pair(g, g.adj[u] & g.adj[w]):
                return False
    return True


def is_diamond_free(g: Graph) -> bool:
    """True when no 4 vertices induce a complete graph minus one edge.

    A diamond with middle edge vw has as its other vertices two non-adjacent
    common neighbors a, b of v and w, so a-w-b is an induced path inside
    N(v); conversely an induced three-vertex path inside N(v) makes a diamond
    with v. So the graph is diamond-free exactly when every N(v) is a
    disjoint union of cliques. The sets N[a] & N(v) for a in N(v) cover N(v),
    so the sizes of the distinct ones sum to |N(v)| exactly when they are
    pairwise disjoint, which is when adjacency inside N(v) is transitive:
    when N(v) is a union of cliques.
    """
    return all(sum(map(len, {g.adj[a] & nv | {a} for a in nv})) == len(nv) for nv in g.adj)


def classify(g: Graph) -> ClassMembership:
    cf = is_claw_free(g)
    sf = is_square_free(g)
    df = is_diamond_free(g)
    if not cf:
        idx = None
    elif sf and df:
        idx = 1
    else:
        idx = 0
    return ClassMembership(claw_free=cf, square_free=sf, diamond_free=df, class_index=idx)


@dataclass(frozen=True)
class NeighborhoodStats:
    """Per-vertex non-edge counts inside neighborhoods and their normalized max.

    kappa, the pair independence ratio, is max_v |I_v| / floor(delta^2 / 4) as
    an exact rational, where I_v is the set of non-edges among the neighbors
    of v. The value is not clamped; it exceeds 1 only for graphs with a claw.
    """

    delta: int
    i_v: tuple[int, ...]
    kappa: Fraction


def neighborhood_stats(g: Graph) -> NeighborhoodStats:
    delta = g.max_degree()
    if delta <= 1:
        raise DegenerateDegreeError(
            f"max degree {delta} gives a zero denominator floor(delta^2/4)"
        )
    # |I_v| is the d(d-1)/2 neighbour pairs of v minus the edges among them;
    # summing |N(a) & N(v)| over the neighbours a counts each such edge twice.
    counts = tuple(
        (len(nv) * (len(nv) - 1) - sum(len(g.adj[a] & nv) for a in nv)) // 2 for nv in g.adj
    )
    denom = (delta * delta) // 4
    kappa = Fraction(max(counts), denom)
    return NeighborhoodStats(delta=delta, i_v=counts, kappa=kappa)


# Adjacency bitmasks: adj[v] has bit w set when v and w are adjacent. The
# chromatic oracle works on graphs in this form.


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    out = []
    for nbrs in g.adj:
        m = 0
        for w in nbrs:
            m |= 1 << w
        out.append(m)
    return tuple(out)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def refinement_certificate(adj) -> tuple[int, tuple[int, ...]]:
    """Isomorphism-invariant hash of a graph, and the vertex labels behind it.

    Labels start as degrees. Each round gives every vertex the signature
    (its label, the sorted labels of its neighbors) and renumbers the
    signatures in sorted order, until a round splits no class, so the labels
    end as the stable partition. The certificate hashes the sorted signature
    list of every round, so it is a plain int that is the same in every
    process. Isomorphic graphs get equal certificates, and an isomorphism
    maps each vertex to one with the same label. Unequal certificates prove
    two graphs non-isomorphic; equal ones prove nothing, which is what
    ``isomorphic`` decides.
    """
    n = len(adj)
    nbrs = [_bits(a) for a in adj]
    labels = [len(nb) for nb in nbrs]
    classes = len(set(labels))
    rounds = []
    while True:
        sig = [(labels[v], tuple(sorted([labels[w] for w in nbrs[v]]))) for v in range(n)]
        ordered = tuple(sorted(sig))
        rounds.append(ordered)
        table = {s: i for i, s in enumerate(dict.fromkeys(ordered))}
        labels = [table[s] for s in sig]
        if len(table) == classes:
            return hash(tuple(rounds)), tuple(labels)
        classes = len(table)


def isomorphic(adj1, labels1, adj2, labels2) -> bool:
    """Whether the graphs with adjacency bitmasks adj1 and adj2 are isomorphic.

    Equal bitmask tuples answer at once. Otherwise a backtracking search maps
    the vertices of the first graph, in a fixed order, to unused vertices of
    the second with the same label and degree whose adjacency to the
    vertices mapped so far matches. A True answer is an isomorphism whatever
    the labels; labels from ``refinement_certificate`` of the two graphs make
    the answer exact, and prune the search to candidates that can match.
    """
    if adj1 == adj2:
        return True
    n = len(adj1)
    if n != len(adj2) or sorted(labels1) != sorted(labels2):
        return False
    by_label: dict[int, list[int]] = {}
    for w in range(n):
        by_label.setdefault(labels2[w], []).append(w)
    deg1 = [a.bit_count() for a in adj1]
    deg2 = [a.bit_count() for a in adj2]
    order = sorted(range(n), key=lambda v: (len(by_label[labels1[v]]), -deg1[v]))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # earlier[i]: positions j < i whose vertex is adjacent to order[i]
    earlier = [[pos[x] for x in _bits(adj1[v]) if pos[x] < i] for i, v in enumerate(order)]
    image = [0] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        target = 0
        for j in earlier[i]:
            target |= 1 << image[j]
        for w in by_label[labels1[v]]:
            if used >> w & 1 or deg2[w] != deg1[v] or adj2[w] & used != target:
                continue
            image[i] = w
            if extend(i + 1, used | 1 << w):
                return True
        return False

    return extend(0, 0)
