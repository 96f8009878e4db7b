"""Inputs, operations and output checks of the four benchmark workloads.

Every input is generated from the workload seed. The program under test sees
only graph files (for the CLI workloads) or graph objects (for ``minors``).
Checks run after timing ends and never read a private name of the package.

Why these four:

* certify - ``analyze`` on claw-free graphs with n = 6..16. The chromatic
  oracle does most of the work: the target of a faster oracle.
* minors  - criterion 7 as library calls on small claw-free graphs. Thousands
  of tiny oracle calls that repeat one another: where a cache-free oracle
  would lose.
* scheme  - ``verify-scheme``. Penrose counting and the partition-scheme
  verifier do the work, the oracle little.
* bounds  - ``table1 --check``, ``bounds`` cells and ``analyze`` on graphs too
  large for the oracle. Only the classifier and the constant solver work.
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from types import SimpleNamespace

from chromadisk import bounds, graphs, penrose
from chromadisk import cli
from chromadisk.bounds import REFERENCE_TABLE, TABLE_CHECK_TOL
from chromadisk.corpus import (
    antiprism_graph,
    complete_graph,
    icosahedron,
    line_graph,
    octahedron,
    prism_graph,
    random_connected_graph,
    scheme_corpus,
    wheel_graph,
)
from chromadisk.graphs import Graph, format_graph

# Slack of criterion 7 (tests/test_acceptance.py uses the same value).
RATIO_SLACK = 1e-9
CIRCLE_POINTS = 16


@dataclass
class Op:
    """One operation: a CLI call (``argv``) or one graph of ``minors``."""

    label: str
    argv: list | None = None
    graph: Graph | None = None
    expect: dict = field(default_factory=dict)


def _seeded_line_graph(rng, n, m, triangles):
    """Line graph with n vertices, m edges, the given number of triangles and
    maximum degree >= 3, of a random connected graph with 1..3 independent
    cycles. Fewer triangles mean more deletion-contraction work; fixing all
    three counts keeps the oracle's cost alike from one seed to the next."""
    for _ in range(100_000):
        extra = rng.randint(1, 3)
        g = line_graph(random_connected_graph(n - extra + 1, extra, seed=rng.randrange(1 << 30)))
        if g.m == m and g.max_degree() >= 3 and _triangles(g) == triangles:
            return g
    raise ValueError(f"no line graph with n={n}, m={m} and {triangles} triangles found")


def _triangles(g):
    return sum(1 for a, b in g.edges for c in g.adj[a] & g.adj[b] if c > b)


def _girth5_graph(rng, vertices, edges):
    """Random connected graph with no cycle shorter than 5: a random tree
    plus chords whose endpoints are at distance >= 4."""
    adj = [set() for _ in range(vertices)]
    order = list(range(vertices))
    rng.shuffle(order)
    for i in range(1, vertices):
        u, v = order[i], order[rng.randrange(i)]
        adj[u].add(v)
        adj[v].add(u)
    count = vertices - 1
    pairs = list(combinations(range(vertices), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if count == edges:
            break
        near = {u}
        frontier = {u}
        for _ in range(3):
            frontier = {y for x in frontier for y in adj[x]} - near
            near |= frontier
        if v in near:
            continue
        adj[u].add(v)
        adj[v].add(u)
        count += 1
    if count != edges:
        raise ValueError(f"no girth-5 graph with {vertices} vertices and {edges} edges found")
    return Graph(vertices, [(u, v) for u in range(vertices) for v in adj[u] if u < v])


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _file_ops(workdir, graphs_and_ops):
    ops = []
    for i, (g, argv_tail, label, expect) in enumerate(graphs_and_ops):
        path = os.path.join(workdir, f"g{i:03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_graph(g))
        expect = dict(expect, n=g.n, m=g.m)
        ops.append(Op(label, argv=[argv_tail[0], path, *argv_tail[1:]], expect=expect))
    return ops


def _seeded(rng, cells, copies):
    return [
        (f"line n={n} m={m} t={t} #{k}", _seeded_line_graph(rng, n, m, t))
        for n, m, t in cells
        for k in range(copies)
    ]


# (n, m, triangles) cells at the most common triangle count for each n and m.
SMALL_CELLS = [(6, 8, 3), (6, 10, 5), (7, 10, 4), (7, 12, 6), (8, 12, 5), (8, 14, 7)]


def _circulant(n, steps):
    return Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in steps})


def _bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def certify_inputs(seed, workdir):
    # Eleven named graphs that each cost the oracle 60-550 ms sit mostly in
    # the costliest quarter of the list. The seeded line graphs, six for each
    # cell with m around the median edge count, cost less and set the median;
    # six rather than fewer so that the median moves little between seeds.
    rng = random.Random(seed)
    cube = Graph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b])
    named = [
        ("prism", prism_graph()),
        ("octahedron", octahedron()),
        ("icosahedron", icosahedron()),
        ("L(K5)", line_graph(complete_graph(5))),
        ("L(octahedron)", line_graph(octahedron())),
        ("L(K2,6)", line_graph(_bipartite(2, 6))),
        ("L(K3,4)", line_graph(_bipartite(3, 4))),
        ("L(cube)", line_graph(cube)),
    ] + [(f"C{n}(1,2)", _circulant(n, (1, 2))) for n in (12, 13, 14, 15, 16)]
    cells = [
        (10, 15, 6), (10, 17, 8), (10, 19, 10),
        (11, 17, 7), (11, 19, 9), (11, 21, 12),
        (12, 19, 9), (12, 21, 10), (13, 21, 10),
    ]
    seeded = _seeded(rng, cells, copies=6)
    rng.shuffle(seeded)
    items = [(g, ["analyze", "--json"], label, {}) for label, g in named + seeded]
    return _file_ops(workdir, items)


def minors_inputs(seed, workdir):
    rng = random.Random(seed)
    named = [
        ("prism", prism_graph()),
        ("octahedron", octahedron()),
        ("wheel5", wheel_graph(5)),
        ("antiprism4", antiprism_graph(4)),
        ("K5", complete_graph(5)),
    ]
    cells = SMALL_CELLS + [(9, 13, 5), (9, 15, 7), (9, 17, 9), (10, 15, 6), (10, 17, 8), (10, 19, 10)]
    return [Op(label, graph=g) for label, g in named + _seeded(rng, cells, copies=3)]


def scheme_inputs(seed, workdir):
    rng = random.Random(seed)
    fixed = scheme_corpus() + [complete_graph(6), octahedron(), antiprism_graph(4)]
    named = [(f"corpus {i}", g) for i, g in enumerate(fixed)]
    items = [(g, ["verify-scheme", "--json"], label, {}) for label, g in named + _seeded(rng, SMALL_CELLS, copies=4)]
    return _file_ops(workdir, items)


def bounds_inputs(seed, workdir):
    rng = random.Random(seed)
    items = []
    # Class 1: line graphs of girth-5 graphs. No C4 and no diamond, so both
    # 4-subset scans of the classifier run to the end; cost is fixed by n.
    for n in range(35, 47, 2):
        base = _girth5_graph(rng, n - 4, n)
        items.append((_relabel(rng, line_graph(base)), ["analyze", "--json"], f"class1 n={n}", {"class_index": 1}))
    # Class 0: line graphs with triangles and 4-cycles everywhere, so the
    # scans stop early and the constant solver takes most of their time.
    # Their ten near-equal costs hold the tail percentile.
    for n in range(60, 110, 5):
        base = random_connected_graph(n // 3, n - n // 3 + 1, seed=rng.randrange(1 << 30))
        g = line_graph(base)
        items.append((g, ["analyze", "--json"], f"class0 n={g.n}", {"class_index": 0}))
    ops = _file_ops(workdir, items)
    ops.append(Op("table1 --check", argv=["table1", "--check", "--json"]))
    # Cells on a kappa grid with one seeded point per stratum, so that every
    # seed gets the same spread of solver costs: ten minimized constants per
    # class, and four per class at a fixed a, which is a single solve.
    for strata, fixed_a in ((10, False), (4, True)):
        for j in range(strata):
            for i in (0, 1):
                kappa = round((j + rng.random()) / strata, 3)
                argv = ["bounds", "--class", str(i), "--kappa", repr(kappa)]
                if fixed_a:
                    argv += ["--a", repr(round(rng.uniform(0.25, 0.45), 3))]
                if j % 2:
                    argv += ["--delta", str(rng.randrange(3, 40))]
                ops.append(Op(" ".join(argv), argv=argv + ["--json"], expect={"class_index": i, "kappa": kappa}))
    return ops


INPUTS = {
    "certify": certify_inputs,
    "minors": minors_inputs,
    "scheme": scheme_inputs,
    "bounds": bounds_inputs,
}


def _circle(radius):
    return [radius * cmath.exp(2j * math.pi * k / CIRCLE_POINTS) for k in range(CIRCLE_POINTS)]


def minors_check(g, lib):
    """Criterion 7 for one graph as a user runs it: the disk constant, the
    single-vertex ratio on the z* circle, and the forest sums of every
    g - u - A with |A| <= 2 on that circle. Returns the worst slacks."""
    cm = lib.classify(g)
    stats = lib.neighborhood_stats(g)
    res = lib.minimize_c(cm.class_index, lib.kappa_for_bounds(stats.kappa))
    zs = _circle(res.z_star(stats.delta))
    ratio_worst = max(
        abs(lib.ratio_R(g, u, z)) - res.a_star for u in range(g.n) for z in zs
    )
    deletion_worst = -math.inf
    for u in range(g.n):
        rest = [v for v in range(g.n) if v != u]
        f_rest = lib.forest_polynomial(g.induced(rest))
        for size in (0, 1, 2):
            inflation = (1.0 - res.a_star) ** (-size)
            for dropped in combinations(rest, size):
                keep = [v for v in rest if v not in dropped]
                f_keep = lib.forest_polynomial(g.induced(keep))
                for z in zs:
                    deletion_worst = max(deletion_worst, abs(f_keep(z) / f_rest(z)) - inflation)
    forest = lib.forest_polynomial(g)
    return {
        "ratio_worst": ratio_worst,
        "deletion_worst": deletion_worst,
        "forest": list(forest.coeffs),
    }


def library(tracer=None):
    """The public calls ``minors`` makes, wrapped in spans when tracing."""
    calls = {
        "graphs.classify": graphs.classify,
        "graphs.neighborhood_stats": graphs.neighborhood_stats,
        "bounds.kappa_for_bounds": bounds.kappa_for_bounds,
        "bounds.minimize_c": bounds.minimize_c,
        "penrose.ratio_R": penrose.ratio_R,
        "penrose.forest_polynomial": penrose.forest_polynomial,
    }
    return SimpleNamespace(**{
        name.split(".")[1]: tracer.wrap(name, fn) if tracer else fn for name, fn in calls.items()
    })


def run_op(op, lib, main, graph_check):
    """Run one operation; returns (exit code, output). Raises what it raises."""
    if op.argv is None:
        return 0, graph_check(op.graph, lib)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(op.argv)
    return rc, buf.getvalue()


def _digest(coeffs):
    return hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16]


def _chromatic_invariants(coeffs, n, m):
    """Monic of degree n, q^(n-1) coefficient -m, zero constant term and
    alternating signs; true of the chromatic polynomial of any graph."""
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return f"not monic of degree {n}"
    if n >= 1 and (coeffs[n - 1] != -m or coeffs[0] != 0):
        return "q^(n-1) coefficient is not -m or constant term is not 0"
    if any((-1) ** (n - k) * c < 0 for k, c in enumerate(coeffs)):
        return "coefficient signs do not alternate"
    return None


def _check_analyze(op, doc, rc):
    ex = op.expect
    if doc["n"] != ex["n"] or doc["m"] != ex["m"]:
        return "n or m differs from the input file"
    if not doc["claw_free"]:
        return "claw-free input classified as having a claw"
    if "class_index" in ex and doc["class_index"] != ex["class_index"]:
        return f"class index {doc['class_index']}, expected {ex['class_index']}"
    if not doc["bound"]["applicable"] or not doc["bound"]["radius"] > 0:
        return "disk bound not applicable"
    if not doc["chromatic"]["computed"]:
        # Large graphs: the oracle refuses by its cap, which is the expected
        # outcome, and the verdict says so.
        if ex["n"] <= 16 or doc["disk_verdict"] != "not-computed":
            return "chromatic polynomial not computed"
        return None if rc == 0 else f"exit code {rc}"
    if rc != 0:
        return f"exit code {rc}"
    bad = _chromatic_invariants(doc["chromatic"]["coefficients"], ex["n"], ex["m"])
    if bad:
        return bad
    if doc["disk_verdict"] != "yes":
        return f"disk verdict {doc['disk_verdict']}"
    return None


def _check_bounds_cell(op, doc):
    # C(kappa) increases with kappa, and C(a) >= C(kappa) for every a, so the
    # reference table brackets every cell.
    i, kappa = op.expect["class_index"], op.expect["kappa"]
    attr = f"c_class{i}"
    below = getattr(REFERENCE_TABLE[math.floor(kappa * 10)], attr) - TABLE_CHECK_TOL
    above = getattr(REFERENCE_TABLE[math.ceil(kappa * 10)], attr) + TABLE_CHECK_TOL
    if doc["class_index"] != i:
        return "class index echoed wrong"
    if "c_star" in doc and not below <= doc["c_star"] <= above:
        return f"C = {doc['c_star']} outside the reference table's [{below}, {above}]"
    c = doc.get("c_star", doc.get("c"))
    if c < below:
        return f"C(a) = {c} below the minimum {below}"
    if "delta" in doc and abs(doc["radius"] - c * doc["delta"]) > 1e-5 * doc["delta"]:
        return "radius is not C * delta"
    return None


def check(op, rc, out):
    """None when the operation's output is right, else a reason."""
    if op.argv is None:
        if out["ratio_worst"] > RATIO_SLACK or out["deletion_worst"] > RATIO_SLACK:
            return "criterion 7 slack exceeded"
        # Forest counts by edge count of a connected graph: one empty forest,
        # m single edges, a positive count up to the n - 1 edges of a tree.
        g, f = op.graph, out["forest"]
        if f[:2] != [1, g.m] or len(f) != g.n or min(f) <= 0:
            return "forest counts wrong"
        return None
    doc = json.loads(out)
    cmd = op.argv[0]
    if cmd == "analyze":
        return _check_analyze(op, doc, rc)
    if rc != 0:
        return f"exit code {rc}"
    if cmd == "verify-scheme":
        if not (doc["partition"]["passed"] and doc["identity"]["passed"]):
            return "scheme or identity check failed"
        return None
    if cmd == "table1":
        chk = doc["check"]
        if not chk["passed"] or chk["max_deviation"] > TABLE_CHECK_TOL or len(doc["rows"]) != 11:
            return "table1 deviates from the reference table"
        return None
    return _check_bounds_cell(op, doc)


def output_digest(op, out):
    """Digest of the exact polynomial an operation produced, if it has one."""
    if op.argv is None:
        return _digest(out["forest"])
    if op.argv[0] == "analyze":
        chrom = json.loads(out)["chromatic"]
        if chrom["computed"]:
            return _digest(chrom["coefficients"])
    return None
