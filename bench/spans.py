"""Spans around the calls into each layer, and the per-layer metrics.

The layers are the package modules cli, graphs, bounds, chromatic and penrose
(genfun and intpoly count inside their callers). A span is recorded around
every call through a wrapped name: the layer functions bound in
``chromadisk.cli``, ``chromadisk.chromatic.chromatic_deletion_contraction``
(which ``forest_polynomial`` imports at call time) and the library calls the
``minors`` workload makes. Spans stay in memory; metrics are computed from
them after timing ends.
"""

import inspect
import time

from chromadisk import chromatic, cli, corpus
from chromadisk.errors import EnumerationCapError

LAYERS = ("cli", "graphs", "bounds", "chromatic", "penrose")
ALIASES = {
    "chromatic_deletion_contraction": "oracle",
    "verify_partition_scheme": "scheme",
    "chromatic_via_penrose": "identity",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "args", "kwargs", "result", "error")

    def __init__(self, name, parent, args, kwargs):
        self.name = name
        self.parent = parent
        self.children = 0.0  # time covered by direct child spans
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.error = None
        self.start = time.perf_counter()

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.children


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, args, kwargs)
            self.spans.append(span)
            self._stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.children += span.duration

        return traced

    def install(self):
        """Wrap each layer function at the module attribute its caller reads."""
        for attr, fn in list(vars(cli).items()):
            if not inspect.isfunction(fn) or fn.__module__ == cli.__name__:
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer in LAYERS:
                self._patch(cli, attr, f"{layer}.{ALIASES.get(attr, attr)}")
        self._patch(chromatic, "chromatic_deletion_contraction", "chromatic.oracle")

    def _patch(self, module, attr, name):
        setattr(module, attr, self.wrap(name, getattr(module, attr)))


def _scan_size(g, r_max):
    """Edge masks the verifier's scan walks: sum over vertex subsets R with
    2 <= |R| <= r_max of 2^|E(R)|."""
    from itertools import combinations

    total = 0
    for r in range(2, min(r_max, g.n) + 1):
        for rset in combinations(range(g.n), r):
            rs = set(rset)
            total += 1 << sum(1 for u, v in g.edges if u in rs and v in rs)
    return total


def _iso_repeat_share(graphs):
    """Share of inputs isomorphic to an earlier input (exact duplicates
    included), by corpus.iso_distinct."""
    if not graphs:
        return 0.0
    distinct = corpus.iso_distinct(list(dict.fromkeys(graphs)))
    return (len(graphs) - len(distinct)) / len(graphs)


# name -> unit. The order is the order of BENCHMARK.json's per_layer list.
METRICS = {
    "chromatic.oracle.calls": "count",
    "chromatic.oracle.s": "s",
    "chromatic.oracle.max_ms": "ms",
    "chromatic.oracle.refused": "count",
    "chromatic.oracle.iso_repeat_share": "ratio",
    "chromatic.polynomial_roots.s": "s",
    "bounds.minimize_c.calls": "count",
    "bounds.minimize_c.s": "s",
    "bounds.constants_table.calls": "count",
    "bounds.constants_table.s": "s",
    "graphs.classify.calls": "count",
    "graphs.classify.s": "s",
    "graphs.classify.max_ms": "ms",
    "graphs.full_scan_share": "ratio",
    "graphs.parse_graph.s": "s",
    "graphs.neighborhood_stats.s": "s",
    "penrose.scheme.calls": "count",
    "penrose.scheme.s": "s",
    "penrose.scheme.edge_sets": "count",
    "penrose.scheme.masks_scanned": "count",
    "penrose.scheme.useful_ratio": "ratio",
    "penrose.identity.s": "s",
    "penrose.identity.forests": "count",
    "penrose.forest_polynomial.calls": "count",
    "penrose.forest_polynomial.s": "s",
    "penrose.ratio_R.calls": "count",
    "penrose.ratio_R.s": "s",
    "cli.self_s": "s",
    "graphs.self_s": "s",
    "bounds.self_s": "s",
    "chromatic.self_s": "s",
    "penrose.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(spans):
    """Per-layer metrics of one pass. ``<fn>.s`` is the summed duration of
    the function's spans; ``<layer>.self_s`` is the summed duration of the
    layer's spans minus the time their child spans cover. Shares, scan sizes
    and forest counts are computed from the recorded arguments and results."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def max_ms(name):
        return max((s.duration for s in by_name.get(name, ())), default=0.0) * 1e3

    out = {}
    for fn in (
        "chromatic.oracle",
        "bounds.minimize_c",
        "bounds.constants_table",
        "graphs.classify",
        "penrose.scheme",
        "penrose.forest_polynomial",
        "penrose.ratio_R",
    ):
        out[f"{fn}.calls"] = calls(fn)
    for fn in (
        "chromatic.oracle",
        "chromatic.polynomial_roots",
        "bounds.minimize_c",
        "bounds.constants_table",
        "graphs.classify",
        "graphs.parse_graph",
        "graphs.neighborhood_stats",
        "penrose.scheme",
        "penrose.identity",
        "penrose.forest_polynomial",
        "penrose.ratio_R",
    ):
        out[f"{fn}.s"] = seconds(fn)
    out["chromatic.oracle.max_ms"] = max_ms("chromatic.oracle")
    out["graphs.classify.max_ms"] = max_ms("graphs.classify")

    oracle = by_name.get("chromatic.oracle", ())
    out["chromatic.oracle.refused"] = sum(isinstance(s.error, EnumerationCapError) for s in oracle)
    out["chromatic.oracle.iso_repeat_share"] = _iso_repeat_share([s.args[0] for s in oracle])

    classified = [s.result for s in by_name.get("graphs.classify", ()) if s.result is not None]
    out["graphs.full_scan_share"] = (
        sum(c.square_free and c.diamond_free for c in classified) / len(classified)
        if classified
        else 0.0
    )

    scheme = [s for s in by_name.get("penrose.scheme", ()) if s.result is not None]
    out["penrose.scheme.edge_sets"] = sum(s.result.edge_sets_checked for s in scheme)
    masks = sum(_scan_size(s.args[0], s.kwargs.get("r_max", 6)) for s in scheme)
    out["penrose.scheme.masks_scanned"] = masks
    out["penrose.scheme.useful_ratio"] = out["penrose.scheme.edge_sets"] / masks if masks else 0.0
    out["penrose.identity.forests"] = sum(
        sum(abs(c) for c in s.result.coeffs)
        for s in by_name.get("penrose.identity", ())
        if s.result is not None
    )

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_time for s in spans if s.name.split(".")[0] == layer)
    out["trace.spans"] = len(spans)
    return out
