"""Command-line front end.

Subcommands: analyze, bounds, table1, verify-scheme, roots. Exit codes:
0 success, 1 usage or parse error, 2 size cap exceeded, 3 verification
failure (scheme mismatch, reference-table deviation, or a root outside its
disk). Every command accepts --json for a machine-readable document with
sorted keys and 6-decimal floats; identical inputs give byte-identical
output, since nothing but the command line and the graph file is read.

A command named first is parsed by its own parser alone; no argument,
``--help`` or an unknown name go through the whole parser. Help, usage and
error text are the same either way.

``--max-enum N`` is the one vertex cap of analyze, roots and verify-scheme:
the chromatic oracle, Penrose forest counting and the scheme scan all refuse
a graph above it, and a negative N exits 1. Its default is each command's
route cap, 16 (the oracle's) for analyze and roots and 12 (the forest
count's) for verify-scheme.
"""

import argparse
import functools
import json
import random
import sys

from .bounds import (
    TABLE_CHECK_TOL,
    REFERENCE_TABLE,
    constants_table,
    fixed_a_bound,
    kappa_for_bounds,
    minimize_c,
)
from .chromatic import (
    DEFAULT_ORACLE_CAP,
    chromatic_deletion_contraction,
    polynomial_roots,
)
from .errors import (
    DegenerateDegreeError,
    DomainError,
    EnumerationCapError,
    GraphFormatError,
)
from .graphs import Graph, classify, neighborhood_stats, parse_graph
from .penrose import (
    DEFAULT_FOREST_CAP,
    VertexOrdering,
    chromatic_via_penrose,
    verify_partition_scheme,
)

ROOT_RESIDUAL_ACCEPT = 1e-8
_IDENTITY_SHUFFLE_SEED = 1789


def _cap(args) -> int:
    """The --max-enum vertex cap; a negative one raises DomainError."""
    if args.max_enum < 0:
        raise DomainError(f"--max-enum must not be negative, got {args.max_enum}")
    return args.max_enum


def _r6(x: float) -> float:
    v = round(float(x), 6)
    return 0.0 if v == 0 else v


def _load(path: str) -> tuple[Graph, dict, list[str]]:
    """The graph in the file at ``path``, with the JSON document and text
    lines its report starts from: its parse warnings, such as duplicate
    edges, under ``"warnings"`` and as ``warning:`` lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}")
    g = parse_graph(text)
    doc = {"warnings": list(g.parse_warnings)} if g.parse_warnings else {}
    return g, doc, [f"warning: {w}" for w in g.parse_warnings]


def _roots_report(roots, mark_rejected: bool) -> tuple[list[dict], list[str]]:
    """Each root's JSON entry and text line. With ``mark_rejected`` the entry
    says whether its residual is below ROOT_RESIDUAL_ACCEPT and the line of a
    root that is not ends in REJECTED."""
    entries, lines = [], []
    for r in roots:
        entry = {
            "re": _r6(r.value.real),
            "im": _r6(r.value.imag),
            "residual": float(f"{r.residual:.3e}"),
        }
        line = f"root: {r.value.real:+.6f}{r.value.imag:+.6f}i residual {r.residual:.3e}"
        if mark_rejected:
            entry["accepted"] = r.residual < ROOT_RESIDUAL_ACCEPT
            line += "" if entry["accepted"] else "  REJECTED"
        entries.append(entry)
        lines.append(line)
    return entries, lines


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_analyze(args) -> int:
    g, doc, lines = _load(args.file)
    cap = _cap(args)
    cm = classify(g)
    doc.update({"n": g.n, "m": g.m, "max_degree": g.max_degree()})
    lines.insert(0, f"graph: n={g.n} m={g.m} max_degree={g.max_degree()}")
    doc["claw_free"] = cm.claw_free
    doc["square_free"] = cm.square_free
    doc["diamond_free"] = cm.diamond_free
    doc["class_index"] = cm.class_index
    lines.append(
        "class: claw_free={} square_free={} diamond_free={} index={}".format(
            cm.claw_free, cm.square_free, cm.diamond_free, cm.class_index
        )
    )

    try:
        kappa = neighborhood_stats(g).kappa
    except DegenerateDegreeError:  # max degree <= 1, so no bound reads kappa
        note = "max degree <= 1, ratio degenerate; reported as 0"
        doc["kappa"] = {"exact": "0", "decimal": 0.0, "note": note}
        lines.append(f"kappa: 0 ({note})")
    else:
        entry = {"exact": str(kappa), "decimal": _r6(float(kappa))}
        if kappa > 1:
            entry["note"] = "outside [0, 1]; the graph is not claw-free"
        doc["kappa"] = entry
        note = f" ({entry['note']})" if "note" in entry else ""
        lines.append(f"kappa: {kappa} = {_r6(float(kappa)):.6f}{note}")

    radius = None
    delta = g.max_degree()
    if not cm.claw_free:
        doc["bound"] = {"applicable": False, "reason": "graph is not claw-free"}
        lines.append("bound: not applicable (graph is not claw-free)")
    elif delta < 3:
        doc["bound"] = {"applicable": False, "reason": "theorem requires max degree >= 3"}
        lines.append("bound: not applicable (theorem requires max degree >= 3)")
    else:
        bound = minimize_c(cm.class_index, kappa_for_bounds(kappa))
        radius = bound.disk_radius(delta)
        doc["bound"] = {
            "applicable": True,
            "class_index": cm.class_index,
            "c_star": _r6(bound.c_star),
            "a_star": _r6(bound.a_star),
            "radius": _r6(radius),
        }
        lines.append(
            f"bound: C={bound.c_star:.6f} a*={bound.a_star:.6f}"
            f" radius=C*delta={radius:.6f}"
        )

    verdict = "not-computed"
    try:
        poly = chromatic_deletion_contraction(g, max_vertices=cap)
    except EnumerationCapError as exc:
        doc["chromatic"] = {"computed": False, "reason": str(exc)}
        lines.append(f"chromatic: not computed ({exc})")
        poly = None
    if poly is not None:
        doc["chromatic"] = {"computed": True, "coefficients": list(poly.coeffs)}
        lines.append(f"chromatic: coefficients by degree {list(poly.coeffs)}")
        roots = polynomial_roots(poly)
        doc["roots"], root_lines = _roots_report(roots, mark_rejected=False)
        lines += root_lines
        if radius is not None:
            ok = all(
                abs(r.value) < radius and radius - abs(r.value) > 10 * r.residual
                for r in roots
            )
            verdict = "yes" if ok else "no"
    doc["disk_verdict"] = verdict
    lines.append(f"disk verdict: {verdict}")
    _emit(doc, args.json, lines)
    return 3 if verdict == "no" else 0


def cmd_bounds(args) -> int:
    i = args.class_index
    kappa = kappa_for_bounds(args.kappa)
    doc: dict = {"class_index": i, "kappa": _r6(kappa)}
    lines = []
    if args.a is not None:
        res = fixed_a_bound(i, kappa, args.a)
        doc.update({"a": _r6(res.a_star), "x": _r6(res.x_star), "c": _r6(res.c_star)})
        lines.append(f"a={res.a_star:.6f} x={res.x_star:.6f} C={res.c_star:.6f}")
        z_key, z_label = "z", "z"
    else:
        res = minimize_c(i, kappa)
        doc.update(
            {"c_star": _r6(res.c_star), "a_star": _r6(res.a_star), "x_star": _r6(res.x_star)}
        )
        lines.append(f"C={res.c_star:.6f} a*={res.a_star:.6f} x*={res.x_star:.6f}")
        z_key, z_label = "z_star", "z*"
    if args.delta is not None:
        z = res.z_star(args.delta)
        radius = res.disk_radius(args.delta)
        doc.update({"delta": args.delta, z_key: _r6(z), "radius": _r6(radius)})
        lines.append(f"{z_label}={z:.6f} radius={radius:.6f}")
    _emit(doc, args.json, lines)
    return 0


def cmd_table1(args) -> int:
    if args.check and abs(args.step - 0.1) > 1e-12:
        raise DomainError("--check requires --step 0.1")
    rows = constants_table(args.step)
    doc_rows = [
        {
            "kappa": _r6(r.kappa),
            "c0": _r6(r.c_class0),
            "c1": _r6(r.c_class1),
            "a0": _r6(r.a_star0),
            "a1": _r6(r.a_star1),
        }
        for r in rows
    ]
    lines = ["kappa      C0         C1         a*0        a*1"]
    for r in rows:
        lines.append(
            f"{r.kappa:<10.6f} {r.c_class0:<10.6f} {r.c_class1:<10.6f}"
            f" {r.a_star0:<10.6f} {r.a_star1:<10.6f}"
        )
    doc: dict = {"step": _r6(args.step), "rows": doc_rows}
    status = 0
    if args.check:
        worst = 0.0
        for got, ref in zip(rows, REFERENCE_TABLE):
            for attr in ("c_class0", "c_class1", "a_star0", "a_star1"):
                worst = max(worst, abs(getattr(got, attr) - getattr(ref, attr)))
        passed = worst <= TABLE_CHECK_TOL
        doc["check"] = {"max_deviation": float(f"{worst:.3e}"), "passed": passed}
        lines.append(f"check: max deviation {worst:.3e} -> {'pass' if passed else 'FAIL'}")
        status = 0 if passed else 3
    _emit(doc, args.json, lines)
    return status


def cmd_verify_scheme(args) -> int:
    g, doc, lines = _load(args.file)
    cap = _cap(args)
    if g.n > cap:
        raise EnumerationCapError("scheme verification", g.n, cap)
    report = verify_partition_scheme(g, r_max=args.rmax)
    doc.update({"n": g.n, "m": g.m, "r_max": args.rmax})
    doc["partition"] = {
        "passed": report.passed,
        "subsets_checked": report.subsets_checked,
        "edge_sets_checked": report.edge_sets_checked,
    }
    lines.append(
        "partition check: {} (subsets {}, connected edge sets {})".format(
            "pass" if report.passed else "FAIL",
            report.subsets_checked,
            report.edge_sets_checked,
        )
    )
    if report.counterexample is not None:
        ce = report.counterexample
        doc["partition"]["counterexample"] = {
            "subset": sorted(ce.subset),
            "edge_set": sorted(ce.edge_set),
            "containing_trees": ce.containing_trees,
        }
        lines.append(
            f"counterexample: subset {sorted(ce.subset)} edge set {sorted(ce.edge_set)}"
            f" hit {ce.containing_trees} tree intervals"
        )

    oracle = chromatic_deletion_contraction(g, max_vertices=cap)
    orderings = [VertexOrdering.natural(g.n)]
    shuffled = list(range(g.n))
    random.Random(_IDENTITY_SHUFFLE_SEED + g.n).shuffle(shuffled)
    orderings.append(VertexOrdering.from_order(shuffled))
    checked = 0
    for ordering in orderings:
        checked += 1
        identity_ok = chromatic_via_penrose(g, ordering, max_vertices=cap) == oracle
        if not identity_ok:
            break
    doc["identity"] = {"passed": identity_ok, "orderings_checked": checked}
    lines.append(
        "forest identity check: {} ({} orderings)".format(
            "pass" if identity_ok else "FAIL", checked
        )
    )
    _emit(doc, args.json, lines)
    return 0 if report.passed and identity_ok else 3


def cmd_roots(args) -> int:
    g, doc, lines = _load(args.file)
    poly = chromatic_deletion_contraction(g, max_vertices=_cap(args))
    roots = polynomial_roots(poly)
    ill = any(r.residual >= ROOT_RESIDUAL_ACCEPT for r in roots)
    entries, root_lines = _roots_report(roots, mark_rejected=True)
    doc.update(
        {
            "n": g.n,
            "m": g.m,
            "coefficients": list(poly.coeffs),
            "roots": entries,
            "ill_conditioned": ill,
        }
    )
    lines += [f"chromatic coefficients by degree: {list(poly.coeffs)}", *root_lines]
    if ill:
        lines.append("warning: polynomial ill-conditioned, at least one residual >= 1e-8")
    _emit(doc, args.json, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never changes it.

    Its ``commands`` attribute maps each command name to the parser added for
    that command."""
    p = argparse.ArgumentParser(
        prog="chromadisk",
        description="Zero-free disks for chromatic polynomials of claw-free graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a graph file and certify its roots")
    pa.add_argument("file")
    pa.add_argument(
        "--max-enum", type=int, default=DEFAULT_ORACLE_CAP, help="vertex cap (default: %(default)s)"
    )
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pb = sub.add_parser("bounds", help="disk constants for a class and kappa")
    pb.add_argument("--class", dest="class_index", type=int, choices=(0, 1), required=True)
    pb.add_argument("--kappa", type=float, required=True)
    pb.add_argument("--a", type=float, default=None)
    pb.add_argument("--delta", type=int, default=None)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_bounds)

    pt = sub.add_parser("table1", help="constants table on a kappa grid")
    pt.add_argument("--step", type=float, default=0.1)
    pt.add_argument("--check", action="store_true")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_table1)

    pv = sub.add_parser("verify-scheme", help="partition and identity checks on a file")
    pv.add_argument("file")
    pv.add_argument("--rmax", type=int, default=6)
    pv.add_argument(
        "--max-enum", type=int, default=DEFAULT_FOREST_CAP, help="vertex cap (default: %(default)s)"
    )
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify_scheme)

    pr = sub.add_parser("roots", help="chromatic roots of a graph file")
    pr.add_argument("file")
    pr.add_argument(
        "--max-enum", type=int, default=DEFAULT_ORACLE_CAP, help="vertex cap (default: %(default)s)"
    )
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_roots)
    p.commands = sub.choices
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, but a command named first is
    parsed by its own parser alone, which skips the top-level pass."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:  # reported as the whole parser's parse_args reports them
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # GraphFormatError, DomainError, ContractViolationError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
