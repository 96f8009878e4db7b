"""Structural rules on the package source, read from its syntax trees."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "chromadisk"

# Module-level names that may hold mutable values.
MUTABLE_ALLOWED = {"__all__"}

# Functions memoised for the process; any other is module-level state.
MEMOS = {
    "chromatic._transfer",  # exact-input oracle memo; minors and criterion 7 repeat calls
    "cli.build_parser",  # the argument parser, which parsing never changes
}


def _modules():
    return {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def test_no_private_names_imported_across_modules():
    bad = [
        f"{path}:{node.lineno}: imports {alias.name}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, "\n".join(bad)


def test_no_test_modules_imported():
    # the installed package ships without tests/, so it may not lean on it
    test_modules = {"conftest", "corpora", "oracles", "tests"}
    bad = [
        f"{path}:{node.lineno}: imports {name}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [node.module]
            if isinstance(node, ast.ImportFrom) and node.module
            else [alias.name for alias in node.names]
        )
        if name.split(".")[0] in test_modules
    ]
    assert not bad, "\n".join(bad)


def test_no_imports_inside_functions():
    bad = {
        f"{path}:{node.lineno}: import inside a function"
        for path, tree in _modules().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not bad, "\n".join(sorted(bad))


def test_no_environment_reads():
    # a command line and a graph file decide every result
    names = {"environ", "environb", "getenv", "getenvb"}
    bad = [
        f"{path}:{node.lineno}: reads the environment"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in names for alias in node.names)
        )
    ]
    assert not bad, "\n".join(bad)


def test_no_module_level_mutable_state():
    trees = _modules()
    classes = {n.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    makers = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
    makers |= classes
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    bad = []
    for path, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and f"{path.stem}.{node.name}" not in MEMOS
            ):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "id", getattr(dec, "attr", None)) in {"cache", "lru_cache"}:
                        bad.append(f"{path}:{node.lineno}: module-level memo {node.name}")
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            func = node.value.func if isinstance(node.value, ast.Call) else None
            if isinstance(node.value, displays) or getattr(
                func, "id", getattr(func, "attr", None)
            ) in makers:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    name = ast.unparse(target)
                    if not {name, f"{path.stem}.{name}"} & MUTABLE_ALLOWED:
                        bad.append(f"{path}:{node.lineno}: module-level mutable {name}")
    assert not bad, "\n".join(bad)
