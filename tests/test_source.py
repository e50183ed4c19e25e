"""Checks on the package source itself."""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
import typing
from pathlib import Path

import xoppak

PACKAGE = Path(xoppak.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips asserts, so an invariant must raise instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_type_hints_resolve():
    # with postponed annotations a misspelt or unimported name only fails
    # when something asks for the hints, so resolve every one here
    checked, failed = 0, []
    for info in pkgutil.iter_modules(xoppak.__path__):
        if info.name == "__main__":  # importing it runs the command line tool
            continue
        module = importlib.import_module(f"xoppak.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = list(vars(obj).values()) if isinstance(obj, type) else [obj]
            for fn in members:
                fn = getattr(fn, "fget", fn)  # a property's getter
                fn = getattr(fn, "__func__", fn)  # a classmethod's function
                if not inspect.isfunction(fn):
                    continue
                checked += 1
                try:
                    typing.get_type_hints(fn)
                except NameError as exc:
                    failed.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert checked > 100
    assert not failed, failed


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name may be used only inside a quoted annotation
    annotations = [node.returns for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in ast.walk(tree)
                    if isinstance(node, (ast.arg, ast.AnnAssign))]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # the package's __init__ imports in order to re-export
    paths = sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
    found = []
    for path in paths:
        if path.name != "__init__.py":
            found += _unused_imports(path)
    assert len(paths) > 20
    assert not found, f"unused imports: {found}"


def test_each_traced_function_has_one_span():
    # the benchmark's tracer wraps every binding of each function its spans
    # name, so one function reached by two spans (a member memo shared by both
    # kinds' classes, say) is wrapped twice and its calls land in one kind's
    # numbers; `_lookup` reads each class's own vars(), as the tracer does
    import xoppak.cli  # noqa: F401  (loads every layer, as the tracer does)

    spec = importlib.util.spec_from_file_location(
        "xoppak_bench_tracing", TESTS.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    span_of, shared = {}, []
    for span, paths in tracing.SPANS.items():
        for path in paths:
            first = span_of.setdefault(tracing._lookup(path), (span, path))
            if first[0] != span:
                shared.append(f"{path} ({span}) is {first[1]} ({first[0]})")
    assert len(span_of) > 40
    assert not shared, shared
