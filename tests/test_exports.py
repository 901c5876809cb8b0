import ast
import importlib
import pkgutil
from pathlib import Path

import asymflat


def test_every_exported_name_resolves():
    modules = [asymflat] + [importlib.import_module(f"asymflat.{info.name}")
                            for info in pkgutil.iter_modules(asymflat.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 10
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of `path` that no name in the file reads;
    names listed in `__all__` count as read, `__future__` imports are skipped."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.parent.name}/{path.name}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in used]


def test_no_unused_module_level_import():
    root = Path(__file__).resolve().parent.parent
    files = [*sorted((root / "src" / "asymflat").glob("*.py")),
             *sorted((root / "tests").glob("*.py"))]
    assert len(files) >= 20
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []
