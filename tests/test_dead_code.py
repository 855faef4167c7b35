"""Guard against product code that nothing calls.

Every module-level function and class in `src/multitap` must be referenced
from product code: loaded by name in the module that defines or imports it,
or read as an attribute of an imported module.  Imports alone, and so the
re-exports of a package `__init__.py`, do not count.  Code that only tests
call belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multitap"

# Entry points called from outside the package.
ALLOWED = {
    "multitap.cli.main",  # the console script
    "multitap.diffkit.grad_check",  # the gradient gate of the test suite
}


def _parse(root: Path) -> dict[str, tuple[bool, ast.Module]]:
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        modules[name] = (is_package, ast.parse(path.read_text(encoding="utf-8")))
    return modules


def _source_module(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    if node.level == 0:
        return node.module
    base = module.split(".") if is_package else module.split(".")[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def unreferenced_definitions(root: Path) -> list[str]:
    """Qualified names of the module-level definitions under `root` that no
    module of `root` references."""
    modules = _parse(root)
    defined = set()
    bindings: dict[str, dict[str, str]] = {}  # module -> local name -> qualified name
    for module, (is_package, tree) in modules.items():
        local = bindings[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(f"{module}.{node.name}")
                local[node.name] = f"{module}.{node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _source_module(module, is_package, node)
                for alias in node.names:
                    local[alias.asname or alias.name] = f"{source}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local[alias.asname or alias.name] = alias.name

    def canonical(qualified: str) -> str:
        # follow re-exports until the name's defining module
        for _ in range(len(modules)):
            module, _, name = qualified.rpartition(".")
            target = bindings.get(module, {}).get(name)
            if qualified in defined or target is None:
                break
            qualified = target
        return qualified

    referenced = set()
    for module, (_, tree) in modules.items():
        local = bindings[module]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in local:
                    referenced.add(canonical(local[node.id]))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = local.get(node.value.id)
                if base is not None and canonical(base) in modules:
                    referenced.add(canonical(f"{canonical(base)}.{node.attr}"))
    return sorted(defined - referenced)


class TestNoDeadProductCode:
    def test_every_definition_is_referenced(self):
        dead = [name for name in unreferenced_definitions(SRC) if name not in ALLOWED]
        assert dead == [], f"never referenced from product code: {dead}"

    def test_allowed_entry_points_exist(self):
        modules = _parse(SRC)
        for qualified in ALLOWED:
            module, _, name = qualified.rpartition(".")
            _, tree = modules[module]
            assert any(getattr(node, "name", None) == name for node in tree.body), qualified

    def test_reexports_and_imports_do_not_count(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from .a import helper, unused\n__all__ = ['helper', 'unused']\n")
        (pkg / "a.py").write_text("def helper():\n    return 1\n\ndef unused():\n    return 2\n")
        (pkg / "b.py").write_text(
            "from . import a\nfrom .a import unused\nfrom pkg import helper\n\n"
            "def run():\n    return a.helper() + helper()\n\nclass Caller:\n    pass\n\nrun()\nCaller()\n"
        )
        assert unreferenced_definitions(pkg) == ["pkg.a.unused"]
