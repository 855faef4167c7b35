"""Guard against product code that nothing calls.

Every module-level function and class in `src/multitap` must be referenced
from product code: loaded by name in the module that defines or imports it,
or read as an attribute of an imported module.  Imports alone, and so the
re-exports of a package `__init__.py`, do not count.  Every method and
property of a module-level class must have its name read as an attribute
somewhere in product code (of any object: the scan does not infer types), or
match the constant prefix of a `getattr(obj, f"prefix{...}")` dispatch.
Dunder methods are called by the language and exempt.  Every defaulted
parameter of a module-level function must be passed by at least one product
call of that function (by keyword, by position, or through `*`/`**`
unpacking); one that no caller sets is a constant.  Conversely, a default
that every product call overrides is one no product code relies on: the
parameter is required.  Code that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multitap"

# Entry points called from outside the package.
ALLOWED = {
    "multitap.cli.main",  # the console script
    "multitap.diffkit.grad_check",  # the gradient gate of the test suite
}

# Defaulted parameters that only callers outside the package pass.
OUTSIDE_PARAMETERS = {
    "multitap.cli.main.argv",  # the tests drive the CLI in-process
    "multitap.diffkit.grad_check.eps",  # the gradient gate of the test suite
    "multitap.fixtures.fixture_config_dict.seeds",  # perfbench and the tests
    "multitap.fixtures.fixture_config_dict.cache_dir",
}

# Defaulted parameters that every product call passes but a caller outside
# the package leaves out.
OUTSIDE_DEFAULTS = {
    "multitap.idh.compute_domain_labels.bins",  # the acceptance suite's real-data test
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


def _names(modules: dict[str, tuple[bool, ast.Module]]):
    """The module-level definitions of `modules` (qualified name -> node),
    each module's local name -> qualified name bindings, and `canonical`,
    which follows a qualified name through re-exports to its definition."""
    defined = {}
    bindings: dict[str, dict[str, str]] = {}  # module -> local name -> qualified name
    for module, (is_package, tree) in modules.items():
        local = bindings[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{module}.{node.name}"] = node
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

    return defined, bindings, canonical


def _target(node: ast.AST, local: dict[str, str], canonical, modules) -> str | None:
    """The qualified name that a `name` or `module.name` expression loads."""
    if isinstance(node, ast.Name) and node.id in local:
        return canonical(local[node.id])
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = local.get(node.value.id)
        if base is not None and canonical(base) in modules:
            return canonical(f"{canonical(base)}.{node.attr}")
    return None


def unreferenced_definitions(root: Path) -> list[str]:
    """Qualified names of the module-level definitions under `root` that no
    module of `root` references."""
    modules = _parse(root)
    defined, bindings, canonical = _names(modules)
    referenced = set()
    for module, (_, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                continue
            referenced.add(_target(node, bindings[module], canonical, modules))
    return sorted(set(defined) - referenced)


def _defaulted_calls(root: Path) -> dict[str, tuple[list[str], list[set[str] | None]]]:
    """`module.function` -> (its defaulted parameters, the parameters each
    call in `root` passes) for every module-level function under `root`.
    A call that unpacks `*`/`**` may pass any parameter: its entry is None."""
    modules = _parse(root)
    defined, bindings, canonical = _names(modules)
    functions = {q: node.args for q, node in defined.items()
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    calls: dict[str, list[set[str] | None]] = {q: [] for q in functions}
    for module, (_, tree) in modules.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            qualified = _target(call.func, bindings[module], canonical, modules)
            if qualified not in functions:
                continue
            args = functions[qualified]
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                calls[qualified].append(None)
                continue
            positional = [a.arg for a in args.posonlyargs + args.args]
            calls[qualified].append(set(positional[: len(call.args)])
                                    | {k.arg for k in call.keywords})
    out = {}
    for qualified, args in functions.items():
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        out[qualified] = ([a.arg for a in defaulted], calls[qualified])
    return out


def unpassed_defaults(root: Path) -> list[str]:
    """`module.function.parameter` for every defaulted parameter of a
    module-level function under `root` that no call in `root` passes."""
    return sorted(
        f"{qualified}.{name}"
        for qualified, (defaulted, calls) in _defaulted_calls(root).items()
        for name in defaulted
        if not any(passed is None or name in passed for passed in calls)
    )


def always_passed_defaults(root: Path) -> list[str]:
    """`module.function.parameter` for every defaulted parameter of a
    module-level function under `root` that calls in `root` pass, each one
    of them, so that no call relies on the default.  A call that unpacks
    `*`/`**` may leave it out."""
    return sorted(
        f"{qualified}.{name}"
        for qualified, (defaulted, calls) in _defaulted_calls(root).items()
        for name in defaulted
        if calls and all(passed is not None and name in passed for passed in calls)
    )


def _dispatch_prefix(node: ast.AST) -> str | None:
    """'stage_' for `getattr(obj, f"stage_{name}")`, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.JoinedStr)
        and node.args[1].values
        and isinstance(node.args[1].values[0], ast.Constant)
    ):
        return node.args[1].values[0].value
    return None


def unread_methods(root: Path) -> list[str]:
    """`module.Class.method` for every method or property of a module-level
    class under `root` whose name no module of `root` reads as an attribute
    or reaches through a `getattr` dispatch prefix."""
    methods, read, prefixes = [], set(), set()
    for module, (_, tree) in _parse(root).items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (f"{module}.{cls.name}.{node.name}", node.name)
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (prefix := _dispatch_prefix(node)) is not None:
                prefixes.add(prefix)
    return sorted(
        qualified for qualified, name in methods
        if name not in read and not any(name.startswith(p) for p in prefixes)
    )


class TestNoDeadProductCode:
    def test_every_definition_is_referenced(self):
        dead = [name for name in unreferenced_definitions(SRC) if name not in ALLOWED]
        assert dead == [], f"never referenced from product code: {dead}"

    def test_every_defaulted_parameter_is_passed(self):
        dead = [name for name in unpassed_defaults(SRC) if name not in OUTSIDE_PARAMETERS]
        assert dead == [], f"no product call passes: {dead}"

    def test_every_default_is_relied_on(self):
        overridden = [name for name in always_passed_defaults(SRC) if name not in OUTSIDE_DEFAULTS]
        assert overridden == [], f"every product call passes: {overridden}"

    def test_outside_parameters_exist(self):
        modules = _parse(SRC)
        defined, _, _ = _names(modules)
        for qualified in OUTSIDE_PARAMETERS | OUTSIDE_DEFAULTS:
            function, _, name = qualified.rpartition(".")
            args = defined[function].args
            assert name in [a.arg for a in args.args + args.kwonlyargs], qualified

    def test_every_method_is_read(self):
        dead = unread_methods(SRC)
        assert dead == [], f"never read from product code: {dead}"

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

    def test_methods_count_only_when_read_or_dispatched(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text(
            "class Box:\n"
            "    def __init__(self):\n        self.n = 0\n"
            "    def used(self):\n        return self.n\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    def step_one(self):\n        return 1\n"
            "    def unused(self):\n        return 2\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n\n"
            "def run(box, name):\n"
            "    return box.used() + box.size + getattr(box, f'step_{name}')()\n"
        )
        assert unread_methods(pkg) == ["pkg.a.Box.build", "pkg.a.Box.unused"]

    def test_defaults_count_only_when_a_call_passes_them(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from .a import f\n")
        (pkg / "a.py").write_text(
            "def f(x, by_position=1, by_keyword=2, unset=3):\n    return x\n\n"
            "def g(x=1, *, y=2):\n    return x\n\n"
            "def h(a=1, b=2):\n    return a\n\n"
            "def unused(z=1):\n    return z\n"
        )
        (pkg / "b.py").write_text(
            "from . import a\nfrom pkg import f\n\n"
            "def run(args, kwargs):\n"
            "    return f(0, 1) + f(0, by_keyword=2) + a.g(**kwargs) + a.h(*args)\n"
        )
        assert unpassed_defaults(pkg) == ["pkg.a.f.unset", "pkg.a.unused.z"]

    def test_defaults_count_only_when_a_call_leaves_them_out(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from .a import f\n")
        (pkg / "a.py").write_text(
            "def f(x, always=1, sometimes=2, never=3):\n    return x\n\n"
            "def g(x=1, *, y=2):\n    return x\n\n"
            "def h(a=1):\n    return a\n\n"
            "def uncalled(z=1):\n    return z\n"
        )
        (pkg / "b.py").write_text(
            "from . import a\nfrom pkg import f\n\n"
            "def run(kwargs):\n"
            "    return (f(0, 1, 2) + f(0, always=1) + a.g(0, y=1) + a.g(x=0, y=2)\n"
            "            + a.h(1) + a.h(**kwargs))\n"
        )
        assert always_passed_defaults(pkg) == ["pkg.a.f.always", "pkg.a.g.x", "pkg.a.g.y"]
