import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import diracshell

MODULES = sorted(info.name for info in pkgutil.iter_modules(diracshell.__path__))


def test_every_exported_name_exists():
    # a name deleted from a module but left in its __all__ fails here
    missing = []
    for name in MODULES:
        mod = importlib.import_module(f"diracshell.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_every_module_declares_its_exports():
    # the caller test below reads __all__; a module without one escapes it
    package = pathlib.Path(diracshell.__file__).parent
    undeclared = [name for name in MODULES if not _exports(ast.parse((package / f"{name}.py").read_text()))]
    assert undeclared == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    # the sibling module "from <module> import ..." names, None for the package itself
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("diracshell."):
        return node.module.split(".")[1]
    return None


def _module_aliases(tree: ast.Module) -> dict:
    """Local name -> the package module it is bound to, by "from . import x" or "import diracshell.x as y"."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "diracshell")
        ):
            aliases.update({alias.asname or alias.name: alias.name for alias in node.names if alias.name in MODULES})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("diracshell."):
                    aliases[alias.asname] = alias.name.split(".")[1]
    return aliases


def test_no_module_reads_a_siblings_private_name():
    # a module uses only the public names of another module of the package:
    # neither "from .shell import _x" nor "shell._x" after "from . import shell"
    package = pathlib.Path(diracshell.__file__).parent
    reads = []
    for name in MODULES:
        tree = ast.parse((package / f"{name}.py").read_text())
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _sibling(node) in MODULES:
                reads += [f"{name}: from {_sibling(node)} import {alias.name}"
                          for alias in node.names if _private(alias.name)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, name) != name and _private(node.attr)):
                reads.append(f"{name}: {aliases[node.value.id]}.{node.attr}")
    assert reads == []


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(node: ast.AST, enclosing: tuple = ()) -> set:
    """(name, enclosing def/class names) of every read of a name, attribute or imported alias under node."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found.add((child.id, enclosing))
        elif isinstance(child, ast.Attribute):
            found.add((child.attr, enclosing))
        elif isinstance(child, ast.ImportFrom):
            found.update((alias.name, enclosing) for alias in child.names)
        defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found |= _uses(child, enclosing + (child.name,) if defines else enclosing)
    return found


def test_every_exported_name_has_a_caller():
    # each name in a module's __all__ is read by the package or the bench
    # outside its own def or class; its own unit tests, docstrings and the
    # __all__ string do not count
    package = pathlib.Path(diracshell.__file__).parent
    modules = sorted(package.glob("*.py"))
    bench = sorted((package.parents[1] / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in modules + bench}
    uses = {path: _uses(tree) for path, tree in trees.items()}
    uncalled = [
        f"{path.stem}.{name}"
        for path in modules
        for name in _exports(trees[path])
        if not any(
            used == name and not (other == path and name in enclosing)
            for other, found in uses.items()
            for used, enclosing in found
        )
    ]
    assert uncalled == []


def test_only_cli_knows_file_formats():
    # cli reads and writes every file; no other module imports csv or json
    package = pathlib.Path(diracshell.__file__).parent
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{path.stem}: {n}" for n in names if n.split(".")[0] in ("csv", "json")]
    assert [entry for entry in imports if not entry.startswith("cli: ")] == []


def test_only_checks_calls_a_check():
    # a function named *_check checks; no producer path outside the checks
    # module takes a result from one
    package = pathlib.Path(diracshell.__file__).parent
    calls = []
    for name in MODULES:
        if name == "checks":
            continue
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called and called.endswith("_check"):
                    calls.append(f"{name}: {called}")
    assert calls == []


def test_only_checks_defines_a_check():
    # every comparison lives in the checks module: no other module defines a
    # function named *_check
    package = pathlib.Path(diracshell.__file__).parent
    defined = []
    for name in MODULES:
        if name == "checks":
            continue
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_check"):
                defined.append(f"{name}: {node.name}")
    assert defined == []


def test_only_shell_and_eigsolve_import_sparse():
    # shell builds every sparse pencil and eigsolve solves them; the other
    # modules hand pencils on or compare eigenvalues, and import no scipy.sparse
    package = pathlib.Path(diracshell.__file__).parent
    imports = []
    for name in MODULES:
        if name in ("shell", "eigsolve"):
            continue
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [f"{name}: {n}" for n in names if n == "scipy.sparse" or n.startswith("scipy.sparse.")]
    assert imports == []


def test_only_eigsolve_reads_inertia():
    # both inertia certificates of a solve, the shift's and the cut's, are
    # eigsolve's: no other module reads a pivot count
    package = pathlib.Path(diracshell.__file__).parent
    calls = []
    for name in MODULES:
        if name == "eigsolve":
            continue
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == "inertia":
                    calls.append(f"{name}: {called}")
    assert calls == []


def test_every_registry_entry_takes_no_arguments():
    # an entry owns its parameters: neither the registry's wrapper nor the
    # function behind it takes any, so every run of an entry is the check verb's
    from diracshell import checks

    named = [entry.suite for entry in checks.REGISTRY if inspect.signature(entry.__wrapped__).parameters]
    assert named == []
    passing_through = [entry.suite for entry in checks.REGISTRY
                       if inspect.signature(entry, follow_wrapped=False).parameters]
    assert passing_through == []


def test_cli_import_loads_only_the_scipy_it_uses():
    # every run pays its imports before it starts (the bench's setup_s):
    # scipy.optimize alone takes about 0.25-0.35 s to import on a 2-core x86-64
    # machine.  A submodule used by one function is imported inside it, or this
    # list is widened on purpose.
    code = (
        "import json, sys, diracshell.cli; "
        "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    public = [name for name in json.loads(out.stdout) if not name.startswith("_")]
    assert public == ["linalg", "sparse", "version"]


def test_every_monkeypatched_name_is_read_through_its_module():
    # monkeypatch.setattr(<module>, "<name>", ...) in a test guards nothing
    # unless the package reads <name> through that module: a bare load inside
    # it, or <module>.<name> in a sibling ("from .x import name" does not see the patch)
    package = pathlib.Path(diracshell.__file__).parent
    reads = set()
    for name in MODULES:
        tree = ast.parse((package / f"{name}.py").read_text())
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(f"{name}.{node.id}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                reads.add(f"{aliases[node.value.id]}.{node.attr}")
    patched = set()
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setattr" and getattr(node.func.value, "id", None) == "monkeypatch"
                    and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in aliases and isinstance(node.args[1], ast.Constant)):
                patched.add(f"{aliases[node.args[0].id]}.{node.args[1].value}")
    assert sorted(patched - reads) == []
