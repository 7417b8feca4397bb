"""Every function, class, method and module-level name in ``src/melt`` is
named by the program.

A definition counts as used when its name appears in ``src/melt`` outside
``__init__.py``, in ``bench/`` or in ``demos/`` (as a name, an attribute, an
import or a string constant, which is how ``bench/tracing.py`` names what it
wraps), or as a ``pyproject.toml`` script entry point. Being exported in
``melt.__all__`` is not use. Anything else is reached only by tests and does
not belong in ``src/``, unless ``ALLOWED`` says why it stays. Dunder methods
and names (``__all__``, ``__init__``) are read by Python itself and are not
checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public helpers that only tests or the docs call, with why they stay
ALLOWED = {
    "launch_distributed": "the deployment with every process on its own host (README)",
}


def definitions(tree: ast.Module):
    """Qualified names of the top-level functions, classes and assigned
    names, and of the classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}"


def named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_src_holds_no_code_that_only_tests_reach():
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "melt").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, name) for name in definitions(tree)]
        if path.name != "__init__.py":
            used |= named(tree)
    for path in sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        used |= named(ast.parse(path.read_text(encoding="utf-8")))
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    used |= set(re.findall(r'"[\w.]+:(\w+)"', scripts))  # "module:function" entry points

    unused = [f"{module}: {name}" for module, name in defined
              if name not in ALLOWED
              and not re.fullmatch(r"(.*\.)?__\w+__", name)
              and name.rpartition(".")[2] not in used]
    assert unused == []
    assert set(ALLOWED) <= {name for _module, name in defined}  # no stale entries
