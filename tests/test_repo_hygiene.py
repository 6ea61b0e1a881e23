"""Repository hygiene: no committed artifacts, no dead definitions.

``__pycache__`` directories briefly slipped into the tree once; this guard
keeps them (and stray ``.pyc``/``.pyo`` files) out of version control and
pins the ``.gitignore`` rules that prevent the relapse.  It also fails on
any function, method or class in ``src/repro`` that nothing names.
"""

import ast
import re
import shutil
import subprocess
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files():
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not running inside a git checkout")
    proc = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def test_no_bytecode_artifacts_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in path or path.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, f"bytecode artifacts are tracked: {offenders}"


def test_gitignore_blocks_bytecode():
    rules = (REPO_ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert "__pycache__/" in rules
    assert "*.pyc" in rules


#: Directories whose ``.py`` files may reference a definition in ``src/repro``.
_REFERENCE_ROOTS = ("src", "tests", "scripts", "examples", "benchmarks", "perfbench")

#: ``module:Qualified.name`` of definitions kept although nothing names them.
_UNREFERENCED_ALLOWED: frozenset = frozenset()


def _definitions(tree):
    """Yield ``(qualified name, node)`` for every def and class in ``tree``."""
    pending = [(node, "") for node in tree.body]
    while pending:
        node, prefix = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            pending.extend((child, f"{prefix}{node.name}.") for child in node.body)
        else:
            pending.extend((child, prefix) for child in ast.iter_child_nodes(node))


def test_every_definition_is_referenced():
    """A def or class whose name occurs, as a whole word, only at its own
    definition is called by nothing: delete it, or allow-list it above."""
    words: Counter = Counter()
    for root in _REFERENCE_ROOTS:
        for path in (REPO_ROOT / root).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unreferenced = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(REPO_ROOT / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            key = f"{module}:{qualified}"
            if words[name] <= 1 and key not in _UNREFERENCED_ALLOWED:
                unreferenced.append(f"{key} (line {node.lineno})")
    assert not unreferenced, "unreferenced definitions:\n" + "\n".join(sorted(unreferenced))


def _annotation_names(node):
    """Names inside the string annotations (``"ContextVar[Foo]"``) under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from (sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name))


def _unused_imports(tree):
    """Yield ``(name, line)`` for each name ``tree`` imports and never uses."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                element.value for element in ast.walk(node.value) if isinstance(element, ast.Constant)
            )
    for name, line in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            yield name, line


def test_no_unused_imports():
    """Every module outside the package ``__init__`` files uses what it
    imports (``__all__`` entries and string annotations count as uses)."""
    unused = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        relative = path.relative_to(REPO_ROOT)
        unused.extend(f"{relative}:{line} {name}" for name, line in _unused_imports(tree))
    assert not unused, "unused imports:\n" + "\n".join(unused)
