"""The package's public surface: every name `renorml1/__init__.py` exports
has a caller outside the tests, and the README's library tour runs as
documented."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "renorml1"

#: exported without a caller in the package, the scripts or the benchmark:
#: the re-verifier of a run the caller holds (perfbench keeps a span slot
#: for it, and the tampered-run tests go through it)
EXEMPT = {"verify_claim"}


def _exports(init: str) -> dict[str, str]:
    """name -> the module (relative, without the dot) that defines it, for
    each name an `__init__` source imports from a sibling module."""
    out = {}
    for node in ast.walk(ast.parse(init)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _reads(tree: ast.AST, skip_def: str | None = None) -> set[str]:
    """The names read in `tree` as a Name or as an Attribute's attr, leaving
    out the body of every def or class named `skip_def`."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip_def:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _imports(tree: ast.AST) -> set[str]:
    """The names `tree` imports (`from m import name`, `import a.b`)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return found


def unused_exports(init: str, modules: dict[str, str], outside: list[str], exempt=frozenset()) -> list[str]:
    """The names `init` imports that no source reads: not `modules` (module
    name -> source, `__init__` left out) outside the name's own def or class
    in its defining module, nor any source in `outside`, which may also
    import it. Sorted; names in `exempt` are left out."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    reads = {mod: _reads(tree) for mod, tree in trees.items()}
    elsewhere: set[str] = set()
    for src in outside:
        tree = ast.parse(src)
        elsewhere |= _reads(tree) | _imports(tree)
    unused = []
    for name, home in _exports(init).items():
        if name in exempt or name in elsewhere or any(name in r for mod, r in reads.items() if mod != home):
            continue
        if home not in trees or name not in _reads(trees[home], name):
            unused.append(name)
    return sorted(unused)


def _sources(*dirs: Path) -> list[str]:
    return [p.read_text(encoding="utf-8") for d in dirs for p in sorted(d.glob("*.py"))]


class TestExportGuard:
    def test_every_export_has_a_caller_outside_the_tests(self):
        modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
        init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
        outside = _sources(ROOT / "scripts", ROOT / "perfbench")
        assert len(_exports(init)) > 50
        assert unused_exports(init, modules, outside, EXEMPT) == []
        assert unused_exports(init, modules, outside) == sorted(EXEMPT)

    def test_the_guard_reports_an_unused_export(self):
        init = "from .calc import used, unused, helper\nfrom .other import Shape\n"
        modules = {
            "calc": (
                "def used(x):\n    return helper(x)\n\n"
                "def unused(x):\n    return unused(x - 1) if x else 0\n\n"  # reads only itself
                "def helper(x):\n    return x\n"
            ),
            "other": "from .calc import used\n\nclass Shape:\n    def area(self):\n        return used(1)\n",
            "cli": "from . import calc\n\ndef run():\n    return calc.used(2)\n",
        }
        assert unused_exports(init, modules, []) == ["Shape", "unused"]
        assert unused_exports(init, modules, ["from renorml1 import Shape\n"]) == ["unused"]
        assert unused_exports(init, modules, ["import renorml1\nrenorml1.unused(3)\n"]) == ["Shape"]
        assert unused_exports(init, modules, [], exempt={"Shape", "unused"}) == []


def _tour() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_tour_prints_its_comments():
    """Each expression line of the tour evaluates to a value whose repr
    opens its comment, and the documented results hold."""
    code = _tour()
    lines = code.splitlines()
    ns: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), ns)
            comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
            assert comment.startswith(repr(value)), (ast.unparse(stmt), comment)
            checked.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), ns)
    assert len(checked) == 3
    rep = ns["rep"]
    assert ns["tnorm_sq"](ns["one"]) == Fraction(8, 7)
    assert (rep.gamma, rep.K) == (Fraction(1, 64), 7) and rep.gap_sq > Fraction(81, 25)

