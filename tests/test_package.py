"""Static checks on the package source: no dead imports, an exact export list,
no export that only tests use, and no doc text that names a missing attribute."""

import ast
import importlib
import re
from pathlib import Path

import crosspose

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crosspose"


def _imported_names(tree) -> set:
    """Names that the import statements of a module bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_every_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the exports, checked below
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        missing = _imported_names(tree) - used
        if missing:
            unused[path.name] = sorted(missing)
    assert unused == {}


def test_all_lists_exactly_the_imported_names():
    imported = _imported_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert len(crosspose.__all__) == len(set(crosspose.__all__))
    assert set(crosspose.__all__) == imported


def test_every_export_is_used_outside_tests():
    """Each export is named by a package module, a demo or a README python block."""
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    used = {
        node.id
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name)
    }
    assert sorted(set(crosspose.__all__) - used) == []


def _shell_commands(block: str) -> list:
    """The commands of a shell block, without comments, ``&&`` or repeated spaces."""
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip().removesuffix("&&")
        if line.strip():
            commands.append(" ".join(line.split()))
    return commands


def test_ci_reruns_the_readme_tour():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Five-minute tour\n\n```bash\n(.*?)^```", readme, re.S | re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    body = re.search(r"^ *tour\(\) \{\n(.*?)^ *\}\n", workflow, re.S | re.M)
    readme_commands = _shell_commands(tour.group(1))
    cd, *ci_commands = _shell_commands(body.group(1))
    assert cd == 'cd "$1" && shift || return 1'
    assert len(readme_commands) == 5
    # The four manifest stages take the flags given after tour's directory.
    synth, *stages = readme_commands
    assert ci_commands == [synth, *(f'{command} "$@"' for command in stages)]


def _docstrings(tree) -> list:
    return [
        doc
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and (doc := ast.get_docstring(node, clean=False))
    ]


def test_docs_name_only_existing_attributes():
    """A `module.NAME` of a crosspose module, or a `Name()` constructor call,
    cited in README.md (single backticks) or in a package docstring (double
    backticks), must resolve; a rename that leaves the text behind fails here."""
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    cited = re.findall(r"(?<!`)`([\w.]+(?:\(\))?)`(?!`)", (ROOT / "README.md").read_text())
    for path in sorted(PACKAGE.glob("*.py")):
        for doc in _docstrings(ast.parse(path.read_text())):
            cited += re.findall(r"``([\w.]+(?:\(\))?)``", doc)
    namespaces = [crosspose] + [importlib.import_module(f"crosspose.{m}") for m in modules]
    stale = set()
    for text in cited:
        head, *rest = text.removesuffix("()").split(".")
        if rest and head in modules:
            target = importlib.import_module(f"crosspose.{head}")
            for name in rest:
                target = getattr(target, name, None)
            if target is None:
                stale.add(text)
        elif not rest and text.endswith("()") and head[:1].isupper():
            if not any(hasattr(ns, head) for ns in namespaces):
                stale.add(text)
    assert sorted(stale) == []
