"""No module, benchmark script or test imports a name it never uses, so a deletion cannot leave a stale import."""

import ast
from pathlib import Path

import isocut

SRC = Path(isocut.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# perfbench/tracing.py wraps this name on the hypergraph module
ALLOWED = {("hypergraph", "extend_forward_star")}


def unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_an_unused_name():
    # the package's __init__.py imports names to re-export them
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [*ROOT.glob("benchmarks/*.py"), *ROOT.glob("tests/*.py")]
    found = set()
    for path in sorted(paths):
        found.update((path.stem, name) for name in unused_imports(ast.parse(path.read_text())))
    assert found == ALLOWED
