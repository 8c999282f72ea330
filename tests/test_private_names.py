"""Every module-level private name in the package is read somewhere in it."""

import ast
from pathlib import Path

import bellbox

SOURCES = sorted(Path(bellbox.__file__).parent.glob("*.py"))


def _defined(statement: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]


def _read(node: ast.AST) -> set[str]:
    """The names node reads: bare names, and attributes such as
    experiments._axis_count.  An import alone reads nothing."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_every_private_name_has_a_reader():
    # (module, statement index, name) for each private definition, and the
    # names each module-level statement reads, keyed by (module, index)
    private, reads = [], {}
    for path in SOURCES:
        for i, statement in enumerate(ast.parse(path.read_text()).body):
            reads[path.name, i] = _read(statement)
            private += [(path.name, i, name) for name in _defined(statement)
                        if name.startswith("_") and not name.startswith("__")]
    # a name read only inside its own definition, as a recursive helper
    # reads itself, has no reader
    orphans = [f"{module}:{name}" for module, i, name in private
               if not any(name in names for key, names in reads.items() if key != (module, i))]
    assert orphans == []
