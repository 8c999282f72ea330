"""Every dataclass in the package holds an invariant or cannot be a tuple.

A dataclass that validates nothing in __post_init__ and compares by value is
a plain result record, which a typing.NamedTuple carries more cheaply; an
eq=False class holds arrays, on which tuple == would raise.  RunConfig,
Table and ReportEnvelope stay dataclasses, read through dataclass APIs."""

import ast
from pathlib import Path

import bellbox

SOURCES = sorted(Path(bellbox.__file__).parent.glob("*.py"))
KEPT = {"RunConfig", "Table", "ReportEnvelope"}


def _is_dataclass(decorator: ast.expr) -> bool:
    """True for @dataclass and for a call of it, as @dataclass(frozen=True)."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _is_eq_false(decorator: ast.expr) -> bool:
    return isinstance(decorator, ast.Call) and any(
        k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in decorator.keywords)


def _dataclasses() -> list[tuple[str, ast.ClassDef, ast.expr]]:
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [(path.name, node, d) for d in node.decorator_list if _is_dataclass(d)]
    return found


def test_every_dataclass_validates_or_is_not_a_record():
    found = _dataclasses()
    assert {node.name for _, node, _ in found} >= KEPT  # the walk sees the decorators
    records = [
        f"{module}:{node.name}" for module, node, decorator in found
        if node.name not in KEPT and not _is_eq_false(decorator)
        and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                    for item in node.body)
    ]
    assert records == []
