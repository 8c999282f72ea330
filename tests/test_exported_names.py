"""Every name the package exports, other than its modules, has a reader.

A reader is code in src/ outside __init__, code in bench/, or a metric
BENCHMARK.json names (its "layer.function" prefix).  An exported name with no
reader is dead weight in the package's surface.  This reads bench/ and
BENCHMARK.json and never edits them."""

import ast
import inspect
import json
from pathlib import Path

import bellbox

SRC = Path(bellbox.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _read_names(paths) -> set[str]:
    """The bare names and attribute names the given files' code reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _benchmark_names() -> set[str]:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"].split(".")[1] for m in metrics if "." in m["name"]}


def test_every_exported_name_has_a_reader():
    src = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    readers = (_read_names(src) | _read_names(sorted((ROOT / "bench").rglob("*.py")))
               | _benchmark_names())
    exported = [name for name in bellbox.__all__
                if not inspect.ismodule(getattr(bellbox, name))]
    assert exported
    assert [name for name in exported if name not in readers] == []
