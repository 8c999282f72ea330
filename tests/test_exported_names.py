"""Every name the package exports, other than its modules, has a reader, and
so does every public method of a class in src/.

A reader is code in src/ outside __init__, code in bench/, or a metric
BENCHMARK.json names (its "layer.function" prefix).  A method's reader in
src/ is code outside the method's own body.  A name with no reader is dead
weight in the package's surface.  This reads bench/ and BENCHMARK.json and
never edits them."""

import ast
import inspect
import json
from collections import Counter
from pathlib import Path

import bellbox

SRC = Path(bellbox.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _reads(tree) -> Counter:
    """How many times the code under an AST node reads each bare name and
    attribute name."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def _read_names(paths) -> set[str]:
    """The bare names and attribute names the given files' code reads."""
    return set(sum((_reads(ast.parse(path.read_text())) for path in paths), Counter()))


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


def test_every_public_method_has_a_reader():
    # public methods, properties and classmethods written in a class body:
    # dunders and private methods start with "_", and the methods dataclass
    # generates are not written there
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    methods = [
        (cls.name, method)
        for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
    ]
    assert methods
    src_reads = sum(map(_reads, trees), Counter())
    others = _read_names(sorted((ROOT / "bench").rglob("*.py"))) | _benchmark_names()
    unread = [
        f"{cls}.{method.name}" for cls, method in methods
        if method.name not in others and src_reads[method.name] <= _reads(method)[method.name]
    ]
    assert unread == []
