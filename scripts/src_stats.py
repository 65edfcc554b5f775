"""Print the size of ``src/dsbu``: its line count and its settable-value count.

The line count is that of ``cat src/dsbu/*.py | wc -l``. The settable-value
count, made with ``ast``, is the function and lambda parameters that have a
default plus the annotated class fields that have one; a
``dataclasses.field(...)`` counts only when it passes ``default`` or
``default_factory``. Run from anywhere: ``python3 scripts/src_stats.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsbu"


def _is_field_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "field") or (
        isinstance(f, ast.Attribute) and f.attr == "field"
        and isinstance(f.value, ast.Name) and f.value.id == "dataclasses")


def settable_values(tree: ast.AST) -> tuple[int, int]:
    """(parameters with a default, annotated class fields with a default) in ``tree``."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                if _is_field_call(stmt.value):
                    fields += any(k.arg in ("default", "default_factory")
                                  for k in stmt.value.keywords)
                else:
                    fields += 1
    return params, fields


def main() -> None:
    files = sorted(SRC.glob("*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    params = fields = 0
    for f in files:
        p, c = settable_values(ast.parse(f.read_text(), filename=str(f)))
        params, fields = params + p, fields + c
    print(f"src lines: {lines}")
    print(f"settable values: {params + fields} ({params} parameters + {fields} class fields)")


if __name__ == "__main__":
    main()
