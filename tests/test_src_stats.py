"""The settable-value count of ``scripts/src_stats.py`` on a fixed snippet."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "src_stats.py"
spec = importlib.util.spec_from_file_location("src_stats", SCRIPT)
src_stats = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_stats)

SNIPPET = '''
import dataclasses
from dataclasses import dataclass, field


def f(a, b=1, *args, c, d=2, e=None, **kw):
    return lambda x, y=3: x


@dataclass
class C:
    plain: int
    level: int = 0
    items: list = field(default_factory=list)
    flag: bool = dataclasses.field(default=False)
    history: list = field(repr=False)
    unannotated = 5

    def method(self, g=4):
        pass
'''


def test_settable_values_of_a_fixed_snippet():
    # parameters: b, d and e of f, y of the lambda, g of the method; fields:
    # level, items (default_factory) and flag (default=); history
    # (field(repr=False)), plain and unannotated have no settable default
    assert src_stats.settable_values(ast.parse(SNIPPET)) == (5, 3)


def test_a_field_call_counts_only_with_a_default():
    fields = [("field()", 0), ("field(default=1)", 1), ("field(default_factory=dict)", 1),
              ("field(init=False, repr=False)", 0), ("dataclasses.field(default=1)", 1)]
    for call, count in fields:
        tree = ast.parse(f"class C:\n    x: int = {call}\n")
        assert src_stats.settable_values(tree) == (0, count), call
