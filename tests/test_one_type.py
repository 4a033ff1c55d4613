"""One certified-value type.

Every scan, table query and lemma quantity returns a
``majorants.Measurement``, whose ``tail_bound`` bounds how far the truth
can exceed its value.  This pins that no other class of the library
declares a ``tail_bound`` field, so that a second type with its own
convention is a deliberate choice.
"""

import ast
from pathlib import Path

import doublesine


def tail_bound_classes(source: str) -> list[str]:
    """Classes in ``source`` whose body declares ``tail_bound``, annotated or
    assigned."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(target, ast.Name) and target.id == "tail_bound"
                    for stmt in node.body
                    for target in ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                                   else stmt.targets if isinstance(stmt, ast.Assign) else []))]


def test_counter_sees_fields_and_nothing_else():
    source = ("class A:\n    tail_bound: float | None = None\n"
              "class B:\n    tail_bound = None\n"
              "class C:\n    def f(self):\n        tail_bound = 1.0\n        return tail_bound\n"
              "class D:\n    bound: float\n")
    assert tail_bound_classes(source) == ["A", "B"]


def test_only_measurement_declares_a_tail_bound():
    package = Path(doublesine.__file__).parent
    found = {path.name: tail_bound_classes(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} \
        == {"majorants.py": ["Measurement"]}
