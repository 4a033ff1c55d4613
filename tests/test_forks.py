"""The product rule for separable sequences lives in few places.

Every comparison of ``.separable_parts`` with None outside ``sequences``
is a fork between a factored and a dense path.  This pins their number,
so that a new fork is a deliberate choice; the ones that remain, and
why, are listed in CHANGES.md.
"""

import ast
from pathlib import Path

import doublesine

MAX_FORKS = 8


def separable_forks(source: str) -> int:
    """Comparisons ``x.separable_parts is None`` / ``is not None`` in ``source``."""
    return sum(isinstance(node, ast.Compare)
               and isinstance(node.left, ast.Attribute)
               and node.left.attr == "separable_parts"
               and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
               and all(isinstance(cmp, ast.Constant) and cmp.value is None
                       for cmp in node.comparators)
               for node in ast.walk(ast.parse(source)))


def test_counter_sees_both_spellings_and_nothing_else():
    assert separable_forks("if c.separable_parts is None and d.separable_parts is not None:"
                           " a, b = c.separable_parts") == 2
    assert separable_forks("x = c.separable_parts == None or c.parts is None") == 0


def test_separable_forks_outside_sequences_are_pinned():
    package = Path(doublesine.__file__).parent
    forks = {path.name: separable_forks(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "sequences.py"}
    assert sum(forks.values()) <= MAX_FORKS, forks
