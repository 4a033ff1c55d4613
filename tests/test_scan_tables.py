"""Scan tables are built in few places.

A :class:`~doublesine.majorants.DoubleScanTable` holds a command's double
sups, kept per threshold, and its factor sums, so one command should
build one per (sequence, sup_horizon) and hand it to every call that
reads it.  The library functions take a table and build one only when
none is given (``majorants._scan_table``).  This pins the constructions
outside ``majorants``, so that a second table inside one command is a
deliberate choice.
"""

import ast
from pathlib import Path

import doublesine

# cli._run_lemma3: one table for the class-constant fit and every lemma 3 point
MAX_TABLES = 1


def table_constructions(source: str) -> int:
    """Calls ``DoubleScanTable(...)`` or ``x.DoubleScanTable(...)`` in ``source``."""
    return sum(isinstance(node, ast.Call)
               and (isinstance(node.func, ast.Name) and node.func.id == "DoubleScanTable"
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == "DoubleScanTable")
               for node in ast.walk(ast.parse(source)))


def test_counter_sees_calls_and_nothing_else():
    assert table_constructions("t = DoubleScanTable(c, 8); u = majorants.DoubleScanTable(c, 8)"
                               ) == 2
    assert table_constructions("from .majorants import DoubleScanTable\n"
                               "def f(table: DoubleScanTable | None = None): DoubleScanTable"
                               ) == 0


def test_table_constructions_outside_majorants_are_pinned():
    package = Path(doublesine.__file__).parent
    tables = {path.name: table_constructions(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "majorants.py"}
    assert sum(tables.values()) <= MAX_TABLES, tables
