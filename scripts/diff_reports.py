#!/usr/bin/env python3
"""Compare two report directories written by scripts/run_all.py, byte for byte.

Every file is compared as raw bytes after masking the string values of
the ``config`` and ``out_dir`` keys, which name the config file and the
output directory of the run.  Files present on one side only count as
differences.  Prints one line per differing file (with the first lines
of a diff) and exits 1 on any difference, 0 when all files match and 2
when a directory is missing.

Run:  python3 scripts/diff_reports.py DIR_A DIR_B
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from pathlib import Path

_MASKED = re.compile(rb'("(?:config|out_dir)": )"(?:[^"\\]|\\.)*"')
_DIFF_LINES = 20


def masked(path: Path) -> bytes:
    """File contents with the run-specific paths replaced by ``"<masked>"``."""
    return _MASKED.sub(rb'\1"<masked>"', path.read_bytes())


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One message per file that differs between the two directories."""
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    problems = [f"{name}: only in {dir_a if name in names_a else dir_b}"
                for name in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        a, b = masked(dir_a / name), masked(dir_b / name)
        if a == b:
            continue
        diff = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                    b.decode(errors="replace").splitlines(),
                                    str(dir_a / name), str(dir_b / name), lineterm="")
        lines = list(diff)
        shown = "\n".join(lines[:_DIFF_LINES])
        more = f"\n... {len(lines) - _DIFF_LINES} more diff lines" if len(lines) > _DIFF_LINES else ""
        problems.append(f"{name}: differs\n{shown}{more}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    problems = compare(args.dir_a, args.dir_b)
    for problem in problems:
        print(problem)
    total = len({p.name for d in (args.dir_a, args.dir_b) for p in d.iterdir() if p.is_file()})
    print(f"{total - len(problems)} of {total} files identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
