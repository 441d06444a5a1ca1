#!/usr/bin/env python3
"""Fails on a src/ header that only tests use, or that nothing uses.

Standard library only. For every `src/**/*.hpp`, at least one file other
than the header itself and its own `.cpp` must `#include` it (by its
path relative to `src/`), and that file must live under `src/`,
`examples/`, `bench/`, `tools/` or `e2ebench/`. A header that only
`tests/` includes is code production never runs: move it to `tests/` or
delete it.

Run from anywhere: `python3 tools/check_unused_headers.py`. Exit status
is the number of offending headers (capped at 99); each is printed.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "examples", "bench", "tools", "e2ebench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    src = ROOT / "src"
    included_by = {}
    for top in USERS:
        for path in (ROOT / top).rglob("*"):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            for name in INCLUDE.findall(path.read_text(encoding="utf-8", errors="replace")):
                included_by.setdefault(name, set()).add(path)

    unused = []
    for header in sorted(src.rglob("*.hpp")):
        name = header.relative_to(src).as_posix()
        own = {header, header.with_suffix(".cpp")}
        if not included_by.get(name, set()) - own:
            unused.append(name)
    for name in unused:
        print(f"src/{name}: no file under {', '.join(USERS)} includes it "
              "(besides its own .cpp)")
    if not unused:
        print("every src/ header has a production includer")
    return min(len(unused), 99)


if __name__ == "__main__":
    sys.exit(main())
