#!/usr/bin/env python3
"""Fails on a live-layer config field that no production file sets.

Standard library only. For every field of the structs in CHECKED, some
file under `src/`, `examples/`, `bench/`, `tools/` or `e2ebench/`, other
than the header that defines the struct, must assign it: `.field =`,
`->field =` or `.field.member =`. A field only tests set is an option
no deployment uses: make it a constant with its default, or delete it.

Run from anywhere: `python3 tools/check_config_fields.py`. Exit status
is the number of offending fields (capped at 99); each is printed.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "examples", "bench", "tools", "e2ebench")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
CHECKED = ("IngestPipelineConfig", "IngestWorkerConfig", "PipelineConfig",
           "ShardRouterConfig", "ResponseCacheConfig", "ApiOptions",
           "ShardApiOptions", "EpochStreamOptions")
FIELD = re.compile(r"(\w+)\s*(?:=[^;]*|\{[^;]*\})?;$")


def struct_start(name: str):
    return re.compile(r"\bstruct\s+" + name + r"\s*\{")


def struct_fields(text: str, name: str) -> list:
    """Field names declared at the top level of `struct name { ... };`."""
    match = struct_start(name).search(text)
    if match is None:
        return []
    body = re.sub(r"//[^\n]*", "", text[match.end():])
    fields, depth, statement = [], 0, ""
    for char in body:
        if char == "}" and depth == 0:
            break
        depth += {"{": 1, "}": -1}.get(char, 0)
        statement += char
        if char == ";" and depth == 0:
            statement = " ".join(statement.split())
            field = FIELD.search(statement)
            if field and "(" not in statement and not statement.startswith(
                    ("using ", "static ", "friend ")):
                fields.append(field.group(1))
            statement = ""
    return fields


def main() -> int:
    sources = {}
    for top in USERS:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                sources[path] = path.read_text(encoding="utf-8", errors="replace")

    unset = []
    for name in CHECKED:
        start = struct_start(name)
        headers = [path for path, text in sources.items()
                   if path.suffix == ".hpp" and start.search(text)]
        if len(headers) != 1:
            print(f"{name}: expected one defining header under src/, found {len(headers)}")
            unset.append(name)
            continue
        header = headers[0]
        for field in struct_fields(sources[header], name):
            assigned = re.compile(r"(?:\.|->)" + field + r"(?:\.\w+)*\s*=(?!=)")
            if not any(assigned.search(text) for path, text in sources.items()
                       if path != header):
                unset.append(f"{name}::{field}")
                print(f"{header.relative_to(ROOT)}: {name}::{field} is set by no file "
                      f"under {', '.join(USERS)} (besides its own header)")
    if not unset:
        print(f"every field of {', '.join(CHECKED)} has a production setter")
    return min(len(unset), 99)


if __name__ == "__main__":
    sys.exit(main())
