#!/usr/bin/env python3
"""Fails on socket code outside the one socket layer, `src/util/socket.*`.

Standard library only. Every listener and client in `src/` goes through
`util/socket.{hpp,cpp}`: listen, connect and accept, the epoll set and
its eventfd wake, and the read and send loops, whose sends always pass
MSG_NOSIGNAL. A file under `src/` other than those two fails the check
when it

- calls one of the socket primitives in CALLS (`::send(...)` and the
  like, spelled with the global-scope `::`), or
- defines its own fd-owning class: a class or struct whose name ends in
  `Fd` (`class Fd {`, `struct SocketFd :`).

Run from anywhere: `python3 tools/check_socket_calls.py`. Exit status is
the number of offending files (capped at 99); each is printed with the
calls and classes found.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYER = {"util/socket.hpp", "util/socket.cpp"}
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
CALLS = ("socket", "bind", "listen", "accept", "accept4", "connect", "setsockopt",
         "epoll_create1", "epoll_ctl", "epoll_wait", "eventfd", "poll", "send", "recv")
CALL = re.compile(r"(?<![\w:])::(" + "|".join(CALLS) + r")\s*\(")
FD_CLASS = re.compile(r"\b(?:class|struct)\s+(\w*Fd)\b\s*(?:final\s*)?[{:]")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def offences(text: str) -> list:
    code = COMMENT.sub("", text)
    found = sorted({f"::{name}()" for name in CALL.findall(code)})
    found += [f"fd-owning class {name}" for name in FD_CLASS.findall(code)]
    return found


def main() -> int:
    bad = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        relative = path.relative_to(SRC).as_posix()
        if relative in LAYER:
            continue
        found = offences(path.read_text(encoding="utf-8", errors="replace"))
        if found:
            bad.append(relative)
            print(f"src/{relative}: {', '.join(found)} outside src/util/socket.*")
    if not bad:
        print("every socket call and fd-owning class in src/ is in src/util/socket.*")
    return min(len(bad), 99)


if __name__ == "__main__":
    sys.exit(main())
