#!/usr/bin/env python3
"""Ships guard: every object in libvwsdk.a is linked into the `vwsdk` CLI.

Registered as the ctest ``lint.ships`` (label "lint") wherever the CLI
target is built (apps/CMakeLists.txt):

    python3 tools/check_ships.py --self-test --nm nm \\
        --archive build/libvwsdk.a --binary build/apps/vwsdk

A static link copies an archive member whole or not at all, so a member
is *shipped* when at least one strong symbol it defines (nm types T, D,
B, R, ...) is also defined in the linked binary.  A member that
contributes none is code no shipped binary runs -- only tests, examples
or benches call it -- and it belongs deleted, or next to its only
caller outside src/.  Weak symbols (inline functions, template
instantiations) do not count: any translation unit may emit them.

Checking the CLI alone is enough: perfbench's in-process replay
(perfbench/replay.cpp) links no member of the archive that the CLI does
not, since it drives the same service, plan and verify code.

ALLOWED lists the exceptions, each with a one-line reason.  Members are
named by their source path under src/ (archive members carry only the
file name, which is unique across src/).

``--self-test`` first runs the check on synthetic nm listings and fails
unless it flags an unlinked member and stays silent on a clean input,
so the guard cannot go blind unnoticed; then the real archive is
checked.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ALLOWED = {
    "core/search_trace.cpp":
        "SearchTrace is pinned by the north star and is reached only "
        "through MappingContext::trace, which the CLI never sets",
}

# nm symbol types that are defined, global and not weak.
STRONG_TYPES = set("BDGRST")


def strong_symbols(lines: list[str]) -> set[str]:
    """Strong global symbols of one nm --defined-only listing."""
    symbols = set()
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[1] in STRONG_TYPES:
            symbols.add(fields[2])
    return symbols


def archive_members(listing: str) -> dict[str, set[str]]:
    """{member: strong symbols} from `nm --defined-only <archive>`.

    nm prints each member as a "name.o:" header followed by its
    symbols; blank lines separate members.
    """
    members: dict[str, list[str]] = {}
    current = None
    for line in listing.splitlines():
        if line.endswith(":") and " " not in line:
            current = line[:-1]
            members.setdefault(current, [])
        elif current is not None and line.strip():
            members[current].append(line)
    return {name: strong_symbols(lines) for name, lines in members.items()}


def source_of(member: str) -> str:
    """`pipeline.cpp.o` -> `pipeline.cpp` (file name of the source)."""
    return member[:-2] if member.endswith(".o") else member


def unshipped(members: dict[str, set[str]], binary: set[str],
              sources: dict[str, str]) -> list[str]:
    """Failures: members that give the binary no strong symbol and are
    not allowlisted.  `sources` maps a source file name to its path
    under src/ (e.g. "pipeline.cpp" -> "sim/pipeline.cpp")."""
    failures = []
    for member in sorted(members):
        if members[member] & binary:
            continue
        name = source_of(member)
        path = sources.get(name, name)
        if path in ALLOWED:
            continue
        failures.append(
            f"src/{path}: archive member {member} contributes no strong "
            "symbol to the vwsdk binary -- nothing shipped calls it; "
            "delete it, move it next to its caller outside src/, or "
            "allowlist it in tools/check_ships.py with a reason")
    return failures


def source_index(src: Path) -> dict[str, str]:
    """{file name: path relative to src/} for every src/**/*.cpp."""
    return {path.name: path.relative_to(src).as_posix()
            for path in sorted(src.rglob("*.cpp"))}


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

SELF_TEST_ARCHIVE = """
used.cpp.o:
0000000000000000 T _ZN5vwsdk4usedEv
0000000000000000 W _ZN5vwsdk6inlineEv

unused.cpp.o:
0000000000000000 T _ZN5vwsdk6unusedEv
0000000000000000 W _ZN5vwsdk6inlineEv

search_trace.cpp.o:
0000000000000000 T _ZN5vwsdk11SearchTrace4stepEv
"""

SELF_TEST_SOURCES = {
    "used.cpp": "core/used.cpp",
    "unused.cpp": "core/unused.cpp",
    "search_trace.cpp": "core/search_trace.cpp",
}

# The binary defines the used member's strong symbol and, as any
# translation unit may, the weak one both members share.
SELF_TEST_BINARY = """
0000000000001000 T main
0000000000001100 T _ZN5vwsdk4usedEv
0000000000001200 W _ZN5vwsdk6inlineEv
"""


def run_self_test() -> list[str]:
    problems = []
    members = archive_members(SELF_TEST_ARCHIVE)
    binary = strong_symbols(SELF_TEST_BINARY.splitlines())
    failures = unshipped(members, binary, SELF_TEST_SOURCES)
    if len(failures) != 1 or not failures[0].startswith(
            "src/core/unused.cpp:"):
        problems.append(
            "self-test: expected exactly one failure, for the unlinked "
            f"member core/unused.cpp; got {failures}")
    clean = {name: symbols for name, symbols in members.items()
             if name != "unused.cpp.o"}
    failures = unshipped(clean, binary, SELF_TEST_SOURCES)
    if failures:
        problems.append(
            f"self-test: false positive on a clean input: {failures[0]}")
    return problems


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def nm_listing(nm: str, path: Path) -> str:
    return subprocess.run([nm, "--defined-only", str(path)], check=True,
                          capture_output=True, text=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nm", default="nm", help="nm binary")
    parser.add_argument("--archive", type=Path, help="libvwsdk.a")
    parser.add_argument("--binary", type=Path, help="the linked vwsdk CLI")
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory (names members)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the checker first")
    args = parser.parse_args()

    if args.self_test:
        problems = run_self_test()
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print("self-test: the ships check flags an unlinked member and "
              "passes a clean input")
    if args.archive is None or args.binary is None:
        if args.self_test:
            return 0
        parser.error("--archive and --binary are required")

    members = archive_members(nm_listing(args.nm, args.archive))
    binary = strong_symbols(nm_listing(args.nm, args.binary).splitlines())
    if not members or not binary:
        print(f"no symbols read from {args.archive} or {args.binary} "
              "(stripped?)", file=sys.stderr)
        return 1
    failures = unshipped(members, binary, source_index(args.src))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"ships: {len(failures)} of {len(members)} archive members "
              "are not linked into the vwsdk binary", file=sys.stderr)
        return 1
    print(f"ships: no unlinked archive member outside the allowlist "
          f"({len(members)} members, {len(ALLOWED)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
