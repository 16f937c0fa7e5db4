#!/usr/bin/env python3
"""Repo-invariant lint: the static checks the compiler cannot express.

Registered as the ctest ``lint.invariants`` (label "lint"), mirroring
tools/check_doc_comments.py.  Eleven rules, each enforcing a contract the
codebase documents elsewhere:

  determinism      no nondeterminism sources (std::rand, time(),
                   std::random_device, high_resolution_clock) anywhere
                   in src/ outside common/random.* -- the engine's
                   byte-identical-results contract depends on it.
  signal-safety    every function installed as a signal handler in
                   src/serve/server.cpp touches only async-signal-safe
                   operations: stores to lock-free atomic (or
                   `volatile sig_atomic_t`) globals and `write(2)`.
                   Lock-free atomics are preferred -- the handler runs
                   on whichever thread receives the signal while the
                   daemon loop reads the flag from another, and
                   sig_atomic_t is signal-safe but not thread-safe.
  mutex-annotations  concurrent code locks through the annotated
                   vwsdk::Mutex wrappers (common/mutex.h): no raw
                   std::mutex / std::lock_guard / std::condition_variable
                   outside that header, and every Mutex member is named
                   by at least one VWSDK_GUARDED_BY / VWSDK_REQUIRES /
                   VWSDK_EXCLUDES annotation in its file.
  error-codes      the wire names returned by error_code_name() in
                   src/common/error.cpp match the error-code table in
                   docs/SERVE.md exactly (both directions).
  doc-links        every docs/*.md page is linked from README.md or
                   another docs page -- an orphaned page silently rots.
  ceil-div         no hand-rolled `(a + b - 1) / b` ceiling divisions in
                   src/ -- that form overflows for a near INT64_MAX; use
                   ceil_div / checked_ceil_div (common/math_util.h,
                   common/checked_math.h), whose `a/b + (a%b != 0)`
                   formulation cannot.
  nolint-discipline  every NOLINT / NOLINTNEXTLINE / NOLINTBEGIN in src/
                   names a specific clang-tidy check (no bare or `(*)`
                   blanket suppressions) and carries a justification
                   after the check list (docs/STATIC_ANALYSIS.md).
  one-pool         only the service facade (src/serve/service.*) owns a
                   ThreadPool: nowhere else in src/ is one constructed
                   -- no owned member, local or static, no
                   make_unique<ThreadPool> or other owning template, no
                   `new ThreadPool`.  Every other fan-out borrows a
                   `ThreadPool*`, where nullptr means the calling
                   thread (docs/CONCURRENCY.md).
  one-crew         no `std::thread`, `std::jthread` or `std::async` in
                   src/ outside common/thread_pool.*: the pool's
                   workers are the only threads the library starts, so
                   `--threads` is the daemon's whole crew
                   (docs/CONCURRENCY.md).
  isa-flags        no `-march=native` in any CMakeLists.txt or src/ file
                   and no `__attribute__((target ...))` in src/: the
                   GEMM kernel is compiled once per ISA with explicit
                   flags (src/tensor/gemm_kernel.h) and dispatched at
                   run time, so a build must not take its ISA from the
                   machine that compiles it, nor a function its ISA
                   from an attribute the per-unit flags do not see.
  one-layout       outside src/mapping/, no `holds_cell(` call and no
                   sort over row or column bindings: a tile's
                   structure is derived once, by derive_layout
                   (mapping/mapping_plan.h), and its consumers read the
                   derived layout instead of deriving it again.

``--self-test`` first runs every rule against embedded known-bad
snippets and fails if any rule has gone blind; then the real tree is
linted.  Rules operate on an in-memory {path: text} tree so the
self-tests need no temporary files.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Infrastructure: rules see a Tree = dict[str, str] of repo-relative
# posix paths to file text, pre-filtered to the files lint cares about.
# --------------------------------------------------------------------------

Failure = str  # "path:line: message"


def strip_comments(text: str) -> str:
    """C++ text with // and /* */ comments blanked (newlines kept, so
    line numbers survive).  String literals are not parsed; the banned
    tokens do not legitimately appear inside strings in this repo."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:end]))
            i = end
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def find_all(pattern: str, text: str) -> list[re.Match]:
    return list(re.finditer(pattern, text, re.MULTILINE))


# --------------------------------------------------------------------------
# Rule: determinism
# --------------------------------------------------------------------------

DETERMINISM_ALLOWED = ("src/common/random.h", "src/common/random.cpp")

# Token -> human name.  `time(` is matched as a call (optionally
# ::-qualified) not preceded by an identifier character or member
# access, so wall_time(...) and obj.time(...) stay legal.
DETERMINISM_BANNED = [
    (r"\bstd::rand\b", "std::rand"),
    (r"(?:::|(?<![\w.:]))s?rand\s*\(", "rand()/srand()"),
    (r"\brandom_device\b", "std::random_device"),
    (r"\bhigh_resolution_clock\b", "high_resolution_clock"),
    (r"(?:::|(?<![\w.:]))time\s*\(", "time()"),
]


def rule_determinism(tree: dict[str, str]) -> list[Failure]:
    """Nondeterminism sources are confined to common/random -- every
    other src/ file must produce byte-identical output run to run."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path in DETERMINISM_ALLOWED:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for pattern, name in DETERMINISM_BANNED:
            for match in find_all(pattern, code):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: nondeterminism "
                    f"source {name} outside common/random (determinism "
                    "contract, docs/CONCURRENCY.md)")
    return failures


# --------------------------------------------------------------------------
# Rule: signal-safety
# --------------------------------------------------------------------------

SERVER_CPP = "src/serve/server.cpp"


def function_body(code: str, name: str) -> tuple[str, int] | None:
    """The brace-balanced body of `name(...) {...}` and its offset."""
    match = re.search(rf"\b{re.escape(name)}\s*\([^)]*\)\s*{{", code)
    if not match:
        return None
    start = match.end() - 1
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[start + 1:i], start + 1
    return None


def rule_signal_safety(tree: dict[str, str]) -> list[Failure]:
    """Signal handlers may only store to lock-free atomic / volatile
    sig_atomic_t globals and call write(2) -- the async-signal-safe
    vocabulary."""
    text = tree.get(SERVER_CPP)
    if text is None:
        return [f"{SERVER_CPP}:1: file missing (signal-safety rule has "
                "nothing to check; update vwsdk_lint.py if it moved)"]
    code = strip_comments(text)

    handlers = set()
    for match in find_all(r"\bsa_handler\s*=\s*(\w+)", code):
        handlers.add(match.group(1))
    for match in find_all(r"\bsignal\s*\(\s*\w+\s*,\s*(\w+)\s*\)", code):
        handlers.add(match.group(1))
    handlers -= {"SIG_IGN", "SIG_DFL"}
    if not handlers:
        return [f"{SERVER_CPP}:1: no signal handler found (the daemon "
                "must install SIGINT/SIGTERM handlers; update "
                "vwsdk_lint.py if installation moved)"]

    sig_atomic_globals = {
        m.group(1)
        for m in find_all(
            r"volatile\s+(?:std::)?sig_atomic_t\s+(\w+)", code)
    }
    sig_atomic_globals |= {
        m.group(1)
        for m in find_all(
            r"std::atomic<\s*(?:int|(?:std::)?sig_atomic_t)\s*>\s+(\w+)",
            code)
    }

    failures = []
    for handler in sorted(handlers):
        body_at = function_body(code, handler)
        if body_at is None:
            failures.append(f"{SERVER_CPP}:1: signal handler '{handler}' "
                            "has no body in this file")
            continue
        body, offset = body_at
        # Every call in the body must be write(); everything else on
        # the async-signal-safe list this repo needs is an operator.
        for match in find_all(r"(?<![\w.:])(\w+)\s*\(", body):
            callee = match.group(1)
            if callee in ("write", "if", "while", "for", "switch",
                          "return", "sizeof"):
                continue
            failures.append(
                f"{SERVER_CPP}:{line_of(code, offset + match.start())}: "
                f"signal handler '{handler}' calls '{callee}' -- only "
                "write(2) is async-signal-safe here")
        # Every assignment target that is not a body-local variable
        # must be a volatile sig_atomic_t global.
        locals_ = {
            m.group(1)
            for m in find_all(
                r"(?:const\s+)?(?:int|char|ssize_t|long)\s+(\w+)\s*=", body)
        }
        for match in find_all(r"(?<![\w.:=!<>])(\w+)\s*=[^=]", body):
            target = match.group(1)
            if target in locals_ or target in ("const", "int", "char",
                                               "ssize_t", "long"):
                continue
            if target not in sig_atomic_globals:
                failures.append(
                    f"{SERVER_CPP}:{line_of(code, offset + match.start())}: "
                    f"signal handler '{handler}' writes '{target}', which "
                    "is not a volatile sig_atomic_t global")
    return failures


# --------------------------------------------------------------------------
# Rule: mutex-annotations
# --------------------------------------------------------------------------

MUTEX_HOME = "src/common/mutex.h"
RAW_LOCK_TOKENS = [
    r"\bstd::mutex\b", r"\bstd::recursive_mutex\b", r"\bstd::shared_mutex\b",
    r"\bstd::condition_variable\b", r"\bstd::condition_variable_any\b",
    r"\bstd::lock_guard\b", r"\bstd::unique_lock\b", r"\bstd::scoped_lock\b",
]


def rule_mutex_annotations(tree: dict[str, str]) -> list[Failure]:
    """Raw standard locking types are confined to common/mutex.h; every
    vwsdk::Mutex member is named by at least one thread-safety
    annotation in its file (an unannotated mutex guards nothing the
    compiler can check)."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path == MUTEX_HOME:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for token in RAW_LOCK_TOKENS:
            for match in find_all(token, code):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: raw "
                    f"{match.group(0)} -- use the annotated vwsdk::Mutex / "
                    "MutexLock / CondVar (common/mutex.h) so clang "
                    "-Wthread-safety can check the locking")
        for match in find_all(
                r"(?:^|\s)(?:mutable\s+)?Mutex\s+(\w+)\s*;", code):
            name = match.group(1)
            used = re.search(
                r"VWSDK_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|"
                r"ACQUIRE|RELEASE)\s*\(\s*" + re.escape(name), code)
            if not used:
                failures.append(
                    f"{path}:{line_of(code, match.start(1))}: Mutex "
                    f"'{name}' has no VWSDK_GUARDED_BY/REQUIRES/EXCLUDES "
                    "user in this file -- annotate what it protects")
    return failures


# --------------------------------------------------------------------------
# Rule: error-codes
# --------------------------------------------------------------------------

ERROR_CPP = "src/common/error.cpp"
SERVE_MD = "docs/SERVE.md"


def rule_error_codes(tree: dict[str, str]) -> list[Failure]:
    """error_code_name()'s wire names and the docs/SERVE.md error table
    must agree exactly -- the table is the protocol's normative list."""
    code_text = tree.get(ERROR_CPP)
    doc_text = tree.get(SERVE_MD)
    failures = []
    if code_text is None:
        return [f"{ERROR_CPP}:1: file missing (error-codes rule)"]
    if doc_text is None:
        return [f"{SERVE_MD}:1: file missing (error-codes rule)"]

    body_at = function_body(strip_comments(code_text), "error_code_name")
    if body_at is None:
        return [f"{ERROR_CPP}:1: error_code_name() not found"]
    in_code = {m.group(1)
               for m in find_all(r'return\s+"([a-z_]+)"', body_at[0])}

    # Error-table rows are the only SERVE.md rows whose last cell is a
    # bare exit-code integer: | `name` | meaning | 2 |
    in_docs = {m.group(1)
               for m in find_all(r"^\|\s*`([a-z_]+)`\s*\|[^|]*\|\s*\d+\s*\|",
                                 doc_text)}
    if not in_docs:
        return [f"{SERVE_MD}:1: no error-code table rows found (the "
                "`| `code` | meaning | exit |` table moved or changed "
                "shape; update vwsdk_lint.py)"]
    for name in sorted(in_code - in_docs):
        failures.append(f"{SERVE_MD}:1: wire name '{name}' returned by "
                        f"error_code_name() is missing from the error table")
    for name in sorted(in_docs - in_code):
        failures.append(f"{SERVE_MD}:1: documented error code '{name}' is "
                        f"not a wire name error_code_name() returns")
    return failures


# --------------------------------------------------------------------------
# Rule: doc-links
# --------------------------------------------------------------------------


def rule_doc_links(tree: dict[str, str]) -> list[Failure]:
    """Every docs/*.md page is referenced by name from README.md or
    from another docs page -- no orphaned documentation."""
    failures = []
    doc_pages = [p for p in tree if p.startswith("docs/")
                 and p.endswith(".md")]
    for page in sorted(doc_pages):
        name = page.split("/", 1)[1]
        referenced = False
        for other, text in tree.items():
            if other == page:
                continue
            if (other == "README.md" or
                    (other.startswith("docs/") and other.endswith(".md"))):
                if name in text:
                    referenced = True
                    break
        if not referenced:
            failures.append(f"{page}:1: not linked from README.md or any "
                            "other docs page (orphaned documentation)")
    return failures


# --------------------------------------------------------------------------
# Rule: ceil-div
# --------------------------------------------------------------------------

# The textbook ceiling division `(a + b - 1) / b` (divisor == second
# addend, in either `(a + b - 1)` or `(b - 1 + a)` order).  `a + b - 1`
# overflows for a near INT64_MAX, so the repo's only ceiling-division
# spelling is ceil_div/checked_ceil_div, which use `a/b + (a%b != 0)`.
_OPERAND = r"[A-Za-z_][\w]*(?:(?:\.|->)[A-Za-z_][\w]*)*(?:\(\s*\))?"
CEIL_DIV_PATTERNS = [
    re.compile(r"\(\s*(?:%s)\s*\+\s*(%s)\s*-\s*1\s*\)\s*/\s*(%s)"
               % (_OPERAND, _OPERAND, _OPERAND)),
    re.compile(r"\(\s*(%s)\s*-\s*1\s*\+\s*(?:%s)\s*\)\s*/\s*(%s)"
               % (_OPERAND, _OPERAND, _OPERAND)),
]


def rule_ceil_div(tree: dict[str, str]) -> list[Failure]:
    """Hand-rolled `(a + b - 1) / b` ceiling divisions are banned in
    src/: the `a + b - 1` intermediate overflows near INT64_MAX.  Use
    ceil_div / checked_ceil_div (common/math_util.h,
    common/checked_math.h) instead."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for pattern in CEIL_DIV_PATTERNS:
            for match in pattern.finditer(code):
                if match.group(1) != match.group(2):
                    continue  # (a + b - 1) / c is not a ceiling division
                failures.append(
                    f"{path}:{line_of(code, match.start())}: hand-rolled "
                    f"ceiling division '{match.group(0)}' -- the a+b-1 "
                    "intermediate overflows near INT64_MAX; use ceil_div/"
                    "checked_ceil_div (common/math_util.h)")
    return failures


# --------------------------------------------------------------------------
# Rule: nolint-discipline
# --------------------------------------------------------------------------

# `NOLINT`, optionally NEXTLINE/BEGIN/END, optionally a (check-list),
# then the rest of the line (the justification slot).  Matched on RAW
# text -- NOLINT markers live inside comments by construction.
NOLINT_RE = re.compile(
    r"NOLINT(NEXTLINE|BEGIN|END)?(\([^)\n]*\))?([^\n]*)")
NOLINT_CHECKS_RE = re.compile(r"[a-z][a-z0-9]*(?:[-.][a-z0-9]+)+"
                              r"(?:\s*,\s*[a-z][a-z0-9]*(?:[-.][a-z0-9]+)+)*")


def rule_nolint_discipline(tree: dict[str, str]) -> list[Failure]:
    """Every clang-tidy suppression in src/ must name the specific
    check(s) it silences -- no bare `// NOLINT` and no `NOLINT(*)` -- and
    carry a justification after the check list, so a suppression cannot
    outlive the reason it was added (docs/STATIC_ANALYSIS.md)."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or not path.endswith((".h", ".cpp")):
            continue
        for match in NOLINT_RE.finditer(text):
            where = f"{path}:{line_of(text, match.start())}"
            variant = match.group(1) or ""
            checks = match.group(2)
            rest = match.group(3) or ""
            if checks is None:
                failures.append(
                    f"{where}: bare NOLINT{variant} -- name the specific "
                    f"check(s): NOLINT{variant}(check-name): why")
                continue
            inner = checks[1:-1].strip()
            if not inner or "*" in inner or \
                    not NOLINT_CHECKS_RE.fullmatch(inner):
                failures.append(
                    f"{where}: NOLINT{variant}({inner}) is a blanket or "
                    "malformed suppression -- name the specific clang-tidy "
                    "check(s), e.g. NOLINT(bugprone-integer-division)")
                continue
            if variant == "END":
                continue  # the justification lives on the matching BEGIN
            justification = rest.strip().lstrip(":-").strip()
            if len(justification) < 8:
                failures.append(
                    f"{where}: NOLINT{variant}({inner}) has no "
                    "justification -- append why the finding is a false "
                    "positive or intentional, e.g. "
                    f"NOLINT{variant}({inner}): <reason>")
    return failures


# --------------------------------------------------------------------------
# Rule: one-pool
# --------------------------------------------------------------------------

ONE_POOL_ALLOWED = ("src/common/thread_pool.h", "src/common/thread_pool.cpp",
                    "src/serve/service.h", "src/serve/service.cpp")

# Each pattern is one way to bring a ThreadPool into existence; pointers
# and references (`ThreadPool*`, `ThreadPool&`) only borrow one.
ONE_POOL_PATTERNS = [
    (re.compile(r"\bThreadPool\s+[A-Za-z_]\w*\s*[;({=]"),
     "a ThreadPool object (member, local or static)"),
    (re.compile(r"<\s*(?:const\s+)?ThreadPool\s*>"),
     "an owning template over ThreadPool (make_unique, unique_ptr, ...)"),
    (re.compile(r"\bnew\s+ThreadPool\b"), "`new ThreadPool`"),
    (re.compile(r"(?<![\w:~])ThreadPool\s*[({]"), "a ThreadPool temporary"),
]


def rule_one_pool(tree: dict[str, str]) -> list[Failure]:
    """Only the service facade owns a ThreadPool; everything else in
    src/ borrows one through a `ThreadPool*` (nullptr = the calling
    thread), so `--threads` bounds every fan-out in the process."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path in ONE_POOL_ALLOWED:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for pattern, what in ONE_POOL_PATTERNS:
            for match in pattern.finditer(code):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: {what} outside "
                    "serve/service.* -- borrow the service's pool through a "
                    "ThreadPool* instead (one-pool rule, "
                    "docs/CONCURRENCY.md)")
    return failures


# --------------------------------------------------------------------------
# Rule: one-crew
# --------------------------------------------------------------------------

ONE_CREW_ALLOWED = ("src/common/thread_pool.h", "src/common/thread_pool.cpp")

# `std::this_thread` is not a match: it starts nothing.
ONE_CREW_PATTERN = re.compile(r"\bstd::(thread|jthread|async)\b")


def rule_one_crew(tree: dict[str, str]) -> list[Failure]:
    """The ThreadPool's workers are the only threads src/ starts:
    requests, searches and the reference convolution all run on them,
    so no second crew grows beside the pool."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path in ONE_CREW_ALLOWED:
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in ONE_CREW_PATTERN.finditer(code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: std::"
                f"{match.group(1)} outside common/thread_pool.* -- run the "
                "work on the service's ThreadPool (try_submit or "
                "parallel_chunks) instead (one-crew rule, "
                "docs/CONCURRENCY.md)")
    return failures


# --------------------------------------------------------------------------
# Rule: isa-flags
# --------------------------------------------------------------------------

ISA_FLAG_PATTERNS = [
    (re.compile(r"-march=native\b"), "`-march=native`"),
    (re.compile(r"__attribute__\s*\(\(\s*target\b"),
     "`__attribute__((target ...))`"),
]


def strip_cmake_comments(text: str) -> str:
    """CMake text with `#` line comments blanked (no `#` appears inside
    a string in this repo's CMake files)."""
    return re.sub(r"#[^\n]*", "", text)


def rule_isa_flags(tree: dict[str, str]) -> list[Failure]:
    """The ISA comes from the per-unit flags of the GEMM kernel units
    and the run-time dispatch, never from the build host or a function
    attribute."""
    failures = []
    for path, text in sorted(tree.items()):
        if path.endswith("CMakeLists.txt"):
            code = strip_cmake_comments(text)
        elif path.startswith("src/") and path.endswith((".h", ".cpp")):
            code = strip_comments(text)
        else:
            continue
        for pattern, what in ISA_FLAG_PATTERNS:
            for match in pattern.finditer(code):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: {what} -- "
                    "compile each ISA in its own unit with explicit flags "
                    "and dispatch at run time (isa-flags rule, "
                    "src/tensor/gemm_kernel.h)")
    return failures


# --------------------------------------------------------------------------
# Rule: one-layout
# --------------------------------------------------------------------------

SORT_CALL = re.compile(r"\bstd::(?:ranges::)?(?:stable_)?sort\s*\(")
BINDING_WORD = re.compile(r"\w*Binding\b")


def call_arguments(code: str, open_paren: int) -> str:
    """The text between the parenthesis at `open_paren` and its match."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:i]
    return code[open_paren + 1:]


def rule_one_layout(tree: dict[str, str]) -> list[Failure]:
    """A tile's rows in array order and its column groups are derived
    once, in src/mapping/; nothing else in src/ tests cells with
    holds_cell or sorts row or column bindings."""
    failures = []
    for path, text in sorted(tree.items()):
        if not path.startswith("src/") or path.startswith("src/mapping/"):
            continue
        if not path.endswith((".h", ".cpp")):
            continue
        code = strip_comments(text)
        for match in re.finditer(r"\bholds_cell\s*\(", code):
            failures.append(
                f"{path}:{line_of(code, match.start())}: holds_cell call "
                "outside src/mapping/ -- read the column groups of "
                "derive_layout instead (one-layout rule, "
                "mapping/mapping_plan.h)")
        for match in SORT_CALL.finditer(code):
            if BINDING_WORD.search(call_arguments(code, match.end() - 1)):
                failures.append(
                    f"{path}:{line_of(code, match.start())}: sort over "
                    "row or column bindings outside src/mapping/ -- read "
                    "the rows of derive_layout instead (one-layout rule, "
                    "mapping/mapping_plan.h)")
    return failures


# --------------------------------------------------------------------------
# Self-tests: one known-bad snippet per rule; a rule that stays silent
# on its bad snippet has gone blind and the lint run fails.
# --------------------------------------------------------------------------

GOOD_SERVER = """
volatile std::sig_atomic_t g_signal = 0;
extern "C" void handle_signal(int signum) { g_signal = signum; }
int run() {
  struct sigaction action;
  action.sa_handler = handle_signal;
  return 0;
}
"""

GOOD_SERVER_ATOMIC = """
std::atomic<int> g_signal{0};
std::atomic<int> g_wake_fd{-1};
extern "C" void handle_signal(int signum) {
  g_signal = signum;
  const int fd = g_wake_fd;
  if (fd >= 0) {
    const char byte = 1;
    const ssize_t ignored = ::write(fd, &byte, 1);
    (void)ignored;
  }
}
int run() {
  struct sigaction action;
  action.sa_handler = handle_signal;
  return 0;
}
"""

SELF_TESTS = [
    ("determinism", rule_determinism, {
        "src/core/foo.cpp": "int f() { return std::rand(); }",
    }),
    ("determinism", rule_determinism, {
        "src/sim/t.cpp": "long n = ::time(nullptr);",
    }),
    ("signal-safety", rule_signal_safety, {
        SERVER_CPP: """
volatile std::sig_atomic_t g_signal = 0;
extern "C" void handle_signal(int signum) {
  g_signal = signum;
  printf("caught\\n");
}
int run() { struct sigaction a; a.sa_handler = handle_signal; return 0; }
""",
    }),
    ("signal-safety", rule_signal_safety, {
        SERVER_CPP: """
int g_plain = 0;
extern "C" void handle_signal(int signum) { g_plain = signum; }
int run() { struct sigaction a; a.sa_handler = handle_signal; return 0; }
""",
    }),
    ("mutex-annotations", rule_mutex_annotations, {
        "src/core/bad.h": "class C { std::mutex mutex_; };",
    }),
    ("mutex-annotations", rule_mutex_annotations, {
        "src/core/bad.h":
            "class C { Mutex mutex_; int x; };",  # no GUARDED_BY user
    }),
    ("error-codes", rule_error_codes, {
        ERROR_CPP: 'const char* error_code_name(ErrorCode c) {'
                   ' return "zombie_code"; }',
        SERVE_MD: "| `runtime` | boom | 1 |",
    }),
    ("doc-links", rule_doc_links, {
        "README.md": "see docs/CLI.md",
        "docs/CLI.md": "the CLI",
        "docs/ORPHAN.md": "nobody links here",
    }),
    ("ceil-div", rule_ceil_div, {
        "src/sim/bad.cpp": "const Count chunk = (n + k - 1) / k;",
    }),
    ("ceil-div", rule_ceil_div, {
        "src/mapping/bad.cpp":
            "Cycles t = (total.cycles() + width - 1) / width;",
    }),
    ("ceil-div", rule_ceil_div, {
        "src/sim/bad2.cpp": "Count c = (k - 1 + n) / k;",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        "src/core/bad.cpp": "int x = f();  // NOLINT\n",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        "src/core/bad.cpp":
            "// NOLINTNEXTLINE\nint x = f();\n",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        "src/core/bad.cpp":
            "int x = f();  // NOLINT(*): silence everything\n",
    }),
    ("one-pool", rule_one_pool, {
        "src/tensor/bad.h":
            "class B { std::unique_ptr<ThreadPool> pool_; };",
    }),
    ("one-pool", rule_one_pool, {
        "src/tensor/bad.cpp": "const B& b() { static ThreadPool pool; }",
    }),
    ("one-pool", rule_one_pool, {
        "src/core/bad.cpp":
            "auto owned = std::make_unique<ThreadPool>(threads);",
    }),
    ("one-pool", rule_one_pool, {
        "src/core/bad.h": "class C { ThreadPool pool_{4}; };",
    }),
    ("one-crew", rule_one_crew, {
        "src/serve/bad.h": "class Q { std::vector<std::thread> workers_; };",
    }),
    ("one-crew", rule_one_crew, {
        "src/sim/bad.cpp": "auto f = std::async(std::launch::async, g);",
    }),
    ("one-crew", rule_one_crew, {
        "src/core/bad.cpp": "std::jthread t([] { work(); });",
    }),
    ("isa-flags", rule_isa_flags, {
        "CMakeLists.txt": "target_compile_options(vwsdk PRIVATE -march=native)",
    }),
    ("isa-flags", rule_isa_flags, {
        "src/tensor/bad.cpp":
            "__attribute__((target(\"avx2\"))) void f();",
    }),
    ("one-layout", rule_one_layout, {
        "src/sim/bad.cpp":
            "if (holds_cell(shape, rb, cb, ky, kx)) { ++cells; }",
    }),
    ("one-layout", rule_one_layout, {
        "src/sim/bad.cpp": (
            "std::sort(rows.begin(), rows.end(),\n"
            "          [](const RowBinding& a, const RowBinding& b) {\n"
            "            return a.row < b.row;\n"
            "          });\n"),
    }),
    ("one-layout", rule_one_layout, {
        "src/core/bad.cpp":
            "std::ranges::sort(sorted, {}, &ColBinding::col);",
    }),
    ("nolint-discipline", rule_nolint_discipline, {
        # specific check but no justification
        "src/core/bad.cpp":
            "// NOLINTNEXTLINE(bugprone-integer-division)\nint x = a / b;\n",
    }),
]

# Clean fixtures: every rule must also stay *silent* on a minimal good
# tree, or it would fail the real run with false positives.
CLEAN_TREES = [
    (rule_determinism, {
        "src/common/random.cpp": "int x = std::random_device{}();",
        "src/core/ok.cpp": "Cycles wall_time(int t);  // time() in comment",
    }),
    (rule_signal_safety, {SERVER_CPP: GOOD_SERVER}),
    (rule_signal_safety, {SERVER_CPP: GOOD_SERVER_ATOMIC}),
    (rule_mutex_annotations, {
        "src/common/mutex.h": "class Mutex { std::mutex m_; };",
        "src/core/ok.h":
            "class C { Mutex mutex_; int x VWSDK_GUARDED_BY(mutex_); };",
    }),
    (rule_error_codes, {
        ERROR_CPP: 'const char* error_code_name(ErrorCode c) {'
                   ' return "runtime"; }',
        SERVE_MD: "| `runtime` | boom | 1 |",
    }),
    (rule_doc_links, {
        "README.md": "see docs/CLI.md",
        "docs/CLI.md": "the CLI",
    }),
    (rule_ceil_div, {
        # ceil_div calls, a commented example, a /b-with-different-divisor
        # expression, and a +1-1 that is not the banned shape.
        "src/sim/ok.cpp": (
            "Count a = ceil_div(n, k);\n"
            "// the old form was (n + k - 1) / k\n"
            "Count b = (n + m - 1) / 2;\n"
            "Count c = checked_ceil_div(n, k);\n"),
    }),
    (rule_one_pool, {
        "src/serve/service.h": "class S { ThreadPool pool_; };",
        "src/common/thread_pool.h":
            "class ThreadPool {\n explicit ThreadPool(int threads = 0);\n};",
        "src/core/ok.h": (
            "class ThreadPool;\n"
            "struct O { ThreadPool* pool = nullptr; };\n"
            "// a comment may say ThreadPool pool_; freely\n"),
        "src/tensor/ok.cpp": (
            "void f(ThreadPool* const pool, const ThreadPool& ref) {\n"
            "  parallel_chunks(pool, n, fn);\n"
            "  int k = ThreadPool::default_thread_count();\n}\n"),
    }),
    (rule_one_crew, {
        "src/common/thread_pool.h": "std::vector<std::thread> workers_;",
        "src/common/thread_pool.cpp":
            "unsigned hw = std::thread::hardware_concurrency();",
        "src/serve/ok.cpp": (
            "std::this_thread::sleep_for(delay);\n"
            "// a comment may name std::thread freely\n"),
        "tests/serve/test_ok.cpp": "std::thread client([] { run(); });",
    }),
    (rule_isa_flags, {
        "CMakeLists.txt": (
            "# never -march=native: see src/tensor/gemm_kernel.h\n"
            "set_source_files_properties(k.cpp PROPERTIES\n"
            "  COMPILE_OPTIONS \"-mavx512f;-ffp-contract=off\")\n"),
        "src/tensor/ok.cpp": (
            "// no __attribute__((target)) here\n"
            "[[gnu::noinline]] void f();\n"),
        "tools/notes.py": "# -march=native is only named here",
    }),
    (rule_one_layout, {
        "src/mapping/mapping_plan.cpp": (
            "std::ranges::sort(out.rows, {}, &RowBinding::row);\n"
            "if (holds_cell(s, *out.rows[p], *first, ky, kx)) {}\n"),
        "src/sim/ok.cpp": (
            "// holds_cell(...) is only named in a comment here\n"
            "std::sort(latencies.begin(), latencies.end());\n"
            "for (const ColBinding& cb : tile.cols) { use(cb); }\n"),
        "tests/mapping/test_ok.cpp": "holds_cell(shape, rb, cb, ky, kx);",
    }),
    (rule_nolint_discipline, {
        "src/core/ok.cpp": (
            "// NOLINTNEXTLINE(bugprone-integer-division): intentional "
            "truncation, the remainder is spread below\n"
            "int x = a / b;\n"
            "int y = f();  // NOLINT(performance-unnecessary-copy-"
            "initialization): the copy pins lifetime across the callback\n"),
    }),
]


def run_self_tests() -> list[str]:
    problems = []
    for name, rule, tree in SELF_TESTS:
        if not rule(tree):
            problems.append(
                f"self-test: rule '{name}' did not fire on its known-bad "
                "snippet -- the rule has gone blind")
    for rule, tree in CLEAN_TREES:
        failures = rule(tree)
        if failures:
            problems.append(
                f"self-test: rule '{rule.__name__}' false-positives on a "
                f"clean tree: {failures[0]}")
    return problems


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = [
    ("determinism", rule_determinism),
    ("signal-safety", rule_signal_safety),
    ("mutex-annotations", rule_mutex_annotations),
    ("error-codes", rule_error_codes),
    ("doc-links", rule_doc_links),
    ("ceil-div", rule_ceil_div),
    ("nolint-discipline", rule_nolint_discipline),
    ("one-pool", rule_one_pool),
    ("one-crew", rule_one_crew),
    ("isa-flags", rule_isa_flags),
    ("one-layout", rule_one_layout),
]


def load_tree(root: Path) -> dict[str, str]:
    tree: dict[str, str] = {}
    patterns = ["src/**/*.h", "src/**/*.cpp", "docs/*.md", "README.md",
                "CMakeLists.txt", "*/CMakeLists.txt"]
    for pattern in patterns:
        for path in root.glob(pattern):
            tree[path.relative_to(root).as_posix()] = path.read_text(
                encoding="utf-8")
    return tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on known-bad input "
                             "before linting the real tree")
    parser.add_argument("--rule", action="append", default=None,
                        help="run only the named rule(s)")
    args = parser.parse_args()

    if args.self_test:
        problems = run_self_tests()
        for problem in problems:
            print(problem)
        if problems:
            return 1
        print(f"vwsdk_lint self-test: {len(SELF_TESTS)} bad-snippet + "
              f"{len(CLEAN_TREES)} clean-tree checks passed")

    tree = load_tree(args.root)
    if not any(p.startswith("src/") for p in tree):
        sys.exit(f"no src/ files found under {args.root} -- wrong --root?")

    failures: list[Failure] = []
    for name, rule in RULES:
        if args.rule and name not in args.rule:
            continue
        failures.extend(rule(tree))
    for failure in failures:
        print(failure)
    print(f"vwsdk_lint: {len(tree)} file(s), {len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
