#!/usr/bin/env python3
"""fm_lint: the FM repository invariant linter.

Checks the conventions the compilers cannot:

  hotpath-alloc   FM_HOT_PATH function bodies may not allocate, lock, or
                  make blocking syscalls. The steady-state hot path is
                  proven allocation-free by the counting-allocator tests;
                  this rule keeps casual edits from eroding the proof
                  between test runs.
  hotpath-call    An FM_HOT_PATH function may call only other FM_HOT_PATH
                  functions, FM_COLD_PATH boundaries, assert_*-named
                  capability claims, or allowlisted builtins. Everything
                  reachable from the hot seeds (push / extract /
                  encode_frame_into) must therefore carry a marker.
  no-assert       `assert()` is banned in src/: it vanishes under NDEBUG,
                  so an invariant guarded by it is only an invariant in
                  debug builds. Use FM_CHECK / FM_CHECK_MSG.
  counter-scope   Every obs::Registry counter/gauge name must fit the
                  lowercase dotted grammar, every registry/trace scope
                  literal must start with a known backend prefix
                  (sim|shm|net|lanai|san|rma|serve), and every registered name
                  must be documented in docs/OBSERVABILITY.md.
  pragma-once     Headers under src/ must carry `#pragma once`.
  chk-atomic      Bare `std::atomic` / `std::atomic_ref` is banned in the
                  model-checked zones (src/shm, src/fm): shared state
                  there must go through the fm::chk::atomic /
                  fm::chk::atomic_ref seam (src/chk/shim.h) so FM-Check
                  can instrument it. In production builds the seam types
                  are aliases for the std types — zero cost, full
                  coverage.

Suppression: a finding on line N is waived by a comment on line N (or on
an immediately preceding comment-only line):

    // fm-lint: allow(<rule>): <justification>

The justification is mandatory — an allow comment without one is itself
a finding (`bad-allow`).

Engines: the default `text` engine is self-contained (stdlib only) and
is what CI and the fixture self-tests run. `--engine=libclang` upgrades
hotpath analysis to a real AST when python3-clang is installed;
`--engine=auto` picks libclang when importable, text otherwise. The two
engines enforce the same rules; libclang just resolves calls precisely.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

RULES = (
    "hotpath-alloc",
    "hotpath-call",
    "no-assert",
    "counter-scope",
    "pragma-once",
    "chk-atomic",
    "bad-allow",
)

# ---------------------------------------------------------------------------
# Source model: comment/string-stripped lines plus allow-comment bookkeeping.
# ---------------------------------------------------------------------------

# Dotted rule spellings are accepted and normalized to the dashed form, so
# the allow grammar matches the C++ namespace spelling developers reach for
# (allow(chk.atomic) ≡ allow(chk-atomic)).
ALLOW_RE = re.compile(r"fm-lint:\s*allow\(([a-z.-]+)\)(:?\s*(\S.*)?)?")


@dataclass
class SourceFile:
    path: str
    raw_lines: list[str]
    code_lines: list[str]  # comments and string/char literals blanked
    allows: dict[int, set[str]] = field(default_factory=dict)  # line -> rules
    bad_allows: list[int] = field(default_factory=list)

    def allowed(self, rule: str, line_no: int) -> bool:
        """True when `rule` is waived for 1-indexed `line_no`."""
        for candidate in (line_no, line_no - 1):
            if rule in self.allows.get(candidate, set()):
                return True
        # A block of stacked comment lines above the finding also counts:
        # walk up through comment-only lines.
        n = line_no - 1
        while n >= 1 and self.code_lines[n - 1].strip() == "" and \
                self.raw_lines[n - 1].strip().startswith("//"):
            if rule in self.allows.get(n, set()):
                return True
            n -= 1
        return False


def strip_code(text: str) -> list[str]:
    """Blanks comments and string/char literals, preserving line structure."""
    out: list[str] = []
    i = 0
    n = len(text)
    line: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                line.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                line.append("'")
                i += 1
                continue
            line.append(c)
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or \
                    (state == "char" and c == "'"):
                line.append(c)
                state = "code"
                i += 1
                continue
            line.append(" ")
            i += 1
            continue
        if state == "block_comment" and c == "*" and nxt == "/":
            state = "code"
            i += 2
            continue
        i += 1
    if line or (text and not text.endswith("\n")):
        out.append("".join(line))
    return out


def load_source(path: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = strip_code(text)
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    sf = SourceFile(path, raw_lines, code_lines)
    for idx, raw in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        rule, justification = m.group(1).replace(".", "-"), m.group(3)
        if rule not in RULES or not justification:
            sf.bad_allows.append(idx)
            continue
        sf.allows.setdefault(idx, set()).add(rule)
    return sf


# ---------------------------------------------------------------------------
# Findings.
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self, root: str) -> str:
        rel = os.path.relpath(self.path, root)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rule: pragma-once.
# ---------------------------------------------------------------------------


def check_pragma_once(sf: SourceFile) -> list[Finding]:
    if not sf.path.endswith(".h"):
        return []
    for raw in sf.raw_lines[:40]:
        if raw.strip() == "#pragma once":
            return []
    return [Finding(sf.path, 1, "pragma-once",
                    "header lacks '#pragma once'")]


# ---------------------------------------------------------------------------
# Rule: no-assert.
# ---------------------------------------------------------------------------

ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")


def check_no_assert(sf: SourceFile) -> list[Finding]:
    findings = []
    for idx, code in enumerate(sf.code_lines, start=1):
        for m in ASSERT_RE.finditer(code):
            # static_assert and foo.assert_owner() must not trip the rule.
            before = code[: m.start()]
            if before.endswith("static_") or before.endswith("_") or \
                    before.endswith("."):
                continue
            if sf.allowed("no-assert", idx):
                continue
            findings.append(Finding(
                sf.path, idx, "no-assert",
                "assert() compiles out under NDEBUG; use FM_CHECK / "
                "FM_CHECK_MSG (common/check.h)"))
    return findings


# ---------------------------------------------------------------------------
# Rule: counter-scope.
# ---------------------------------------------------------------------------

NAME_GRAMMAR = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
SCOPE_PREFIX = re.compile(r"^(sim|shm|net|lanai|san|rma|serve)(\.|$)")
REG_CALL_RE = re.compile(r"\.\s*(counter|gauge)\s*\(")
SCOPE_CTOR_RE = re.compile(
    r"\b(?:Registry|TraceRing)\s*(?:\(|\{)")
STRING_RE = re.compile(r'"([^"]*)"')


def registration_names(sf: SourceFile) -> list[tuple[int, str]]:
    """(line, name) for each registry_.counter("name", ...) / .gauge(...)."""
    out = []
    for idx, (raw, code) in enumerate(
            zip(sf.raw_lines, sf.code_lines), start=1):
        for m in REG_CALL_RE.finditer(code):
            rest = raw[m.end():]
            sm = STRING_RE.search(rest)
            if sm:
                out.append((idx, sm.group(1)))
    return out


def scope_literals(sf: SourceFile) -> list[tuple[int, str]]:
    """(line, literal) for Registry/TraceRing constructions with a scope."""
    out = []
    for idx, (raw, code) in enumerate(
            zip(sf.raw_lines, sf.code_lines), start=1):
        for m in SCOPE_CTOR_RE.finditer(code):
            sm = STRING_RE.search(raw[m.end() - 1:])
            if sm and sm.group(1):
                out.append((idx, sm.group(1)))
    return out


def check_counter_scope(sf: SourceFile, documented: str) -> list[Finding]:
    findings = []
    for idx, name in registration_names(sf):
        if sf.allowed("counter-scope", idx):
            continue
        if not NAME_GRAMMAR.match(name):
            findings.append(Finding(
                sf.path, idx, "counter-scope",
                f"counter/gauge name '{name}' violates the lowercase "
                "dotted grammar [a-z][a-z0-9_]*(.[a-z0-9_]+)*"))
        elif documented and name not in documented:
            findings.append(Finding(
                sf.path, idx, "counter-scope",
                f"counter/gauge '{name}' is not documented in "
                "docs/OBSERVABILITY.md"))
    for idx, literal in scope_literals(sf):
        if sf.allowed("counter-scope", idx):
            continue
        if not SCOPE_PREFIX.match(literal):
            findings.append(Finding(
                sf.path, idx, "counter-scope",
                f"scope literal '{literal}' must start with one of "
                "sim|shm|net|lanai|san|rma|serve (docs/OBSERVABILITY.md §1)"))
    return findings


# ---------------------------------------------------------------------------
# Rule: chk-atomic.
# ---------------------------------------------------------------------------

STD_ATOMIC_RE = re.compile(r"\bstd\s*::\s*atomic(?:_ref)?\b")


def check_chk_atomic(sf: SourceFile, scoped_dirs: list[str]) -> list[Finding]:
    """Bare std::atomic inside a model-checked zone must use the seam.

    FM-Check (src/chk) explores thread interleavings by routing every
    atomic access through a cooperative scheduler — but only for state
    declared as fm::chk::atomic<T> or accessed through
    fm::chk::atomic_ref<T>. A bare std::atomic or std::atomic_ref in
    src/shm or src/fm is invisible to the explorer: its races are simply
    never modeled. The seam costs nothing in production (the chk types
    ARE the std types there, proven by static_assert in tests/chk), so
    there is no reason to opt out silently.
    """
    abs_path = os.path.abspath(sf.path)
    if not any(abs_path.startswith(d.rstrip(os.sep) + os.sep)
               for d in scoped_dirs):
        return []
    findings = []
    for idx, code in enumerate(sf.code_lines, start=1):
        if not STD_ATOMIC_RE.search(code):
            continue
        if sf.allowed("chk-atomic", idx):
            continue
        findings.append(Finding(
            sf.path, idx, "chk-atomic",
            "bare std::atomic in a model-checked zone; use fm::chk::atomic "
            "or fm::chk::atomic_ref (src/chk/shim.h) so FM-Check can "
            "explore its interleavings — they are the std types in "
            "production builds"))
    return findings


# ---------------------------------------------------------------------------
# Rules: hotpath-alloc and hotpath-call (textual engine).
# ---------------------------------------------------------------------------

# Tokens the hot path may never spell out. Each entry: (rule-pattern, label).
BANNED_IN_HOT = [
    (re.compile(r"(?<![A-Za-z0-9_])new\s+[A-Za-z_]"), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"(?<![A-Za-z0-9_.])malloc\s*\("), "malloc"),
    (re.compile(r"(?<![A-Za-z0-9_.])calloc\s*\("), "calloc"),
    (re.compile(r"(?<![A-Za-z0-9_.])realloc\s*\("), "realloc"),
    (re.compile(r"\.\s*push_back\s*\("), "vector growth (push_back)"),
    (re.compile(r"\.\s*emplace_back\s*\("), "vector growth (emplace_back)"),
    (re.compile(r"\.\s*emplace\s*\("), "container growth (emplace)"),
    (re.compile(r"\.\s*resize\s*\("), "container growth (resize)"),
    (re.compile(r"\.\s*reserve\s*\("), "container growth (reserve)"),
    (re.compile(r"\.\s*assign\s*\("), "container assign"),
    (re.compile(r"\.\s*insert\s*\("), "container growth (insert)"),
    (re.compile(r"\bstd::vector\s*<[^;]*>\s*\("), "vector construction"),
    (re.compile(r"\bstd::string\b"), "std::string construction"),
]
BANNED_LOCK = [
    (re.compile(r"\block_guard\b"), "std::lock_guard"),
    (re.compile(r"\bunique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bscoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bMutexLock\b"), "fm::MutexLock"),
    (re.compile(r"\.\s*lock\s*\(\s*\)"), "mutex lock()"),
]
BANNED_BLOCKING = [
    (re.compile(r"(?<![A-Za-z0-9_.])(?:u|nano)?sleep\s*\("), "sleep"),
    (re.compile(r"\bsleep_for\s*\("), "this_thread::sleep_for"),
    (re.compile(r"(?<![A-Za-z0-9_.])poll\s*\("), "poll"),
    (re.compile(r"(?<![A-Za-z0-9_.])select\s*\("), "select"),
    (re.compile(r"\bepoll_wait\s*\("), "epoll_wait"),
    (re.compile(r"\bwait_readable\s*\("), "socket wait"),
]

# Identifier-like callees a hot function may always invoke: cheap accessors,
# non-allocating container/algorithm verbs, the project's check macros, and
# the C library the hot paths are built from.
BUILTIN_CALLEES = {
    # containers / iterators, non-growing verbs only
    "size", "empty", "data", "begin", "end", "front", "back", "capacity",
    "find", "count", "erase", "clear", "at", "pop_back", "contains",
    "c_str", "length", "swap", "move", "forward", "get", "value",
    "has_value", "reset", "load", "store", "fetch_add", "fetch_sub",
    "exchange", "compare_exchange_weak", "compare_exchange_strong",
    # algorithms / numerics that never touch the heap
    "min", "max", "clamp", "abs", "memcpy", "memmove", "memset", "memcmp",
    "copy", "copy_n", "fill", "fill_n", "distance",
    # casts and friends
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    # time (the hot paths timestamp events)
    "now", "time_since_epoch", "duration_cast",
    # sockets: the nonblocking datagram verbs the net hot path is made of,
    # including the FM-Burst batched forms
    "send_to", "recv_one", "sendto", "recvfrom", "recvmsg", "sendmsg",
    "sendmmsg", "recvmmsg",
    # misc project accessors that appear inside hot bodies
    "enabled", "valid", "full", "in_flight", "total_due", "armed",
    "active", "addr", "node_for_port", "ring", "id", "next_seq",
    "take_into", "take", "peers_over_into", "peers_into", "peers",
    "note", "seen", "mark", "forget", "disarm", "disarm_all", "arm",
    "expired_into", "ack", "drop_dest", "commit", "try_reserve",
    "try_push", "try_consume", "try_consume_batch", "tick", "feed",
    "exec", "wait", "delay", "pio_read", "pio_write",
    "has_crc", "fragmented", "clipped", "scope", "category", "record",
    "dropped", "cluster_size", "stats", "config", "faults", "dispatch",
    "index", "yield",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "throw", "catch", "else", "do", "new",
    "delete", "co_await", "co_return", "co_yield", "defined", "case",
    "goto", "typeid", "alignas", "requires", "concept", "using",
}

# The function name is the identifier owning the first '(' of a signature
# statement, with any Class:: qualifier chain captured alongside it. A
# qualifier may carry template arguments (`Engine<Wire>::send`, an
# out-of-class member of a class template); they are dropped from the
# qualified name, so the definition and its in-class declaration agree.
SIG_NAME_RE = re.compile(
    r"((?:[A-Za-z_][A-Za-z0-9_]*(?:<[^<>;{}()]*>)?::)*)"
    r"(~?[A-Za-z_][A-Za-z0-9_]*)\s*\(")
TEMPLATE_ARGS_RE = re.compile(r"<[^<>]*>")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:FM_CAPABILITY\S*\s+)?"
                      r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:final\s*)?(?::|$)")
CALL_RE = re.compile(r"(?<![A-Za-z0-9_:.>])([a-z_][A-Za-z0-9_]*)\s*\(")


@dataclass
class FuncInfo:
    qual: str          # "Class::name" or bare "name" for free functions
    marker: str        # "hot", "cold", or ""
    body: tuple[int, int] | None  # 1-indexed (start, end), None for decls


def scan_functions(sf: SourceFile) -> list[FuncInfo]:
    """Statement-level scan: tracks class context, pairs each signature
    with its marker, and brace-matches definition bodies."""
    funcs: list[FuncInfo] = []
    class_stack: list[tuple[str, int]] = []  # (name, depth when opened)
    depth = 0
    stmt: list[str] = []  # statement accumulated since last ; { or }

    # One flat character stream with line numbers.
    chars: list[tuple[str, int]] = []
    for line_no, line in enumerate(sf.code_lines, start=1):
        for c in line:
            chars.append((c, line_no))
        chars.append((" ", line_no))

    def classify(text: str):
        """('class', name) | ('func', qual, marker) | None."""
        if "(" not in text:
            cm = CLASS_RE.search(text)
            return ("class", cm.group(1)) if cm else None
        cm = CLASS_RE.search(text)
        if cm and cm.start() < text.index("("):
            return ("class", cm.group(1))
        if re.search(r"\bnamespace\b", text) or "=" in text.split("(")[0]:
            return None
        sm = SIG_NAME_RE.search(text)
        if not sm or sm.group(2) in CPP_KEYWORDS:
            return None
        qual_prefix = sm.group(1).rstrip(":")
        name = sm.group(2)
        if qual_prefix:
            owner = TEMPLATE_ARGS_RE.sub("", qual_prefix).split("::")[-1]
            qual = f"{owner}::{name}"
        elif class_stack:
            qual = f"{class_stack[-1][0]}::{name}"
        else:
            qual = name
        marker = ""
        if "FM_HOT_PATH" in text:
            marker = "hot"
        elif "FM_COLD_PATH" in text:
            marker = "cold"
        return ("func", qual, marker)

    i = 0
    n = len(chars)
    while i < n:
        c, line_no = chars[i]
        if c == ";":
            kind = classify("".join(stmt))
            if kind and kind[0] == "func":
                funcs.append(FuncInfo(kind[1], kind[2], None))
            stmt = []
        elif c == "{":
            kind = classify("".join(stmt))
            stmt = []
            if kind and kind[0] == "class":
                class_stack.append((kind[1], depth))
                depth += 1
            elif kind and kind[0] == "func":
                # Brace-match the body and swallow it.
                body_depth = 1
                j = i + 1
                end_line = line_no
                while j < n and body_depth > 0:
                    cj, end_line = chars[j]
                    if cj == "{":
                        body_depth += 1
                    elif cj == "}":
                        body_depth -= 1
                    j += 1
                funcs.append(FuncInfo(kind[1], kind[2],
                                      (line_no, end_line)))
                i = j
                continue
            else:
                depth += 1
        elif c == "}":
            depth -= 1
            while class_stack and depth <= class_stack[-1][1]:
                class_stack.pop()
            stmt = []
        else:
            stmt.append(c)
            if len(stmt) > 4000:
                stmt = stmt[-4000:]
        i += 1
    return funcs


def collect_markers(files: list[SourceFile]) -> tuple[set[str], set[str]]:
    """Qualified names carrying FM_HOT_PATH / FM_COLD_PATH anywhere.

    Markers merge across declaration and definition: marking either side
    is enough, because the repo declares in headers and defines in .cc.
    """
    hot: set[str] = set()
    cold: set[str] = set()
    for sf in files:
        for fn in scan_functions(sf):
            if fn.marker == "hot":
                hot.add(fn.qual)
            elif fn.marker == "cold":
                cold.add(fn.qual)
    return hot, cold


def bare(names: set[str]) -> set[str]:
    return {n.split("::")[-1] for n in names}


def check_hot_bodies(sf: SourceFile, hot: set[str], cold: set[str],
                     defined: set[str]) -> list[Finding]:
    hot_bare = bare(hot)
    cold_bare = bare(cold)
    unmarked_bare = bare(defined) - hot_bare - cold_bare
    findings = []
    ident_re = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    for fn in scan_functions(sf):
        if fn.body is None or fn.qual not in hot:
            continue
        fn_bare = fn.qual.split("::")[-1]
        start, end = fn.body
        for idx in range(start, end + 1):
            code = sf.code_lines[idx - 1]
            for pattern, label in BANNED_IN_HOT + BANNED_LOCK + \
                    BANNED_BLOCKING:
                hit = False
                for m in pattern.finditer(code):
                    # A hot function legitimately named like a banned verb
                    # (Server::poll) must not trip on its own signature or
                    # self-recursion — only on a call to the foreign name.
                    im = ident_re.search(m.group(0))
                    if im and im.group(0) == fn_bare:
                        continue
                    hit = True
                    break
                if hit:
                    if sf.allowed("hotpath-alloc", idx):
                        continue
                    findings.append(Finding(
                        sf.path, idx, "hotpath-alloc",
                        f"{label} inside FM_HOT_PATH function "
                        f"'{fn.qual}'"))
            for m in CALL_RE.finditer(code):
                callee = m.group(1)
                if callee in CPP_KEYWORDS or \
                        callee == fn.qual.split("::")[-1] or \
                        callee in hot_bare or callee in cold_bare:
                    continue
                if callee in BUILTIN_CALLEES or \
                        callee.startswith("assert_") or \
                        callee.startswith("check_failed"):
                    continue
                # Flag only names defined somewhere in this corpus (keeps
                # std:: and the C library quiet). Unqualified calls only:
                # the textual engine does not resolve obj.method() —
                # method growth verbs are caught by the token patterns.
                if callee in unmarked_bare:
                    if sf.allowed("hotpath-call", idx):
                        continue
                    findings.append(Finding(
                        sf.path, idx, "hotpath-call",
                        f"FM_HOT_PATH function '{fn.qual}' calls "
                        f"'{callee}', which is neither FM_HOT_PATH nor "
                        "FM_COLD_PATH — mark the callee or break the "
                        "edge"))
    return findings


def collect_defined_names(files: list[SourceFile]) -> set[str]:
    names = set()
    for sf in files:
        for fn in scan_functions(sf):
            if fn.body is not None:
                names.add(fn.qual)
    return names


# ---------------------------------------------------------------------------
# Optional libclang engine (AST-precise call resolution).
# ---------------------------------------------------------------------------


def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def run_libclang_engine(root: str, files: list[str]) -> list[Finding] | None:
    """AST-backed hotpath analysis. Returns None when libclang is missing
    or cannot parse (the caller falls back to the text engine)."""
    try:
        import clang.cindex as ci
    except ImportError:
        return None
    try:
        index = ci.Index.create()
    except Exception:
        return None
    findings: list[Finding] = []
    args = ["-std=c++20", f"-I{os.path.join(root, 'src')}"]
    for path in files:
        if not path.endswith(".cc"):
            continue
        try:
            tu = index.parse(path, args=args)
        except Exception:
            return None

        def walk(node, in_hot):
            hot = in_hot
            if node.kind in (ci.CursorKind.FUNCTION_DECL,
                             ci.CursorKind.CXX_METHOD):
                attrs = [t.spelling for t in node.get_tokens()][:6]
                hot = "FM_HOT_PATH" in attrs or in_hot
            if hot and node.kind == ci.CursorKind.CXX_NEW_EXPR:
                findings.append(Finding(
                    str(node.location.file), node.location.line,
                    "hotpath-alloc", "operator new on the hot path (AST)"))
            for child in node.get_children():
                walk(child, hot)

        walk(tu.cursor, False)
    return findings


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def gather_files(root: str, paths: list[str]) -> list[str]:
    if paths:
        out = []
        for p in paths:
            if os.path.isdir(p):
                for dirpath, _, names in os.walk(p):
                    out.extend(os.path.join(dirpath, n) for n in names
                               if n.endswith((".h", ".cc")))
            else:
                out.append(p)
        return sorted(out)
    src = os.path.join(root, "src")
    out = []
    for dirpath, _, names in os.walk(src):
        out.extend(os.path.join(dirpath, n) for n in names
                   if n.endswith((".h", ".cc")))
    return sorted(out)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: <root>/src)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels up)")
    ap.add_argument("--engine", choices=("auto", "text", "libclang"),
                    default="text")
    ap.add_argument("--obs-doc", default=None,
                    help="override path to docs/OBSERVABILITY.md")
    ap.add_argument("--chk-atomic-dirs", default=None,
                    help="comma-separated dirs (relative to root) where "
                         "bare std::atomic is banned "
                         "(default: src/shm,src/fm)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        print("\n".join(r for r in RULES if r != "bad-allow"))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    file_paths = gather_files(root, args.paths)
    files = [load_source(p) for p in file_paths]

    doc_path = args.obs_doc or os.path.join(root, "docs", "OBSERVABILITY.md")
    documented = ""
    if os.path.exists(doc_path):
        with open(doc_path, encoding="utf-8") as f:
            documented = f.read()

    hot, cold = collect_markers(files)
    defined = collect_defined_names(files)

    chk_dirs_arg = args.chk_atomic_dirs or "src/shm,src/fm"
    scoped_dirs = [os.path.abspath(d) if os.path.isabs(d)
                   else os.path.abspath(os.path.join(root, d))
                   for d in chk_dirs_arg.split(",") if d]

    findings: list[Finding] = []
    for sf in files:
        findings.extend(check_pragma_once(sf))
        findings.extend(check_no_assert(sf))
        findings.extend(check_counter_scope(sf, documented))
        findings.extend(check_chk_atomic(sf, scoped_dirs))
        findings.extend(check_hot_bodies(sf, hot, cold, defined))
        for idx in sf.bad_allows:
            findings.append(Finding(
                sf.path, idx, "bad-allow",
                "malformed fm-lint allow comment: needs a known rule and "
                "a justification — // fm-lint: allow(<rule>): <why>"))

    engine = args.engine
    if engine == "auto":
        engine = "libclang" if libclang_available() else "text"
    if engine == "libclang":
        extra = run_libclang_engine(root, file_paths)
        if extra is None:
            print("fm_lint: libclang unavailable, text engine results only",
                  file=sys.stderr)
        else:
            seen = {(f.path, f.line, f.rule) for f in findings}
            findings.extend(f for f in extra
                            if (f.path, f.line, f.rule) not in seen)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"fm_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
