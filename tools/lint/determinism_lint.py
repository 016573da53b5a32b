#!/usr/bin/env python3
"""Repo-invariant determinism linter for src/.

Every reproduction claim in this repo rests on two hand-enforced
invariants: campaigns and training are byte-identical at any thread
count, and the NoC/inference hot paths accumulate floating-point values
in a strictly defined order. This checker fails CI on the source-level
hazards that historically break such invariants. It is deliberately
AST-free: a comment/string-stripping scanner plus line/scope regexes,
so it runs anywhere python3 runs and its behavior is fully captured by
the fixture tests in tools/lint/tests/.

Rules
-----
DL001  banned nondeterminism source: std::rand/srand/rand(),
       std::random_device, any static Clock::now() call, getenv/setenv,
       and any std:: random engine or distribution (std::mt19937_64,
       std::*_engine, std::*_distribution, std::generate_canonical, ...).
       Randomness must come from dl2f's seeded Rng; time must come from
       the simulated Cycle clock. The std distributions are
       implementation-defined and tests/rng_test.cpp pins only Rng's own
       engine, so src/common/rng.hpp is the one file that may use them,
       each use carrying a lint-allow.
DL002  pointer-keyed ordered container (std::map/std::set keyed on a
       pointer type): iteration order is address order, which varies
       run to run under ASLR and across allocators.
DL003  iteration over std::unordered_map/std::unordered_set in a file
       that participates in floating-point accumulation or campaign
       aggregation: hash-bucket order is unspecified and feeds the FP
       reduction order. Keyed lookups (find/erase/count/at) are fine.
DL004  std::reduce / std::transform_reduce / std::execution policies:
       these are licensed to reassociate FP reductions and to run
       unsequenced, breaking bitwise determinism.
DL005  std::atomic / std::atomic_ref on floating types: racing FP
       updates commute only approximately; ordering is scheduler-bound.
DL006  a TU that defines or calls a GEMM-path kernel (gemm*/im2col*/
       im2row* token in code) must carry an `// ACCUM-ORDER:` contract
       comment documenting its accumulation-order obligations. In
       src/nn/ the rule additionally bans fast-math / FP-contraction
       pragmas (`#pragma ... fast-math`, `#pragma STDC FP_CONTRACT`,
       `#pragma clang fp contract`, and their _Pragma forms): contraction
       skips the intermediate rounding the SIMD tiers' bitwise-parity
       contract depends on, and the kernel TUs compile with
       -ffp-contract=off on purpose (see nn/gemm.hpp).
DL007  threads start in one place: std::thread / std::jthread objects,
       std::async, std::condition_variable(_any) and pthread_create are
       banned outside src/common/worker_pool.* (std::thread::
       hardware_concurrency() stays allowed). Every parallel job runs on
       common::WorkerPool, whose per-participant slots and caller-side
       fixed-order reductions carry the any-thread-count determinism
       contract; a second thread mechanism would have to re-prove it.
DL008  no library code that only tests run: every function name declared
       in a src/ header must appear in src/, bench/, examples/ or
       perfbench/ somewhere other than its own declarations and
       definitions (tests/ does not count). The check is by name, so a
       call to an overload or to a same-named member counts; the symbol
       pass in dead_api.py, which needs a build, catches those. A
       function kept for tests alone carries an allow whose reason names
       the test oracle or contract probe it is; anything else is deleted
       and its tests ported to the code the library runs.

Suppressions
------------
Append `// lint-allow(DLxxx): <reason>` to the offending line (or put
it on the immediately preceding line) to acknowledge a justified use.
The reason is mandatory — a bare lint-allow is itself a finding.

Usage
-----
    python3 tools/lint/determinism_lint.py [--root REPO_ROOT] [FILE...]

With no FILE arguments, lints every *.cpp/*.hpp under REPO_ROOT/src
(default: repository root inferred from this script's location) and
runs DL008, which reads the whole tree; FILE arguments lint only those
files, so DL008 is skipped. Exits 0 when clean, 1 when findings were
emitted, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# Directories (relative to the repo root, '/'-separated) whose files are
# considered part of the FP-accumulation / campaign-aggregation scope
# for DL003 regardless of content.
FP_ACCUM_PATHS = (
    "src/nn/",
    "src/noc/",
    "src/core/",
    "src/monitor/",
    "src/temporal/",
    "src/runtime/",
    "src/baseline/",
)

# Content heuristic that pulls a file outside those directories into the
# DL003 scope: a `+=` accumulation on a line that mentions a floating
# type or a sum/latency accumulator name (e.g. the workload endpoints'
# reply_latency_sum). Conservative by design — false negatives here are
# caught the day the file moves into a listed directory.
FP_ACCUM_CONTENT = re.compile(
    r"(?:\bfloat\b|\bdouble\b|\w*sum\w*|\w*latency\w*)[^;\n]*\+=|"
    r"\+=[^;\n]*(?:\bfloat\b|\bdouble\b|static_cast<\s*(?:float|double)\s*>)"
)

SUPPRESS_RE = re.compile(r"//\s*lint-allow\((DL\d{3})\)\s*:\s*(\S.*)?$")

BANNED_CALLS = [
    (re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("),
     "std::rand/srand: use the seeded dl2f Rng so runs replay bit-identically"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device: nondeterministic entropy source; seed a dl2f Rng instead"),
    (re.compile(r"::now\s*\("),
     "Clock::now(): wall-clock time is nondeterministic; use the simulated Cycle clock"),
    (re.compile(r"\b(?:secure_)?getenv\b|\b(?:un)?setenv\b|\bputenv\b"),
     "environment access: behavior must not depend on ambient environment variables"),
    (re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|ranlux(?:24|48)(?:_base)?|knuth_b|"
                r"\w+_engine|\w+_distribution|generate_canonical)\b"),
     "std random engine/distribution: draw through dl2f::Rng (common/rng.hpp) — std "
     "distributions are implementation-defined and only Rng's engine is pinned by rng_test"),
]

PTR_KEYED_RE = re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*?>\s+(\w+)\s*[;{=,)]"
)
PARALLEL_REDUCE_RE = re.compile(
    r"\bstd::(?:transform_)?reduce\b|\bstd::execution::|\bexecution::(?:par\b|par_unseq\b|unseq\b|seq\b)"
)
FLOAT_ATOMIC_RE = re.compile(
    r"\batomic(?:_ref)?\s*<\s*(?:float|double|long\s+double)\b"
)
GEMM_TOKEN_RE = re.compile(r"\b(?:gemm\w*|im2col\w*|im2row\w*)\s*\(")
ACCUM_ORDER_RE = re.compile(r"//\s*ACCUM-ORDER:")
# Pragma-line detector + the fast-math / FP-contraction tokens banned in
# src/nn/ (raw lines are scanned, but only ones carrying a pragma, so
# prose mentions of -ffp-contract=off in comments never trip it).
PRAGMA_LINE_RE = re.compile(r"^\s*#\s*pragma\b|\b_Pragma\s*\(")
FASTMATH_TOKEN_RE = re.compile(r"fast[-_]math|fp[-_]?contract|fp\s+contract", re.IGNORECASE)
# Thread-starting and thread-parking primitives (DL007); `std::thread::`
# static members such as hardware_concurrency() start nothing.
THREAD_PRIMITIVE_RE = re.compile(
    r"\bstd::j?thread\b(?!\s*::)|\bstd::async\b|\bstd::condition_variable(?:_any)?\b|"
    r"\bpthread_create\b"
)
# The one file pair allowed to use them.
WORKER_POOL_RE = re.compile(r"(?:^|/)src/common/worker_pool\.(?:cpp|hpp)$")

# DL008: the trees whose code may call a src/ function, and the
# declaration scanner's vocabulary.
CALLER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_EXTS = (".cpp", ".hpp", ".h")
PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.MULTILINE)
ACCESS_SPECIFIER_RE = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")
ATTRIBUTE_RE = re.compile(r"\[\[.*?\]\]", re.DOTALL)
SCOPE_HEAD_RE = re.compile(
    r"^\s*(?:namespace\b\s*([\w:]*)|extern\b|enum\b|"
    r"(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+))")
DECLARATOR_RE = re.compile(r"(~?)\s*\b([A-Za-z_]\w*)\s*$")
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
NOT_A_FUNCTION = frozenset((
    "alignas", "alignof", "auto", "bool", "char", "decltype", "double", "float", "for",
    "if", "int", "long", "noexcept", "operator", "requires", "return", "short", "signed",
    "sizeof", "static_assert", "switch", "unsigned", "void", "while", "__attribute__",
))


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def strip_code(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes only ever see code. Handles //, /* */,
    "..."/'...' with escapes, raw strings R"delim(...)delim", and C++14
    digit separators (0x38'51 — the ' is part of the number, not a char
    literal; misreading it would silently strip the rest of the file)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j  # keep the newline
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.extend("\n" if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif c == "R" and nxt == '"' and (not out or not (out[-1].isalnum() or out[-1] == "_")):
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if m is None:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n if j < 0 else j + len(close)
            out.extend("\n" if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif (c == "'" and out and out[-1] in "0123456789abcdefABCDEF" and i + 1 < n
              and text[i + 1] in "0123456789abcdefABCDEF"):
            # Digit separator inside a numeric literal (both neighbors are
            # hex digits; wide-char prefixes L/u/U are not), not a char
            # literal.
            out.append(c)
            i += 1
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote)
            out.extend("\n" if ch == "\n" else " " for ch in text[i + 1:j - 1])
            if j - 1 < n:
                out.append(quote)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_suppressions(raw_lines: list[str]) -> tuple[dict[int, set[str]], list[Finding]]:
    """Map 0-based line index -> rule ids allowed on that line. An
    allow-comment also covers the NEXT line so it can sit above long
    statements. A lint-allow with no reason is itself reported."""
    allowed: dict[int, set[str]] = {}
    bad: list[Finding] = []
    for idx, line in enumerate(raw_lines):
        m = SUPPRESS_RE.search(line)
        if m is None:
            continue
        rule, reason = m.group(1), m.group(2)
        if not reason:
            bad.append(Finding("", idx + 1, "DL000",
                               f"lint-allow({rule}) without a reason — justify the suppression"))
            continue
        allowed.setdefault(idx, set()).add(rule)
        allowed.setdefault(idx + 1, set()).add(rule)
    return allowed, bad


def in_fp_scope(relpath: str, code: str) -> bool:
    rel = relpath.replace(os.sep, "/")
    if any(p in rel for p in FP_ACCUM_PATHS):
        return True
    return FP_ACCUM_CONTENT.search(code) is not None


def sibling_header_text(path: str) -> str:
    base, ext = os.path.splitext(path)
    if ext != ".cpp":
        return ""
    for hext in (".hpp", ".h"):
        try:
            with open(base + hext, encoding="utf-8") as f:
                return f.read()
        except OSError:
            continue
    return ""


def lint_text(relpath: str, text: str, header_text: str = "") -> list[Finding]:
    raw_lines = text.splitlines()
    code = strip_code(text)
    code_lines = code.splitlines()
    allowed, findings = collect_suppressions(raw_lines)
    for f in findings:
        f.path = relpath

    def emit(idx: int, rule: str, message: str) -> None:
        if rule not in allowed.get(idx, set()):
            findings.append(Finding(relpath, idx + 1, rule, message))

    in_worker_pool = WORKER_POOL_RE.search(relpath.replace(os.sep, "/")) is not None
    for idx, line in enumerate(code_lines):
        for pattern, why in BANNED_CALLS:
            if pattern.search(line):
                emit(idx, "DL001", f"banned nondeterminism source — {why}")
        if PTR_KEYED_RE.search(line):
            emit(idx, "DL002",
                 "pointer-keyed ordered container: iteration order is address order, "
                 "nondeterministic under ASLR — key on a stable id instead")
        if PARALLEL_REDUCE_RE.search(line):
            emit(idx, "DL004",
                 "std::reduce / execution policy: licensed to reassociate the FP "
                 "reduction — use a strictly-ascending sequential loop")
        if FLOAT_ATOMIC_RE.search(line):
            emit(idx, "DL005",
                 "atomic on a floating type: racing FP updates have scheduler-dependent "
                 "order — accumulate per-thread and reduce in fixed order")
        if not in_worker_pool and THREAD_PRIMITIVE_RE.search(line):
            emit(idx, "DL007",
                 "thread / condition-variable primitive outside src/common/worker_pool.*: "
                 "run parallel work on common::WorkerPool")

    # DL003: iteration over unordered containers declared in this TU (or
    # its same-named header) when the file is in the FP/campaign scope.
    if in_fp_scope(relpath, code):
        unordered_names = set(UNORDERED_DECL_RE.findall(code))
        unordered_names |= set(UNORDERED_DECL_RE.findall(strip_code(header_text)))
        if unordered_names:
            names = "|".join(re.escape(n) for n in sorted(unordered_names))
            iter_re = re.compile(
                rf"for\s*\([^;)]*:\s*(?:\w+[.->]*)*({names})\s*\)|"
                rf"\b({names})\s*\.\s*c?r?begin\s*\(")
            for idx, line in enumerate(code_lines):
                m = iter_re.search(line)
                if m:
                    name = m.group(1) or m.group(2)
                    emit(idx, "DL003",
                         f"iteration over unordered container '{name}' in an "
                         "FP-accumulation/campaign-aggregation file: bucket order is "
                         "unspecified — iterate a sorted view or an ordered container")

    # DL006: GEMM-path TUs must carry the ACCUM-ORDER contract block.
    if GEMM_TOKEN_RE.search(code) and not ACCUM_ORDER_RE.search(text):
        emit(0, "DL006",
             "GEMM-path TU without an `// ACCUM-ORDER:` contract block — document "
             "this file's accumulation-order obligations (see src/nn/gemm.hpp)")

    # DL006 (kernel-TU hardening): no fast-math / FP-contraction pragmas
    # anywhere in src/nn/ — contraction fuses mul+add and breaks the
    # bitwise scalar/SIMD parity contract.
    if "src/nn/" in relpath.replace(os.sep, "/"):
        for idx, line in enumerate(raw_lines):
            if PRAGMA_LINE_RE.search(line) and FASTMATH_TOKEN_RE.search(line):
                emit(idx, "DL006",
                     "fast-math / FP-contraction pragma in a kernel TU: contraction "
                     "skips the intermediate rounding the SIMD dispatch's bitwise "
                     "parity depends on — kernel TUs compile with -ffp-contract=off")

    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def lint_file(path: str, root: str) -> list[Finding]:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    relpath = os.path.relpath(path, root)
    return lint_text(relpath, text, sibling_header_text(path))


def skip_template_head(stmt: str) -> str:
    """Drop a leading `template <...>` parameter list (nested <> aware)."""
    m = re.match(r"\s*template\s*<", stmt)
    if m is None:
        return stmt
    depth, i = 1, m.end()
    while i < len(stmt) and depth:
        depth += {"<": 1, ">": -1}.get(stmt[i], 0)
        i += 1
    return skip_template_head(stmt[i:])


def declared_function(stmt: str, scope_class: str | None) -> tuple[str, int] | None:
    """The function a namespace- or class-scope statement declares or
    defines, as (name, offset of the name in `stmt`), or None. The name
    is the identifier before the statement's first `(`, with a type
    before it and no `=` (an initializer) ahead of it; constructors,
    destructors, operators, keywords and macro calls are not names."""
    head = skip_template_head(ATTRIBUTE_RE.sub(lambda m: " " * len(m.group()), stmt))
    base = len(stmt) - len(head)
    paren = head.find("(")
    if paren < 0:
        return None
    m = DECLARATOR_RE.search(head[:paren])
    if m is None or m.group(1):
        return None
    name, prefix = m.group(2), head[:m.start()]
    if name in NOT_A_FUNCTION or "=" in prefix or not prefix.strip():
        return None
    if name == scope_class or prefix.rstrip().endswith(name + "::"):
        return None
    return name, base + m.start(2)


def declaration_sites(code: str) -> list[tuple[str, int, tuple[str, ...]]]:
    """Every function declared or defined at namespace or class scope of
    stripped `code`, as (name, offset, enclosing namespace and class
    names). Braces that do not open a namespace, class, struct, union,
    enum or linkage block open code (a function body or an initializer),
    which holds calls, not declarations."""
    code = PREPROCESSOR_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), code)
    sites: list[tuple[str, int, tuple[str, ...]]] = []
    # Enclosing declaration scopes: (name or None for linkage/enum blocks,
    # whether it is a class).
    scopes: list[tuple[str | None, bool]] = []
    code_depth = 0  # brace depth inside a code block
    start = 0
    for i, c in enumerate(code):
        if code_depth:
            code_depth += {"{": 1, "}": -1}.get(c, 0)
            if not code_depth:
                start = i + 1
            continue
        if c not in ";{}":
            continue
        stmt = ACCESS_SPECIFIER_RE.sub(lambda m: " " * len(m.group()),
                                       code[start:i])
        head = SCOPE_HEAD_RE.match(skip_template_head(stmt)) if c == "{" else None
        if head is None and c != "}":
            scope_class = scopes[-1][0] if scopes and scopes[-1][1] else None
            found = declared_function(stmt, scope_class)
            if found is not None:
                qualifier = tuple(name for name, _is_class in scopes if name is not None)
                sites.append((found[0], start + found[1], qualifier))
        if c == "{":
            if head is None:
                code_depth = 1
            elif head.group(2) is not None:
                scopes.append((head.group(2), True))
            elif head.group(1) is not None:
                scopes.append((head.group(1) or "(anonymous namespace)", False))
            else:
                scopes.append((None, False))
        elif c == "}" and scopes:
            scopes.pop()
        start = i + 1
    return sites


def source_files(root: str, dirs: tuple[str, ...]) -> list[str]:
    files = []
    for d in dirs:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, d)):
            files.extend(os.path.join(dirpath, n) for n in filenames if n.endswith(SOURCE_EXTS))
    return sorted(files)


def lint_callers(root: str) -> list[Finding]:
    """DL008, a whole-tree pass: every function name declared in a
    src/ header must appear in src/, bench/, examples/ or perfbench/
    somewhere other than a declaration or definition. The check is by
    name, so a call to an overload or to a same-named member counts."""
    headers: list[tuple[str, list[str], list[tuple[str, int, tuple[str, ...]]], str]] = []
    used: set[str] = set()
    for path in source_files(root, CALLER_DIRS):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        code = strip_code(text)
        sites = declaration_sites(code)
        declared_at = {offset for _name, offset, _scope in sites}
        used.update(m.group() for m in IDENT_RE.finditer(code) if m.start() not in declared_at)
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        if relpath.startswith("src/") and relpath.endswith((".hpp", ".h")):
            headers.append((relpath, text.splitlines(), sites, code))

    findings: list[Finding] = []
    for relpath, raw_lines, sites, code in headers:
        allowed, _bad = collect_suppressions(raw_lines)  # lint_text reports bad ones
        for name, offset, _scope in sites:
            idx = code.count("\n", 0, offset)
            if name not in used and "DL008" not in allowed.get(idx, set()):
                findings.append(Finding(
                    relpath, idx + 1, "DL008",
                    f"'{name}' has no caller in src/, bench/, examples/ or perfbench/ — "
                    "delete it, or port its tests to the code the library runs"))
    return findings


def default_targets(root: str) -> list[str]:
    return source_files(root, ("src",))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("files", nargs="*", help="files to lint (default: all of src/)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    targets = args.files or default_targets(root)
    if not targets:
        print(f"determinism_lint: no lintable files under {root}/src", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in targets:
        try:
            findings.extend(lint_file(path, root))
        except OSError as err:
            print(f"determinism_lint: cannot read {path}: {err}", file=sys.stderr)
            return 2

    if not args.files:
        findings.extend(lint_callers(root))
    for f in findings:
        print(f.render())
    if findings:
        print(f"\ndeterminism_lint: {len(findings)} finding(s) across "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"determinism_lint: {len(targets)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
