#!/usr/bin/env python3
"""DL008's symbol pass: library functions that no non-test binary keeps.

determinism_lint.py's DL008 checks names, so a test-only member hides
behind any same-named function (`Mesh::run` behind `WorkerPool::run`).
This pass checks symbols instead. It builds the library, the benches,
the examples and perfbench's suite with every inline function emitted
in its own section (-ffunction-sections -fkeep-inline-functions) and
links the binaries with --gc-sections, so each binary keeps exactly the
functions it can reach. A dl2f:: function that libdl2f.a defines and no
binary keeps is reached from tests alone: delete it and port its tests
to the code the library runs, or mark its declaration in src/ with
`// lint-allow(DL008): <reason>` when it is a test oracle or contract
probe.

Constructors, destructors, assignment operators, lambdas, thunks and
anonymous-namespace helpers are not reported. Templates never
instantiated and functions declared but never defined leave no symbol;
the name pass in determinism_lint.py covers those.

Usage
-----
    python3 tools/lint/dead_api.py

Builds into build-dead-api/ at the repository root, with as many jobs as
this process may use cores, and needs cmake, a C++ compiler and
binutils' nm. Exits 0 when every dl2f:: function is kept or allowed, 1
on findings, 2 when the build or nm fails.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import determinism_lint as lint  # noqa: E402

CXX_FLAGS = "-O0 -fno-inline -ffunction-sections -fkeep-inline-functions"
LINKER_FLAGS = "-Wl,--gc-sections"

# One `nm --defined-only -C [-l]` line for a function: address, T/t/W,
# demangled name, and (with -l and debug info) a tab-separated file:line.
NM_FUNCTION_RE = re.compile(r"^[0-9a-fA-F]+ ([TtW]) ([^\t]+?)(?:\t(\S+):(\d+))?\s*$")
NOT_A_FUNCTION_PREFIXES = ("non-virtual thunk", "virtual thunk", "covariant return thunk")


def nm_functions(nm_text: str) -> dict[str, str | None]:
    """The functions an `nm --defined-only -C [-l]` listing defines,
    mapped to their file:line when the listing carries one."""
    found: dict[str, str | None] = {}
    for line in nm_text.splitlines():
        m = NM_FUNCTION_RE.match(line)
        if m is None:
            continue
        name = re.sub(r" \[clone [^\]]*\]$", "", m.group(2))
        where = f"{m.group(3)}:{m.group(4)}" if m.group(3) else None
        if found.get(name) is None:
            found[name] = where
    return found


OPERATOR_RE = re.compile(r"\boperator(?:\(\)|[^\w\s(]+|\s+[\w:]+)")


def _drop_template_args(text: str) -> str:
    out, depth = [], 0
    for c in text:
        depth += {"<": 1, ">": -1}.get(c, 0)
        if not depth and c != ">":
            out.append(c)
    return "".join(out)


def qualified_name(demangled: str) -> str | None:
    """`dl2f::noc::Mesh::drained() const` -> `dl2f::noc::Mesh::drained`:
    the function's scope-qualified name without return type, template
    arguments, ABI tags or parameters. None for what is not a named
    function of its own: thunks, lambdas, function-local entities."""
    if demangled.startswith(NOT_A_FUNCTION_PREFIXES) or "{lambda" in demangled:
        return None
    demangled = re.sub(r"\[abi:\w+\]", "", demangled)
    # Walk to the parameter list's `(`, stepping over operator tokens
    # (operator<<, operator(), operator<) and template arguments.
    depth, i, n = 0, 0, len(demangled)
    operator = ""
    while i < n and (depth or demangled[i] != "("):
        m = OPERATOR_RE.match(demangled, i)
        if m is not None and not depth:
            operator, i = m.group(), m.end()
            continue
        depth += {"<": 1, ">": -1}.get(demangled[i], 0)
        i += 1
    params_end, parens = i, 0
    while params_end < n:
        parens += {"(": 1, ")": -1}.get(demangled[params_end], 0)
        params_end += 1
        if not parens:
            break
    if i == n or demangled.startswith("::", params_end):
        return None
    head = _drop_template_args(demangled[:i].removesuffix(operator)).split()
    return (head[-1] if head else "") + operator


def is_reported(qualified: str) -> bool:
    """A dl2f:: function that is not a constructor, destructor,
    assignment operator or anonymous-namespace helper."""
    if not qualified.startswith("dl2f::") or "(anonymous namespace)" in qualified:
        return False
    parts = qualified.split("::")
    return not (parts[-1].startswith("~") or parts[-1] == "operator=" or parts[-1] == parts[-2])


def allowed_functions(root: str) -> set[str]:
    """Qualified names of the src/ functions a `// lint-allow(DL008):
    <reason>` marker covers (on the declaration's line or the one above)."""
    names: set[str] = set()
    for path in lint.source_files(root, ("src",)):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        allowed, _bad = lint.collect_suppressions(text.splitlines())
        if not allowed:
            continue
        code = lint.strip_code(text)
        for name, offset, scope in lint.declaration_sites(code):
            if "DL008" in allowed.get(code.count("\n", 0, offset), set()):
                names.add("::".join((*scope, name)))
    return names


def dead_functions(library_nm: str, binary_nms: list[str],
                   allowed: set[str]) -> list[tuple[str, str | None]]:
    """(demangled name, file:line) of every reported library function no
    binary listing defines and no allow covers, sorted by name."""
    kept: set[str] = set()
    for text in binary_nms:
        kept.update(nm_functions(text))
    dead = []
    for name, where in nm_functions(library_nm).items():
        qualified = qualified_name(name)
        if name in kept or qualified is None or not is_reported(qualified):
            continue
        if qualified not in allowed:
            dead.append((name, where))
    return sorted(dead)


def run(cmd: list[str]) -> str:
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def build(root: str) -> tuple[str, list[str]]:
    """Configure and build the root tree and perfbench; return the
    library and the non-test binaries."""
    build_dir = os.path.join(root, "build-dead-api")
    flags = ["-DCMAKE_BUILD_TYPE=Debug", "-DBUILD_TESTING=OFF",
             f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}", f"-DCMAKE_EXE_LINKER_FLAGS={LINKER_FLAGS}"]
    trees = ((root, os.path.join(build_dir, "root")),
             (os.path.join(root, "perfbench"), os.path.join(build_dir, "perfbench")))
    for source, binary in trees:
        run(["cmake", "-S", source, "-B", binary, *flags])
        run(["cmake", "--build", binary, "-j", str(len(os.sched_getaffinity(0)))])
    root_build, perfbench_build = trees[0][1], trees[1][1]
    binaries = [os.path.join(perfbench_build, "perfbench_suite")]
    for sub in ("bench", "examples"):
        directory = os.path.join(root_build, sub)
        binaries.extend(os.path.join(directory, n) for n in sorted(os.listdir(directory)))
    binaries = [b for b in binaries if os.path.isfile(b) and os.access(b, os.X_OK)]
    return os.path.join(root_build, "libdl2f.a"), binaries


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        library, binaries = build(root)
        # Line numbers only for the library: resolving them in every binary
        # would cost minutes and report nothing.
        nm = ["nm", "--defined-only", "-C"]
        dead = dead_functions(run([*nm, "-l", library]), [run([*nm, b]) for b in binaries],
                              allowed_functions(root))
    except (OSError, subprocess.CalledProcessError) as err:
        detail = getattr(err, "stderr", "") or ""
        print(f"dead_api: {err}\n{detail}", file=sys.stderr)
        return 2

    for name, where in dead:
        location = os.path.relpath(where, root) if where else "libdl2f.a"
        print(f"{location}: DL008 '{name}' is kept by none of the {len(binaries)} non-test "
              "binaries — delete it, or port its tests to the code the library runs")
    if dead:
        print(f"\ndead_api: {len(dead)} function(s) only tests reach", file=sys.stderr)
        return 1
    print(f"dead_api: every dl2f:: function in libdl2f.a is kept by one of "
          f"{len(binaries)} binaries or allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
