#!/usr/bin/env python3
"""Zero-call gate: fail when a function under src/ never ran in the tests.

    python3 tools/zero_call_gate.py <build-dir>

Run it after ctest in a build configured with `--coverage`. For every
object in the build (every .gcda under <build-dir>) it reads
`gcov --json-format --stdout` and sums each src/ function's call count
over every translation unit that emits it. That includes test, bench and
example objects: a src/ header's inline function or template emitted
there may be the copy the linker keeps, so its calls are recorded in that
object. A function is its definition, a source position: every
instantiation of a template (and of a lambda in one) counts toward it. A
function defined in a file under src/ whose sum is zero fails the gate,
unless tools/zero_call_allowlist.txt names it.

An allowlist line is a function's demangled name as the gate prints it,
then two spaces, `#` and a one-line reason. Lines that start with `#` are
comments. An allowlist entry that names no zero-call function fails the
gate too, so the list only holds live exceptions. Needs only gcov (GCC
12 or later); it does not use gcovr.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
ALLOWLIST = os.path.join(ROOT, "tools", "zero_call_allowlist.txt")


def read_allowlist(path):
    names = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            name, sep, reason = line.partition("  #")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: expected '<function>  # <reason>'")
            names[name.strip()] = reason.strip()
    return names


def function_calls(build_dir):
    """{(source file, line, column): [demangled name, calls summed over
    every instantiation in every translation unit]}."""
    calls = {}
    data_files = []
    for top, _dirs, files in os.walk(os.path.abspath(build_dir)):
        data_files += [os.path.join(top, f) for f in files if f.endswith(".gcda")]
    if not data_files:
        sys.exit(f"no .gcda files under {build_dir}: build with --coverage and run ctest")
    for data in sorted(data_files):
        out = subprocess.run(["gcov", "--json-format", "--stdout", data],
                             cwd=os.path.dirname(data), capture_output=True, text=True,
                             check=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            for entry in json.loads(doc)["files"]:
                path = os.path.realpath(os.path.join(os.path.dirname(data), entry["file"]))
                if not path.startswith(SRC):
                    continue
                for fn in entry["functions"]:
                    key = (os.path.relpath(path, ROOT), fn["start_line"], fn["start_column"])
                    name_and_calls = calls.setdefault(key, [fn["demangled_name"], 0])
                    name_and_calls[0] = min(name_and_calls[0], fn["demangled_name"])
                    name_and_calls[1] += fn["execution_count"]
    return calls


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: zero_call_gate.py <build-dir>")
    allowed = read_allowlist(ALLOWLIST)
    calls = function_calls(sys.argv[1])
    zero = sorted((name, f"{path}:{line}") for (path, line, _col), (name, n) in calls.items()
                  if n == 0)
    failures = [(name, path) for name, path in zero if name not in allowed]
    stale = sorted(set(allowed) - {name for name, _ in zero})

    print(f"zero-call gate: {len(calls)} src/ functions, {len(zero)} never called, "
          f"{len(zero) - len(failures)} of those allowlisted")
    for name, path in failures:
        print(f"  never called: {name}  ({path})")
    for name in stale:
        print(f"  allowlisted but called or gone: {name}")
    if failures or stale:
        print("Call the function from a test, delete it, or allowlist it with a reason "
              f"in {os.path.relpath(ALLOWLIST, ROOT)}.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
