"""Line coverage of ``src/eiftools`` under the tier-1 tests, by sys.settrace.

Run from the repository root with ``PYTHONPATH=src python tests/linecov.py``.
It runs the tests in this process with a line tracer on the package's
files, then prints each executable line that never ran and is not in
EXCEPTIONS below, and exits 1 if there is one (or if the tests fail).
Executable lines are those of the files' compiled code objects, so the
result depends on the Python version; CI runs it on one.
"""

import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eiftools"

# Lines that no in-process test can run, as (file, stripped source line):
# the reason.
EXCEPTIONS = {
    ("cli.py", "sys.exit(main())"):
        "the __main__ guard runs only when cli.py is the main script; the "
        "tests call main() in-process, and run the script in subprocesses",
}


def executable_lines(path):
    """The line numbers that the compiled code of ``path`` can run."""
    lines, codes = set(), [compile(path.read_text("utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main():
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed, total = [], 0
    for name, path in files.items():
        source = path.read_text("utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[name]):
            text = source[line - 1].strip()
            if (path.name, text) not in EXCEPTIONS:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} of {total} executable src/ lines never ran "
          "outside the exceptions")
    print("\n".join(missed))
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
