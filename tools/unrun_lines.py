"""Lines of the package that neither the tier-1 tests nor one job of each
benchmark workload executes.

    python3 tools/unrun_lines.py

Runs the tier-1 suite in this process (pytest.main, as the tier-1 command
runs it), then job 0 of each workload in perfbench/ at full scale and
seed 0, all under sys.settrace and threading.settrace, and
prints, for each module of src/halleydyn, the executable lines that never
ran, as ``file:line  source``.  A line is executable when some code
object of the module lists it (co_lines).  Only frames of the package's
own files are traced line by line, so the rest runs at the cost of one
call event per frame.  Lines that run only in a subprocess, such as the
import checks of tests/test_module_boundaries.py, count as unrun.
Uses the standard library and the repository's own code only.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "halleydyn")


def executable_lines(path: str) -> set[int]:
    """Line numbers that some code object compiled from path lists."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines |= {line for _, _, line in co.co_lines() if line is not None}
        todo += [c for c in co.co_consts if hasattr(c, "co_lines")]
    return lines


class LineRecorder:
    """The (file, line) pairs executed in the package's files."""

    def __init__(self):
        self.seen: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        # the def line of a function and the first line of a module count
        self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def run_tests() -> int:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])


def run_workload_jobs():
    """Job 0 of each workload at full scale, seed 0, with no reference."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as outdir:
        for name in workloads.WORKLOADS:
            inp = workloads.prepare(name, 0, "full", os.path.join(outdir, name), {}, outdir)
            workloads.job(inp, 0)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    with LineRecorder() as rec:
        status = run_tests()
        if status not in (0, 1):  # 1: some test failed, the lines still count
            print(f"pytest exited {status}", file=sys.stderr)
            return 2
        run_workload_jobs()
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        unrun = sorted(executable_lines(path) - {ln for f, ln in rec.seen if f == path})
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in unrun:
            print(f"src/halleydyn/{name}:{line}  {source[line - 1].strip()}")
        total += len(unrun)
    print(f"{total} unrun lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
