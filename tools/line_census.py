"""Line census of the test suite: every line of ``src/divproj`` that no test runs.

Runs the Tier-1 suite (``python -m pytest``, with any extra arguments
passed through) under a ``sys.settrace`` hook that records the lines
executed in ``src/divproj`` and traces nothing else.  The hook is installed
by a ``sitecustomize`` module on a temporary directory put first on
``PYTHONPATH``, so the pytest process and every Python process it starts
(the CLI subprocesses) are traced alike; each writes its lines to that
directory when it exits.  The executable lines of a file are the line
numbers of its compiled code objects.  Prints each line that never ran,
with its source, then the count.  Stdlib only::

    python tools/line_census.py            # Tier-1, about twice its plain time
    python tools/line_census.py tests/test_oracle.py -k Screen

The suite's own exit status is printed; the census covers whatever ran.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "divproj"

# installed in every traced process; reads its settings from the environment
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_root = os.environ["LINE_CENSUS_PACKAGE"] + os.sep
_out = os.environ["LINE_CENSUS_OUT"]
_seen = {}


def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_root):
        return None
    _seen.setdefault(name, set()).add(frame.f_lineno)
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join(_out, f"lines-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({name: sorted(lines) for name, lines in _seen.items()}, fh)


sys.settrace(_global)
threading.settrace(_global)
atexit.register(_dump)
'''


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "lines")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = [str(hook), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, path)),
            LINE_CENSUS_PACKAGE=str(PACKAGE),
            LINE_CENSUS_OUT=str(out),
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv]
        status = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
        seen: dict[str, set[int]] = {}
        for dump in out.iterdir():
            for name, lines in json.loads(dump.read_text()).items():
                seen.setdefault(name, set()).update(lines)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        never = sorted(lines - seen.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"pytest exit status {status}; {missed} of {total} executable lines never run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
