"""List the lines of src/jordanalg that a pytest run never executes.

    python tools/linecov.py [pytest arguments]

Stdlib only.  The run is traced in this interpreter with `sys.settrace`;
the child interpreters it starts (the CLI tests run `python -m
jordanalg.cli`) are traced by a `sitecustomize` module put first on the
PYTHONPATH they inherit, and each writes the lines it ran when it
exits (`atexit`).  The executable lines of a module are those its
compiled code objects map instructions to; the report prints, per
module, the ones no process ran, as line ranges.  Without arguments the
Tier-1 suite is run (`-q -p no:cacheprovider`).
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jordanalg"

_SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_linecov", {tool!r})
_linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_linecov)
_linecov.start({out!r})
"""


def start(out_dir: str):
    """Trace every line this process runs in the package; at exit, or
    when the returned function is called, write them to out_dir/<pid>.json."""
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()
    add = ran.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    def dump():
        sys.settrace(None)
        by_file: dict[str, list[int]] = {}
        for path, line in ran:
            by_file.setdefault(path, []).append(line)
        with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as fh:
            json.dump(by_file, fh)

    atexit.register(dump)
    threading.settrace(trace)
    sys.settrace(trace)
    return dump


def _executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    out_dir = tempfile.mkdtemp(prefix="linecov-")
    site_dir = os.path.join(out_dir, "site")
    os.mkdir(site_dir)
    with open(os.path.join(site_dir, "sitecustomize.py"), "w") as fh:
        fh.write(_SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()), out=out_dir))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (site_dir, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    dump = start(out_dir)
    import pytest

    status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    threading.settrace(None)
    atexit.unregister(dump)
    dump()

    ran: dict[str, set[int]] = {}
    for name in os.listdir(out_dir):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                for path, lines in json.load(fh).items():
                    ran.setdefault(path, set()).update(lines)
    shutil.rmtree(out_dir)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(_executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} never executed" + (f": {_ranges(missed)}" if missed else ""))
    print(f"total: {total} lines never executed; pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
