"""Line check: every line of src/singletgas/ that the Tier-1 suite never runs.

Runs the Tier-1 suite in this process with a line tracer on the frames of
src/singletgas/ only, takes each module's executable lines from co_lines()
of its compiled code, and compares the lines that never ran with
line_check_allowlist.json.  Each allowlist entry names a line by file,
enclosing function and stripped text, so edits elsewhere in a file do not
move it, and gives the reason the line stays unrun.  Exits 1 when a line
that is not listed never runs, when a listed line runs, or when the suite
fails; extra arguments go to pytest.  Needs pytest, as Tier-1 does.

    python scripts/line_check.py
"""

import collections
import json
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singletgas"
ALLOWLIST = pathlib.Path(__file__).with_name("line_check_allowlist.json")


def executable_lines(path):
    """{line number: qualified name of the innermost code object holding it}."""
    owner = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:  # parents before children, so the innermost owner wins
        code = todo.pop(0)
        name = getattr(code, "co_qualname", code.co_name)
        owner.update({line: name for _, _, line in code.co_lines() if line})
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def run_suite(args):
    """Tier-1 pytest status and the {file: set of line numbers} it ran."""
    import pytest

    ran = collections.defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(args):
    status, ran = run_suite(args)
    unrun = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line, function in sorted(executable_lines(path).items()):
            if line not in ran[str(path)]:
                unrun[path.name, function, text[line - 1].strip()] += 1
    listed = collections.Counter(
        (e["file"], e["function"], e["line"]) for e in json.loads(ALLOWLIST.read_text())
    )
    for key in sorted((unrun - listed).elements()):
        print("never run, not listed: {}: {}: {}".format(*key))
    for key in sorted((listed - unrun).elements()):
        print("listed, but ran: {}: {}: {}".format(*key))
    print(f"{sum(unrun.values())} lines never ran; {sum(listed.values())} listed")
    if status != 0:
        print(f"the suite failed with pytest status {status}")
    return int(status != 0 or unrun != listed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
