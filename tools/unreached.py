"""List the statements of src/sscurv that the tier-1 suite never runs.

Runs the tier-1 tests in this process, with --hypothesis-seed=0, under a
sys.settrace line tracer that watches only the files of src/sscurv, then
prints each statement none of whose lines ran, as path:line: source.
Docstrings and global statements compile to no code and are skipped.

Exits 1 when a statement outside RESIDUE never ran, and with pytest's own
code when a test fails; otherwise 0. Run from the repository root:

    PYTHONPATH=src python tools/unreached.py

Traced, the suite takes about two and a half times as long as untraced.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sscurv"

# What no tier-1 test can run, with why: each entry is a file and the start
# of the one line there that begins a statement or an except clause, and
# covers every statement in it.
RESIDUE = {
    ("rat.py", 'RAT_BACKEND = "gmpy2"'):
        "the gmpy2 backend: gmpy2 is an optional extra the tests leave out",
    ("cli.py", 'if __name__ == "__main__":'):
        "the __main__ call, which runs only in a CLI child process",
    ("cli.py", "except UnicodeEncodeError"):
        "a report stdout cannot encode, met only by a CLI child process",
    ("connection.py", 'raise SscurvError("Levi-Civita construction is not metric")'):
        "the Koszul metric self-check: every frame and metric tried in dims 1-3 "
        "that breaks it breaks the torsion check first",
}


def statements(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, lines whose code is the statement's own) of each statement
    in a file: a simple statement's every line, a compound one's header."""
    found = []

    def visit(body, docstring_allowed):
        for index, node in enumerate(body):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if (index == 0 and docstring_allowed and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = getattr(node, "body", None)
            if isinstance(inner, list) and inner:
                last = max(node.lineno, inner[0].lineno - 1)
            else:
                last = node.end_lineno
            found.append((first, range(first, last + 1)))
            scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()), scope and field == "body")
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, False)
            for case in getattr(node, "cases", ()):
                visit(case.body, False)

    visit(tree.body, True)
    return found


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the line tracer: its exit code, and the
    lines run in each package file, by resolved path."""
    import pytest

    tracers: dict = {}  # co_filename -> its line tracer, or None outside the package
    ran: dict[str, set[int]] = {}
    package = str(PACKAGE) + "/"

    def line_tracer(lines: set[int]):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    # One tracer a file, made once: on_line refers to itself, so a tracer
    # made on every call would leave a reference cycle behind each call,
    # and a test that counts what the garbage collector finds would fail.
    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = str(Path(name).resolve())
            tracers[name] = (line_tracer(ran.setdefault(path, set()))
                             if path.startswith(package) else None)
        return tracers[name]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def residue_spans(name: str, source: list[str], tree: ast.Module) -> dict[tuple, range]:
    """The lines each RESIDUE entry of a file covers: those of the statement
    or except clause that begins on the one line its text starts."""
    ends: dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            ends[node.lineno] = max(ends.get(node.lineno, 0), node.end_lineno)
    spans = {}
    for key in RESIDUE:
        if key[0] == name:
            starts = [n for n in ends if source[n - 1].strip().startswith(key[1])]
            if len(starts) != 1:
                raise SystemExit(f"residue entry {key} names {len(starts)} lines, not one")
            spans[key] = range(starts[0], ends[starts[0]] + 1)
    return spans


def main() -> int:
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                            "--rootdir", str(ROOT), str(ROOT / "tests")])
    if code != 0:
        print(f"pytest exited {code}; the trace is incomplete", file=sys.stderr)
        return code
    unexplained, matched = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path.resolve()), set())
        source = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(source))
        spans = residue_spans(path.name, source, tree)
        for first, own in statements(tree):
            if not lines.isdisjoint(own):
                continue
            keys = [key for key, span in spans.items() if first in span]
            matched.update(keys)
            note = f"residue: {RESIDUE[keys[0]]}" if keys else "NOT IN RESIDUE"
            unexplained += not keys
            print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}  [{note}]")
    for key in RESIDUE.keys() - matched:
        print(f"residue entry covers no unreached statement: {key[0]}: {key[1]}")
    print(f"{unexplained} unreached statement(s) outside the residue")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
