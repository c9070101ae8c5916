"""Pytest plugin: fail the session unless every statement of the package ran.

Switch it on with ``-p statement_trace`` and ``tests`` on the path::

    PYTHONPATH=src:tests python -m pytest -q -p statement_trace

It line-traces, with ``sys.settrace``, every frame whose code lies in
``src/szegedtools``, and at session end lists each statement that never ran
and sets the exit status to 1.  A statement is any AST statement except a
docstring or a ``global``/``nonlocal`` declaration.  A simple statement ran
when any of its lines ran; a compound one when a line of its header ran or
a statement of its body did (a ``try:`` line runs no code of its own).

``ALLOWED`` names the compound statements whose bodies no in-process test
can run, each by its module and the text of its first line.  The header
itself must still run.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "szegedtools"

ALLOWED = {
    # The console script's entry point, and the guard for ``python -m``:
    # both run only in the subprocess tests.
    ("cli.py", "def run() -> None:"),
    ("cli.py", 'if __name__ == "__main__":'),
    # Read by type checkers only.
    ("cli.py", "if TYPE_CHECKING:"),
}

_hits: dict[str, set[int]] = {}
# Per code object, its lines that have not run yet: empty for code outside
# the package and for code whose every line has run, neither of which is
# traced again.  Its first line, where the frame starts, has no line event.
_pending: dict[CodeType, set[int]] = {}
_prefix = str(PACKAGE) + "/"


def _global_tracer(frame, event, arg):
    code = frame.f_code
    pending = _pending.get(code)
    if pending is None:
        pending = _pending[code] = set()
        if code.co_filename.startswith(_prefix):
            pending.update(line for _, _, line in code.co_lines() if line)
            pending.discard(code.co_firstlineno)
    if not pending:
        return None
    lines = _hits.setdefault(code.co_filename, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
            pending.discard(frame.f_lineno)
            if not pending:
                frame.f_trace_lines = False
        return local

    return local


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _bodies(node: ast.AST):
    """The statement lists nested directly in ``node``."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if isinstance(block, list):
            yield block
    for handler in getattr(node, "handlers", ()):
        yield handler.body
    for case in getattr(node, "cases", ()):
        yield case.body


def _missed(path: Path, hits: set[int]) -> list[tuple[int, str]]:
    """Each statement of ``path`` that did not run: its line and text."""
    source = path.read_text()
    text = source.splitlines()
    missed = []

    def ran(node: ast.stmt) -> bool:
        children = [s for block in _bodies(node) for s in block]
        first = min(
            [node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())]
        )
        last = children[0].lineno - 1 if children else node.end_lineno
        if any(line in hits for line in range(first, last + 1)):
            return True
        return any(ran(s) for s in children)

    def walk(block: list[ast.stmt]) -> None:
        for index, node in enumerate(block):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if index == 0 and _is_docstring(node):
                continue
            if not ran(node):
                missed.append((node.lineno, text[node.lineno - 1].strip()))
                continue
            if (path.name, text[node.lineno - 1].strip()) in ALLOWED:
                continue
            for body in _bodies(node):
                walk(body)

    walk(ast.parse(source).body)
    return missed


def pytest_configure(config):
    sys.settrace(_global_tracer)
    threading.settrace(_global_tracer)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, stmt in _missed(path, _hits.get(str(path), set())):
            report.append(f"  {path.name}:{line}: {stmt}")
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if report:
        reporter.write_line(f"statement trace: {len(report)} statements never ran")
        for line in report:
            reporter.write_line(line)
        session.exitstatus = 1
    else:
        reporter.write_line("statement trace: every statement ran")
