"""List the function-body statements of ``src/unrolledsl2`` that a pytest run
never executed.

A pytest plugin: it records every line that runs in the package through
``sys.settrace`` (and ``threading.settrace``), from before the tests'
set-up imports the package, and at the end of the run prints each
statement inside a function or method body that no line event reached, as
``path:line: source``, then their count.  A function's docstring is not a statement here; a compound
statement (``if``, ``for``, ``while``, ``with``) counts by its header, a
``def`` or ``class`` inside a function by its header and decorators, and
any other statement by any of its lines.  ``try`` and ``global`` emit no
line event of their own and are left out.  Only this process is traced,
so what the tests run in child processes (``python -m unrolledsl2`` under
a memory limit, the digest regeneration) counts as not run.

While any statement is unrun the run fails: pytest exits with status 1
(tests failed) even when every test passed, and the summary line says so.

Run it from the root of a checkout; tracing makes the run several times
slower, so it is not part of the tier-1 tests::

    PYTHONPATH=src:tools python -m pytest -q -p linetrace
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "unrolledsl2"
_PREFIX = str(PACKAGE) + "/"
_ran: set[tuple[str, int]] = set()
_found: list[tuple[str, int, str]] = []
_SILENT = (ast.Try, ast.Global, ast.Nonlocal, getattr(ast, "TryStar", ast.Try))


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def _lines(node: ast.stmt) -> range:
    """The lines whose line event counts as running ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return range(first, node.body[0].lineno)
    header = {ast.If: "test", ast.While: "test", ast.For: "iter", ast.AsyncFor: "iter"}
    if type(node) in header:
        part = getattr(node, header[type(node)])
        return range(node.lineno, part.end_lineno + 1)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return range(node.lineno, node.items[-1].context_expr.end_lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def _body_statements(tree: ast.Module):
    """Every statement inside a function body, docstrings left out."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node  # its own body is walked as a function (or skipped, a class)
                continue
            if not isinstance(node, _SILENT):
                yield node
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(node, field, []):
                    stack.extend(child.body if isinstance(child, (ast.ExceptHandler,
                                                                  ast.match_case))
                                 else [child])


def unrun() -> list[tuple[str, int, str]]:
    """(path, line, first source line) of each statement no line event reached."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        for node in _body_statements(ast.parse(text)):
            if not any((str(path), line) in _ran for line in _lines(node)):
                found.append((str(path), node.lineno, source[node.lineno - 1].strip()))
    return sorted(set(found))


def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before the test set-up imports the package."""
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_sessionfinish(session):
    """Stop tracing, list the unrun statements, and fail the run if any."""
    sys.settrace(None)
    threading.settrace(None)
    _found[:] = unrun()
    if _found and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    root = PACKAGE.parents[1]
    terminalreporter.section("statements never run")
    for path, line, text in _found:
        terminalreporter.write_line(f"{pathlib.Path(path).relative_to(root)}:{line}: {text}")
    terminalreporter.write_line(
        f"{len(_found)} function-body statements of src/unrolledsl2 never ran"
        + ("; the run fails" if _found else ""))
