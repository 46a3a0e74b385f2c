"""Statements inside bracketflow functions that no benchmark operation executes.

Builds a workload's inputs with ``bench/workloads.py``, runs each operation
once through ``bracketflow.cli.main`` in this process (the same runs as
``tools/artifact_digests.py``) under a ``sys.settrace`` line tracer, and
prints every statement inside a function of a module under ``--src`` that
never ran, in source order:

    <module>:<line> <first line of the statement>

An empty output means every statement inside a function ran at least once.
Module-level statements (imports, constants, class bodies) run at import and
are not listed; neither are docstrings, which compile to no code.  A listed
statement is code that the benchmark does not exercise: a candidate for
deletion or a sign that the workloads miss a path.  Run from the repository
root:

    python3 tools/line_traffic.py --seed 5
    python3 tools/line_traffic.py --workload steer --seed 5 --src ../parent/src
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

from artifact_digests import parser, run_operations


def function_statements(path: Path) -> dict[int, str]:
    """{line: first source line} of each statement nested in a function of
    the module at ``path``, docstrings and declarations left out."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = {}

    def visit(node, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not (
                    isinstance(child, (ast.Global, ast.Nonlocal))
                    or (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                        and isinstance(child.value.value, str))):
                found[child.lineno] = lines[child.lineno - 1].strip()
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source, str(path)), False)
    return found


def main(argv=None) -> int:
    args = parser(__doc__.split("\n")[0]).parse_args(argv)
    src = Path(args.src).resolve()
    modules = {str(path): ".".join(path.relative_to(src).with_suffix("").parts)
               for path in sorted(src.rglob("*.py"))}
    executed = {filename: set() for filename in modules}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):  # no line events outside the sources
        return local if frame.f_code.co_filename in executed else None

    sys.settrace(trace)
    try:
        for _ in run_operations(args):
            pass
    finally:
        sys.settrace(None)
    for filename, module in modules.items():
        for line, text in sorted(function_statements(Path(filename)).items()):
            if line not in executed[filename]:
                print(f"{module}:{line} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
