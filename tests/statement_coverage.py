"""Statement coverage of src/polydiag under the tier-1 tests, standard library only.

Run from the root of a checkout, with pytest and the test extra installed:

    python tests/statement_coverage.py

It runs the tier-1 tests in this process under a sys.settrace line tracer,
then lists every statement of src/polydiag that no test executed.  A
statement counts as executed when any of its lines that holds bytecode ran.
It exits 1 if a test fails or if the unexecuted statements are not exactly
ALLOWED, each named by its file and the text of its first line; the traced
run takes about two minutes on two cores.

Two tests are deselected because the tracer breaks what they measure:
test_parse_long_line_in_linear_time times the parser, and
test_producers_leave_no_reference_cycles counts objects that the tracer's
frame references keep alive.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "polydiag")

# (file, first line of the statement): statements no test can reach
ALLOWED = {
    # the module run as a script; the tests call main() directly
    ("cli.py", "sys.exit(main())"),
    # the invariant that the term scan accepts all that the walk accepts
    ("arith.py", 'raise AssertionError(f"the term scan refused text in the grammar: {text[:60]!r}")'),
}

DESELECTED = [
    "tests/test_arith.py::test_parse_long_line_in_linear_time",
    "tests/test_diagonal.py::test_producers_leave_no_reference_cycles",
]


def code_lines(code):
    """The lines that hold bytecode in code and the code objects nested in it."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source):
    """line -> the innermost statement whose span holds it."""
    owner = {}
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
    for node in sorted(nodes, key=lambda n: (n.lineno, -n.end_lineno)):  # outer first
        for line in range(node.lineno, node.end_lineno + 1):
            owner[line] = node
    return owner


def unexecuted(path, hit):
    """(first line, its text) of each statement of path none of whose lines ran."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    owner = statements(source)
    lines = code_lines(compile(source, path, "exec"))
    ran = {id(owner[line]) for line in lines & hit if line in owner}
    missed = {owner[line] for line in lines - hit if line in owner and id(owner[line]) not in ran}
    text = source.splitlines()
    return sorted((node.lineno, text[node.lineno - 1].strip()) for node in missed)


def traced_run():
    """Run the tier-1 tests under the tracer; (pytest's exit code, path -> lines run)."""
    import pytest

    hits = {}
    tracers = {}

    def tracer_for(path):
        lines = hits.setdefault(path, set())

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def global_trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.realpath(name)
            tracers[name] = tracer_for(path) if os.path.dirname(path) == PACKAGE else None
        return tracers[name]

    os.chdir(ROOT)
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        code = pytest.main(args + [f"--deselect={test}" for test in DESELECTED])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main():
    code, hits = traced_run()
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if name.endswith(".py"):
            for lineno, text in unexecuted(path, hits.get(path, set())):
                found.add((name, text))
                print(f"not executed: src/polydiag/{name}:{lineno}: {text}")
    for name, text in sorted(ALLOWED - found):
        print(f"allowed but executed or gone: src/polydiag/{name}: {text}")
    ok = code == 0 and found == ALLOWED
    print(f"tests exit {code}; {len(found)} unexecuted statements, {len(found - ALLOWED)} not allowed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
