"""Line coverage of ``src/stokeswb`` with the standard library only.

Two modes:

* a pytest plugin.  Loaded with ``-p linecov`` (``tools`` on the path), it
  installs ``sys.settrace`` and ``threading.settrace`` before the first
  conftest is imported, so code that runs at import is seen too, records
  line events in frames whose code lies under ``src/stokeswb`` and, at
  session end, writes the executed lines as JSON::

      PYTHONPATH=src:tools python -m pytest -q -p linecov --linecov-out lines.json

* a report.  It lists, per module, the function-body statements that never
  ran::

      python tools/linecov.py report lines.json

Tracing slows the suite down several times over, so it is not part of the
ordinary test run.
"""

import ast
import json
import os
import sys
import threading

PACKAGE = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        os.pardir, "src", "stokeswb"))


class LineRecorder:
    """Collects the executed lines of code objects under PACKAGE."""

    def __init__(self):
        self.prefix = PACKAGE + os.sep
        self.lines = {}          # filename -> set of executed line numbers
        self._wanted = {}        # code object -> line set, or None

    def _lines_for(self, code):
        try:
            return self._wanted[code]
        except KeyError:
            path = code.co_filename
            lines = (self.lines.setdefault(path, set())
                     if path.startswith(self.prefix) else None)
            self._wanted[code] = lines
            return lines

    def global_trace(self, frame, event, arg):
        lines = self._lines_for(frame.f_code)
        if lines is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    def start(self):
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def to_json(self):
        return {os.path.relpath(path, os.path.dirname(PACKAGE)): sorted(lines)
                for path, lines in sorted(self.lines.items())}


# ---------------------------------------------------------------------------
# pytest plugin
# ---------------------------------------------------------------------------

_recorder = None


def pytest_addoption(parser):
    parser.addoption("--linecov-out", default="linecov.json",
                     help="where the executed lines of src/stokeswb are written")


def pytest_load_initial_conftests(early_config, parser, args):
    # runs ahead of pytest's own implementation, which imports the conftests
    global _recorder
    _recorder = LineRecorder()
    _recorder.start()


def pytest_sessionfinish(session, exitstatus):
    _recorder.stop()
    with open(session.config.getoption("linecov_out"), "w") as fh:
        json.dump(_recorder.to_json(), fh, indent=0)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# statements that emit no line event of their own
_SILENT = (ast.Try, ast.Global, ast.Nonlocal)


def body_statements(tree):
    """(lines, statement) for every statement inside a function body.

    `lines` is the range that a line event of the statement can carry: its
    whole extent for a simple statement, its header for a compound one.
    Docstrings and statements without a line event are skipped.
    """
    out = []

    def visit(stmts, in_function):
        for i, st in enumerate(stmts):
            is_docstring = (i == 0 and isinstance(st, ast.Expr)
                            and isinstance(st.value, ast.Constant)
                            and isinstance(st.value.value, str))
            if in_function and not is_docstring and not isinstance(st, _SILENT):
                children = [c for f in ("body", "orelse", "finalbody", "handlers")
                            for c in getattr(st, f, [])]
                end = (min(c.lineno for c in children) - 1 if children
                       else st.end_lineno)
                first = min([st.lineno] + [d.lineno for d in
                                           getattr(st, "decorator_list", [])])
                out.append((range(first, max(end, st.lineno) + 1), st))
            nested = isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(st, field, []), in_function or nested)
            for handler in getattr(st, "handlers", []):
                visit(handler.body, in_function or nested)
            if isinstance(st, ast.Match):
                for case in st.cases:
                    visit(case.body, in_function or nested)

    visit(tree.body, False)
    return out


def report(json_path):
    """Print, per module, the function-body statements that never ran;
    returns how many there are in all."""
    with open(json_path) as fh:
        data = json.load(fh)
    executed = {os.path.basename(k): set(v) for k, v in data.items()}
    total_missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            statements = body_statements(ast.parse(fh.read(), path))
        ran = executed.get(name, set())
        missed = [st.lineno for lines, st in statements
                  if not any(n in ran for n in lines)]
        total += len(statements)
        total_missed += len(missed)
        print(f"{name}: {len(missed)} of {len(statements)} never ran"
              + (": lines " + ", ".join(map(str, missed)) if missed else ""))
    print(f"total: {total_missed} of {total} function-body statements never ran")
    return total_missed


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "report":
        sys.exit("usage: python tools/linecov.py report LINES.json")
    report(sys.argv[2])
