"""Run the acceptance gate once and set each criterion's time beside its bound.

    python3 perfbench/acceptance_report.py

Runs ``pytest tests/test_acceptance.py -s`` unmodified from the checkout
root, reads every ``ACCEPTANCE n: ... PASS (t s)`` line, takes the bound
from the test file's ``_report(n, text, elapsed, bound)`` call, and writes
the table with the headroom left to ``perfbench/out/acceptance.json``.  It
is not one of the timed workloads: the gate takes minutes.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TEST_FILE = os.path.join(ROOT, "tests", "test_acceptance.py")
LINE_RE = re.compile(r"ACCEPTANCE (\d+): (.*) PASS \(([\d.]+)s\)")


def bounds_from_tests(path):
    """Criterion number -> bound in seconds, from the ``_report`` calls."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_report":
            number, bound = node.args[0], node.args[3]
            if isinstance(number, ast.Constant) and isinstance(bound, ast.Constant):
                out[number.value] = bound.value
    return out


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    bounds = bounds_from_tests(TEST_FILE)
    rows = []
    for line in proc.stdout.splitlines():
        m = LINE_RE.search(line)
        if m:
            number, text, seconds = int(m.group(1)), m.group(2), float(m.group(3))
            bound = bounds.get(number)
            rows.append({
                "criterion": number,
                "text": text,
                "seconds": seconds,
                "bound_s": bound,
                "share_of_bound": seconds / bound if bound else None,
            })
    report = {"pytest_exit": proc.returncode, "criteria": rows, "nproc": os.cpu_count(), "python": sys.version.split()[0]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "acceptance.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    for r in rows:
        print(f"criterion {r['criterion']}: {r['seconds']:7.1f} s of {r['bound_s']} s "
              f"({r['share_of_bound']:.0%})  {r['text']}")
    if proc.returncode != 0 or len(rows) != len(bounds):
        print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n", file=sys.stderr)
        print(f"pytest exit {proc.returncode}; {len(rows)} of {len(bounds)} criteria passed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
