#!/usr/bin/env python3
"""Show that the benchmark's correctness gate bites.

    python3 perfbench/test_gate.py

Runs the `wire` workload at a tenth of its size three times: clean,
with one byte of a reference summary flipped, and with one event never
sent. The clean run must pass with ok_ratio 1; each broken run must
exit non-zero with correct false and ok_ratio below 1.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(*extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "wire", "--seed", "7",
         "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    failures = []

    code, result = bench()
    if code != 0 or not result["correct"] or \
            result["metrics"]["ok_ratio"]["value"] != 1.0:
        failures.append("clean run: exit %d, result %s" % (code, result))

    for inject in ("flip", "drop"):
        code, result = bench("--inject", inject)
        ok = result["metrics"]["ok_ratio"]["value"] if result else None
        if code == 0 or result is None or result["correct"] or \
                result["failed"] == 0 or not ok < 1.0:
            failures.append("--inject %s: exit %d, ok_ratio %s"
                            % (inject, code, ok))
        else:
            print("--inject %s: exit %d, ok_ratio %.6f, failed %d"
                  % (inject, code, ok, result["failed"]))

    for failure in failures:
        print("FAIL", failure)
    print("gate test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
