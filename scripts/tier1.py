#!/usr/bin/env python3
"""Run the tier-1 test suite and accept exactly its one documented failure.

Tier 1 is ``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``
run from the repository root.  Acceptance criterion 10 fails by design: it
transcribes two published classification lists that the oracles show to be
incomplete (see README).  This script exits 0 only when the failing tests are
exactly that one; any other failure or collection error, or criterion 10
passing, exits 1.

    python scripts/tier1.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_criterion_10_classification_lists"}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    failing = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, flags=re.MULTILINE))
    if done.returncode not in (0, 1) or failing != EXPECTED_FAILURES:
        print(
            f"tier1: expected exactly {sorted(EXPECTED_FAILURES)} to fail, "
            f"got {sorted(failing)} (pytest exit code {done.returncode})"
        )
        return 1
    print("tier1: ok, the only failure is the documented criterion 10")
    return 0


if __name__ == "__main__":
    sys.exit(main())
