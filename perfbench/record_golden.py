"""Record the golden SHA-256 digest of every table request's output.

    python3 perfbench/record_golden.py

Runs each request of the table workloads once, untraced, and rewrites
``golden.json``.  The digests pin the CLI's output bytes, so record them
only from a commit whose outputs are known good; ``run.py`` counts any
later mismatch as a failed request.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK))
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            for argv in workloads.table_requests(workload):
                o = run.spawn(argv, "plain", work)
                if o.exit_code != 0:
                    print(f"error: {workloads.request_key(argv)} exited {o.exit_code}", file=sys.stderr)
                    return 1
                digests[workloads.request_key(argv)] = o.digest
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
