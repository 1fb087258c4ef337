"""Rewrite digests.json: the trace SHA-256 of every seed in each workload's
block for benchmark seed 0.

Run from the repository root: ``python3 perfbench/pin_digests.py``. The
benchmark fails any seed whose trace differs from its pinned digest, so
only a change that means to alter traces should run this, and it says so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    if not run.import_program():
        return 2
    import workloads

    pinned = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=run.OUT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(Path(tmp))
            w.prepare(0)
            seeds = run.closed_loop(w, 0, units=w.block).seeds
            errors = [f"{r.key}: {r.error}" for r in seeds if r.error]
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            pinned[name] = {r.key: r.digest for r in seeds}
    run.DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {sum(map(len, pinned.values()))} digests -> {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
