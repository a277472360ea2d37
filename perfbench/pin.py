"""Pin the output digests that every benchmark run is checked against.

    python3 perfbench/pin.py

Runs each workload once at the shipped seed (key ``default``), checks that
every step passed, and writes the SHA-256 of every output file to
``digests.json``. Other seeds take the first run's digests as their
reference. Re-pin only in a change that means to alter output bytes, and say
which bytes and why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    pinned = {}
    for name in WORKLOADS:
        out = run.WORK / "out" / name
        shutil.rmtree(out, ignore_errors=True)
        res = run.spawn([name, str(out), "-", "0"])
        problems = (["benchmark process failed"] if res is None
                    else run.output_problems(out, res["rcs"], None))
        if problems:
            print(f"{name}: " + "; ".join(problems), file=sys.stderr)
            return 1
        pinned[name] = {"default": run.digest_tree(out)}
        print(f"pinned {name}", flush=True)
    run.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
