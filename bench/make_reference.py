#!/usr/bin/env python3
"""Rewrite bench/reference.json from the program as it is now.

    python3 bench/make_reference.py

Stores the check-call output values of every workload at each of the
``recorded_seeds`` in bench/workloads.json. ``bench/run.py`` compares its
check call with these values whenever its seed and sizes match one. Run
this only when estimates are meant to change, and say why in the commit.
"""

import json
import sys

import run


def main() -> int:
    reference = {
        name: {str(seed): run.reference_entry(name, seed)
               for seed in run.META["recorded_seeds"]}
        for name in run.META["workloads"]
    }
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
