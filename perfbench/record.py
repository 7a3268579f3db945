#!/usr/bin/env python3
"""Run every workload once untraced and once traced; write one trajectory file.

    python3 perfbench/record.py --label 8004a07

The file ``perfbench/trajectory/<label>.json`` holds, per workload, the
end-to-end and per-layer metrics, their check counts and the context
(versions, kernel backend, core count, source lines, dependencies), so the
numbers of one commit can be set beside the next.  Every point uses the
default seed, the one ``digests.json`` records digests for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="name of the trajectory point, e.g. a commit id")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    point = {"seed": DEFAULT_SEED, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            context = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry.setdefault("checks", []).append(
                {"trace": trace, "correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"]})
            entry["notes"] = entry.get("notes", []) + [
                line for line in lines[:-1] if not line.startswith(("context ", "perfbench "))
                and " = " not in line]
            point["context"] = context
            print(f"{workload} trace={trace}: correct={result['correct']}", flush=True)
        point["workloads"][workload] = entry
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
