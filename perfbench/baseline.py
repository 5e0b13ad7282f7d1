"""Capture a baseline: every workload, also those BENCHMARK.json leaves
out, on the main and the held-out seed, untraced and traced, with the
environment record, for BENCHMARK.json's run length.

    python3 perfbench/baseline.py perfbench/baseline/BENCH_seed.json

The main seed is the one a change is developed against; a claimed gain
must also hold on the held-out seed.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = {"main": 1, "held-out": 2}


def main(out: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.import_nanoread()
    import workloads

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    records = []
    for workload in workloads.WORKLOADS:
        for label, seed in SEEDS.items():
            for trace in (0, 1):
                cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(trace)]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=180, check=True)
                line = next(l for l in done.stdout.splitlines() if l.startswith("record "))
                record = json.loads(line[len("record "):])
                record["label"] = label
                records.append(record)
                print(workload, label, "trace", trace, "correct", record["result"]["correct"],
                      flush=True)
    with open(out, "w") as f:
        json.dump({"commit": commit, "records": records}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
