"""Self-check of the benchmark at the smallest instance sizes.

    python3 perfbench/selfcheck.py

For every workload this runs one cycle untraced and one cycle traced, each in
its own process, and checks that:

- the last output line holds exactly ``correct``, ``attempted``, ``failed``
  and ``metrics``, with ``correct`` true;
- the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of BENCHMARK.json, each with its unit;
- the traced process returned the same statuses, iteration counts and ``dp``
  values as the untraced one, so tracing changes no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(workload: str, trace: int) -> tuple[dict, list]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".perfbench_out" / f"{workload}-s{SEED}-t{trace}.json",
              encoding="utf-8") as fh:
        digests = [row[-1] for row in json.load(fh)["rows"]]
    return result, digests


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        digests = {}
        for trace in (0, 1):
            result, digests[trace] = run(workload, trace)
            where = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: correct is {result.get('correct')}")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, unit differs {units}")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: traced results differ from untraced results")
        print(f"{workload}: {sum(len(d) for d in digests[0])} solves compared")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
