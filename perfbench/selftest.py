"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Every workload runs once untraced
and twice traced at one fixed seed and at a fraction of its size.  The test
asserts that no operation fails, that each run reports exactly the metrics
BENCHMARK.json declares, with their units, and that the exact counters
(calls, bytes, configurations, rows) of the two traced runs are equal.
It takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads

SEED = 3


class SelfTestFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def exact(result: dict) -> dict:
    return {
        k: v["value"] for k, v in result["metrics"].items()
        if k.endswith(".calls") or k in tracing.COUNTERS
    }


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    require({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    sys.path.insert(0, str(run.SRC))
    for name, small in workloads.SMALL.items():
        results = []
        for trace in (False, True, True):
            with run.scratch_dir(f"selftest-{name}") as workdir:
                result = run.measure(small(), SEED, 0, trace, workdir)
            require(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                    f"{name} trace={trace}: {result['failed']} of {result['attempted']} operations failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            require(units == declared[trace],
                    f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(units.items()) ^ set(declared[trace].items()))}")
            results.append(result)
        require(results[0]["metrics"]["success_rate"]["value"] == 1.0,
                f"{name}: success_rate {results[0]['metrics']['success_rate']['value']}")
        require(exact(results[1]) == exact(results[2]),
                f"{name}: counters differ between two traced runs at seed {SEED}")
        print(f"selftest {name}: ok, {results[0]['attempted']} operations untraced, "
              f"{len(exact(results[1]))} exact counters repeat")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
