"""Self-test of the benchmark harness at toy problem sizes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it asserts that the last output
line carries exactly the metrics BENCHMARK.json declares, each with its
unit, and that every per-layer metric is nonzero on some workload.  It
then feeds each workload's checks a deliberately wrong expected value and
asserts that the miss is counted as a failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import run
import workloads


def last_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0, argv
    return json.loads(out.getvalue().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    nonzero: set[str] = set()
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = last_line(["--workload", name, "--seed", "3", "--seconds", "0",
                                "--trace", str(trace), "--toy"])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, got)
            nonzero |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    layers = {m["name"] for m in spec["per_layer"]} - {"scgf.fallbacks"}
    assert layers <= nonzero, f"never measured: {sorted(layers - nonzero)}"


def check_wrong_expectation() -> None:
    right = workloads.closed_forms

    def wrong(length: int) -> dict[str, Fraction]:
        forms = right(length)
        forms["drift_diamond"] += 1
        return forms

    for name, workload in workloads.WORKLOADS.items():
        calls = workload.calls(3, True)
        deadline = time.monotonic() + run.RUN_LIMIT_S
        records = [run.run_call(call, False, deadline) for call in calls]

        def failing() -> set[str]:
            return {c.name for call, r in zip(calls, records)
                    for c in workloads.check_call(workload, call, r["output"], r["rc"])
                    if not c.passed}

        before = failing()
        assert not {c for c in before if ".3sigma" not in c}, (name, before)
        workloads.closed_forms = wrong
        try:
            missed = failing() - before
        finally:
            workloads.closed_forms = right
        assert missed, f"{name}: a wrong expected value was not caught"
        assert all("drift_diamond" in c or "drift-diamond" in c or "fd_check" in c
                   for c in missed), missed
        print(f"{name}: wrong expected value caught by {len(missed)} checks")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(spec)
    print("every declared metric reported with its unit")
    check_wrong_expectation()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
