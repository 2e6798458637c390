"""raisepeel benchmark: cold-process CLI workloads with a traced layer breakdown.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-L12 --seed 1 --seconds 40 --trace 0

Each repetition runs every CLI call of the workload in a fresh interpreter
(perfbench/worker.py), because the package caches its tables per process
and a CLI user pays the cold cost on every call.  Repetitions continue
while the next one still fits in --seconds; timings are medians over them.
With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it reports the per-layer metrics, taken from
traced repetitions interleaved with untraced ones so the tracing overhead
is measured in the same run.  A full record (environment, every sample,
every check, the spans of the last traced repetition) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import merge
from workloads import MC_LABELS, WORKLOADS, Call, Check, Workload, check_call, events

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# a hung call is killed in time for the whole run to end within 180 s
RUN_LIMIT_S = 170.0


def run_call(call: Call, trace: bool, deadline: float) -> dict:
    """One CLI call in a fresh interpreter, killed at the monotonic deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), "1" if trace else "0", *call.argv],
                          capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {call.argv} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("ready") - spawned
    record["label"] = call.label
    return record


def run_rep(workload: Workload, calls: list[Call], trace: bool, checks: list[Check],
            deadline: float) -> dict:
    records = [run_call(call, trace, deadline) for call in calls]
    for call, record in zip(calls, records):
        checks.extend(check_call(workload, call, record["output"], record["rc"]))
    return {"trace": trace, "calls": records,
            "wall_s": sum(r["wall_s"] for r in records),
            "rss_mb": max(r["rss_mb"] for r in records)}


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, summed over its calls."""
    out: dict[str, float] = {f"simulate.{label}.events_per_s": 0.0 for label in MC_LABELS}
    for record in rep["calls"]:
        layers = record["layers"]
        merge(out, layers)
        if layers["simulate.time_s"] > 0:
            out[f"simulate.{record['label']}.events_per_s"] = (
                layers["simulate.events"] / layers["simulate.time_s"])
    return out


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "raisepeel").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(root: Path, probe: dict) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": probe["blas_threads"],
        "process_threads": probe["threads"],
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny problem sizes, for the harness self-test only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "raisepeel" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a raisepeel source checkout "
              "(src/raisepeel and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    calls = workload.calls(args.seed, args.toy)
    deadline = time.monotonic() + RUN_LIMIT_S
    # untimed: compiles bytecode and warms the file cache once per run
    probe = run_call(Call("probe", ("--version",)), False, deadline)

    checks: list[Check] = []
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    while True:
        rep_start = time.monotonic()
        plain.append(run_rep(workload, calls, False, checks, deadline))
        if args.trace:
            traced.append(run_rep(workload, calls, True, checks, deadline))
        now = time.monotonic()
        if now - started + (now - rep_start) > args.seconds:
            break

    hard = [c for c in checks if c.hard]
    hard_failed = [c.name for c in hard if not c.passed]
    sigma_misses = [c.name for c in checks if not c.hard and not c.passed]

    values: dict[str, float] = {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": statistics.median(r["setup_s"] for rep in plain for r in rep["calls"]),
        "peak_rss_mb": median_of(plain, "rss_mb"),
    }
    extras: dict[str, tuple[float, str]] = {
        "check_fail_ratio": ((len(hard_failed) + len(sigma_misses)) / len(checks), "ratio"),
        "checks_attempted": (len(checks), "count"),
    }
    if args.workload == "mc":
        sim = [r for rep in plain for r in rep["calls"]]
        extras["events_per_s"] = (sum(events(r["output"]) for r in sim)
                                  / sum(r["wall_s"] for r in sim), "1/s")
    if traced:
        per_rep = [layer_metrics(rep) for rep in traced]
        for key in per_rep[0]:
            values[key] = statistics.median(m[key] for m in per_rep)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - values["wall_s"]
        extras["trace.wall_s"] = (median_of(traced, "wall_s"), "s")
        # per repetition the self times of all spans add up to its traced wall time
        extras["trace.self_total_s"] = (statistics.median(
            sum(v for k, v in m.items() if k.startswith("self.")) for m in per_rep), "s")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not hard_failed,
        "attempted": len(hard),
        "failed": len(hard_failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "calls": [list(c.argv) for c in calls],
        "environment": environment(root, probe),
        "result": result,
        "values": values,
        "extras": extras,
        "hard_failed": hard_failed,
        "sigma_misses": sigma_misses,
        "repetitions": [{"trace": rep["trace"], "wall_s": rep["wall_s"], "rss_mb": rep["rss_mb"],
                         "calls": [{k: r[k] for k in ("label", "setup_s", "wall_s", "rc", "rss_mb")}
                                   for r in rep["calls"]]}
                        for rep in plain + traced],
        "spans": {r["label"]: r["spans"] for r in traced[-1]["calls"]} if traced else None,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    suffix = "-toy" if args.toy else ""
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} repetitions"
          + (f" + {len(traced)} traced" if traced else ""))
    shown = spec["end_to_end"] + (spec["per_layer"] if traced else [])
    for name, value, unit in ([(m["name"], values[m["name"]], m["unit"]) for m in shown]
                              + [(k, v, u) for k, (v, u) in extras.items()]):
        print(f"  {name:32s} {value:.6g} {unit}")
    for name in sorted(set(hard_failed)):
        print(f"  FAILED {name}")
    for name in sorted(set(sigma_misses)):
        print(f"  3-sigma miss (a finding, not a hard failure): {name}")
    print(f"  record written to {out_path.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
