"""One CLI call in a fresh interpreter, as a user would run it.

Usage: python3 perfbench/worker.py <trace 0|1> <raisepeel argv...>
(with src on PYTHONPATH).  Prints one JSON line: the monotonic instant
the CLI became importable, the call's wall time, exit code, peak RSS,
the captured CLI output and, when traced, the layer metrics and spans.
"""

import time

import raisepeel.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the set-up instant on purpose)
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return out


def main() -> None:
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    tracer = None
    if traced:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        if tracer is None:
            rc = raisepeel.cli.main(argv)
        else:
            rc = tracer.run("cli.main", raisepeel.cli.main, argv)
        wall = time.perf_counter() - start
    record = {
        "ready": READY,
        "wall_s": wall,
        "rc": rc,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": len(os.listdir("/proc/self/task")),
        "blas_threads": blas_threads(),
        "output": captured.getvalue(),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()
