"""Fresh-process document runner for the benchmark.

Usage::

    python3 perfbench/worker.py MANIFEST RESULT

``MANIFEST`` (written by ``run.py``) lists CLI argument vectors; the worker
imports ``unrolledsl2.cli`` (timing the import), warms up, then calls
``cli.main(argv)`` in process, one document at a time in a closed loop with
one client.  It runs the manifest's number of whole passes over the list,
so every run of a seed does the same work.  With ``"trace": true`` it then reruns one pass with ``--jobs 2`` and
one pass under :mod:`tracer`.  Latencies, exit codes, outputs, peak RSS and
the trace summary go to ``RESULT`` as JSON; checking them is left to the
parent so that nothing but the program runs between the timers.

The parent sets ``PYTHONPATH`` to the checkout's ``src`` and pins BLAS
threads to 1 in the environment before this process starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def call(main, argv: list) -> tuple:
    """One in-process CLI invocation: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a traceback is a result to report
            code = 1
            err.write("traceback: " + traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


def run_pass(main, argvs: list, outputs: list) -> dict:
    """Run every document once; record outputs the first time, compare after."""
    lat, codes, mismatched = [], [], 0
    t0 = time.perf_counter()
    for i, argv in enumerate(argvs):
        elapsed, code, out, err = call(main, argv)
        lat.append(elapsed)
        codes.append(code)
        if outputs[i] is None:
            outputs[i] = (out, err)
        elif outputs[i][0] != out:
            mismatched += 1
    return {"wall_s": time.perf_counter() - t0, "latency_s": lat, "exit": codes,
            "mismatched": mismatched}


def blas_threads():
    """Threads OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def with_jobs(argv: list, jobs: int) -> list:
    argv = list(argv)
    argv[argv.index("--jobs") + 1] = str(jobs)
    return argv


def main() -> int:
    manifest_path, result_path = sys.argv[1], sys.argv[2]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    t0 = time.perf_counter()
    import unrolledsl2.cli as cli
    import_s = time.perf_counter() - t0
    src = Path(manifest["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker imported unrolledsl2 from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    argvs = manifest["argv"]
    for i in manifest["warmup"]:
        call(cli.main, argvs[i])
    outputs = [None] * len(argvs)
    passes = [run_pass(cli.main, argvs, outputs) for _ in range(manifest["passes"])]
    result = {
        "import_s": import_s,
        "passes": passes,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": blas_threads(),
            "nproc": os.cpu_count(),
        },
    }
    if manifest["trace"]:
        from tracer import Tracer

        jobs2 = run_pass(cli.main, [with_jobs(a, 2) for a in argvs], outputs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(tracer.per_document(cli.main), argvs, outputs)
        finally:
            tracer.uninstall()
        tracer.write_spans(manifest["spans"])
        result["jobs2"] = jobs2
        result["traced"] = traced
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
