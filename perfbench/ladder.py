"""Scaling ladders behind the ROADMAP baseline table (not gated).

Run from the root of a checkout::

    python3 perfbench/ladder.py [--json perfbench/BENCH_ladder_seed.json]

Rungs:

* ``zinv`` on the lens chain (``docs/fixtures/lens_7_2.json``) for r = 3 ... 11;
* ``flink`` on braid closures with 3, 4 and 5 strands at r = 5;
* ``tqftdim`` (dense grid) against ``hh0`` by genus, at r = 5 and 7;
* ``selftest`` at r = 5, 7 and 9.

Each rung runs ``unrolledsl2.cli.main`` once in its own child process with
a wall-time limit and an address-space limit set on that child only, so a
rung that runs out of memory or time is reported as such instead of
stopping the ladder.  The table prints wall time, peak RSS and the exit
code (or the limit that ended the rung).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import child_env  # noqa: E402

RUNG_TIME_S = 120
RUNG_ADDRESS_SPACE = 3 << 30


def rungs(tmp: Path) -> list:
    """(row, label, argv) for every rung; documents are written to ``tmp``."""

    def doc_file(name: str, doc: dict) -> str:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    out = []
    lens = str(workloads.FIXTURE_DIR / "lens_7_2.json")
    for r in (3, 5, 6, 7, 9, 10, 11):
        out.append(("lens chain (4,2), zinv", f"r={r}",
                    ["zinv", "--r", str(r), "--input", lens]))
    for name, strands in (("figure8_3", 3), ("closure4", 4), ("closure5", 5)):
        path = doc_file(name, workloads.knot_doc(name, workloads.KNOT_PALETTE[0]))
        out.append(("braid closure, flink r=5", f"{strands} strands",
                    ["flink", "--r", "5", "--input", path]))
    rng = random.Random("ladder")
    for r in (5, 7):
        for genus in range(2, 7):
            doc, _ = workloads.spine_doc(rng, r, genus, 0)
            path = doc_file(f"spine_r{r}_g{genus}", doc)
            cells = workloads.grid_cells(doc, r)
            out.append((f"grid vs HH0, r={r}", f"g={genus} grid ({cells:.1e} cells)",
                        ["tqftdim", "--r", str(r), "--input", path]))
            out.append((f"grid vs HH0, r={r}", f"g={genus} hh0",
                        ["hh0", "--r", str(r), "--input", path]))
    for r in (5, 7, 9):
        out.append(("selftest", f"r={r}", ["selftest", "--r", str(r)]))
    return out


def child(argv: list) -> int:
    """Rung body: one timed CLI call; prints a JSON record."""
    t0 = time.perf_counter()
    import unrolledsl2.cli as cli

    import_s = time.perf_counter() - t0
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except MemoryError:
            code, err = "MemoryError", io.StringIO("MemoryError")
    wall = time.perf_counter() - t0
    tail = (out.getvalue() + err.getvalue()).strip().splitlines()
    print(json.dumps({
        "wall_s": wall, "import_s": import_s, "exit": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "last_line": tail[-1][:160] if tail else "",
    }))
    return 0


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (RUNG_ADDRESS_SPACE, RUNG_ADDRESS_SPACE))


def run_rung(argv: list, env: dict) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(argv)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUNG_TIME_S, preexec_fn=limit_child)
    except subprocess.TimeoutExpired:
        return {"outcome": f"time limit {RUNG_TIME_S} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"outcome": f"child exit {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:] or ''}"}
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if rec["exit"] == "MemoryError":
        rec["outcome"] = f"MemoryError under {RUNG_ADDRESS_SPACE >> 30} GiB address space"
    else:
        rec["outcome"] = f"exit {rec['exit']}"
    return rec


def main() -> int:
    parser = argparse.ArgumentParser(description="ROADMAP scaling ladders")
    parser.add_argument("--json", help="also write the records to this file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(json.loads(args.child))
    src = Path("src").resolve()
    if not (src / "unrolledsl2" / "cli.py").is_file():
        print("run from the root of a checkout (src/unrolledsl2 is missing)", file=sys.stderr)
        return 2
    env = child_env(src)
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(),
            "rung_limits": {"wall_s": RUNG_TIME_S, "address_space_gib": RUNG_ADDRESS_SPACE >> 30}}
    print(f"# ladder: nproc={host['nproc']} python={host['python']} "
          f"limits {RUNG_TIME_S} s / {RUNG_ADDRESS_SPACE >> 30} GiB per rung, BLAS threads 1")
    print("| ladder | rung | wall s | peak RSS MB | outcome |")
    print("|---|---|---|---|---|")
    records = []
    work = Path("perfbench") / "_work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for row, label, argv in rungs(Path(tmp)):
            rec = run_rung(argv, env)
            wall = f"{rec['wall_s']:.3f}" if "wall_s" in rec else "-"
            rss = f"{rec['peak_rss_mb']:.0f}" if "peak_rss_mb" in rec else "-"
            detail = rec["outcome"]
            if row == "selftest" and rec.get("last_line"):
                detail += f" ({rec['last_line']})"
            print(f"| {row} | {label} | {wall} | {rss} | {detail} |", flush=True)
            records.append({"ladder": row, "rung": label, "argv": argv, **rec})
    if args.json:
        Path(args.json).write_text(json.dumps({"host": host, "rungs": records}, indent=1)
                                   + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
