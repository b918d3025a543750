"""Cold-start wall time of the CLI: one fresh ``python -m unrolledsl2`` per call.

Prints one row per subcommand and ``docs/fixtures`` document it reads (at
r = 5, table format), one per rejected command line that exits 2 (a bad
``--r``, a missing ``--input`` file), the bare ``import unrolledsl2.cli``
that every call starts with (what ``perfbench``'s ``setup_s`` times), and
the ``python -c pass`` floor.
Each row is the median, with the quartiles, of ``--runs`` fresh processes;
the rows are timed round-robin, so drift of the host spreads over all of
them.  The package comes from ``--src`` (default: this checkout's ``src``)
and the environment is inherited, so a run that caches no bytecode
(``PYTHONDONTWRITEBYTECODE``) times the compilation of every module a call
imports::

    python tools/cold_start.py --runs 21
    python tools/cold_start.py --runs 21 --src ../parent/src

With ``--base DIR`` every row times the two ``src`` trees back to back in
each round, in alternating order, and prints both medians, the median and
quartiles of the paired differences (``--src`` minus ``--base``) and the
number of rounds ``--src`` was faster.  Drift between two separate runs
can exceed the few milliseconds a change of the start path is worth; a
paired difference cancels most of it::

    python tools/cold_start.py --runs 21 --base ../parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "docs" / "fixtures"


def _commands(doc: dict) -> tuple:
    """The subcommands that read a fixture, told apart by its fields."""
    if "genus" in doc:
        return ("verlinde",)
    if "vertices" in doc:
        return ("tqftdim", "hh0")
    return ("zinv",) if "meridians" in doc else ("flink",)


def _rows() -> list:
    rows = [("python -c pass", ["-c", "pass"], 0),
            ("import unrolledsl2.cli", ["-c", "import unrolledsl2.cli"], 0)]
    verlinde = str(FIXTURES / "verlinde_g1.json")
    for label, args in (("exit 2: --r x", ["verlinde", "--r", "x", "--input", verlinde]),
                        ("exit 2: missing --input", ["hh0", "--r", "5", "--input",
                                                     str(FIXTURES / "missing.json")])):
        rows.append((label, ["-m", "unrolledsl2", *args], 2))
    for path in sorted(FIXTURES.glob("*.json")):
        for sub in _commands(json.loads(path.read_text(encoding="utf-8"))):
            rows.append((f"{sub} {path.stem}",
                         ["-m", "unrolledsl2", sub, "--r", "5", "--input", str(path)], 0))
    return rows


def _time(label: str, argv: list, want: int, env: dict) -> float:
    """Wall seconds of one fresh process; exits if its code is not ``want``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != want:
        sys.exit(f"{label}: exit {proc.returncode}, expected {want} with {env['PYTHONPATH']}\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return elapsed


def _ms(samples: list) -> tuple:
    """(q1, median, q3) of ``samples``, in ms."""
    return tuple(1000 * x for x in statistics.quantiles(samples, n=4))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--base", type=Path, help="a second src tree to pair every row with")
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args()
    trees = [args.src] + ([args.base] if args.base else [])
    envs = [{**os.environ, "PYTHONPATH": str(tree.resolve())} for tree in trees]
    rows = _rows()
    times: list = [[[] for _ in trees] for _ in rows]
    for round_ in range(args.runs):
        for (label, argv, want), samples in zip(rows, times):
            for k in (range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))):
                samples[k].append(_time(label, argv, want, envs[k]))
    if not args.base:
        print(f"# median [q1, q3] ms of {args.runs} fresh processes, src={args.src}")
        for (label, _, _), (samples,) in zip(rows, times):
            q1, median, q3 = _ms(samples)
            print(f"{label:<26} {median:7.1f}  [{q1:.1f}, {q3:.1f}]")
        return 0
    print(f"# {args.runs} paired rounds, ms: medians of src={args.src} and base={args.base},")
    print("# median [q1, q3] of the paired differences src - base, rounds src was faster")
    for (label, _, _), (new, old) in zip(rows, times):
        q1, median, q3 = _ms([a - b for a, b in zip(new, old)])
        wins = sum(a < b for a, b in zip(new, old))
        print(f"{label:<26} {_ms(new)[1]:7.1f} {_ms(old)[1]:7.1f}  {median:+7.1f}  "
              f"[{q1:+.1f}, {q3:+.1f}]  {wins}/{args.runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
