"""Digest of everything the CLI prints, one line per run.

Each line is a run's label, its exit code and the sha256 of its stdout and
of its stderr.  The runs are every ``docs/fixtures`` file under every
subcommand that takes an input (the ones a subcommand rejects included),
at r in {2, 3, 5, 6, 7, 9, 11}, in both formats, and a fixed list of
command lines: one per class of rejected argv, and well-formed variants
(``--opt=value``, prefixes, repeats, options in any order, ``-h``).  Those
lines hash only the last stderr line, the error line, since the usage lines
above it may be wrapped to the terminal's width; a help text counts by its
exit code alone.  The ``selftest`` runs at r in {2, 3, 5, 6, 7}, in JSON,
follow, one line per property and one for the run's exit code, so a change
to the property registry shows as exactly the lines of the properties it
adds, drops or changes.  A ``verlinde`` sweep follows: r in {3, 5, 6, 7},
genus 0-8, classes 0.3 ± i·t for t in {0, 1, 2, 3, 4, 5, 8, 30, 230, 500},
with no points and with each of two pairs.  It reaches every path of the
closed form: the direct sum, its fallback to logarithms when a power of a
ratio overflows (the pair 41/3, −7/5 at high genus, where some values print
and others are refused), and the far path where {rβ} leaves double range.
With ``--seed N`` the lines also cover the benchmark documents of that seed
(``perfbench/workloads.generate``, every workload, documents the benchmark
does not run left out), at their own r, in both formats.

The fixtures and the benchmark documents come from the checkout holding
this script; the package comes from ``--src`` (default: the same
checkout's ``src``).  So two runs that differ only in ``--src`` compare two
versions of the program on the same inputs, and an empty ``diff`` of their
outputs means the CLI's bytes did not change::

    python tools/cli_digest.py --seed 1 > new.txt
    python tools/cli_digest.py --seed 1 --src ../parent/src > old.txt
    diff old.txt new.txt

With ``--digits N`` each stdout is hashed after rounding every float it
prints to the N-th significant digit of M = max(1, the largest magnitude
that run prints), so to a multiple of 10^(e + 1 − N) with 10^e ≤ M < 10^(e+1):
the floats are, in a JSON document, every string field that parses as a
finite float (re-emitted with sorted keys), and in any other output, such
as a table, every token with a decimal point or an exponent.  The scale
is the run's, not each value's, as the package's tolerances are
tol·max(1, |x|): a value that is rounding noise beside the run's largest
one (an imaginary part of 1e-16 beside a real 1, or every number of a
Z = 0) rounds to 0.  A change expected to move only the last bits of some
values (a summation order, say) then shows at, say, ``--digits 12`` only
the runs where a moved value straddles a rounding boundary, while the
lines that differ without ``--digits`` count the runs whose values moved.

Every run is in process, through ``unrolledsl2.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("flink", "zinv", "tqftdim", "hh0", "verlinde")
ROOT_ORDERS = (2, 3, 5, 6, 7, 9, 11)
SELFTEST_ROOTS = (2, 3, 5, 6, 7)
FORMATS = ("table", "json")


FLOAT_TOKEN = re.compile(r"(?<!\S)[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?(?!\S)")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite(token: str) -> float | None:
    try:
        x = float(token)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def rounded(text: str, digits: int) -> str:
    """``text`` with every float it prints rounded to the ``digits``-th
    significant digit of max(1, its largest magnitude) (see the module
    docstring)."""

    def walk(node, at):
        if isinstance(node, dict):
            return {key: walk(value, at) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(value, at) for value in node]
        if isinstance(node, str) and _finite(node) is not None:
            return at(node)
        return node

    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    found: list[float] = []
    if doc is None:
        found = [_finite(m.group()) for m in FLOAT_TOKEN.finditer(text)]
    else:
        walk(doc, lambda token: found.append(_finite(token)))
    top = max([1.0] + [abs(x) for x in found if x is not None])
    exponent = math.floor(math.log10(top)) + 1 - digits

    def at(token: str) -> str:
        x = _finite(token)
        return token if x is None else f"{round(x / 10.0**exponent)}e{exponent}"

    if doc is None:
        return FLOAT_TOKEN.sub(lambda m: at(m.group()), text)
    return json.dumps(walk(doc, at), indent=2, sort_keys=True) + "\n"


def call(main, argv: list) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process CLI call; an
    uncaught exception counts as exit 1 with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a traceback is an output to compare
            code = 1
            err.write(traceback.format_exc().splitlines()[-1] + "\n")
    return code, out.getvalue(), err.getvalue()


def digest(main, argv: list, last_err_line: bool = False, digits: int | None = None) -> str:
    """``exit=<code> out=<sha> err=<sha>`` of one in-process CLI call
    (:func:`call`), or ``err_last=<sha>`` of stderr's last line only.  With
    ``digits``, stdout is hashed :func:`rounded` to that many significant
    digits."""
    code, stdout, stderr = call(main, argv)
    stdout = stdout if digits is None else rounded(stdout, digits)
    if last_err_line:
        tail = (stderr.splitlines() or [""])[-1]
        return f"exit={code} out={_sha(stdout)} err_last={_sha(tail)}"
    return f"exit={code} out={_sha(stdout)} err={_sha(stderr)}"


def selftest_lines(main, digits: int | None = None):
    """One line per property of each ``selftest`` run, after a line with
    the run's exit code; a run whose stdout is not the JSON report gets
    one line hashing it instead.  With ``digits``, a failure's detail is
    hashed :func:`rounded`."""
    for r in SELFTEST_ROOTS:
        label = f"selftest r={r}"
        code, stdout, stderr = call(main, ["selftest", "--r", str(r), "--format", "json"])
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError):
            yield f"{label} exit={code} out={_sha(stdout)} err={_sha(stderr)}"
            continue
        yield f"{label} exit={code} err={_sha(stderr)}"
        for res in results:
            detail = res["detail"] if digits is None else rounded(res["detail"], digits)
            yield f"{label} {res['name']}: passed={res['passed']} detail={_sha(detail)}"


VERLINDE = "docs/fixtures/verlinde_g1.json"
ARGVS = {  # label -> argv of the command-line section
    "no command": [],
    "unknown command": ["frob", "--r", "5"],
    "missing --r": ["flink", "--input", "x.json"],
    "non-integer --r": ["hh0", "--r", "five"],
    "non-integer --jobs": ["zinv", "--r", "5", "--jobs", "2.0"],
    "non-integer --seed": ["selftest", "--r", "3", "--seed", "x"],
    "bad --format": ["flink", "--r", "5", "--format", "xml"],
    "bad --tol": ["verlinde", "--r", "5", "--tol=-1"],
    "non-numeric --tol": ["verlinde", "--r", "5", "--tol", "tiny"],
    "unknown option": ["tqftdim", "--r", "5", "--color", "red"],
    "ambiguous option": ["tqftdim", "--r", "5", "--=json"],
    "option without its value": ["flink", "--input", "x.json", "--r"],
    "extra positional": ["flink", "--r", "5", "x.json"],
    "--input=--": ["verlinde", "--r", "5", "--input=--"],
    "negative --r": ["verlinde", "--r", "-1", "--input", VERLINDE],
    "--r=5": ["verlinde", "--r=5", "--input", VERLINDE],
    "--jobs=2": ["verlinde", "--r", "5", "--input", VERLINDE, "--jobs=2"],
    "--inp --fo": ["verlinde", "--r", "5", "--inp", VERLINDE, "--fo", "json"],
    "repeated options": ["verlinde", "--r", "3", "--format=json", "--input", "x.json",
                         "--r", "5", "--input", VERLINDE, "--format", "table"],
    "options before --r": ["verlinde", "--format", "json", "--tol", "1e-6", "--jobs", "2",
                           "--input", VERLINDE, "--r", "7"],
    "-h": ["-h"],
    "flink -h": ["flink", "-h"],
    "selftest --help": ["selftest", "--r", "3", "--help"],
}


SWEEP_ROOTS = (3, 5, 6, 7)
SWEEP_GENERA = range(9)
SWEEP_IMAGINARY = (0, 1, 2, 3, 4, 5, 8, 30, 230, 500)
SWEEP_POINTS = ([], ["2/5", "-1/5"], ["41/3", "-7/5"])


def verlinde_sweep(workdir: Path):
    """(label, argv) of every ``verlinde`` sweep run, each document written
    to ``workdir`` under a name of its own."""
    for r in SWEEP_ROOTS:
        for genus in SWEEP_GENERA:
            for im in sorted({t * s for t in SWEEP_IMAGINARY for s in (1, -1)}):
                for j, points in enumerate(SWEEP_POINTS):
                    doc = {"genus": genus, "beta": {"re": "0.3", "im": str(im)},
                           "points": points}
                    name = f"verlinde-r{r}-g{genus}-i{im}-p{j}.json"
                    (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
                    yield (f"sweep verlinde r={r} genus={genus} beta=0.3{im:+d}i "
                           f"points=[{', '.join(points)}]",
                           ["verlinde", "--r", str(r), "--input", name, "--format", "json"])


def argv_digest(main, argv: list, digits: int | None = None) -> str:
    """``exit=<code> out=<sha> err_last=<sha>`` of one command line, or
    ``exit=<code>`` alone for a help text."""
    line = digest(main, argv, last_err_line=True, digits=digits)
    return line.split()[0] if any(t in ("-h", "--help") for t in argv) else line


def fixture_runs():
    """(label, argv) of every fixture run; input paths relative to ROOT."""
    for path in sorted((ROOT / "docs" / "fixtures").glob("*.json")):
        rel = str(path.relative_to(ROOT))
        for sub in SUBCOMMANDS:
            for r in ROOT_ORDERS:
                for fmt in FORMATS:
                    yield f"{rel} {sub} r={r} {fmt}", [sub, "--r", str(r), "--input", rel,
                                                      "--format", fmt]


def benchmark_runs(seed: int, workdir: Path):
    """(label, argv) of every benchmark document of ``seed`` that the
    benchmark runs, each written to ``workdir`` under a name of its own."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        for i, entry in enumerate(workloads.generate(workload, seed)):
            if "not_run" in entry:
                continue
            name = f"{workload}-s{seed}-{i:04d}.json"
            (workdir / name).write_text(json.dumps(entry["doc"]), encoding="utf-8")
            for fmt in FORMATS:
                yield (f"{workload} seed={seed} #{i} {entry['sub']} r={entry['r']} {fmt}",
                       [entry["sub"], "--r", str(entry["r"]), "--input", name,
                        "--format", fmt])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the unrolledsl2 package to run")
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="also digest the benchmark documents of this seed (repeatable)")
    parser.add_argument("--digits", type=int, default=None,
                        help="hash stdout with its floats rounded to this many significant "
                             "digits of max(1, the run's largest magnitude)")
    args = parser.parse_args(argv)
    if args.digits is not None and args.digits < 1:
        parser.error("--digits must be at least 1")
    digits = args.digits
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import unrolledsl2.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported unrolledsl2 from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    lines = []
    os.chdir(ROOT)  # fixture paths and the workload generator are relative to it
    for label, run in fixture_runs():
        lines.append(f"{label} {digest(cli.main, run, digits=digits)}")
    for label, run in ARGVS.items():
        lines.append(f"argv {label}: {argv_digest(cli.main, run, digits)}")
    lines.extend(selftest_lines(cli.main, digits))
    with tempfile.TemporaryDirectory() as tmp:
        runs = list(verlinde_sweep(Path(tmp)))
        os.chdir(tmp)  # relative input names, so no path reaches the output
        for label, run in runs:
            lines.append(f"{label} {digest(cli.main, run, digits=digits)}")
        os.chdir(ROOT)
        for seed in args.seed:
            runs = list(benchmark_runs(seed, Path(tmp)))
            os.chdir(tmp)  # relative input names, so no path reaches the output
            for label, run in runs:
                lines.append(f"{label} {digest(cli.main, run, digits=digits)}")
            os.chdir(ROOT)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
