"""The committed digest of everything the CLI prints.

``docs/cli_digest.txt`` is the output of ``python tools/cli_digest.py
--digits 12``: one line per run (every fixture under every subcommand,
the command-line cases, ``selftest`` and the ``verlinde`` sweep) with its
exit code and the hashes of its output.  A change that means to change
output regenerates the file and says in CHANGES.md which lines changed and
why.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGEST = ROOT / "docs" / "cli_digest.txt"
SHOWN = 20  # labels listed per kind of difference


def _by_label(text: str) -> dict[str, str]:
    """Each digest line's hashes by its run's label."""
    lines = {}
    for line in text.splitlines():
        match = re.fullmatch(r"(.*?) ((?:exit|passed)=.*)", line)
        assert match, f"not a digest line: {line!r}"
        lines[match.group(1)] = match.group(2)
    return lines


def test_cli_output_matches_the_committed_digest():
    # the tool changes its working directory and sys.path, so it runs in a
    # child process
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digest.py"), "--digits", "12"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    want, got = _by_label(DIGEST.read_text(encoding="utf-8")), _by_label(proc.stdout)
    report = []
    for kind, labels in (
        ("differ", [label for label in want if label in got and got[label] != want[label]]),
        ("are missing", [label for label in want if label not in got]),
        ("are extra", [label for label in got if label not in want]),
    ):
        if labels:
            report.append(f"{len(labels)} runs {kind}:")
            report += [f"  {label}" for label in labels[:SHOWN]]
            if len(labels) > SHOWN:
                report.append(f"  ... and {len(labels) - SHOWN} more")
    assert not report, "\n".join([
        "the CLI output differs from docs/cli_digest.txt.",
        *report,
        "Floats are hashed rounded to 12 significant digits of each run's largest "
        "magnitude, so a change of summation order can move a value across a "
        "rounding boundary. Check such a change with the full-precision diff "
        "against the parent (tools/cli_digest.py run once with --src on the "
        "parent's src, once on this tree); never widen --digits. An intended "
        "change of output regenerates the file with "
        "`python tools/cli_digest.py --digits 12 > docs/cli_digest.txt`.",
    ])
