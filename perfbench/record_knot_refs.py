"""Record the knot references that the links workload checks against.

Knots have no closed form here, so their F' values are recorded once from
the code under test and committed as ``perfbench/knot_refs.json``.  Run
from the root of a checkout::

    python3 perfbench/record_knot_refs.py

Each case runs through ``unrolledsl2.cli.main`` at the default tolerance;
a case that exits 1 there (the conditioning defect of ROADMAP item 3) is
recorded at the first looser ``--tol`` that succeeds, and the tolerance is
stored with the value so the check widens accordingly.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path("src").resolve()))

import workloads  # noqa: E402
from oracles import KNOT_REFS  # noqa: E402


def cases():
    for name, r in workloads.KNOT_CASES:
        for color in workloads.KNOT_PALETTE:
            doc = workloads.knot_doc(name, color)
            if workloads.flink_tensor_bytes(doc, r) <= workloads.TENSOR_BYTES_BUDGET:
                yield workloads.knot_ref_key(name, r, color), r, doc
    trefoil = workloads.load_fixture("trefoil")
    for r in (3, 5, 7):
        yield workloads.knot_ref_key("fixture_trefoil", r, trefoil["colors"]["K"]), r, trefoil


def main() -> int:
    import unrolledsl2.cli as cli

    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, r, doc in cases():
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for tol in (1e-9, 1e-7, 1e-5, 1e-3):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["flink", "--r", str(r), "--input", str(path),
                                     "--format", "json", "--tol", repr(tol)])
                if code == 0:
                    res = json.loads(out.getvalue())
                    refs[key] = {"F_re": res["F_re"], "F_im": res["F_im"], "tol": tol}
                    print(f"{key}: tol {tol:g}", flush=True)
                    break
            else:
                print(f"{key}: no reference", flush=True)
    KNOT_REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
