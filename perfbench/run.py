"""The unrolledsl2 benchmark: three CLI workloads with checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table

Each workload (see :mod:`workloads`) is a seeded mix of JSON documents fed
to the real entry point ``unrolledsl2.cli.main(argv)``, in process, one
document at a time in a closed loop with one client: one fresh worker
process (:mod:`worker`), BLAS threads pinned to 1, ``--jobs 1``.  The
program receives only the generated documents.  Every output is checked
outside the timed interval against an independent oracle (:mod:`oracles`).

``--trace 0`` prints the end-to-end metrics:

``setup_s``        median time to import ``unrolledsl2.cli`` in a fresh process
``docs_per_s``     documents completed per second of timed wall time
``latency_p50_s``  median wall time of one ``main(argv)`` call
``latency_p90_s``  90th percentile of the same
``peak_rss_mb``    ``ru_maxrss`` of the worker process
``ok_frac``        documents with exit code 0 and a passing check / attempted

``--trace 1`` reruns the mix with every layer wrapped (:mod:`tracer`) and
prints the per-layer metrics; spans are written to
``perfbench/_work/spans-<workload>-s<seed>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when an output fails its oracle, differs between passes, or a
document fails in any way other than the seed's known defect (exit 1 with
``NotScalarError`` on a ``flink`` document in the ill-conditioned range, see
:func:`in_defect_domain`); known-defect documents still count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from oracles import Checker  # noqa: E402

WORK = Path("perfbench") / "_work"
SETUP_PROBES = 6  # fresh-process imports timed before and again after the worker
RUN_LIMIT_S = 170  # the whole invocation must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import unrolledsl2.cli as c; "
    "d = time.perf_counter() - t; print(repr(d)); print(c.__file__)"
)
KNOWN_DEFECT = "NotScalarError"
# Wall seconds of one pass of each workload's mix with the seed code on a
# 2-vCPU x86-64 host (Python 3.11, NumPy 2.4).  A run makes
# seconds // PASS_S whole passes (at least one), a number that does not
# depend on timing, so every run of a seed attempts the same documents and
# fails the same ones.
PASS_S = {"surgery": 6.9, "links": 8.6, "spines": 3.85}


def in_defect_domain(entry: dict) -> bool:
    """A flink document where NotScalarError is the seed's known defect."""
    if entry["sub"] != "flink":
        return False
    crossings = sum(sl["slice"] == "braid" for sl in entry["doc"]["diagram"]["width-changes"])
    return workloads.ill_conditioned(entry["r"], crossings)


# Where each workload's time is predicted to go (the layer predictions in README.md).
PREDICTED_DOMINANT = {
    "surgery": ("diagram",),
    "links": ("diagram",),
    "spines": ("tqftdim", "cli", "jsonio"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def setup_samples(src: Path, env: dict, warm: bool) -> list:
    """Import times of unrolledsl2.cli, each in a fresh interpreter.

    With ``warm`` one more import runs first, untimed.
    """
    samples = []
    for i in range(SETUP_PROBES + warm):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing unrolledsl2.cli failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split("\n")[:2]
        if src not in Path(path).resolve().parents:
            raise BenchError(f"unrolledsl2 imported from {path}, not from {src}")
        if i or not warm:  # the first import also compiles bytecode; users pay that once
            samples.append(float(seconds))
    return samples


def run_worker(manifest: dict, workdir: Path, env: dict, deadline: float) -> dict:
    manifest_path, result_path = workdir / "manifest.json", workdir / "result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(manifest_path),
                             str(result_path)], env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the run time limit") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def quantile(values: list, q: int) -> float:
    """q-th decile (statistics.quantiles, n=10)."""
    return statistics.quantiles(values, n=10)[q - 1]


class Verdict:
    """Per-document outcomes of the output checks."""

    def __init__(self, docs: list, result: dict):
        checker = Checker()
        self.failed_docs: set = set()
        self.defects: list = []
        self.wrong: list = []
        self.near_zero = 0
        self.route_gaps: list = []
        first_pass = result["passes"][0]["exit"]
        for i, entry in enumerate(docs):
            out, err = result["outputs"][i]
            code = first_pass[i]
            label = f"{entry['sub']} r={entry['r']} {entry['name']}"
            if code != 0:
                self.failed_docs.add(i)
                if code == 1 and KNOWN_DEFECT in err and in_defect_domain(entry):
                    self.defects.append(label)
                else:
                    self.wrong.append(f"{label}: exit {code}: {err.strip()[:300]}")
                continue
            try:
                outcome = checker.check(entry, json.loads(out))
            except (ValueError, KeyError, TypeError) as exc:
                self.failed_docs.add(i)
                self.wrong.append(f"{label}: unreadable output ({exc!r})")
                continue
            self.near_zero += outcome.near_zero
            if outcome.route_gap is not None:
                self.route_gaps.append(outcome.route_gap)
            if outcome.problems:
                self.failed_docs.add(i)
                self.wrong.append(f"{label}: " + "; ".join(outcome.problems))
        runs = [result["passes"]] + [[result[k]] for k in ("jobs2", "traced") if k in result]
        for passes in runs:
            for p in passes:
                if p["exit"] != first_pass:
                    self.wrong.append("exit codes differ between passes")
                if p["mismatched"]:
                    self.wrong.append(f"{p['mismatched']} outputs differ between passes")

    @property
    def correct(self) -> bool:
        return not self.wrong


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list, verdict: Verdict) -> tuple:
    passes = result["passes"]
    lat = [x for p in passes for x in p["latency_s"]]
    attempted = len(lat)
    failed = len(verdict.failed_docs) * len(passes)
    wall = sum(p["wall_s"] for p in passes)
    p90 = quantile(lat, 9)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "docs_per_s": metric(attempted / wall, "1/s"),
        "latency_p50_s": metric(statistics.median(lat), "s"),
        "latency_p90_s": metric(p90, "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "ratio"),
    }
    info = {
        "samples": attempted,
        "beyond_p90": sum(x > p90 for x in lat),
        "passes": len(passes),
        "timed_wall_s": wall,
        "setup_samples": len(setup),
        "failed_frac": failed / attempted,
    }
    return metrics, info, attempted, failed


def per_layer(docs: list, result: dict, verdict: Verdict) -> tuple:
    from tracer import LAYERS

    tr = result["trace"]
    funcs, groups = tr["functions"], tr["groups"]

    def f(name, key):
        return funcs.get(name, {}).get(key, 0)

    untraced = statistics.median(sum(p["latency_s"]) for p in result["passes"])
    last_untraced = sum(result["passes"][-1]["latency_s"])
    traced = sum(result["traced"]["latency_s"])
    jobs2 = sum(result["jobs2"]["latency_s"])
    kirby_terms = sum(e["r"] ** len(e["doc"]["framings"]) for e in docs if e["sub"] == "zinv")
    z_incl = f("invariant.z_invariant", "incl_s")
    braid_calls = f("repcat.braiding", "outer_calls")
    cut_tensors, grids = tr["cut_tensors"], tr["grids"]
    residuals = tr["schur_residuals"]
    layer_self = {
        layer: sum(v["self_s"] for k, v in funcs.items() if k.split(".")[0] == layer)
        for layer in LAYERS
    }
    s, c, ratio = "s", "count", "ratio"
    m = {
        "cli.main.self_s": (f("cli.main", "self_s"), s),
        "cli.build_parser.s": (f("cli.build_parser", "incl_s"), s),
        "jsonio.parse.s": (groups["jsonio.parse"], s),
        "jsonio.emit.s": (groups["jsonio.emit"], s),
        "invariant.z_invariant.calls": (f("invariant.z_invariant", "calls"), c),
        "invariant.kirby_terms": (kirby_terms, c),
        "invariant.z_invariant.self_s": (f("invariant.z_invariant", "self_s"), s),
        "invariant.term_s": (z_incl / kirby_terms if kirby_terms else 0.0, s),
        "invariant.f_prime.self_s": (f("invariant.f_prime", "self_s"), s),
        "invariant.linking.s": (groups["invariant.linking"], s),
        "invariant.not_scalar_errors": (
            funcs.get("repcat.scalar_of", {}).get("errors", {}).get(KNOWN_DEFECT, 0), c),
        "invariant.near_zero_results": (verdict.near_zero, c),
        "invariant.route_gap_rel_max": (max(verdict.route_gaps, default=0.0), ratio),
        "invariant.z_invariant.jobs2_speedup": (last_untraced / jobs2, ratio),
        "diagram.evaluate_cut.calls": (f("diagram.evaluate_cut", "calls"), c),
        "diagram.evaluate_cut.self_s": (f("diagram.evaluate_cut", "self_s"), s),
        "diagram.typecheck.calls": (f("diagram.typecheck", "calls"), c),
        "diagram.typecheck.s": (f("diagram.typecheck", "incl_s"), s),
        "diagram.peak_tensor_elems": (max((t[0] for t in cut_tensors), default=0), "elems"),
        "diagram.tensor_bytes_computed": (sum(t[1] for t in cut_tensors), "bytes"),
        "diagram.schur_residual_rel_max": (max(residuals, default=0.0), ratio),
        "repcat.braiding.calls": (braid_calls, c),
        "repcat.braiding.s": (f("repcat.braiding", "incl_s"), s),
        "repcat.braiding.distinct_ratio": (
            tr["braid_distinct"] / braid_calls if braid_calls else 0.0, ratio),
        "repcat.braiding.inverse_calls": (tr["braid_inverse"], c),
        "repcat.tensor.calls": (f("repcat.tensor", "calls"), c),
        "repcat.tensor.s": (f("repcat.tensor", "incl_s"), s),
        "repcat.make_valpha.calls": (f("repcat.make_valpha", "calls"), c),
        "repcat.make_valpha.s": (f("repcat.make_valpha", "incl_s"), s),
        "repcat.twist_scalar.calls": (f("repcat.twist_scalar", "calls"), c),
        "repcat.twist_scalar.s": (f("repcat.twist_scalar", "incl_s"), s),
        "qscalar.calls": (sum(v["calls"] for k, v in funcs.items() if k.startswith("qscalar.")), c),
        "qscalar.s": (layer_self["qscalar"], s),
        "tqftdim.graded_dimension.calls": (f("tqftdim.graded_dimension", "calls"), c),
        "tqftdim.graded_dimension.self_s": (f("tqftdim.graded_dimension", "self_s"), s),
        "tqftdim.grid_cells": (sum(g[0] for g in grids), c),
        "tqftdim.grid_bytes_computed": (sum(g[0] * g[1] * 24 for g in grids), "bytes"),
        "tqftdim.hh0.calls": (f("tqftdim.hh0_dimension_generic", "calls"), c),
        "tqftdim.hh0.s": (f("tqftdim.hh0_dimension_generic", "incl_s"), s),
        "tqftdim.verlinde.s": (f("tqftdim.verlinde", "incl_s"), s),
        "trace.overhead_frac": (traced / untraced - 1, ratio),
    }
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = (value, s)
    info = {
        "untraced_s": untraced,
        "traced_s": traced,
        "self_sum_s": sum(layer_self.values()),
        "layer_self": layer_self,
        "spans": tr["spans"],
    }
    return {k: metric(v, u) for k, (v, u) in m.items()}, info


def print_report(workload, seed, args, docs, skipped, result, verdict, metrics, info):
    env = result["env"]
    print(f"# workload={workload} seed={seed} seconds={args.seconds} trace={args.trace}")
    print(f"# nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"(pinned via {','.join(BLAS_ENV)}=1) jobs=1 python={env['python']} "
          f"numpy={env['numpy']}")
    print(f"# mix: {len(docs)} documents per pass, {len(skipped)} listed but not run")
    for entry in skipped:
        print(f"not run: {entry['sub']} r={entry['r']} {entry['name']}: {entry['not_run']}")
    for label in sorted(set(verdict.defects)):
        print(f"known defect (counts as failed): {label}")
    for line in verdict.wrong:
        print(f"WRONG: {line}")
    for key, value in info.items():
        if not isinstance(value, dict):
            print(f"# {key} = {value}")
    print(f"# near-zero results (|value| < 1e-9, relative checks vacuous): {verdict.near_zero}")
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")


def print_trace_checks(workload: str, info: dict, metrics: dict) -> None:
    overhead = metrics["trace.overhead_frac"]["value"]
    gap = info["self_sum_s"] / info["untraced_s"] - 1
    verdict = "within" if abs(gap) <= abs(overhead) + 0.02 else "NOT within"
    print(f"# layer self times sum to {info['self_sum_s']:.4f} s vs untraced "
          f"{info['untraced_s']:.4f} s: {gap:+.3f}, {verdict} trace.overhead_frac "
          f"{overhead:+.3f} (+-0.02)")
    ranked = sorted(info["layer_self"].items(), key=lambda kv: -kv[1])
    print("# layer self time: " + ", ".join(f"{k} {v:.3f}s" for k, v in ranked))
    predicted = PREDICTED_DOMINANT[workload]
    top = ranked[0][0]
    if top in predicted:
        print(f"# dominant layer {top}: as predicted ({' / '.join(predicted)})")
    else:
        print(f"# dominant layer {top}: DIFFERS from the prediction ({' / '.join(predicted)})")


def run_workload(args) -> int:
    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "unrolledsl2" / "cli.py").is_file() or not workloads.FIXTURE_DIR.is_dir():
        raise BenchError("run from the root of a checkout: src/unrolledsl2 and "
                         "docs/fixtures are required")
    deadline = time.monotonic() + RUN_LIMIT_S
    all_docs = workloads.generate(args.workload, args.seed)
    docs = [d for d in all_docs if "not_run" not in d]
    skipped = [d for d in all_docs if "not_run" in d]
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        argvs = []
        for i, entry in enumerate(docs):
            path = workdir / f"doc{i:04d}.json"
            path.write_text(json.dumps(entry["doc"]), encoding="utf-8")
            argvs.append([entry["sub"], "--r", str(entry["r"]), "--input", str(path),
                          "--format", "json", "--jobs", "1"])
        warmup = sorted({d["sub"]: i for i, d in enumerate(docs)
                         if d["name"].startswith("fixture")}.values())
        env = child_env(src)
        setup = setup_samples(src, env, warm=True)
        manifest = {
            "src": str(src), "argv": argvs, "warmup": warmup,
            "passes": max(1, int(args.seconds // PASS_S[args.workload])),
            "trace": bool(args.trace),
            "spans": str(WORK / f"spans-{args.workload}-s{args.seed}.tsv.gz"),
        }
        result = run_worker(manifest, workdir, env, deadline)
        # Probes on both sides of the timed passes, so their median spans
        # the run instead of one moment of a host whose speed drifts.
        setup += setup_samples(src, env, warm=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(result["import_s"])
    verdict = Verdict(docs, result)
    metrics, info, attempted, failed = end_to_end(result, setup, verdict)
    if args.trace:
        metrics, tinfo = per_layer(docs, result, verdict)
        info.update(tinfo)
    print_report(args.workload, args.seed, args, docs, skipped, result, verdict, metrics, info)
    if args.trace:
        print_trace_checks(args.workload, info, metrics)
    print(json.dumps({"correct": verdict.correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, summarized in one table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {workload} failed")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        rows.append((workload, res))
    print("\n| metric | " + " | ".join(w for w, _ in rows) + " |")
    print("|---" * (1 + len(rows)) + "|")
    print("| samples (attempted) | " + " | ".join(str(res["attempted"]) for _, res in rows) + " |")
    print("| correct | " + " | ".join(str(res["correct"]) for _, res in rows) + " |")
    for name in rows[0][1]["metrics"]:
        cells = [f"{res['metrics'][name]['value']:.4g} {res['metrics'][name]['unit']}"
                 for _, res in rows]
        print(f"| {name} | " + " | ".join(cells) + " |")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
