"""Command-line front end.

One subcommand per invariant family:

``flink``
    Renormalized invariant of a closed colored diagram.
``zinv``
    Surgery invariant of a closed 3-manifold presentation.
``tqftdim`` / ``hh0``
    Graded state-space dimensions of a decorated surface.  Both names run
    the same engine, the zeroth-Hochschild-homology contraction
    (:func:`~unrolledsl2.tqftdim.hh0_dimension_generic`); the dense coloring
    grid stays in :mod:`~unrolledsl2.tqftdim` as a test oracle only.
``verlinde``
    Closed-form graded dimension at a twisting parameter.
``selftest``
    Run every documented property check for the given root order.

Exit codes: 0 success, 1 internal inconsistency (or failed self checks,
or a result that could not be written: a closed pipe or a full disk), 2
malformed input (schema), 3 input outside the mathematical domain
(including a computation whose arrays do not fit in available memory).
The result and any error line are written at the end of the call.  A
write of either that fails (a closed pipe, a full disk) ends without a
traceback and exits 1: the stream is pointed at the null device, so the
flush at exit cannot fail again, and stderr gets an ``output error`` line
unless the pipe was closed.
JSON results echo their normalized inputs under ``"inputs"``; feeding that
object back through the same subcommand reproduces the values bit-for-bit.

The argument parser is built once per process, on the first call of
:func:`main`, and shared by every later call.  ``parse_args`` returns a new
namespace each time and keeps no per-call state on the parser.  The
evaluation caches (:func:`~unrolledsl2.diagram.compile_diagram` and the
braiding pairings of :mod:`~unrolledsl2.repcat`) hold only what the
diagram structure and root order fix, never a value that depends on the
colors or the tolerance, and every call computes its values afresh.  So
``main`` is re-entrant: a call's output depends only on its own ``argv``
and input, not on what ran before it in the process.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from typing import Any

from . import jsonio
from .errors import (
    DiagramTypeError,
    DomainError,
    NonGenericError,
    NotComputableError,
    QInvariantError,
    SchemaError,
    UnsupportedSlideError,
)
from .invariant import f_prime, z_invariant
from .qscalar import RootParams
from .tqftdim import hh0_dimension_generic, verlinde


def _tolerance(text: str) -> float:
    """A finite, nonnegative ``--tol`` value; zero is allowed."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}"
        )
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unrolledsl2",
        description="Quantum invariants from unrolled quantum sl(2) at a root of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "flink": "renormalized invariant of a closed colored diagram",
        "zinv": "surgery invariant of a closed 3-manifold presentation",
        "tqftdim": "graded dimension of a decorated-surface state space",
        "verlinde": "closed-form graded dimension at a twisting parameter",
        "hh0": "graded dimension through the Hochschild route",
        "selftest": "run all property checks for the given root order",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--r", type=int, required=True, help="root order (r >= 2, r != 0 mod 4)")
        p.add_argument(
            "--input",
            help="input JSON file" + (" (unused)" if name == "selftest" else ""),
        )
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output format (default table)",
        )
        p.add_argument(
            "--tol",
            type=_tolerance,
            default=1e-9,
            help="numerical tolerance for scalar extraction (default 1e-9)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
        if name == "selftest":
            p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    return parser


# ----------------------------------------------------------------------
# subcommand handlers: each returns (result_fields, normalized_inputs)
# ----------------------------------------------------------------------


def _cmd_flink(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    diagram, colors, cut, framings = jsonio.parse_flink(doc)
    value = f_prime(ctx=ctx, diagram=diagram, colors=colors,
                    cut_component=cut, framings=framings or None)
    result = {"F_re": repr(value.real), "F_im": repr(value.imag)}
    return result, jsonio.flink_to_json(diagram, colors, cut, framings)


def _cmd_zinv(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    sp = jsonio.parse_surgery(doc, ctx)
    res = z_invariant(sp)
    result = {
        "Z_re": repr(res.z.real),
        "Z_im": repr(res.z.imag),
        "m": res.m,
        "sigma": res.sigma,
        "b1": res.b1,
        "p": res.p,
        "s": res.s,
        "defect": res.defect,
        "N_re": repr(res.n_invariant.real),
        "N_im": repr(res.n_invariant.imag),
    }
    return result, jsonio.surgery_to_json(sp)


def _cmd_dimension(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    graph = jsonio.parse_graph(doc, ctx)
    gd = hh0_dimension_generic(graph)
    result = {
        "total": gd.total,
        "dimensions": {str(k): v for k, v in gd.coefficients.items()},
        "count_convention": gd.parity_mode,
    }
    return result, jsonio.graph_to_json(graph)


def _cmd_verlinde(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    genus, beta, points = jsonio.parse_verlinde(doc)
    value = verlinde(ctx, genus, beta, points)
    result = {"value_re": repr(value.real), "value_im": repr(value.imag)}
    return result, jsonio.verlinde_to_json(genus, beta, points)


_HANDLERS = {
    "flink": _cmd_flink,
    "zinv": _cmd_zinv,
    "tqftdim": _cmd_dimension,
    "hh0": _cmd_dimension,
    "verlinde": _cmd_verlinde,
}


def _emit_table(fields: dict, out) -> None:
    width = max(len(k) for k in fields)
    for key, value in fields.items():
        if isinstance(value, dict):
            print(f"{key}:", file=out)
            for k2, v2 in value.items():
                print(f"  {k2:>8}  {v2}", file=out)
        else:
            print(f"{key:<{width}}  {value}", file=out)


def _run_selftest(args, out) -> int:
    from .selftest import run_selftest  # only this command needs the registry

    results = run_selftest(args.r, seed=args.seed)
    failed = [res for res in results if not res.passed]
    if args.format == "json":
        doc = {
            "command": "selftest",
            "r": args.r,
            "passed": not failed,
            "results": [
                {"name": res.name, "passed": res.passed, "detail": res.detail}
                for res in results
            ],
        }
        print(jsonio.dump_document(doc), file=out)
    else:
        for res in results:
            line = f"{'PASS' if res.passed else 'FAIL'}  {res.name}"
            if not res.passed and res.detail:
                line += f"  [{res.detail}]"
            print(line, file=out)
        print(
            f"{len(results) - len(failed)}/{len(results)} properties hold "
            f"for r={args.r}",
            file=out,
        )
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    code = _run(args, out, err)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        _to_devnull(sys.stdout)
        code = 1
        if not isinstance(exc, BrokenPipeError):  # a closed pipe needs no message
            err.write(f"output error: cannot write the result: {exc.strerror or exc}\n")
    try:
        sys.stderr.write(err.getvalue())
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    return code


def _to_devnull(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, so that the
    flush of the standard streams at exit cannot fail again (the recipe
    in the documentation of Python's :mod:`signal` module)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _run(args, out, err) -> int:
    """Run the parsed command, writing its result to ``out`` and any error
    line to ``err``; the exit code."""
    try:
        if args.command == "selftest":
            RootParams(args.r)  # validate r with the standard message
            return _run_selftest(args, out)
        if not args.input:
            raise SchemaError(f"{args.command} requires --input FILE")
        ctx = RootParams(args.r, tol=args.tol)
        doc = jsonio.load_document(args.input)
        result, inputs = _HANDLERS[args.command](ctx, doc)
        if args.format == "json":
            envelope = {
                "command": args.command,
                "r": args.r,
                "tolerance": args.tol,
                "inputs": inputs,
                **result,
            }
            print(jsonio.dump_document(envelope), file=out)
        else:
            _emit_table(result, out)
        return 0
    except (SchemaError, DiagramTypeError) as exc:
        print(f"schema error: {exc}", file=err)
        return 2
    except (DomainError, NotComputableError, NonGenericError, UnsupportedSlideError) as exc:
        print(f"domain error: {exc}", file=err)
        return 3
    except MemoryError as exc:
        print(f"domain error: not computable within available memory: {exc}", file=err)
        return 3
    except QInvariantError as exc:
        print(f"internal inconsistency: {type(exc).__name__}: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
