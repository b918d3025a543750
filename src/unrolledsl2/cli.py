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

Importing this module loads only :mod:`.jsonio`, :mod:`.qscalar` and
:mod:`.errors` besides it.  Each handler imports the schema of the
document kind it reads (:mod:`.model`, :mod:`.tqftdim` or
:mod:`.closedform`) and the engine it runs, so a fresh process compiles
only those.

The command line is read by :func:`parse_args` with the grammar of
Python's argparse (``--opt value``, ``--opt=value``, unique prefixes, the
last repeat wins), from one table of commands and options.  The plain
``--opt value`` lines that every well-formed call writes are read without
argparse; any other line goes to one argparse parser, built on first
use, which holds no state between parses.  The evaluation caches
(:func:`~unrolledsl2.diagram.compile_diagram`, the braiding pairings of
:mod:`~unrolledsl2.repcat` and the HH0 spine plans of
:func:`~unrolledsl2.tqftdim.hh0_dimension_generic`) hold only what the
diagram or spine structure and the root order fix, never a value that
depends on the colors, the gradings or the tolerance, and every call
computes its values afresh.  So ``main`` is re-entrant: a call's output
depends only on its own ``argv`` and input, not on what ran before it in
the process.
"""

from __future__ import annotations

import functools
import io
import math
import os
import sys
from types import SimpleNamespace
from typing import Any

from . import jsonio
from .errors import DomainError, QInvariantError, SchemaError
from .qscalar import RootParams


def _tolerance(text: str) -> float:
    """A finite, nonnegative ``--tol`` value; zero is allowed."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value >= 0):
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


PROG = "unrolledsl2"
COMMANDS = {
    "flink": "renormalized invariant of a closed colored diagram",
    "zinv": "surgery invariant of a closed 3-manifold presentation",
    "tqftdim": "graded dimension of a decorated-surface state space",
    "verlinde": "closed-form graded dimension at a twisting parameter",
    "hh0": "graded dimension through the Hochschild route",
    "selftest": "run all property checks for the given root order",
}
# option -> (converter or choices, default, help); --r is required
_OPTIONS = {
    "--r": (int, None, "root order (2 <= r < 2^23, r != 0 mod 4)"),
    "--input": (str, None, "input JSON file"),
    "--format": (("table", "json"), "table", "output format (default table)"),
    "--tol": (_tolerance, 1e-9, "numerical tolerance for scalar extraction (default 1e-9)"),
    "--jobs": (int, 1, "accepted for compatibility; has no effect"),
}
_SELFTEST_OPTIONS = {**_OPTIONS, "--seed": (int, 0, "base RNG seed")}


def _options(command: str) -> dict:
    return _SELFTEST_OPTIONS if command == "selftest" else _OPTIONS


def _fast_fields(argv: list) -> dict | None:
    """The fields of a command line of the shape every well-formed call
    takes: ``COMMAND`` and then ``--name value`` pairs, each name an exact
    option of the command, no value starting with ``-``, every value valid
    and ``--r`` given.  ``None`` for any other command line."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = _options(argv[0])
    fields = {"command": argv[0], **{name[2:]: spec[1] for name, spec in options.items()}}
    for name, text in zip(argv[1::2], argv[2::2]):
        if name not in options or text.startswith("-"):
            return None
        kind = options[name][0]
        if isinstance(kind, tuple):  # the choices of --format
            if text not in kind:
                return None
            value = text
        else:
            try:
                value = kind(text)
            except Exception:  # argparse converts it again and reports the error
                return None
        fields[name[2:]] = value
    return fields if fields["r"] is not None else None


@functools.cache
def build_parser():
    """The argparse parser of every command line, laid out at 80 columns
    whatever the terminal's width; it holds no state between parses."""
    import argparse

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=78)

    parser = argparse.ArgumentParser(prog=PROG, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in COMMANDS.items():
        p = sub.add_parser(command, help=summary, description=summary,
                           formatter_class=formatter)
        for name, (kind, default, text) in _options(command).items():
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(name, type=None if choices else kind, choices=choices,
                           default=default, required=name == "--r", help=text)
    return parser


def parse_args(argv) -> Any:
    """The fields ``command`` and one per option of the command, read from
    ``argv`` as Python's argparse reads ``COMMAND [options]``.

    Every command takes ``--r`` (required), ``--input``, ``--format``,
    ``--tol`` and ``--jobs``, and ``selftest`` also ``--seed``.  A line of
    exact ``--name value`` pairs with valid values that do not start with
    ``-`` is read without argparse.  A rejected line writes the usage and
    an ``unrolledsl2 [COMMAND]: error: MESSAGE`` line to stderr and raises
    ``SystemExit(2)``; ``-h`` writes the help and raises ``SystemExit(0)``.
    """
    argv = list(argv)
    fields = _fast_fields(argv)
    if fields is None:
        return build_parser().parse_args(argv)
    return SimpleNamespace(**fields)


# ----------------------------------------------------------------------
# subcommand handlers: each returns (result_fields, normalized_inputs)
# and imports the schema of the document kind it reads and the engine it
# runs, so a process compiles only those
# ----------------------------------------------------------------------


def _cmd_flink(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    from .invariant import f_prime
    from .model import flink_to_json, parse_flink

    diagram, colors, cut, framings = parse_flink(doc)
    value = f_prime(ctx=ctx, diagram=diagram, colors=colors,
                    cut_component=cut, framings=framings or None)
    result = {"F_re": repr(value.real), "F_im": repr(value.imag)}
    return result, flink_to_json(diagram, colors, cut, framings)


def _cmd_zinv(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    from .invariant import z_invariant
    from .model import parse_surgery, surgery_to_json

    sp = parse_surgery(doc, ctx)
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
    return result, surgery_to_json(sp)


def _cmd_dimension(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    from .tqftdim import graph_to_json, hh0_dimension_generic, parse_graph

    graph = parse_graph(doc, ctx)
    gd = hh0_dimension_generic(graph)
    result = {
        "total": gd.total,
        "dimensions": {str(k): v for k, v in gd.coefficients.items()},
        "count_convention": gd.parity_mode,
    }
    return result, graph_to_json(graph)


def _cmd_verlinde(ctx: RootParams, doc: Any) -> tuple[dict, dict]:
    from .closedform import parse_verlinde, verlinde, verlinde_to_json

    genus, beta, points = parse_verlinde(doc)
    value = verlinde(ctx, genus, beta, points)
    result = {"value_re": repr(value.real), "value_im": repr(value.imag)}
    return result, verlinde_to_json(genus, beta, points)


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
    except SchemaError as exc:
        print(f"schema error: {exc}", file=err)
        return 2
    except DomainError as exc:
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
