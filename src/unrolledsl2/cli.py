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

The command line is read by :func:`parse_args`, one pass over a fixed
table of commands and options (``--opt value``, ``--opt=value``, unique
prefixes, the last repeat wins) that holds no state between calls.  The
evaluation caches (:func:`~unrolledsl2.diagram.compile_diagram`, the
braiding pairings of :mod:`~unrolledsl2.repcat` and the HH0 spine plans
of :func:`~unrolledsl2.tqftdim.hh0_dimension_generic`) hold only what the
diagram or spine structure and the root order fix, never a value that
depends on the colors, the gradings or the tolerance, and every call
computes its values afresh.  So
``main`` is re-entrant: a call's output depends only on its own ``argv``
and input, not on what ran before it in the process.
"""

from __future__ import annotations

import io
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import Any

from . import jsonio
from .errors import DomainError, QInvariantError, SchemaError
from .qscalar import RootParams


class UsageError(Exception):
    """A value the command line cannot take; the message follows
    ``argument OPTION:`` on the error line."""


def _tolerance(text: str) -> float:
    """A finite, nonnegative ``--tol`` value; zero is allowed."""
    value = float(text)  # a ValueError is reported as an invalid value
    if not (math.isfinite(value) and value >= 0):
        raise UsageError(f"expected a finite number >= 0, got {text!r}")
    return value


def _format(text: str) -> str:
    if text not in ("table", "json"):
        raise UsageError(f"invalid choice: {text!r} (choose from 'table', 'json')")
    return text


PROG = "unrolledsl2"
COMMANDS = {
    "flink": "renormalized invariant of a closed colored diagram",
    "zinv": "surgery invariant of a closed 3-manifold presentation",
    "tqftdim": "graded dimension of a decorated-surface state space",
    "verlinde": "closed-form graded dimension at a twisting parameter",
    "hh0": "graded dimension through the Hochschild route",
    "selftest": "run all property checks for the given root order",
}
# option -> (field, converter, default, metavar, help); --r is required
_OPTIONS = {
    "--r": ("r", int, None, "R", "root order (2 <= r < 2^23, r != 0 mod 4)"),
    "--input": ("input", str, None, "INPUT", "input JSON file"),
    "--format": ("format", _format, "table", "{table,json}", "output format (default table)"),
    "--tol": ("tol", _tolerance, 1e-9, "TOL",
              "numerical tolerance for scalar extraction (default 1e-9)"),
    "--jobs": ("jobs", int, 1, "JOBS", "accepted for compatibility; has no effect"),
}
_SELFTEST_OPTIONS = {**_OPTIONS, "--seed": ("seed", int, 0, "SEED", "base RNG seed")}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a positional, not an option
_SEPARATOR = "--"  # every later token is a positional


def _usage(command: str | None) -> str:
    """The usage lines, laid out as the standard library parser does at 80 columns."""
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ...\n"
    head = f"usage: {PROG} {command} "
    tail = " [--seed SEED]" if command == "selftest" else ""
    return (f"{head}[-h] --r R [--input INPUT] [--format {{table,json}}]\n"
            f"{' ' * len(head)}[--tol TOL] [--jobs JOBS]{tail}\n")


def _help(command: str | None) -> str:
    """The ``-h`` text: the usage, then one line per command or option."""
    if command is None:
        rows = COMMANDS
    else:
        options = _SELFTEST_OPTIONS if command == "selftest" else _OPTIONS
        rows = {"-h, --help": "show this help message and exit",
                **{f"{name} {spec[3]}": spec[4] for name, spec in options.items()}}
    width = max(map(len, rows)) + 2
    return _usage(command) + "\n" + "".join(
        f"  {name:<{width}}{text}\n" for name, text in rows.items())


def _write(stream, text: str) -> None:
    try:
        stream.write(text)
    except (AttributeError, OSError):  # a missing or closed stream
        pass


def _fail(command: str | None, message: str):
    """Reject the command line: usage and one error line on stderr, exit 2."""
    prog = PROG if command is None else f"{PROG} {command}"
    _write(sys.stderr, f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(token: str, names, command: str | None):
    """How one token reads against the option ``names``: ``None`` for a
    positional, else ``(name, value)``, with ``name`` ``None`` for an unknown
    option and ``value`` the text glued on with ``=`` (or after ``-h``)."""
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token.startswith("--"):  # a unique prefix of a long option
        matches = [name for name in names if name.startswith(head)]
        value = value if eq else None
    else:  # a single dash: -h with more text glued on
        matches = ["-h"] if token.startswith("-h") else []
        value = token[2:]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _show_help(command: str | None, name: str, value: str | None):
    if name == "-h" and value:  # -hh...: the tail is more -h flags
        value = value.lstrip("h") or None
    if value is not None:
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    _write(sys.stdout, _help(command))
    raise SystemExit(0)


def parse_args(argv) -> SimpleNamespace:
    """The command and option values of ``argv``, read by one fixed grammar.

    ``COMMAND [options]``, where every command takes ``--r`` (required),
    ``--input``, ``--format``, ``--tol`` and ``--jobs``, and ``selftest``
    also ``--seed``.  An option is written ``--opt value`` or
    ``--opt=value``, or as any unique prefix of its name (``--inp``); the
    options come in any order and the last repeat wins.  A token starting
    with ``-`` is an option unless it is ``-``, a negative number or
    contains a space, so an option value of another such shape needs the
    ``=`` form (``--tol=-inf``); ``--`` ends the options.  This is how the
    standard library's parser reads them, which the tests hold this one to,
    except that ``--opt=--`` gives the value ``--``.  A rejected command
    line writes the usage and an ``unrolledsl2 [COMMAND]: error: MESSAGE``
    line to stderr and raises ``SystemExit(2)``; ``-h`` writes the help and
    raises ``SystemExit(0)``.  The fields are ``command`` and one per option
    of the command.
    """
    argv = list(argv)
    unknown = []  # unrecognized tokens, reported after every other check
    i = 0
    while i < len(argv):  # options before the command: only -h is known
        option = None if argv[i] == _SEPARATOR else _classify(argv[i], _HELP, None)
        if option is None:
            break
        if option[0] is None:
            unknown.append(argv[i])
        else:
            _show_help(None, *option)
        i += 1
    if argv[i:] in ([], [_SEPARATOR]):  # a final "--" is not a command
        _fail(None, "the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")

    options = _SELFTEST_OPTIONS if command == "selftest" else _OPTIONS
    names = _HELP + tuple(options)
    kinds = []
    for token in rest:  # every token is classified before any is consumed
        if token == _SEPARATOR:
            kinds.append(_SEPARATOR)
            kinds.extend([None] * (len(rest) - len(kinds)))
            break
        kinds.append(_classify(token, names, command))
    fields = {"command": command, **{spec[0]: spec[2] for spec in options.values()}}
    j = 0
    while j < len(rest):
        kind = kinds[j]
        if kind is None or kind == _SEPARATOR or kind[0] is None:
            unknown.append(rest[j])
            j += 1
            continue
        name, text = kind
        if name in _HELP:
            _show_help(command, name, text)
        if text is None:
            if j + 1 == len(rest) or kinds[j + 1] is not None:
                _fail(command, f"argument {name}: expected one argument")
            text = rest[j + 1]
            j += 1
        j += 1
        field, convert = options[name][:2]
        try:
            fields[field] = convert(text)
        except UsageError as exc:
            _fail(command, f"argument {name}: {exc}")
        except ValueError:
            _fail(command, f"argument {name}: invalid {convert.__name__} value: {text!r}")
    if fields["r"] is None:
        _fail(command, "the following arguments are required: --r")
    if unknown:
        _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
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
