"""Command-line interface: formats, exit codes, schema diagnostics."""

import argparse
import cmath
import contextlib
import functools
import io
import json
import math
import os
import pathlib
import resource
import itertools
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from unrolledsl2 import cli, errors, selftest
from unrolledsl2.cli import main, parse_args
from unrolledsl2.jsonio import load_document
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import twist_scalar
from unrolledsl2.selftest import CHECKS
from unrolledsl2.tqftdim import (
    graded_dimension,
    graph_to_json,
    necklace_graph,
    parse_graph,
    random_generic_graph,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "docs" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def run_or_exit(capsys, *argv):
    """Like :func:`run`, with an argparse rejection's exit code as the code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(*argv, preexec_fn=None, stdout=subprocess.PIPE, **env):
    """The same invocation through ``python -m unrolledsl2`` in a new
    interpreter; ``stdout`` is captured unless a file is given."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "unrolledsl2", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300,
        preexec_fn=preexec_fn, env={**os.environ, "PYTHONPATH": path, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


# ----------------------------------------------------------------------
# happy paths
# ----------------------------------------------------------------------


def test_verlinde_fixture(capsys):
    code, doc, _ = run_json(
        capsys, "verlinde", "--r", "5", "--input", str(FIXTURES / "verlinde_g1.json")
    )
    assert code == 0
    assert doc["command"] == "verlinde"
    assert doc["r"] == 5
    # result floats are emitted as repr strings so they re-parse exactly
    assert abs(float(doc["value_re"]) - 5.0) < 1e-9
    assert abs(float(doc["value_im"])) < 1e-9


def test_zinv_s1xs2_fields(capsys):
    code, doc, _ = run_json(
        capsys, "zinv", "--r", "3", "--input", str(FIXTURES / "s1xs2.json")
    )
    assert code == 0
    for field in ("Z_re", "Z_im", "m", "sigma", "b1", "p", "s", "defect"):
        assert field in doc
    assert doc["m"] == 1
    assert doc["sigma"] == 0
    assert doc["b1"] == 1


def _closed_form_z(r, doc):
    """Z of a 0-writhe unknot or Hopf-clasp surgery document, in closed form.

    The Kirby sum η λ^m δ^(−σ) Σ Π d(α_i)·θ(α_i)^(f_i) · F'(link), with
    F'(unknot_α) = d(α) and the clasp twist-eigenvalue sum for lk = 1:
    F' = Σ_k d(a+b+k) θ(a+b+k) / (θ(a) θ(b)).  Nothing here goes through the
    package.
    """
    def q(x):
        return cmath.exp(1j * math.pi * x / r)

    def d(a):
        return (-1) ** (r - 1) * r * (q(a) - q(-a)) / (q(r * a) - q(-r * a))

    def theta(a):
        return q((a * a - (r - 1) ** 2) / 2)

    kirby = range(1 - r, r, 2)
    framings = doc["framings"]
    c = {name: float(Fraction(value)) for name, value in doc["meridians"].items()}
    if len(framings) == 1:
        (name, f), = framings.items()
        total = sum(d(c[name] + k) ** 2 * theta(c[name] + k) ** f for k in kirby)
        sigma = (f > 0) - (f < 0)
    else:
        f1, f2 = framings["L1"], framings["L2"]
        assert f1 * f2 - 1 > 0 and f1 + f2 > 0  # positive definite: σ = 2
        sigma = 2
        total = 0j
        for k1, k2 in itertools.product(kirby, kirby):
            a, b = c["L1"] + k1, c["L2"] + k2
            clasp = sum(d(a + b + k) * theta(a + b + k) / (theta(a) * theta(b))
                        for k in kirby)
            total += d(a) * theta(a) ** f1 * d(b) * theta(b) ** f2 * clasp
    rp = r if r % 2 else r // 2
    lam, eta = math.sqrt(rp) / r**2, 1 / (r * math.sqrt(rp))
    delta = q(-1.5) * cmath.exp(-1j * (r % 4 + 1) * math.pi / 4)
    return eta * lam ** len(framings) * delta ** (-sigma) * total


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
@pytest.mark.parametrize("fixture", ["lens_7_1.json", "lens_7_2.json", "s1xs2.json"])
def test_zinv_matches_closed_form_kirby_sum(capsys, fixture, r):
    doc = json.loads((FIXTURES / fixture).read_text())
    code, out, _ = run_json(capsys, "zinv", "--r", str(r), "--input", str(FIXTURES / fixture))
    assert code == 0
    z = complex(float(out["Z_re"]), float(out["Z_im"]))
    want = _closed_form_z(r, doc)
    # lens_7_2 at r = 7 has Z = 0 (|want| ~ 4e-15): the bound then asks Z to vanish
    assert abs(z - want) <= 1e-9 * max(1.0, abs(want))


def test_flink_fixtures_run(capsys):
    for name in ("unknot.json", "hopf.json", "trefoil.json"):
        code, doc, _ = run_json(
            capsys, "flink", "--r", "5", "--input", str(FIXTURES / name)
        )
        assert code == 0, name
        assert "F_re" in doc and "F_im" in doc


def test_flink_table_format(capsys):
    code, out, _ = run(
        capsys, "flink", "--r", "5", "--input", str(FIXTURES / "unknot.json")
    )
    assert code == 0
    assert "F_re" in out and "F_im" in out


def test_tqftdim_genus2(capsys):
    path = str(FIXTURES / "genus2_theta.json")
    code, doc, _ = run_json(capsys, "tqftdim", "--r", "5", "--input", path)
    assert code == 0
    assert doc["total"] == 125
    assert doc["dimensions"] == {"0": 125}
    assert doc["count_convention"] == "plain"
    code, doc, _ = run_json(capsys, "tqftdim", "--r", "6", "--input", path)
    assert code == 0
    assert doc["total"] == 108
    assert doc["dimensions"] == {"-1": 27, "0": 54, "1": 27}
    assert doc["count_convention"] == "super"


@pytest.mark.parametrize("r,total", [(2, 4), (3, 27), (5, 125), (6, 108), (7, 343), (9, 729)])
def test_dimension_of_a_class_with_an_integer_real_part(tmp_path, capsys, r, total):
    # the class 1 + 0.5i has a color on both ends of the window's real part
    # (r+1 of them at odd r); the genus-2 count is r^3, r^3/2 at even r
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"vertices": [{"name": "u"}, {"name": "v"}], "edges": [
        {"name": "e1", "tail": "u", "head": "v", "grading": {"re": "1", "im": "0.5"}},
        {"name": "e2", "tail": "u", "head": "v", "grading": "1/4"},
        {"name": "e3", "tail": "u", "head": "v", "grading": {"re": "-5/4", "im": "-0.5"}},
    ]}))
    for sub in ("tqftdim", "hh0"):
        code, doc, err = run_json(capsys, sub, "--r", str(r), "--input", str(path))
        assert (code, err) == (0, "")
        assert doc["total"] == total


def test_hh0_matches_tqftdim(capsys):
    # both subcommands against the dense-grid oracle, which the CLI never calls
    path = str(FIXTURES / "genus2_theta.json")
    for r in (2, 3, 5, 6, 7):
        oracle = graded_dimension(parse_graph(load_document(path), RootParams(r)))
        for sub in ("tqftdim", "hh0"):
            code, doc, _ = run_json(capsys, sub, "--r", str(r), "--input", path)
            assert code == 0
            assert doc["dimensions"] == {
                str(k): v for k, v in oracle.coefficients.items()
            }
            assert doc["total"] == oracle.total
            assert doc["count_convention"] == oracle.parity_mode


def test_dimension_asymmetric_histogram(tmp_path, capsys):
    # genus2_theta.json is symmetric in the degree; these spines are not, so a
    # histogram read with the wrong sign of the degree fails here
    for r in (3, 6):
        graph = random_generic_graph(RootParams(r), default_rng(0), 2, 2)
        oracle = graded_dimension(graph)
        expected = {str(k): v for k, v in sorted(oracle.coefficients.items())}
        assert oracle.coefficients != {-k: v for k, v in oracle.coefficients.items()}
        path = tmp_path / f"spine_r{r}.json"
        path.write_text(json.dumps(graph_to_json(graph)))
        for sub in ("tqftdim", "hh0"):
            code, doc, _ = run_json(capsys, sub, "--r", str(r), "--input", str(path))
            assert code == 0
            assert doc["dimensions"] == expected
            assert doc["total"] == oracle.total
            assert doc["count_convention"] == oracle.parity_mode


def test_tqftdim_beyond_grid_size(tmp_path, capsys):
    # the grid for this graph would need 9^21 cells
    graph = necklace_graph(
        RootParams(9), 8, [0.2 + 0.03 * i for i in range(7)], 0.5
    )
    path = tmp_path / "necklace_g8.json"
    path.write_text(json.dumps(graph_to_json(graph)))
    code, doc, _ = run_json(capsys, "tqftdim", "--r", "9", "--input", str(path))
    assert code == 0
    assert doc["total"] == 9**21


def test_inputs_round_trip_exact(tmp_path, capsys):
    # the echoed normalized inputs re-parse to the same floats, bit for bit
    path = FIXTURES / "genus2_theta.json"
    code, doc, _ = run_json(capsys, "tqftdim", "--r", "5", "--input", str(path))
    assert code == 0
    echoed = doc["inputs"]
    for edge in echoed["edges"]:
        g = edge["grading"]
        # complex values echo as {re, im} repr strings that re-parse exactly
        assert isinstance(g, dict) and set(g) == {"re", "im"}
        assert float(g["re"]) == float(repr(float(g["re"])))
    # feed the normalized form back in: identical result
    tmp = tmp_path / "round_trip.json"
    tmp.write_text(json.dumps(echoed))
    code2, doc2, _ = run_json(capsys, "tqftdim", "--r", "5", "--input", str(tmp))
    assert code2 == 0
    assert doc2["dimensions"] == doc["dimensions"]
    assert doc2["inputs"] == echoed


def test_coupon_fixture_closed_form(capsys):
    # the unknot through a coupon c·Id, c = 3/2 − i/2: F' = c·d(α), α = 1/3
    path = FIXTURES / "unknot_coupon.json"
    code, doc, _ = run_json(capsys, "flink", "--r", "5", "--input", str(path))
    assert code == 0
    expected = complex(1.5, -0.5) * RootParams(5).mdim(1.0 / 3)
    assert abs(complex(float(doc["F_re"]), float(doc["F_im"])) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("r", [3, 5, 7, 9, 11])
def test_encircled_fixture_closed_form(capsys, r):
    # ±1-surgery on a circle around the V_α unknot, framed back to 0: the
    # pair is (S³, unknot_α), so Z = η·d(α) at every odd r, α = 2/5
    path = FIXTURES / "encircled_unknot.json"
    code, doc, _ = run_json(capsys, "zinv", "--r", str(r), "--input", str(path))
    assert code == 0
    ctx = RootParams(r)
    expected = ctx.constants()[1] * ctx.mdim(0.4)
    assert abs(complex(float(doc["Z_re"]), float(doc["Z_im"])) - expected) <= 1e-9 * abs(expected)


@pytest.mark.parametrize("sub,fixture", [("flink", "unknot_coupon.json"),
                                         ("zinv", "encircled_unknot.json")])
def test_coupon_and_graph_inputs_round_trip(tmp_path, capsys, sub, fixture):
    # the echoed inputs (strands, id slices, a coupon matrix; graph colors
    # and framings) run again to the same bytes
    code, out, _ = run(capsys, sub, "--r", "5", "--input", str(FIXTURES / fixture), "--format", "json")
    assert code == 0
    echoed = tmp_path / fixture
    echoed.write_text(json.dumps(json.loads(out)["inputs"]))
    assert run(capsys, sub, "--r", "5", "--input", str(echoed), "--format", "json") == (0, out, "")


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_selftest_passes(capsys, r):
    code, doc, _ = run_json(capsys, "selftest", "--r", str(r))
    assert code == 0
    assert doc["passed"] is True
    names = [res["name"] for res in doc["results"]]
    assert len(names) == len(CHECKS)
    assert len(set(names)) == len(names)  # CLI keys and pytest ids


# ----------------------------------------------------------------------
# the command-line grammar, checked against the argparse parser it replaced
# ----------------------------------------------------------------------


def _reference_tolerance(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}"
        )
    return value


_reference_tolerance.__name__ = "_tolerance"  # argparse names it in messages


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its table-driven one."""
    parser = argparse.ArgumentParser(
        prog="unrolledsl2",
        description="Quantum invariants from unrolled quantum sl(2) at a root of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("flink", "zinv", "tqftdim", "verlinde", "hh0", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--input")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--tol", type=_reference_tolerance, default=1e-9)
        p.add_argument("--jobs", type=int, default=1)
        if name == "selftest":
            p.add_argument("--seed", type=int, default=0)
    return parser


def parse_outcome(parse, argv):
    """(exit code or None, fields, stderr) of one parse, and stdout unless
    it is a help text (the new parser's help is its own fixed string)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # argparse's usage width
        try:
            code, fields = None, vars(parse(list(argv)))
        except SystemExit as exc:
            code, fields = exc.code, None
    return code, fields, err.getvalue(), (out.getvalue() if code != 0 else "")


SINGLE_FAULTS = {  # one argv per error class, and argparse's error line
    "no command": ([], "unrolledsl2: error: the following arguments are required: command"),
    "unknown command": (["frob", "--r", "5"],
                        "unrolledsl2: error: argument command: invalid choice: 'frob' "
                        "(choose from 'flink', 'zinv', 'tqftdim', 'verlinde', 'hh0', 'selftest')"),
    "missing --r": (["flink", "--input", "x.json"],
                    "unrolledsl2 flink: error: the following arguments are required: --r"),
    "non-integer --r": (["hh0", "--r", "five"],
                        "unrolledsl2 hh0: error: argument --r: invalid int value: 'five'"),
    "non-integer --jobs": (["zinv", "--r", "5", "--jobs", "2.0"],
                           "unrolledsl2 zinv: error: argument --jobs: invalid int value: '2.0'"),
    "non-integer --seed": (["selftest", "--r", "3", "--seed", "x"],
                           "unrolledsl2 selftest: error: argument --seed: invalid int value: 'x'"),
    "bad --format": (["flink", "--r", "5", "--format", "xml"],
                     "unrolledsl2 flink: error: argument --format: invalid choice: 'xml' "
                     "(choose from 'table', 'json')"),
    "bad --tol": (["verlinde", "--r", "5", "--tol=-1"],
                  "unrolledsl2 verlinde: error: argument --tol: expected a finite number "
                  ">= 0, got '-1'"),
    "non-numeric --tol": (["verlinde", "--r", "5", "--tol", "tiny"],
                          "unrolledsl2 verlinde: error: argument --tol: invalid _tolerance "
                          "value: 'tiny'"),
    "unknown option": (["tqftdim", "--r", "5", "--color", "red"],
                       "unrolledsl2: error: unrecognized arguments: --color red"),
    "ambiguous option": (["tqftdim", "--r", "5", "--=json"],
                         "unrolledsl2 tqftdim: error: ambiguous option: --=json could match "
                         "--help, --r, --input, --format, --tol, --jobs"),
    "option without its value": (["flink", "--input", "x.json", "--r"],
                                 "unrolledsl2 flink: error: argument --r: expected one argument"),
    "extra positional": (["flink", "--r", "5", "x.json"],
                         "unrolledsl2: error: unrecognized arguments: x.json"),
}


@pytest.mark.parametrize("fault", SINGLE_FAULTS)
def test_single_fault_argv_matches_argparse(fault):
    argv, line = SINGLE_FAULTS[fault]
    code, fields, err, out = parse_outcome(parse_args, argv)
    assert (code, fields, out) == (2, None, "")
    assert err.splitlines()[-1] == line
    assert (code, fields, err, out) == parse_outcome(reference_parser().parse_args, argv)


_GOOD_VALUES = {  # values each option takes (as int/_tolerance/the choice read them)
    "--r": ["5", "3", "7", "-1", " 6", "+7", "1_1", "99999999999999999999"],
    "--input": ["a.json", "x", "", "-", "a b", "-a b", "2/3"],
    "--format": ["table", "json"],
    "--tol": ["1e-9", "0", " 0.5", "1_0.0"],
    "--jobs": ["1", "2", "-3"],
    "--seed": ["0", "4", "\u0663"],
}
_ABBREVIATIONS = ["--i", "--inp", "--f", "--for", "--t", "--j", "--s", "--se"]
_OPTION_TOKENS = [*_GOOD_VALUES, *_ABBREVIATIONS, "--rr", "--x", "-r", "-x"]
_HELP_TOKENS = ["-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=x"]
_BAD_VALUES = ["-5", "5.0", "1e-9", "nan", "inf", "-inf", "x", "xml", "--r", "-x", "--x=1"]


@st.composite
def _option(draw, valid: bool):
    """One option with a value, as two tokens or one ``=`` token."""
    name = draw(st.sampled_from(_OPTION_TOKENS))
    full = next((o for o in _GOOD_VALUES if o.startswith(name)), None) if valid else None
    value = draw(st.sampled_from(_GOOD_VALUES[full] if full else
                                 [v for vs in _GOOD_VALUES.values() for v in vs] + _BAD_VALUES))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def _argvs(draw):
    """A command line built from the grammar's tokens: mostly a command
    with valid options, some invalid values, stray tokens and help flags."""
    head = draw(st.sampled_from(["flink", "zinv", "tqftdim", "verlinde", "hh0", "selftest"]))
    parts = draw(st.lists(st.one_of(
        _option(valid=True), _option(valid=True), _option(valid=False),
        st.sampled_from(_OPTION_TOKENS + _BAD_VALUES + ["--", "stray", "--=5"]).map(
            lambda token: [token]),
    ), max_size=5))
    rare = st.integers(0, 9).map(lambda n: n == 0)  # one draw in ten
    if not draw(rare):
        parts.insert(draw(st.integers(0, len(parts))), ["--r", "5"])
    if draw(rare):
        parts.insert(draw(st.integers(0, len(parts))), [draw(st.sampled_from(_HELP_TOKENS))])
    prefix = [draw(st.sampled_from(["--x", "-1", "--", "-h", "x"]))] if draw(rare) else []
    argv = prefix + [head] + [token for part in parts for token in part]
    return argv[:draw(st.integers(0, len(argv)))] if draw(rare) else argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_parser_agrees_with_argparse(argv):
    # same acceptance, fields, exit code and stderr bytes as the argparse parser
    assert parse_outcome(parse_args, argv) == parse_outcome(reference_parser().parse_args, argv)


def test_shared_parser_is_reentrant(capsys):
    # each call through the shared parser answers as in a new interpreter
    hopf = str(FIXTURES / "hopf.json")
    sequence = [
        ["flink", "--r", "5", "--input", hopf, "--tol", "1e-6", "--format", "table"],
        ["flink", "--r", "5", "--input", hopf, "--format", "json"],
        ["selftest", "--r", "3", "--seed", "5"],
        ["flink", "--r", "5", "--input", hopf, "--tol", "nan"],
        ["verlinde", "--r", "5", "--input", str(FIXTURES / "verlinde_g1.json")],
    ]
    results = [run_or_exit(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in results] == [0, 0, 0, 2, 0]
    assert json.loads(results[1][1])["tolerance"] == 1e-9
    assert "--tol" in results[3][2]
    for argv, result in zip(sequence, results):
        assert result == run_fresh(*argv), argv


def test_python_dash_m(capsys):
    argv = ["verlinde", "--r", "5", "--input", str(FIXTURES / "verlinde_g1.json"),
            "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run_fresh(*argv)[:2] == (0, out)


def test_help_without_a_stdout_exits_0(monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)  # as under pythonw, or with fd 1 closed
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0


# What a fresh interpreter has loaded after importing the CLI and after each
# command line: numpy, fractions (which loads decimal), dataclasses and
# inspect (which load ast, dis and tokenize), the engine modules and the
# diagram model only, with each call's exit code; and every package module
# the import alone loads.
_COLD_PROBE = """
import contextlib, io, json, sys
import unrolledsl2.cli as cli
ENGINES = {"diagram", "repcat", "invariant", "planner", "selftest", "tqftdim", "model"}
def loaded():
    return sorted(m for m in sys.modules if m in ("numpy", "fractions", "dataclasses", "inspect")
                  or m.startswith("unrolledsl2.") and m.split(".")[1] in ENGINES)
start = sorted(m for m in sys.modules if m.startswith("unrolledsl2."))
seen = [(None, loaded())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    seen.append((code, loaded()))
print(json.dumps([start, seen]))
"""


def _cold_probe(argvs):
    """The package modules ``import unrolledsl2.cli`` loads in a fresh
    interpreter, and what the probe sees loaded after it and each of ``argvs``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_start_loads_no_numpy_and_only_the_engine_a_command_runs(tmp_path):
    argvs = [
        ["verlinde", "--r", "5", "--input", str(FIXTURES / "verlinde_g1.json")],
        ["verlinde", "--r", "x", "--input", str(FIXTURES / "verlinde_g1.json")],
        ["hh0", "--r", "5", "--input", str(tmp_path / "missing.json")],
        ["zinv", "--r", "5", "--input", str(FIXTURES / "s1xs2.json")],
        ["flink", "--r", "5", "--input", str(FIXTURES / "hopf.json")],
    ]
    start, seen = _cold_probe(argvs)
    assert start == ["unrolledsl2.cli", "unrolledsl2.errors", "unrolledsl2.jsonio",
                     "unrolledsl2.qscalar"]
    assert seen[:4] == [[None, []], [0, []], [2, []], [2, []]]
    code, zinv_loaded = seen[4]
    assert code == 0
    assert {"numpy", "unrolledsl2.invariant", "unrolledsl2.diagram"} <= set(zinv_loaded)
    for code, diagram_loaded in seen[4:]:  # no spine code for zinv and flink
        assert code == 0 and "unrolledsl2.tqftdim" not in diagram_loaded
    _, seen = _cold_probe([["hh0", "--r", "5", "--input", str(FIXTURES / "genus2_theta.json")]])
    code, spine_loaded = seen[1]
    assert code == 0 and "unrolledsl2.tqftdim" in spine_loaded
    assert "unrolledsl2.model" not in spine_loaded and "unrolledsl2.invariant" not in spine_loaded


# ----------------------------------------------------------------------
# exit code 2: schema problems
# ----------------------------------------------------------------------


def test_schema_error_bad_field_type(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": "one", "beta": "1/3"}))
    code, out, err = run(capsys, "verlinde", "--r", "5", "--input", str(bad))
    assert code == 2
    assert "schema error" in err
    assert "$.genus" in err


def test_schema_error_unknown_slice_kind(tmp_path, capsys):
    doc = {
        "source": ["up"],
        "width-changes": [{"slice": "twist", "position": 0}],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"diagram": doc, "colors": {}, "cut": "K"}))
    code, _, err = run(capsys, "flink", "--r", "5", "--input", str(bad))
    assert code == 2
    assert "schema error" in err


def test_schema_error_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "flink", "--r", "5", "--input", str(bad))
    assert code == 2
    assert "schema error" in err


def test_schema_error_missing_file(capsys):
    code, _, err = run(capsys, "flink", "--r", "5", "--input", "/nonexistent.json")
    assert code == 2
    assert "schema error" in err


def test_schema_error_input_is_directory(tmp_path, capsys):
    code, _, err = run(capsys, "hh0", "--r", "5", "--input", str(tmp_path))
    assert code == 2
    assert "schema error" in err and str(tmp_path) in err


def test_schema_error_input_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "hh0", "--r", "5", "--input", str(bad))
    assert code == 2
    assert "schema error" in err and str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_invalid_tolerance_rejected(capsys, tol):
    path = str(FIXTURES / "trefoil.json")
    with pytest.raises(SystemExit) as exc:
        main(["flink", "--r", "5", "--input", path, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_zero_tolerance_allowed(capsys):
    path = str(FIXTURES / "verlinde_g1.json")
    code, doc, _ = run_json(capsys, "verlinde", "--r", "5", "--input", path,
                            "--tol", "0")
    assert code == 0
    assert doc["tolerance"] == 0.0


def test_missing_input_flag(capsys):
    code, _, err = run(capsys, "flink", "--r", "5")
    assert code == 2
    assert "requires --input" in err


# ----------------------------------------------------------------------
# exit code 3: domain problems
# ----------------------------------------------------------------------


def test_domain_error_bad_root_order(capsys):
    code, _, err = run(
        capsys, "verlinde", "--r", "4", "--input", str(FIXTURES / "verlinde_g1.json")
    )
    assert code == 3
    assert "r >= 2" in err and "mod 4" in err and "r=4" in err


_INPUTS = {"flink": ["--input", str(FIXTURES / "hopf.json")],
           "zinv": ["--input", str(FIXTURES / "s1xs2.json")],
           "tqftdim": ["--input", str(FIXTURES / "genus2_theta.json")],
           "hh0": ["--input", str(FIXTURES / "genus2_theta.json")],
           "verlinde": ["--input", str(FIXTURES / "verlinde_g1.json")],
           "selftest": []}


@pytest.mark.parametrize("sub", _INPUTS)
def test_root_order_from_2_23_is_a_domain_error(capsys, sub):
    # beyond the bound the window colors near r are no longer decidably
    # integral; huge r used to end in tracebacks or a wrong window count
    for r in (2**23 + 1, 2**63 - 1, 10**20 - 1):
        code, out, err = run(capsys, sub, "--r", str(r), *_INPUTS[sub])
        assert (code, out) == (3, "")
        assert err == f"domain error: root order must be below 2^23, got r={r}\n"
    assert RootParams(2**23 - 1).rprime == 2**23 - 1


def test_domain_error_integral_beta(tmp_path, capsys):
    bad = tmp_path / "int_beta.json"
    bad.write_text(json.dumps({"genus": 1, "beta": 2}))
    code, _, err = run(capsys, "verlinde", "--r", "5", "--input", str(bad))
    assert code == 3
    assert "domain error" in err


def _fixture_with(tmp_path, name, edit):
    doc = json.loads((FIXTURES / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_domain_error_unknown_cut_component(tmp_path, capsys):
    path = _fixture_with(tmp_path, "hopf.json", lambda d: d.update(cut="Z"))
    code, _, err = run(capsys, "flink", "--r", "3", "--input", path)
    assert code == 3
    assert "domain error" in err and "'Z'" in err


def test_domain_error_unknown_framing_component(tmp_path, capsys):
    path = _fixture_with(
        tmp_path, "trefoil.json", lambda d: d.update(framings={"Q": 1})
    )
    code, _, err = run(capsys, "flink", "--r", "5", "--input", path)
    assert code == 3
    assert "domain error" in err and "'Q'" in err


def _with_coupon(doc, component, position, matrix):
    """Put a coupon with ``matrix`` on ``component``'s up strand, at
    ``position`` in the word right after the two cups of a clasp document."""
    strand = [{"component": component, "up": True}]
    doc["diagram"]["width-changes"].insert(2, {
        "slice": "coupon", "position": position, "inputs": strand, "outputs": strand,
        "matrix": matrix})


def test_coupon_not_a_morphism_exits_3(tmp_path, capsys):
    # unknot_coupon.json with one entry off the diagonal of c·Id: Schur's
    # lemma no longer applies, which is the input's fault, not the program's
    def edit(doc):
        doc["diagram"]["width-changes"][2]["matrix"][0][1] = "1"

    path = _fixture_with(tmp_path, "unknot_coupon.json", edit)
    code, out, err = run(capsys, "flink", "--r", "5", "--input", path)
    assert (code, out) == (3, "")
    assert err.startswith("domain error: coupon at slice 2 is not a morphism: ")
    assert err.count("\n") == 1
    # a matrix of the wrong shape is still a schema error first
    code, out, err = run(capsys, "flink", "--r", "3", "--input", path)
    assert (code, out, err) == (2, "", "schema error: coupon matrix shape (5, 5) != (3, 3)\n")
    # zinv checks every Kirby term: c·Id on the graph edge or on the
    # surgery circle (word T1↑ L1↑ L1↓ T1↓) multiplies Z by c; one entry
    # more is refused
    fixture = str(FIXTURES / "encircled_unknot.json")
    _, plain, _ = run_json(capsys, "zinv", "--r", "5", "--input", fixture)
    for component, position in (("T1", 0), ("L1", 1)):
        scaled = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
        path = _fixture_with(tmp_path, "encircled_unknot.json",
                             lambda d: _with_coupon(d, component, position, scaled))
        code, doc, err = run_json(capsys, "zinv", "--r", "5", "--input", path)
        assert (code, err) == (0, "")
        assert abs(float(doc["Z_re"]) - 2 * float(plain["Z_re"])) <= 1e-12
        scaled[3][0] = 1
        path = _fixture_with(tmp_path, "encircled_unknot.json",
                             lambda d: _with_coupon(d, component, position, scaled))
        code, out, err = run(capsys, "zinv", "--r", "5", "--input", path)
        assert (code, out) == (3, "")
        assert err.startswith("domain error: coupon at slice 2 is not a morphism: ")


# every class of unrolledsl2.errors -> the exit code and stderr prefix of its family
_ERROR_FAMILIES = {
    "SchemaError": (2, "schema error: "),
    "DiagramTypeError": (2, "schema error: "),
    "DomainError": (3, "domain error: "),
    "NotComputableError": (3, "domain error: "),
    "NonGenericError": (3, "domain error: "),
    "UnsupportedSlideError": (3, "domain error: "),
    "NotScalarError": (1, "internal inconsistency: NotScalarError: "),
    "QInvariantError": (1, "internal inconsistency: QInvariantError: "),
}


def test_every_error_class_exits_with_its_family_code(monkeypatch, capsys):
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.QInvariantError)}
    assert classes == set(_ERROR_FAMILIES)
    for name, (code, prefix) in _ERROR_FAMILIES.items():
        def handler(ctx, doc, error=getattr(errors, name)):
            raise error("raised in a handler")

        monkeypatch.setitem(cli._HANDLERS, "flink", handler)
        assert run(capsys, "flink", "--r", "5", "--input", str(FIXTURES / "hopf.json")) == (
            code, "", f"{prefix}raised in a handler\n"), name


_REJECTED = {  # label -> (command, fixture, edit, exit code, the one stderr line)
    "framings not an object": (
        "zinv", "s1xs2.json", lambda d: d.update(framings=[]),
        2, "schema error: $.framings: expected an object"),
    "diagram not an object": (
        "flink", "hopf.json", lambda d: d.update(diagram=[]),
        2, "schema error: $.diagram: expected a diagram object"),
    "meridians not an object": (
        "zinv", "s1xs2.json", lambda d: d.update(meridians="1/3"),
        2, "schema error: $.meridians: expected an object mapping component names"),
    "edge tail not a vertex": (
        "hh0", "genus2_theta.json", lambda d: d["edges"][0].update(tail="w"),
        2, "schema error: $.edges[0].tail: vertex 'w' is not in the vertex list"),
    "empty flink diagram": (
        "flink", "hopf.json",
        lambda d: (d.update(diagram={"source": [], "width-changes": []}, colors={}),
                   d.pop("cut")),
        3, "domain error: no component carries a simple projective color"),
    "graph framing on a surgery component": (
        "zinv", "encircled_unknot.json", lambda d: d.update(graph_framings={"L1": 1}),
        3, "domain error: $: graph framings ['L1'] do not name graph components"),
    "component both surgery and graph": (
        "zinv", "encircled_unknot.json", lambda d: d["colors"].update(L1="2/5"),
        3, "domain error: $: components ['L1'] are both surgery and graph"),
    "missing meridian": (
        "zinv", "s1xs2.json", lambda d: d.update(meridians={}),
        3, "domain error: $: missing meridian values for ['L1']"),
    "open surgery diagram": (
        "zinv", "s1xs2.json",
        lambda d: d.update(diagram={"source": [{"component": "L1", "up": True}],
                                    "width-changes": [{"slice": "id"}]}),
        3, "domain error: no projective component offers a cut point that is not enclosed"),
    "colored edge with two endpoints": (
        "tqftdim", "genus2_theta.json", lambda d: d["edges"][0].update(color="1/3"),
        3, "domain error: $: external edge 'e1' must have exactly one endpoint"),
    "uncolored edge with one endpoint": (
        "tqftdim", "genus2_theta.json", lambda d: d["edges"][0].update(head=None),
        3, "domain error: $: edge 'e1' has one endpoint but no color; external edges "
           "need a fixed color"),
    "listed vertex that no edge touches": (
        "hh0", "genus2_theta.json", lambda d: d["vertices"].append({"name": "w", "order": 2}),
        3, "domain error: $: vertex 'w' has 0 incidences, need 3"),
    "empty surgery diagram": (
        "zinv", "s1xs2.json",
        lambda d: d.update(diagram={"source": [], "width-changes": []}, framings={},
                           meridians={}),
        3, "domain error: empty surgery link and non-admissible graph: no nonintegral "
           "meridian value and no projective color"),
    "open diagram with one mixed crossing": (
        "zinv", "s1xs2.json",
        lambda d: d.update(
            diagram={"source": [{"component": "A", "up": True}, {"component": "B", "up": True}],
                     "width-changes": [{"slice": "braid", "position": 0, "sign": 1}]},
            framings={"A": 0, "B": 0}, meridians={"A": "1/3", "B": "1/3"}),
        2, "schema error: odd mixed-crossing sum 1 between ['A', 'B']; the diagram does "
           "not close these components"),
    "closed circle beside an open strand": (
        "zinv", "s1xs2.json",
        lambda d: d.update(
            diagram={"source": [{"component": "A", "up": True}],
                     "width-changes": [
                         {"slice": "cup", "component": "L", "position": 1, "variant": "coev"},
                         {"slice": "cap", "position": 1, "variant": "evprime"}]},
            framings={"A": 3, "L": 3}, meridians={"A": "2/3", "L": "2/3"}),
        3, "domain error: cut evaluation requires a closed diagram"),
    "cup beyond the word": (
        "flink", "unknot.json", lambda d: d["diagram"]["width-changes"][0].update(position=3),
        2, "schema error: slice 0 (Cup): cup position 3 out of range for width 0"),
    "cap joining two components": (
        "flink", "hopf.json", lambda d: d["diagram"]["width-changes"][4].update(position=2),
        2, "schema error: slice 4 (Cap): cap joins different components 'A' and 'B'"),
    "coupon inputs off the word": (
        "flink", "unknot_coupon.json",
        lambda d: d["diagram"]["width-changes"][2]["inputs"][0].update(up=True),
        2, "schema error: slice 2 (Coupon): coupon inputs [K up] do not match word "
           "segment [K down]"),
}


@pytest.mark.parametrize("label", list(_REJECTED))
def test_rejected_document_exits_with_one_line(tmp_path, capsys, label):
    sub, fixture, edit, want_code, line = _REJECTED[label]
    path = _fixture_with(tmp_path, fixture, edit)
    code, out, err = run(capsys, sub, "--r", "5", "--input", path)
    assert (code, out, err) == (want_code, "", line + "\n")


def test_coupon_on_no_strands_scales_the_unknot(tmp_path, capsys):
    # a coupon with empty input and output words is the scalar of its 1×1
    # matrix: F' of the unknot colored 1/3 times 2
    def edit(doc):
        doc["colors"]["K"] = "1/3"
        doc["diagram"]["width-changes"].insert(1, {
            "slice": "coupon", "position": 0, "inputs": [], "outputs": [], "matrix": [["2"]]})

    path = _fixture_with(tmp_path, "unknot.json", edit)
    code, doc, err = run_json(capsys, "flink", "--r", "5", "--input", path)
    assert (code, err) == (0, "")
    expected = 2 * RootParams(5).mdim(1 / 3)
    assert abs(complex(float(doc["F_re"]), float(doc["F_im"])) - expected) <= 1e-12 * abs(expected)


def test_selftest_table_prints_a_failing_property_with_its_detail(monkeypatch, capsys):
    def failing(ctx, rng):
        raise AssertionError("residual 0.5 above 1e-10")

    monkeypatch.setattr(selftest, "CHECKS", [*CHECKS[:1], ("always_fails", failing)])
    code, out, err = run(capsys, "selftest", "--r", "3")
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == ["FAIL  always_fails  [residual 0.5 above 1e-10]",
                                    "1/2 properties hold for r=3"]


def test_domain_error_verlinde_overflow(tmp_path, capsys):
    bad = tmp_path / "g400.json"
    bad.write_text(json.dumps({"genus": 400, "beta": "1/3"}))
    code, _, err = run(capsys, "verlinde", "--r", "5", "--input", str(bad))
    assert code == 3
    assert "overflows double precision" in err


def test_domain_error_verlinde_far_overflow(tmp_path, capsys):
    # {rβ} leaves double range, and so does q**x in the far-class ratio
    bad = tmp_path / "far.json"
    bad.write_text(json.dumps({"genus": 2, "beta": {"re": "0.3", "im": "1.6e307"}}))
    code, out, err = run(capsys, "verlinde", "--r", "5", "--input", str(bad))
    assert (code, out) == (3, "")
    assert err == "domain error: q**x overflows double precision at x=(-1.5-8e+307j)\n"


def _two_vertex_spine(tmp_path, color):
    """Edges x→y and y→x of grading 0.3, a leg into x and a leg out of y,
    both of ``color`` and grading color + 4 (its degree at r = 5)."""
    leg = {"grading": color + 4, "color": color}
    path = tmp_path / "spine.json"
    path.write_text(json.dumps({"vertices": [{"name": "x"}, {"name": "y"}], "edges": [
        {"name": "a", "tail": "x", "head": "y", "grading": 0.3},
        {"name": "b", "tail": "y", "head": "x", "grading": 0.3},
        {"name": "in", "tail": None, "head": "x", **leg},
        {"name": "out", "tail": "y", "head": None, **leg},
    ]}))
    return str(path)


@pytest.mark.parametrize("sub", ["hh0", "tqftdim"])
def test_graph_colors_beyond_2_23_are_domain_errors(tmp_path, capsys, sub):
    # doubles are spaced wider than epsilon_int there: 1e20 ≡ 0 mod 10 used
    # to give the histogram {0: 5, 1: 20}, against {0: 25} for color 0;
    # at 2^23 − 4 the color fits but its grading is 2^23
    for color in (1e20, 2.0**23 - 4):
        code, out, err = run(capsys, sub, "--r", "5", "--input", _two_vertex_spine(tmp_path, color))
        assert (code, out) == (3, "")
        assert err.startswith("domain error: ") and err.count("\n") == 1, err
    # just below, the color keeps its class: 2^23 − 8 ≡ 0 mod 2r' = 10
    for color in (0.0, 2.0**23 - 8):
        code, doc, err = run_json(capsys, sub, "--r", "5", "--input", _two_vertex_spine(tmp_path, color))
        assert (code, err) == (0, "")
        assert doc["dimensions"] == {"0": 25}


def _edge(name, tail, head, grading, color=None):
    return {"name": name, "tail": tail, "head": head, "grading": grading,
            **({} if color is None else {"color": color})}


_TWO_FAULTS = {  # spine edges with two faults -> the one line reported
    "duplicate name, then incidences": (
        [_edge("e", "u", "v", 0.3), _edge("e", "u", "v", -0.3)],
        "duplicate edge names in ['e', 'e']",
    ),
    # x (the first edge's tail) has 2 incidences and y 4, and leg in's
    # grading is not its color's degree
    "incidences, then leg degree": (
        [_edge("a", "x", "y", 0.3), _edge("b", "y", "y", 0.2),
         _edge("out", "y", None, 0.3, 0.3), _edge("in", None, "x", 0.5, 0.0)],
        "vertex 'x' has 2 incidences, need 3",
    ),
    # leg in's grading is not its color's degree, and the signed sum at x
    # is 0.1 besides in's grading
    "leg degree, then 1-cycle": (
        [_edge("a", "x", "y", 0.3), _edge("b", "y", "x", 0.4),
         _edge("in", None, "x", 0.5, 0.0), _edge("out", "y", None, 4.0, 0.0)],
        "external edge 'in': grading (0.5+0j) is not the degree of its color 0j",
    ),
}


@pytest.mark.parametrize("label", list(_TWO_FAULTS))
def test_spine_with_two_faults_reports_the_first(tmp_path, capsys, label):
    edges, line = _TWO_FAULTS[label]
    vertices = sorted({v for e in edges for v in (e["tail"], e["head"]) if v})
    path = tmp_path / "spine.json"
    path.write_text(json.dumps({"vertices": [{"name": v} for v in vertices], "edges": edges}))
    for sub in ("hh0", "tqftdim"):
        code, out, err = run(capsys, sub, "--r", "5", "--input", str(path))
        assert (code, out, err) == (3, "", f"domain error: $: {line}\n")


@pytest.mark.parametrize("im", ["1e308", "-1e308", "1.7e308", "9e307", "1e307"])
def test_verlinde_near_the_float_limit(tmp_path, capsys, im):
    # r·β leaves double range from 9e307 on, and at 1e307 a genus-5 term's
    # scale does; both once printed nan with exit 0
    points = [[], ["0"], ["2/5", "-2/5"]]
    for genus, pts in itertools.product(range(6), points):
        doc = {"genus": genus, "beta": {"re": "0.3", "im": im}, "points": pts}
        path = tmp_path / f"g{genus}p{len(pts)}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verlinde", "--r", "5", "--input", str(path))
        assert "nan" not in out + err, (genus, pts)
        if code == 0:
            assert im == "1e307" and err == ""
        else:
            assert (code, out) == (3, "") and err.startswith("domain error:")
            assert err.count("\n") == 1


# colors with a large imaginary part: q**alpha leaves double range above
# |Im alpha| ~ 226 (the modified dimension's {r alpha}), not at 100
_IMAGINARY_COLORS = [
    ("flink", "unknot.json", lambda d, c: d["colors"].update(K=c)),
    ("zinv", "s1xs2.json", lambda d, c: d["meridians"].update(L1=c)),
]


@pytest.mark.parametrize("im,code", [("800", 3), ("250", 3), ("100", 0)])
@pytest.mark.parametrize("sub,fixture,edit", _IMAGINARY_COLORS,
                         ids=[site[0] for site in _IMAGINARY_COLORS])
def test_large_imaginary_color(tmp_path, capsys, sub, fixture, edit, im, code):
    path = _fixture_with(tmp_path, fixture, lambda d: edit(d, {"re": "0.3", "im": im}))
    got, out, err = run(capsys, sub, "--r", "5", "--input", path)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("domain error:") and "overflows double precision" in err
    else:
        assert err == "" and "nan" not in out


def _overflow_in_uncut_component(tmp_path, im):
    """``flink`` on the Hopf link with A = 0.3 + im·i, in a fresh process.

    Only the uncut component is huge: every q_pow that builds the colors
    stays finite, and the evaluation itself leaves double range.
    """
    path = _fixture_with(
        tmp_path, "hopf.json", lambda d: d["colors"].update(A={"re": "0.3", "im": im})
    )
    return run_fresh("flink", "--r", "5", "--input", path)


_OVERFLOW = (3, "", "domain error: the evaluated tangle overflows double precision\n")


def test_overflow_inside_tangle_is_domain_error(tmp_path):
    # the braiding overflows; the CLI prints one line and no RuntimeWarning
    assert _overflow_in_uncut_component(tmp_path, "150") == _OVERFLOW


def test_overflow_in_braiding_powers_is_one_error_line(tmp_path):
    # the powers of E overflow first, before any pivot is formed
    assert _overflow_in_uncut_component(tmp_path, "300") == _OVERFLOW


def _limit_address_space():
    limit = 3 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("sub,r,fixture", [
    ("flink", 301, "hopf.json"),            # 122 GiB braiding
    ("zinv", 301, "lens_7_2.json"),         # 36 TiB stack of r crossing braidings
    ("hh0", 1001, "genus2_theta.json"),     # 14.9 GiB vertex grid
])
def test_domain_error_out_of_memory(sub, r, fixture):
    code, out, err = run_fresh(
        sub, "--r", str(r), "--input", str(FIXTURES / fixture),
        preexec_fn=_limit_address_space, OPENBLAS_NUM_THREADS="1",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: not computable within available memory:")
    assert "Traceback" not in err


_TIMED_MAIN = ("import resource, sys, time\nfrom unrolledsl2.cli import main\n"
               "start = time.perf_counter()\ncode = main(sys.argv[1:])\n"
               "print(time.perf_counter() - start, "
               "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\nsys.exit(code)\n")


def _timed_main(limit, *argv):
    """``main(argv)`` in a child whose address space is limited to
    ``limit`` bytes: its exit code, its stderr, the seconds spent in
    ``main`` and the child's peak RSS in MiB."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, *argv], capture_output=True, text=True,
        timeout=300, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    seconds, rss = proc.stdout.split() if proc.stdout else ("nan", "nan")
    return proc.returncode, proc.stderr, float(seconds), float(rss) / 1024


def test_hh0_preflight_refuses_before_allocating():
    # each vertex tensor of the theta spine has r'^3 = 8e12 cells at r = 20001,
    # and the contraction's largest step, charged before any is built, is the
    # merge of the two; under the address-space limit a missing preflight
    # would end in numpy's own MemoryError, whose message differs
    code, err, seconds, _ = _timed_main(
        3 * 2**30, "hh0", "--r", "20001", "--input", str(FIXTURES / "genus2_theta.json"))
    assert code == 3
    assert err.startswith("domain error: not computable within available memory: "
                          "an HH0 merge needs ")
    assert err.count("\n") == 1
    assert seconds < 0.5


def test_zinv_preflight_refuses_before_building_the_kirby_colors():
    # 301 Kirby colors per component at r = 301: the sector layout's charge
    # refuses the run.  Dense r×r E and F of those colors (416 MiB each per
    # component) would end in numpy's own MemoryError under this limit
    code, err, seconds, rss = _timed_main(
        2**30, "zinv", "--r", "301", "--input", str(FIXTURES / "lens_7_2.json"))
    assert code == 3
    assert err.startswith("domain error: not computable within available memory: "
                          "the weight-sector layout needs ")
    assert err.count("\n") == 1
    assert seconds < 0.5 and rss < 200


def test_closed_pipe_exits_1_without_traceback():
    # the reader is gone before anything is written (as `| head -c 10`
    # once head has exited): every write fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = run_fresh(
            "flink", "--r", "5", "--input", str(FIXTURES / "hopf.json"), stdout=write)
    finally:
        os.close(write)
    assert (code, err) == (1, "")


def _main_with_streams(monkeypatch, tmp_path, stdout, stderr=None):
    """``main`` on the verlinde fixture, in process, with ``sys.stdout`` and
    ``sys.stderr`` on files the test opened; the code and stderr's text."""
    with open(tmp_path / "stderr.txt", "w+", encoding="utf-8") as log:
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr or log)
        code = main(["verlinde", "--r", "5", "--input", str(FIXTURES / "verlinde_g1.json")])
        monkeypatch.undo()
        log.seek(0)
        return code, log.read()


def test_closed_pipe_exits_1_without_a_message(monkeypatch, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        assert _main_with_streams(monkeypatch, tmp_path, stdout) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exits_1_with_one_output_error_line(monkeypatch, tmp_path):
    with open("/dev/full", "w", encoding="utf-8") as stdout:
        code, err = _main_with_streams(monkeypatch, tmp_path, stdout)
    assert code == 1
    assert err == "output error: cannot write the result: No space left on device\n"
    # with stderr full too, the error line is lost and the code stays
    with open("/dev/full", "w", encoding="utf-8") as stdout, \
            open("/dev/full", "w", encoding="utf-8") as stderr:
        assert _main_with_streams(monkeypatch, tmp_path, stdout, stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("sub,fixture", [("flink", "hopf.json"), ("zinv", "s1xs2.json")])
def test_full_disk_exits_1_with_one_error_line(sub, fixture):
    with open("/dev/full", "w") as full:
        code, _, err = run_fresh(sub, "--r", "5", "--input", str(FIXTURES / fixture),
                                 "--format", "json", stdout=full)
    assert code == 1
    assert err == "output error: cannot write the result: No space left on device\n"


def test_preflight_refuses_before_building_any_block(capsys, monkeypatch):
    import unrolledsl2.diagram as diagram

    sysconf = os.sysconf
    monkeypatch.setattr(
        os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    built = []
    monkeypatch.setattr(diagram, "braiding_entries", lambda *args: built.append(args))
    code, out, err = run(capsys, "flink", "--r", "5", "--input", str(FIXTURES / "hopf.json"))
    assert (code, out, built) == (3, "", [])
    assert err.startswith("domain error: not computable within available memory: ")
    assert err.count("\n") == 1


def _closure_document(word, strands, color):
    slices = [{"slice": "cup", "position": j, "component": "K", "variant": "coev"}
              for j in range(strands)]
    slices += [{"slice": "braid", "position": p, "sign": s} for p, s in word]
    slices += [{"slice": "cap", "position": j, "variant": "evprime"}
               for j in reversed(range(strands))]
    return {"diagram": {"source": [], "width-changes": slices}, "colors": {"K": color}}


@pytest.mark.parametrize("r,strands", [(7, 5), (5, 6), (5, 7)])
def test_wide_stair_closure_is_a_framed_unknot(tmp_path, r, strands):
    # σ₁…σₙ₋₁ closes to an unknot of writhe n−1, so F' = θ_α^(n−1)·d(α);
    # a walk over the slices would hold an r^(2n) tensor here
    path = tmp_path / "closure.json"
    word = [(p, 1) for p in range(strands - 1)]
    path.write_text(json.dumps(_closure_document(word, strands, "2/7")))
    code, out, err = run_fresh(
        "flink", "--r", str(r), "--input", str(path), "--format", "json",
        preexec_fn=_limit_address_space, OPENBLAS_NUM_THREADS="1",
    )
    assert (code, err) == (0, "")
    result = json.loads(out)
    got = complex(float(result["F_re"]), float(result["F_im"]))
    ctx = RootParams(r)
    expected = twist_scalar(ctx, 2 / 7) ** (strands - 1) * ctx.mdim(2 / 7)
    assert abs(got - expected) <= 1e-12 * abs(expected)


# (subcommand, fixture, edit placing the marker, JSON path of the marker)
_NUMBER_SITES = [
    ("flink", "hopf.json", lambda d: d["colors"].update(A="@"), "$.colors.A"),
    ("zinv", "s1xs2.json", lambda d: d["meridians"].update(L1="@"),
     "$.meridians.L1"),
    ("hh0", "genus2_theta.json", lambda d: d["edges"][1].update(grading="@"),
     "$.edges[1].grading"),
    ("verlinde", "verlinde_g1.json", lambda d: d.update(beta="@"), "$.beta"),
]


@pytest.mark.parametrize(
    "token", ['"nan"', '"inf"', '"-Infinity"', '"1e400"', "1e400", "NaN",
              "Infinity", "-Infinity"]
)
@pytest.mark.parametrize("sub,fixture,edit,where", _NUMBER_SITES,
                         ids=[site[0] for site in _NUMBER_SITES])
def test_schema_error_non_finite_number(tmp_path, capsys, sub, fixture, edit,
                                        where, token):
    doc = json.loads((FIXTURES / fixture).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@"', token))
    code, _, err = run(capsys, sub, "--r", "5", "--input", str(bad))
    assert code == 2
    assert "schema error" in err and where in err and "finite" in err


# (subcommand, fixture, edit making one field malformed, JSON path named)
_MALFORMED = [
    ("verlinde", "verlinde_g1.json", lambda d: d.update(beta=True), "$.beta"),
    ("verlinde", "verlinde_g1.json", lambda d: d.update(beta={"re": 1, "im": 0, "i": 2}),
     "$.beta"),
    ("verlinde", "verlinde_g1.json", lambda d: d.update(points={}), "$.points"),
    ("flink", "hopf.json", lambda d: d["diagram"]["width-changes"].__setitem__(0, 5),
     "$.diagram.width-changes[0]"),
    ("flink", "hopf.json", lambda d: d["diagram"].update(source=[5]), "$.diagram.source[0]"),
    ("flink", "hopf.json", lambda d: d["diagram"].update(source=[{"component": "A", "up": 1}]),
     "$.diagram.source[0].up"),
    ("flink", "hopf.json", lambda d: d["diagram"]["width-changes"][2].update(sign=2),
     "$.diagram.width-changes[2].sign"),
    ("flink", "hopf.json", lambda d: d["diagram"]["width-changes"][0].update(variant="ev"),
     "$.diagram.width-changes[0].variant"),
    ("flink", "hopf.json", lambda d: d["diagram"]["width-changes"][5].update(variant="coev"),
     "$.diagram.width-changes[5].variant"),
    ("flink", "unknot_coupon.json", lambda d: d["diagram"]["width-changes"][2].update(inputs={}),
     "$.diagram.width-changes[2]"),
    ("flink", "unknot_coupon.json", lambda d: d["diagram"]["width-changes"][2].update(matrix={}),
     "$.diagram.width-changes[2].matrix"),
    ("flink", "hopf.json", lambda d: d["diagram"].update(source={}), "$.diagram.source"),
    ("flink", "hopf.json", lambda d: d["diagram"].update({"width-changes": {}}),
     "$.diagram.width-changes"),
    ("flink", "hopf.json", lambda d: d.update(cut=5), "$.cut"),
    ("hh0", "genus2_theta.json", lambda d: d.update(vertices={}), "$.vertices"),
    ("hh0", "genus2_theta.json", lambda d: d["vertices"][1].update(name="u"), "$.vertices[1]"),
    ("hh0", "genus2_theta.json", lambda d: d["edges"][0].update(tail=5), "$.edges[0].tail"),
    ("hh0", "genus2_theta.json", lambda d: d.update(edges={}), "$.edges"),
]


@pytest.mark.parametrize("sub,fixture,edit,where", _MALFORMED,
                         ids=[f"{site[0]}-{site[3]}" for site in _MALFORMED])
def test_schema_error_names_the_malformed_field(tmp_path, capsys, sub, fixture, edit, where):
    code, out, err = run(capsys, sub, "--r", "5", "--input", _fixture_with(tmp_path, fixture, edit))
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: {where}:") and err.count("\n") == 1, err


def _coupon_matrix_edit(edit):
    return lambda d: edit(d["diagram"]["width-changes"][2]["matrix"])


def test_schema_error_coupon_matrix_row_not_an_array(tmp_path, capsys):
    # a row that is not an array is refused before its entries are read
    path = _fixture_with(tmp_path, "unknot_coupon.json",
                         _coupon_matrix_edit(lambda m: m.__setitem__(1, 5)))
    code, out, err = run(capsys, "flink", "--r", "5", "--input", path)
    assert (code, out) == (2, "")
    assert err == ("schema error: $.diagram.width-changes[2].matrix[1]: "
                   "expected an array of entries\n")


def test_schema_error_ragged_coupon_matrix(tmp_path, capsys):
    # rows of unequal length are refused before numpy stacks them
    path = _fixture_with(tmp_path, "unknot_coupon.json",
                         _coupon_matrix_edit(lambda m: m[3].pop()))
    code, out, err = run(capsys, "flink", "--r", "5", "--input", path)
    assert (code, out) == (2, "")
    assert err == ("schema error: $.diagram.width-changes[2].matrix[3]: "
                   "expected 5 entries like row 0, got 4\n")


def test_schema_error_document_nested_too_deeply(tmp_path, capsys):
    # nesting beyond the parser's recursion limit is a schema error
    path = tmp_path / "deep.json"
    path.write_text("[" * 1000)
    code, out, err = run(capsys, "hh0", "--r", "5", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"schema error: {path}: nested too deeply\n"


@pytest.mark.parametrize("im", ["4", "8", "30"])
def test_verlinde_lost_to_rounding_is_one_domain_error(tmp_path, capsys, im):
    # genus 2 at r = 5 is 125 at every class; at these the terms reach
    # 5e8, 3e17 and 3e65 and cancel, and the values printed were
    # 124.9999994, -1120+480i and 4.7e50-2.3e50i
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"genus": 2, "beta": {"re": "0.3", "im": im}}))
    code, out, err = run(capsys, "verlinde", "--r", "5", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == (f"domain error: the genus-2 value at beta=(0.3+{im}j) is lost to "
                   "rounding in double precision\n")
    # at 0.3+2i the bound is met and the value prints
    path.write_text(json.dumps({"genus": 2, "beta": {"re": "0.3", "im": "2"}}))
    code, doc, err = run_json(capsys, "verlinde", "--r", "5", "--input", str(path))
    assert (code, err) == (0, "")
    value = complex(float(doc["value_re"]), float(doc["value_im"]))
    assert abs(value - 125) <= 1e-9 * 125
