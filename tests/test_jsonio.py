"""The JSON emitter writes exactly what ``json.dumps(indent=2, sort_keys=True)``
writes, on arbitrary documents and on every CLI result; number strings parse
to the float that exact rational arithmetic gives."""

import json
import math
import pathlib
from fractions import Fraction

import pytest

from unrolledsl2.cli import main
from unrolledsl2.errors import SchemaError
from unrolledsl2.jsonio import dump_document, parse_real
from unrolledsl2.model import SlicedDiagram, diagram_to_json

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "fixtures"
SUBCOMMANDS = ("flink", "zinv", "tqftdim", "hh0", "verlinde")

texts = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é", " ",
                     "\U0001d530", "\ud800"]),
)
ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
)
scalars = st.one_of(texts, ints, floats, st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(texts, children, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(documents)
def test_emitter_matches_the_standard_library(doc):
    assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_emitter_rejects_what_the_standard_library_rejects():
    for bad in (object(), [b"bytes"], {"set": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_document(bad)


def test_diagram_with_a_foreign_slice_is_not_serialized():
    with pytest.raises(SchemaError, match="^cannot serialize slice 'braid'$"):
        diagram_to_json(SlicedDiagram(("braid",)))


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_cli_output_is_the_standard_dump(capsys, fixture):
    accepted = 0
    for sub in SUBCOMMANDS:
        for r in ("5", "6"):
            code = main([sub, "--r", r, "--input", str(FIXTURES / fixture),
                         "--format", "json"])
            out = capsys.readouterr().out
            if code == 0:
                accepted += 1
                assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert accepted, f"no subcommand accepts {fixture}"


def reference_parse_real(value: str, path: str) -> float:
    """How ``parse_real`` read every string before its "p/q" shortcut."""
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        try:
            number = float(value)
        except ValueError:
            raise SchemaError(
                f"{path}: {value!r} is not a rational 'p/q' string, a "
                "decimal string, or a number"
            ) from None
    try:
        out = float(number)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{path}: {value!r} is not a finite number")
    return out


def parse_outcome(parse, value: str):
    """The float's bits (signed zeros apart), or the schema error's message."""
    try:
        return parse(value, "$.x").hex()
    except SchemaError as exc:
        return str(exc)


digits = st.one_of(  # up to and past the 4300 digits int() converts
    st.text("0123456789", min_size=1, max_size=30),
    st.integers(1, 700).map(lambda n: "1" + "0" * n),
    st.integers(4295, 4305).map(lambda n: "7" * n),
    st.sampled_from(["0", "000", str(2**53 + 1)]),
)
ratio_strings = st.builds(lambda sign, p, q: f"{sign}{p}/{q}",
                          st.sampled_from(["", "+", "-"]), digits, digits)
number_strings = st.one_of(
    ratio_strings,
    ratio_strings.map(lambda t: f" {t}"),
    ratio_strings.map(lambda t: t.replace("/", " / ")),
    st.text(alphabet="0123456789+-/._ e\u0663\uff11", max_size=12),
    st.sampled_from(["-0.0", "-0/5", "0/-5", "1_0/3", "1/0", "1/00", "\u0663/7", "3/\u0667",
                     "0.1", "1e400", "-1e-400", "nan", "inf", "1/3\n", "/3", "3/", "+-1/3"]),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(number_strings)
def test_number_strings_parse_as_exact_rationals(text):
    assert parse_outcome(parse_real, text) == parse_outcome(reference_parse_real, text)
