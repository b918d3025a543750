"""The JSON emitter writes exactly what ``json.dumps(indent=2, sort_keys=True)``
writes, on arbitrary documents and on every CLI result."""

import json
import math
import pathlib

import pytest

from unrolledsl2.cli import main
from unrolledsl2.jsonio import dump_document

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
