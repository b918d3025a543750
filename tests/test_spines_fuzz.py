"""Property fuzz of the dimension subcommands through the CLI.

Random documents, run in process through ``cli.main``:

* generic spines of genus 1-4 with 0-3 marked points, through ``hh0`` and
  ``tqftdim``: the printed histogram must be the engine's and pass the
  shared oracle (the coloring grid, or the exact total and the closed
  form when the grid is too large);
* the same spines broken (an integral grading, a grading that is no longer
  a 1-cycle, a field of the wrong type): one schema or domain error line;
* ``verlinde`` at genus 0-12 with complex classes (|Im| up to 1e3): a
  finite value or one domain error line, and at genus 1 without points
  the value r' at every nonintegral class.

No document may end in a traceback or a numpy warning.
"""

import json
import math
import warnings
from itertools import count

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from unrolledsl2.cli import main  # noqa: E402
from unrolledsl2.qscalar import RootParams  # noqa: E402
from unrolledsl2.selftest import assert_hh0_matches_oracle  # noqa: E402
from unrolledsl2.tqftdim import (  # noqa: E402
    graph_to_json,
    hh0_dimension_generic,
    random_generic_graph,
)

ERROR_PREFIXES = {2: "schema error: ", 3: "domain error: "}
ROOTS = [2, 3, 5, 6, 7, 9]
SETTINGS = dict(deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_paths = count()


def _run(tmp_path, capsys, command, r, doc):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    path = tmp_path / f"doc{next(_paths)}.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--r", str(r), "--input", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    return code, captured.out, captured.err


def _assert_one_error_line(code, out, err, codes=(2, 3)):
    assert code in codes, (code, err)
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(ERROR_PREFIXES[code])


@st.composite
def spines(draw):
    """(r, graph, seed) for a random generic spine with marked points."""
    r = draw(st.sampled_from(ROOTS))
    genus = draw(st.integers(1, 4))
    legs = draw(st.integers(0, 3))
    if legs == 1 and r % 2 == 0:
        legs = 2  # a lone point needs a degree-0 color, which even r lacks
    seed = draw(st.integers(0, 2**32 - 1))
    graph = random_generic_graph(RootParams(r), np.random.default_rng(seed), genus, legs)
    return r, graph, seed


@settings(max_examples=80, **SETTINGS)
@given(spines())
def test_dimensions_match_the_oracle(tmp_path, capsys, case):
    r, graph, seed = case
    expected = hh0_dimension_generic(graph)
    for command in ("hh0", "tqftdim"):
        code, out, err = _run(tmp_path, capsys, command, r, graph_to_json(graph))
        assert code == 0 and err == "", err
        result = json.loads(out)
        assert result["dimensions"] == {str(k): v for k, v in expected.coefficients.items()}
        assert result["total"] == expected.total
        assert result["count_convention"] == expected.parity_mode
    assert_hh0_matches_oracle(graph, np.random.default_rng(seed))


_WRONG_TYPES = [
    ("vertices", "v0"),
    ("edges", {"name": "e"}),
    ("edge name", 7),
    ("edge tail", 3),
    ("grading", [0.5]),
    ("grading", True),
    ("order", "first"),
]


def _internal(doc):
    return [e for e in doc["edges"] if "color" not in e]


@st.composite
def broken_spines(draw):
    """(r, document) for a spine made invalid in one place."""
    r, graph, _ = draw(spines())
    doc = graph_to_json(graph)
    edges = _internal(doc)
    edge = edges[draw(st.integers(0, len(edges) - 1))]
    # a loop or a vertex-free circle has no cycle condition of its own
    links = [e for e in edges if e["tail"] != e["head"]]
    kind = draw(st.sampled_from(["integral", "cycle", "type"]))
    if kind == "cycle" and links:
        edge = links[draw(st.integers(0, len(links) - 1))]
        shift = draw(st.sampled_from([0.5, 1.0, 0.25, 1.3]))
        edge["grading"]["re"] = repr(float(edge["grading"]["re"]) + shift)
    elif kind != "type":
        # the edge becomes non-generic; on a link between two vertices
        # this also breaks the 1-cycle at its ends
        edge["grading"] = draw(st.integers(-3, 3))
    else:
        field, value = draw(st.sampled_from(_WRONG_TYPES))
        if field in ("vertices", "edges"):
            doc[field] = value
        elif field == "order":
            if not doc["vertices"]:
                doc["vertices"] = value
            else:
                doc["vertices"][0]["order"] = value
        else:
            edge[field.removeprefix("edge ")] = value
    return r, doc


@settings(max_examples=80, **SETTINGS)
@given(broken_spines())
def test_broken_spines_end_in_one_error_line(tmp_path, capsys, case):
    r, doc = case
    for command in ("hh0", "tqftdim"):
        _assert_one_error_line(*_run(tmp_path, capsys, command, r, doc))


def _value(re, im):
    return repr(re) if im == 0 else {"re": repr(re), "im": repr(im)}


def _complex(value):
    """The complex number a :func:`_value` document field stands for."""
    if isinstance(value, dict):
        return complex(float(value["re"]), float(value["im"]))
    return complex(float(value))


reals = st.floats(min_value=-4, max_value=4, allow_nan=False)
small = st.floats(min_value=-3, max_value=3, allow_nan=False)
imaginary = st.one_of(st.just(0.0), small, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
complexes = st.builds(_value, reals, imaginary)


@settings(max_examples=150, **SETTINGS)
@given(st.sampled_from(ROOTS), st.integers(0, 12), complexes,
       st.lists(complexes, max_size=3))
# classes whose {r beta} leaves double range
@example(r=5, genus=1, beta={"re": "0.3", "im": "500.0"}, points=[])
@example(r=6, genus=1, beta={"re": "-1.7", "im": "-300.0"}, points=[])
@example(r=5, genus=2, beta={"re": "0.3", "im": "500.0"}, points=[])
def test_verlinde_is_finite_or_one_error_line(tmp_path, capsys, r, genus, beta, points):
    doc = {"genus": genus, "beta": beta}
    if points:
        doc["points"] = points
    code, out, err = _run(tmp_path, capsys, "verlinde", r, doc)
    if genus == 1 and not points and not RootParams(r).is_near_int(_complex(beta)):
        # the genus-1 value is r' at every nonintegral class
        assert code == 0, err
        result = json.loads(out)
        value = complex(float(result["value_re"]), float(result["value_im"]))
        assert abs(value - RootParams(r).rprime) <= 1e-12 * r
    if code == 0:
        assert err == ""
        result = json.loads(out)
        assert all(math.isfinite(float(result[key])) for key in ("value_re", "value_im"))
        return
    _assert_one_error_line(code, out, err, codes=(3,))
