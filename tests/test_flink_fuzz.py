"""Property fuzz of ``flink`` through the CLI.

Random colored links, run in process through ``cli.main``: (2, 2·lk)
clasps and braid closures on up to 5 strands (one component per cycle of
the braid permutation), with rational or complex colors (|Im| up to 1e3)
and a random ``cut`` component.  Every document must end in a finite
result or in one documented error line, never in a traceback or in numpy
warnings.
"""

import json
import math
from fractions import Fraction
from itertools import count

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from unrolledsl2.cli import main  # noqa: E402

ERROR_PREFIXES = {2: "schema error: ", 3: "domain error: "}


def _cup(position, component):
    return {"slice": "cup", "position": position, "component": component, "variant": "coev"}


def _cap(position):
    return {"slice": "cap", "position": position, "variant": "evprime"}


def _braid(position, sign):
    return {"slice": "braid", "position": position, "sign": sign}


def _clasp(lk):
    """The (2, 2·lk) clasp of A and B; names (outer first) and slices."""
    slices = [_cup(0, "B"), _cup(1, "A")] + [_braid(0, 1 if lk >= 0 else -1)] * (2 * abs(lk))
    return ["B", "A"], slices + [_cap(1), _cap(0)]


def _closure(word, strands):
    """The trace closure of a braid word, one component per permutation
    cycle; names (the outer one, K0, first) and slices."""
    at = list(range(strands))  # the bottom strand at each position
    for p, _ in word:
        at[p], at[p + 1] = at[p + 1], at[p]
    names: dict = {}  # closing the top of position p onto its bottom joins at[p] to p
    for start in range(strands):
        j = start
        while j not in names:
            names[j] = f"K{start}"
            j = at[j]
    names = [names[j] for j in range(strands)]
    slices = [_cup(j, names[j]) for j in range(strands)]
    slices += [_braid(p, s) for p, s in word]
    slices += [_cap(j) for j in reversed(range(strands))]
    return sorted(set(names)), slices


def _value(re: Fraction, im: float = 0.0):
    return str(re) if im == 0 else {"re": str(re), "im": repr(im)}


# mostly non-integral rationals (an integral color is a domain error), and
# imaginary parts mostly small (a large one overflows at larger r)
odd_halves = st.builds(lambda n, d: Fraction(2 * n + 1, 2 * d), st.integers(-20, 20), st.integers(1, 6))
rationals = st.one_of(odd_halves, odd_halves, st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
small = st.floats(min_value=-3, max_value=3, allow_nan=False)
imaginary = st.one_of(small, small, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
values = st.one_of(rationals.map(_value), st.builds(_value, rationals, imaginary))


@st.composite
def links(draw):
    """(r, document) for a random colored clasp or braid closure."""
    r = draw(st.sampled_from([2, 3, 5, 6, 7]))
    if draw(st.booleans()):
        names, slices = _clasp(draw(st.integers(-4, 4)))
    else:
        strands = draw(st.integers(1, 5))
        crossing = st.tuples(st.integers(0, max(strands - 2, 0)), st.sampled_from([1, -1]))
        word = draw(st.lists(crossing, max_size=8 if strands > 1 else 0))
        names, slices = _closure(word, strands)
    doc = {
        "diagram": {"source": [], "width-changes": slices},
        "colors": {name: draw(values) for name in names},
    }
    # an inner component is enclosed (a domain error): favour the outer one
    cut = draw(st.sampled_from([None, names[0], *names]))
    if cut is not None:
        doc["cut"] = cut
    return r, doc


_paths = count()


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(links())
def test_flink_ends_in_a_result_or_one_error_line(tmp_path, capsys, case):
    r, doc = case
    path = tmp_path / f"doc{next(_paths)}.json"
    path.write_text(json.dumps(doc))
    code = main(["flink", "--r", str(r), "--input", str(path), "--format", "json"])
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        assert err == ""
        result = json.loads(out)
        assert all(math.isfinite(float(result[key])) for key in ("F_re", "F_im"))
        return
    assert out == ""
    assert err.count("\n") == 1
    if code == 1:
        # known defect, not a pass: float64 cannot resolve the Schur scalar
        # of some ill-conditioned tangles (ROADMAP item 1, certified precision)
        assert err.startswith("internal inconsistency: NotScalarError: ")
        return
    assert code in ERROR_PREFIXES
    assert err.startswith(ERROR_PREFIXES[code])
