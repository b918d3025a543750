"""Command-line interface: formats, exit codes, schema diagnostics."""

import json
import pathlib

import pytest

from unrolledsl2.cli import main
from unrolledsl2.jsonio import graph_to_json, load_document, parse_graph
from unrolledsl2.qscalar import RootParams
from unrolledsl2.tqftdim import graded_dimension, necklace_graph

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


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


def test_inputs_round_trip_exact(capsys):
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
    tmp = path.parent / "_rt_tmp.json"
    try:
        tmp.write_text(json.dumps(echoed))
        code2, doc2, _ = run_json(capsys, "tqftdim", "--r", "5", "--input", str(tmp))
        assert code2 == 0
        assert doc2["dimensions"] == doc["dimensions"]
        assert doc2["inputs"] == echoed
    finally:
        tmp.unlink(missing_ok=True)


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_selftest_passes(capsys, r):
    code, doc, _ = run_json(capsys, "selftest", "--r", str(r))
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["results"]) == 26


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


def test_domain_error_verlinde_overflow(tmp_path, capsys):
    bad = tmp_path / "g400.json"
    bad.write_text(json.dumps({"genus": 400, "beta": "1/3"}))
    code, _, err = run(capsys, "verlinde", "--r", "5", "--input", str(bad))
    assert code == 3
    assert "overflows double precision" in err


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
