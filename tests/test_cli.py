import json

import pytest

from simplicial_transfer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_contraction_command(capsys):
    code, out, _ = run(capsys, "contraction", "--dim", "1", "--max-poly-degree", "6")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_contraction_json_deterministic(capsys):
    code, out1, _ = run(
        capsys, "contraction", "--dim", "1", "--max-poly-degree", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out1)
    assert payload["all_passed"] is True
    _, out2, _ = run(
        capsys, "contraction", "--dim", "1", "--max-poly-degree", "3", "--format", "json"
    )
    assert out1 == out2


def test_contraction_rejects_bad_dimension(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["contraction", "--dim", "-1"])
    assert exc.value.code == 2


def test_trees_command(capsys):
    code, out, _ = run(capsys, "trees", "--leaves", "4", "--count-only")
    assert code == 0
    assert out.strip() == "11"
    code, out, _ = run(capsys, "trees", "--leaves", "2")
    assert code == 0
    assert out.strip() == "(* *)"
    code, out, _ = run(capsys, "trees", "--leaves", "5", "--count-only")
    assert out.strip() == "45"


def test_interval_command(capsys):
    code, out, _ = run(capsys, "interval", "--max-arity", "3")
    assert code == 0
    assert "m(t,t" in out and "= 1 t" in out
    assert "1/12 dt" in out
    code, out, _ = run(capsys, "interval", "--max-arity", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["all_passed"] is True
    entries = {e["word"]: e["value"] for e in payload["entries"]}
    assert entries["t,t,dt"] == "0"
    assert entries["t,dt,dt"] == "1/12 dt"


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "1", "--max-arity", "4")
    assert code == 0
    assert "overall: pass" in out


def test_verify_break_signs(capsys):
    code, out, _ = run(
        capsys, "verify", "--dim", "1", "--max-arity", "2", "--break-signs"
    )
    assert code == 1
    assert "counterexample" in out


def test_complex_commands(tmp_path, capsys):
    complex_file = tmp_path / "delta2.json"
    complex_file.write_text(
        json.dumps({"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]})
    )
    a_file = tmp_path / "a.json"
    a_file.write_text(json.dumps({"entries": [{"simplex": [0], "coeff": "1"}]}))
    b_file = tmp_path / "b.json"
    b_file.write_text(json.dumps({"entries": [{"simplex": [0, 1], "coeff": "1"}]}))

    code, out, _ = run(
        capsys,
        "complex", "--file", str(complex_file), "--format", "json",
        "cup", "--a", str(a_file), "--b", str(b_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [{"simplex": [0, 1], "coeff": "1/2"}]

    code, out, _ = run(capsys, "complex", "--file", str(complex_file), "whitney-check")
    assert code == 0
    assert "PASS" in out


def test_complex_missing_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "complex", "--file", str(tmp_path / "absent.json"), "whitney-check"
    )
    assert code == 2
    assert "cannot read" in err


def test_complex_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [0, 1], "simplices": [[1, 0]]}')
    code, _, err = run(capsys, "complex", "--file", str(bad), "whitney-check")
    assert code == 2
    assert "bad complex file" in err


def _complex_run(tmp_path, capsys, complex_data, *operation):
    complex_file = tmp_path / "complex.json"
    complex_file.write_text(json.dumps(complex_data))
    return run(capsys, "complex", "--file", str(complex_file), *operation)


def _cup_with(tmp_path, capsys, entries):
    a_file = tmp_path / "a.json"
    a_file.write_text(json.dumps({"entries": entries}))
    return _complex_run(
        tmp_path, capsys, {"vertices": [0, 1], "simplices": [[0, 1]]},
        "cup", "--a", str(a_file), "--b", str(a_file),
    )


def _assert_one_line_usage_error(code, err, prefix):
    assert code == 2
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cochain_coefficient_as_json_number(tmp_path, capsys):
    code, _, err = _cup_with(tmp_path, capsys, [{"simplex": [0], "coeff": 0.1}])
    _assert_one_line_usage_error(code, err, "bad cochain file")


def test_cochain_entry_without_coeff(tmp_path, capsys):
    code, _, err = _cup_with(tmp_path, capsys, [{"simplex": [0]}])
    _assert_one_line_usage_error(code, err, "bad cochain file")


def test_complex_vertices_not_a_list(tmp_path, capsys):
    code, _, err = _complex_run(
        tmp_path, capsys, {"vertices": 3, "simplices": [[0, 1]]}, "whitney-check"
    )
    _assert_one_line_usage_error(code, err, "bad complex file")


def test_complex_non_integer_vertex_index(tmp_path, capsys):
    code, _, err = _complex_run(
        tmp_path, capsys, {"vertices": [0, 1], "simplices": [["a", "b"]]}, "whitney-check"
    )
    _assert_one_line_usage_error(code, err, "bad complex file")
