import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simplicial_transfer.cli import main
from simplicial_transfer.forms import Form
from simplicial_transfer.rationals import SparseVector


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


def test_exponent_overflow_exits_2_with_one_line(capsys):
    # t1^40000 does not fit a packed monomial, whose exponents stop at
    # 2^15 - 1: the run stops while the monomial basis is built, before any
    # battery, instead of wrapping or printing a traceback.  At dim >= 2 the
    # bound is refused before any exponent tuple is built: the basis would
    # hold ~bound^dim of them
    for dim, bound in (("1", "40000"), ("3", "32768")):
        code, out, err = run(capsys, "contraction", "--dim", dim, "--max-poly-degree", bound)
        assert code == 2 and not out
        assert err == (
            "simplicial-transfer: error: exponent 32768 exceeds 32767, "
            "the largest a monomial holds\n"
        ), err
    # the 0-simplex has no exponents, so any bound fits
    code, out, _ = run(capsys, "contraction", "--dim", "0", "--max-poly-degree", "40000")
    assert code == 0 and "[FAIL]" not in out


def test_trees_command(capsys):
    code, out, _ = run(capsys, "trees", "--leaves", "4", "--count-only")
    assert code == 0
    assert out.strip() == "11"
    code, out, _ = run(capsys, "trees", "--leaves", "2")
    assert code == 0
    assert out.strip() == "(* *)"
    code, out, _ = run(capsys, "trees", "--leaves", "5", "--count-only")
    assert out.strip() == "45"


def test_trees_count_only_builds_no_tree(capsys, monkeypatch):
    # 14 leaves give 71,039,373 trees, which an enumeration could not hold
    def refuse(n):
        raise AssertionError("enumerate_trees called")

    monkeypatch.setattr("simplicial_transfer.cli.enumerate_trees", refuse)
    monkeypatch.setattr("simplicial_transfer.trees.enumerate_trees", refuse)
    code, out, _ = run(capsys, "trees", "--leaves", "14", "--count-only")
    assert code == 0
    assert out == "71039373\n"


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


def test_verify_interval_to_arity_6(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "1", "--max-arity", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [c["basis_size"] for c in payload["reports"][0]["checks"]] == [3**n for n in range(1, 7)]


def test_verify_break_signs(capsys):
    code, out, _ = run(
        capsys, "verify", "--dim", "1", "--max-arity", "2", "--break-signs"
    )
    assert code == 1
    assert "counterexample" in out


# the minimal 7-vertex triangulation of the torus
_TORUS = {
    "vertices": list(range(7)),
    "simplices": [sorted({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    + [sorted({i, (i + 2) % 7, (i + 3) % 7}) for i in range(7)],
}
_OCTAHEDRON = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "octahedron.json").read_text()
)
_PINNED = {
    "verify-break-signs": ("verify", "--dim", "2", "--max-arity", "3", "--break-signs"),
    "verify": ("verify", "--dim", "2", "--max-arity", "3"),
    "contraction": ("contraction", "--dim", "3", "--max-poly-degree", "2"),
    "contraction-4": ("contraction", "--dim", "4", "--max-poly-degree", "2"),
    "contraction-4-cubic": ("contraction", "--dim", "4", "--max-poly-degree", "3"),
    "interval": ("interval", "--max-arity", "6"),
    "interval-deep": ("interval", "--max-arity", "12"),
    "interval-16": ("interval", "--max-arity", "16"),
    "verify-tetra": ("verify", "--dim", "3", "--max-arity", "3"),
    "verify-tetra-break-signs": ("verify", "--dim", "3", "--max-arity", "3", "--break-signs"),
    "whitney-octahedron": _OCTAHEDRON,
    "whitney-torus": _TORUS,
    "whitney-discrete": {"vertices": [0, 1, 2], "simplices": [[0], [1], [2]]},
    "trees-4": ("trees", "--leaves", "4"),
    # a complex case with cochain files a and b runs cup, any other whitney-check
    "cup-triangle": {
        "complex": {"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]},
        "a": {"entries": [{"simplex": [0], "coeff": "1"}, {"simplex": [1], "coeff": "2"}]},
        "b": {
            "entries": [{"simplex": [0, 1], "coeff": "1"}, {"simplex": [1, 2], "coeff": "-1/2"}]
        },
    },
    # an edge as the left factor carries the sign -x of an odd left degree
    "cup-octahedron": {
        "complex": _OCTAHEDRON,
        "a": {"entries": [{"simplex": [0, 2], "coeff": "1"}, {"simplex": [1, 3], "coeff": "-1/3"}]},
        "b": {
            "entries": [
                {"simplex": [2], "coeff": "1"},
                {"simplex": [3], "coeff": "2"},
                {"simplex": [2, 4], "coeff": "1/2"},
                {"simplex": [0, 4], "coeff": "1"},
                {"simplex": [1, 5], "coeff": "-3"},
            ]
        },
    },
}


# sha256 of each report's stdout, recorded before every battery went through
# one recorder
_DIGESTS = {
    ("verify-break-signs", "text"):
        "e39a660ff8802c240b9fd97a4a99fc6928deac19d36cb8785eb1f5b1001e71c4",
    ("verify-break-signs", "json"):
        "277e89b3e4a5a4c87b6a821edc32423d027e74c214920f2ed2b955754d983265",
    ("verify", "text"):
        "fe36e4a04e2150847643743b83b339d7d7344deb749b305e00a83b02450c15c4",
    ("verify", "json"):
        "514531f18b7d089b9ad2a1905f90f50e0f2236a4b889502b4a562eb497ab645e",
    ("contraction", "text"):
        "24a488964670a7ed5e666b150936067b3ce39f48ae901076836c69c5bf0f650e",
    ("contraction", "json"):
        "dc30ed017e38153b9f2a1fe08d132b88b6f3c6e407822caea81e8903163547a8",
    ("interval", "text"):
        "30feda8aa4b5a5b91dd7d8e6726370766232cb53c8519ca97ed7f1a073ed9581",
    ("interval", "json"):
        "527119ce5f2036f5e1d0d9e5c4598cdfcdc474c2082a8e17a4779dc4b53d3cf3",
    ("whitney-octahedron", "text"):
        "534e4b3a0b4f7cd028f37c190a3c8990351122350def7ea2813f7cf9429dfbd0",
    ("whitney-octahedron", "json"):
        "f7b08b4f9454b3c08609bf2ae85051513e169fa37e89d568b304e284a6dfd5b0",
    ("whitney-torus", "text"):
        "609f0787b90a9f581fe7ee17f530e71b864852f115a7edfdb2305be6011e30e1",
    ("whitney-torus", "json"):
        "ffae7d883c2ee5c9c4e8f797491f44e96862b40c753aed24fd489eaa9e8bc06b",
    ("whitney-discrete", "text"):
        "112b7ffe416debec1abe107b298671dec968fc39b5fa210d329b3ce35d3d7e6d",
    ("whitney-discrete", "json"):
        "fe502ce93bea24e1a8c746f2fa789fba8bd4ccc7af66ce02f96d06cc0d4ac785",
    # recorded before the simplex bundle read m_k by the join rule
    ("interval-deep", "json"):
        "a15c0ed995339abd95aa1b76902f97a33e838d0690fd93aefbbcbceb693778ee",
    ("verify-tetra", "json"):
        "c26a2ee65d93575f0f4ae9163251caf8b2b6c66504473e69581e755139844d72",
    # recorded before form monomials were packed into one int each
    ("contraction-4", "text"):
        "40583f49e7ab1da68b41637cd2527d6892935ed40aba2df446559205c2bccaea",
    # recorded before every JSON report went through one writer; the
    # trees and cup reports keep their keys in insertion order
    ("trees-4", "json"):
        "2e6b19fdcdf572f3408be75ccb89508b11d76b1bd49583b7e68b785d64d1a706",
    ("cup-triangle", "json"):
        "5c3821c79cd0f629745d4106677ba8fb44c79990aac163429bdc6157f3e3eb8c",
    ("interval-deep", "text"):
        "5f5f11693e9995d3add779a68ce6e1f9709a77991b2866a45bd96f16bf9fbd8a",
    # recorded before s columns were filled once per orbit of the vertices
    ("contraction-4-cubic", "text"):
        "f81f8f31f68c3a1da3be8e545a8b792633d663cb7edbcfb55241ee989780baa9",
    ("contraction-4-cubic", "json"):
        "f933ad8628f95a5291abc8c5e69bec51ae00bfacd653d74f65035fda8781a975",
    # recorded while each bundle still interned its letters lazily
    ("cup-octahedron", "text"):
        "d26e3dc1c84542e256824827d6b7589560b45f770c800abb4ffc7246185880d1",
    ("cup-octahedron", "json"):
        "9ce456ef93f50a780d4f3826bdd10fc785fb16cfa8e1a052352d3b9003b78311",
    # recorded while the interval table held every entry as a dict
    ("interval-16", "json"):
        "4d260f92e5c2102b47eab056476a567d7517ba274f348bfe36b05732e8254a5d",
    ("interval-16", "text"):
        "c6d5713c8e5f7c2accd0b28b9555c671fad53d44040a285857eb16760d786a82",
    # recorded before the relation batteries asked the zero rule once per
    # word, so that the first failing word is pinned beyond the triangle too
    ("verify-tetra-break-signs", "json"):
        "96534dbc871c22174a0a172d06635ef59027a07e59d3f39f5912a2db6fcb5444",
}


@pytest.mark.parametrize("case, fmt", list(_DIGESTS), ids=[f"{c}-{f}" for c, f in _DIGESTS])
def test_report_is_unchanged(tmp_path, capsys, case, fmt):
    # the break-signs digests date from the letter-by-letter insertion sum:
    # expanding m_k in the cochain basis did not move a counterexample
    argv = _PINNED[case]
    failing = "--break-signs" in argv
    if isinstance(argv, dict):
        files = argv if "complex" in argv else {"complex": argv}
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        argv = ("complex", "--file", str(paths["complex"]), "--format", fmt)
        if "a" in paths:
            argv += ("cup", "--a", str(paths["a"]), "--b", str(paths["b"]))
        else:
            argv += ("whitney-check",)
    else:
        argv += ("--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == (1 if failing else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[case, fmt]


def _checked_sum(calls):
    """SparseVector._sum that first asserts its caller's duty, which the
    kernel does not check: every part is a vector of cls on space."""
    general = SparseVector._sum.__func__

    def checked(cls, space, parts, den=1):
        calls.append(cls)
        for _, v in parts:
            assert type(v) is cls and v._space == space, (cls.__name__, space, v)
        return general(cls, space, parts, den)

    return classmethod(checked)


_OCTAHEDRON_FILE = str(Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "octahedron.json")
_GUARDED = {
    "verify": ("verify", "--dim", "2", "--max-arity", "3"),
    "verify-break-signs": ("verify", "--dim", "2", "--max-arity", "3", "--break-signs"),
    "contraction": ("contraction", "--dim", "2"),
    "interval": ("interval", "--max-arity", "6"),
    "whitney-octahedron": ("complex", "--file", _OCTAHEDRON_FILE, "whitney-check"),
}


@pytest.mark.parametrize("argv", list(_GUARDED.values()), ids=list(_GUARDED))
def test_every_sum_is_handed_parts_of_its_own_type_and_space(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(SparseVector, "_sum", _checked_sum(calls))
    code, _, err = run(capsys, *argv)
    assert code == (1 if "--break-signs" in argv else 0) and err == ""
    assert calls


def test_the_sum_guard_flags_a_part_of_another_space(monkeypatch):
    # the negative control: a 1-form handed to a sum of 2-forms
    monkeypatch.setattr(SparseVector, "_sum", _checked_sum([]))
    with pytest.raises(AssertionError):
        Form._sum(2, [(1, Form.monomial(1, (1,), ()))])


@pytest.mark.parametrize(
    "argv, read",
    [
        (("trees", "--leaves", "3"), 0),
        (("interval", "--max-arity", "10", "--format", "json"), 0),
        (("interval", "--max-arity", "16", "--format", "json"), 4096),
    ],
    ids=["short-report", "long-report", "mid-stream"],
)
def test_closed_stdout_exits_2_with_one_line(argv, read):
    # the read end closes after the first read bytes; a short report fails
    # at the final flush, a long one inside a write, and one closed after
    # its first 4 KiB in the middle of its stream of entries
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "simplicial_transfer.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(child.stdout.read(read)) == read
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "stdout was closed" in err


class _Discard:
    """A stdout that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_interval_16_is_written_in_bounded_memory(monkeypatch, fmt):
    # 131,068 entries, 11.3 MB of JSON and 7.5 MB of text; a table that
    # held its entries, or a report held whole, peaked at 56-74 MiB
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = main(["interval", "--max-arity", "16", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


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


def test_cochain_coefficient_in_exponent_notation(tmp_path, capsys):
    code, _, err = _cup_with(tmp_path, capsys, [{"simplex": [0], "coeff": "1e1000000"}])
    _assert_one_line_usage_error(code, err, "bad cochain file")


def test_cochain_entry_without_coeff(tmp_path, capsys):
    code, _, err = _cup_with(tmp_path, capsys, [{"simplex": [0]}])
    _assert_one_line_usage_error(code, err, "bad cochain file")


def test_cochain_with_a_duplicated_simplex(tmp_path, capsys):
    # the two entries are not summed: a simplex listed twice is a format error
    code, out, err = _cup_with(
        tmp_path, capsys, [{"simplex": [0], "coeff": "1"}, {"simplex": [0], "coeff": "2"}]
    )
    _assert_one_line_usage_error(code, err, "bad cochain file: duplicate simplex [0]")
    assert out == ""


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


def test_complex_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"vertices": ["\u00e9"], "simplices": [[0]]}'.encode("latin-1"))
    code, _, err = run(capsys, "complex", "--file", str(bad), "whitney-check")
    _assert_one_line_usage_error(code, err, "bad complex file")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vertices": [0, 0], "simplices": [[0]]}, "duplicate vertex labels"),
        ({"vertices": [0, 1], "simplices": [[]]}, "empty simplex"),
        ({"vertices": [0, 1], "simplices": 5}, '"simplices" must be a list of vertex index lists'),
    ],
    ids=["duplicate-vertex-labels", "empty-simplex", "simplices-not-a-list"],
)
def test_complex_file_shape_errors(tmp_path, capsys, data, message):
    code, out, err = _complex_run(tmp_path, capsys, data, "whitney-check")
    _assert_one_line_usage_error(code, err, f"bad complex file: {message}")
    assert out == ""


@pytest.mark.parametrize("bad", ["--a", "--b"])
@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read cochain file"), ("{", "bad cochain file")],
    ids=["absent", "malformed"],
)
def test_unreadable_cochain_file(tmp_path, capsys, bad, content, message):
    # the other factor is a valid cochain file, so the bad one is the one
    # that stops the command, whichever slot it fills
    good, broken = tmp_path / "good.json", tmp_path / "broken.json"
    good.write_text(json.dumps({"entries": []}))
    if content is not None:
        broken.write_text(content)
    files = {"--a": good, "--b": good, bad: broken}
    code, out, err = _complex_run(
        tmp_path, capsys, {"vertices": [0, 1], "simplices": [[0, 1]]},
        "cup", "--a", str(files["--a"]), "--b", str(files["--b"]),
    )
    _assert_one_line_usage_error(code, err, message)
    assert out == ""


def test_deeply_nested_complex_file(tmp_path, capsys):
    deep = "[" * 200_000 + "]" * 200_000
    (tmp_path / "complex.json").write_text('{"vertices": [0], "simplices": ' + deep + "}")
    code, _, err = run(capsys, "complex", "--file", str(tmp_path / "complex.json"), "whitney-check")
    _assert_one_line_usage_error(code, err, "bad complex file")


def test_deeply_nested_cochain_file(tmp_path, capsys):
    a_file = tmp_path / "a.json"
    a_file.write_text('{"entries": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, _, err = _complex_run(
        tmp_path, capsys, {"vertices": [0, 1], "simplices": [[0, 1]]},
        "cup", "--a", str(a_file), "--b", str(a_file),
    )
    _assert_one_line_usage_error(code, err, "bad cochain file")


# -- fuzzing the file loaders through main() --------------------------------

_SCALARS = st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["vertices", "simplices", "entries", "simplex", "coeff"]) | st.text(max_size=3),
        inner,
        max_size=3,
    ),
    max_leaves=12,
)
_FACE = st.lists(st.integers(-1, 5), min_size=1, max_size=4, unique=True).map(sorted)
_NEAR_COMPLEX = st.fixed_dictionaries({
    "vertices": st.lists(st.integers(0, 9), max_size=6, unique=True),
    "simplices": st.lists(_FACE, max_size=4),
})
_NEAR_COCHAIN = st.fixed_dictionaries({
    "entries": st.lists(
        st.fixed_dictionaries({
            "simplex": st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True).map(sorted),
            "coeff": st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True) | _SCALARS,
        }),
        max_size=3,
    ),
})


def _encode(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _files(near):
    """Arbitrary bytes, arbitrary small JSON, or JSON close to the format."""
    return st.one_of(st.binary(max_size=64), _JSON.map(_encode), near.map(_encode))


_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("bad ")
    else:
        assert out and not err


@_FUZZ
@given(_files(_NEAR_COMPLEX))
def test_fuzzed_complex_file(tmp_path, capsys, payload):
    complex_file = tmp_path / "complex.json"
    complex_file.write_bytes(payload)
    cochain = tmp_path / "a.json"
    cochain.write_text(json.dumps({"entries": [{"simplex": [0], "coeff": "2"}]}))
    code, out, err = run(
        capsys, "complex", "--file", str(complex_file), "cup", "--a", str(cochain), "--b", str(cochain)
    )
    _assert_clean_exit(code, out, err)


@_FUZZ
@given(_files(_NEAR_COCHAIN))
def test_fuzzed_cochain_file(tmp_path, capsys, payload):
    cochain = tmp_path / "a.json"
    cochain.write_bytes(payload)
    code, out, err = _complex_run(
        tmp_path, capsys, {"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]},
        "cup", "--a", str(cochain), "--b", str(cochain),
    )
    _assert_clean_exit(code, out, err)


# -- argument errors, and fuzzing every subcommand's argv through main() ------


def _main_exit(capsys, argv):
    """main(argv) as (exit code, stdout, stderr), a parser's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("contraction", "--max-poly-degree", "0"),
        ("trees", "--leaves", "0"),
        ("interval", "--max-arity", "x"),
        ("verify", "--dim", "-1"),
        ("verify", "--dim", "x"),
        ("complex", "--file", "complex.json", "bogus-operation"),
    ],
    ids=["contraction", "trees", "interval", "verify-negative", "verify-not-a-number", "complex"],
)
def test_argument_error_is_one_line(capsys, argv):
    code, out, err = _main_exit(capsys, argv)
    assert code == 2 and not out
    assert err.startswith("simplicial-transfer: error: ")
    assert err.count("\n") == 1, err


_MALFORMED = st.sampled_from(["x", "", "1.5", "1e3", "--", "0x1"])


def _size(flag, low, high, omittable=True):
    """A size flag with a small or malformed value; omitted only where the
    default run is small too."""
    pair = (st.integers(low, high).map(str) | _MALFORMED).map(lambda v: [flag, v])
    return pair | st.just([]) if omittable else pair


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: [token for part in lists for token in part])


# files stand as placeholders, which the test replaces by paths
_FILE = st.sampled_from(["@complex", "@cochain", "@broken", "@missing"])
_OPERATION = st.sampled_from([["whitney-check"], ["bogus"], []]) | st.tuples(_FILE, _FILE).map(
    lambda ab: ["cup", "--a", ab[0], "--b", ab[1]]
)
_SUBCOMMANDS = st.one_of(
    _argv(st.just(["contraction"]), _size("--dim", -1, 2), _size("--max-poly-degree", -1, 3)),
    _argv(st.just(["trees"]), _size("--leaves", -1, 5)),
    _argv(st.just(["interval"]), _size("--max-arity", -1, 4)),
    _argv(
        st.just(["verify"]), _size("--dim", -1, 2), _size("--max-arity", -1, 3, omittable=False)
    ),
    _argv(st.just(["complex"]), _FILE.map(lambda f: ["--file", f]) | st.just([]), _OPERATION),
)
_EXTRA = st.lists(
    st.sampled_from(
        ["--format", "json", "text", "xml", "--bogus", "--count-only", "--break-signs", "-q", "cup"]
    ),
    max_size=3,
)
_ARGV = _argv(st.lists(st.sampled_from(["--bogus", "-q"]), max_size=1), _SUBCOMMANDS, _EXTRA)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_ARGV)
def test_fuzzed_argv(tmp_path, capsys, argv):
    files = {
        "@complex": json.dumps({"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]}),
        "@cochain": json.dumps({"entries": [{"simplex": [0, 1], "coeff": "1/2"}]}),
        "@broken": "{",
    }
    for name, text in files.items():
        (tmp_path / name[1:]).write_text(text)
    argv = [str(tmp_path / token[1:]) if token.startswith("@") else token for token in argv]
    code, out, err = _main_exit(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1, err
    else:
        assert out and not err
