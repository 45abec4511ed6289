"""The modules of the package import one another only downwards, in one
fixed order of layers, so that, for one, the cochain layer never reaches
up into the transfer engine or the complex drivers; ``SparseVector`` is
the one vector type the layers share and ``Report`` the one report type;
every function, class and method of the package has a use in it, or is
the API that the README and the demos present; the package needs nothing
beyond the standard library; the names that the benchmark harness looks up
in the package exist; and each benchmark workload prints the stdout that
bench/references.json records for it."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplicial_transfer

LAYERS = (
    "rationals",
    "forms",
    "cochains",
    "reporting",
    "contraction",
    "tensorwords",
    "trees",
    "transfer",
    "complexes",
    "cli",
)
PACKAGE = Path(simplicial_transfer.__file__).parent
BENCH = PACKAGE.parent.parent / "bench"


def _package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its
    source, by relative or absolute name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if not name.startswith("simplicial_transfer"):
                    continue
                name = name[len("simplicial_transfer") :].lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("simplicial_transfer.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_go_down_the_layers(module):
    above = set(LAYERS[LAYERS.index(module) :])
    assert not _package_imports(module) & above, module


def test_the_parser_finds_the_imports():
    # so that the layer test above cannot pass by finding nothing
    assert "forms" in _package_imports("cochains")
    assert {"transfer", "cochains"} <= _package_imports("complexes")


def _classes_defining(attribute: str) -> set[str]:
    """The package classes whose own ``vars()`` hold ``attribute``."""
    owners = set()
    for module in LAYERS:
        mod = importlib.import_module(f"simplicial_transfer.{module}")
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ and attribute in vars(obj):
                owners.add(obj.__qualname__)
    return owners


def test_sparse_vector_is_the_one_vector_type():
    # forms and cochains inherit their + from SparseVector, and a sum of
    # words is a SparseVector without a space; a class of its own with an
    # __add__ would be a second vector type
    assert _classes_defining("__add__") == {"SparseVector"}


def test_report_is_the_one_report_type():
    # every battery reports through reporting.Report, whose JSON is its
    # fields, all_passed and the records; a class of its own with a
    # to_json_dict would be a second report type
    assert _classes_defining("to_json_dict") == {"CheckRecord", "Report"}


def _package_sources() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _named_elsewhere(node: ast.AST, sources: dict[str, ast.Module]) -> bool:
    """Whether some source file of the package names ``node`` outside its
    own ``def`` or ``class``, as a plain name or as an attribute; an import
    or an ``__all__`` entry is no use."""
    own = {id(inner) for inner in ast.walk(node)}
    return any(
        id(use) not in own
        and (
            isinstance(use, ast.Name) and use.id == node.name
            or isinstance(use, ast.Attribute) and use.attr == node.name
        )
        for source in sources.values()
        for use in ast.walk(source)
    )


def _unused_private_functions() -> list[str]:
    """The module-level functions named with a leading underscore that no
    source file of the package names outside their own ``def``."""
    sources = _package_sources()
    return [
        f"{module}.{node.name}"
        for module, tree in sorted(sources.items())
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not _named_elsewhere(node, sources)
    ]


def test_every_private_function_has_a_use_in_the_package():
    # a helper that only the tests call is a dead helper of the package; it
    # belongs in tests/helpers.py
    assert _unused_private_functions() == []


# The API that the README and the demos present and that no source file of
# the package calls: a public name outside this list needs a use in src/.
PRESENTED_API = {
    "elementary_form",
    "h_operator",
    "parse_form",
    "morphism_G",
    "transferred_m",
    "transferred_m_trees",
    "path_trees",
    "SparseVector.basis_element",
}


def _unused_public_names() -> set[str]:
    """The public module-level functions and classes, and the public
    methods of the package's classes (as ``Class.method``), that no source
    file of the package names outside their own definition."""
    sources = _package_sources()
    unused = set()
    for tree in sources.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and not _named_elsewhere(node, sources):
                unused.add(node.name)
            if isinstance(node, ast.ClassDef):
                unused.update(
                    f"{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and not _named_elsewhere(method, sources)
                )
    return unused


def test_every_public_name_has_a_use_in_the_package_or_is_presented_api():
    # a public name that only the tests reach is a dead helper too: the
    # tests' tools and oracles live in tests/helpers.py.  The list must hold
    # exactly the unused names, so that it cannot go stale and the guard
    # cannot pass by finding nothing
    assert _unused_public_names() == PRESENTED_API


def test_no_public_method_is_named_like_a_dict_method():
    # the use finder matches an attribute by name, so every num.items() or
    # dict .get() in src/ would count as a use of a method of that name,
    # and the guard above could not see it go unused
    shadowing = {
        f"{node.name}.{method.name}"
        for tree in _package_sources().values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name in vars(dict)
    }
    assert shadowing == set()


# The functions of the battery modules that may call product(..., repeat=...):
# the one word sweep, and the interval table, which sweeps its own t/dt basis
WORD_SWEEPS = {"_words", "interval_product_table"}


def _repeat_product_callers(module: str) -> list[str]:
    """The module-level functions of ``module`` whose body, at any depth,
    calls ``product`` with a ``repeat`` keyword, once per call."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and (
            isinstance(call.func, ast.Name) and call.func.id == "product"
            or isinstance(call.func, ast.Attribute) and call.func.attr == "product"
        )
        and any(keyword.arg == "repeat" for keyword in call.keywords)
    ]


def test_every_battery_reads_its_words_from_the_one_sweep():
    # the batteries of transfer and complexes list basis words only through
    # transfer._words, so that the word order, the basis and the size are
    # one decision; the sweep itself must be found, so the guard cannot
    # pass by finding nothing
    callers = _repeat_product_callers("transfer") + _repeat_product_callers("complexes")
    assert "_words" in callers
    assert set(callers) <= WORD_SWEEPS, sorted(set(callers) - WORD_SWEEPS)


def test_the_zero_rule_is_one_hook():
    # m_k, G_n and the cut products vanish by one degree test, stated once on
    # the complex bundle; the old m_k-only count is named nowhere, not even
    # in a docstring
    sources = _package_sources()
    assert not [module for module, tree in sources.items() if "zero_by_count" in ast.dump(tree)]
    owners = [
        owner.name
        for tree in sources.values()
        for owner in ast.walk(tree)
        if isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef))
        for node in owner.body
        if isinstance(node, ast.FunctionDef) and node.name == "vanishes_in_degree"
    ]
    assert owners == ["ComplexContraction"]


def test_the_complex_bundle_keeps_only_the_cochain_side():
    # one dimension, and the form side (forms, contraction maps, the tree
    # vertex and the unit f(1)) is defined on the simplex bundle alone
    sources = _package_sources()
    assert not [module for module, tree in sources.items() if "top_dim" in ast.dump(tree)]
    classes = {
        node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(sources["transfer"])
        if isinstance(node, ast.ClassDef)
    }
    form_side = {"m_A", "unit_B", "d_A", "wedge_A", "one_A", "zero_A", "f", "g", "H", "render_A"}
    assert not classes["ComplexContraction"] & form_side
    assert form_side <= classes["SimplexContraction"]


def test_the_package_exports_no_koszul_sign():
    # tree evaluation needs no slotwise sign, so the helper lives in the tests
    assert not hasattr(simplicial_transfer, "koszul_sign")
    tensorwords = importlib.import_module("simplicial_transfer.tensorwords")
    assert tensorwords.__all__ == ["shuffle"] and not hasattr(tensorwords, "koszul_sign")


def test_f_is_the_only_integral():
    # a form's value at a vertex and its integral over the simplex are f's
    # coordinates at the 0-face and the top face
    forms = importlib.import_module("simplicial_transfer.forms")
    for name in ("integrate_top", "vertex_evaluate"):
        assert not hasattr(simplicial_transfer, name) and not hasattr(forms, name)


def _modules_the_cli_import_adds() -> list[str]:
    """The modules that ``import simplicial_transfer.cli`` adds to a fresh
    interpreter."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import simplicial_transfer.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_the_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize, which no command
    # runs, and the package import is most of a cold CLI run's setup
    added = _modules_the_cli_import_adds()
    assert "simplicial_transfer.cli" in added
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added)


def test_the_cli_needs_only_the_standard_library():
    # the package declares no dependency, so every command runs on a bare
    # interpreter; a third-party import anywhere below cli would break that
    added = _modules_the_cli_import_adds()
    assert "simplicial_transfer.cli" in added
    allowed = {*sys.stdlib_module_names, "simplicial_transfer"}
    assert [name for name in added if name.split(".")[0] not in allowed] == []


def _json_uses(module: str) -> set[str]:
    """What ``module`` takes from ``json`` and its submodules: each module
    it imports whole, each name it imports from one, and each attribute it
    reads of a whole import, as ``json.loads``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "json":
                    aliases[alias.asname or alias.name] = alias.name
                    uses.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "json":
                uses.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                uses.add(f"{aliases[node.value.id]}.{node.attr}")
    return uses


def test_the_cli_has_one_json_writer():
    # every JSON report goes through reporting.dump, the one module of the
    # package that calls json.dumps; complexes parses its files with
    # json.loads, and any other json use in the package would be a second
    # writer
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    uses = {module: _json_uses(module) for module in modules}
    assert {module: names for module, names in uses.items() if names} == {
        "reporting": {"json.dumps", "json.encoder.encode_basestring_ascii"},
        "complexes": {"json", "json.loads"},
    }


def _bench_constants(name: str) -> dict:
    """The module-level constants of a bench script, read from its source
    without importing it."""
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
        and isinstance(node.value, (ast.Dict, ast.Tuple))
    }


def test_the_benchmark_finds_its_modules_and_entries():
    # the tracer wraps functions by module key and the benchmark child stamps
    # the CLI's battery entries; a module or an entry removed from the
    # package would crash every benchmark run
    tracer = _bench_constants("tracer.py")
    keys = set()
    for table in ("TIMED", "SPANS", "COUNTED"):
        keys.update(tracer[table])
    assert keys and keys <= set(LAYERS), keys - set(LAYERS)
    entries = _bench_constants("child.py")["BATTERY_ENTRIES"]
    assert entries
    cli = importlib.import_module("simplicial_transfer.cli")
    assert [name for name in entries if not hasattr(cli, name)] == []


def _bench_workloads() -> dict:
    """The CLI argv of each workload of bench/run.py, read from its source
    without importing it, with the fixture name ``OCTAHEDRON`` put in."""
    assigned = {
        node.targets[0].id: node.value
        for node in ast.parse((BENCH / "run.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    fixture = ast.Constant(ast.literal_eval(assigned["OCTAHEDRON"]))
    workloads = assigned["WORKLOADS"]
    for argv in workloads.values:
        argv.elts = [
            fixture if isinstance(arg, ast.Name) and arg.id == "OCTAHEDRON" else arg
            for arg in argv.elts
        ]
    return ast.literal_eval(workloads)


BENCH_WORKLOADS = _bench_workloads()


class _ReachedEntry(Exception):
    pass


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS))
def test_every_benchmark_workload_reaches_a_battery_entry(workload, monkeypatch):
    # the benchmark child stamps the start of a battery at the first call of
    # an entry through cli's globals and, finding no stamp, counts the whole
    # run as set-up; a handler that stopped calling its entry there would
    # go unnoticed, so here each entry raises on its first call
    cli = importlib.import_module("simplicial_transfer.cli")

    def entry(*args, **kwargs):
        raise _ReachedEntry

    for name in _bench_constants("child.py")["BATTERY_ENTRIES"]:
        monkeypatch.setattr(cli, name, entry)
    monkeypatch.chdir(BENCH.parent)  # the children run in the repository root
    with pytest.raises(_ReachedEntry):
        cli.main(BENCH_WORKLOADS[workload])


@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS))
def test_every_benchmark_workload_matches_its_reference(workload, monkeypatch):
    # bench/run.py counts a run whose stdout leaves the digest recorded in
    # bench/references.json as failed; run each workload as bench/child.py
    # does, in-process from the repository root with stdout captured, and
    # compare the same exit code, byte count and sha256
    cli = importlib.import_module("simplicial_transfer.cli")
    reference = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))[workload]
    monkeypatch.chdir(BENCH.parent)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(BENCH_WORKLOADS[workload])
    out = captured.getvalue().encode("utf-8")
    assert {
        "exit_code": code,
        "stdout_bytes": len(out),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    } == reference
